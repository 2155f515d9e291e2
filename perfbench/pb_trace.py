"""Span tracing of gaugelab's layers from outside the package.

`Tracer.install` wraps every public function of the layer modules, and every
public method of the body and measure classes, at each name a gaugelab
module binds it to (so `ft_many` is wrapped both in `gaugelab.measures` and
where `gaugelab.goodness` imported it).  Each call records a span: name,
start, end, parent span index and the op id current at the call.  Spans stay
in memory; `uninstall` puts every original object back.

Only the traced benchmark process imports this module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("bodies", "measures", "goodness", "correlation", "distances", "spectra")
CLASS_LAYERS = ("bodies", "measures")  # methods of body and measure classes



# Work done by one call, as a count, for the rate metrics.  Each entry maps a
# span name to a function of the call's bound arguments.
WORK = {
    "measures.ft_many": lambda a: len(a["mu"]) * _rows(a["Xi"]),
    "measures.ft_profile": lambda a: len(a["mu"]) * _rows(a["t_grid"]),
    "correlation.split_integrals": lambda a: len(a["sigma"]) * (2 * a["f"].m) ** a["f"].dim,
    "correlation.direct_correlation": lambda a: len(a["sigma"]) * a["f"].count,
    "distances.distance_set": lambda a: len(a["points"]) * (len(a["points"]) - 1) // 2,
}


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return shape[0] if len(shape) else 1


class Tracer:
    """Collects nested spans from wrapped gaugelab callables."""

    SETUP_OP = -1   # op id of spans recorded while the workload is constructed
    IDLE_OP = -2    # op id between ops (gate checks, bookkeeping)

    def __init__(self):
        self.spans = []        # [name, start, end, parent, op, work]
        self.op = self.SETUP_OP
        self._stack = []
        self._restore = []     # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, fn):
        work = WORK.get(name)
        bind = inspect.signature(fn).bind if work else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   work(bind(*args, **kwargs).arguments) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap the layer callables at every binding inside the gaugelab package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "gaugelab" or name.startswith("gaugelab."))]
        functions = {}   # id(original) -> (span name, original)
        for layer in LAYERS:
            mod = sys.modules[f"gaugelab.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    functions[id(obj)] = (f"{layer}.{attr}", obj)
                elif (layer in CLASS_LAYERS and inspect.isclass(obj)
                      and obj.__module__ == mod.__name__):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, fn, self._wrap(f"{layer}.{attr}.{meth}", fn))
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in functions.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is functions[id(obj)][1]:
                    self._set(mod, attr, obj, wrappers[id(obj)])
        return self

    def _set(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- span arithmetic -------------------------------------------------------------


def self_times(spans):
    """Per-span self time: duration minus the summed durations of its children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        parent = s[3]
        if parent >= 0:
            out[parent] -= s[2] - s[1]
    return out


def summarize(spans, op_ids):
    """Per-name totals over the spans whose op id is in op_ids.

    Returns {name: {"self_s", "incl_s", "calls", "work"}} with times summed.
    """
    selfs = self_times(spans)
    agg = defaultdict(lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "work": 0})
    for s, own in zip(spans, selfs):
        if s[4] not in op_ids:
            continue
        a = agg[s[0]]
        a["self_s"] += own
        a["incl_s"] += s[2] - s[1]
        a["calls"] += 1
        a["work"] += s[5]
    return dict(agg)


def top_level_time(spans, op_ids):
    """Summed duration of root spans in op_ids, which equals their summed self times."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0 and s[4] in op_ids)
