"""Exception hierarchy shared by all modules, and the JSON and CSV readers and writers.

The CLI maps these onto process exit codes: bad input -> 2,
hypothesis violation -> 3, numeric budget exceeded -> 4.
"""

import json

import numpy as np


class GaugeLabError(Exception):
    """Base class for all errors raised by this package."""


class BadInputError(GaugeLabError):
    """Malformed or out-of-contract input (bad file, bad parameter, wrong shape)."""


class HypothesisViolationError(GaugeLabError):
    """A mathematical hypothesis required by an operation does not hold.

    Examples: a cap with zero boundary mass, a measure supported off the
    boundary, an asymmetric measure fed to an operation that needs a real
    transform.
    """


class BudgetExceededError(GaugeLabError):
    """A numeric search or sampling budget ran out before the goal was met."""


def read_json(path, what):
    """The JSON document at path; bad input naming `what` when it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadInputError(f"cannot read {what} {path}: {exc}") from None


def read_csv(path, what):
    """The rows after the header of the CSV file at path; bad input naming `what` if unread."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise BadInputError(f"cannot read {what} {path}: {exc}") from None


def write_json(path, spec, indent=None):
    """spec as JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def fmt(x) -> str:
    """x as the CSV files and run.log write it: a float to 17 significant digits."""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def write_csv(path, header, rows):
    """A header line of the column names, then one line of fmt values per row."""
    lines = [",".join(header)] + [",".join(map(fmt, row)) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
