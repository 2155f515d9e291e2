"""Goodness of boundary measures: how small |ft(mu)| gets far from the origin.

A probability measure on a body boundary is epsilon-good when |ft(mu)| <= eps
outside some ball of radius R.  This module estimates that profile on
frequency shells, builds the cap-family measures that witness goodness for
bodies with rich Gauss images, and audits the obstruction for polytopes:
along a facet-pair normal carrying mass m, the projection keeps point masses
whose squared sum (the Wiener time average) forces sup |ft| >= m / sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import CLAMP_TOL, CapFamily, ConvexBody, HPolytope
from .errors import BadInputError, HypothesisViolationError
from .measures import (AtomicMeasure, ft_many, _refuse_overflowing_radii, _sampled_sup,
                       _sphere_directions, wiener_atom_mass)

AUDIT_BOUNDARY_TOL = 1e-6  # |gauge - 1| allowed at an audited measure's atoms
AUDIT_NORMAL_TOL = 1e-6    # node normal within this angle of +/- theta counts toward its pair
AUDIT_TOL = 0.02           # slack of the audit's sqrt(average) >= m / sqrt(2) check


@dataclass(frozen=True)
class GoodnessReport:
    """Shell-by-shell sup estimates of |ft(mu)| with certified sampling errors."""

    R: float
    shell_radii: np.ndarray
    shell_sups: np.ndarray
    cert_errors: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.shell_radii, dtype=float).ravel()
        s = np.asarray(self.shell_sups, dtype=float).ravel()
        e = np.asarray(self.cert_errors, dtype=float).ravel()
        if not (r.shape == s.shape == e.shape):
            raise BadInputError("shell arrays must agree")
        for a in (r, s, e):
            a.setflags(write=False)
        object.__setattr__(self, "shell_radii", r)
        object.__setattr__(self, "shell_sups", s)
        object.__setattr__(self, "cert_errors", e)

    @property
    def eps_hat(self):
        return float(np.max(self.shell_sups))

    def rows(self):
        return list(zip(self.shell_radii, self.shell_sups, self.cert_errors))


def goodness_profile(mu: AtomicMeasure, R: float, shells,
                     angular_resolution: int = 4096) -> GoodnessReport:
    """Sampled sup of |ft(mu)| on each frequency shell of radius >= R.

    The certified error per shell is that of _sampled_sup; eps_hat is the
    max of the sampled sups and never exceeds the total mass.  Where the grid's second
    half negates its first (1d, or an even resolution in 2d), the transform
    kernel evaluates the first half and conjugates it, exactly.
    """
    shells = np.asarray(shells, dtype=float).ravel()
    if shells.size == 0:
        raise BadInputError("need at least one shell radius")
    if not (0 < R < math.inf and np.all(np.isfinite(shells))) or np.any(shells < R - 1e-12):
        raise BadInputError("shell radii must be finite and >= R > 0")
    _refuse_overflowing_radii(mu, shells, "shell radii")
    etas, spacing = _sphere_directions(mu.dim, angular_resolution)
    sups = np.empty(shells.size)
    certs = np.empty(shells.size)
    for i, rho in enumerate(shells):
        vals = ft_many(mu, rho * etas)
        sups[i], certs[i] = _sampled_sup(mu, rho, vals, spacing)
    return GoodnessReport(float(R), shells, sups, certs)


def construct_good_measure(body: ConvexBody, mesh: AtomicMeasure,
                           caps: CapFamily) -> AtomicMeasure:
    """Probability measure with mass exactly 1/N on each cap preimage.

    Each piece is the surface measure restricted to the boundary nodes whose
    normal falls strictly inside the open cap, rescaled to mass 1/N.  A cap
    whose preimage carries no mesh mass is an explicit failure: its center
    direction is not in the support of the area measure at this resolution.
    """
    member = caps.membership(mesh.normals)
    n_caps = len(caps)
    parts_pos, parts_w, parts_n = [], [], []
    for i in range(n_caps):
        sel = member[i]
        mass = float(np.sum(mesh.weights[sel]))
        if mass <= 0.0:
            theta = np.array2string(caps.directions[i], precision=6)
            raise HypothesisViolationError(
                f"cap {i} at {theta} has zero boundary mass: "
                "direction not in the support of the area measure")
        parts_pos.append(mesh.positions[sel])
        parts_w.append(mesh.weights[sel] * ((1.0 / n_caps) / mass))
        parts_n.append(mesh.normals[sel])
    return AtomicMeasure(np.vstack(parts_pos), np.concatenate(parts_w),
                         np.vstack(parts_n))


def stabilized_goodness(mu: AtomicMeasure, r_cap: float,
                        angular_resolution: int = 16384) -> tuple[float, GoodnessReport]:
    """Doubling search for a frequency cutoff where the profile settles.

    Starts at R = 10 / r_cap, profiles the four shells R (1 + k/4), k < 4, and
    doubles R until consecutive eps_hat values agree within max(0.02, 10%) or
    ten doublings are spent; returns the achieved (R, report) pair rather
    than asserting any particular cutoff.
    """
    if r_cap <= 0:
        raise BadInputError("r_cap must be positive")
    R = float(10.0 / r_cap)
    prev = None
    for _ in range(11):
        shells = R * (1.0 + np.arange(4) / 4)
        report = goodness_profile(mu, R, shells, angular_resolution)
        eps = report.eps_hat
        if prev is not None and abs(eps - prev) <= max(0.02, 0.10 * prev):
            return R, report
        prev = eps
        R *= 2.0
    return R / 2.0, report


@dataclass(frozen=True)
class PolytopeAuditResult:
    """Outcome of the facet-pair obstruction audit for a boundary measure."""

    n_directions: int
    best_pair_mass: float
    wiener_value: float
    tolerance: float

    @property
    def wiener_sqrt(self):
        return math.sqrt(max(self.wiener_value, 0.0))

    @property
    def pair_lower_bound(self):
        """m / sqrt(2), what the pair mass forces on sup |ft|."""
        return self.best_pair_mass / math.sqrt(2.0)

    @property
    def goodness_floor(self):
        """1 / (sqrt(2) N), the bound implied for any probability measure."""
        return 1.0 / (math.sqrt(2.0) * self.n_directions)

    @property
    def passed(self):
        return self.wiener_sqrt >= self.pair_lower_bound - self.tolerance


def polytope_bound_audit(body: HPolytope, mu: AtomicMeasure, T: float) -> PolytopeAuditResult:
    """Audit that a boundary measure cannot beat the polytope goodness floor.

    Finds the facet-direction pair carrying the most mass (at least 1/N for
    a probability measure), takes the Wiener time average along that normal,
    and checks sqrt(average) >= m / sqrt(2) - AUDIT_TOL.
    """
    if not isinstance(body, HPolytope):
        raise BadInputError("the audit needs an H-polytope")
    off = np.abs(body.gauge_many(mu.positions) - 1.0)
    if np.any(off > AUDIT_BOUNDARY_TOL):
        raise HypothesisViolationError(
            f"measure has mass off the boundary (max |gauge-1| = {off.max():.3g})")
    pairs = body.facet_pairs()
    masses = _facet_pair_masses(body, mu)
    best = int(np.argmax(masses))
    w = wiener_atom_mass(mu, pairs[best][0], T)
    return PolytopeAuditResult(len(pairs), float(masses[best]), w, AUDIT_TOL)


def _facet_pair_masses(body: HPolytope, mu: AtomicMeasure) -> np.ndarray:
    """The mass of mu on each pair of body.facet_pairs(): with normals, of the atoms whose
    normal lies within the angle AUDIT_NORMAL_TOL of +/- theta, that is |<n, theta>| >
    cos(AUDIT_NORMAL_TOL), all pairs from one product; without, of the atoms with |<x,
    theta>| = h within AUDIT_BOUNDARY_TOL max(1, h).  Normals that are not unit vectors
    are refused."""
    thetas, h = (np.array(col) for col in zip(*body.facet_pairs()))
    if mu.normals is not None:
        dots = np.abs(mu.normals @ thetas.T)
        if not np.all(dots <= 1.0 + CLAMP_TOL):
            raise BadInputError("measure normals must be unit vectors")
        sel = dots > math.cos(AUDIT_NORMAL_TOL)
    else:
        sel = (np.abs(np.abs(mu.positions @ thetas.T) - h)
               <= AUDIT_BOUNDARY_TOL * np.maximum(1.0, h))
    return np.array([np.sum(mu.weights[col]) for col in sel.T])
