"""Exact free contraction norm and its closed-form estimates.

The norm of a Hermitian element a (described by a :class:`HermitianSpec`)
at compression parameter t in (0, 1] equals t times the largest absolute
point of the support of the (1/t)-th free convolution power of its
spectral distribution; the exact value comes from
:mod:`freecontract.freepower`.  Alongside it the module evaluates four
closed-form estimates:

* the main upper bound max |t*L(+/-) +/- 2*sigma*sqrt(t(1-t)) + (1-t)*mean|,
  with the dominant-eigenvalue term added when some multiplicity exceeds
  k*(1-t);
* the lower bound for nonnegative elements built from the rightmost
  critical point of the subordination system;
* the moment-based bound mean + 2*sqrt(t)*sigma + 5t*||a-mean||^3/variance,
  asserted only at t = 1/n;
* the small-t asymptote mean + 2*sqrt(t)*sigma.

`kkt_membership` probes the convex body {lam : <lam, a> <= ||a||_(t) for
all a in the simplex}: non-membership certificates are exact, membership
is only as strong as the probe family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .freepower import free_power
from .measures import HermitianSpec
from .rng import STREAM_PROBES, stream

SIMPLEX_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise DomainError("compression parameter t must lie in (0, 1]")
    return t


def support_bounds(spec: HermitianSpec, T: float) -> tuple[float, float]:
    """Outer enclosure [x1, x2] of the a.c. support of the T-th power."""
    if T <= 1.0:
        raise DomainError("support bounds apply to powers T > 1")
    spread = 2.0 * spec.sigma * math.sqrt(T - 1.0)
    shift = (T - 1.0) * spec.mean
    return spec.lminus - spread + shift, spec.lplus + spread + shift


def tnorm_exact(spec: HermitianSpec, t: float) -> float:
    """Exact norm: t times the support extent of the (1/t)-th power."""
    t = _check_t(t)
    result = free_power(spec.measure(), 1.0 / t, mass_check=False)
    return t * result.extent()


def _upper_terms(spec: HermitianSpec, t: float) -> tuple[float, Optional[float]]:
    """Edge expression of the upper bound and the largest eigenvalue whose
    multiplicity exceeds k*(1-t) (None when no multiplicity does)."""
    spread = 2.0 * spec.sigma * math.sqrt(t * (1.0 - t))
    edge = max(
        abs(t * lv + sg * spread + (1.0 - t) * spec.mean)
        for lv in (spec.lminus, spec.lplus)
        for sg in (-1.0, 1.0)
    )
    heavy = spec.multiplicities > spec.k * (1.0 - t)
    xi_dom = float(np.max(spec.eigenvalues[heavy])) if np.any(heavy) else None
    return edge, xi_dom


def upper_bound(spec: HermitianSpec, t: float) -> tuple[float, bool]:
    """Main closed-form upper bound and whether an atom term entered it.

    When the largest multiplicity exceeds k*(1-t) the power keeps point
    masses and the bound becomes the maximum of the edge expression and
    the largest eigenvalue whose multiplicity is that big.
    """
    edge, xi_dom = _upper_terms(spec, _check_t(t))
    if xi_dom is None:
        return edge, False
    return max(xi_dom, edge), True


def lower_bound(spec: HermitianSpec, t: float, L: float) -> float:
    """Lower bound for nonnegative elements with norm at most L."""
    t = _check_t(t)
    if spec.lminus < 0.0:
        raise DomainError("the lower bound requires a nonnegative element")
    if L < spec.lplus:
        raise DomainError("L must dominate the largest eigenvalue")
    tau, sigma = spec.mean, spec.sigma
    root = sigma * math.sqrt(1.0 / t - 1.0)
    eps = root / (L + root) if root > 0.0 else 0.0
    return tau + (1.0 + eps) * sigma * math.sqrt(t * (1.0 - t)) - t * (L + tau)


def kargin_bound(spec: HermitianSpec, t: float) -> float:
    """Moment bound mean + 2*sqrt(t)*sigma + 5t*||a-mean||^3/variance (t = 1/n only)."""
    t = _check_t(t)
    n = round(1.0 / t)
    if n < 1 or abs(1.0 / t - n) > 1e-9:
        raise DomainError("the moment bound is asserted only at t = 1/n")
    if spec.variance <= 0.0:
        raise DomainError("the moment bound degenerates at zero variance")
    centered_norm = float(np.max(np.abs(spec.eigenvalues - spec.mean)))
    return spec.mean + 2.0 * math.sqrt(t) * spec.sigma \
        + 5.0 * t * centered_norm**3 / spec.variance


def superconvergence_asymptote(spec: HermitianSpec, t: float) -> float:
    """Small-t asymptote mean + 2*sqrt(t)*sigma of the exact norm."""
    t = _check_t(t)
    return spec.mean + 2.0 * math.sqrt(t) * spec.sigma


@dataclass(frozen=True)
class TNormReport:
    """Norm value with every estimate that applies at this (spec, t)."""

    t: float
    exact: float
    upper_thm: float
    atom_dominated: bool
    asymptote: float
    lower_thm: Optional[float] = None
    kargin: Optional[float] = None
    upper_abs_atom: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "exact": self.exact,
            "upper": self.upper_thm,
            "lower": self.lower_thm,
            "kargin": self.kargin,
            "asymptote": self.asymptote,
            "atom_dominated": self.atom_dominated,
            "upper_abs_atom": self.upper_abs_atom,
        }

    def csv_row(self) -> list:
        return [self.t, self.exact, self.upper_thm, self.lower_thm,
                self.kargin, self.asymptote, self.atom_dominated]


def tnorm_report(spec: HermitianSpec, t: float, L: Optional[float] = None,
                 all_bounds: bool = True) -> TNormReport:
    """Bundle the exact norm with whichever estimates are defined.

    The lower bound needs a nonnegative element (L defaults to the largest
    eigenvalue) and the moment bound needs 1/t integral; inapplicable
    estimates are reported as None rather than errors.  When the atom term
    dominates the upper bound, `upper_abs_atom` also records the variant
    with the dominant eigenvalue taken in absolute value (the two coincide
    for nonnegative elements).
    """
    t = _check_t(t)
    exact = tnorm_exact(spec, t)
    upper, atom_dominated = upper_bound(spec, t)
    report_abs: Optional[float] = None
    if atom_dominated:
        edge, xi_dom = _upper_terms(spec, t)
        report_abs = max(abs(xi_dom), edge)
    lower = kargin = None
    if all_bounds:
        if spec.lminus >= 0.0:
            lower = lower_bound(spec, t, spec.lplus if L is None else L)
        try:
            kargin = kargin_bound(spec, t)
        except DomainError:
            pass
    return TNormReport(
        t=t,
        exact=exact,
        upper_thm=upper,
        atom_dominated=atom_dominated,
        asymptote=superconvergence_asymptote(spec, t),
        lower_thm=lower,
        kargin=kargin,
        upper_abs_atom=report_abs,
    )


# ---------------------------------------------------------------------------
# convex-body membership


def _check_simplex(point: Sequence[float]) -> np.ndarray:
    arr = np.asarray(point, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError("simplex points are 1-d vectors")
    if np.any(arr < -SIMPLEX_TOL) or abs(float(arr.sum()) - 1.0) > SIMPLEX_TOL:
        raise DomainError("point is not in the probability simplex")
    return np.clip(arr, 0.0, None)


def default_probes(k: int, seed: int = 0, count: int = 200) -> list[np.ndarray]:
    """Standard probe family: vertices, +/- perturbed uniform directions,
    and `count` seeded flat-Dirichlet samples."""
    if k < 1:
        raise DomainError("need k >= 1")
    probes: list[np.ndarray] = []
    eye = np.eye(k)
    uniform = np.full(k, 1.0 / k)
    probes.extend(eye[i].copy() for i in range(k))
    if k > 1:
        toward = 0.9
        away = 0.5 / (k - 1)   # largest step keeping the point nonnegative is 1/(k-1)
        for i in range(k):
            probes.append(uniform + toward * (eye[i] - uniform))
            probes.append(uniform - away * (eye[i] - uniform))
    rng = stream(seed, STREAM_PROBES)
    probes.extend(rng.dirichlet(np.ones(k)) for _ in range(count))
    return probes


def kkt_membership(
    lam: Sequence[float],
    t: float,
    probes: Sequence[Sequence[float]],
) -> tuple[bool, float, np.ndarray]:
    """Probe whether lam satisfies <lam, a> <= ||a||_(t) for all probes a.

    Returns (member, worst_margin, worst_probe) where the margin of a probe
    is <lam, a> - ||a||_(t).  A positive worst margin is an exact
    non-membership certificate; a nonpositive one certifies membership only
    over the probe family.
    """
    t = _check_t(t)
    lam_arr = _check_simplex(lam)
    if not probes:
        raise DomainError("at least one probe is required")
    worst_margin = -math.inf
    worst_probe: Optional[np.ndarray] = None
    for probe in probes:
        probe_arr = _check_simplex(probe)
        if probe_arr.size != lam_arr.size:
            raise DomainError("probes must have the same dimension as lam")
        norm = tnorm_exact(HermitianSpec.from_values(probe_arr), t)
        margin = float(lam_arr @ probe_arr) - norm
        if margin > worst_margin:
            worst_margin = margin
            worst_probe = probe_arr
    if worst_probe is None:
        raise ConvergenceError("every probe margin is NaN")
    return worst_margin <= MEMBERSHIP_TOL, worst_margin, worst_probe
