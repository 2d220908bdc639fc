"""Exact free contraction norm and its closed-form estimates.

The norm of a Hermitian element a (described by a :class:`HermitianSpec`)
at compression parameter t in (0, 1] equals t times the largest absolute
point of the support of the (1/t)-th free convolution power of its
spectral distribution.  Only the outer ends of that support enter, and
`freepower.hull_end` finds each from the spectrum alone: with x_j the
outermost eigenvalue on one side and w_j its weight, the end is x_j/t
when w_j >= 1 - t (an atom of the power when w_j > 1 - t), and otherwise
h(u) at the root u beyond x_j of F'(u) - 1 = t/(1 - t), F = 1/G the
reciprocal Cauchy transform.  A
spectrum of one sign reads one end, a mixed one both.  The norm
therefore computes no remainder measure rho and no component geometry.
Alongside it the module evaluates four closed-form estimates:

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
# free_power stays bound here, unused: perfbench/tracing.py wraps
# `tnorm.free_power` by attribute name
from .freepower import free_power, hull_end  # noqa: F401
from .measures import HermitianSpec
from .rng import STREAM_PROBES, stream

SIMPLEX_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
_L_MESSAGE = "L must be finite and dominate the largest eigenvalue"


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise DomainError("compression parameter t must lie in (0, 1]")
    return t


def tnorm_exact(spec: HermitianSpec, t: float) -> float:
    """Exact norm: t times the largest |v| over the support of the (1/t)-th
    power, read from its outer ends by `hull_end`: only the right end for a
    nonnegative spectrum, whose left end lies in [T*lminus, right end],
    only the left end for a nonpositive one, and both otherwise.
    ConvergenceError where the norm is not finite."""
    t = _check_t(t)
    mu, T = spec.measure(), 1.0 / t
    sides = (1.0,) if spec.lminus >= 0.0 else (-1.0,) if spec.lplus <= 0.0 else (-1.0, 1.0)
    norm = t * max(abs(hull_end(mu, T, side)) for side in sides)
    if not math.isfinite(norm):
        raise ConvergenceError(f"the norm at t = {t!r} is not finite")
    return norm


def _upper_terms(spec: HermitianSpec, t: float) -> tuple[float, Optional[float]]:
    """The main upper bound and, when some multiplicity exceeds k*(1-t),
    its variant with the dominant eigenvalue taken in absolute value (None
    when no multiplicity does)."""
    spread = 2.0 * spec.sigma * math.sqrt(t * (1.0 - t))
    edge = max(
        abs(t * lv + sg * spread + (1.0 - t) * spec.mean)
        for lv in (spec.lminus, spec.lplus)
        for sg in (-1.0, 1.0)
    )
    heavy = spec.multiplicities > spec.k * (1.0 - t)
    if not np.any(heavy):
        return edge, None
    xi_dom = float(np.max(spec.eigenvalues[heavy]))
    return max(xi_dom, edge), max(abs(xi_dom), edge)


def upper_bound(spec: HermitianSpec, t: float) -> tuple[float, bool]:
    """Main closed-form upper bound and whether an atom term entered it.

    When the largest multiplicity exceeds k*(1-t) the power keeps point
    masses and the bound becomes the maximum of the edge expression and
    the largest eigenvalue whose multiplicity is that big.
    """
    upper, abs_variant = _upper_terms(spec, _check_t(t))
    return upper, abs_variant is not None


def lower_bound(spec: HermitianSpec, t: float, L: float) -> float:
    """Lower bound for nonnegative elements with norm at most L."""
    t = _check_t(t)
    if spec.lminus < 0.0:
        raise DomainError("the lower bound requires a nonnegative element")
    if not spec.lplus <= L < math.inf:
        raise DomainError(_L_MESSAGE)
    tau, sigma = spec.mean, spec.sigma
    root = sigma * math.sqrt(1.0 / t - 1.0)
    eps = root / (L + root) if root > 0.0 else 0.0
    return tau + (1.0 + eps) * sigma * math.sqrt(t * (1.0 - t)) - t * (L + tau)


def kargin_bound(spec: HermitianSpec, t: float) -> float:
    """Moment bound mean + 2*sqrt(t)*sigma + 5t*||a-mean||^3/variance (t = 1/n
    only), its last term scaled from `AtomicMeasure.centred`; DomainError past the range."""
    t = _check_t(t)
    n = round(1.0 / t)
    if n < 1 or abs(1.0 / t - n) > 1e-9:
        raise DomainError("the moment bound is asserted only at t = 1/n")
    mean, e, x, v = spec.measure().centred
    if v <= 0.0:
        raise DomainError("the moment bound degenerates at zero variance")
    c = float(np.max(np.abs(x)))
    try:
        bound = mean + 2.0 * math.sqrt(t) * spec.sigma + math.ldexp(5.0 * t * c**3 / v, e)
    except OverflowError:   # from ldexp; a sum past the range is inf
        bound = math.inf
    if not math.isfinite(bound):
        raise DomainError("the moment bound overflows")
    return bound


def superconvergence_asymptote(spec: HermitianSpec, t: float) -> float:
    """Small-t asymptote mean + 2*sqrt(t)*sigma of the exact norm."""
    t = _check_t(t)
    return spec.mean + 2.0 * math.sqrt(t) * spec.sigma


@dataclass(frozen=True)
class TNormReport:
    """Norm value with every estimate that applies at this (spec, t), in
    the CLI's output order; an estimate that does not apply is None."""

    t: float
    exact: float
    upper: float
    lower: Optional[float]
    kargin: Optional[float]
    asymptote: float
    atom_dominated: bool
    upper_abs_atom: Optional[float]


def tnorm_report(spec: HermitianSpec, t: float, L: Optional[float] = None,
                 all_bounds: bool = True) -> TNormReport:
    """Bundle the exact norm with whichever estimates are defined.

    A given L is checked as the lower bound checks it (finite, at least the
    largest eigenvalue) whether or not that bound is computed.  The lower
    bound needs a nonnegative element (L defaults to the largest
    eigenvalue) and the moment bound needs 1/t integral and is None where
    it overflows; inapplicable estimates are None rather than errors.  An
    upper bound, lower bound or asymptote past the float range is a
    DomainError: the spectrum's variance may overflow, its estimates not.  When
    the atom term dominates the upper bound, `upper_abs_atom` also records
    the variant with the dominant eigenvalue taken in absolute value (the
    two coincide for nonnegative elements).
    """
    t = _check_t(t)
    if L is not None and not spec.lplus <= L < math.inf:
        raise DomainError(_L_MESSAGE)
    exact = tnorm_exact(spec, t)
    upper, report_abs = _upper_terms(spec, t)
    lower = kargin = None
    if all_bounds:
        if spec.lminus >= 0.0:
            lower = lower_bound(spec, t, spec.lplus if L is None else L)
        try:
            kargin = kargin_bound(spec, t)
        except DomainError:
            pass
    asymptote = superconvergence_asymptote(spec, t)
    if not all(map(math.isfinite, (upper, asymptote, lower or 0.0))):
        raise DomainError(f"an estimate at t = {t!r} is past the float range")
    return TNormReport(t=t, exact=exact, upper=upper, lower=lower, kargin=kargin,
                       asymptote=asymptote,
                       atom_dominated=report_abs is not None, upper_abs_atom=report_abs)


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
