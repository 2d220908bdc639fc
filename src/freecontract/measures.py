"""Finitely atomic measures on the real line and their analytic transforms.

An :class:`AtomicMeasure` is a finite positive combination of point masses;
probability measures have total mass 1.  With the Cauchy transform
G(z) = sum_i w_i/(z - x_i) and its reciprocal F = 1/G (evaluated with F'
by `_f_pair` off the atoms), the module computes the reciprocal-Cauchy
remainder measure rho appearing in the representation

    F(z) = z - mean + sum_j c_j / (b_j - z),

whose atoms b_j are the real zeros of G (interlacing the poles) with
residue weights c_j = -1/G'(b_j) summing to the variance, and the inverse
transform phi(z) = F^{-1}(z) - z used only as a verification utility.
`AtomicMeasure.centred` centres and scales by a power of two for moments,
sigma, hull ends and the moment bound (the power kernel and rho centre on
their own).  Positions within MERGE_TOL relative of each other are one atom.

:class:`HermitianSpec` describes a Hermitian matrix by its distinct
eigenvalues and multiplicities; its normalized spectral distribution is the
induced AtomicMeasure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .rootfind import bisect, blockwise, damped_newton

MERGE_TOL = 1e-12   # positions closer than this, relative, collapse to one atom
MASS_TOL = 1e-12    # a probability measure has total mass 1 within this
NEWTON_TOL = 1e-12  # residual at which the inverse transforms stop
_TOO_WIDE = "the variance overflows: the spectrum is too wide"


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported positive measure with strictly increasing atoms."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pos.ndim != 1 or wts.shape != pos.shape:
            raise DomainError("positions and weights must be 1-d arrays of equal length")
        if pos.size:
            if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(wts)):
                raise DomainError("atom positions and weights must be finite")
            if np.any(pos[1:] <= pos[:-1]):
                raise DomainError("atom positions must be strictly increasing")
            if np.any(wts <= 0):
                raise DomainError("atom weights must be positive")
        pos.flags.writeable = False
        wts.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", wts)

    @cached_property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.positions.tolist(), self.weights.tolist()))

    @property
    def n_atoms(self) -> int:
        return self.positions.size

    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= MASS_TOL

    @cached_property
    def centred(self) -> tuple[float, int, np.ndarray, float]:
        """(mean, e, x, v): x = 2^-e*(positions - mean), with 2^e the binary
        exponent of max|positions - mean| (refused from 2^1023), v = sum w*x^2.
        The scaling changes no bit where no value is subnormal, and keeps v
        positive where the variance underflows and finite where it overflows."""
        if not self.is_probability():
            raise DomainError("moments are defined for probability measures (total mass 1)")
        mean = float(self.weights @ self.positions)
        with np.errstate(over="ignore"):
            x = self.positions - mean
        widest = max(-x[0], x[-1])
        if not widest < 2.0 ** 1023:   # e <= 1023, so 2.0**e is a float
            raise DomainError(_TOO_WIDE)
        e = math.frexp(widest)[1]
        x = np.ldexp(x, -e)
        x.flags.writeable = False
        return mean, e, x, float(self.weights @ (x * x))


def make_measure(pairs: Iterable[tuple[float, float]]) -> AtomicMeasure:
    """Build an AtomicMeasure from (position, weight) pairs.

    Positions within ``MERGE_TOL`` of each other, relative to their
    magnitude, are merged with their weights summed; the result is sorted
    by position.  Non-positive weights and empty input are rejected.
    """
    pairs = list(pairs)
    if not pairs:
        raise DomainError("a measure needs at least one atom")
    pos = np.array([float(p) for p, _ in pairs])
    wts = np.array([float(w) for _, w in pairs])
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(wts))):
        raise DomainError("atom positions and weights must be finite")
    if np.any(wts <= 0):
        raise DomainError("atom weights must be positive")
    order = np.argsort(pos, kind="stable")
    pos, wts = _merge_sorted(pos[order], wts[order])
    return AtomicMeasure(pos, wts)


def _merge_sorted(pos: np.ndarray, wts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted positions within MERGE_TOL times the larger magnitude of the
    first one of their run merge into it, with their weights summed."""
    merged_pos, merged_wts = pos[:1].tolist(), wts[:1].tolist()
    for p, w in zip(pos[1:].tolist(), wts[1:].tolist()):
        if p - merged_pos[-1] <= MERGE_TOL * max(abs(p), abs(merged_pos[-1])):
            merged_wts[-1] += w
        else:
            merged_pos.append(p)
            merged_wts.append(w)
    return np.array(merged_pos), np.array(merged_wts)


def moments(mu: AtomicMeasure) -> tuple[float, float]:
    """Mean and the centred variance sum w*(x - mean)^2, scaled back from
    `AtomicMeasure.centred`: it keeps its digits at a large mean."""
    mean, e, _, v = mu.centred
    try:
        return mean, math.ldexp(v, 2 * e)
    except OverflowError:
        raise DomainError(_TOO_WIDE) from None


def nevanlinna_rho(mu: AtomicMeasure) -> AtomicMeasure:
    """Remainder measure rho of the reciprocal Cauchy transform.

    For a probability measure with m atoms, rho is purely atomic with m-1
    atoms: its positions are the real zeros of G (one in each open interval
    between consecutive poles, by interlacing) and its weights are
    c_j = -1/G'(b_j) > 0.  The weights sum to the variance of `mu`; a
    single-atom measure yields the empty measure.

    The zeros are found by safeguarded Newton on G with both poles of its
    gap cleared, in coordinates centred at the mean (so an offset spectrum
    keeps its digits); only the returned positions are shifted back.
    """
    mean, variance = moments(mu)
    xs, ws = mu.positions - mean, mu.weights

    def probe(x: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # f = -G(x)*(x - L)*(R - x) on the gap (L, R) = (xs[i], xs[i+1]) is
        # finite at both poles, increases through the zero of G and is
        # linear when no other atom counts
        left, right = x - xs[i], xs[i + 1] - x
        inv = 1.0 / (x[:, None] - xs)
        terms = ws * inv
        rows = np.arange(x.size)
        terms[rows, i] = terms[rows, i + 1] = 0.0
        rest = terms.sum(axis=1)
        gap = left * right
        f = ws[i + 1] * left - ws[i] * right - gap * rest
        fp = ws[i] + ws[i + 1] - (right - left) * rest + gap * (terms * inv).sum(axis=1)
        return f, fp

    # start at the zero of the two-pole model w_L/(x - L) + w_R/(x - R)
    lo, hi = xs[:-1], xs[1:]
    betas = bisect(probe, lo, hi, xs.size, lo + (hi - lo) * (ws[:-1] / (ws[:-1] + ws[1:])))
    # a zero of G rounded onto a pole: that atom is too light to resolve
    on_pole = np.flatnonzero((betas == lo) | (betas == hi))
    if on_pole.size:
        j = on_pole[0] + int(betas[on_pole[0]] == hi[on_pole[0]])
        x, w = float(mu.positions[j]), float(ws[j])
        raise DomainError(f"the atom at x = {x!r} of weight {w!r} is too light: "
                          "a zero of G lies within rounding of it")
    cs = 1.0 / blockwise(lambda b: (ws / (b[:, None] - xs) ** 2).sum(axis=1),
                         xs.size, betas)
    if not abs(float(cs.sum()) - variance) <= 1e-10 * variance:   # NaN fails too
        raise ConvergenceError("rho mass does not match the variance")
    return AtomicMeasure(betas + mean, cs)


def voiculescu_transform(mu: AtomicMeasure, z: complex) -> complex:
    """phi(z) = F^{-1}(z) - z by damped Newton iteration started at w = z.

    Supported for z high enough in the upper half plane that the iteration
    contracts (|z| >= 4*(|mean| + 2*stddev + max|x_i|) is safe); elsewhere a
    ConvergenceError signals that z is outside the supported regime.  The
    result satisfies |F(z + phi) - z| < NEWTON_TOL.
    """
    if not mu.is_probability():
        raise DomainError("the inverse transform is defined for probability measures")
    z = complex(z)
    return damped_newton(lambda w: _f_pair(mu, w), z, z, NEWTON_TOL,
                         "inverting F; z is outside the supported regime") - z


def _f_pair(mu: AtomicMeasure, w: complex) -> tuple[complex, complex]:
    """(F, F') = (1/G, -G'/G^2) of mu at a point w off the atoms."""
    inv = 1.0 / (w - mu.positions)
    g = complex(np.sum(mu.weights * inv))
    gp = complex(-np.sum(mu.weights * inv * inv))
    return 1.0 / g, -gp / (g * g)


# ---------------------------------------------------------------------------
# Hermitian matrix descriptions


@dataclass(frozen=True)
class HermitianSpec:
    """Hermitian element of the k-dimensional diagonal algebra.

    `eigenvalues` are the distinct eigenvalues in strictly increasing order
    and `multiplicities` the matching eigenspace dimensions, summing to k.
    The spectral measure and its moments are built once, on first use.
    """

    k: int
    eigenvalues: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.eigenvalues, dtype=float)
        mult = np.asarray(self.multiplicities, dtype=int)
        if xi.ndim != 1 or mult.shape != xi.shape or xi.size == 0:
            raise DomainError("eigenvalues and multiplicities must be matching 1-d arrays")
        if not np.all(np.isfinite(xi)):
            raise DomainError("eigenvalues must be finite")
        if np.any(xi[1:] <= xi[:-1]):
            raise DomainError("eigenvalues must be strictly increasing")
        if np.any(mult < 1):
            raise DomainError("multiplicities must be positive integers")
        if int(mult.sum()) != self.k:
            raise DomainError("multiplicities must sum to the dimension k")
        xi.flags.writeable = False
        mult.flags.writeable = False
        object.__setattr__(self, "eigenvalues", xi)
        object.__setattr__(self, "multiplicities", mult)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "HermitianSpec":
        """Spec of diag(values): values within MERGE_TOL relative become multiplicities."""
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.size == 0:
            raise DomainError("need at least one eigenvalue")
        xi, mult = _merge_sorted(vals, np.ones(vals.size, dtype=int))
        return cls(int(vals.size), xi, mult)

    def measure(self) -> AtomicMeasure:
        """Normalized spectral distribution: weight D_i/k at eigenvalue x_i
        (one shared, read-only instance)."""
        return self._measure

    @cached_property
    def _measure(self) -> AtomicMeasure:
        return AtomicMeasure(self.eigenvalues, self.multiplicities / self.k)

    @property
    def mean(self) -> float:
        """Read from `AtomicMeasure.centred`, not through `moments`: a spectrum
        whose variance overflows still has a mean."""
        return self._measure.centred[0]

    @property
    def variance(self) -> float:
        return moments(self._measure)[1]

    @property
    def sigma(self) -> float:
        """2^e * sqrt(v) of `AtomicMeasure.centred`: the standard deviation,
        bit for bit where the variance is normal, positive where it underflows."""
        _, e, _, v = self._measure.centred
        return math.ldexp(math.sqrt(v), e)

    @property
    def lminus(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lplus(self) -> float:
        return float(self.eigenvalues[-1])


# ---------------------------------------------------------------------------
# JSON interchange


def _require_int(value, what: str) -> int:
    count = int(value)
    if count != value:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return count


def measure_to_json(mu: AtomicMeasure) -> dict:
    return {"atoms": [{"x": float(x), "w": float(w)} for x, w in mu.atoms]}


def measure_from_json(obj: dict) -> AtomicMeasure:
    try:
        atoms = obj["atoms"]
        pairs = [(float(a["x"]), float(a["w"])) for a in atoms]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed measure JSON: {exc}") from exc
    return make_measure(pairs)


def load_measure(path: str) -> AtomicMeasure:
    with open(path) as fh:
        return measure_from_json(json.load(fh))


def spec_to_json(spec: HermitianSpec) -> dict:
    return {
        "k": int(spec.k),
        "eigs": [{"xi": float(x), "d": int(d)}
                 for x, d in zip(spec.eigenvalues, spec.multiplicities)],
    }


def spec_from_json(obj: dict) -> HermitianSpec:
    try:
        k = _require_int(obj["k"], "dimension k")
        xi = [float(e["xi"]) for e in obj["eigs"]]
        mult = np.array([_require_int(e["d"], "multiplicity d") for e in obj["eigs"]], int)
    except DomainError:   # a ValueError whose message is already the answer
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed spec JSON: {exc}") from exc
    return HermitianSpec(k, np.array(xi), mult)


def load_spec(path: str) -> HermitianSpec:
    with open(path) as fh:
        return spec_from_json(json.load(fh))
