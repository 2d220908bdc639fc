"""Finitely atomic measures on the real line and their analytic transforms.

An :class:`AtomicMeasure` is a finite positive combination of point masses;
probability measures have total mass 1.  The module computes the Cauchy
transform G(z) = sum_i w_i/(z - x_i) and its reciprocal F = 1/G on the
upper half plane, the reciprocal-Cauchy remainder measure rho appearing in
the representation

    F(z) = z - mean + sum_j c_j / (b_j - z),

whose atoms b_j are the real zeros of G (interlacing the poles) with
residue weights c_j = -1/G'(b_j) summing to the variance, and the inverse
transform phi(z) = F^{-1}(z) - z used only as a verification utility.

:class:`HermitianSpec` describes a Hermitian matrix by its distinct
eigenvalues and multiplicities; its normalized spectral distribution is the
induced AtomicMeasure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError
from .rootfind import bisect, blockwise, damped_newton

MERGE_TOL = 1e-12   # positions closer than this collapse to one atom
MASS_TOL = 1e-12    # relative bookkeeping slack on total mass


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported positive measure with strictly increasing atoms."""

    positions: np.ndarray
    weights: np.ndarray
    total_mass: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pos.ndim != 1 or wts.shape != pos.shape:
            raise DomainError("positions and weights must be 1-d arrays of equal length")
        if pos.size:
            if not np.all(np.isfinite(pos)) or not np.all(np.isfinite(wts)):
                raise DomainError("atom positions and weights must be finite")
            if np.any(np.diff(pos) <= 0):
                raise DomainError("atom positions must be strictly increasing")
            if np.any(wts <= 0):
                raise DomainError("atom weights must be positive")
            mass = float(wts.sum())
            if abs(mass - self.total_mass) > MASS_TOL * max(1.0, abs(mass)):
                raise DomainError("total_mass inconsistent with the sum of weights")
        elif self.total_mass != 0.0:
            raise DomainError("empty measure must have total_mass 0")
        pos.flags.writeable = False
        wts.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", wts)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.positions.tolist(), self.weights.tolist()))

    @property
    def n_atoms(self) -> int:
        return self.positions.size

    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= MASS_TOL


def make_measure(pairs: Iterable[tuple[float, float]]) -> AtomicMeasure:
    """Build an AtomicMeasure from (position, weight) pairs.

    Positions within ``MERGE_TOL`` of each other are merged with their
    weights summed; the result is sorted by position.  Non-positive weights
    and empty input are rejected.
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
    pos, wts = pos[order], wts[order]
    merged_pos: list[float] = [pos[0]]
    merged_wts: list[float] = [wts[0]]
    for p, w in zip(pos[1:], wts[1:]):
        if p - merged_pos[-1] <= MERGE_TOL:
            merged_wts[-1] += w
        else:
            merged_pos.append(p)
            merged_wts.append(w)
    wsum = float(np.sum(merged_wts))
    return AtomicMeasure(np.array(merged_pos), np.array(merged_wts), wsum)


def moments(mu: AtomicMeasure) -> tuple[float, float]:
    """Mean and variance of a probability measure.

    The variance is the centred sum of w*(x - mean)^2, which keeps its
    digits when the mean is large against the spread.
    """
    if not mu.is_probability():
        raise DomainError("moments are defined for probability measures (total mass 1)")
    mean = float(mu.weights @ mu.positions)
    variance = float(mu.weights @ (mu.positions - mean) ** 2)
    return mean, variance


def cauchy_pair(mu: AtomicMeasure, z: complex) -> tuple[complex, complex]:
    """Cauchy transform G(z) and reciprocal F(z) = 1/G(z).

    Defined for Im z > 0, or for real z strictly outside the convex hull of
    the atoms.  Real z inside the hull (in particular at an atom) is
    rejected.
    """
    z = complex(z)
    if z.imag < 0:
        raise DomainError("transforms are evaluated on the closed upper half plane")
    if z.imag == 0.0:
        if mu.n_atoms and mu.positions[0] <= z.real <= mu.positions[-1]:
            raise DomainError("real evaluation point must lie outside the atom hull")
    g = complex(np.sum(mu.weights / (z - mu.positions)))
    if g == 0:
        raise DomainError("Cauchy transform vanishes at this point; F undefined")
    return g, 1.0 / g


def nevanlinna_rho(mu: AtomicMeasure) -> AtomicMeasure:
    """Remainder measure rho of the reciprocal Cauchy transform.

    For a probability measure with m atoms, rho is purely atomic with m-1
    atoms: its positions are the real zeros of G (one in each open interval
    between consecutive poles, by interlacing) and its weights are
    c_j = -1/G'(b_j) > 0.  The weights sum to the variance of `mu`; a
    single-atom measure yields the empty measure.
    """
    if not mu.is_probability():
        raise DomainError("rho is defined for probability measures")
    xs, ws = mu.positions, mu.weights
    # G decreases from +inf to -inf across each gap (xs[i], xs[i+1]), so its
    # zero lies above x exactly when G(x) > 0; the endpoints sit on poles.
    betas = bisect(lambda x, _: (ws / (x[:, None] - xs)).sum(axis=1) > 0.0,
                   xs[:-1], xs[1:], xs.size)
    cs = 1.0 / blockwise(lambda b: (ws / (b[:, None] - xs) ** 2).sum(axis=1),
                         xs.size, betas)
    _, variance = moments(mu)
    if abs(float(cs.sum()) - variance) > 1e-10 * max(1.0, variance):
        raise ConvergenceError("rho mass does not match the variance")
    return AtomicMeasure(betas, cs, float(cs.sum()))


def voiculescu_transform(mu: AtomicMeasure, z: complex, tol: float = 1e-12) -> complex:
    """phi(z) = F^{-1}(z) - z by damped Newton iteration started at w = z.

    Supported for z high enough in the upper half plane that the iteration
    contracts (|z| >= 4*(|mean| + 2*stddev + max|x_i|) is safe); elsewhere a
    ConvergenceError signals that z is outside the supported regime.  The
    result satisfies |F(z + phi) - z| < 10*tol.
    """
    if not mu.is_probability():
        raise DomainError("the inverse transform is defined for probability measures")
    z = complex(z)
    xs, ws = mu.positions, mu.weights

    def f_pair(w: complex) -> tuple[complex, complex]:
        inv = 1.0 / (w - xs)
        g = complex(np.sum(ws * inv))
        gp = complex(-np.sum(ws * inv * inv))
        return 1.0 / g, -gp / (g * g)

    return damped_newton(f_pair, z, z, tol,
                         "inverting F; z is outside the supported regime") - z


# ---------------------------------------------------------------------------
# Hermitian matrix descriptions


@dataclass(frozen=True)
class HermitianSpec:
    """Hermitian element of the k-dimensional diagonal algebra.

    `eigenvalues` are the distinct eigenvalues in strictly increasing order
    and `multiplicities` the matching eigenspace dimensions, summing to k.
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
        if np.any(np.diff(xi) <= 0):
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
        """Spec of diag(values): duplicates within MERGE_TOL become multiplicities."""
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.size == 0:
            raise DomainError("need at least one eigenvalue")
        xi: list[float] = [float(vals[0])]
        mult: list[int] = [1]
        for v in vals[1:]:
            if v - xi[-1] <= MERGE_TOL:
                mult[-1] += 1
            else:
                xi.append(float(v))
                mult.append(1)
        return cls(int(vals.size), np.array(xi), np.array(mult, dtype=int))

    def measure(self) -> AtomicMeasure:
        """Normalized spectral distribution: weight D_i/k at eigenvalue x_i."""
        return AtomicMeasure(self.eigenvalues.copy(),
                             self.multiplicities / self.k, 1.0)

    @property
    def mean(self) -> float:
        return moments(self.measure())[0]

    @property
    def variance(self) -> float:
        return moments(self.measure())[1]

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    @property
    def lminus(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lplus(self) -> float:
        return float(self.eigenvalues[-1])

    def scaled(self, factor: float) -> "HermitianSpec":
        """Spec of factor*a (eigenvalue order flips for negative factors)."""
        if factor == 0:
            raise DomainError("scaling factor must be nonzero")
        xi = self.eigenvalues * factor
        mult = self.multiplicities
        if factor < 0:
            xi, mult = xi[::-1], mult[::-1]
        return HermitianSpec(self.k, xi.copy(), mult.copy())


# ---------------------------------------------------------------------------
# JSON interchange


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value!r}")
    return value


def measure_to_json(mu: AtomicMeasure) -> dict:
    return {"atoms": [{"x": float(x), "w": float(w)} for x, w in mu.atoms]}


def measure_from_json(obj: dict) -> AtomicMeasure:
    try:
        atoms = obj["atoms"]
        pairs = [(_require_finite(a["x"], "atom position"),
                  _require_finite(a["w"], "atom weight")) for a in atoms]
    except (KeyError, TypeError) as exc:
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
        k = int(obj["k"])
        xi = [_require_finite(e["xi"], "eigenvalue") for e in obj["eigs"]]
        mult = [int(e["d"]) for e in obj["eigs"]]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed spec JSON: {exc}") from exc
    return HermitianSpec(k, np.array(xi), np.array(mult, dtype=int))


def load_spec(path: str) -> HermitianSpec:
    with open(path) as fh:
        return spec_from_json(json.load(fh))
