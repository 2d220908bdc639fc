"""Random-matrix Monte Carlo oracle for the compression spectrum.

A deterministic N x N diagonal matrix realizes the target spectral
distribution (multiplicities apportioned by largest remainder), a Haar
random projection of rank floor(t*N) compresses it, and the rescaled
eigenvalues of the compression approximate the (1/t)-th free convolution
power.  The Kolmogorov-Smirnov distance against the exactly computed power
quantifies the agreement.

Haar sampling follows the QR recipe (Mezzadri, Notices AMS 54, 2007):
orthonormalize a complex Ginibre matrix and fix the phase ambiguity by
rescaling columns so the R diagonal is positive real.  Only the first d
columns are needed, so they are drawn as the orthonormalization of an
N x d Ginibre panel G (the same distribution as slicing a full Haar
unitary, without the N^3 cost).  `haar_columns` forms that isometry
explicitly; the compression oracle never does.  The phase-fixed R is the
conjugate transpose of the Cholesky factor L of the Gram G*G, so the
isometry is G L^-*, and the compression is L^-1 (G* A G) L^-* with no Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .freepower import FreePowerResult
from .measures import HermitianSpec
from .rng import GENERATOR_NAME, STREAM_HAAR, complex_normal, stream


def haar_unitary(N: int, seed: int) -> np.ndarray:
    """Haar-distributed N x N unitary, deterministic in (N, seed)."""
    if N < 1:
        raise DomainError("need N >= 1")
    return haar_columns(N, N, seed)


def haar_columns(N: int, d: int, seed: int) -> np.ndarray:
    """First d columns of a Haar unitary, drawn as an N x d isometry."""
    if not 1 <= d <= N:
        raise DomainError("need 1 <= d <= N")
    q, r = np.linalg.qr(complex_normal(stream(seed, STREAM_HAAR), (N, d)))
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag)).conj()


def floor_fraction(t: float, N: int) -> int:
    """floor(t*N) with a 1e-9 guard against binary representation of t."""
    tn = t * N
    d = math.floor(tn)
    if tn - d > 1.0 - 1e-9:
        d += 1
    return d


def apportion_counts(spec: HermitianSpec, N: int) -> np.ndarray:
    """Largest-remainder apportionment of D_i*N/k into exactly N slots."""
    quota = spec.multiplicities * (N / spec.k)
    counts = np.floor(quota).astype(int)
    short = N - int(counts.sum())
    if short > 0:
        remainders = quota - np.floor(quota)
        # ties broken toward lower index for determinism
        order = np.lexsort((np.arange(len(quota)), -remainders))
        counts[order[:short]] += 1
    return counts


@dataclass(frozen=True)
class CompressionSample:
    """Spectrum of one rescaled Haar compression t^-1 * (W* A W)."""

    N: int
    t: float
    seed: int
    eigenvalues: np.ndarray

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        if not np.all(np.isfinite(eig)):
            raise DomainError("eigenvalues must be finite")
        eig.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def d(self) -> int:
        return self.eigenvalues.size

    def metadata(self) -> dict:
        return {"N": self.N, "t": self.t, "seed": self.seed, "d": self.d,
                "generator": GENERATOR_NAME}


def _lower_inverse(l: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by recursive 2 x 2 blocking.

    [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]]: the off-diagonal
    block costs two gemms, and blocks of at most 64 rows go to LAPACK, whose
    pivoted inverse can leave rounding-level entries above the diagonal.
    """
    n = l.shape[0]
    if n <= 64:
        return np.tril(np.linalg.inv(l))
    h = n // 2
    a_inv = _lower_inverse(l[:h, :h])
    b_inv = _lower_inverse(l[h:, h:])
    out = np.zeros_like(l)
    out[:h, :h] = a_inv
    out[h:, h:] = b_inv
    out[h:, :h] = -(b_inv @ (l[h:, :h] @ a_inv))
    return out


def compressed_spectrum(spec: HermitianSpec, t: float, N: int, seed: int) -> CompressionSample:
    """Eigenvalues of the rescaled compression of the spec's diagonal model.

    A is diagonal with eigenvalue x_i repeated per largest-remainder
    apportionment of D_i*N/k; W holds the first floor(t*N) columns of a
    Haar unitary; the sample is the sorted spectrum of t^-1 * (W* A W).

    W = G L^-* for the N x d Ginibre panel G that `haar_columns` draws for
    (N, seed) and the Cholesky factor L of G*G, so the sample is the
    spectrum of L^-1 (G* A G) L^-* / t, and no isometry is formed.  In
    exact arithmetic this is the QR route's compression matrix itself.  In
    floating point the Gram squares the panel's condition number kappa(G),
    so eigenvalues move by about kappa(G)^2 * u * max|x_i| / t (u the unit
    roundoff).  The tests hold that to 1e-12 * max|x_i| / t for t <= 0.9,
    1e-10 * max|x_i| / t at t = 0.99, and 1e-9 * max|x_i| at t = 1,
    N = 2000, where the square panel's kappa(G) is largest.
    """
    if N < 100:
        raise DomainError("need N >= 100 for a meaningful compression")
    if not 0.0 < t <= 1.0:
        raise DomainError("t must lie in (0, 1]")
    d = floor_fraction(t, N)
    if d == 0:
        raise DomainError("floor(t*N) vanished; increase t or N")
    counts = apportion_counts(spec, N)
    diag = np.repeat(spec.eigenvalues, counts)
    g = complex_normal(stream(seed, STREAM_HAAR), (N, d))
    gh = g.conj().T
    try:
        chol = np.linalg.cholesky(gh @ g)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("random-matrix oracle: the Ginibre Gram G*G is not "
                               "positive definite in floating point") from exc
    g *= (diag / t)[:, None]
    compression = gh @ g   # G* A G / t
    del g, gh              # free the N x d panels before the d x d stage
    l_inv = _lower_inverse(chol)
    # eigvalsh reads only the lower triangle, so no explicit symmetrization
    eigs = np.linalg.eigvalsh(l_inv @ compression @ l_inv.conj().T)
    return CompressionSample(N=N, t=float(t), seed=int(seed), eigenvalues=eigs)


def ks_distance(sample: CompressionSample, result: FreePowerResult) -> float:
    """Sup distance between the sample's empirical CDF and the power's CDF."""
    if sample.d == 0:
        raise DomainError("empty sample")
    if abs(result.T - 1.0 / sample.t) > 1e-9 * result.T:
        raise DomainError("sample parameter t does not match the computed power")
    xs = np.sort(sample.eigenvalues)
    cdf = np.atleast_1d(result.cdf(xs))
    n = xs.size
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))
