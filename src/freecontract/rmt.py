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

The oracle works in real arithmetic where it can.  It draws the panel as
its real and imaginary parts stacked in one (2, N, d) array, forms each
Hermitian Gram from two real syrks and one real gemm, writes G* A G as the
Gram of the panel shifted by A's lowest eigenvalue and scaled in place, and
forms only the lower triangle of the congruence, which `eigvalsh` reads.
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


def _gram(panel: np.ndarray) -> np.ndarray:
    """K*K for the n x d panel K = X + iY stacked as panel = (X, Y).

    Re K*K = X^T X + Y^T Y takes two real syrks and Im K*K = X^T Y - (X^T Y)^T
    one real gemm: half the multiply-adds of a complex gemm, with no copy of
    the panel.
    """
    x, y = panel
    out = np.empty((x.shape[1],) * 2, dtype=complex)
    np.add(x.T @ x, y.T @ y, out=out.real)
    xy = x.T @ y
    np.subtract(xy, xy.T, out=out.imag)
    return out


def _lower_congruence(l_inv: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Lower triangle of l_inv @ c @ l_inv^* for lower-triangular l_inv and
    Hermitian c; the block above the diagonal blocks is left zero.

    With l_inv = [[A, 0], [B, E]] and P = l_inv @ c, the lower triangle is
    P[:, :h] A^* beside P[h:] [B, E]^*, so P is needed only in its first block
    column and last block row: nine half-size gemms, against sixteen for the
    full product.
    """
    h = c.shape[0] // 2
    a, b, e = l_inv[:h, :h], l_inv[h:, :h], l_inv[h:, h:]
    col = l_inv[:, :h] @ c[:h, :h]   # P[:, :h] = [A C11; B C11 + E C21]
    col[h:] += e @ c[h:, :h]
    out = np.zeros_like(c)
    out[:, :h] = col @ a.conj().T
    out[h:, h:] = col[h:] @ b.conj().T + (b @ c[:h, h:] + e @ c[h:, h:]) @ e.conj().T
    return out


def compressed_spectrum(spec: HermitianSpec, t: float, N: int, seed: int) -> CompressionSample:
    """Eigenvalues of the rescaled compression of the spec's diagonal model.

    A is diagonal with eigenvalue x_i repeated per largest-remainder
    apportionment of D_i*N/k; W holds the first floor(t*N) columns of a
    Haar unitary; the sample is the sorted spectrum of t^-1 * (W* A W).

    W = G L^-* for the N x d Ginibre panel G that `haar_columns` draws for
    (N, seed) and the Cholesky factor L of G*G, so the sample is the
    spectrum of L^-1 (G* A G) L^-* / t, and no isometry is formed.  The
    panel is drawn as K = sqrt(2) G in stacked real form (Re K, Im K): the
    same two normal draws as `complex_normal`, without its 1/sqrt(2), which
    cancels between L and G* A G.  Both Hermitian Grams are formed from real
    products (`_gram`).  With c the lowest eigenvalue of A, G* A G / t is
    G* (A - c) G / t + (c/t) G*G, so the sample is the spectrum of the Gram
    of the panel with rows scaled by sqrt((x_i - c)/t), congruent by L^-1,
    plus c/t; the rows at c are zero and are dropped.  Only the lower
    triangle that `eigvalsh` reads is formed (`_lower_congruence`).

    In exact arithmetic this is the QR route's compression matrix itself.
    In floating point the Gram squares the panel's condition number
    kappa(G), so eigenvalues move by about kappa(G)^2 * u * max|x_i - c| / t
    plus u * |c| / t (u the unit roundoff), and the eigenvalues at c stay
    within rounding of c/t.  The tests hold that to 1e-12 * max|x_i| / t for
    t <= 0.9, 1e-10 * max|x_i| / t at t = 0.99, and 1e-9 * max|x_i| at t = 1,
    N = 2000, where the square panel's kappa(G) is largest.
    """
    if N < 100:
        raise DomainError("need N >= 100 for a meaningful compression")
    if not 0.0 < t <= 1.0:
        raise DomainError("t must lie in (0, 1]")
    d = floor_fraction(t, N)
    if d == 0:
        raise DomainError("floor(t*N) vanished; increase t or N")
    diag = np.repeat(spec.eigenvalues, apportion_counts(spec, N))
    panel = stream(seed, STREAM_HAAR).standard_normal((2, N, d))
    try:
        chol = np.linalg.cholesky(_gram(panel))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("random-matrix oracle: the Ginibre Gram G*G is not "
                               "positive definite in floating point") from exc
    shift = diag[0]
    first = int(np.searchsorted(diag, shift, side="right"))
    rows = panel[:, first:]
    rows *= np.sqrt((diag[first:] - shift) / t)[:, None]
    compression = _gram(rows)   # G* (A - c) G / t, up to the cancelling factor 2
    del panel, rows             # free the N x d panel before the d x d stage
    eigs = np.linalg.eigvalsh(_lower_congruence(_lower_inverse(chol), compression))
    return CompressionSample(N=N, t=float(t), seed=int(seed), eigenvalues=eigs + shift / t)


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
