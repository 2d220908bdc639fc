"""Random quantum channel simulator.

A channel instance is a Haar random isometry V from C^d into C^k (x) C^n
with d = floor(t*k*n); the channel traces out the n-dimensional
environment of V X V*, the conjugate channel uses the entrywise conjugate
of V, and the complementary channel traces out the k factor instead.  For
the maximally entangled (Bell) input to the product of a channel with its
conjugate, the top output eigenvalue is at least d/(kn), which caps the
product channel's minimum output entropy.

All sampling is deterministic in (seed, stream): channel isometries use the
instance seed, input samples and optimizer restarts use caller-provided
seeds (restart j reads stream j, so enlarging the restart budget reuses
earlier starts).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError
from .rmt import floor_fraction, haar_columns
from .rng import (GENERATOR_NAME, STREAM_INPUTS, STREAM_RESTART_BASE,
                  complex_normal, stream)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-10
BELL_K_GUARD = 8          # k^4-sized Bell outputs stay desk-sized up to here
_SAMPLE_CHUNK = 2048


@dataclass(frozen=True)
class QuantumState:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DomainError("state matrix shape does not match dim")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise DomainError("state matrix must be finite")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise DomainError("state matrix is not Hermitian")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"state trace {tr} is not 1")
        if float(np.linalg.eigvalsh(m)[0]) < EIG_FLOOR:
            raise DomainError("state matrix has a significantly negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def pure(cls, vector: np.ndarray) -> "QuantumState":
        v = np.asarray(vector, dtype=complex).ravel()
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise DomainError("cannot normalize the zero vector")
        v = v / nrm
        return cls(v.size, np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        return cls(dim, np.eye(dim, dtype=complex) / dim)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@dataclass(frozen=True)
class ChannelInstance:
    """Haar isometry channel with output dimension k and environment n."""

    k: int
    n: int
    t: float
    d: int
    V: np.ndarray
    seed: int

    def __post_init__(self):
        v = np.asarray(self.V, dtype=complex)
        if v.shape != (self.k * self.n, self.d):
            raise DomainError("isometry shape does not match (k*n, d)")
        if np.max(np.abs(v.conj().T @ v - np.eye(self.d))) > 1e-10:
            raise DomainError("V is not an isometry to tolerance 1e-10")
        v.flags.writeable = False
        object.__setattr__(self, "V", v)

    @property
    def t_effective(self) -> float:
        """d/(kn): the exact compression fraction realized by this instance."""
        return self.d / (self.k * self.n)


def random_channel(k: int, n: int, t: float, seed: int) -> ChannelInstance:
    """Channel from the first floor(t*k*n) columns of a Haar unitary on C^(kn)."""
    if k < 1 or n < 1:
        raise DomainError("need k >= 1 and n >= 1")
    if not 0.0 < t <= 1.0:
        raise DomainError("t must lie in (0, 1]")
    d = floor_fraction(t, k * n)
    if d == 0:
        raise DomainError("floor(t*k*n) vanished; increase t, k or n")
    return ChannelInstance(k=k, n=n, t=float(t), d=d,
                           V=haar_columns(k * n, d, seed), seed=int(seed))


def _partial_trace_env(y: np.ndarray, k: int, n: int) -> np.ndarray:
    return np.einsum("iaja->ij", y.reshape(k, n, k, n))


def apply_channel(ch: ChannelInstance, state: QuantumState) -> QuantumState:
    """Trace the environment out of V X V*."""
    if state.dim != ch.d:
        raise DomainError(f"input dimension {state.dim} does not match d = {ch.d}")
    y = ch.V @ state.matrix @ ch.V.conj().T
    return QuantumState(ch.k, _partial_trace_env(y, ch.k, ch.n))


def apply_conjugate_channel(ch: ChannelInstance, state: QuantumState) -> QuantumState:
    """Same channel with the entrywise-conjugated isometry."""
    if state.dim != ch.d:
        raise DomainError(f"input dimension {state.dim} does not match d = {ch.d}")
    y = ch.V.conj() @ state.matrix @ ch.V.T
    return QuantumState(ch.k, _partial_trace_env(y, ch.k, ch.n))


def apply_complementary(ch: ChannelInstance, state: QuantumState) -> QuantumState:
    """Trace out the k factor instead; for rank-one inputs the nonzero output
    spectrum matches the direct channel's."""
    if state.dim != ch.d:
        raise DomainError(f"input dimension {state.dim} does not match d = {ch.d}")
    y = ch.V @ state.matrix @ ch.V.conj().T
    return QuantumState(ch.n, np.einsum("iaib->ab", y.reshape(ch.k, ch.n, ch.k, ch.n)))


def bell_output(ch: ChannelInstance) -> QuantumState:
    """Output of (channel (x) conjugate channel) on the maximally entangled state.

    The image of the Bell vector under V (x) conj(V), reshaped over
    (k, n, k, n), is (V V*)/sqrt(d); tracing the two environment factors
    gives a k^2-dimensional state whose top eigenvalue is at least d/(kn).
    Guarded to k <= 8 since the output has k^4 entries.
    """
    if ch.k > BELL_K_GUARD:
        raise DomainError(f"Bell output guarded to k <= {BELL_K_GUARD} (got k = {ch.k})")
    w = (ch.V @ ch.V.conj().T) / math.sqrt(ch.d)
    w4 = w.reshape(ch.k, ch.n, ch.k, ch.n)
    rho = np.einsum("iajb,xayb->ijxy", w4, w4.conj()).reshape(ch.k**2, ch.k**2)
    rho = 0.5 * (rho + rho.conj().T)
    return QuantumState(ch.k**2, rho)


def entropy(state_or_vector: Union[QuantumState, np.ndarray], p: float = 1.0) -> float:
    """Renyi-p entropy of a state's spectrum (p = 1: von Neumann), natural log."""
    if p <= 0.0:
        raise DomainError("entropy order p must be positive")
    if isinstance(state_or_vector, QuantumState):
        lam = state_or_vector.eigenvalues()
    else:
        lam = np.asarray(state_or_vector, dtype=float).ravel()
        if np.any(lam < -1e-9) or abs(float(lam.sum()) - 1.0) > 1e-9:
            raise DomainError("vector is not a probability vector")
    lam = np.clip(lam, 0.0, None)
    if abs(p - 1.0) <= 1e-12:
        pos = lam[lam > 0.0]
        return float(-np.sum(pos * np.log(pos)))
    return float(np.log(np.sum(lam**p)) / (1.0 - p))


def binary_entropy(t: float) -> float:
    """-t*log(t) - (1-t)*log(1-t), natural log, 0 at the endpoints."""
    if not 0.0 <= t <= 1.0:
        raise DomainError("binary entropy needs t in [0, 1]")
    out = 0.0
    if 0.0 < t:
        out -= t * math.log(t)
    if t < 1.0:
        out -= (1.0 - t) * math.log(1.0 - t)
    return out


def _output_spectra_batch(ch: ChannelInstance, rng: np.random.Generator,
                          count: int) -> np.ndarray:
    """Sorted output spectra of `count` Haar-random pure inputs, shape (count, k)."""
    out = np.empty((count, ch.k))
    done = 0
    while done < count:
        m = min(_SAMPLE_CHUNK, count - done)
        psi = complex_normal(rng, (ch.d, m))
        psi /= np.linalg.norm(psi, axis=0, keepdims=True)
        mats = (ch.V @ psi).reshape(ch.k, ch.n, m)
        gram = np.einsum("iac,jac->cij", mats, mats.conj())
        out[done:done + m] = np.linalg.eigvalsh(gram)
        done += m
    return out


def sample_output_spectra(ch: ChannelInstance, count: int, seed: int) -> np.ndarray:
    """Eigenvalue vectors (ascending) of channel outputs on random pure inputs."""
    if count < 1:
        raise DomainError("need count >= 1")
    return _output_spectra_batch(ch, stream(seed, STREAM_INPUTS), count)


def concentration_radius(k: int, t: float) -> float:
    """t * (1 + 2*sqrt((1-t)/(t*k))): the sampled-output L2 radius."""
    return t * (1.0 + 2.0 * math.sqrt((1.0 - t) / (t * k)))


@dataclass(frozen=True)
class ConcentrationStat:
    """Largest sampled L2 distance to the maximally mixed state vs the bound."""

    max_l2: float
    bound: float
    regime_ok: bool

    def to_json(self) -> dict:
        return {"max_l2": self.max_l2, "bound": self.bound, "regime_ok": self.regime_ok}


def concentration_stat(ch: ChannelInstance, count: int, seed: int) -> ConcentrationStat:
    """Max over sampled pure inputs of ||output - I/k||_2 against the radius
    t*(1 + 2*sqrt((1-t)/(t*k))) evaluated at the exact fraction t = d/(kn).

    The radius is asserted for t <= 1 - 1/k; outside that regime the value
    is still computed but flagged (and a warning is emitted).
    """
    if count < 1:
        raise DomainError("need count >= 1")
    t = ch.t_effective
    regime_ok = t <= 1.0 - 1.0 / ch.k
    if not regime_ok:
        warnings.warn("concentration radius asserted only for t <= 1 - 1/k; "
                      "reporting the formula value anyway", stacklevel=2)
    spectra = _output_spectra_batch(ch, stream(seed, STREAM_INPUTS), count)
    l2 = np.sqrt(np.sum((spectra - 1.0 / ch.k) ** 2, axis=1))
    return ConcentrationStat(max_l2=float(np.max(l2)),
                             bound=concentration_radius(ch.k, t),
                             regime_ok=regime_ok)


def _entropy_and_gradient(ch: ChannelInstance, psi: np.ndarray) -> tuple[float, np.ndarray]:
    m = (ch.V @ psi).reshape(ch.k, ch.n)
    rho = m @ m.conj().T
    lam, vec = np.linalg.eigh(rho)
    lam = np.clip(lam, 1e-18, None)
    h = float(-np.sum(lam * np.log(lam)))
    grad_rho = vec @ (np.diag(-np.log(lam) - 1.0)) @ vec.conj().T
    grad = ch.V.conj().T @ (grad_rho @ m).ravel()
    return h, grad


def hmin_estimate(ch: ChannelInstance, restarts: int, seed: int) -> float:
    """Heuristic upper estimate of the minimum output entropy.

    Multi-start projected gradient descent over unit input vectors (the
    entropy is concave, so rank-one inputs suffice): random start per
    restart, tangent-space step with halving, 500-iteration cap.  The
    result only upper-bounds the true minimum; restarts with nested seeds
    make the estimate monotone in the restart budget.
    """
    if restarts < 1:
        raise DomainError("need restarts >= 1")
    best = math.inf
    for j in range(restarts):
        rng = stream(seed, STREAM_RESTART_BASE + j)
        psi = complex_normal(rng, ch.d)
        psi /= np.linalg.norm(psi)
        value, grad = _entropy_and_gradient(ch, psi)
        step = 1.0
        for _ in range(500):
            tangent = grad - np.real(np.vdot(psi, grad)) * psi
            gnorm = np.linalg.norm(tangent)
            if gnorm < 1e-12:
                break
            improved = False
            for _ in range(30):
                cand = psi - step * tangent
                cand /= np.linalg.norm(cand)
                cand_value, cand_grad = _entropy_and_gradient(ch, cand)
                if cand_value < value - 1e-14:
                    psi, value, grad = cand, cand_value, cand_grad
                    step *= 1.3
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        best = min(best, value)
    return best


def random_density_matrix(dim: int, rng: np.random.Generator) -> QuantumState:
    """Haar-induced full-rank random state (Ginibre G G*/trace)."""
    g = complex_normal(rng, (dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return QuantumState(dim, rho)


def metadata(ch: ChannelInstance) -> dict:
    return {"k": ch.k, "n": ch.n, "t": ch.t, "d": ch.d, "seed": ch.seed,
            "t_effective": ch.t_effective, "generator": GENERATOR_NAME}
