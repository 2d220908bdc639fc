"""Random quantum channel simulator.

A channel instance is a Haar random isometry V from C^d into C^k (x) C^n
with d = floor(t*k*n); the channel traces out the n-dimensional
environment of V X V*, and its conjugate channel uses the entrywise
conjugate of V.  The channel is only ever applied to pure inputs psi,
whose output is M M* with M the k x n reshape of V psi, and, with its
conjugate, to the maximally entangled (Bell) input, whose top output
eigenvalue is at least d/(kn); that caps the product channel's minimum
output entropy.

Each reader computes only what it uses and does its own contraction.
Output sampling draws the input stream in chunks of Gram matrices (the
k x k output states); spectra come from a batched `eigvalsh`, while the
concentration statistic reads only ||lambda - 1/k||_2 = ||rho - I/k||_F
and so needs no eigenvalues.  The h_min search takes nonmonotone
Barzilai-Borwein steps on the unit sphere; it evaluates trial points by
value alone and forms the gradient only at accepted ones.

All sampling is deterministic in (seed, stream): channel isometries use the
instance seed, input samples and optimizer restarts use caller-provided
seeds (restart j reads stream j, so enlarging the restart budget reuses
earlier starts).
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Iterator

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
        # a private copy: freezing the caller's array would lock it for them
        m = np.array(self.matrix, dtype=complex)
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
        v = np.array(self.V, dtype=complex)   # private copy, as in QuantumState
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
    d = floor_fraction(t, k * n)
    return ChannelInstance(k=k, n=n, t=float(t), d=d,
                           V=haar_columns(k * n, d, seed), seed=int(seed))


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


def entropy(state: QuantumState) -> float:
    """Von Neumann entropy of a state's spectrum, natural log."""
    lam = state.eigenvalues()
    pos = lam[lam > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def binary_entropy(t):
    """-t*log(t) - (1-t)*log(1-t), natural log, 0 at the endpoints.

    Takes a float (returns a float) or an array (returns an array).
    """
    arr = np.asarray(t, dtype=float)
    if not np.all((0.0 <= arr) & (arr <= 1.0)):
        raise DomainError("binary entropy needs t in [0, 1]")
    # 0.0 - (...) keeps h(0) = +0.0
    h = (0.0 - arr * np.log(np.where(arr > 0.0, arr, 1.0))
         - (1.0 - arr) * np.log(np.where(arr < 1.0, 1.0 - arr, 1.0)))
    return float(h) if h.ndim == 0 else h


def concentration_radius(k, t):
    """t * (1 + 2*sqrt((1-t)/(t*k))): the sampled-output L2 radius.

    Takes floats (returns a float) or arrays broadcasting together.
    """
    k_arr, t_arr = np.asarray(k, dtype=float), np.asarray(t, dtype=float)
    if not (np.all(k_arr >= 1.0) and np.all((0.0 < t_arr) & (t_arr <= 1.0))):
        raise DomainError("the concentration radius needs k >= 1 and t in (0, 1]")
    radius = t_arr * (1.0 + 2.0 * np.sqrt((1.0 - t_arr) / (t_arr * k_arr)))
    return float(radius) if radius.ndim == 0 else radius


def _output_grams(ch: ChannelInstance, count: int, seed: int) -> Iterator[np.ndarray]:
    """Output states of `count` Haar-random pure inputs, in chunks of shape
    (m, k, k); every reader of the input stream draws it here."""
    rng = stream(seed, STREAM_INPUTS)
    for done in range(0, count, _SAMPLE_CHUNK):
        m = min(_SAMPLE_CHUNK, count - done)
        psi = complex_normal(rng, (ch.d, m))
        psi /= np.linalg.norm(psi, axis=0, keepdims=True)
        mats = (ch.V @ psi).reshape(ch.k, ch.n, m)
        yield np.einsum("iac,jac->cij", mats, mats.conj())


def sample_output_spectra(ch: ChannelInstance, count: int, seed: int) -> np.ndarray:
    """Eigenvalue vectors (ascending) of channel outputs on random pure inputs."""
    if count < 1:
        raise DomainError("need count >= 1")
    return np.concatenate([np.linalg.eigvalsh(gram) for gram in _output_grams(ch, count, seed)])


@dataclass(frozen=True)
class ConcentrationStat:
    """Largest sampled L2 distance to the maximally mixed state vs the bound."""

    max_l2: float
    bound: float
    regime_ok: bool


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
    # ||lambda - 1/k||_2 = ||rho - I/k||_F: the Frobenius norm is unitarily invariant
    diag = np.arange(ch.k)
    max_sq = 0.0
    for gram in _output_grams(ch, count, seed):
        gram[:, diag, diag] -= 1.0 / ch.k
        sq = np.sum(gram.real ** 2 + gram.imag ** 2, axis=(1, 2))
        max_sq = max(max_sq, float(sq.max()))
    return ConcentrationStat(max_l2=math.sqrt(max_sq),
                             bound=concentration_radius(ch.k, t),
                             regime_ok=regime_ok)


def _entropy_value(ch: ChannelInstance, psi: np.ndarray) -> tuple[float, tuple]:
    """Output entropy at psi and the (m, log lambda, eigenvectors) its gradient reuses.

    Eigenvalues are clipped to [1e-18, 1], so every term lambda*log(lambda)
    is at most 0 and the entropy is never below 0.
    """
    m = (ch.V @ psi).reshape(ch.k, ch.n)
    lam, vec = np.linalg.eigh(m @ m.conj().T)
    lam = np.clip(lam, 1e-18, 1.0)
    log_lam = np.log(lam)
    return 0.0 - float((lam * log_lam).sum()), (m, log_lam, vec)


def _entropy_gradient(vh: np.ndarray, terms: tuple) -> np.ndarray:
    """V* (-log(rho) - I) m: half the entropy's gradient in the real inner
    product Re<x, y>; `vh` is V.conj().T."""
    m, log_lam, vec = terms
    grad_rho = (vec * (-log_lam - 1.0)) @ vec.conj().T
    return vh @ (grad_rho @ m).ravel()


_MAX_STEPS = 500        # accepted steps per restart
_MAX_HALVINGS = 30      # trials per step, each at half the last one's step
_MEMORY = 10            # accepted values the nonmonotone test compares against
_ARMIJO = 1e-4
_STEP_MIN, _STEP_MAX = 1e-10, 1e10
_GNORM_TOL = 1e-9
_ZERO_TOL = 1e-12       # the entropy is nonnegative: this is the minimum


def _tangent_gradient(vh: np.ndarray, psi: np.ndarray, terms: tuple) -> np.ndarray:
    grad = _entropy_gradient(vh, terms)
    return grad - np.vdot(psi, grad).real * psi


def _descend(ch: ChannelInstance, vh: np.ndarray,
             psi: np.ndarray) -> tuple[float, int, float, str]:
    """One restart of gradient descent on the unit sphere from the unit vector psi.

    A trial moves along the tangent gradient g and normalizes.  The first
    trial step is 1; later ones are Barzilai-Borwein steps from the last
    accepted move s and gradient change y, BB1 = <s,s>/<s,y> and
    BB2 = <s,y>/<y,y> in turn (the step doubles when <s,y> <= 0), clamped to
    [1e-10, 1e10].  A trial is accepted when its value is at most the
    largest of the last 10 accepted values less 1e-4 * step * ||g||^2, and
    is otherwise retried at half the step.  Trials cost one eigendecomposition
    each; g is formed only at accepted points.

    Returns (lowest value seen, accepted steps, final ||g||, stop), where
    stop is "stationary" (||g|| <= 1e-9), "zero" (value <= 1e-12),
    "stalled" (30 trials failed) or "cap" (500 accepted steps).
    """
    value, terms = _entropy_value(ch, psi)
    g = _tangent_gradient(vh, psi, terms)
    best, recent, step = value, deque([value], maxlen=_MEMORY), 1.0
    for steps in range(_MAX_STEPS):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= _GNORM_TOL:
            return best, steps, gnorm, "stationary"
        if value <= _ZERO_TOL:
            return best, steps, gnorm, "zero"
        ceiling, decrease = max(recent), _ARMIJO * gnorm * gnorm
        for _ in range(_MAX_HALVINGS):
            cand = psi - step * g
            cand /= np.linalg.norm(cand)
            cand_value, terms = _entropy_value(ch, cand)
            best = min(best, cand_value)
            if cand_value <= ceiling - decrease * step:
                break
            step *= 0.5
        else:
            return best, steps, gnorm, "stalled"
        cand_g = _tangent_gradient(vh, cand, terms)
        s, y = cand - psi, cand_g - g
        sy = np.vdot(s, y).real
        if sy <= 0.0:
            step *= 2.0
        elif steps % 2 == 0:
            step = np.vdot(s, s).real / sy
        else:
            step = sy / np.vdot(y, y).real
        step = min(max(step, _STEP_MIN), _STEP_MAX)
        psi, value, g = cand, cand_value, cand_g
        recent.append(value)
    return best, _MAX_STEPS, float(np.linalg.norm(g)), "cap"


def hmin_estimate(ch: ChannelInstance, restarts: int, seed: int) -> float:
    """Heuristic upper estimate of the minimum output entropy.

    Multi-start gradient descent over unit input vectors (the entropy is
    concave, so rank-one inputs suffice): a random start per restart, then
    nonmonotone Barzilai-Borwein steps on the sphere until the tangent
    gradient vanishes, the entropy reaches 0, no halved step is accepted, or
    500 steps pass (`_descend`).  V* is taken once per call.  The result
    only upper-bounds the true minimum; restart j draws its start from
    stream STREAM_RESTART_BASE + j, so the estimate is monotone in the
    restart budget.
    """
    if restarts < 1:
        raise DomainError("need restarts >= 1")
    vh = ch.V.conj().T
    best = math.inf
    for j in range(restarts):
        psi = complex_normal(stream(seed, STREAM_RESTART_BASE + j), ch.d)
        psi /= np.linalg.norm(psi)
        best = min(best, _descend(ch, vh, psi)[0])
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
