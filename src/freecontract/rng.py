"""Deterministic random streams.

All randomness in the package flows from 64-bit master seeds through the
counter-based Philox4x64-10 generator (numpy implementation).  Stream ``j``
of master seed ``s`` uses the Philox key ``(s mod 2**64, j)``, so any
sub-computation is reproducible from the pair ``(seed, stream)`` alone and
independent streams never overlap.
"""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "philox4x64-10(numpy)"

# Fixed stream indices, one per purpose, so different draws fed from the
# same master seed can never overlap.
STREAM_HAAR = 0           # Haar unitary / isometry entries
STREAM_INPUTS = 1         # random channel input vectors
STREAM_PROBES = 2         # simplex probe sampling
STREAM_RESTART_BASE = 16  # optimizer restart j uses STREAM_RESTART_BASE + j

_MASK64 = (1 << 64) - 1


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for stream `index` of master seed `seed` (both 64-bit)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array: (X + iY)/sqrt(2), X,Y ~ N(0,1).

    Filled in place through one real buffer.  numpy divides a complex array
    by a real scalar as a multiplication by its reciprocal, so scaling each
    part by 1/sqrt(2) gives the same bits as the complex quotient.  The
    output is allocated before the buffer: the other order raised the peak
    RSS of a following 1000 x 500 Haar QR by 3 MB (glibc, numpy 2.4).
    """
    z = np.empty(shape, dtype=complex)
    x = rng.standard_normal(shape)
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(x, scale, out=z.real)
    np.multiply(rng.standard_normal(out=x), scale, out=z.imag)
    return z
