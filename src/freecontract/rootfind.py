"""Root finding.

Every real root used in this package has a guaranteed sign-change bracket,
so all of them come from one vectorized bisection, :func:`bisect`, which
solves a whole array of brackets at once.  Endpoints are never evaluated:
brackets may start at a pole, so only midpoints are probed.

Complex equations (inverting analytic maps on the upper half plane) go
through one damped Newton iteration, :func:`damped_newton`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConvergenceError

# Bisection steps per bracket.  A bracket stops as soon as its midpoint
# equals an endpoint, after about 52 + log2(width/|root|) steps; only roots
# at or next to 0 run to the cap, which leaves a bracket 2**-80 times its
# starting width.
MAX_STEPS = 80
# Elements per evaluation block: a (rows x atoms) temporary holds at most
# this many numbers (512 KiB of float64, small enough to stay in cache),
# whatever the number of rows.
BLOCK_ELEMENTS = 2**16


def blockwise(fn: Callable[..., np.ndarray], width: int, *rows: np.ndarray) -> np.ndarray:
    """fn applied to row blocks of equally long arrays, the results
    concatenated; `width` is the number of atoms fn pairs with each row,
    and a block holds at most BLOCK_ELEMENTS // width rows."""
    n = len(rows[0])
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    if n <= step:
        return fn(*rows)
    return np.concatenate([fn(*(r[i:i + step] for r in rows))
                           for i in range(0, n, step)])


def bisect(
    above: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    width: int,
) -> np.ndarray:
    """Roots of an array of brackets [lo, hi] by simultaneous bisection.

    `above(x, idx)` says, for the midpoints `x` of the brackets numbered
    `idx`, whether each bracket's root lies above its midpoint; it is
    called on row blocks (see :func:`blockwise`) with `width` atoms per
    row.  A bracket stops once its midpoint equals an endpoint, or after
    MAX_STEPS steps; the midpoint of each final bracket is returned.
    Division by zero inside `above` is silenced (an underflowing distance
    to a pole gives inf, which still has the right sign).
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    idx = np.arange(lo.size)
    a, b = lo, hi
    with np.errstate(divide="ignore"):
        for _ in range(MAX_STEPS):
            mid = 0.5 * (a + b)
            moving = (a < mid) & (mid < b)
            if np.count_nonzero(moving) < idx.size:
                lo[idx], hi[idx] = a, b
                idx, a, b, mid = idx[moving], a[moving], b[moving], mid[moving]
            if not idx.size:
                break
            up = blockwise(above, width, mid, idx)
            a = np.where(up, mid, a)
            b = np.where(up, b, mid)
        else:
            lo[idx], hi[idx] = a, b
    return 0.5 * (lo + hi)


def damped_newton(
    pair: Callable[[complex], tuple[complex, complex]],
    target: complex,
    w0: complex,
    tol: float,
    what: str,
) -> complex:
    """Solve f(w) = target in the open upper half plane by damped Newton.

    `pair(w)` returns (f(w), f'(w)).  Each Newton step is halved (at most 60
    times) until it stays in the upper half plane and lowers the residual
    |f(w) - target|; the iterate is returned once the residual is below
    `tol`.  A zero derivative, a step that cannot be damped into descent,
    or 200 steps without convergence raise ConvergenceError naming `what`.
    """
    w = complex(w0)
    val, der = pair(w)
    resid = abs(val - target)
    for _ in range(200):
        if resid < tol:
            return w
        if der == 0:
            break
        step = (val - target) / der
        scale = 1.0
        for _ in range(60):
            cand = w - scale * step
            if cand.imag > 0:
                cval, cder = pair(cand)
                cres = abs(cval - target)
                if cres < resid:
                    w, val, der, resid = cand, cval, cder, cres
                    break
            scale *= 0.5
        else:
            break
    raise ConvergenceError(f"damped Newton did not converge while {what}")
