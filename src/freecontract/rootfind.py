"""Root finding.

Real roots with a guaranteed sign-change bracket (the zeros of the Cauchy
transform and the subordination points) come from one vectorized
safeguarded Newton iteration, :func:`bisect`, which solves a whole array
of brackets at once: a Newton step is taken where it lands inside the
shrinking bracket, a bisection step elsewhere (rtsafe, Numerical Recipes
3rd ed., section 9.4).  Endpoints are never evaluated: brackets may start
at a pole, so callers clear their poles, which keeps the probed function
finite on the closed bracket and Newton's model good next to them.  A
single bracket (each end of the support hull) goes through
:func:`bracketed_newton`, the same iteration on Python floats: the same
first probe, steps and stops, with no array bookkeeping around an O(m)
probe.  The support edges and the boundary heights need no bracket: each
is the root of a concave increasing function, reached by monotone Newton
steps from below (see :mod:`freecontract.freepower`), with probes in
:func:`blockwise` rows and the same NEWTON_ULPS stop for the edges.  Each
point's sum over atoms is one row; blocks hold at most BLOCK_ELEMENTS
numbers, and numpy sums a row the same way whatever rows share its block.

Complex equations (inverting analytic maps on the upper half plane) go
through one damped Newton iteration, :func:`damped_newton`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError

# Probes per bracket.  A bisecting bracket stops as soon as its midpoint
# equals an endpoint, after about 52 + log2(width/|root|) steps; only roots
# at or next to 0 run to the cap, which leaves a bracket 2**-80 times its
# starting width.  Newton brackets stop long before.
MAX_STEPS = 80
# A Newton step at most this many ulps of the bracket's scale ends it:
# rounding in the probed function makes its root fuzzy at that scale.
NEWTON_ULPS = 2.0
# Elements per evaluation block: a (rows x atoms) temporary holds at most
# this many numbers (512 KiB of float64, small enough to stay in cache),
# whatever the number of rows.
BLOCK_ELEMENTS = 2**16


def blockwise(fn: Callable[..., np.ndarray], width: int, *rows: np.ndarray) -> np.ndarray:
    """fn applied to row blocks of equally long arrays, its results (arrays
    or tuples of arrays) joined along the rows; fn pairs `width` atoms with
    each row, and a block holds at most BLOCK_ELEMENTS // width rows."""
    n = len(rows[0])
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    if n <= step:
        return fn(*rows)
    return np.concatenate([fn(*(r[i:i + step] for r in rows))
                           for i in range(0, n, step)], axis=-1)


def bisect(
    probe: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
    width: int,
    start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Roots of an array of brackets [lo, hi] by simultaneous safeguarded
    Newton iteration.

    `probe(x, idx)` returns (f, f') at the points `x` of the brackets
    numbered `idx`, for a function f that is negative below each bracket's
    root and nonnegative above it; it is called on row blocks (see
    :func:`blockwise`) with `width` atoms per row.  The first probe is
    `start` where that lies strictly inside the bracket, else the midpoint.
    After each probe the bracket shrinks to the side of the root, and the
    next probe is the Newton point x - f/f' when that lies strictly inside
    the new bracket, else the midpoint (rtsafe without its step-halving
    test, which rejects the growing steps of Newton converging from one
    side); a NaN (or infinite) f' therefore gives plain bisection.  A
    bracket stops when its midpoint equals an endpoint (the midpoint is
    returned), when a Newton step is at most NEWTON_ULPS ulps of
    max(|lo|, |hi|) (its point is returned), or after MAX_STEPS probes
    (the midpoint is returned).  Division by zero inside `probe` is
    silenced.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    root = 0.5 * (lo + hi)
    if start is not None:
        root = np.where((lo < start) & (start < hi), start, root)
    tol = NEWTON_ULPS * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    idx = np.arange(lo.size)
    a, b, x = lo, hi, root.copy()
    done = np.zeros(lo.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_STEPS):
            live = (a < x) & (x < b) & ~done
            if not live.all():
                root[idx[~live]] = x[~live]
                idx, a, b, x = idx[live], a[live], b[live], x[live]
                tol = tol[live]
            if not idx.size:
                return root
            f, fp = blockwise(lambda x, i: np.broadcast_arrays(*probe(x, i)), width, x, idx)
            up = f < 0.0
            a = np.where(up, x, a)
            b = np.where(up, b, x)
            step = f / np.where(np.isfinite(fp), fp, np.nan)
            xn = x - step
            inside = (a < xn) & (xn < b)
            done = (inside | (xn == x)) & (np.abs(step) <= tol)
            x = np.where(inside | done, xn, 0.5 * (a + b))
        root[idx] = np.where(done, x, 0.5 * (a + b))
    return root


def bracketed_newton(
    probe: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    start: Optional[float] = None,
) -> float:
    """Root of one bracket [lo, hi] by :func:`bisect`'s iteration on Python
    floats: `probe(x)` returns the floats (f, f'), and the first probe,
    the Newton and bisection steps and the three stops are bisect's, so on
    one bracket the two return the same bits.  Division by zero in numpy
    inside `probe` is silenced.
    """
    a, b = float(lo), float(hi)
    x = start if start is not None and a < start < b else 0.5 * (a + b)
    tol = NEWTON_ULPS * math.ulp(max(abs(a), abs(b)))
    done = False
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_STEPS):
            if done or not a < x < b:
                return x
            f, fp = probe(x)
            if f < 0.0:
                a = x
            else:
                b = x
            # a zero or non-finite f' makes bisect's step infinite or NaN
            if fp != 0.0 and math.isfinite(fp):
                step = f / fp
                xn = x - step
                inside = a < xn < b
                done = (inside or xn == x) and abs(step) <= tol
                if inside or done:
                    x = xn
                    continue
            x = 0.5 * (a + b)
    return x if done else 0.5 * (a + b)


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
