"""Scalar root finding.

Every real root used in this package has a guaranteed sign-change bracket,
so the real solvers here are bisection-first (unconditionally convergent)
with an optional Newton polish that is never allowed to leave the bracket.
Endpoints are never evaluated: brackets may conceptually start at a pole,
so only midpoints are probed.

Complex equations (inverting analytic maps on the upper half plane) go
through one damped Newton iteration, :func:`damped_newton`.
"""

from __future__ import annotations

from typing import Callable

from .errors import ConvergenceError


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    lo_positive: bool,
    iterations: int = 60,
) -> tuple[float, float]:
    """Shrink a sign-change bracket [lo, hi] by bisection.

    `lo_positive` states the sign of f on the lo side; the endpoints
    themselves are never evaluated (either may sit on a pole of f).
    Returns the final bracket.
    """
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (f(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect_newton(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    lo: float,
    hi: float,
    lo_positive: bool,
    bisect_iterations: int = 60,
    newton_iterations: int = 4,
) -> float:
    """Bisection followed by a bracket-confined Newton polish.

    The bisection phase certifies the root to ~(hi-lo)*2**-60; the Newton
    steps only sharpen the last digits and are rejected whenever they leave
    the certified bracket.
    """
    lo, hi = bisect(f, lo, hi, lo_positive, bisect_iterations)
    x = 0.5 * (lo + hi)
    for _ in range(newton_iterations):
        fx = f(x)
        if fx == 0.0:
            return x
        dfx = fprime(x)
        if dfx == 0.0:
            break
        step = fx / dfx
        cand = x - step
        if not (lo < cand < hi):
            break
        x = cand
    return x


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
