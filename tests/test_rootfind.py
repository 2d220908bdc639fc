import warnings

import numpy as np
import pytest

from freecontract.errors import ConvergenceError
from freecontract.freepower import _PowerKernel, b_set
from freecontract.measures import HermitianSpec, nevanlinna_rho
from freecontract.rootfind import BLOCK_ELEMENTS, MAX_STEPS, bisect, damped_newton


def test_damped_newton_finds_i():
    w = damped_newton(lambda w: (w * w, 2.0 * w), -1.0, 1.0 + 1.0j, 1e-14, "solving w^2 = -1")
    assert abs(w - 1j) < 1e-14


def test_damped_newton_zero_derivative_raises():
    with pytest.raises(ConvergenceError):
        damped_newton(lambda w: (1.0 + 0j, 0j), 0.0, 1j, 1e-12, "solving 1 = 0")


def test_bisect_pole_endpoints_give_finite_roots_without_warnings():
    # G = sum w/(x - p) runs from +inf to -inf between consecutive poles p;
    # the last bracket is two adjacent floats, so it is never evaluated
    poles = np.array([-1.0, 0.0, 2.0, 2.0 + 1e-9, 3.0, np.nextafter(3.0, 4.0)])
    weights = np.full(poles.size, 1.0 / poles.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = bisect(lambda x, _: (weights / (x[:, None] - poles)).sum(axis=1) > 0.0,
                       poles[:-1], poles[1:], poles.size)
    assert np.all(np.isfinite(roots))
    assert np.all((poles[:-2] < roots[:-1]) & (roots[:-1] < poles[1:-1]))
    assert poles[-2] <= roots[-1] <= poles[-1]


def test_bisect_root_at_zero_stops_at_the_cap():
    calls = []

    def above(x, idx):
        calls.append(x.size)
        return x < 0.0

    root = bisect(above, np.array([-1.0]), np.array([3.0]), 1)
    assert abs(root[0]) <= 1e-20
    assert len(calls) == MAX_STEPS


def test_bisect_mixed_brackets_match_single_solves():
    rng = np.random.default_rng(11)
    n = 600
    width = BLOCK_ELEMENTS // 64           # blocks of 64 brackets
    roots = rng.uniform(-5.0, 5.0, n)
    roots[::7] = 0.0                       # run to the cap
    lo = roots - rng.uniform(0.0, 10.0, n)
    hi = roots + rng.uniform(0.0, 10.0, n)
    lo[::11] = hi[::11] = roots[::11]      # collapsed from the start
    together = bisect(lambda x, idx: x < roots[idx], lo, hi, width)
    alone = [bisect(lambda x, _: x < r, lo[i:i + 1], hi[i:i + 1], 1)[0]
             for i, r in enumerate(roots)]
    np.testing.assert_array_equal(together, alone)


def test_large_m_rho_interlaces_and_edges_solve_psi_equal_s():
    rng = np.random.default_rng(300)
    vals = np.sort(rng.uniform(-1.0, 2.0, 300))
    spec = HermitianSpec.from_values(np.repeat(vals, rng.integers(1, 5, vals.size)))
    mu = spec.measure()
    xs, ws = mu.positions, mu.weights
    assert xs.size == 300
    beta = nevanlinna_rho(mu).positions
    assert np.all((xs[:-1] < beta) & (beta < xs[1:]))
    g = (ws / (beta[:, None] - xs)).sum(axis=1)
    gap = np.minimum(beta - xs[:-1], xs[1:] - beta)
    assert np.max(np.abs(g) * gap) <= 1e-12

    T = 1.01
    comps, roots = b_set(mu, T)
    assert len(comps) > 1
    kernel = _PowerKernel(mu, T)
    psi = kernel.psi(np.array(roots))
    assert np.max(np.abs(psi - kernel.s)) <= 1e-9 * kernel.s
