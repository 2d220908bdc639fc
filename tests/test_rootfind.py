import warnings

import numpy as np
import pytest

from conftest import seeded
from freecontract import freepower, measures, rootfind
from freecontract.errors import ConvergenceError
from freecontract.freepower import _PowerKernel, free_power
from freecontract.measures import HermitianSpec, make_measure, nevanlinna_rho
from freecontract.rootfind import BLOCK_ELEMENTS, MAX_STEPS, bisect, damped_newton


def test_damped_newton_finds_i():
    w = damped_newton(lambda w: (w * w, 2.0 * w), -1.0, 1.0 + 1.0j, 1e-14, "solving w^2 = -1")
    assert abs(w - 1j) < 1e-14


def test_damped_newton_zero_derivative_raises():
    with pytest.raises(ConvergenceError):
        damped_newton(lambda w: (1.0 + 0j, 0j), 0.0, 1j, 1e-12, "solving 1 = 0")


def test_bisect_pole_endpoints_give_finite_roots_without_warnings():
    # G = sum w/(x - p) runs from +inf to -inf between consecutive poles p;
    # the last bracket is two adjacent floats, so it is never evaluated.
    # -G with a NaN derivative is probed, so every step bisects.
    poles = np.array([-1.0, 0.0, 2.0, 2.0 + 1e-9, 3.0, np.nextafter(3.0, 4.0)])
    weights = np.full(poles.size, 1.0 / poles.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = bisect(lambda x, _: (-(weights / (x[:, None] - poles)).sum(axis=1), np.nan),
                       poles[:-1], poles[1:], poles.size)
    assert np.all(np.isfinite(roots))
    assert np.all((poles[:-2] < roots[:-1]) & (roots[:-1] < poles[1:-1]))
    assert poles[-2] <= roots[-1] <= poles[-1]


def test_bisect_root_at_zero_stops_at_the_cap():
    calls = []

    def probe(x, idx):
        calls.append(x.size)
        return x, np.nan

    root = bisect(probe, np.array([-1.0]), np.array([3.0]), 1)
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
    together = bisect(lambda x, idx: (x - roots[idx], np.nan), lo, hi, width)
    alone = [bisect(lambda x, _: (x - r, np.nan), lo[i:i + 1], hi[i:i + 1], 1)[0]
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
    result = free_power(mu, T)
    comps, roots = result.bt_components, result.boundary_roots
    assert len(comps) > 1
    kernel = _PowerKernel(mu, T)
    u = np.array(roots) - kernel.tau
    psi = (kernel.c / (kernel.beta - u[:, None]) ** 2).sum(axis=1)
    assert np.max(np.abs(psi - kernel.s)) <= 1e-9 * kernel.s


def test_newton_steps_that_leave_the_bracket_fall_back_to_bisection():
    # Newton on arctan overshoots far out of the bracket from the midpoint;
    # a derivative of the wrong sign always points out of it
    calls = []

    def arctan(x, idx):
        assert x.shape == idx.shape == (1,)
        calls.append(x.size)
        return np.arctan(x - 1.0), 1.0 / (1.0 + (x - 1.0) ** 2)

    def wrong_sign(x, idx):
        assert x.shape == idx.shape == (1,)
        return x - 1.0, -1.0

    root = bisect(arctan, np.array([-10.0]), np.array([30.0]), 1)
    assert abs(root[0] - 1.0) <= 2 * np.spacing(1.0)
    assert len(calls) < 20
    wrong = bisect(wrong_sign, np.array([-10.0]), np.array([30.0]), 1)
    assert abs(wrong[0] - 1.0) <= np.spacing(1.0)


def test_newton_brackets_match_single_solves():
    # f = d + d^3 with d = x - root takes Newton steps; solving 600 brackets
    # in blocks gives each one the same iterates as solving it alone
    rng = np.random.default_rng(12)
    n = 600
    roots = rng.uniform(-5.0, 5.0, n)
    lo = roots - rng.uniform(0.0, 10.0, n)
    hi = roots + rng.uniform(0.0, 10.0, n)

    def probe(x, r):
        d = x - r
        return d + d**3, 1.0 + 3.0 * d * d

    together = bisect(lambda x, idx: probe(x, roots[idx]), lo, hi, BLOCK_ELEMENTS // 64)
    alone = [bisect(lambda x, _: probe(x, r), lo[i:i + 1], hi[i:i + 1], 1)[0]
             for i, r in enumerate(roots)]
    np.testing.assert_array_equal(together, alone)
    assert np.all(np.abs(together - roots) <= 2 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))


def _counting(monkeypatch, module):
    """Probes per bracket of every bisect call made through `module`."""
    calls = []
    solve = rootfind.bisect

    def counting(probe, lo, hi, *args):
        counts = np.zeros(np.size(lo), dtype=int)
        calls.append(counts)

        def wrapped(x, idx):
            np.add.at(counts, idx, 1)
            return probe(x, idx)

        return solve(wrapped, lo, hi, *args)

    monkeypatch.setattr(module, "bisect", counting)
    return calls


def _spectrum(m, seed):
    # one eigenvalue in each m-th of [0, 3], multiplicities 1 to 3
    rng = np.random.default_rng(seed)
    xi = 3.0 * (np.arange(m) + 0.1 + 0.8 * rng.random(m)) / m
    mult = rng.integers(1, 4, m)
    return HermitianSpec(int(mult.sum()), xi, mult).measure()


def _edge_rows(monkeypatch):
    """The run numbers of every row probed by a blockwise pass made through
    freepower, one array per pass; the edge runs are the passes whose last
    rows are integers, the other passes evaluate at points."""
    passes = []
    solve = freepower.blockwise

    def counting(fn, width, *rows):
        if np.issubdtype(rows[-1].dtype, np.integer):
            passes.append(rows[-1])
        return solve(fn, width, *rows)

    monkeypatch.setattr(freepower, "blockwise", counting)
    return passes


@pytest.mark.parametrize("m", [2, 64, 1024])
def test_rho_and_critical_points_take_few_probes(monkeypatch, m):
    # the critical points of H are the support edges: each edge run rises
    # in a few Newton steps, and at T = 4 every gap is cleared by the
    # closed-form first step, so only the two outer runs probe
    rho_calls = _counting(monkeypatch, measures)
    curve_calls = _counting(monkeypatch, freepower)
    passes = _edge_rows(monkeypatch)
    for mu in (_spectrum(m, m), make_measure([(x, 1.0 / m) for x in np.linspace(-1, 1, m)])):
        del rho_calls[:], passes[:]
        result = free_power(mu, 4.0)
        rho_counts = rho_calls[0]
        assert rho_counts.size == m - 1
        assert rho_counts.max() <= 8
        assert not curve_calls
        assert np.bincount(np.concatenate(passes)).max() <= 8
        if m == 1024:
            assert len(result.support_components) == 1
            assert sum(rows.size for rows in passes) <= 16


def test_edge_runs_stop_at_the_scale_of_the_edge(monkeypatch):
    # a cluster 1e-3 wide gives rho atoms of weight ~1e-13, whose edges sit
    # ~1e-7 from them: a run that stopped only when its distance d stopped
    # growing would creep by an ulp of d, far below one of b_P + d, per step
    passes = _edge_rows(monkeypatch)
    for seed in range(10):
        rng = seeded(500, seed)
        pos = np.r_[rng.uniform(0.0, 1e-3, 25), rng.uniform(1.0, 2.0, 25)]
        mu = make_measure(zip(pos, rng.dirichlet(np.full(50, 3.0))))
        for T in (1.08, 1.5):
            del passes[:]
            free_power(mu, T)
            assert np.bincount(np.concatenate(passes)).max() <= 12, (seed, T)


@pytest.mark.parametrize("T", [1.1, 4.0])
def test_subordination_takes_few_probes(monkeypatch, T):
    result = free_power(_spectrum(64, 7), T)
    calls = _counting(monkeypatch, freepower)
    lo, hi = result.support_components[0][0], result.x3
    result.density(np.linspace(lo, hi, 256))
    assert calls
    assert max(c.max() for c in calls) <= 16
