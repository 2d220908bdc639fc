"""The power's geometry and density against the independent 50-digit
reference in reference_power.py, on the hard input families: each case is
right to the stated tolerance or raises DomainError/ConvergenceError."""

import numpy as np
import pytest

from conftest import seeded
from freecontract.errors import ConvergenceError, DomainError
from freecontract.freepower import free_power, support_hull
from freecontract.measures import make_measure, nevanlinna_rho
from reference_power import ReferencePower, _solve

BASE = [(-1.0, 0.2), (0.0, 0.5), (0.5, 0.1), (2.0, 0.2)]


def _random(seed, m):
    rng = seeded(seed)
    pos = np.sort(rng.uniform(-1.0, 2.0, m))
    return list(zip(pos.tolist(), rng.dirichlet(np.ones(m)).tolist()))


CASES = {
    "offset 1e8": ([(1e8, 0.3), (1e8 + 0.25, 0.3), (1e8 + 1.0, 0.4)], 2.0),
    "atoms 1e-9 apart": ([(0.0, 0.3), (1e-9, 0.3), (2e-9, 0.1), (1.0, 0.3)], 2.0),
    "weight 1e-12": ([(-1.0, 0.5), (0.0, 1e-12), (1.0, 0.5 - 1e-12)], 2.0),
    "spread 1e12": ([(-1e6, 0.25), (0.0, 0.25), (1e-6, 0.25), (1e6, 0.25)], 2.0),
    "T = 1 + 1e-6": (BASE, 1.0 + 1e-6),
    "T = 1e6": (BASE, 1e6),
    "m = 8": (_random(41, 8), 1.1),
    "m = 16": (_random(42, 16), 4.0),
}
# rho atoms and edges: 1e-12 of the spread, or a few ulps of the value when
# that is coarser (at offset 1e8 an ulp is 1.5e-8); density: 1e-10 of its
# largest reference value, see below
EDGE_TOL = 1e-12
DENSITY_TOL = 1e-10


def _close(got, want, spread):
    tol = EDGE_TOL * spread + 4.0 * np.spacing(abs(float(want)))
    return abs(got - float(want)) <= tol


@pytest.mark.parametrize("name", list(CASES))
def test_power_matches_the_reference(name):
    atoms, T = CASES[name]
    mu = make_measure(atoms)
    try:
        rho = nevanlinna_rho(mu)
        result = free_power(mu, T)
        edges = result.support_components
    except (DomainError, ConvergenceError):
        return
    ref = ReferencePower(mu.atoms, T)
    spread = float(mu.positions[-1] - mu.positions[0])
    for got, want in zip(rho.positions, ref.b):
        assert _close(got, want, spread), (got, want)

    u_spread = float(ref.u_edges[-1] - ref.u_edges[0])
    assert len(result.boundary_roots) == len(ref.u_edges)
    for got, want in zip(result.boundary_roots, ref.u_edges):
        assert _close(got, want, u_spread), (got, want)

    ref_edges = ref.support_edges()
    x_spread = float(ref_edges[-1][1] - ref_edges[0][0])
    starts = [lo for lo, _ in ref_edges]
    ends = [hi for _, hi in ref_edges]
    for lo, hi in edges:
        assert min(abs(lo - float(e)) for e in starts) <= \
            EDGE_TOL * x_spread + 4.0 * np.spacing(abs(lo)), lo
        assert min(abs(hi - float(e)) for e in ends) <= \
            EDGE_TOL * x_spread + 4.0 * np.spacing(abs(hi)), hi

    # interior points of the two widest components.  Besides 1e-10 of the
    # peak, the density may move by its slope times a few ulps of x and of
    # the support's extent about T*mean, the resolution of the coordinates
    # it is computed in: at offset 1e8 an ulp of x is 3e-8, and 1e-9-wide
    # components sit 0.3 from the mean
    curves = list(zip(ref.u_edges[::2], ref.u_edges[1::2], ref_edges))
    curves.sort(key=lambda c: float(c[2][1] - c[2][0]), reverse=True)
    extent = max(float(abs(e - ref.T * ref.mean)) for pair in ref_edges for e in pair)
    xs, want, slack = [], [], []
    for u_lo, u_hi, (x_lo, x_hi) in curves[:2]:
        for frac in (0.3, 0.7):
            x = float(x_lo + frac * (x_hi - x_lo))
            p, slope = ref.density(x, u_lo, u_hi)
            xs.append(x)
            want.append(float(p))
            slack.append(abs(float(slope)) * 4.0 * (np.spacing(abs(x)) + np.spacing(extent)))
    err = np.abs(result.density(np.array(xs)) - want)
    assert np.all(err <= DENSITY_TOL * max(want) + np.array(slack)), (err, slack)


# a light outer atom whose edge root sits 4e-8 from it: every b_i is near 0
HULL_CASES = dict(CASES, **{
    "outer weight 1e-12": ([(0.0, 0.5), (1.0, 0.5 - 1e-12), (2.0, 1e-12)], 1.001),
})


@pytest.mark.parametrize("name", list(HULL_CASES))
def test_hull_matches_the_reference(name):
    # the outer support edges and surviving atoms, within 1e-13 of the
    # hull's extent
    atoms, T = HULL_CASES[name]
    mu = make_measure(atoms)
    lo, hi = support_hull(mu, T)
    ref = ReferencePower(mu.atoms, T)
    ref_edges = ref.support_edges()
    moved = [ref.T * x for x, w in zip(ref.x, ref.w) if w > 1 - 1 / ref.T]
    want = (min([ref_edges[0][0]] + moved), max([ref_edges[-1][1]] + moved))
    scale = max(abs(float(want[0])), abs(float(want[1])))
    assert abs(lo - float(want[0])) <= 1e-13 * scale, (lo, want)
    assert abs(hi - float(want[1])) <= 1e-13 * scale, (hi, want)


@pytest.mark.parametrize("atoms", [
    [(0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)],
    _random(43, 8),
], ids=["three atoms", "m = 8"])
def test_split_decision_at_its_threshold(atoms):
    # the first gap to split as T falls does so at T_c = 1 + 1/min psi over
    # that gap; 1e-6 either side, the number of curves is the reference's
    mu = make_measure(atoms)
    ref = ReferencePower(mu.atoms, 2.0)
    lowest = min(ref.psi(_solve(ref.psi_prime, lo, hi)) for lo, hi in zip(ref.b, ref.b[1:]))
    t_c = 1.0 + 1.0 / float(lowest)
    counts = []
    for T in (t_c * (1.0 - 1e-6), t_c * (1.0 + 1e-6)):
        counts.append(len(free_power(mu, T).bt_components))
        assert counts[-1] == len(ReferencePower(mu.atoms, T).u_edges) // 2, T
    assert counts == [2, 1]


@pytest.mark.parametrize("name", ["m = 8", "m = 16"])
def test_cdf_increments_integrate_the_density(name):
    # an independent check of the closed-form CDF: between interior points
    # of a component its increment is the quadrature of the density, which
    # test_power_matches_the_reference holds to the 50-digit reference
    integrate = pytest.importorskip("scipy.integrate")
    atoms, T = CASES[name]
    result = free_power(make_measure(atoms), T)
    for lo, hi in result.support_components:
        for a, b in ((0.05, 0.5), (0.3, 0.95)):
            a, b = lo + a * (hi - lo), lo + b * (hi - lo)
            area, _ = integrate.quad(result.density, a, b, epsabs=1e-14, limit=200)
            assert abs(result.cdf(b) - result.cdf(a) - area) <= 1e-10, (a, b)
