import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecontract.additivity import (
    ScanGrid,
    _slab,
    contour_segments,
    contour_svg,
    gap_g,
    hastings_gap,
    k_grid,
    phi_overlap,
    product_bound,
    r_grid,
    scan_violation,
)
from freecontract.errors import DomainError
from freecontract.qchannel import random_density_matrix
from freecontract.rng import stream

HEADLINE_K = 31114
HEADLINE_R = 1.387
HEADLINE_G = -6.71108e-12


class TestPhiOverlap:
    def test_half_half(self):
        assert phi_overlap(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_zero_second_argument(self):
        for a in (0.0, 0.3, 1.0):
            assert phi_overlap(a, 0.0) == pytest.approx(a)

    def test_one_second_argument(self):
        for a in (0.0, 0.3, 1.0):
            assert phi_overlap(a, 1.0) == pytest.approx(1.0 - a)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            phi_overlap(-0.1, 0.5)
        with pytest.raises(DomainError):
            phi_overlap(0.5, 1.1)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_range_and_symmetry(self, a, b):
        value = phi_overlap(a, b)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(phi_overlap(b, a), abs=1e-12)


class TestSimplexBounds:
    # the slab (l, u) of the scan kernel, at one (k, t)

    def test_k2_half(self):
        lo, hi = _slab(2.0, 0.5)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(1.0, abs=1e-15)

    @given(st.integers(2, 50), st.floats(1e-6, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_range_and_upper_ordering(self, k, t):
        lo, hi = _slab(float(k), t)
        assert 0.0 <= lo <= 1.0
        assert 1.0 / k - 1e-12 <= hi <= 1.0

    @given(st.integers(2, 50), st.data())
    @settings(max_examples=200, deadline=None)
    def test_lower_ordering_small_t(self, k, data):
        # the slab encloses the uniform point throughout t <= 1/k
        t = data.draw(st.floats(1e-9, 1.0 / k))
        lo, _ = _slab(float(k), t)
        assert lo <= 1.0 / k + 1e-12

    def test_degenerate_at_inverse_k(self):
        # t = 1/k collapses the lower slab bound: exactly zero when 1/k is
        # binary-representable, rounding dust otherwise
        lo, _ = _slab(64.0, 1.0 / 64.0)
        assert lo == 0.0
        lo, _ = _slab(100.0, 0.01)
        assert lo < 1e-30


class TestTaylorLowerF:
    # f(k, t) as `gap_g` reports it, at t = k^-r

    def test_degenerate_slab_rejected(self):
        with pytest.raises(DomainError, match="f undefined"):
            gap_g(2, 1.0)   # t = 1/k: the slab's lower bound is 0

    def test_moderate_point_below_log_k(self):
        value = gap_g(100, 1.08).single_lower   # keep t off 1/k
        assert value < math.log(100)
        assert math.isfinite(value)

    def test_headline_feed(self):
        report = gap_g(HEADLINE_K, HEADLINE_R)
        t, f_val = report.t, report.single_lower
        g = 2 * (1 - t) * math.log(HEADLINE_K) \
            + (-t * math.log(t) - (1 - t) * math.log(1 - t)) - 2 * f_val
        assert abs(g - HEADLINE_G) < 1e-12


class TestGapG:
    def test_headline_value(self):
        report = gap_g(HEADLINE_K, HEADLINE_R)
        assert HEADLINE_G - 1e-12 < report.g < HEADLINE_G + 1e-12
        assert report.g < 0
        assert report.violated

    def test_small_k_positive(self):
        report = gap_g(100, HEADLINE_R)
        assert report.g > 0
        assert not report.violated

    def test_neighbor_below_headline_not_violated(self):
        assert not gap_g(HEADLINE_K - 1, HEADLINE_R).violated

    def test_t_field(self):
        report = gap_g(50, 1.2)
        assert report.t == pytest.approx(50.0 ** -1.2, rel=1e-15)

    def test_continuity_in_r(self):
        rng = stream(42, 0)
        for _ in range(20):
            k = int(rng.integers(10, 10_000))
            r = float(rng.uniform(1.01, 1.95))
            try:
                g0 = gap_g(k, r).g
                g1 = gap_g(k, r + 1e-6).g
            except DomainError:
                continue
            assert abs(g0 - g1) <= 1e-4

    def test_single_zero_crossing_at_headline_r(self):
        ks = np.unique(np.rint(np.geomspace(1e4, 1e5, 400)).astype(int))
        signs = np.sign([gap_g(int(k), HEADLINE_R).g for k in ks])
        crossings = np.sum(np.abs(np.diff(signs)) > 0)
        assert crossings == 1

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            gap_g(1, 1.5)
        with pytest.raises(DomainError):
            gap_g(100, 0.9)
        with pytest.raises(DomainError):
            gap_g(100, 2.0)


class TestProductBound:
    def test_half_k2(self):
        assert product_bound(2, 0.5) == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_below_regime_rejected(self):
        with pytest.raises(DomainError):
            product_bound(10, 0.005)


@pytest.mark.parametrize("func", [product_bound])
@pytest.mark.parametrize("k, t", [(1, 0.5), (0, 0.5), (10, 0.0), (10, 1.5), (10, math.nan)],
                         ids=["k = 1", "k = 0", "t = 0", "t > 1", "nan t"])
def test_point_functions_check_k_and_t(func, k, t):
    with pytest.raises(DomainError, match="need"):
        func(k, t)


class TestHastingsGap:
    def test_maximally_mixed_is_tight(self):
        from freecontract.qchannel import QuantumState
        state = QuantumState(5, np.eye(5) / 5)
        lhs, rhs = hastings_gap(state)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_inequality_sweep(self):
        for k in range(2, 9):
            rng = stream(1000 + k, 0)
            for _ in range(60):
                lhs, rhs = hastings_gap(random_density_matrix(k, rng))
                assert lhs <= rhs + 1e-12


class TestScan:
    def test_single_point_grid(self):
        grid, summary = scan_violation([HEADLINE_K], [HEADLINE_R])
        assert len(grid) == 1
        assert summary.min_k == HEADLINE_K
        assert summary.argmin_r == HEADLINE_R

    def test_no_violation_at_small_k(self):
        _, summary = scan_violation(k_grid(100, 1000, 10),
                                       r_grid(1.0, 2.0, 0.05))
        assert summary.min_k is None
        assert summary.violations == 0

    def test_r_equal_one_recorded_as_nan(self):
        grid, _ = scan_violation([1000], [1.0])
        assert math.isnan(grid.g[0, 0])
        assert not grid.g[0, 0] < 0.0

    def test_grid_helpers(self):
        ks = k_grid(1e4, 1e5, 200)
        assert ks[0] >= 10_000 and ks[-1] <= 100_000
        assert all(b > a for a, b in zip(ks, ks[1:]))
        rs = r_grid(1.0, 2.0, 0.001)
        assert rs[0] == 1.0 and rs[-1] < 2.0
        assert HEADLINE_R == pytest.approx(rs[387], abs=1e-12)

    @pytest.mark.parametrize("kmax", [math.inf, 1e30])
    def test_k_grid_rejects_kmax_past_2_53(self, kmax):
        # an infinite kmax gave a 1-point grid; 1e30 dropped the points
        # that overflow int64
        with pytest.raises(DomainError):
            k_grid(1e4, kmax, 10)

    def test_k_grid_of_one_point(self):
        assert k_grid(1e4, 1e5, 1) == [10000]
        assert k_grid(50.4, 50.4, 10) == [50]

    def test_r_grid_rejects_a_nan_step(self):
        with pytest.raises(DomainError):
            r_grid(1.0, 2.0, math.nan)


class TestContour:
    @pytest.mark.parametrize("ks, rs", [([10], [1.0, 1.5]), ([10, 100], [1.5])],
                             ids=["one k", "one r"])
    def test_a_grid_without_cells_has_no_contour(self, ks, rs):
        ks, rs = np.array(ks), np.array(rs)
        g = np.tile(rs - 1.25, (ks.size, 1))
        grid = ScanGrid(ks, rs, np.zeros_like(g), g)
        assert contour_segments(grid) == []
        svg = contour_svg(grid)
        assert svg.startswith("<svg") and svg.endswith("</svg>\n") and "<line" not in svg

    def test_segments_track_zero_level(self):
        # synthetic plane g = r - 1.5: the contour is the horizontal line r = 1.5
        ks, rs = np.array([10, 100, 1000]), np.array([1.0, 1.25, 1.5, 1.75])
        g = np.broadcast_to(rs - 1.5, (ks.size, rs.size))
        segments = contour_segments(ScanGrid(ks, rs, np.zeros_like(g), g))
        assert segments
        for (x1, y1), (x2, y2) in segments:
            assert y1 == pytest.approx(1.5, abs=1e-12)
            assert y2 == pytest.approx(1.5, abs=1e-12)

    def test_cells_with_a_nan_corner_are_skipped(self):
        # g = r - 1.4 crosses zero in the cells of column j = 1; the NaN at
        # (k = 10, r = 1.25) removes the first of them
        ks, rs = np.array([10, 100, 1000]), np.array([1.0, 1.25, 1.5, 1.75])
        g = np.tile(rs - 1.4, (ks.size, 1))
        g[0, 1] = math.nan
        segments = contour_segments(ScanGrid(ks, rs, np.zeros_like(g), g))
        assert len(segments) == 1
        (x1, y1), (x2, y2) = segments[0]
        assert sorted([x1, x2]) == [2.0, 3.0]
        assert y1 == pytest.approx(1.4, abs=1e-12) and y2 == pytest.approx(1.4, abs=1e-12)

    @pytest.mark.parametrize("corners", [(3.0, -1.0, 1.0, -1.0), (1.0, -1.0, 1.0, -3.0)])
    def test_saddle_keeps_the_centre_with_its_corners(self, corners):
        # bilinear cell with corners (counter-clockwise from (0, 0)) of
        # alternating sign: the mean-value rule joins the two corners that
        # share the centre's sign, so no segment separates them from it
        z0, z1, z2, z3 = corners
        g = np.array([[z0, z3], [z1, z2]])
        segments = contour_segments(ScanGrid(np.array([1, 10]), np.array([0.0, 1.0]),
                                             np.zeros_like(g), g))
        assert len(segments) == 2
        centre_sign = sum(corners) > 0.0
        points = [(0.5, 0.5)] + [p for p, z in zip([(0, 0), (1, 0), (1, 1), (0, 1)], corners)
                                 if (z > 0.0) == centre_sign]

        def side(p, a, b):
            return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) > 0.0

        for a, b in segments:
            assert len({side(p, a, b) for p in points}) == 1


class TestScanGrid:
    @pytest.mark.parametrize("ks, rs", [
        ([1, 100], [1.5]),        # k below 2
        ([100], [2.5]),           # r outside [1, 2)
        ([100], [0.9]),
        ([100, 100], [1.5]),      # ks not strictly increasing
        ([200, 100], [1.5]),
        ([100.0], [1.5]),         # ks not integers
        ([100], [1.5, 1.4]),      # rs not strictly increasing
        ([100], [1.2, math.nan]),
        ([], [1.5]),
    ])
    def test_bad_grid_raises(self, ks, rs):
        with pytest.raises(DomainError):
            scan_violation(ks, rs)

    def test_nan_only_where_slab_vanishes(self):
        grid, summary = scan_violation([1000, 31114], [1.0, 1.387])
        assert np.array_equal(np.isnan(grid.g), [[True, False], [True, False]])
        assert summary.cells == len(grid) == 4
        assert grid.t.shape == grid.g.shape == (2, 2)

    def test_cells_equal_gap_g_bit_for_bit(self):
        # the benchmark re-evaluates gap_g at the summary's cell, so the scan
        # and the point function must agree exactly, across the frontier
        ks, rs = [31000, 31114, 31500], r_grid(1.30, 1.50, 0.001)
        grid, summary = scan_violation(ks, rs)
        assert grid.g.shape == (3, 200)
        assert np.any(grid.g < 0) and np.any(grid.g > 0)
        for i, k in enumerate(ks):
            for j, r in enumerate(rs):
                report = gap_g(k, r)
                assert report.t == grid.t[i, j] == float(k) ** -r
                assert report.g == grid.g[i, j]
        assert gap_g(summary.min_k, summary.argmin_r).g == summary.g_at_min

    def test_terms_summed_exactly_near_the_zero(self):
        # across the frontier g is the exactly rounded sum of its three terms
        from freecontract.additivity import _product_terms, _taylor_f
        ks = [30800, 31114, 31440, 31500]
        grid, _ = scan_violation(ks, r_grid(1.380, 1.3905, 0.001))
        k_col = np.asarray(ks, dtype=float)[:, None]
        log_term, h_term = _product_terms(k_col, grid.t)
        f = _taylor_f(k_col, grid.t)
        for i, j in np.ndindex(grid.g.shape):
            assert grid.g[i, j] == math.fsum([log_term[i, j], h_term[i, j], -2.0 * f[i, j]])


def _mp_gap(k: int, t: float):
    """g(k, t) at 50 digits straight from the definitions, at the float t."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        k, t = mp.mpf(k), mp.mpf(t)

        def phi(a, b):
            return a + b - 2 * a * b + 2 * mp.sqrt(a * b * (1 - a) * (1 - b))

        lower, upper = 1 - phi((k - 1) / k, t), phi(1 / k, t)
        radius = t * (1 + 2 * mp.sqrt((1 - t) / (t * k)))
        f = mp.log(k) - (k / 2 + (upper - 1 / k) / (6 * lower**2)) * radius**2
        h = -t * mp.log(t) - (1 - t) * mp.log(1 - t)
        return 2 * (1 - t) * mp.log(k) + h - 2 * f


class TestAgainstMpmath:
    def test_frontier_band(self):
        ks = [int(k) for k in np.linspace(30800, 31500, 8)]
        grid, _ = scan_violation(ks, r_grid(1.380, 1.3905, 0.001))
        for i, k in enumerate(ks):
            for j in range(grid.rs.size):
                exact = _mp_gap(k, grid.t[i, j])
                assert abs(grid.g[i, j] - exact) <= 2e-14
                assert (grid.g[i, j] < 0) == (exact < 0)

    @pytest.mark.parametrize("k, r", [(k, r) for k in (10_000, 31_114, 61_502, 100_000)
                                      for r in (1.0194, 1.02, 1.0206)] + [(1000, 1.00001)])
    def test_near_r_one(self, k, r):
        # t near 1/k, where l loses digits to 1 - (k-1)/k and to cancellation
        g = gap_g(k, r)
        assert abs(g.g - _mp_gap(k, g.t)) <= 1e-11 * max(1.0, abs(g.g))
