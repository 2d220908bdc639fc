import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecontract.additivity import (
    contour_segments,
    gap_g,
    hastings_gap,
    k_grid,
    phi_overlap,
    product_bound,
    r_grid,
    scan_violation,
    simplex_bounds,
    taylor_lower_f,
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
    def test_k2_half(self):
        lo, hi = simplex_bounds(2, 0.5)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(1.0, abs=1e-15)

    @given(st.integers(2, 50), st.floats(1e-6, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_range_and_upper_ordering(self, k, t):
        lo, hi = simplex_bounds(k, t)
        assert 0.0 <= lo <= 1.0
        assert 1.0 / k - 1e-12 <= hi <= 1.0

    @given(st.integers(2, 50), st.data())
    @settings(max_examples=200, deadline=None)
    def test_lower_ordering_small_t(self, k, data):
        # the slab encloses the uniform point throughout t <= 1/k
        t = data.draw(st.floats(1e-9, 1.0 / k))
        lo, _ = simplex_bounds(k, t)
        assert lo <= 1.0 / k + 1e-12

    def test_degenerate_at_inverse_k(self):
        # t = 1/k collapses the lower slab bound: exactly zero when 1/k is
        # binary-representable, rounding dust otherwise
        lo, _ = simplex_bounds(64, 1.0 / 64.0)
        assert lo == 0.0
        lo, _ = simplex_bounds(100, 0.01)
        assert lo < 1e-30


class TestTaylorLowerF:
    def test_degenerate_slab_rejected(self):
        with pytest.raises(DomainError):
            taylor_lower_f(2, 0.5)

    def test_moderate_point_below_log_k(self):
        value = taylor_lower_f(100, 0.01 * 0.7)   # keep t off 1/k
        assert value < math.log(100)
        assert math.isfinite(value)

    def test_headline_feed(self):
        t = float(HEADLINE_K) ** (-HEADLINE_R)
        f_val = taylor_lower_f(HEADLINE_K, t)
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


class TestHastingsGap:
    def test_maximally_mixed_is_tight(self):
        from freecontract.qchannel import QuantumState
        state = QuantumState.maximally_mixed(5)
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
        rows, summary = scan_violation([HEADLINE_K], [HEADLINE_R])
        assert len(rows) == 1
        assert summary.min_k == HEADLINE_K
        assert summary.argmin_r == HEADLINE_R

    def test_no_violation_at_small_k(self):
        rows, summary = scan_violation(k_grid(100, 1000, 10),
                                       r_grid(1.0, 2.0, 0.05))
        assert summary.min_k is None
        assert summary.violations == 0

    def test_r_equal_one_recorded_as_nan(self):
        rows, _ = scan_violation([1000], [1.0])
        assert math.isnan(rows[0].g)
        assert not rows[0].violated

    def test_grid_helpers(self):
        ks = k_grid(1e4, 1e5, 200)
        assert ks[0] >= 10_000 and ks[-1] <= 100_000
        assert all(b > a for a, b in zip(ks, ks[1:]))
        rs = r_grid(1.0, 2.0, 0.001)
        assert rs[0] == 1.0 and rs[-1] < 2.0
        assert HEADLINE_R == pytest.approx(rs[387], abs=1e-12)


class TestContour:
    def test_segments_track_zero_level(self):
        # synthetic plane g = r - 1.5: the contour is the horizontal line r = 1.5
        from freecontract.additivity import ViolationReport
        rows = []
        for k in (10, 100, 1000):
            for r in (1.0, 1.25, 1.5, 1.75):
                rows.append(ViolationReport(k=k, r=r, t=0.0, g=r - 1.5,
                                            product_bound=0.0, single_lower=0.0,
                                            violated=r < 1.5))
        segments = contour_segments(rows)
        assert segments
        for (x1, y1), (x2, y2) in segments:
            assert y1 == pytest.approx(1.5, abs=1e-12)
            assert y2 == pytest.approx(1.5, abs=1e-12)
