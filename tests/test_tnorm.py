import math

import numpy as np
import pytest

from conftest import random_nonneg_spec, seeded
from freecontract import tnorm
from freecontract.errors import ConvergenceError, DomainError
from freecontract.freepower import support_hull
from freecontract.measures import AtomicMeasure, HermitianSpec
from freecontract.tnorm import (
    default_probes,
    kargin_bound,
    kkt_membership,
    lower_bound,
    superconvergence_asymptote,
    tnorm_exact,
    tnorm_report,
    upper_bound,
)

SQRT3 = math.sqrt(3.0)
NORM_T = (1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 10, 0.37)


class TestExactNorm:
    @pytest.mark.parametrize("t", [0.05, 0.1, 0.25, 0.4, 0.5])
    def test_bernoulli_small_t(self, bernoulli_spec, t):
        assert tnorm_exact(bernoulli_spec, t) == pytest.approx(
            2.0 * math.sqrt(t * (1 - t)), abs=1e-9)

    @pytest.mark.parametrize("t", [0.5, 0.6, 0.8, 1.0])
    def test_bernoulli_large_t(self, bernoulli_spec, t):
        assert tnorm_exact(bernoulli_spec, t) == pytest.approx(1.0, abs=1e-9)

    def test_shifted_two_point(self, shifted_spec):
        # support edges of the quarter power sit at 4 +/- 2*sqrt(3); scaled
        # by t the norm is 1 + sqrt(3)/2
        assert tnorm_exact(shifted_spec, 0.25) == pytest.approx(
            1.0 + SQRT3 / 2.0, abs=1e-9)

    def test_t_one_is_operator_norm(self):
        spec = HermitianSpec.from_values([-3.0, 0.5, 2.0])
        assert tnorm_exact(spec, 1.0) == 3.0

    @pytest.mark.parametrize("c", [2.5, -1.3])
    def test_scale_equivariance(self, c):
        spec = HermitianSpec.from_values([0.2, 0.9, 1.7])
        for t in (0.2, 0.5):
            scaled = HermitianSpec.from_values(c * spec.eigenvalues)
            assert tnorm_exact(scaled, t) == pytest.approx(
                abs(c) * tnorm_exact(spec, t), rel=1e-10)

    def test_invalid_t(self, bernoulli_spec):
        with pytest.raises(DomainError):
            tnorm_exact(bernoulli_spec, 0.0)
        with pytest.raises(DomainError):
            tnorm_exact(bernoulli_spec, 1.5)

    @pytest.mark.parametrize("a", [1e-170, 1e-300])
    def test_tiny_spectrum(self, a):
        # a^2 underflows: the variance of {-a, a} reads 0 unless mu is
        # scaled before it is formed
        spec = HermitianSpec(2, np.array([-a, a]), np.array([1, 1]))
        assert tnorm_exact(spec, 0.25) == pytest.approx(SQRT3 / 2 * a, rel=1e-15, abs=0.0)

    def test_a_norm_past_the_float_range_raises(self):
        # the hull ends +-2*sqrt(T - 1)*a of {-a, a} at T = 1e308 overflow
        spec = HermitianSpec(2, np.array([-1.3e154, 1.3e154]), np.array([1, 1]))
        with pytest.raises(ConvergenceError, match="not finite"):
            tnorm_exact(spec, 1e-308)


class TestOneSidedNorm:
    # the left end of a nonnegative spectrum's power lies in
    # [T*lminus, right end], so only the right end can set the norm, and
    # the other way round for a nonpositive one

    @staticmethod
    def _spectra(count, seed, kinds):
        """One eigenvalue in each m-th of [0, 3], multiplicities 1 to 3 and
        m log-uniform on [2, 256], placed by `kinds` in turn: nonnegative
        ("+"), starting at 0 ("+0"), mirrored ("-", "-0") or shifted to
        mixed signs ("+-")."""
        rng = seeded(seed)
        for i in range(count):
            m = int(np.rint(2.0 ** (1.0 + 7.0 * rng.random())))
            xi = 3.0 * (np.arange(m) + 0.1 + 0.8 * rng.random(m)) / m
            kind = kinds[i % len(kinds)]
            if kind.endswith("0"):
                xi[0] = 0.0
            if kind == "+-":
                xi -= 1.5
            elif kind.startswith("-"):
                xi = -xi[::-1]
            mult = rng.integers(1, 4, m)
            yield HermitianSpec(int(mult.sum()), xi, mult)

    @staticmethod
    def _sides(monkeypatch):
        calls = []
        solve = tnorm.hull_end

        def counting(mu, T, side):
            calls.append(side)
            return solve(mu, T, side)

        monkeypatch.setattr(tnorm, "hull_end", counting)
        return calls

    @pytest.mark.parametrize("kinds, count, sides", [
        (("+", "+0", "-", "-0"), 500, None),
        (("+-",), 60, [-1.0, 1.0]),
    ], ids=["one sign", "mixed signs"])
    def test_the_norm_solves_only_the_ends_that_can_set_it(self, monkeypatch, kinds,
                                                            count, sides):
        calls = self._sides(monkeypatch)
        for i, spec in enumerate(self._spectra(count, 2101, kinds)):
            t = NORM_T[i % len(NORM_T)]
            del calls[:]
            got = tnorm_exact(spec, t)
            want = sides or [1.0 if spec.lminus >= 0.0 else -1.0]
            assert calls == want, (i, calls)
            lo, hi = support_hull(spec.measure(), 1.0 / t)
            assert got == t * max(abs(lo), abs(hi)), (i, got, lo, hi)


class TestUpperBound:
    def test_bernoulli(self, bernoulli_spec):
        bound, dominated = upper_bound(bernoulli_spec, 0.25)
        assert bound == pytest.approx(2 * math.sqrt(0.25 * 0.75) + 0.25, abs=1e-12)
        assert not dominated

    def test_shifted(self, shifted_spec):
        bound, dominated = upper_bound(shifted_spec, 0.25)
        assert bound == pytest.approx(0.5 + SQRT3 / 2 + 0.75, abs=1e-12)
        assert not dominated

    def test_point_spectrum_dominated(self):
        spec = HermitianSpec(3, np.array([0.7]), np.array([3]))
        for t in (0.2, 0.8):
            bound, dominated = upper_bound(spec, t)
            assert dominated
            assert bound == pytest.approx(0.7, abs=1e-12)

    def test_offset_spectrum_bound_holds(self):
        # E[x^2] - mean^2 cancels to 0 here; the centred variance keeps 1/4
        spec = HermitianSpec(2, np.array([1e8, 1e8 + 1.0]), np.array([1, 1]))
        exact = tnorm_exact(spec, 0.25)
        assert exact == pytest.approx(1e8 + (2.0 + SQRT3) / 4.0, abs=1e-6)
        assert upper_bound(spec, 0.25)[0] >= exact

    @pytest.mark.parametrize("values", [[-1e-170, 1e-170], [0.0, 1e-170]],
                             ids=["+-1e-170", "0 and 1e-170"])
    def test_tiny_spectrum_bounds_hold(self, values):
        # the variance underflows; sigma, scaled by a power of two, does not
        spec = HermitianSpec(2, np.array(values), np.array([1, 1]))
        report = tnorm_report(spec, 0.25)
        assert report.upper >= report.exact > 0.0
        assert report.asymptote > 0.0
        if report.lower is not None:
            assert report.lower <= report.exact

    def test_dominated_flag_threshold(self):
        # multiplicity 2 of 4 dominates iff 2 > 4(1-t), i.e. t > 1/2
        spec = HermitianSpec(4, np.array([0.0, 1.0, 2.0]),
                             np.array([2, 1, 1]))
        assert not upper_bound(spec, 0.4)[1]
        assert upper_bound(spec, 0.6)[1]


class TestLowerBound:
    def test_shifted_example(self, shifted_spec):
        # plug-in: 1 + (1 + sqrt(3)/(2+sqrt(3))) * sqrt(3)/4 - 3/4
        eps = SQRT3 / (2.0 + SQRT3)
        expect = 1.0 + (1.0 + eps) * SQRT3 / 4.0 - 0.75
        got = lower_bound(shifted_spec, 0.25, L=2.0)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got <= tnorm_exact(shifted_spec, 0.25)

    def test_point_mass_collapses(self):
        spec = HermitianSpec(2, np.array([0.9]), np.array([2]))
        got = lower_bound(spec, 0.3, L=0.9)
        assert got == pytest.approx(0.9 * (1 - 2 * 0.3), abs=1e-12)

    def test_requires_nonnegative(self):
        spec = HermitianSpec.from_values([-1.0, 1.0])
        with pytest.raises(DomainError):
            lower_bound(spec, 0.25, L=1.0)

    def test_requires_L_dominating(self, shifted_spec):
        with pytest.raises(DomainError):
            lower_bound(shifted_spec, 0.25, L=1.5)

    @pytest.mark.parametrize("L", [math.nan, math.inf])
    def test_requires_finite_L(self, shifted_spec, L):
        with pytest.raises(DomainError):
            lower_bound(shifted_spec, 0.25, L=L)

    def test_sandwich_sweep(self):
        for trial in range(150):
            rng = seeded(2024, trial)
            spec = random_nonneg_spec(rng)
            for t in (0.1, 0.25, 0.5):
                low = lower_bound(spec, t, L=spec.lplus)
                exact = tnorm_exact(spec, t)
                up, _ = upper_bound(spec, t)
                assert low <= exact + 1e-10
                assert exact <= up + 1e-10


class TestKarginBound:
    def test_bernoulli(self, bernoulli_spec):
        assert kargin_bound(bernoulli_spec, 0.25) == pytest.approx(2.25, abs=1e-12)

    def test_shifted(self, shifted_spec):
        assert kargin_bound(shifted_spec, 0.25) == pytest.approx(3.25, abs=1e-12)

    def test_zero_variance_rejected(self):
        spec = HermitianSpec(2, np.array([0.7]), np.array([2]))
        with pytest.raises(DomainError):
            kargin_bound(spec, 0.5)

    def test_non_integer_inverse_rejected(self, bernoulli_spec):
        with pytest.raises(DomainError):
            kargin_bound(bernoulli_spec, 0.3)

    @pytest.mark.parametrize("edge, t, want", [
        (1e103, 0.5, math.sqrt(2.0) * 1e103 + 2.5e103),
        (4e102, 1.0, 2.8e103),
        (1e-170, 0.25, 2.25e-170),
    ], ids=["cube past the range", "product past the range", "variance underflows"])
    def test_cube_term_is_scaled_back(self, edge, t, want):
        # ||a - mean||^3 and the variance leave the float range; their
        # ratio, formed on the centred and scaled spectrum, does not
        spec = HermitianSpec(2, np.array([-edge, edge]), np.array([1, 1]))
        assert kargin_bound(spec, t) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert tnorm_report(spec, t).kargin == kargin_bound(spec, t)

    def test_a_bound_past_the_float_range_is_refused(self):
        # 2*sigma + 5*||a||^3/variance = 1e308 + 2.5e308; the spectrum itself
        # stays below 2^1023 about its mean, so only the bound is refused
        spec = HermitianSpec(2, np.array([-5e307, 5e307]), np.array([1, 1]))
        with pytest.raises(DomainError, match="the moment bound overflows"):
            kargin_bound(spec, 1.0)

    def test_upper_beats_kargin_on_nonneg(self):
        failures = []
        for trial in range(100):
            rng = seeded(31337, trial)
            spec = random_nonneg_spec(rng)
            for n in range(2, 11):
                t = 1.0 / n
                up, _ = upper_bound(spec, t)
                kb = kargin_bound(spec, t)
                if up > kb + 1e-10:
                    failures.append((trial, n, up, kb))
        assert failures == []


class TestAsymptote:
    def test_bernoulli_quarter(self, bernoulli_spec):
        assert superconvergence_asymptote(bernoulli_spec, 0.25) == pytest.approx(1.0)

    def test_point_mass(self):
        spec = HermitianSpec(1, np.array([0.3]), np.array([1]))
        assert superconvergence_asymptote(spec, 0.17) == pytest.approx(0.3)

    def test_small_t_convergence(self, bernoulli_spec):
        # |exact - asymptote| / sqrt(t) stays bounded and non-increasing
        ratios = []
        for n in (100, 400, 1600):
            t = 1.0 / n
            gap = abs(tnorm_exact(bernoulli_spec, t)
                      - superconvergence_asymptote(bernoulli_spec, t))
            ratios.append(gap / math.sqrt(t))
        assert ratios[0] >= ratios[1] - 1e-9
        assert ratios[1] >= ratios[2] - 1e-9


class TestReport:
    def test_all_bounds_fields(self, shifted_spec):
        rep = tnorm_report(shifted_spec, 0.25)
        assert rep.lower is not None and rep.kargin is not None
        assert rep.lower <= rep.exact <= rep.upper
        assert list(vars(rep)) == ["t", "exact", "upper", "lower", "kargin",
                                   "asymptote", "atom_dominated", "upper_abs_atom"]

    def test_bounds_skipped_where_undefined(self):
        spec = HermitianSpec.from_values([-1.0, 1.0])
        rep = tnorm_report(spec, 0.3)
        assert rep.lower is None         # negative eigenvalue
        assert rep.kargin is None        # 1/t not integral

    @pytest.mark.parametrize("L", [math.nan, math.inf, 0.5])
    @pytest.mark.parametrize("all_bounds", [False, True])
    def test_given_L_always_checked(self, L, all_bounds):
        # also where no lower bound is computed: a signed spec, or no all_bounds
        for values in ([-1.0, 1.0], [0.0, 2.0]):
            with pytest.raises(DomainError, match="L must be finite"):
                tnorm_report(HermitianSpec.from_values(values), 0.5, L=L,
                             all_bounds=all_bounds)

    def test_abs_atom_variant_reported(self):
        spec = HermitianSpec(3, np.array([-0.7]), np.array([3]))
        rep = tnorm_report(spec, 0.5)
        assert rep.atom_dominated
        assert rep.upper_abs_atom == pytest.approx(0.7, abs=1e-12)

    def test_the_spectrum_is_centred_once(self, monkeypatch):
        # both hull ends, sigma, the mean and the moment bound read one
        # centring of a mixed-sign spectrum
        calls = []
        exact = AtomicMeasure.centred.func

        def counting(self):
            calls.append(self)
            return exact(self)

        monkeypatch.setattr(AtomicMeasure.centred, "func", counting)
        spec = HermitianSpec.from_values([-1.0, 0.5, 2.0])
        rep = tnorm_report(spec, 0.25)
        assert rep.kargin is not None and rep.lower is None
        assert calls == [spec.measure()]


class TestMembership:
    def test_uniform_point_is_member(self):
        k = 3
        lam = np.full(k, 1.0 / k)
        probes = default_probes(k, seed=5, count=40)
        member, margin, _ = kkt_membership(lam, 0.3, probes)
        assert member
        assert margin <= 1e-9

    def test_vertex_not_member_small_t(self):
        k = 3
        lam = np.array([1.0, 0.0, 0.0])
        member, margin, worst = kkt_membership(lam, 0.2, [lam])
        assert not member
        assert margin > 0
        np.testing.assert_array_equal(worst, lam)

    def test_boundary_margin_k2(self):
        # at k = 2, t = 1/2 the slab upper bound is 1, so the vertex is a
        # boundary point: margin against itself is ~0
        lam = np.array([1.0, 0.0])
        _, margin, _ = kkt_membership(lam, 0.5, [lam])
        assert abs(margin) < 1e-9

    def test_all_nan_margins_raise(self, monkeypatch):
        from freecontract import tnorm
        monkeypatch.setattr(tnorm, "tnorm_exact", lambda spec, t: math.nan)
        with pytest.raises(ConvergenceError):
            kkt_membership([0.5, 0.5], 0.5, [[0.5, 0.5], [1.0, 0.0]])

    def test_malformed_point_rejected(self):
        with pytest.raises(DomainError):
            kkt_membership([0.5, 0.2], 0.5, [[0.5, 0.5]])
