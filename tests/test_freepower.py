import math

import numpy as np
import pytest

from conftest import random_measure, seeded
from freecontract.errors import ConvergenceError, DomainError
from freecontract.freepower import (
    atoms_of_power,
    b_set,
    density,
    f_height,
    free_power,
    h_transform,
    power_voiculescu,
    subordination,
    support_components,
)
from freecontract.measures import make_measure, moments, voiculescu_transform
from freecontract.tnorm import support_bounds

SQRT3 = math.sqrt(3.0)
T_GRID = (1.1, 1.5, 2.0, 4.0, 10.0)


class TestHTransform:
    def test_bernoulli_T4(self, bernoulli):
        h, hp = h_transform(bernoulli, 4.0, 1.0 + 0j)
        assert h == pytest.approx(4.0, abs=1e-12)
        assert hp == pytest.approx(-2.0, abs=1e-12)

    def test_point_mass_shift_only(self):
        mu = make_measure([(0.3, 1.0)])
        for T in (1.5, 3.0):
            h, hp = h_transform(mu, T, 2.0 + 1.0j)
            assert h == pytest.approx((2 + 1j) + (T - 1) * 0.3)
            assert hp == pytest.approx(1.0)

    def test_bernoulli_T2_maps_i_to_zero(self, bernoulli):
        h, _ = h_transform(bernoulli, 2.0, 1j)
        assert abs(h) < 1e-14

    def test_pole_rejected(self, bernoulli):
        with pytest.raises(DomainError):
            h_transform(bernoulli, 2.0, 0.0 + 0j)   # rho atom of bernoulli is 0


class TestBSet:
    def test_bernoulli_T4(self, bernoulli):
        comps, roots = b_set(bernoulli, 4.0)
        assert len(comps) == 1
        np.testing.assert_allclose(comps[0], (-SQRT3, SQRT3), atol=1e-12)
        np.testing.assert_allclose(roots, (-SQRT3, SQRT3), atol=1e-12)

    def test_bernoulli_T2(self, bernoulli):
        comps, _ = b_set(bernoulli, 2.0)
        np.testing.assert_allclose(comps[0], (-1.0, 1.0), atol=1e-12)

    def test_three_atoms_near_one_splits(self):
        mu = make_measure([(0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)])
        from freecontract.measures import nevanlinna_rho
        rho = nevanlinna_rho(mu)
        comps, _ = b_set(mu, 1.05)
        assert len(comps) == 2
        for (lo, hi), beta in zip(comps, rho.positions):
            assert lo < beta < hi

    def test_point_mass_rejected(self):
        with pytest.raises(DomainError):
            b_set(make_measure([(1.0, 1.0)]), 2.0)


class TestFHeight:
    def test_bernoulli_T4_center(self, bernoulli):
        assert f_height(bernoulli, 4.0, 0.0) == pytest.approx(SQRT3, abs=1e-12)

    def test_outside_is_zero(self, bernoulli):
        assert f_height(bernoulli, 4.0, 5.0) == 0.0

    def test_bernoulli_T2_interior(self, bernoulli):
        assert f_height(bernoulli, 2.0, 0.6) == pytest.approx(0.8, abs=1e-12)

    def test_curve_stays_real_under_h(self, bernoulli):
        # H(x + i f(x)) is real wherever f > 0
        for x in np.linspace(-0.95, 0.95, 9):
            f = f_height(bernoulli, 2.0, float(x))
            h, _ = h_transform(bernoulli, 2.0, complex(x, f))
            assert abs(h.imag) < 1e-9


class TestSupportComponents:
    def test_bernoulli_T4(self, bernoulli):
        comps = support_components(bernoulli, 4.0)
        assert len(comps) == 1
        np.testing.assert_allclose(comps[0], (-2 * SQRT3, 2 * SQRT3), atol=1e-9)

    def test_bernoulli_T2(self, bernoulli):
        comps = support_components(bernoulli, 2.0)
        np.testing.assert_allclose(comps[0], (-2.0, 2.0), atol=1e-9)

    def test_point_mass_empty(self):
        assert support_components(make_measure([(0.5, 1.0)]), 3.0) == ()

    def test_shift_equivariance(self, bernoulli):
        # the two-point measure at {0, 2} is the symmetric one shifted by 1:
        # support edges move by T * shift
        mu = make_measure([(0.0, 0.5), (2.0, 0.5)])
        for T in (2.0, 4.0):
            (lo, hi), = support_components(mu, T)
            assert lo == pytest.approx(T - 2 * math.sqrt(T - 1), abs=1e-9)
            assert hi == pytest.approx(T + 2 * math.sqrt(T - 1), abs=1e-9)


    @pytest.mark.parametrize("c", [1e3, 1e6, 1e8])
    def test_shift_equivariance_at_large_offsets(self, c):
        # the centred variance keeps the offset spectrum {c, c+1} usable
        base = [(0.0, 0.5), (1.0, 0.5)]
        mu_c = make_measure([(x + c, w) for x, w in base])
        for T in (1.5, 2.0, 4.0):
            ref = support_components(make_measure(base), T)
            got = support_components(mu_c, T)
            assert len(got) == len(ref)
            for (lo, hi), (lo0, hi0) in zip(got, ref):
                assert abs(lo - (lo0 + T * c)) <= 1e-14 * T * c
                assert abs(hi - (hi0 + T * c)) <= 1e-14 * T * c

    def test_offset_power_never_returns_a_wrong_mass(self):
        # at T = 2 the arcsine edges sit on the atoms; at this offset edge
        # nodes round onto them and the mass is lost (NaN): that must be an
        # error, not a value
        mu = make_measure([(1e6, 0.5), (1e6 + 1.0, 0.5)])
        for T in (1.5, 2.0, 4.0):
            try:
                result = free_power(mu, T)
            except ConvergenceError:
                continue
            assert abs(result.ac_mass + result.atomic_mass - 1.0) <= 1e-6


class TestAtoms:
    def test_bernoulli_T15(self, bernoulli):
        atoms = atoms_of_power(bernoulli, 1.5)
        assert len(atoms) == 2
        np.testing.assert_allclose([a[0] for a in atoms], [-1.5, 1.5])
        np.testing.assert_allclose([a[1] for a in atoms], [0.25, 0.25])

    def test_bernoulli_T4_none(self, bernoulli):
        assert atoms_of_power(bernoulli, 4.0) == ()

    def test_threshold_strict_at_T2(self, bernoulli):
        assert atoms_of_power(bernoulli, 2.0) == ()

    def test_point_mass_keeps_full_atom(self):
        atoms = atoms_of_power(make_measure([(0.4, 1.0)]), 3.0)
        assert atoms == ((pytest.approx(1.2), pytest.approx(1.0)),)

    def test_one_atom_power_keeps_exact_unit_mass(self):
        T = 1.0 / 0.37
        result = free_power(make_measure([(0.4, 1.0)]), T)
        assert result.atoms == ((T * 0.4, 1.0),)
        assert result.atomic_mass == 1.0


class TestSubordination:
    def test_bernoulli_T2_center(self, bernoulli):
        omega = subordination(bernoulli, 2.0, 0.0)
        assert omega == pytest.approx(1j, abs=1e-10)

    def test_bernoulli_T4_center(self, bernoulli):
        omega = subordination(bernoulli, 4.0, 0.0)
        assert omega == pytest.approx(1j * SQRT3, abs=1e-10)

    def test_residuals_on_random_measure(self):
        rng = seeded(21, 0)
        mu = random_measure(rng)
        result = free_power(mu, 2.5)
        for lo, hi in result.support_components:
            xs = np.linspace(lo, hi, 25)[1:-1]
            omegas = result.subordination(xs)
            for x, om in zip(xs, omegas):
                h, _ = h_transform(mu, 2.5, om)
                assert abs(h - x) < 1e-9
                assert om.imag > 0

    def test_outside_support_rejected(self, bernoulli):
        with pytest.raises(DomainError):
            subordination(bernoulli, 2.0, 5.0)


class TestDensity:
    def test_arcsine_oracle(self, bernoulli):
        # the T = 2 power of the symmetric Bernoulli law is the arcsine law
        # with density 1/(pi*sqrt(4 - x^2)) on (-2, 2)
        xs = np.linspace(-1.9, 1.9, 41)
        got = density(bernoulli, 2.0, xs)
        expect = 1.0 / (math.pi * np.sqrt(4.0 - xs**2))
        np.testing.assert_allclose(got, expect, atol=1e-9)

    def test_center_value(self, bernoulli):
        assert density(bernoulli, 2.0, 0.0) == pytest.approx(1 / (2 * math.pi), abs=1e-12)

    def test_outside_support(self, bernoulli):
        assert density(bernoulli, 2.0, 3.0) == 0.0

    def test_nonnegative_and_edge_decay(self):
        rng = seeded(33, 5)
        mu = random_measure(rng)
        result = free_power(mu, 3.0)
        for lo, hi in result.support_components:
            width = hi - lo
            xs = np.linspace(lo + 1e-12 * width, hi - 1e-12 * width, 30)
            vals = np.atleast_1d(result.density(xs))
            assert np.all(vals >= 0)
            # square-root edges: values very near the edge are far below the
            # interior scale
            near = result.density(lo + 1e-8 * width)
            mid = float(np.max(vals))
            assert near <= 0.05 * mid + 1e-9


class TestFreePower:
    def test_identity_at_T1(self, bernoulli):
        result = free_power(bernoulli, 1.0)
        assert result.support_components == ()
        assert result.atoms == ((-1.0, 0.5), (1.0, 0.5))

    def test_T_below_one_rejected(self, bernoulli):
        with pytest.raises(DomainError):
            free_power(bernoulli, 0.8)

    def test_bernoulli_T15_structure(self, bernoulli):
        result = free_power(bernoulli, 1.5)
        (lo, hi), = result.support_components
        assert lo == pytest.approx(-math.sqrt(2), abs=1e-9)
        assert hi == pytest.approx(math.sqrt(2), abs=1e-9)
        np.testing.assert_allclose([a[0] for a in result.atoms], [-1.5, 1.5])
        np.testing.assert_allclose([a[1] for a in result.atoms], [0.25, 0.25],
                                   atol=1e-12)
        assert result.ac_mass + result.atomic_mass == pytest.approx(1.0, abs=1e-9)

    def test_point_mass_shortcut(self):
        result = free_power(make_measure([(0.5, 1.0)]), 4.0)
        assert result.atoms == ((2.0, 1.0),)
        assert result.support_components == ()

    def test_x3_x4_bookkeeping(self, bernoulli):
        result = free_power(bernoulli, 4.0)
        assert result.x4 == pytest.approx(SQRT3, abs=1e-12)
        assert result.x3 == pytest.approx(2 * SQRT3, abs=1e-9)

    def test_mass_conservation_sweep(self):
        for trial in range(20):
            rng = seeded(55, trial)
            mu = random_measure(rng)
            for T in T_GRID:
                result = free_power(mu, T)
                total = result.ac_mass + result.atomic_mass
                assert abs(total - 1.0) < 1e-6, (trial, T, total)

    def test_cdf_monotone_and_normalized(self, bernoulli):
        result = free_power(bernoulli, 1.5)
        xs = np.linspace(-2.5, 2.5, 101)
        cdf = np.atleast_1d(result.cdf(xs))
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == pytest.approx(0.0, abs=1e-9)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-6)


class TestStructuralInvariants:
    def test_support_inside_outer_bounds(self):
        # every support component sits inside the closed-form enclosure
        for trial in range(15):
            rng = seeded(77, trial)
            mu = random_measure(rng)
            for T in (1.5, 3.0):
                comps = support_components(mu, T)
                mean, var = moments(mu)
                spread = 2.0 * math.sqrt(var) * math.sqrt(T - 1.0)
                x1 = mu.positions[0] - spread + (T - 1) * mean
                x2 = mu.positions[-1] + spread + (T - 1) * mean
                for lo, hi in comps:
                    assert x1 - 1e-9 <= lo and hi <= x2 + 1e-9

    def test_support_bounds_helper_matches(self, bernoulli_spec):
        x1, x2 = support_bounds(bernoulli_spec, 4.0)
        assert x1 == pytest.approx(-1 - 2 * SQRT3)
        assert x2 == pytest.approx(1 + 2 * SQRT3)

    def test_rightmost_critical_point_lower_bound(self):
        # for nonnegative measures the rightmost critical point dominates
        # sigma * sqrt(T-1)
        for trial in range(15):
            rng = seeded(88, trial)
            mu = random_measure(rng)
            shift = -float(mu.positions[0]) + 0.1
            mu = make_measure([(x + shift, w) for x, w in mu.atoms])
            _, var = moments(mu)
            for T in (1.5, 4.0):
                result = free_power(mu, T, mass_check=False)
                assert result.x4 >= math.sqrt(var * (T - 1.0)) - 1e-10

    def test_lipschitz_on_boundary_curve(self):
        # |H(z1) - H(z2)| <= 2 |z1 - z2| for points on the boundary curve
        rng = seeded(99, 0)
        mu = random_measure(rng)
        T = 2.5
        result = free_power(mu, T, mass_check=False)
        kernel = result._kernel
        for lo, hi in result.bt_components:
            us = rng.uniform(lo, hi, 12)
            zs = kernel.curve_point(us)
            hs = kernel.h(zs)
            for i in range(len(zs)):
                for j in range(i + 1, len(zs)):
                    lhs = abs(hs[i] - hs[j])
                    rhs = 2.0 * abs(zs[i] - zs[j])
                    assert lhs <= rhs + 1e-9

    def test_subordination_injective_ordered(self):
        rng = seeded(101, 3)
        mu = random_measure(rng)
        result = free_power(mu, 2.0, mass_check=False)
        lo, hi = result.support_components[0]
        xs = np.linspace(lo, hi, 40)[1:-1]
        om = result.subordination(xs)
        assert np.all(np.diff(om.real) > 0)


class TestHardGeometries:
    # regression cases outside the generic random sweep

    def test_extreme_weight_imbalance(self):
        mu = make_measure([(-1.0, 1e-6), (0.5, 1.0 - 2e-6), (2.0, 1e-6)])
        for T in (1.001, 1.5, 4.0, 100.0):
            result = free_power(mu, T)
            assert abs(result.ac_mass + result.atomic_mass - 1.0) < 1e-6

    def test_nearly_coincident_atoms(self):
        # 1e-10 apart: above the merge threshold, so three genuine atoms
        mu = make_measure([(0.0, 0.3), (1e-10, 0.3), (1.0, 0.4)])
        assert mu.n_atoms == 3
        for T in (1.5, 10.0):
            result = free_power(mu, T)
            assert abs(result.ac_mass + result.atomic_mass - 1.0) < 1e-6

    def test_power_barely_above_one(self):
        mu = make_measure([(-2.0, 0.25), (0.0, 0.5), (3.0, 0.25)])
        result = free_power(mu, 1.0 + 1e-9)
        assert abs(result.ac_mass + result.atomic_mass - 1.0) < 1e-6
        # all three weights clear the 1 - 1/T threshold, so atoms persist
        assert len(result.atoms) == 3

    def test_huge_power(self):
        mu = make_measure([(-2.0, 0.25), (0.0, 0.5), (3.0, 0.25)])
        result = free_power(mu, 1e5)
        assert result.atoms == ()
        assert abs(result.ac_mass - 1.0) < 1e-6

    def test_wide_spectrum_scaling(self):
        mu = make_measure([(-1e4, 0.5), (1e4, 0.5)])
        result = free_power(mu, 4.0)
        (lo, hi), = result.support_components
        assert hi == pytest.approx(2 * math.sqrt(3) * 1e4, abs=1e-4)
        assert lo == pytest.approx(-hi, abs=1e-4)


class TestTransformsSkipComponentLocation:
    def test_pointwise_transforms_never_locate_components(self, bernoulli, monkeypatch):
        # H, its inverse and the power's transforms need only the moments
        # and rho; the component geometry is built on first use
        from freecontract import freepower

        def refuse(self):
            raise AssertionError("component geometry was located")

        monkeypatch.setattr(freepower._PowerKernel, "curves", property(refuse))
        freepower.h_transform(bernoulli, 4.0, 0.3 + 0.2j)
        freepower.f_height(bernoulli, 4.0, 0.5)
        freepower.power_cauchy_pair(bernoulli, 2.0, 1.0 + 1.5j)
        freepower.power_voiculescu(bernoulli, 2.0, 10j)


class TestPowerCauchyPair:
    def test_arcsine_transform_oracle(self, bernoulli):
        # the T = 2 power is the arcsine law on [-2, 2], whose Cauchy
        # transform is 1/sqrt(z^2 - 4) with the upper-half-plane branch
        from freecontract.freepower import power_cauchy_pair
        for z in (2j, 1.0 + 1.5j, -0.7 + 0.4j):
            g, f = power_cauchy_pair(bernoulli, 2.0, z)
            root = np.sqrt(complex(z) ** 2 - 4.0)
            if (1.0 / root).imag > 0:
                root = -root
            assert abs(g - 1.0 / root) < 1e-11
            assert abs(f - root) < 1e-10


class TestPowerVoiculescu:
    def test_linearization_identity(self):
        # phi of the 2nd power equals twice phi, computed via subordination
        # on one side and plain inversion on the other
        for trial in range(10):
            rng = seeded(111, trial)
            mu = random_measure(rng, spread=0.8)
            for y in (10.0, 20.0, 50.0):
                lhs = power_voiculescu(mu, 2.0, 1j * y)
                rhs = 2.0 * voiculescu_transform(mu, 1j * y)
                assert abs(lhs - rhs) < 1e-8
