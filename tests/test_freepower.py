import json
import math

import numpy as np
import pytest

from conftest import random_measure, seeded
from freecontract.errors import ConvergenceError, DomainError
from freecontract.freepower import (
    atoms_of_power,
    f_height,
    free_power,
    h_transform,
    power_cauchy_pair,
    power_voiculescu,
    support_hull,
)
from freecontract.measures import (HermitianSpec, make_measure, moments, nevanlinna_rho,
                                   voiculescu_transform)
from freecontract.tnorm import support_bounds, tnorm_exact

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
        result = free_power(bernoulli, 4.0)
        comps, roots = result.bt_components, result.boundary_roots
        assert len(comps) == 1
        np.testing.assert_allclose(comps[0], (-SQRT3, SQRT3), atol=1e-12)
        np.testing.assert_allclose(roots, (-SQRT3, SQRT3), atol=1e-12)

    def test_bernoulli_T2(self, bernoulli):
        comps = free_power(bernoulli, 2.0).bt_components
        np.testing.assert_allclose(comps[0], (-1.0, 1.0), atol=1e-12)

    def test_three_atoms_near_one_splits(self):
        mu = make_measure([(0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)])
        from freecontract.measures import nevanlinna_rho
        rho = nevanlinna_rho(mu)
        comps = free_power(mu, 1.05).bt_components
        assert len(comps) == 2
        for (lo, hi), beta in zip(comps, rho.positions):
            assert lo < beta < hi

    def test_point_mass_has_no_boundary_set(self):
        result = free_power(make_measure([(1.0, 1.0)]), 2.0)
        assert result.bt_components == () and result.boundary_roots == ()


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


class TestFHeightHardInputs:
    # f = 0 exactly outside B = {psi > s}; inside, f^2 solves the secular
    # equation (T-1)*sum_j c_j/((b_j-u)^2 + f^2) = 1 to rounding, including
    # on a rho atom and one ulp beside it
    MEASURES = {
        "atoms 1e-9 apart": [(0.0, 0.3), (1e-9, 0.3), (2e-9, 0.1), (1.0, 0.3)],
        "weight 1e-12": [(-1.0, 0.5), (0.0, 1e-12), (1.0, 0.5 - 1e-12)],
        "spread 1e12": [(-1e6, 0.25), (0.0, 0.25), (1e-6, 0.25), (1e6, 0.25)],
    }

    @staticmethod
    def _points(beta):
        width = beta[-1] - beta[0] + 1.0
        pts = [np.linspace(beta[0] - width, beta[-1] + width, 2001)]
        for b in beta:
            offsets = np.geomspace(1e-15, 1.0, 30) * max(1.0, abs(b))
            pts += [[b, np.nextafter(b, np.inf), np.nextafter(b, -np.inf)],
                    b + offsets, b - offsets]
        return np.concatenate(pts)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("T", [1.0 + 1e-6, 2.0, 1e6])
    def test_zero_outside_and_secular_inside(self, name, T):
        from freecontract.freepower import _PowerKernel

        kernel = _PowerKernel(make_measure(self.MEASURES[name]), T)
        u = self._points(kernel.beta)
        f = kernel.f_height(u)
        with np.errstate(divide="ignore"):
            inside = (kernel.c / (kernel.beta - u[:, None]) ** 2).sum(axis=1) > kernel.s
        assert np.all(f[~inside] == 0.0)
        d2 = (kernel.beta - u[inside, None]) ** 2
        secular = (T - 1.0) * (kernel.c / (d2 + f[inside, None] ** 2)).sum(axis=1)
        assert np.max(np.abs(secular - 1.0)) <= 1e-12
        on_atom = np.isin(u, kernel.beta)
        assert np.all(f[on_atom] > 0.0)

    def test_step_cap_raises(self, monkeypatch):
        from freecontract import freepower

        kernel = freepower._PowerKernel(make_measure(self.MEASURES["spread 1e12"]), 2.0)
        u = self._points(kernel.beta)
        kernel.f_height(u)
        monkeypatch.setattr(freepower, "_RISE_STEPS", 1)
        with pytest.raises(ConvergenceError):
            kernel.f_height(u)


class TestSupportComponents:
    def test_bernoulli_T4(self, bernoulli):
        comps = free_power(bernoulli, 4.0).support_components
        assert len(comps) == 1
        np.testing.assert_allclose(comps[0], (-2 * SQRT3, 2 * SQRT3), atol=1e-9)

    def test_bernoulli_T2(self, bernoulli):
        comps = free_power(bernoulli, 2.0).support_components
        np.testing.assert_allclose(comps[0], (-2.0, 2.0), atol=1e-9)

    def test_point_mass_empty(self):
        assert free_power(make_measure([(0.5, 1.0)]), 3.0).support_components == ()

    def test_shift_equivariance(self, bernoulli):
        # the two-point measure at {0, 2} is the symmetric one shifted by 1:
        # support edges move by T * shift
        mu = make_measure([(0.0, 0.5), (2.0, 0.5)])
        for T in (2.0, 4.0):
            (lo, hi), = free_power(mu, T).support_components
            assert lo == pytest.approx(T - 2 * math.sqrt(T - 1), abs=1e-9)
            assert hi == pytest.approx(T + 2 * math.sqrt(T - 1), abs=1e-9)


    @pytest.mark.parametrize("c", [1e3, 1e6, 1e8])
    def test_shift_equivariance_at_large_offsets(self, c):
        # the centred variance keeps the offset spectrum {c, c+1} usable
        base = [(0.0, 0.5), (1.0, 0.5)]
        mu_c = make_measure([(x + c, w) for x, w in base])
        for T in (1.5, 2.0, 4.0):
            ref = free_power(make_measure(base), T).support_components
            got = free_power(mu_c, T).support_components
            assert len(got) == len(ref)
            for (lo, hi), (lo0, hi0) in zip(got, ref):
                assert abs(lo - (lo0 + T * c)) <= 1e-14 * T * c
                assert abs(hi - (hi0 + T * c)) <= 1e-14 * T * c

    def test_offset_three_atoms_keep_their_mass(self):
        # {0, 0.25, 1} + 1e8 at T = 2: rho, the support and the mass come out
        # as for the unshifted measure, moved by T*1e8
        base = [(0.0, 0.3), (0.25, 0.3), (1.0, 0.4)]
        ref = free_power(make_measure(base), 2.0)
        got = free_power(make_measure([(x + 1e8, w) for x, w in base]), 2.0)
        assert abs(got.ac_mass + got.atomic_mass - 1.0) <= 1e-9
        assert len(got.support_components) == len(ref.support_components)
        for (lo, hi), (lo0, hi0) in zip(got.support_components, ref.support_components):
            assert abs(lo - (lo0 + 2e8)) <= 2 * np.spacing(2e8)
            assert abs(hi - (hi0 + 2e8)) <= 2 * np.spacing(2e8)

    def test_offset_power_never_returns_a_wrong_mass(self):
        # at T = 2 the arcsine edges sit on the atoms, which at this offset
        # are known only to ulp(1e6): a lost mass must be an error, not a
        # value
        mu = make_measure([(1e6, 0.5), (1e6 + 1.0, 0.5)])
        for T in (1.5, 2.0, 4.0):
            try:
                result = free_power(mu, T)
                total = result.ac_mass + result.atomic_mass
            except ConvergenceError:
                continue
            assert abs(total - 1.0) <= 1e-6


class TestArcsineCdf:
    # the T = 2 power of the symmetric Bernoulli law is the arcsine law on
    # [-2, 2]; the component edges sit on the atoms of mu, where the CDF
    # rises like a square root

    def test_cdf_matches_closed_form(self, bernoulli):
        result = free_power(bernoulli, 2.0)
        near = 10.0 ** -np.arange(1, 16)
        xs = np.r_[np.linspace(-2.0, 2.0, 401), 2.0 - near, -2.0 + near]
        expect = 0.5 + np.arcsin(xs / 2.0) / math.pi
        assert np.max(np.abs(result.cdf(xs) - expect)) <= 1e-9
        assert result.cdf(-3.0) == 0.0

    def test_cdf_ends_at_the_mass(self, bernoulli):
        result = free_power(bernoulli, 2.0)
        assert result.cdf(2.0) == result.ac_mass
        assert result.cdf(3.0) == result.ac_mass
        assert abs(result.ac_mass - 1.0) <= 1e-9

    def test_masses_are_sums_of_weights(self, bernoulli):
        # each curve holds one rho atom and no atom of mu: mass T - 1
        result = free_power(make_measure([(0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)]), 1.05)
        assert len(result.ac_masses) == 2
        for mass in result.ac_masses:
            assert abs(mass - (result.T - 1.0)) <= 1e-15
        with_atoms = free_power(bernoulli, 1.5)
        beyond = max(with_atoms.x3, with_atoms.atoms[-1][0]) + 1.0
        assert with_atoms.cdf(beyond) == with_atoms.ac_mass + with_atoms.atomic_mass

    @pytest.mark.parametrize("T", [1e6, 1e9, 1e12])
    def test_cdf_at_huge_powers(self, bernoulli, T):
        # at x = 2*sqrt(T-1)*sin(phi) the T-th power of the symmetric
        # Bernoulli law has CDF 1/2 + (T*phi - (T-2)*atan((T-2)/T*tan(phi)))/(2*pi);
        # its two terms cancel to O(1), so the reference takes 40 digits
        mp = pytest.importorskip("mpmath").mp
        result = free_power(bernoulli, T)
        (_, hi), = result.support_components
        xs = hi * np.linspace(-0.999, 0.999, 23)
        with mp.workdps(40):
            t = mp.mpf(T)
            phis = [mp.asin(mp.mpf(x) / (2 * mp.sqrt(t - 1))) for x in xs]
            expect = [float(0.5 + (t * p - (t - 2) * mp.atan((t - 2) / t * mp.tan(p)))
                            / (2 * mp.pi)) for p in phis]
        assert np.max(np.abs(result.cdf(xs) - expect)) <= 1e-9


class TestManyComponents:
    # every reader indexes the same edge arrays: a point inside a component
    # subordinates on that component's curve, a point in a gap on none

    @pytest.fixture(scope="class", params=["three atoms", "m = 300"])
    def power(self, request):
        if request.param == "three atoms":
            mu, T, count = make_measure([(0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)]), 1.05, 2
        else:
            rng = np.random.default_rng(300)
            vals = np.sort(rng.uniform(-1.0, 2.0, 300))
            spec = HermitianSpec.from_values(np.repeat(vals, rng.integers(1, 5, vals.size)))
            mu, T, count = spec.measure(), 1.01, 50
        result = free_power(mu, T)
        assert len(result.support_components) == len(result.bt_components) == count
        return mu, result

    def test_subordination_round_trips_in_every_component(self, power):
        _, power = power
        kernel = power._kernel
        for (a, b), (u_lo, u_hi) in zip(power.support_components, power.bt_components):
            xs = np.linspace(a, b, 9)[1:-1]
            omega = power.subordination(xs)
            assert np.all(omega.imag > 0.0)
            assert np.all((u_lo < omega.real) & (omega.real < u_hi))
            back = kernel.h_and_prime(omega - kernel.tau)[0].real + kernel.shift
            assert np.max(np.abs(back - xs)) <= 1e-9
            assert np.all(power.density(xs) > 0.0)

    def test_each_mass_is_the_residue_sum_under_its_curve(self, power):
        # the a.c. mass of a component is the sum of the residues of
        # G_mu(w) H'(w) between its curve and the real axis: T*w - (T - 1) at
        # each atom (x, w) of mu there and T - 1 at each rho atom
        mu, power = power
        T = power.T
        bt = np.array(power.bt_components)
        lo, hi = bt[:, :1], bt[:, 1:]
        beta = nevanlinna_rho(mu).positions
        atoms = (mu.positions > lo) & (mu.positions < hi)
        expect = ((T - 1.0) * ((beta > lo) & (beta < hi)).sum(axis=1)
                  + (atoms * (T * mu.weights - (T - 1.0))).sum(axis=1))
        np.testing.assert_allclose(power.ac_masses, expect, rtol=0.0, atol=1e-12)

    def test_gaps_have_no_density_no_subordination_and_a_flat_cdf(self, power):
        _, power = power
        comps = power.support_components
        edges = [comps[0][0] - 1.0] + [e for comp in comps for e in comp] + [comps[-1][1] + 1.0]
        atoms = np.array([p for p, _ in power.atoms] or [np.inf])
        atom_mass = np.array([m for _, m in power.atoms] or [0.0])
        for j in range(len(comps) + 1):
            xs = np.linspace(edges[2 * j], edges[2 * j + 1], 6)[1:-1]
            assert np.all(power.density(xs) == 0.0)
            for x in xs:
                with pytest.raises(DomainError):
                    power.subordination(x)
            below = sum(power.ac_masses[:j]) + np.array(
                [atom_mass[atoms <= x].sum() for x in xs])
            np.testing.assert_allclose(power.cdf(xs), below, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("T", [1.01, 4.0])
def test_answers_do_not_depend_on_the_batch(T):
    # each point's sums over atoms are one row, so a point gets the same
    # bits whichever other points share its call; at T = 1.01 all but the
    # two-atom measure have several components
    for trial in range(20):
        rng = seeded(77, trial)
        m = int(rng.integers(2, 41))
        spread = 0.3 if trial % 4 else 3.0
        mu = random_measure(rng, n_min=m, n_max=m, spread=spread, min_gap=1e-6)
        result = free_power(mu, T)
        result.ac_masses
        xs = np.concatenate([np.linspace(a, b, 5)[1:-1] for a, b in result.support_components])
        for read in (result.subordination, result.density, result.cdf):
            alone = np.array([read(x) for x in xs.tolist()])
            assert np.array_equal(read(xs), alone), (trial, read.__name__)


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
        omega = free_power(bernoulli, 2.0).subordination(0.0)
        assert omega == pytest.approx(1j, abs=1e-10)

    def test_bernoulli_T4_center(self, bernoulli):
        omega = free_power(bernoulli, 4.0).subordination(0.0)
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
            free_power(bernoulli, 2.0).subordination(5.0)


class TestDensity:
    def test_arcsine_oracle(self, bernoulli):
        # the T = 2 power of the symmetric Bernoulli law is the arcsine law
        # with density 1/(pi*sqrt(4 - x^2)) on (-2, 2)
        xs = np.linspace(-1.9, 1.9, 41)
        got = free_power(bernoulli, 2.0).density(xs)
        expect = 1.0 / (math.pi * np.sqrt(4.0 - xs**2))
        np.testing.assert_allclose(got, expect, atol=1e-9)

    def test_center_value(self, bernoulli):
        assert free_power(bernoulli, 2.0).density(0.0) == pytest.approx(1 / (2 * math.pi),
                                                                        abs=1e-12)

    def test_outside_support(self, bernoulli):
        assert free_power(bernoulli, 2.0).density(3.0) == 0.0

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

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        lambda mu, T: h_transform(mu, T, 1j),
        lambda mu, T: f_height(mu, T, 0.0),
        lambda mu, T: atoms_of_power(mu, T),
        lambda mu, T: power_cauchy_pair(mu, T, 1j),
        lambda mu, T: power_voiculescu(mu, T, 10j),
        lambda mu, T: free_power(mu, T),
        lambda mu, T: support_hull(mu, T),
        lambda mu, T: support_bounds(HermitianSpec(2, np.array([-1.0, 1.0]),
                                                   np.array([1, 1])), T),
    ], ids=["h_transform", "f_height", "atoms_of_power", "power_cauchy_pair",
            "power_voiculescu", "free_power", "support_hull", "support_bounds"])
    def test_non_finite_T_rejected(self, bernoulli, call, T):
        with pytest.raises(DomainError):
            call(bernoulli, T)

    @pytest.mark.parametrize("atoms", [[(-1.0, 0.5), (1.0, 0.5)],
                                       [(0.0, 0.75), (1.0, 0.25)]])
    def test_nan_query_gives_nan(self, atoms):
        # {0 x3, 1} keeps an atom at 0 at T = 2, which the CDF steps over
        result = free_power(make_measure(atoms), 2.0)
        x = np.array([math.nan, -math.inf, math.inf, 0.7])
        p, cdf = result.density(x), result.cdf(x)
        assert math.isnan(p[0]) and math.isnan(cdf[0])
        assert math.isnan(result.density(math.nan)) and math.isnan(result.cdf(math.nan))
        np.testing.assert_array_equal(p[1:3], [0.0, 0.0])
        np.testing.assert_array_equal(cdf[1:3], [0.0, 1.0])
        assert p[3] > 0.0 and 0.0 < cdf[3] < 1.0

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
                comps = free_power(mu, T).support_components
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
                result = free_power(mu, T)
                assert result.x4 >= math.sqrt(var * (T - 1.0)) - 1e-10

    def test_lipschitz_on_boundary_curve(self):
        # |H(z1) - H(z2)| <= 2 |z1 - z2| for points on the boundary curve
        rng = seeded(99, 0)
        mu = random_measure(rng)
        T = 2.5
        result = free_power(mu, T)
        kernel = result._kernel
        for lo, hi in result.bt_components:
            # bt_components are absolute; the kernel's curve is centred
            us = rng.uniform(lo, hi, 12) - kernel.tau
            zs = kernel.curve_point(us)
            assert np.all(zs.imag > 0.0)
            hs = kernel.h_and_prime(zs)[0]
            for i in range(len(zs)):
                for j in range(i + 1, len(zs)):
                    lhs = abs(hs[i] - hs[j])
                    rhs = 2.0 * abs(zs[i] - zs[j])
                    assert lhs <= rhs + 1e-9

    def test_subordination_injective_ordered(self):
        rng = seeded(101, 3)
        mu = random_measure(rng)
        result = free_power(mu, 2.0)
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

    def test_edge_step_cap_raises(self, monkeypatch):
        from freecontract import freepower

        mu = make_measure([(-2.0, 0.25), (0.0, 0.5), (3.0, 0.25)])
        assert len(free_power(mu, 1.5).support_components) == 2
        monkeypatch.setattr(freepower, "_RISE_STEPS", 1)
        with pytest.raises(ConvergenceError):
            free_power(mu, 1.5)


def _geometry_hull(result):
    ends = [e for comp in result.support_components for e in comp]
    ends += [p for p, _ in result.atoms]
    return min(ends), max(ends)


class TestSupportHull:
    # the two outer ends from mu alone, against the full geometry; errors
    # are relative to the hull's extent max(|lo|, |hi|), the norm's scale

    @pytest.mark.parametrize("m", [2, 3, 5, 9, 17, 40, 100, 300, 2048])
    def test_matches_the_full_geometry(self, m):
        rng = seeded(77, m)
        pos = np.sort(rng.uniform(-1.0, 3.0, m))
        mu = make_measure(zip(pos, rng.dirichlet(np.ones(m))))
        for t in (0.1, 0.25, 1 / 3, 0.37, 0.5, 0.9):
            got = np.array(support_hull(mu, 1.0 / t))
            want = np.array(_geometry_hull(free_power(mu, 1.0 / t)))
            assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want))), (t, got, want)

    @pytest.mark.parametrize("t", [1e-12, 1e-6, 0.1, 0.5])
    def test_bernoulli_closed_form(self, bernoulli, t):
        # ends +-2*sqrt(T - 1) to a few ulps; at t = 1e-6 the ratios b_i all
        # sit within 1e-3 of 1, and forming b_i - B as a difference of them
        # would leave 1.4e-14
        lo, hi = support_hull(bernoulli, 1.0 / t)
        want = 2.0 * math.sqrt(t * (1.0 - t))
        assert t * hi == pytest.approx(want, rel=1e-15, abs=0.0)
        assert t * lo == pytest.approx(-want, rel=1e-15, abs=0.0)

    def test_outer_weight_at_the_threshold(self):
        # norm-sweep seed 902, op 62: the heavier eigenvalue has weight
        # 2/3 = 1 - t, so the edge root sits on the atom itself
        spec = HermitianSpec(3, np.array([0.6494575275007312, 2.327608630488752]),
                             np.array([1, 2]))
        exact = tnorm_exact(spec, 1 / 3)
        assert math.isfinite(exact)
        assert exact == pytest.approx(2.3276086304887516, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("atoms, T", [
        ([(0.9646657900288511, 0.5), (2.076232974746185, 0.5)], 2.0),
        ([(1.0004936446162191, 0.75), (2.817842615197437, 0.25)], 4.0),
    ])
    def test_root_on_the_atom(self, atoms, T):
        # an outer weight of exactly 1 - 1/T: the edge root converges onto
        # x_j itself, where every term must stay finite, and the end is T*x_j
        mu = make_measure(atoms)
        lo, hi = support_hull(mu, T)
        assert lo == pytest.approx(T * atoms[0][0], rel=1e-15, abs=0.0)
        geometry = _geometry_hull(free_power(mu, T))
        assert hi == pytest.approx(geometry[1], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("atoms, T, want", [
        ([(-1.0, 0.6), (0.5, 0.1), (2.0, 0.3)], 2.0, (-2.0, None)),
        ([(-1.0, 0.3), (0.5, 0.1), (2.0, 0.6)], 2.0, (None, 4.0)),
        ([(-1.0, 0.45), (0.5, 0.1), (2.0, 0.45)], 1.5, (-1.5, 3.0)),
    ])
    def test_heavy_outer_atoms(self, atoms, T, want):
        mu = make_measure(atoms)
        got = support_hull(mu, T)
        for g, w, ref in zip(got, want, _geometry_hull(free_power(mu, T))):
            if w is not None:
                assert g == w
            assert g == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_t_one_is_all_atoms(self):
        mu = make_measure([(-3.0, 0.2), (0.5, 0.5), (2.0, 0.3)])
        assert support_hull(mu, 1.0) == (-3.0, 2.0)

    def test_t_just_below_one(self):
        T = 1.0 / (1.0 - 1e-6)
        # every weight above 1 - 1/T = 1e-6: both ends are moved atoms
        mu = make_measure([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
        assert support_hull(mu, T) == (-T, T)
        # an outer atom lighter than 1e-6 ends in an a.c. edge
        mu = make_measure([(0.0, 0.5), (1.0, 0.5 - 5e-7), (2.0, 5e-7)])
        lo, hi = support_hull(mu, T)
        assert lo == 0.0
        geometry = _geometry_hull(free_power(mu, T))
        assert hi == pytest.approx(geometry[1], rel=1e-13, abs=0.0)

    def test_point_mass_and_invalid_input(self):
        assert support_hull(make_measure([(0.4, 1.0)]), 3.0) == pytest.approx((1.2, 1.2))
        with pytest.raises(DomainError):
            support_hull(make_measure([(0.0, 0.5), (1.0, 0.5)]), 0.5)
        with pytest.raises(DomainError):
            support_hull(make_measure([(0.0, 0.5), (1.0, 0.25)]), 2.0)

    def test_norm_computes_no_rho_and_no_geometry(self, bernoulli_spec, monkeypatch,
                                                   tmp_path):
        from freecontract import cli, freepower, measures, tnorm

        def refuse(*args, **kwargs):
            raise AssertionError("the norm built rho or a power kernel")

        monkeypatch.setattr(measures, "nevanlinna_rho", refuse)
        monkeypatch.setattr(freepower, "nevanlinna_rho", refuse)
        monkeypatch.setattr(freepower._PowerKernel, "__init__", refuse)
        exact = tnorm.tnorm_exact(bernoulli_spec, 0.25)
        assert exact == pytest.approx(SQRT3 / 2, rel=1e-13, abs=0.0)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"k": 3, "eigs": [{"xi": 0.5, "d": 2}, {"xi": 2.0, "d": 1}]}')
        out = tmp_path / "report.json"
        assert cli.main(["tnorm", "--spec", str(spec_path), "--t", "0.25",
                         "--all-bounds", "--out", str(out)]) == 0
        assert 0.0 < json.loads(out.read_text())["exact"] <= 2.0


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


class TestLazyMasses:
    # the norm, support, density and subordination read only the geometry;
    # component masses are summed on first read, once

    def test_geometry_paths_never_integrate(self, bernoulli, bernoulli_spec,
                                            monkeypatch, tmp_path):
        from freecontract import cli, freepower, tnorm

        def refuse(self):
            raise AssertionError("a component mass was computed")

        monkeypatch.setattr(freepower._PowerKernel.masses, "func", refuse)
        assert tnorm.tnorm_exact(bernoulli_spec, 0.25) == pytest.approx(SQRT3 / 2, abs=1e-9)
        tnorm.tnorm_report(bernoulli_spec, 0.5)
        assert len(free_power(bernoulli, 4.0).support_components) == 1
        free_power(bernoulli, 2.0).density(np.array([-0.5, 0.0, 0.5]))
        free_power(bernoulli, 2.0).subordination(0.3)
        free_power(bernoulli, 1.5).bt_components
        tnorm.kkt_membership([0.5, 0.5], 0.5, tnorm.default_probes(2, count=3))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"k": 2, "eigs": [{"xi": -1.0, "d": 1}, {"xi": 1.0, "d": 1}]}')
        assert cli.main(["tnorm", "--spec", str(spec_path), "--t", "0.25",
                         "--out", str(tmp_path / "report.json")]) == 0

    def test_masses_built_once_per_result(self, monkeypatch):
        from freecontract import freepower

        calls = []
        exact = freepower._PowerKernel.masses.func

        def counting(self):
            calls.append(self)
            return exact(self)

        monkeypatch.setattr(freepower._PowerKernel.masses, "func", counting)
        mu = make_measure([(0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)])
        result = free_power(mu, 1.05)
        assert calls == []
        for _ in range(2):
            assert result.to_json()["ac_masses"] == list(result.ac_masses)
            assert result.ac_mass == pytest.approx(1.0 - result.atomic_mass, abs=1e-6)
            assert result.cdf(10.0) == pytest.approx(1.0, abs=1e-6)
            assert 0.0 < result.cdf(0.5) < result.cdf(1.5) < 1.0
        assert calls == [result._kernel]
        free_power(mu, 1.05).ac_masses
        assert len(calls) == 2

    def test_rho_built_once_per_result(self, monkeypatch):
        from freecontract import freepower

        calls = []
        exact = freepower.nevanlinna_rho

        def counting(mu):
            calls.append(mu)
            return exact(mu)

        monkeypatch.setattr(freepower, "nevanlinna_rho", counting)
        result = free_power(make_measure([(0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)]), 1.05)
        (lo, hi), _ = result.support_components
        x = 0.5 * (lo + hi)
        assert len(result.bt_components) == 2 and len(result.boundary_roots) == 4
        assert result.density(x) > 0.0 and result.subordination(x).imag > 0.0
        assert 0.0 < result.cdf(x) < 1.0 and len(result.ac_masses) == 2
        assert len(calls) == 1

    def test_masses_need_no_height_and_no_subordination(self, monkeypatch):
        from freecontract import freepower

        def refuse(self, x):
            raise AssertionError("a curve point was solved")

        monkeypatch.setattr(freepower._PowerKernel, "f_height", refuse)
        monkeypatch.setattr(freepower._PowerKernel, "subordinate", refuse)
        m = 128
        mu = make_measure([(x, 1.0 / m) for x in np.linspace(-1.0, 1.0, m)])
        result = free_power(mu, 4.0)
        assert abs(result.ac_mass - 1.0) <= 1e-12
        three = free_power(make_measure([(0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)]), 1.05)
        assert len(three.ac_masses) == 2

    def test_cdf_blocked(self):
        import tracemalloc

        def equal(m):
            return make_measure([(x, 1.0 / m) for x in np.linspace(-1.0, 1.0, m)])

        result = free_power(equal(256), 4.0)
        (lo, hi), = result.support_components
        inner = np.linspace(lo, hi, 2002)[1:-1]
        for run in (lambda: result.cdf(np.linspace(-3.0, 3.0, 10)),
                    lambda: result.density(inner),
                    lambda: result.cdf(inner),
                    lambda: free_power(equal(1024), 1.001)):   # 783 curves
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20


class TestPowerCauchyPair:
    def test_arcsine_transform_oracle(self, bernoulli):
        # the T = 2 power is the arcsine law on [-2, 2], whose Cauchy
        # transform is 1/sqrt(z^2 - 4) with the upper-half-plane branch
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
