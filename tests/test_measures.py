import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_measure, seeded
from freecontract.errors import ConvergenceError, DomainError
from freecontract.freepower import support_hull
from freecontract.measures import (
    AtomicMeasure,
    HermitianSpec,
    _f_pair,
    make_measure,
    measure_from_json,
    measure_to_json,
    moments,
    nevanlinna_rho,
    spec_from_json,
    spec_to_json,
    voiculescu_transform,
)

SQRT3 = math.sqrt(3.0)


class TestMakeMeasure:
    def test_bernoulli(self, bernoulli):
        assert bernoulli.atoms == [(-1.0, 0.5), (1.0, 0.5)]
        assert bernoulli.total_mass == 1.0

    def test_merge_duplicates(self):
        mu = make_measure([(0.0, 0.3), (0.0, 0.7)])
        assert mu.n_atoms == 1
        assert mu.atoms == [(0.0, 1.0)]

    def test_sorting(self):
        mu = make_measure([(2.0, 0.5), (0.0, 0.5)])
        assert mu.atoms == [(0.0, 0.5), (2.0, 0.5)]

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DomainError):
            make_measure([(0.0, 0.0)])
        with pytest.raises(DomainError):
            make_measure([(0.0, -1.0)])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            make_measure([])

    def test_near_duplicates_merge(self):
        mu = make_measure([(1.0, 0.5), (1.0 + 1e-13, 0.5)])
        assert mu.n_atoms == 1

    def test_merge_is_relative_to_the_position(self):
        # 2e-13 and 2e-170 apart: far apart against their own magnitude
        assert make_measure([(-1e-13, 0.5), (1e-13, 0.5)]).n_atoms == 2
        spec = HermitianSpec.from_values([1e-170, -1e-170])
        assert spec.eigenvalues.tolist() == [-1e-170, 1e-170]
        assert spec.multiplicities.tolist() == [1, 1]

    def test_merge_at_an_offset(self):
        # the rule reads |x|, not the spread: 1e-7 apart at 1e6 is 1e-13
        # relative and merges, 1e-15 apart next to 0 does not
        offset = make_measure([(1e6, 0.5), (1e6 + 1e-7, 0.5)])
        assert offset.positions.tolist() == [1e6] and offset.weights.tolist() == [1.0]
        assert make_measure([(0.0, 0.5), (1e-15, 0.5)]).n_atoms == 2


class TestMoments:
    def test_bernoulli(self, bernoulli):
        mean, var = moments(bernoulli)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert var == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        mean, var = moments(make_measure([(3.25, 1.0)]))
        assert (mean, var) == (3.25, 0.0)

    def test_two_point_shifted(self):
        mean, var = moments(make_measure([(0.0, 0.5), (2.0, 0.5)]))
        assert mean == pytest.approx(1.0)
        assert var == pytest.approx(1.0)

    def test_offset_keeps_variance(self):
        # E[x^2] - mean^2 would cancel to 0 at this offset
        mean, var = moments(make_measure([(1e8, 0.5), (1e8 + 1.0, 0.5)]))
        assert (mean, var) == (1e8 + 0.5, 0.25)
        spec = HermitianSpec(2, np.array([1e8, 1e8 + 1.0]), np.array([1, 1]))
        assert (spec.mean, spec.variance) == (1e8 + 0.5, 0.25)

    def test_requires_probability(self):
        heavy = AtomicMeasure(np.array([0.0]), np.array([2.0]))
        with pytest.raises(DomainError):
            moments(heavy)

    def test_bits_of_the_direct_centred_sum(self):
        # centred and scaled by a power of two, then scaled back: the bits
        # of w @ (x - mean)^2 wherever the variance is a normal float
        for trial in range(500):
            rng = seeded(67, trial)
            m = int(rng.integers(1, 257))
            spread = 10.0 ** rng.uniform(-3.0, 3.0)
            pos = np.unique(rng.uniform(-1e6, 1e6) + spread * rng.normal(size=m))
            mu = AtomicMeasure(pos, rng.dirichlet(np.ones(pos.size)))
            mean = float(mu.weights @ mu.positions)
            assert moments(mu) == (mean, float(mu.weights @ (mu.positions - mean) ** 2))

    def test_a_centring_past_the_float_range_is_refused(self):
        # x - mean overflows to -inf: no moment and no hull end is formed
        # from an infinite position
        wide = make_measure([(-1.7e308, 0.01), (1.7e308, 0.99)])
        for call in (moments, lambda mu: support_hull(mu, 2.0)):
            with pytest.raises(DomainError, match="variance overflows"):
                call(wide)

    def test_a_spread_from_2_1023_is_refused(self):
        # 2^e would overflow in scaling the hull end back; just below it
        # the ends +-2*sqrt(3)*5e307 are floats
        with pytest.raises(DomainError, match="variance overflows"):
            support_hull(make_measure([(-1e308, 0.5), (1e308, 0.5)]), 4.0)
        lo, hi = support_hull(make_measure([(-5e307, 0.5), (5e307, 0.5)]), 4.0)
        assert -lo == hi == pytest.approx(2.0 * math.sqrt(3.0) * 5e307, rel=1e-12)

    def test_centred_is_read_only(self, bernoulli):
        with pytest.raises(ValueError):
            bernoulli.centred[2][0] = 0.0

    def test_overflowing_variance_refused(self):
        # (1e155)^2 is past the float range: no ratio to the variance can
        # check anything, so rho and the norm must not be built on it
        wide = make_measure([(-1e155, 0.5), (1e155, 0.5)])
        for call in (moments, nevanlinna_rho):
            with pytest.raises(DomainError, match="variance"):
                call(wide)
        assert moments(make_measure([(-1e153, 0.5), (1e153, 0.5)]))[1] == pytest.approx(1e306)


class TestCauchyPair:
    # G and F = 1/G through `_f_pair`; Bernoulli F(z) = z - 1/z, F' = 1 + 1/z^2

    def test_bernoulli_at_2i(self, bernoulli):
        f, fp = _f_pair(bernoulli, 2j)
        assert 1.0 / f == pytest.approx(-0.4j, abs=1e-15)
        assert f == pytest.approx(2.5j, abs=1e-14)
        assert fp == pytest.approx(0.75, abs=1e-15)

    def test_point_mass_at_i(self):
        f, fp = _f_pair(make_measure([(0.0, 1.0)]), 1j)
        assert 1.0 / f == pytest.approx(-1j)
        assert f == pytest.approx(1j)
        assert fp == pytest.approx(1.0)

    def test_bernoulli_real_outside_hull(self, bernoulli):
        f, fp = _f_pair(bernoulli, 3.0)
        assert 1.0 / f == pytest.approx(3.0 / 8.0)
        assert fp == pytest.approx(10.0 / 9.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_herglotz_property(self, trial):
        # Im G < 0 and Im F >= Im z everywhere in the upper half plane
        rng = seeded(4242, trial)
        mu = random_measure(rng)
        z = complex(rng.uniform(-5, 5), rng.uniform(0.05, 5.0))
        f, _ = _f_pair(mu, z)
        g = 1.0 / f
        assert g.imag < 0.0
        assert f.imag >= z.imag - 1e-12


class TestNevanlinnaRho:
    def test_bernoulli_rho_is_point_mass(self, bernoulli):
        rho = nevanlinna_rho(bernoulli)
        assert rho.n_atoms == 1
        assert rho.positions[0] == pytest.approx(0.0, abs=1e-12)
        assert rho.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_rho_empty(self):
        rho = nevanlinna_rho(make_measure([(1.5, 1.0)]))
        assert rho.n_atoms == 0
        assert rho.total_mass == 0.0

    def test_uniform_three_atoms(self):
        # G = (3x^2 - 6x + 2) / (3 x (x-1)(x-2)); zeros at 1 -/+ 1/sqrt(3),
        # residue weights both 1/3 by direct rational-function calculus
        mu = make_measure([(0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)])
        rho = nevanlinna_rho(mu)
        assert rho.n_atoms == 2
        np.testing.assert_allclose(rho.positions,
                                   [1 - 1 / SQRT3, 1 + 1 / SQRT3], atol=1e-12)
        np.testing.assert_allclose(rho.weights, [1 / 3, 1 / 3], atol=1e-12)
        assert rho.total_mass == pytest.approx(2 / 3, abs=1e-10)

    @pytest.mark.parametrize("c", [1e6, 1e8])
    def test_offset_three_atoms(self, c):
        # computed about the mean, an offset spectrum keeps rho's digits:
        # the positions move by c to an ulp of c, the weights stay put
        base = [(0.0, 0.3), (0.25, 0.3), (1.0, 0.4)]
        ref = nevanlinna_rho(make_measure(base))
        rho = nevanlinna_rho(make_measure([(x + c, w) for x, w in base]))
        assert np.all(np.abs(rho.positions - (ref.positions + c)) <= np.spacing(c))
        np.testing.assert_allclose(rho.weights, ref.weights, rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_light_atom_is_named(self):
        # the zero of G next to the atom at 1 rounds onto it; no RuntimeWarning
        mu = make_measure([(0.0, 0.5), (1.0, 1e-20), (3.0, 0.5)])
        with pytest.raises(DomainError, match=r"atom at x = 1\.0 of weight 1e-20"):
            nevanlinna_rho(mu)

    def test_variance_check_is_relative(self):
        # eight measures of the light-atom family (m = 64, Dirichlet(0.1)
        # weights) have a rho whose mass misses the variance; scaled by
        # 2^-20 the variance is ~1e-12 and the miss must still be refused
        rng = np.random.default_rng(5)
        family = [(np.sort(rng.normal(size=64)), rng.dirichlet(np.full(64, 0.1)))
                  for _ in range(200)]
        for i in (6, 15, 51, 52, 71, 125, 135, 184):
            xs, w = family[i]
            for scale in (1.0, 2.0**-20):
                with pytest.raises(ConvergenceError, match="variance"):
                    nevanlinna_rho(make_measure(zip(xs * scale, w)))

    def test_mass_equals_variance_sweep(self):
        for trial in range(100):
            rng = seeded(7, trial)
            mu = random_measure(rng)
            rho = nevanlinna_rho(mu)
            _, var = moments(mu)
            assert abs(rho.total_mass - var) < 1e-10

    def test_roundtrip_representation(self):
        # F(z) = z - mean + sum c_j/(b_j - z) at random test points
        for trial in range(100):
            rng = seeded(11, trial)
            mu = random_measure(rng)
            mean, _ = moments(mu)
            rho = nevanlinna_rho(mu)
            for _ in range(20):
                z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4.0))
                f, _ = _f_pair(mu, z)
                recon = z - mean + np.sum(rho.weights / (rho.positions - z))
                assert abs(f - recon) < 1e-9


class TestVoiculescuTransform:
    def test_point_mass_is_shift(self):
        mu = make_measure([(0.7, 1.0)])
        phi = voiculescu_transform(mu, 10j)
        assert phi == pytest.approx(0.7, abs=1e-12)

    def test_bernoulli_roundtrip(self, bernoulli):
        z = 10j
        phi = voiculescu_transform(bernoulli, z)
        f, _ = _f_pair(bernoulli, z + phi)
        assert abs(f - z) < 1e-10

    def test_low_point_raises(self, bernoulli):
        with pytest.raises(ConvergenceError):
            voiculescu_transform(bernoulli, 0.05j)


class TestHermitianSpec:
    def test_derived_quantities(self, shifted_spec):
        assert shifted_spec.mean == pytest.approx(1.0)
        assert shifted_spec.variance == pytest.approx(1.0)
        assert shifted_spec.lminus == 0.0
        assert shifted_spec.lplus == 2.0

    def test_measure_consistency(self, bernoulli_spec, bernoulli):
        mu = bernoulli_spec.measure()
        assert mu.atoms == bernoulli.atoms

    def test_from_values_merges(self):
        spec = HermitianSpec.from_values([1.0, 0.0, 1.0])
        assert spec.k == 3
        assert list(spec.multiplicities) == [1, 2]

    def test_sigma_keeps_the_bits_of_the_variance(self):
        for trial in range(50):
            rng = seeded(61, trial)
            spec = HermitianSpec.from_values(rng.uniform(-1e3, 1e3, 1 + trial % 9))
            assert spec.sigma == math.sqrt(spec.variance)

    @pytest.mark.parametrize("values, want", [([-1e-170, 1e-170], 1e-170),
                                              ([0.0, 1e-170], 5e-171)],
                             ids=["+-1e-170", "0 and 1e-170"])
    def test_sigma_of_a_tiny_spectrum(self, values, want):
        # the variance underflows to 0 or a subnormal; sigma does not
        spec = HermitianSpec(2, np.array(values), np.array([1, 1]))
        assert spec.variance < 2.3e-308
        assert spec.sigma == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_multiplicity_sum_enforced(self):
        with pytest.raises(DomainError):
            HermitianSpec(3, np.array([0.0, 1.0]), np.array([1, 1]))


class TestJsonInterchange:
    def test_measure_roundtrip(self, bernoulli):
        obj = measure_to_json(bernoulli)
        again = measure_from_json(json.loads(json.dumps(obj)))
        assert again.atoms == bernoulli.atoms

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            measure_from_json({"atoms": [{"x": float("nan"), "w": 1.0}]})
        with pytest.raises(DomainError):
            measure_from_json({"atoms": [{"x": 0.0, "w": float("inf")}]})

    def test_spec_roundtrip(self, shifted_spec):
        obj = spec_to_json(shifted_spec)
        again = spec_from_json(obj)
        assert again.k == shifted_spec.k
        np.testing.assert_array_equal(again.eigenvalues, shifted_spec.eigenvalues)

    def test_spec_rejects_nan(self):
        with pytest.raises(DomainError):
            spec_from_json({"k": 1, "eigs": [{"xi": float("nan"), "d": 1}]})

    @pytest.mark.parametrize("obj, message", [
        # int() would read 1.7 as 1 and give {0, 1} with equal weights
        ({"k": 2, "eigs": [{"xi": 0.0, "d": 1.7}, {"xi": 1.0, "d": 1.2}]},
         "multiplicity d must be an integer"),
        ({"k": 2.9, "eigs": [{"xi": 0.0, "d": 1}, {"xi": 1.0, "d": 1}]},
         "dimension k must be an integer"),
        ({"k": 1, "eigs": [{"xi": "abc", "d": 1}]}, "malformed spec JSON"),
        ({"k": 1, "eigs": [{"xi": 0.0, "d": float("nan")}]}, "malformed spec JSON"),
        ({"k": 1, "eigs": [{"xi": 0.0, "d": float("inf")}]}, "malformed spec JSON"),
        ({"k": 1, "eigs": [{"xi": 0.0, "d": 10**20}]}, "malformed spec JSON"),
    ], ids=["fractional d", "fractional k", "non-numeric xi", "nan d", "inf d", "huge d"])
    def test_spec_rejects_malformed_values(self, obj, message):
        with pytest.raises(DomainError, match=message):
            spec_from_json(obj)

    def test_spec_accepts_integer_valued_floats(self):
        spec = spec_from_json({"k": 3.0, "eigs": [{"xi": 0.0, "d": 2.0}, {"xi": 1.0, "d": 1}]})
        assert spec.k == 3
        np.testing.assert_array_equal(spec.multiplicities, [2, 1])

    def test_measure_rejects_a_non_numeric_position(self):
        with pytest.raises(DomainError, match="malformed measure JSON"):
            measure_from_json({"atoms": [{"x": "abc", "w": 1.0}]})
