import numpy as np
import pytest

from freecontract import rmt
from freecontract.errors import ConvergenceError, DomainError
from freecontract.freepower import free_power
from freecontract.measures import HermitianSpec
from freecontract.rmt import (
    CompressionSample,
    apportion_counts,
    compressed_spectrum,
    floor_fraction,
    haar_columns,
    ks_distance,
)
from freecontract.rng import STREAM_HAAR, complex_normal, stream
from freecontract.tnorm import tnorm_exact


class TestHaarUnitary:
    def test_scalar_case(self):
        u = haar_columns(1, 1, seed=3)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        u = haar_columns(64, 64, seed=12)
        assert np.max(np.abs(u @ u.conj().T - np.eye(64))) < 1e-10

    def test_determinism(self):
        a = haar_columns(16, 16, seed=7)
        b = haar_columns(16, 16, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_seed_independence(self):
        a = haar_columns(16, 16, seed=7)
        b = haar_columns(16, 16, seed=8)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_columns_are_isometry(self):
        w = haar_columns(40, 10, seed=5)
        assert w.shape == (40, 10)
        assert np.max(np.abs(w.conj().T @ w - np.eye(10))) < 1e-10


class TestApportionment:
    def test_exact_division(self):
        spec = HermitianSpec(2, np.array([-1.0, 1.0]), np.array([1, 1]))
        counts = apportion_counts(spec, 1000)
        assert list(counts) == [500, 500]

    def test_largest_remainder(self):
        spec = HermitianSpec(3, np.array([0.0, 1.0, 2.0]), np.array([1, 1, 1]))
        counts = apportion_counts(spec, 1000)
        assert counts.sum() == 1000
        assert np.max(np.abs(counts - 1000 / 3)) < 1.0

    def test_floor_fraction_guard(self):
        assert floor_fraction(0.25, 2000) == 500
        assert floor_fraction(0.3, 1000) == 300   # 0.3*1000 = 299.999... in binary
        assert floor_fraction(0.1, 250) == 25


class TestCompressedSpectrum:
    def test_point_spectrum_is_constant(self):
        spec = HermitianSpec(1, np.array([0.8]), np.array([1]))
        sample = compressed_spectrum(spec, 0.25, 400, seed=3)
        assert sample.d == 100
        np.testing.assert_allclose(sample.eigenvalues, 0.8 / 0.25, atol=1e-10)

    def test_determinism_bitwise(self, bernoulli_spec):
        a = compressed_spectrum(bernoulli_spec, 0.25, 200, seed=11)
        b = compressed_spectrum(bernoulli_spec, 0.25, 200, seed=11)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)

    def test_spectrum_containment(self, bernoulli_spec):
        for n in (500, 2000):
            sample = compressed_spectrum(bernoulli_spec, 0.25, n, seed=2)
            exact = tnorm_exact(bernoulli_spec, 0.25)
            slack = 5.0 * n ** (-2.0 / 3.0) * max(1.0, exact)
            assert 0.25 * np.max(np.abs(sample.eigenvalues)) <= exact + slack

    def test_small_N_rejected(self, bernoulli_spec):
        with pytest.raises(DomainError):
            compressed_spectrum(bernoulli_spec, 0.25, 50, seed=0)


# the three spectra the Cholesky route is checked on against the QR route
ROUTE_SPECS = {
    "bernoulli": HermitianSpec(2, np.array([-1.0, 1.0]), np.array([1, 1])),
    "asymmetric": HermitianSpec(7, np.array([-2.0, -0.3, 1.1, 2.5]),
                                np.array([2, 2, 2, 1])),
    "equal16": HermitianSpec(16, np.linspace(-1.0, 2.0, 16),
                             np.ones(16, dtype=int)),
}


def _qr_route(spec, t, N, seed):
    """The sample through the explicit phase-fixed isometry W of the same
    Ginibre panel: the spectrum of t^-1 * (W* A W), symmetrized."""
    diag = np.repeat(spec.eigenvalues, apportion_counts(spec, N))
    w = haar_columns(N, floor_fraction(t, N), seed)
    c = (w.conj().T * diag) @ w / t
    return np.linalg.eigvalsh(0.5 * (c + c.conj().T))


class TestCholeskyRoute:
    # the Gram squares the Ginibre panel's condition number: eigenvalues move
    # from the QR route's by about kappa(G)^2 * u * max|x| / t

    @pytest.mark.parametrize("name", sorted(ROUTE_SPECS))
    @pytest.mark.parametrize("t, tol", [(0.1, 1e-12), (0.25, 1e-12), (0.5, 1e-12),
                                        (0.9, 1e-12), (0.99, 1e-10)])
    @pytest.mark.parametrize("N", [100, 1000])
    def test_same_sample_as_qr_route(self, name, t, tol, N):
        spec = ROUTE_SPECS[name]
        got = compressed_spectrum(spec, t, N, seed=3).eigenvalues
        scale = np.max(np.abs(spec.eigenvalues)) / t
        assert np.max(np.abs(got - _qr_route(spec, t, N, 3))) <= tol * scale

    def test_full_compression_is_the_spectrum(self):
        # t = 1: W is unitary, so the sample is A's repeated spectrum
        spec = ROUTE_SPECS["asymmetric"]
        got = compressed_spectrum(spec, 1.0, 2000, seed=3).eigenvalues
        want = np.sort(np.repeat(spec.eigenvalues, apportion_counts(spec, 2000)))
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(spec.eigenvalues))

    @pytest.mark.parametrize("name", sorted(ROUTE_SPECS))
    @pytest.mark.parametrize("N, t", [(100, 0.01), (1000, 0.101)])
    def test_one_and_odd_d(self, name, N, t):
        # d = 1 leaves the congruence's first block empty; d = 101 splits it unevenly
        spec = ROUTE_SPECS[name]
        got = compressed_spectrum(spec, t, N, seed=3).eigenvalues
        assert got.size == floor_fraction(t, N)
        scale = np.max(np.abs(spec.eigenvalues)) / t
        assert np.max(np.abs(got - _qr_route(spec, t, N, 3))) <= 1e-12 * scale

    def test_shift_falls_on_the_lowest_drawn_atom(self):
        # the atom at -5 gets no slot at N = 100, so the shift is the atom at 0
        spec = HermitianSpec(1000, np.array([-5.0, 0.0, 1.0]), np.array([1, 499, 500]))
        assert list(apportion_counts(spec, 100)) == [0, 50, 50]
        got = compressed_spectrum(spec, 0.5, 100, seed=3).eigenvalues
        assert np.max(np.abs(got - _qr_route(spec, 0.5, 100, 3))) <= 1e-12 * 5.0 / 0.5

    def test_negative_atom_eigenvalues_sit_at_the_shift(self):
        # {-1 x3, 2}: the 750 rows at the shift are dropped, and 250 of the
        # d = 500 eigenvalues are -1/t up to the rounding of the shift
        spec = HermitianSpec(4, np.array([-1.0, 2.0]), np.array([3, 1]))
        eigs = compressed_spectrum(spec, 0.5, 1000, seed=3).eigenvalues
        assert np.max(np.abs(eigs[:250] + 1.0 / 0.5)) <= 1e-12 * 2.0 / 0.5
        assert eigs[250] > -1.0 / 0.5 + 1e-3

    def test_atom_eigenvalues_stay_at_the_atom(self):
        # {0 x3, 1}: a rank-250 A compressed to d = 500 keeps 250 zeros
        spec = HermitianSpec(4, np.array([0.0, 1.0]), np.array([3, 1]))
        eigs = compressed_spectrum(spec, 0.5, 1000, seed=3).eigenvalues
        assert np.max(np.abs(eigs[:250])) <= 1e-13
        assert eigs[250] > 1e-3

    def test_no_isometry_is_formed(self, monkeypatch, bernoulli_spec):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle formed an isometry")

        monkeypatch.setattr(rmt, "haar_columns", refuse)
        monkeypatch.setattr(np.linalg, "qr", refuse)
        assert compressed_spectrum(bernoulli_spec, 0.25, 200, seed=1).d == 50

    def test_failed_cholesky_is_a_convergence_error(self, monkeypatch, bernoulli_spec):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(ConvergenceError, match="random-matrix oracle"):
            compressed_spectrum(bernoulli_spec, 0.25, 200, seed=1)


class TestRealArithmetic:
    # the oracle's Grams and congruence against the complex products they replace

    @pytest.mark.parametrize("N, d, seed", [(100, 1, 0), (200, 50, 3), (1000, 101, 7)])
    def test_stacked_draw_is_the_complex_normal_panel(self, N, d, seed):
        # the panel the QR route orthonormalizes, part by part, up to 1/sqrt(2)
        stacked = stream(seed, STREAM_HAAR).standard_normal((2, N, d)) * (1.0 / np.sqrt(2.0))
        g = complex_normal(stream(seed, STREAM_HAAR), (N, d))
        np.testing.assert_array_equal(stacked[0], g.real)
        np.testing.assert_array_equal(stacked[1], g.imag)

    @pytest.mark.parametrize("n, d", [(0, 5), (1, 5), (7, 1), (40, 13), (300, 64)])
    def test_gram_is_the_complex_gram(self, n, d):
        panel = stream(n + d, 0).standard_normal((2, n, d))
        g = panel[0] + 1j * panel[1]
        want = g.conj().T @ g
        got = rmt._gram(panel)
        np.testing.assert_array_equal(got, got.conj().T)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want), initial=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 65, 250])
    def test_lower_congruence_is_the_lower_triangle(self, d):
        rng = stream(d, 0)
        l_inv = np.tril(complex_normal(rng, (d, d)))
        c = complex_normal(rng, (d, d))
        c = c + c.conj().T
        want = np.tril(l_inv @ c @ l_inv.conj().T)
        got = rmt._lower_congruence(l_inv, c)
        assert np.max(np.abs(np.tril(got) - want)) <= 1e-13 * np.max(np.abs(want))
        assert not np.any(got[:d // 2, d // 2:])


class TestKSDistance:
    def test_synthetic_inverse_cdf_sample(self, bernoulli):
        # draw directly from the exact distribution: KS must be at DKW scale
        result = free_power(bernoulli, 4.0)
        rng = stream(17, 0)
        grid = np.linspace(result.support_components[0][0],
                           result.support_components[0][1], 4001)
        cdf = np.atleast_1d(result.cdf(grid))
        us = rng.uniform(0.0, 1.0, 2000)
        draws = np.interp(us, cdf, grid)
        sample = CompressionSample(N=2000, t=0.25, seed=17,
                                   eigenvalues=np.sort(draws))
        assert ks_distance(sample, result) < 0.04

    def test_wrong_power_far_apart(self, bernoulli):
        # compare a T = 4 sample against the T = 2 distribution: large KS
        result2 = free_power(bernoulli, 2.0)
        result4 = free_power(bernoulli, 4.0)
        grid = np.linspace(-2 * np.sqrt(3), 2 * np.sqrt(3), 4001)
        cdf4 = np.atleast_1d(result4.cdf(grid))
        rng = stream(18, 0)
        draws = np.interp(rng.uniform(0, 1, 1000), cdf4, grid)
        sample = CompressionSample(N=1000, t=0.5, seed=18,
                                   eigenvalues=np.sort(draws))
        assert ks_distance(sample, result2) > 0.15

    def test_mismatched_t_rejected(self, bernoulli):
        result = free_power(bernoulli, 2.0)
        sample = CompressionSample(N=100, t=0.25, seed=0,
                                   eigenvalues=np.zeros(10))
        with pytest.raises(DomainError):
            ks_distance(sample, result)

    def test_monte_carlo_agreement_small(self, bernoulli_spec, bernoulli):
        sample = compressed_spectrum(bernoulli_spec, 0.5, 500, seed=4)
        result = free_power(bernoulli, 2.0)
        assert ks_distance(sample, result) < 0.1

    def test_asymmetric_spectrum_cross_validation(self):
        # no closed form here: the Monte Carlo oracle and the subordination
        # computation must agree on their own
        spec = HermitianSpec(7, np.array([-2.0, -0.3, 1.1, 2.5]),
                             np.array([2, 2, 2, 1]))
        result = free_power(spec.measure(), 1.0 / 0.2)
        sample = compressed_spectrum(spec, 0.2, 2000, seed=1)
        assert ks_distance(sample, result) < 0.05
        exact = tnorm_exact(spec, 0.2)
        top = 0.2 * float(np.max(np.abs(sample.eigenvalues)))
        assert abs(top - exact) / exact < 0.03

    def test_ks_median_improves_with_size(self, bernoulli_spec, bernoulli):
        result = free_power(bernoulli, 4.0)
        medians = []
        for n in (500, 2000):
            dists = [ks_distance(compressed_spectrum(bernoulli_spec, 0.25, n,
                                                     seed=s), result)
                     for s in range(5)]
            medians.append(float(np.median(dists)))
        assert medians[1] <= medians[0]
