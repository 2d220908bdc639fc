import math

import numpy as np
import pytest

from freecontract.additivity import _slab, product_bound
from freecontract.errors import DomainError
from freecontract.qchannel import (
    ChannelInstance,
    QuantumState,
    _descend,
    _entropy_gradient,
    _entropy_value,
    _output_grams,
    bell_output,
    binary_entropy,
    concentration_radius,
    concentration_stat,
    entropy,
    hmin_estimate,
    random_channel,
    sample_output_spectra,
)
from freecontract.rng import STREAM_RESTART_BASE, complex_normal, stream
from freecontract.tnorm import default_probes, kkt_membership

LOG2 = math.log(2.0)


def _reference_hmin(ch, restarts, seed):
    """The nonmonotone Barzilai-Borwein search written plainly: the entropy
    and its full tangent gradient at every trial point, V* formed at each
    evaluation, starts drawn as (X + iY)/sqrt(2)."""
    def entropy_and_gradient(psi):
        m = (ch.V @ psi).reshape(ch.k, ch.n)
        rho = m @ m.conj().T
        lam, vec = np.linalg.eigh(rho)
        lam = np.clip(lam, 1e-18, 1.0)
        h = 0.0 - float(np.sum(lam * np.log(lam)))
        grad_rho = vec @ (np.diag(-np.log(lam) - 1.0)) @ vec.conj().T
        grad = ch.V.conj().T @ (grad_rho @ m).ravel()
        return h, grad - np.real(np.vdot(psi, grad)) * psi

    best = math.inf
    for j in range(restarts):
        rng = stream(seed, STREAM_RESTART_BASE + j)
        psi = (rng.standard_normal(ch.d) + 1j * rng.standard_normal(ch.d)) / np.sqrt(2.0)
        psi /= np.linalg.norm(psi)
        value, grad = entropy_and_gradient(psi)
        accepted = [value]
        step = 1.0
        best = min(best, value)
        for it in range(500):
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= 1e-9 or value <= 1e-12:
                break
            improved = False
            for _ in range(30):
                cand = psi - step * grad
                cand /= np.linalg.norm(cand)
                cand_value, cand_grad = entropy_and_gradient(cand)
                best = min(best, cand_value)
                if cand_value <= max(accepted[-10:]) - 1e-4 * gnorm * gnorm * step:
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            s, y = cand - psi, cand_grad - grad
            sy = np.real(np.vdot(s, y))
            if sy <= 0.0:
                step *= 2.0
            elif it % 2 == 0:
                step = np.real(np.vdot(s, s)) / sy
            else:
                step = sy / np.real(np.vdot(y, y))
            step = min(max(step, 1e-10), 1e10)
            psi, value, grad = cand, cand_value, cand_grad
            accepted.append(value)
    return best


class TestChannelConstruction:
    def test_dimensions(self):
        ch = random_channel(3, 8, 0.25, seed=1)
        assert ch.d == 6
        assert ch.V.shape == (24, 6)
        assert ch.t_effective == pytest.approx(0.25)

    def test_determinism(self):
        a = random_channel(3, 8, 0.25, seed=5)
        b = random_channel(3, 8, 0.25, seed=5)
        np.testing.assert_array_equal(a.V, b.V)

    def test_zero_input_dim_rejected(self):
        with pytest.raises(DomainError):
            random_channel(2, 2, 0.1, seed=0)

    def test_scalar_channel(self):
        ch = random_channel(1, 4, 1.0, seed=2)
        spectra = sample_output_spectra(ch, 5, seed=3)
        assert spectra.shape == (5, 1)
        np.testing.assert_allclose(spectra, 1.0, atol=1e-12)


class TestApplyChannel:
    # the channel applied to pure inputs, as the readers contract V with them

    def test_unitary_case_fixes_mixed_state(self):
        # t = 1 makes V unitary, so the outputs of a basis average to I/k
        ch = random_channel(2, 3, 1.0, seed=3)
        mats = [_entropy_value(ch, e)[1][0] for e in np.eye(ch.d, dtype=complex)]
        mixed = sum(m @ m.conj().T for m in mats) / ch.d
        np.testing.assert_allclose(mixed, np.eye(2) / 2, atol=1e-12)

    def test_rank_one_outputs_valid(self):
        ch = random_channel(3, 5, 0.5, seed=9)
        for gram in next(_output_grams(ch, 5, seed=10)):
            lam = QuantumState(ch.k, gram).eigenvalues()
            assert abs(lam.sum() - 1.0) < 1e-10
            assert lam[0] > -1e-10


class TestConjugateChannel:
    # the conjugate channel is the instance whose isometry is conj(V)

    @staticmethod
    def _conjugate(ch):
        return ChannelInstance(k=ch.k, n=ch.n, t=ch.t, d=ch.d, V=ch.V.conj(), seed=ch.seed)

    def test_real_isometry_fixed_point(self):
        # with a real isometry the conjugate channel acts identically, so the
        # Bell output is real and symmetric under exchanging its two factors
        k, n, d = 2, 3, 4
        v = np.linalg.qr(np.random.default_rng(4).normal(size=(k * n, d)))[0]
        rho = bell_output(ChannelInstance(k=k, n=n, t=d / (k * n), d=d, V=v, seed=0)).matrix
        swapped = rho.reshape(k, k, k, k).transpose(1, 0, 3, 2).reshape(k * k, k * k)
        assert np.max(np.abs(rho.imag)) <= 1e-15
        np.testing.assert_allclose(swapped, rho, atol=1e-15)

    def test_spectra_conjugation_equivariance(self):
        ch = random_channel(3, 6, 0.4, seed=6)
        rho, rho_conj = bell_output(ch), bell_output(self._conjugate(ch))
        np.testing.assert_allclose(rho_conj.matrix, rho.matrix.conj(), atol=1e-15)
        np.testing.assert_allclose(rho_conj.eigenvalues(), rho.eigenvalues(), atol=1e-10)

    def test_entropy_matches_on_matched_inputs(self):
        ch = random_channel(3, 6, 0.4, seed=8)
        psi = complex_normal(stream(12, 1), ch.d)
        psi /= np.linalg.norm(psi)
        h1 = _entropy_value(ch, psi)[0]
        h2 = _entropy_value(self._conjugate(ch), psi.conj())[0]
        assert h1 == pytest.approx(h2, abs=1e-10)


class TestBellOutput:
    def test_top_eigenvalue_dominates_fraction(self):
        for seed in range(10):
            ch = random_channel(3, 8, 0.25, seed=seed)
            lam_max = float(bell_output(ch).eigenvalues()[-1])
            assert lam_max >= ch.t_effective - 1e-10

    def test_entropy_below_product_bound(self):
        ch = random_channel(2, 6, 0.5, seed=21)
        out = bell_output(ch)
        assert ch.t_effective == pytest.approx(0.5)
        assert entropy(out) <= 2 * LOG2 + 1e-9
        assert entropy(out) <= product_bound(ch.k, ch.t_effective) + 1e-9

    @pytest.mark.parametrize("k, n, t", [(2, 3, 0.5), (3, 2, 0.7), (2, 4, 0.25)])
    def test_matches_the_conjugate_channel_definition(self, k, n, t):
        # (channel (x) conjugate)(|b><b|), b = sum_l e_l (x) e_l / sqrt(d):
        # apply V (x) conj(V) to b, then trace out both environments
        ch = random_channel(k, n, t, seed=k * n)
        out = (np.kron(ch.V, ch.V.conj()) @ np.eye(ch.d).ravel()) / math.sqrt(ch.d)
        out = out.reshape(k, n, k, n)
        rho = np.einsum("iaxb,jayb->ixjy", out, out.conj()).reshape(k * k, k * k)
        np.testing.assert_allclose(bell_output(ch).matrix, rho, atol=1e-13)

    def test_scalar_channel(self):
        ch = random_channel(1, 4, 0.5, seed=1)
        out = bell_output(ch)
        assert out.dim == 1
        assert out.eigenvalues()[-1] == pytest.approx(1.0, abs=1e-12)

    def test_resource_guard(self):
        ch = random_channel(2, 3, 0.5, seed=0)
        big = ChannelInstance(k=9, n=1, t=0.5, d=4,
                              V=np.linalg.qr(np.random.default_rng(0)
                                             .normal(size=(9, 4)))[0],
                              seed=0)
        with pytest.raises(DomainError):
            bell_output(big)


class TestEntropy:
    def test_uniform_state(self):
        state = QuantumState(4, np.diag(np.full(4, 0.25)))
        assert entropy(state) == pytest.approx(math.log(4), abs=1e-12)

    def test_pure_state(self):
        assert entropy(QuantumState(3, np.diag([1.0, 0.0, 0.0]))) == 0.0

    def test_binary_entropy_half(self):
        assert binary_entropy(0.5) == pytest.approx(LOG2)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_binary_entropy_array_form(self):
        t = np.array([[0.0, 1e-3, 0.25], [0.5, 0.75, 1.0]])
        h = binary_entropy(t)
        assert h.shape == t.shape
        for ti, hi in zip(t.ravel(), h.ravel()):
            assert hi == binary_entropy(float(ti))
            if 0.0 < ti < 1.0:
                exact = -ti * math.log(ti) - (1.0 - ti) * math.log1p(-ti)
                assert hi == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
    def test_binary_entropy_domain(self, t):
        with pytest.raises(DomainError):
            binary_entropy(t)
        with pytest.raises(DomainError):
            binary_entropy(np.array([0.5, t]))


class TestOutputSpectra:
    def test_valid_simplex_points(self):
        ch = random_channel(4, 10, 0.3, seed=3)
        spectra = sample_output_spectra(ch, 200, seed=4)
        assert spectra.shape == (200, 4)
        np.testing.assert_allclose(spectra.sum(axis=1), 1.0, atol=1e-10)
        assert spectra.min() > -1e-10

    def test_determinism(self):
        ch = random_channel(3, 5, 0.5, seed=3)
        a = sample_output_spectra(ch, 50, seed=9)
        b = sample_output_spectra(ch, 50, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_large_n_inside_slab(self):
        # at large environment the sampled spectra respect the limiting
        # eigenvalue slab up to delta = 0.05
        ch = random_channel(2, 300, 0.5, seed=5)
        spectra = sample_output_spectra(ch, 300, seed=6)
        lo, hi = _slab(2.0, ch.t_effective)
        assert spectra.min() >= lo - 0.05
        assert spectra.max() <= hi + 0.05

    def test_samples_pass_membership(self):
        ch = random_channel(2, 300, 0.5, seed=7)
        spectra = sample_output_spectra(ch, 12, seed=8)
        probes = default_probes(2, seed=1, count=24)
        for lam in spectra:
            _, margin, _ = kkt_membership(np.sort(lam)[::-1], ch.t_effective, probes)
            assert margin <= 0.05


class TestConcentration:
    @pytest.mark.parametrize("k, n, t", [(2, 9, 0.3), (4, 12, 0.5), (6, 20, 0.3)])
    def test_eigen_free_statistic_matches_spectra(self, k, n, t):
        # both read the same input stream; 3000 samples span two chunks
        ch = random_channel(k, n, t, seed=3)
        stat = concentration_stat(ch, 3000, seed=4)
        spectra = sample_output_spectra(ch, 3000, seed=4)
        ref = float(np.max(np.sqrt(np.sum((spectra - 1.0 / k) ** 2, axis=1))))
        assert abs(stat.max_l2 - ref) <= 1e-14 * ref

    def test_radius_array_form(self):
        ks, ts = np.array([[1.0], [4.0], [1e5]]), np.array([1e-10, 0.1, 0.5, 1.0])
        radius = concentration_radius(ks, ts)
        assert radius.shape == (3, 4)
        for i, k in enumerate(ks[:, 0]):
            for j, t in enumerate(ts):
                assert radius[i, j] == concentration_radius(int(k), float(t))
                assert radius[i, j] == t * (1.0 + 2.0 * math.sqrt((1.0 - t) / (t * k)))
        assert concentration_radius(4, 0.1) == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("k, t", [(0, 0.5), (4, 0.0), (4, 1.5), (4, math.nan)])
    def test_radius_domain(self, k, t):
        with pytest.raises(DomainError):
            concentration_radius(k, t)

    def test_bound_holds_at_moderate_scale(self):
        ch = random_channel(4, 250, 0.1, seed=1)
        stat = concentration_stat(ch, 2000, seed=2)
        assert stat.regime_ok
        assert stat.bound == pytest.approx(0.4, abs=1e-12)
        assert stat.max_l2 <= stat.bound * 1.05

    def test_crude_cap(self):
        for seed in range(3):
            ch = random_channel(3, 12, 0.4, seed=seed)
            stat = concentration_stat(ch, 200, seed=seed + 50)
            assert stat.max_l2 <= math.sqrt(1.0 - 1.0 / ch.k) + 1e-12

    def test_scalar_channel_zero_distance(self):
        ch = random_channel(1, 5, 0.8, seed=2)
        with pytest.warns(UserWarning):
            stat = concentration_stat(ch, 20, seed=3)
        assert stat.max_l2 == pytest.approx(0.0, abs=1e-12)
        assert not stat.regime_ok


class TestHminEstimate:
    def test_scalar_channel(self):
        ch = random_channel(1, 4, 1.0, seed=1)
        assert hmin_estimate(ch, 2, seed=1) == pytest.approx(0.0, abs=1e-12)

    def test_unitary_case_brackets(self):
        ch = random_channel(2, 2, 1.0, seed=4)
        est = hmin_estimate(ch, 4, seed=5)
        assert -1e-12 <= est <= LOG2 + 1e-12

    def test_monotone_in_restarts(self):
        ch = random_channel(3, 10, 0.4, seed=6)
        e1 = hmin_estimate(ch, 1, seed=7)
        e4 = hmin_estimate(ch, 4, seed=7)
        assert e4 <= e1 + 1e-12

    def test_consistent_with_entropy_deficit(self):
        # when the concentration radius is informative (k*radius^2 < log k and
        # no product vectors in the range), the optimizer cannot descend below
        # log k - k * radius^2 up to finite-environment slack
        ch = random_channel(4, 250, 0.1, seed=8)
        stat = concentration_stat(ch, 3000, seed=9)
        est = hmin_estimate(ch, 4, seed=10)
        assert est >= math.log(4) - 4 * (stat.bound * 1.05) ** 2 - 0.1

    def test_scalar_channel_never_negative(self):
        # the output is the number 1 for every input; rounding in its
        # eigenvalue must not give a negative entropy
        for seed in range(5):
            ch = random_channel(1, 8, 0.5, seed=40 + seed)
            assert hmin_estimate(ch, 2, seed=seed) >= 0.0

    def test_restarts_converge_before_the_cap(self):
        # 40 channels shaped like the benchmark's: k 2-6, n log-uniform on
        # [8, 64], t in {0.3, 0.5}, two restarts each
        rng = np.random.default_rng(901)
        stops = []
        for i in range(40):
            k, t = 2 + i % 5, (0.3, 0.5)[i // 5 % 2]
            n = int(np.rint(2.0 ** (3.0 + 3.0 * rng.random())))
            ch = random_channel(k, n, t, seed=int(rng.integers(2**31)))
            vh = ch.V.conj().T
            for j in range(2):
                psi = complex_normal(stream(i, STREAM_RESTART_BASE + j), ch.d)
                psi /= np.linalg.norm(psi)
                value, steps, gnorm, stop = _descend(ch, vh, psi)
                assert stop in ("stationary", "zero", "stalled", "cap")
                assert 0.0 <= value <= math.log(k) and 0 <= steps <= 500
                if stop == "stationary":
                    assert gnorm <= 1e-9
                stops.append(stop)
        assert stops.count("cap") <= 4

    @pytest.mark.parametrize("k, n, t", [(1, 8, 0.5), (2, 9, 0.3), (3, 8, 0.5), (4, 10, 0.3),
                                         (5, 8, 0.5), (6, 7, 0.3), (3, 5, 1.0)])
    def test_matches_every_trial_gradient_reference(self, k, n, t):
        # value-only trials, gradients at accepted points only and one V* per
        # call change no bit of the search
        ch = random_channel(k, n, t, seed=40 + k)
        assert hmin_estimate(ch, 2, seed=k) == _reference_hmin(ch, 2, seed=k)

    def test_gradient_matches_finite_differences(self):
        # along a tangent direction delta (Re<psi, delta> = 0) the unit-norm
        # entropy changes at rate 2 Re<delta, grad>
        ch = random_channel(3, 7, 0.4, seed=17)
        rng = stream(18, 1)
        psi = complex_normal(rng, ch.d)
        psi /= np.linalg.norm(psi)
        value, terms = _entropy_value(ch, psi)
        grad = _entropy_gradient(ch.V.conj().T, terms)

        def h_at(x):
            m = (ch.V @ (x / np.linalg.norm(x))).reshape(ch.k, ch.n)
            return entropy(QuantumState(ch.k, m @ m.conj().T))

        assert value == pytest.approx(h_at(psi), abs=1e-12)
        eps = 1e-5
        for _ in range(5):
            delta = complex_normal(rng, ch.d)
            delta -= np.real(np.vdot(psi, delta)) * psi
            slope = (h_at(psi + eps * delta) - h_at(psi - eps * delta)) / (2.0 * eps)
            assert slope == pytest.approx(2.0 * np.real(np.vdot(delta, grad)), rel=1e-6, abs=1e-9)

    def test_product_vectors_found_above_threshold(self):
        # for t*k*n > (k-1)*(n-1) the random range generically contains
        # product vectors, so the true minimum output entropy is 0; the
        # multi-start optimizer locates such inputs
        ch = random_channel(2, 300, 0.5, seed=8)   # d = 300 > 299
        est = hmin_estimate(ch, 6, seed=11)
        assert est < 0.01


class TestComplexNormal:
    @pytest.mark.parametrize("shape", [1, 7, (5, 3), (64, 33)])
    def test_bits_match_the_complex_quotient(self, shape):
        rng = stream(9, 1)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        z = complex_normal(stream(9, 1), shape)
        ref = (x + 1j * y) / np.sqrt(2)
        assert z.shape == ref.shape
        np.testing.assert_array_equal(z.view(np.float64), ref.view(np.float64))


class TestQuantumStateValidation:
    def test_caller_array_stays_writable(self):
        a = np.eye(2, dtype=complex) / 2
        state = QuantumState(2, a)
        assert a.flags.writeable
        assert not state.matrix.flags.writeable
        a[0, 0] = 0.0
        assert state.matrix[0, 0] == 0.5

    def test_caller_isometry_stays_writable(self):
        v = np.zeros((6, 4), dtype=complex)
        v[:4, :4] = np.eye(4)
        ch = ChannelInstance(k=2, n=3, t=4 / 6, d=4, V=v, seed=0)
        assert v.flags.writeable
        assert not ch.V.flags.writeable
        v[0, 0] = 2.0
        assert ch.V[0, 0] == 1.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            QuantumState(2, np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError):
            QuantumState(2, np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(DomainError):
            QuantumState(2, m)
