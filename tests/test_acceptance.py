"""Acceptance suite: one test per top-level criterion.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -v -s or
in captured output) and asserts the criterion at its stated tolerance and
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_measure, random_nonneg_spec, seeded
from freecontract.additivity import gap_g, hastings_gap, k_grid, r_grid, scan_violation
from freecontract.freepower import free_power, h_transform, power_voiculescu
from freecontract.measures import voiculescu_transform
from freecontract.qchannel import (
    bell_output,
    concentration_stat,
    entropy,
    random_channel,
    random_density_matrix,
)
from freecontract.additivity import product_bound
from freecontract.rmt import compressed_spectrum, ks_distance
from freecontract.rng import stream
from freecontract.tnorm import kargin_bound, lower_bound, tnorm_exact, upper_bound

SQRT3 = math.sqrt(3.0)


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_bernoulli_norm_closed_form(bernoulli_spec):
    start = time.perf_counter()
    worst = 0.0
    for t in (0.05, 0.1, 0.25, 0.4, 0.5):
        worst = max(worst, abs(tnorm_exact(bernoulli_spec, t)
                               - 2.0 * math.sqrt(t * (1.0 - t))))
    for t in (0.5, 0.6, 0.8, 1.0):
        worst = max(worst, abs(tnorm_exact(bernoulli_spec, t) - 1.0))
    elapsed = time.perf_counter() - start
    _report("criterion 1 (two-point norm closed form)", worst < 1e-9,
            f"max error {worst:.2e} (tol 1e-9)", elapsed, 1.0)


def test_criterion_2_bernoulli_power_structure(bernoulli):
    start = time.perf_counter()
    edge_err = 0.0
    atom_err = 0.0
    ok = True
    detail = []
    for T in (1.2, 2.0, 4.0, 10.0):
        result = free_power(bernoulli, T)
        (lo, hi), = result.support_components
        edge = 2.0 * math.sqrt(T - 1.0)
        edge_err = max(edge_err, abs(lo + edge), abs(hi - edge))
        if 1.0 < T < 2.0:
            if len(result.atoms) != 2:
                ok = False
                detail.append(f"T={T}: expected 2 atoms")
            else:
                expect = T / 2.0 - (T - 1.0)
                for pos, mass in result.atoms:
                    atom_err = max(atom_err, abs(abs(pos) - T), abs(mass - expect))
        elif result.atoms:
            ok = False
            detail.append(f"T={T}: unexpected atoms {result.atoms}")
    ok = ok and edge_err < 1e-9 and atom_err < 1e-12
    elapsed = time.perf_counter() - start
    _report("criterion 2 (two-point power structure)", ok,
            f"edge err {edge_err:.2e} (tol 1e-9), atom err {atom_err:.2e} "
            f"(tol 1e-12) {'; '.join(detail)}", elapsed, 1.0)


def test_criterion_3_violation_headline_and_scan():
    start = time.perf_counter()
    report = gap_g(31114, 1.387)
    window_ok = (-6.71108e-12 - 1e-12) < report.g < (-6.71108e-12 + 1e-12)
    negative_ok = report.g < 0
    ks = k_grid(1e4, 1e5, 200)
    rs = r_grid(1.0, 2.0, 0.001)
    _, summary = scan_violation(ks, rs)
    above = [k for k in ks if k >= 31114]
    below = [k for k in ks if k < 31114]
    resolution = (above[0] - below[-1]) if above and below else 0
    scan_ok = summary.min_k is not None and abs(summary.min_k - 31114) <= resolution
    elapsed = time.perf_counter() - start
    _report("criterion 3 (violation headline + scan)",
            window_ok and negative_ok and scan_ok,
            f"g={report.g:.6e} (target -6.71108e-12 +/- 1e-12), min_k="
            f"{summary.min_k} at r={summary.argmin_r} (grid resolution "
            f"{resolution} around 31114)", elapsed, 30.0)


def test_criterion_4_mass_conservation():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        rng = seeded(123, trial)
        mu = random_measure(rng)
        for T in (1.1, 1.5, 2.0, 4.0, 10.0):
            result = free_power(mu, T)
            worst = max(worst, abs(result.ac_mass + result.atomic_mass - 1.0))
    elapsed = time.perf_counter() - start
    _report("criterion 4 (mass conservation, 200 measures x 5 powers)",
            worst < 1e-6, f"worst defect {worst:.2e} (tol 1e-6)", elapsed, 60.0)


def test_criterion_5_bound_sandwich():
    start = time.perf_counter()
    sandwich_failures = []
    for trial in range(1000):
        rng = seeded(456, trial)
        spec = random_nonneg_spec(rng)
        for t in (0.1, 0.25, 0.5):
            low = lower_bound(spec, t, L=spec.lplus)
            exact = tnorm_exact(spec, t)
            up, _ = upper_bound(spec, t)
            if not (low <= exact + 1e-10 and exact <= up + 1e-10):
                sandwich_failures.append((trial, t, low, exact, up))
    remark_failures = []
    for trial in range(500):
        rng = seeded(789, trial)
        spec = random_nonneg_spec(rng)
        for n in range(2, 11):
            t = 1.0 / n
            up, _ = upper_bound(spec, t)
            kb = kargin_bound(spec, t)
            if up > kb + 1e-10:
                remark_failures.append((trial, n, up, kb))
    for failure in remark_failures:
        print("  remark comparison failure:", failure)
    ok = not sandwich_failures and not remark_failures
    elapsed = time.perf_counter() - start
    _report("criterion 5 (bound sandwich, 1000 specs x 3 t)", ok,
            f"{len(sandwich_failures)} sandwich failures, "
            f"{len(remark_failures)} moment-bound comparison failures (target 0)",
            elapsed, 60.0)


def test_criterion_6_rmt_oracle_agreement(bernoulli_spec, bernoulli):
    start = time.perf_counter()
    worst_ks = 0.0
    worst_edge = 0.0
    for t in (0.25, 0.5):
        exact = tnorm_exact(bernoulli_spec, t)
        result = free_power(bernoulli, 1.0 / t)
        for seed in range(5):
            sample = compressed_spectrum(bernoulli_spec, t, 2000, seed=seed)
            worst_ks = max(worst_ks, ks_distance(sample, result))
            top = t * float(np.max(np.abs(sample.eigenvalues)))
            worst_edge = max(worst_edge, abs(top - exact) / exact)
    ok = worst_ks < 0.05 and worst_edge < 0.03
    elapsed = time.perf_counter() - start
    _report("criterion 6 (random-matrix oracle, N=2000 x 5 seeds x 2 t)", ok,
            f"worst KS {worst_ks:.4f} (tol 0.05), worst edge deviation "
            f"{worst_edge:.4f} (tol 0.03)", elapsed, 120.0)


def test_criterion_7_bell_state_bound():
    start = time.perf_counter()
    lam_ok = True
    ent_ok = True
    worst_margin = math.inf
    for seed in range(100):
        ch = random_channel(3, 8, 0.25, seed=seed)
        out = bell_output(ch)
        lam_max = float(out.eigenvalues()[-1])
        t_eff = ch.t_effective
        worst_margin = min(worst_margin, lam_max - t_eff)
        if lam_max < t_eff - 1e-10:
            lam_ok = False
        if entropy(out) > product_bound(ch.k, t_eff) + 1e-9:
            ent_ok = False
    elapsed = time.perf_counter() - start
    _report("criterion 7 (entangled-input bound, 100 channels)",
            lam_ok and ent_ok,
            f"min(lam_max - t) = {worst_margin:.4f} (must be >= -1e-10); "
            f"entropy bound {'held' if ent_ok else 'violated'}", elapsed, 60.0)


def test_criterion_8_concentration():
    start = time.perf_counter()
    worst = 0.0
    bound = None
    for seed in range(3):
        ch = random_channel(4, 250, 0.1, seed=seed)
        stat = concentration_stat(ch, 10_000, seed=seed + 1000)
        bound = stat.bound
        worst = max(worst, stat.max_l2)
    ok = bound == pytest.approx(0.4, abs=1e-12) and worst <= 0.4 * 1.05
    elapsed = time.perf_counter() - start
    _report("criterion 8 (output concentration, 3 x 10^4 samples)", ok,
            f"max L2 {worst:.4f} <= {0.4 * 1.05:.3f} (radius {bound})",
            elapsed, 300.0)


def test_criterion_9_entropy_deficit_inequality():
    start = time.perf_counter()
    worst = -math.inf
    for k in range(2, 9):
        rng = stream(9000 + k, 0)
        for _ in range(1000):
            lhs, rhs = hastings_gap(random_density_matrix(k, rng))
            worst = max(worst, lhs - rhs)
    elapsed = time.perf_counter() - start
    _report("criterion 9 (entropy deficit vs L2, 1000 states x k=2..8)",
            worst <= 1e-12, f"max(lhs - rhs) = {worst:.2e} (tol 1e-12)",
            elapsed, 10.0)


def test_criterion_10_subordination_and_linearization():
    start = time.perf_counter()
    worst_resid = 0.0
    for trial in range(20):
        rng = seeded(606, trial)
        mu = random_measure(rng, spread=0.8)
        T = float(rng.uniform(1.3, 5.0))
        result = free_power(mu, T)
        total_width = sum(hi - lo for lo, hi in result.support_components)
        xs = []
        for lo, hi in result.support_components:
            count = max(2, int(round(50 * (hi - lo) / total_width)))
            xs.extend(np.linspace(lo, hi, count + 2)[1:-1])
        xs = np.array(xs[:50])
        omegas = result.subordination(xs)
        for x, om in zip(xs, omegas):
            h, _ = h_transform(mu, T, om)
            worst_resid = max(worst_resid, abs(h - x))
    worst_phi = 0.0
    for trial in range(20):
        rng = seeded(707, trial)
        mu = random_measure(rng, spread=0.8)
        for y in (10.0, 20.0, 50.0):
            lhs = power_voiculescu(mu, 2.0, 1j * y)
            rhs = 2.0 * voiculescu_transform(mu, 1j * y)
            worst_phi = max(worst_phi, abs(lhs - rhs))
    ok = worst_resid < 1e-9 and worst_phi < 1e-8
    elapsed = time.perf_counter() - start
    _report("criterion 10 (subordination round-trip + linearization)", ok,
            f"worst H residual {worst_resid:.2e} (tol 1e-9), worst "
            f"linearization gap {worst_phi:.2e} (tol 1e-8)", elapsed, 10.0)
