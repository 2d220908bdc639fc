"""Seeded workloads of the freecontract benchmark.

A workload turns a seed into a fixed list of ops.  ``run`` is the timed
call into the package; ``check`` validates one result outside the timed
region and returns ``None`` or a failure reason; ``finish`` makes the
run-level checks once the timed loop is over.

Op sizes are drawn in blocks that cover the size range evenly: block b
holds one op per stratum of the size variable, with a random offset inside
the stratum, in random order.  Two seeds therefore give nearly the same
mix of sizes, so medians and tails do not jump with the seed, while no two
seeds share an input.  A run always ends on a block boundary
(``Op.closes_block``).  ``PASSES`` is how many times the run times each
op (see worker.measure): twice where the machine's speed moves the
figures most (ops of equal or small cost), once where the spread comes
from the ops themselves (power-oracle, channel-mc), which need every op
a run can hold.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from freecontract import additivity, cli, freepower, measures, qchannel, rmt


@dataclass
class Op:
    """One timed call: its inputs, a short label and the block it closes."""

    label: str
    params: dict = field(default_factory=dict)
    closes_block: bool = False


def _stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` draws in [0, 1), one inside each of `count` equal strata."""
    return (np.arange(count) + rng.random(count)) / count


def _spec(rng: np.random.Generator, m: int, lo: float, hi: float) -> measures.HermitianSpec:
    """m distinct eigenvalues, one inside each m-th of [lo, hi] with a gap of
    at least 0.2*(hi-lo)/m, and multiplicities 1 to 3."""
    xi = lo + (hi - lo) * (np.arange(m) + 0.1 + 0.8 * rng.random(m)) / m
    mult = rng.integers(1, 4, m)
    return measures.HermitianSpec(int(mult.sum()), xi, mult)


def _blocks(rng: np.random.Generator, n_blocks: int, draw) -> list[Op]:
    """Concatenate blocks of ops made by ``draw(block_index)``, each shuffled."""
    ops: list[Op] = []
    for b in range(n_blocks):
        block = draw(b)
        block = [block[i] for i in rng.permutation(len(block))]
        block[-1].closes_block = True
        ops.extend(block)
    return ops


class Workload:
    """Defaults shared by the workloads below."""

    PASSES = 1
    outputs: tuple[str, ...] = ()   # files a CLI op writes, for cli.bytes_written

    def finish(self) -> list[str]:
        """Failure reasons of the run-level checks, made after the timed loop."""
        return []

    def known_defects(self) -> list[str]:
        """Defects of the package that the ops avoid, each shown by a probe
        run after the timed loop; printed, never counted as an op."""
        return []


# -- norm-sweep -----------------------------------------------------------------

NORM_T = (1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 10, 0.37)


class NormSweep(Workload):
    """``freecontract tnorm --all-bounds`` through ``cli.main``.

    m is log-uniform on [2, 256]; t rotates over the strata so that every
    (range of m, t) pair recurs every six blocks.  Every 20th op uses the
    two-point spectrum {-1, 1}, whose norm has the closed form
    2*sqrt(t(1-t)) for t <= 1/2.
    """

    name = "norm-sweep"
    PASSES = 2
    BLOCK = 48
    POOL_BLOCKS = 4
    LOG2_M = (1.0, 8.0)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.out = os.path.join(workdir, "tnorm.json")
        self.outputs = (self.out,)

        def draw(b: int) -> list[Op]:
            lo, hi = self.LOG2_M
            ms = np.rint(2.0 ** (lo + (hi - lo) * _stratified(rng, self.BLOCK))).astype(int)
            return [Op(f"m={m}", {"spec": _spec(rng, int(m), 0.0, 3.0),
                                  "t": NORM_T[(j + b) % len(NORM_T)]})
                    for j, m in enumerate(ms)]

        stratified = _blocks(rng, self.POOL_BLOCKS, draw)
        two_point = measures.HermitianSpec(2, np.array([-1.0, 1.0]), np.array([1, 1]))
        self.ops: list[Op] = []
        while stratified:
            i = len(self.ops)
            if (i + 1) % 20 == 0:
                t = NORM_T[(i // 20) % len(NORM_T)]
                self.ops.append(Op("two-point", {"spec": two_point, "t": t}))
            else:
                self.ops.append(stratified.pop(0))
        for i, op in enumerate(self.ops):
            op.params["path"] = os.path.join(workdir, f"spec{i:04d}.json")
            with open(op.params["path"], "w") as fh:
                json.dump(measures.spec_to_json(op.params["spec"]), fh)
        self.warmup_op = Op("warm-up", {"spec": two_point, "t": 0.5,
                                        "path": os.path.join(workdir, "warmup.json")})
        with open(self.warmup_op.params["path"], "w") as fh:
            json.dump(measures.spec_to_json(two_point), fh)

    def run(self, op: Op) -> Any:
        p = op.params
        return cli.main(["tnorm", "--spec", p["path"], "--t", repr(p["t"]),
                         "--all-bounds", "--out", self.out])

    def check(self, op: Op, code: Any) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        with open(self.out) as fh:
            report = json.load(fh)
        t, exact, upper, lower = op.params["t"], report["exact"], report["upper"], report["lower"]
        if op.label == "two-point":
            if abs(exact - 2.0 * math.sqrt(t * (1.0 - t))) > 1e-9:
                return "two-point norm differs from 2*sqrt(t(1-t))"
        elif lower is None or not lower <= exact + 1e-10:
            return "exact below the lower bound"
        if not exact + 1e-10 <= upper + 2e-10:
            return "exact above the upper bound"
        return None


# -- power-oracle ----------------------------------------------------------------

ORACLE_T = (0.1, 0.25, 0.5)
ORACLE_N = 1000
DENSITY_POINTS = 256
SUBORDINATION_POINTS = 16


def _without_point_mass(spec: measures.HermitianSpec, t: float) -> measures.HermitianSpec:
    """Lower the largest multiplicity until every weight is at most 1 - t, so
    that the (1/t)-th power keeps no point mass (see PowerOracle)."""
    mult = spec.multiplicities.copy()
    while mult.max() > (1.0 - t) * mult.sum():
        mult[np.argmax(mult)] -= 1
    return measures.HermitianSpec(int(mult.sum()), spec.eigenvalues, mult)


def _interior_points(components, count: int) -> np.ndarray:
    """`count` points spread evenly over the total length of the open a.c.
    support components (never on an edge)."""
    widths = np.array([b - a for a, b in components])
    ends = np.cumsum(widths)
    targets = (np.arange(count) + 0.5) / count * ends[-1]
    idx = np.searchsorted(ends, targets, side="right")
    starts = np.array([a for a, _ in components])
    return starts[idx] + targets - (ends[idx] - widths[idx])


class PowerOracle(Workload):
    """The exact power queried many times, then the random-matrix oracle.

    m is log-uniform on [2, 32], eigenvalues lie in [-1, 3] and t rotates
    over {0.1, 0.25, 0.5} across the strata.  No eigenvalue weighs more
    than 1 - t: the power then keeps no point mass, on which `ks_distance`
    is wrong (about half of the sample's cluster at the atom rounds to just
    below it).  `known_defects` runs that case once per run instead.
    """

    name = "power-oracle"
    BLOCK = 12
    POOL_BLOCKS = 40
    LOG2_M = (1.0, 5.0)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])

        def draw(b: int) -> list[Op]:
            lo, hi = self.LOG2_M
            ms = np.rint(2.0 ** (lo + (hi - lo) * _stratified(rng, self.BLOCK))).astype(int)
            ops = []
            for j, m in enumerate(ms):
                t = ORACLE_T[(j + b) % len(ORACLE_T)]
                ops.append(Op(f"m={m}", {"spec": _without_point_mass(_spec(rng, int(m), -1.0, 3.0), t),
                                         "t": t, "seed": int(rng.integers(2**31))}))
            return ops

        self.ops = _blocks(rng, self.POOL_BLOCKS, draw)
        spec = measures.HermitianSpec(4, np.array([-1.0, 0.0, 1.0, 2.0]), np.array([1, 1, 1, 1]))
        self.warmup_op = Op("warm-up", {"spec": spec, "t": 0.5, "seed": 0})
        self.probe_seed = int(rng.integers(2**31))

    def run(self, op: Op) -> Any:
        spec, t = op.params["spec"], op.params["t"]
        result = freepower.free_power(spec.measure(), 1.0 / t)
        comps = result.support_components
        dens = result.density(np.linspace(comps[0][0], comps[-1][1], DENSITY_POINTS))
        xs = _interior_points(comps, SUBORDINATION_POINTS)
        omegas = result.subordination(xs)
        sample = rmt.compressed_spectrum(spec, t, ORACLE_N, op.params["seed"])
        ks = rmt.ks_distance(sample, result)
        return result, dens, xs, omegas, ks

    def check(self, op: Op, out: Any) -> Optional[str]:
        result, dens, xs, omegas, ks = out
        if not np.all(np.isfinite(dens)) or np.any(dens < 0.0):
            return "density not finite and nonnegative"
        mu = op.params["spec"].measure()
        for x, omega in zip(xs, omegas):
            h, _ = freepower.h_transform(mu, result.T, omega)
            if not abs(h - x) < 1e-9:
                return "subordination residual |H(w) - x| >= 1e-9"
        if not ks < 0.05:
            kind = "power keeps a point mass" if result.atoms else "no point mass"
            return f"ks_distance >= 0.05 ({kind})"
        return None

    def known_defects(self) -> list[str]:
        spec = measures.HermitianSpec(4, np.array([0.0, 1.0]), np.array([3, 1]))
        result = freepower.free_power(spec.measure(), 2.0)
        sample = rmt.compressed_spectrum(spec, 0.5, ORACLE_N, self.probe_seed)
        ks = rmt.ks_distance(sample, result)
        verdict = "shows" if not ks < 0.05 else "did not show on this seed"
        return [f"ks_distance on a power with a point mass: spectrum {{0 x3, 1 x1}}, "
                f"t = 0.5, N = {ORACLE_N}, atoms {result.atoms}: KS = {ks:.4f} "
                f"(check KS < 0.05; defect {verdict})"]


# -- channel-mc ------------------------------------------------------------------

CHANNEL_K = (2, 3, 4, 5, 6)
CHANNEL_T = (0.3, 0.5)
CHANNEL_SAMPLES = 4096
CHANNEL_RESTARTS = 2


class ChannelMC(Workload):
    """Random channel, output concentration, Bell output and the h_min search.

    Each block holds every (k, t) pair once per third of log n on [8, 64];
    t_eff >= 0.3 - 1/16 > 1/k^2, so the product bound applies to every op.
    """

    name = "channel-mc"
    LOG2_N = (3.0, 6.0)
    N_STRATA = 3
    POOL_BLOCKS = 40

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])

        def draw(b: int) -> list[Op]:
            lo, hi = self.LOG2_N
            block = []
            for k in CHANNEL_K:
                for t in CHANNEL_T:
                    for u in _stratified(rng, self.N_STRATA):
                        n = int(np.rint(2.0 ** (lo + (hi - lo) * u)))
                        seeds = [int(s) for s in rng.integers(2**31, size=3)]
                        block.append(Op(f"k={k} n={n}", {"k": k, "n": n, "t": t, "seeds": seeds}))
            return block

        self.ops = _blocks(rng, self.POOL_BLOCKS, draw)
        self.warmup_op = Op("warm-up", {"k": 2, "n": 8, "t": 0.5, "seeds": [0, 1, 2]})

    def run(self, op: Op) -> Any:
        p = op.params
        s_channel, s_inputs, s_restarts = p["seeds"]
        ch = qchannel.random_channel(p["k"], p["n"], p["t"], s_channel)
        stat = qchannel.concentration_stat(ch, CHANNEL_SAMPLES, s_inputs)
        bell = qchannel.bell_output(ch)
        hmin = qchannel.hmin_estimate(ch, CHANNEL_RESTARTS, s_restarts)
        return ch, stat, bell, hmin

    def check(self, op: Op, out: Any) -> Optional[str]:
        ch, stat, bell, hmin = out
        t_eff = ch.t_effective
        if not math.isfinite(stat.max_l2):
            return "concentration statistic not finite"
        if not float(bell.eigenvalues()[-1]) >= t_eff - 1e-10:
            return "Bell lambda_max below t_eff"
        if not qchannel.entropy(bell) <= additivity.product_bound(ch.k, t_eff) + 1e-9:
            return "Bell entropy above the product bound"
        if not 0.0 <= hmin <= math.log(ch.k):
            return "h_min estimate outside [0, log k]"
        return None


# -- violation-scan --------------------------------------------------------------

FRONTIER_K = 31114          # first dimension with a negative gap
K_GRID_RATIO = 10 ** (1 / 180)   # 10 log-spaced points per 20th of a decade
EVAL_R = 1.387
EVAL_G = -6.71108e-12
WINDOWS = 20


class ViolationScan(Workload):
    """``freecontract violation scan`` over one of 20 geometric k-windows of
    [1e4, 1e5] per op: 10 k-points, r from 1 + offset to 2 in steps of 0.001
    (the seeded offset lies in (0, 0.001)), CSV, summary and SVG."""

    name = "violation-scan"
    PASSES = 2
    POOL_BLOCKS = 20

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 4])
        edges = np.geomspace(1e4, 1e5, WINDOWS + 1)
        self.csv = os.path.join(workdir, "scan.csv")
        self.summary = os.path.join(workdir, "summary.json")
        self.svg = os.path.join(workdir, "scan.svg")
        self.eval_out = os.path.join(workdir, "eval.json")
        self.outputs = (self.csv, self.summary, self.svg)
        self.min_k: Optional[int] = None

        def draw(b: int) -> list[Op]:
            return [Op(f"window={w}", {"kmin": float(edges[w]), "kmax": float(edges[w + 1]),
                                       "rmin": 1.0 + 0.001 * (1.0 - rng.random())})
                    for w in range(WINDOWS)]

        self.ops = _blocks(rng, self.POOL_BLOCKS, draw)
        self.warmup_op = Op("warm-up", {"kmin": 1e4, "kmax": 1e4 * K_GRID_RATIO, "rmin": 1.0005})

    def run(self, op: Op) -> Any:
        p = op.params
        return cli.main(["violation", "scan", "--kmin", repr(p["kmin"]),
                         "--kmax", repr(p["kmax"]), "--kpoints", "10",
                         "--rmin", repr(p["rmin"]), "--rmax", "2", "--rstep", "0.001",
                         "--out", self.csv, "--summary", self.summary, "--svg", self.svg])

    def check(self, op: Op, code: Any) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        with open(self.summary) as fh:
            summary = json.load(fh)
        with open(self.csv) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != summary["cells"]:
            return "CSV row count differs from the cell count"
        min_k = summary["min_k"]
        if min_k is not None:
            if not additivity.gap_g(min_k, summary["argmin_r"]).g < 0.0:
                return "gap at the reported minimum is not negative"
            self.min_k = min_k if self.min_k is None else min(self.min_k, min_k)
        return None

    def finish(self) -> list[str]:
        failures = []
        if self.min_k is None or not FRONTIER_K <= self.min_k <= FRONTIER_K * K_GRID_RATIO:
            failures.append(f"smallest violating k {self.min_k} is not within one "
                            f"k-grid step above {FRONTIER_K}")
        code = cli.main(["violation", "eval", "--k", str(FRONTIER_K), "--r", repr(EVAL_R),
                         "--out", self.eval_out])
        if code != 0:
            failures.append(f"violation eval exit code {code}")
        else:
            with open(self.eval_out) as fh:
                g = json.load(fh)["g"]
            if not abs(g - EVAL_G) <= 1e-12:
                failures.append(f"g({FRONTIER_K}, {EVAL_R}) = {g!r} is not {EVAL_G} +- 1e-12")
        return failures


WORKLOADS = {cls.name: cls for cls in (NormSweep, PowerOracle, ChannelMC, ViolationScan)}
