"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload, at one block, emits exactly the metric names and units of
BENCHMARK.json; a deliberately wrong result is counted as failed;
power-oracle's ops keep no point mass while its probe still shows the
ks_distance defect; and without the package source the benchmark exits
non-zero and prints no result.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _result(argv, cwd=ROOT):
    proc = subprocess.run([sys.executable] + argv, cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc, (json.loads(proc.stdout.strip().splitlines()[-1])
                  if proc.returncode == 0 else None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_metric_names_and_units(workload, trace):
    proc, result = _result([RUN, "--workload", workload, "--seed", "1",
                            "--seconds", "0.01", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_wrong_result_is_counted_as_failed(tmp_path, monkeypatch):
    import worker
    from freecontract import tnorm
    from workloads import NormSweep

    original = tnorm.tnorm_report

    def off_by_one(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, exact=report.exact + 1.0)

    monkeypatch.setattr(tnorm, "tnorm_report", off_by_one)
    wl = NormSweep(seed=1, workdir=str(tmp_path))
    raw = worker.measure(wl, seconds=0.0, tracer=None)
    attempted = len(raw["latencies"])
    assert attempted == wl.BLOCK + attempted // 20
    assert sum(raw["failures"].values()) == attempted
    assert set(raw["failures"]) <= {"exact above the upper bound",
                                    "two-point norm differs from 2*sqrt(t(1-t))"}


def test_power_oracle_keeps_point_masses_out_of_its_ops(tmp_path):
    import worker  # noqa: F401  (puts the checkout's src/ on sys.path)
    from workloads import PowerOracle

    wl = PowerOracle(seed=1, workdir=str(tmp_path))
    for op in wl.ops:
        mult = op.params["spec"].multiplicities
        assert mult.max() <= (1.0 - op.params["t"]) * mult.sum()
    [defect] = wl.known_defects()
    assert "defect shows" in defect


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = _result(BENCHMARK["command"][1:] + ["--workload", "norm-sweep", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                      cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
