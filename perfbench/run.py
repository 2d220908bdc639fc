"""Benchmark of the freecontract package.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

For one workload: starts SETUP_SAMPLES set-up-only processes and then the
measured process, each a fresh interpreter running worker.py, and prints
the machine block, the metrics with their units, the failures by reason,
and as the last line one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones of the traced run, and the
per-layer table is printed above them.  Without --workload every workload
runs in turn and a table of all of them is printed.

Exits with code 2, printing no result, when the package source is not in
the checkout or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "freecontract")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("norm-sweep", "power-oracle", "channel-mc", "violation-scan")
# Percentile reported as latency_tail_ms: a round percentile with at least
# ten samples beyond it in every seed run of the committed length.  It is
# fixed per workload so that a faster program, which completes more ops,
# is not measured at a higher percentile.
TAIL_PERCENTILE = {"norm-sweep": 90, "power-oracle": 70,
                   "channel-mc": 90, "violation-scan": 75}
SETUP_SAMPLES = 5           # set-up samples per run, the measured process included
BLAS_THREADS = 1            # one process, no extra threads
WORKER_TIMEOUT_S = 150         # the whole run must end within 180 s

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("FREECONTRACT_THREADS", None)   # package default: 1
    return env


def _run_worker(argv: list[str]) -> tuple[float, dict]:
    """(monotonic start time, parsed last output line) of one worker."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER] + argv, env=_worker_env(),
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _fail(f"worker {' '.join(argv)} timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        _fail(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "FREECONTRACT_THREADS": "unset (default 1)",
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up SETUP_SAMPLES - 1 times, then measure; return the report."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        start, out = _run_worker(common + ["--setup-only"])
        setups.append((out["ready_at"] - start) * out["setup_factor"])
    argv = common + ["--trace", str(trace)]
    spans_path = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
        argv += ["--spans", spans_path]
    start, raw = _run_worker(argv)
    setups.append((raw["first_op_at"] - start) * raw["setup_factor"])

    lat = np.array(raw["latencies"])
    q = TAIL_PERCENTILE[workload]
    tail = float(np.percentile(lat, q))
    failed = sum(raw["failures"].values())
    report = {
        "workload": workload,
        "attempted": int(lat.size),
        "failed": int(failed),
        "failures": raw["failures"],
        "failure_details": raw["failure_details"],
        "run_failures": raw["run_failures"],
        "known_defects": raw["known_defects"],
        "fail_ratio": failed / lat.size,
        "tail_percentile": q,
        "tail_samples_beyond": int(np.sum(lat > tail)),
        "setup_samples_s": setups,
        "metrics": {
            "latency_p50_ms": float(np.median(lat)) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "ops_per_s": lat.size / float(lat.sum()),
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        },
    }
    report["correct"] = failed == 0 and not raw["run_failures"]
    if not trace:
        unscaled = np.array(raw["raw_latencies"])
        report["unscaled"] = {"latency_p50_ms": float(np.median(unscaled)) * 1e3,
                              "latency_tail_ms": float(np.percentile(unscaled, q)) * 1e3,
                              "ops_per_s": unscaled.size / float(unscaled.sum())}
    if trace:
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        report["per_layer"] = raw["per_layer"]
    return report


def print_report(report: dict, trace: int) -> None:
    w = report["workload"]
    print(f"[{w}] ops attempted {report['attempted']}, failed {report['failed']}, "
          f"fail_ratio {report['fail_ratio']:.6g}, correct {report['correct']}")
    for reason, count in sorted(report["failures"].items()):
        print(f"[{w}]   failed: {reason} x{count}")
    for item in report["failure_details"]:
        print(f"[{w}]   op {item['op']} ({item['label']}): {item['reason']}"
              + (f" - {item['detail']}" if item.get("detail") else ""))
    for reason in report["run_failures"]:
        print(f"[{w}]   run check failed: {reason}")
    for defect in report["known_defects"]:
        print(f"[{w}] known defect, kept out of the ops: {defect}")
    if not trace:
        units = dict(END_TO_END)
        for name, value in report["metrics"].items():
            print(f"[{w}] {name} = {value:.6g} {units[name]}")
        print(f"[{w}] latency_tail_ms is p{report['tail_percentile']} with "
              f"{report['tail_samples_beyond']} of {report['attempted']} samples beyond it")
        print(f"[{w}] unscaled by the speed factor: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in report["unscaled"].items()))
        print(f"[{w}] setup samples (s): " + ", ".join(f"{s:.4f}" for s in report["setup_samples_s"]))
        return
    layer = report["per_layer"]
    op_s = layer["traced_op_s"]
    print(f"[{w}] per-layer self time per op (traced op {op_s * 1e3:.3f} ms, "
          f"untraced {layer['untraced_op_s'] * 1e3:.3f} ms)")
    for name, self_s in layer["self_s_per_op"].items():
        if self_s:
            print(f"[{w}]   {name:<11} {self_s * 1e3:10.3f} ms  {100 * self_s / op_s:6.2f} %")
    total = sum(layer["self_s_per_op"].values())
    print(f"[{w}]   sum of self times / untraced op time = {total / layer['untraced_op_s']:.4f}"
          f" (trace_overhead_ratio {layer['metrics']['trace_overhead_ratio'][0]:.4f})")
    for name, (value, unit) in layer["metrics"].items():
        if value:
            print(f"[{w}] {name} = {value:.6g} {unit}")
    print(f"[{w}] spans: {report['spans_file']}")


def result_line(reports: list[dict], trace: int) -> dict:
    metrics = {}
    for r in reports:
        prefix = "" if len(reports) == 1 else r["workload"] + "/"
        if trace:
            items = r["per_layer"]["metrics"].items()
        else:
            units = dict(END_TO_END)
            items = ((k, (v, units[k])) for k, v in r["metrics"].items())
        for name, (value, unit) in items:
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="freecontract benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="op time measured per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        _fail(f"package source not found at {os.path.relpath(PACKAGE, ROOT)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    print("machine " + json.dumps(machine_block(args.seed)))
    reports = []
    for workload in ([args.workload] if args.workload else WORKLOAD_NAMES):
        report = run_workload(workload, args.seed, args.seconds, args.trace)
        print_report(report, args.trace)
        reports.append(report)
    if len(reports) > 1 and not args.trace:
        print("workload        " + "".join(f"{name:>18}" for name, _ in END_TO_END)
              + f"{'fail_ratio':>12}")
        for r in reports:
            print(f"{r['workload']:<16}" + "".join(f"{r['metrics'][name]:>18.6g}"
                                                    for name, _ in END_TO_END)
                  + f"{r['fail_ratio']:>12.4g}")
    print(json.dumps(result_line(reports, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
