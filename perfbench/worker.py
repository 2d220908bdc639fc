"""One workload process of the benchmark.

run.py starts this script in a fresh interpreter per set-up sample and per
measured run.  It imports the package from the checkout's ``src``, builds
the seeded inputs in a temporary directory inside the checkout, runs one
warm-up op and then either exits (``--setup-only``) or times ops until
``--seconds`` of op time have passed and the current block is complete.
Each op is checked once.  Untraced (``--trace 0``) runs install no
wrappers and scale every time by `speed_factor`; traced (``--trace 1``)
runs time every op with and without the wrappers.  The last line of
standard output is one JSON object with the measurements; run.py turns
it into metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import freecontract  # noqa: E402
import numpy as np  # noqa: E402

if not os.path.abspath(freecontract.__file__).startswith(SRC + os.sep):
    sys.exit(f"freecontract was imported from {freecontract.__file__}, not from {SRC}")

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

KEEP_DETAILS = 20
REFERENCE_S = 0.75e-3   # the reference kernel's time on the development machine at full speed
_REF_X = np.linspace(-1.0, 1.0, 16)


def _reference() -> float:
    """Seconds taken by a fixed kernel with the mix of the package's hot
    loops: interpreter-bound bisection steps over small numpy reductions,
    and math.fsum.  It is benchmark code, so no change to the package
    moves it."""
    start = time.perf_counter()
    for k in range(5):
        lo, hi = -0.99, 0.99
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if float(np.sum(1.0 / (mid - _REF_X - 2.0))) + k * 1e-3 > -8.0:
                hi = mid
            else:
                lo = mid
        math.fsum([lo, hi, -mid])
    return time.perf_counter() - start


def speed_factor() -> float:
    """REFERENCE_S over the best of three reference timings taken now.

    Other loads on a shared machine slow it by up to about 1.8x, in
    episodes from seconds to minutes; a time multiplied by the factor
    taken just before it reads as at full speed.
    """
    return REFERENCE_S / min(_reference() for _ in range(3))


def _timed(fn, op):
    """(seconds, output, failure reason, detail) of one call of fn(op)."""
    start = time.perf_counter()
    try:
        out = fn(op)
    except Exception as exc:
        return time.perf_counter() - start, None, f"raised {type(exc).__name__}", str(exc)[:200]
    return time.perf_counter() - start, out, None, None


def _check(wl, op, out):
    try:
        return wl.check(op, out)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {str(exc)[:120]}"


def _output_bytes(wl) -> int:
    return sum(os.path.getsize(p) for p in wl.outputs if os.path.exists(p))


def _blocks(wl):
    """The op list cut at block boundaries, cycled without end."""
    i = 0
    while True:
        block = []
        while not block or not block[-1].closes_block:
            block.append(wl.ops[i % len(wl.ops)])
            i += 1
        yield block


def _traced(tracer, op_id: int, wl, op):
    tracer.install()
    try:
        return _timed(lambda o: tracer.run_op(op_id, wl.run, o), op)
    finally:
        tracer.uninstall()


def measure(wl, seconds: float, tracer) -> dict:
    """Time whole blocks of ops until `seconds` of op time have passed.

    Untraced, every execution's time is multiplied by `speed_factor()`
    taken just before it, the first pass takes 1/PASSES of the time and
    the remaining passes repeat its ops in the same order; an op's latency
    is the best of its passes.  Traced, each op runs once with the span
    wrappers and once without, alternating which goes first, so the pairs
    give the tracing overhead; traced times are not scaled.  Each op is
    checked once, after its first (traced) execution.
    """
    first_op_at = time.monotonic()
    setup_factor = speed_factor()
    ops, latencies, raw, traced, untraced = [], [], [], [], []
    failures: Counter = Counter()
    details = []
    busy = 0.0
    first_pass = seconds if tracer is not None else seconds / wl.PASSES
    for block in _blocks(wl):
        for op in block:
            i = len(ops)
            if tracer is None:
                factor = speed_factor()
                dt, out, reason, detail = _timed(wl.run, op)
                raw.append(dt)
                latencies.append(dt * factor)
            else:
                if i % 2:
                    untraced.append(_timed(wl.run, op)[0])
                dt, out, reason, detail = _traced(tracer, i, wl, op)
                tracer.counts["cli.bytes_written"] += _output_bytes(wl)
                traced.append(dt)
                latencies.append(dt)
                if not i % 2:
                    untraced.append(_timed(wl.run, op)[0])
                busy += untraced[-1]
            ops.append(op)
            busy += dt
            if reason is None:
                reason, detail = _check(wl, op, out), None
            if reason is not None:
                failures[reason] += 1
                details.append({"op": i, "label": op.label, "reason": reason, "detail": detail})
        if busy >= first_pass:
            break
    if tracer is None:
        for _ in range(wl.PASSES - 1):
            for i, op in enumerate(ops):
                factor = speed_factor()
                dt = _timed(wl.run, op)[0]
                raw[i] = min(raw[i], dt)
                latencies[i] = min(latencies[i], dt * factor)
    return {
        "first_op_at": first_op_at,
        "setup_factor": setup_factor,
        "latencies": latencies,
        "raw_latencies": raw,
        "traced_latencies": traced,
        "untraced_latencies": untraced,
        "failures": dict(failures),
        "failure_details": details[:KEEP_DETAILS],
        "run_failures": wl.finish(),
        "known_defects": wl.known_defects(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="JSON-lines path for the spans")
    args = parser.parse_args()

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.run(wl.warmup_op)
        if args.setup_only:
            ready_at = time.monotonic()
            print(json.dumps({"ready_at": ready_at, "setup_factor": speed_factor()}))
            return 0
        tracer = Tracer() if args.trace else None
        result = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["per_layer"] = tracer.per_layer(result["traced_latencies"],
                                               result["untraced_latencies"])
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
