"""Spans around the package's public functions, for the traced run only.

`Tracer.install` replaces each wrapped function (the module attribute, or
the binding another module imported) by a wrapper that records a span:
name, start, end, parent span and op id.  Spans stay in memory; `summary`
`per_layer` turns them into self times (span minus its children) and
per-op counts, and `write` stores them as JSON lines.  Outside an op (set-up, checks)
the wrappers only call through.  `uninstall` restores every original, so
an untraced run executes no benchmark code inside the package.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from freecontract import additivity, cli, freepower, measures, qchannel, rmt, tnorm


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    layer: str
    name: str
    start: float
    end: float
    error: Optional[str]


def _qr_flops(N: int, d: int) -> float:
    """Complex Householder QR of an N x d panel plus forming its Q
    (leading order, real flops)."""
    return 2.0 * (8.0 * N * d * d - 8.0 * d**3 / 3.0)


def _compress_flops(N: int, d: int) -> float:
    """W* diag(a) W (complex d x N by N x d) plus the Hermitian
    tridiagonal reduction inside eigvalsh (leading order, real flops)."""
    return 8.0 * N * d * d + 16.0 * d**3 / 3.0


def _arg(fn: Callable, args: tuple, kwargs: dict, name: str):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# (owner, attribute, layer, short name, counter) for every wrapped entry
# point.  A counter maps (original, args, kwargs, result) to increments of
# "<layer>.<counter name>".
def _targets():
    def points(short):
        def count(fn, args, kwargs, result):
            return {f"{short}_points": np.size(_arg(fn, args, kwargs, "x"))}
        return count

    def haar(fn, args, kwargs, result):
        N, d = result.shape
        return {"gflop_computed": _qr_flops(N, d) / 1e9}

    def compress(fn, args, kwargs, result):
        return {"gflop_computed": _compress_flops(_arg(fn, args, kwargs, "N"), result.d) / 1e9}

    def rho(fn, args, kwargs, result):
        return {"rho_atoms": result.n_atoms}

    def power(fn, args, kwargs, result):
        return {"components": len(result.support_components)}

    def samples(fn, args, kwargs, result):
        return {"samples": _arg(fn, args, kwargs, "count")}

    def restarts(fn, args, kwargs, result):
        return {"hmin_restarts": _arg(fn, args, kwargs, "restarts")}

    def scan(fn, args, kwargs, result):
        summary = result[1]
        return {"cells": summary.cells, "violations": summary.violations}

    return [
        (measures, "nevanlinna_rho", "measures", "rho", rho),
        (freepower, "nevanlinna_rho", "measures", "rho", rho),
        (freepower, "free_power", "freepower", "power", power),
        (tnorm, "free_power", "freepower", "power", power),
        (freepower.FreePowerResult, "density", "freepower", "density", points("density")),
        (freepower.FreePowerResult, "subordination", "freepower", "subordination", points("subordination")),
        (freepower.FreePowerResult, "cdf", "freepower", "cdf", points("cdf")),
        (tnorm, "tnorm_report", "tnorm", "report", None),
        (rmt, "haar_columns", "rmt", "haar", haar),
        (qchannel, "haar_columns", "rmt", "haar", haar),
        (rmt, "compressed_spectrum", "rmt", "compress", compress),
        (rmt, "ks_distance", "rmt", "ks", None),
        (qchannel, "random_channel", "qchannel", "channel", None),
        (qchannel, "concentration_stat", "qchannel", "sample", samples),
        (qchannel, "bell_output", "qchannel", "bell", None),
        (qchannel, "hmin_estimate", "qchannel", "hmin", restarts),
        (additivity, "scan_violation", "additivity", "scan", scan),
        (additivity, "scan_csv_text", "additivity", "csv", None),
        (additivity, "contour_svg", "additivity", "svg", None),
        (cli, "main", "cli", "main", None),
    ]


LAYERS = ("measures", "freepower", "tnorm", "rmt", "qchannel", "additivity", "cli")
OP_LAYER = "bench"   # the op's own span; its self time is benchmark glue

# Per-layer metrics of the traced run: (name, unit, key in the self times
# or counts).  Every value is a mean per traced op.
PER_LAYER = [
    ("measures.rho_s", "s/op", "measures.rho_s"),
    ("measures.rho_calls", "1/op", "measures.rho_calls"),
    ("measures.rho_atoms", "1/op", "measures.rho_atoms"),
    ("freepower.power_s", "s/op", "freepower.power_s"),
    ("freepower.power_calls", "1/op", "freepower.power_calls"),
    ("freepower.components", "1/op", "freepower.components"),
    ("freepower.density_s", "s/op", "freepower.density_s"),
    ("freepower.density_points", "1/op", "freepower.density_points"),
    ("freepower.subordination_s", "s/op", "freepower.subordination_s"),
    ("freepower.subordination_points", "1/op", "freepower.subordination_points"),
    ("freepower.cdf_s", "s/op", "freepower.cdf_s"),
    ("freepower.cdf_points", "1/op", "freepower.cdf_points"),
    ("tnorm.report_s", "s/op", "tnorm.report_s"),
    ("tnorm.report_calls", "1/op", "tnorm.report_calls"),
    ("rmt.haar_s", "s/op", "rmt.haar_s"),
    ("rmt.haar_calls", "1/op", "rmt.haar_calls"),
    ("rmt.compress_s", "s/op", "rmt.compress_s"),
    ("rmt.ks_s", "s/op", "rmt.ks_s"),
    ("rmt.gflop_computed", "Gflop/op", "rmt.gflop_computed"),
    ("qchannel.channel_s", "s/op", "qchannel.channel_s"),
    ("qchannel.sample_s", "s/op", "qchannel.sample_s"),
    ("qchannel.samples", "1/op", "qchannel.samples"),
    ("qchannel.bell_s", "s/op", "qchannel.bell_s"),
    ("qchannel.hmin_s", "s/op", "qchannel.hmin_s"),
    ("qchannel.hmin_restarts", "1/op", "qchannel.hmin_restarts"),
    ("additivity.scan_s", "s/op", "additivity.scan_s"),
    ("additivity.cells", "1/op", "additivity.cells"),
    ("additivity.violations", "1/op", "additivity.violations"),
    ("additivity.csv_s", "s/op", "additivity.csv_s"),
    ("additivity.svg_s", "s/op", "additivity.svg_s"),
    ("cli.self_s", "s/op", "cli.main_s"),
    ("cli.calls", "1/op", "cli.main_calls"),
    ("cli.bytes_written", "B/op", "cli.bytes_written"),
    ("bench.self_s", "s/op", "bench.op_s"),
] + [(f"{layer}.errors", "1/op", f"{layer}.errors") for layer in LAYERS]


class Tracer:
    """Wrappers for every entry point of `_targets`, and the spans they record."""

    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._last_error: Optional[BaseException] = None
        self._patches = [(owner, attr, getattr(owner, attr),
                          self._wrap(getattr(owner, attr), layer, short, counter))
                         for owner, attr, layer, short, counter in _targets()]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _begin(self) -> tuple[int, Optional[int]]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _end(self, sid: int, parent: Optional[int], layer: str, name: str,
             start: float, error: Optional[str]) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, self.op, layer, name, start, end, error)

    def _wrap(self, original: Callable, layer: str, short: str, counter) -> Callable:
        def wrapper(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            sid, parent = self._begin()
            error = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                if exc is not self._last_error:   # count where it was raised
                    self._last_error = exc
                    self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                self._end(sid, parent, layer, short, start, error)
            self.counts[f"{layer}.{short}_calls"] += 1
            if counter is not None:
                for key, value in counter(original, args, kwargs, result).items():
                    self.counts[f"{layer}.{key}"] += value
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def run_op(self, op_id: int, fn: Callable, *args):
        """Call fn(*args) as op `op_id` under a root span."""
        self.op = op_id
        sid, parent = self._begin()
        error = None
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self._end(sid, parent, OP_LAYER, "op", start, error)
            self.op = None

    def self_times(self) -> dict[str, float]:
        """Total self time per "<layer>.<short>_s" over all spans."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[f"{s.layer}.{s.name}_s"] += (s.end - s.start) - child_time[s.id]
        return out

    def per_layer(self, traced: list[float], untraced: list[float]) -> dict:
        """Per-layer metrics (means per traced op) and the self-time table.

        `traced` and `untraced` are the latencies of the same ops run with
        and without the wrappers.
        """
        n = len(traced)
        self_times = self.self_times()
        values = {**self_times, **self.counts}
        metrics = {name: (values.get(key, 0.0) / n, unit) for name, unit, key in PER_LAYER}
        metrics["trace_overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")
        table = {layer: sum(v for k, v in self_times.items() if k.startswith(layer + ".")) / n
                 for layer in LAYERS + (OP_LAYER,)}
        return {"metrics": metrics, "self_s_per_op": table,
                "traced_op_s": sum(traced) / n, "untraced_op_s": sum(untraced) / n}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
