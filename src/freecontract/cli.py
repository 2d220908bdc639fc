"""Command-line front end.

Every subcommand reads JSON inputs, computes its result fully and returns
its artifacts as (path, text, fallback) triples.  The text goes to the path,
or else to the fallback stream: stdout for the primary artifact, stderr for
the rmt sidecar and the scan summary, none for the scan SVG.  `main` alone
writes them, opening every path before writing any, so a failed run creates
and changes no file.  An existing output is overwritten from its start and
cut to its new length, never emptied first: it keeps its hard links and
permissions, and a run interrupted mid-write can leave the new text followed
by the old file's tail.  Exit codes: 0 success, 1 usage error, 2 domain,
convergence or file error.  All randomness flows from --seed through fixed
Philox streams (see :mod:`freecontract.rng`); re-running a command with
identical flags produces byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import stat
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from . import additivity, freepower, measures, qchannel, rmt, tnorm
from .errors import ConvergenceError, DomainError
from .rng import GENERATOR_NAME


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sha256_of(obj) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _csv_text(header, rows) -> str:
    """CSV lines: "" for None, repr for a float and str otherwise."""
    return "".join(",".join("" if v is None else repr(v) if isinstance(v, float) else str(v)
                            for v in row) + "\n" for row in [header, *rows])


def _emit(artifacts) -> None:
    """Write every artifact or none.  Every path is opened, without being
    emptied, before any is written; if an open fails or two outputs are one
    file, the files this run created are removed and the error propagates.
    An existing file is overwritten from its start and then cut to its new
    length, so it keeps its inode, hard links and permissions; a run stopped
    mid-write can leave the new text followed by the old file's tail."""
    paths = [path for path, _, _ in artifacts if path]
    handles = []
    with contextlib.ExitStack() as opened:
        with contextlib.ExitStack() as undo:
            for path in paths:
                existed = os.path.lexists(path)
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                if not existed:
                    undo.callback(os.remove, path)
                handles.append(opened.enter_context(open(fd, "w", newline="")))
            stats = [os.fstat(fh.fileno()) for fh in handles]
            if len({(st.st_dev, st.st_ino) for st in stats}) < len(stats):
                raise DomainError("two outputs name the same path")
            undo.pop_all()
        handles = iter(zip(handles, stats))
        for path, text, fallback in artifacts:
            if path:
                fh, st = next(handles)
                fh.write(text)
                if stat.S_ISREG(st.st_mode):   # not a device or a pipe
                    fh.truncate()
            elif fallback is not None:
                fallback.write(text)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _meta(args) -> dict:
    return {"seed": args.seed, "generator": GENERATOR_NAME}


def _json_out(obj: dict, args) -> tuple:
    """obj with the run's meta, as the primary artifact."""
    obj["meta"] = _meta(args)
    return args.out, _json_text(obj), sys.stdout


# -- measure ----------------------------------------------------------------


def _cmd_measure_rho(args) -> list:
    mu = measures.load_measure(args.measure)
    rho = measures.nevanlinna_rho(mu)
    obj = measures.measure_to_json(rho)
    obj["total_mass"] = rho.total_mass
    return [_json_out(obj, args)]


# -- power --------------------------------------------------------------------


def _cmd_power(args) -> list:
    mu = measures.load_measure(args.measure)
    result = freepower.free_power(mu, args.T)
    return [_json_out(result.to_json(density_grid=args.density_grid), args)]


# -- tnorm ---------------------------------------------------------------------


def _cmd_tnorm(args) -> list:
    spec = measures.load_spec(args.spec)
    report = tnorm.tnorm_report(spec, args.t, L=args.L, all_bounds=args.all_bounds)
    obj = dict(vars(report))   # a copy: the CSV drops a column
    if args.format == "json":
        return [_json_out(obj, args)]
    del obj["upper_abs_atom"]
    return [(args.out, _csv_text(obj, [obj.values()]), sys.stdout)]


# -- rmt -------------------------------------------------------------------


def _cmd_rmt(args) -> list:
    spec = measures.load_spec(args.spec)
    sample = rmt.compressed_spectrum(spec, args.t, args.N, args.seed)
    rows = ((sample.N, sample.t, sample.seed, eig) for eig in sample.eigenvalues.tolist())
    meta = sample.metadata()
    meta["spec_sha256"] = _sha256_of(measures.spec_to_json(spec))
    meta.update(_meta(args))
    return [(args.out, _csv_text(("N", "t", "seed", "eigenvalue"), rows), sys.stdout),
            (args.out and args.out + ".meta.json", _json_text(meta), sys.stderr)]


# -- channel --------------------------------------------------------------


def _channel_of(args) -> qchannel.ChannelInstance:
    return qchannel.random_channel(args.k, args.n, args.t, args.seed)


def _cmd_channel_sample(args) -> list:
    ch = _channel_of(args)
    spectra = qchannel.sample_output_spectra(ch, args.count, args.seed)
    header = ["seed", "sample"] + [f"lambda_{i + 1}" for i in range(ch.k)]
    rows = ([args.seed, idx] + row for idx, row in enumerate(spectra.tolist()))
    return [(args.out, _csv_text(header, rows), sys.stdout)]


def _cmd_channel_bell(args) -> list:
    ch = _channel_of(args)
    out = qchannel.bell_output(ch)
    lam_max = float(out.eigenvalues()[-1])
    obj = qchannel.metadata(ch)
    obj.update({
        "lambda_max": lam_max,
        "entropy": qchannel.entropy(out),
        "product_bound": additivity.product_bound(ch.k, ch.t_effective),
    })
    return [_json_out(obj, args)]


def _cmd_channel_concentration(args) -> list:
    ch = _channel_of(args)
    stat = qchannel.concentration_stat(ch, args.count, args.seed)
    obj = qchannel.metadata(ch)
    obj.update(asdict(stat))
    obj["count"] = args.count
    return [_json_out(obj, args)]


def _cmd_channel_hmin(args) -> list:
    ch = _channel_of(args)
    estimate = qchannel.hmin_estimate(ch, args.restarts, args.seed)
    obj = qchannel.metadata(ch)
    obj.update({"hmin_estimate": estimate, "restarts": args.restarts})
    return [_json_out(obj, args)]


# -- violation ----------------------------------------------------------------


def _cmd_violation_eval(args) -> list:
    return [_json_out(asdict(additivity.gap_g(args.k, args.r)), args)]


def _cmd_violation_scan(args) -> list:
    ks = additivity.k_grid(args.kmin, args.kmax, args.kpoints)
    rs = additivity.r_grid(args.rmin, args.rmax, args.rstep)
    grid, summary = additivity.scan_violation(ks, rs)
    return [(args.out, additivity.scan_csv_text(grid), sys.stdout),
            (args.summary, _json_text({**asdict(summary), "meta": _meta(args)}), sys.stderr),
            (args.svg, additivity.contour_svg(grid) if args.svg else None, None)]


# -- parser ---------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parse_args fills a
    fresh namespace on every call, so reusing it carries nothing over."""
    parser = _Parser(prog="freecontract",
                     description="free contraction norm laboratory")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_measure = sub.add_parser("measure", help="atomic-measure utilities")
    measure_sub = p_measure.add_subparsers(dest="subcommand", required=True,
                                           parser_class=_Parser)
    p_rho = measure_sub.add_parser("rho", help="remainder measure of 1/G")
    p_rho.add_argument("--measure", required=True, help="measure JSON path")
    _common_flags(p_rho)
    p_rho.set_defaults(func=_cmd_measure_rho)

    p_power = sub.add_parser("power", help="fractional free convolution power")
    p_power.add_argument("--measure", required=True)
    p_power.add_argument("--T", type=float, required=True)
    p_power.add_argument("--density-grid", type=int, default=0)
    _common_flags(p_power)
    p_power.set_defaults(func=_cmd_power)

    p_tnorm = sub.add_parser("tnorm", help="exact norm and estimates")
    p_tnorm.add_argument("--spec", required=True, help="HermitianSpec JSON path")
    p_tnorm.add_argument("--t", type=float, required=True)
    p_tnorm.add_argument("--all-bounds", action="store_true")
    p_tnorm.add_argument("--L", type=float, default=None,
                         help="norm cap for the lower bound (default: max eigenvalue)")
    p_tnorm.add_argument("--format", choices=("json", "csv"), default="json")
    _common_flags(p_tnorm)
    p_tnorm.set_defaults(func=_cmd_tnorm)

    p_rmt = sub.add_parser("rmt", help="random-matrix compression oracle")
    p_rmt.add_argument("--spec", required=True)
    p_rmt.add_argument("--t", type=float, required=True)
    p_rmt.add_argument("--N", type=int, required=True)
    _common_flags(p_rmt)
    p_rmt.set_defaults(func=_cmd_rmt)

    p_channel = sub.add_parser("channel", help="random quantum channel Monte Carlo")
    channel_sub = p_channel.add_subparsers(dest="subcommand", required=True,
                                           parser_class=_Parser)
    for name, func, extra in (
        ("sample", _cmd_channel_sample, ("count",)),
        ("bell", _cmd_channel_bell, ()),
        ("concentration", _cmd_channel_concentration, ("count",)),
        ("hmin", _cmd_channel_hmin, ("restarts",)),
    ):
        sp = channel_sub.add_parser(name)
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--t", type=float, required=True)
        if "count" in extra:
            sp.add_argument("--count", type=int, default=1000)
        if "restarts" in extra:
            sp.add_argument("--restarts", type=int, default=8)
        _common_flags(sp)
        sp.set_defaults(func=func)

    p_violation = sub.add_parser("violation", help="additivity-gap analysis")
    violation_sub = p_violation.add_subparsers(dest="subcommand", required=True,
                                               parser_class=_Parser)
    p_eval = violation_sub.add_parser("eval")
    p_eval.add_argument("--k", type=int, required=True)
    p_eval.add_argument("--r", type=float, required=True)
    _common_flags(p_eval)
    p_eval.set_defaults(func=_cmd_violation_eval)

    p_scan = violation_sub.add_parser("scan")
    p_scan.add_argument("--kmin", type=float, required=True)
    p_scan.add_argument("--kmax", type=float, required=True)
    p_scan.add_argument("--kpoints", type=int, default=200)
    p_scan.add_argument("--rmin", type=float, default=1.0)
    p_scan.add_argument("--rmax", type=float, default=2.0)
    p_scan.add_argument("--rstep", type=float, default=0.001)
    p_scan.add_argument("--summary", default=None,
                        help="summary JSON path (default stderr)")
    p_scan.add_argument("--svg", default=None, help="optional contour SVG path")
    _common_flags(p_scan)
    p_scan.set_defaults(func=_cmd_violation_scan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    try:
        _emit(args.func(args))
        return 0
    except (DomainError, ConvergenceError, OSError) as exc:
        sys.stderr.write(f"freecontract: error: {exc}\n")
        return 2
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"freecontract: error: malformed JSON input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
