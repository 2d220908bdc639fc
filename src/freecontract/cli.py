"""Command-line front end.

Every subcommand reads JSON inputs, computes its result fully, and only
then writes the primary artifact (stdout unless --out is given), so failed
runs never leave partial output files.  Exit codes: 0 success, 1 usage
error, 2 domain, convergence or file error.  All randomness flows from --seed
through fixed Philox streams (see :mod:`freecontract.rng`); re-running a
command with identical flags produces byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import sys
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


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _meta(args) -> dict:
    return {"seed": args.seed, "generator": GENERATOR_NAME}


def _write_json(obj: dict, args) -> None:
    """Add the run's meta to obj and write it as the primary artifact."""
    obj["meta"] = _meta(args)
    _write(_json_text(obj), args.out)


# -- measure ----------------------------------------------------------------


def _cmd_measure_rho(args) -> int:
    mu = measures.load_measure(args.measure)
    rho = measures.nevanlinna_rho(mu)
    obj = measures.measure_to_json(rho)
    obj["total_mass"] = rho.total_mass
    _write_json(obj, args)
    return 0


# -- power --------------------------------------------------------------------


def _cmd_power(args) -> int:
    mu = measures.load_measure(args.measure)
    result = freepower.free_power(mu, args.T)
    _write_json(result.to_json(density_grid=args.density_grid), args)
    return 0


# -- tnorm ---------------------------------------------------------------------


def _cmd_tnorm(args) -> int:
    spec = measures.load_spec(args.spec)
    report = tnorm.tnorm_report(spec, args.t, L=args.L, all_bounds=args.all_bounds)
    if args.format == "csv":
        buf = io.StringIO()
        buf.write("t,exact,upper,lower,kargin,asymptote,atom_dominated\n")
        row = report.csv_row()
        buf.write(",".join("" if v is None else repr(v) if isinstance(v, float)
                           else str(v) for v in row) + "\n")
        _write(buf.getvalue(), args.out)
    else:
        _write_json(report.to_json(), args)
    return 0


# -- rmt -------------------------------------------------------------------


def _cmd_rmt(args) -> int:
    spec = measures.load_spec(args.spec)
    sample = rmt.compressed_spectrum(spec, args.t, args.N, args.seed)
    buf = io.StringIO()
    buf.write("N,t,seed,eigenvalue\n")
    for eig in sample.eigenvalues:
        buf.write(f"{sample.N},{sample.t!r},{sample.seed},{float(eig)!r}\n")
    meta = sample.metadata()
    meta["spec_sha256"] = _sha256_of(measures.spec_to_json(spec))
    meta.update(_meta(args))
    _write(buf.getvalue(), args.out)
    if args.out:
        with open(args.out + ".meta.json", "w") as fh:
            fh.write(_json_text(meta))
    else:
        sys.stderr.write(_json_text(meta))
    return 0


# -- channel --------------------------------------------------------------


def _channel_of(args) -> qchannel.ChannelInstance:
    return qchannel.random_channel(args.k, args.n, args.t, args.seed)


def _cmd_channel_sample(args) -> int:
    ch = _channel_of(args)
    spectra = qchannel.sample_output_spectra(ch, args.count, args.seed)
    buf = io.StringIO()
    header = ["seed", "sample"] + [f"lambda_{i + 1}" for i in range(ch.k)]
    buf.write(",".join(header) + "\n")
    for idx, row in enumerate(spectra):
        buf.write(",".join([str(args.seed), str(idx)]
                           + [repr(float(v)) for v in row]) + "\n")
    _write(buf.getvalue(), args.out)
    return 0


def _cmd_channel_bell(args) -> int:
    ch = _channel_of(args)
    out = qchannel.bell_output(ch)
    lam_max = float(out.eigenvalues()[-1])
    obj = qchannel.metadata(ch)
    obj.update({
        "lambda_max": lam_max,
        "entropy": qchannel.entropy(out),
        "product_bound": additivity.product_bound(ch.k, ch.t_effective),
    })
    _write_json(obj, args)
    return 0


def _cmd_channel_concentration(args) -> int:
    ch = _channel_of(args)
    stat = qchannel.concentration_stat(ch, args.count, args.seed)
    obj = qchannel.metadata(ch)
    obj.update(stat.to_json())
    obj["count"] = args.count
    _write_json(obj, args)
    return 0


def _cmd_channel_hmin(args) -> int:
    ch = _channel_of(args)
    estimate = qchannel.hmin_estimate(ch, args.restarts, args.seed)
    obj = qchannel.metadata(ch)
    obj.update({"hmin_estimate": estimate, "restarts": args.restarts})
    _write_json(obj, args)
    return 0


# -- violation ----------------------------------------------------------------


def _cmd_violation_eval(args) -> int:
    _write_json(additivity.gap_g(args.k, args.r).to_json(), args)
    return 0


def _cmd_violation_scan(args) -> int:
    ks = additivity.k_grid(args.kmin, args.kmax, args.kpoints)
    rs = additivity.r_grid(args.rmin, args.rmax, args.rstep)
    grid, summary = additivity.scan_violation(ks, rs)
    csv_text = additivity.scan_csv_text(grid)
    svg_text = additivity.contour_svg(grid) if args.svg else None
    summary_obj = summary.to_json()
    summary_obj["meta"] = _meta(args)
    _write(csv_text, args.out)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(_json_text(summary_obj))
    else:
        sys.stderr.write(_json_text(summary_obj))
    if svg_text is not None:
        with open(args.svg, "w") as fh:
            fh.write(svg_text)
    return 0


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
        return args.func(args)
    except (DomainError, ConvergenceError, OSError) as exc:
        sys.stderr.write(f"freecontract: error: {exc}\n")
        return 2
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"freecontract: error: malformed JSON input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
