"""Command-line front end.

One process runs one command: trace, residue, quasinorm, weyl, boundary,
parametrix, oracle-check or s0-check.  Each prints a short human summary to
stdout and optionally writes a result JSON (--out-json); the commands that
build a partial-sum series also write it as a plot-ready CSV (--out-csv).
Exit status is 0 for convergent/finite verdicts, 2 for computed-but-flagged
outcomes (divergent trace, unstable quasi-norm, oracle mismatch, no
summable s found) and 1 for configuration or runtime errors.

Each command has only the flags its handler reads; the verdict thresholds
are fixed rules of the trace, boundary and oracle modules, not flags.
Every default lives in build_parser, except those of --dim and --nu, which
parse_geometry applies to file geometries and refuses on built-in kinds;
`dixtrace CMD --help` prints them all.
Flags may also come from a JSON config file (--config) keyed by long flag
names: an entry means what the flag's text means, null is absent, and
explicit flags win.
"""

from __future__ import annotations

import os

# idle OpenBLAS workers spin 2^28 cycles (~0.1 CPU-s) before they sleep; 2^20 sleeps them at once
if "OPENBLAS_THREAD_TIMEOUT" not in os.environ and "GOTO_THREAD_TIMEOUT" not in os.environ:
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "20"

# numpy loads after the timeout is set, and the package's modules load
# before argparse and json, so their import peak does not stack on those
import numpy as np

# perfbench/tracer.py wraps cli.boundary_dixmier_weyl and cli.parametrix_trace,
# so they stay imported
from .boundary import (AlphaTable, BoundarySymbol, IntervalBC, PowerDecay,
                       boundary_dixmier, boundary_dixmier_weyl, boundary_series,
                       boundary_weyl_series, parametrix_trace,
                       s0_summability_check)
from .errors import ConfigError, DixtraceError, SizeError, count_text
from .geometry import Geometry, parse_geometry
from .oracle import DEFAULT_CAP, compare_symbol_vs_oracle
from .summation import (SCHEMA_VERSION, PartialSumSeries, counting_series,
                        dyadic_grid, partial_sums, weyl_fit)
from .symbol import parse_complex, parse_symbol
from .trace import (density_integral_from_samples, dixmier_estimate, quasinorm,
                    residue_factored)

import argparse
import json
import math
import sys


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the exit-code contract
    reserves 2 for flagged-but-computed outcomes, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dixtrace",
                     description="Dixmier traces and quasi-norms of Fourier "
                                 "multipliers from their global symbols")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, csv=True):
        p.add_argument("--config", help="JSON file of flag values; explicit flags override")
        p.add_argument("--out-json", help="write the result record here")
        if csv:
            p.add_argument("--out-csv", help="write the cutoff/count/sum/f series here")

    def add_grid(p, ppo=True):
        p.add_argument("--nmax", type=float, default="1e5",
                       help="largest cutoff (default %(default)s)")
        if ppo:
            p.add_argument("--points-per-octave", type=int, default=4,
                           help="dyadic grid resolution (default %(default)s)")

    def add_geometry(p, symbol=True):
        p.add_argument("--geometry", help="torus:N | su2 | so3 | su3 | sphere:N | file:PATH")
        if symbol:
            p.add_argument("--symbol",
                           help="radial:s | bessel:s:nu | power:s[:shift] | "
                                "modulus:s | scaled:c:INNER | mask:INNER | "
                                "diag:PATH | matrix:PATH")
        p.add_argument("--dim", type=int,
                       help="manifold dimension for file geometries (default 1)")
        p.add_argument("--nu", type=float,
                       help="Laplacian order for file geometries (default 2.0)")

    def add_boundary(p, default_symbol, ppo=True):
        p.add_argument("--a", type=parse_complex, default=repr(-math.e),
                       help="boundary parameter a, complex (default %(default)s)")
        p.add_argument("--b", type=parse_complex, default="1",
                       help="boundary parameter b, complex (default %(default)s)")
        p.add_argument("--alpha", default="zero",
                       help="perturbation: zero | power:c:eps | table:PATH "
                            "(default %(default)s)")
        p.add_argument("--order", type=int, default=1,
                       help="operator order m (default %(default)s)")
        p.add_argument("--cutoff-kind", default="index", choices=["index", "eigenvalue"],
                       help="cut on enumeration index or on |lambda|^(1/m) "
                            "(default %(default)s)")
        p.add_argument("--boundary-symbol", default=default_symbol,
                       help="inverse | one | spectrum | table:PATH (default %(default)s)")
        add_grid(p, ppo)

    p = sub.add_parser("trace", help="extrapolated Dixmier trace of a multiplier")
    add_geometry(p); add_grid(p); add_common(p)

    p = sub.add_parser("residue",
                       help="noncommutative residue of a factored symbol")
    add_geometry(p); add_grid(p)
    p.add_argument("--a-integral", type=float, help="mean of the spatial density a(x)")
    p.add_argument("--density-samples-file",
                   help="whitespace-separated a(x) samples; their mean is used")
    add_common(p)

    p = sub.add_parser("quasinorm",
                       help="Marcinkiewicz L^(p,infty) quasi-norm proxy")
    add_geometry(p); add_grid(p)
    p.add_argument("--p", type=float, help="exponent, 1 < p < inf")
    add_common(p)

    p = sub.add_parser("weyl", help="log-log fit of the eigenvalue count")
    add_geometry(p, symbol=False); add_grid(p); add_common(p)

    p = sub.add_parser("boundary",
                       help="boundary-model trace over interval spectra")
    add_boundary(p, "inverse")
    p.add_argument("--kappa", type=int, default=1,
                   help="dimension for the Weyl-rescaled cutoff (default %(default)s)")
    add_common(p)

    p = sub.add_parser("parametrix",
                       help="Dixmier trace of the inverse boundary symbol")
    add_boundary(p, "spectrum"); add_common(p)

    p = sub.add_parser("oracle-check",
                       help="symbol-side vs operator-side singular values")
    add_geometry(p)
    p.add_argument("--cutoff", type=float, help="weight cutoff")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="largest allowed total dimension (default %(default)s)")
    add_common(p, csv=False)

    p = sub.add_parser("s0-check",
                       help="smallest s with sum <xi>^-s convergent")
    add_boundary(p, "spectrum", ppo=False)
    p.add_argument("--s-grid", help="comma-separated s values, strictly increasing")
    add_common(p, csv=False)

    return parser


def _parse(argv) -> dict:
    """Parse argv.  A --config file's entries go in as `--flag=value` right
    after the command and argv is parsed again, so argparse reads each entry
    as the flag's text (type= and choices=), explicit flags, which come
    later, win, and a null is absent."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    ns = vars(parser.parse_args(argv))
    path = ns["config"]
    if not path:
        return ns
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc)) from None
    if not isinstance(doc, dict):
        raise ConfigError("config %s must hold a JSON object" % path)
    entries = []
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config"):
            raise ConfigError("config key %r is not allowed" % key)
        if dest not in ns:
            raise ConfigError("config %s has unknown key %r" % (path, key))
        if value is not None:
            entries.append("--%s=%s" % (dest.replace("_", "-"), value))
    # the top-level parser has no flags of its own, so argv[0] is the command
    return vars(parser.parse_args(argv[:1] + entries + argv[1:]))


def _nmax(ns: dict) -> float:
    if not math.isfinite(ns["nmax"]):
        raise ConfigError("--nmax must be finite, got %r" % (ns["nmax"],))
    return ns["nmax"]


def _grid(ns: dict) -> np.ndarray:
    return dyadic_grid(_nmax(ns), ns["points_per_octave"])


def _geometry(ns: dict) -> Geometry:
    if not ns["geometry"]:
        raise ConfigError("--geometry is required")
    return parse_geometry(ns["geometry"], dim=ns["dim"], nu=ns["nu"])


def _symbol(ns: dict):
    if not ns["symbol"]:
        raise ConfigError("--symbol is required")
    return parse_symbol(ns["symbol"])


def _build_series(ns: dict) -> tuple:
    geom = _geometry(ns)
    spec = _symbol(ns)
    series = partial_sums(geom, spec, _grid(ns))
    return geom, series


def _write_json(ns: dict, payload: dict) -> None:
    path = ns["out_json"]
    if not path:
        return
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(ns: dict, series: PartialSumSeries) -> None:
    if ns["out_csv"]:
        series.to_csv(ns["out_csv"], extra_f=True)


def _verdict_exit(verdict: str) -> int:
    return 0 if verdict in ("convergent", "vanishing") else 2


def _print_estimate(est, label: str = "tau_hat") -> None:
    print("%s = %.10g   (last grid point %.10g, fit residual %.3g)"
          % (label, est.value, est.naive_last, est.fit_residual))
    print("verdict: %s" % est.verdict)


def _build_bc(ns: dict) -> IntervalBC:
    alpha_text = ns["alpha"]
    head, _, tail = alpha_text.partition(":")
    if head == "zero" or alpha_text == "":
        alpha = None
    elif head == "power":
        c_text, _, eps_text = tail.partition(":")
        try:
            alpha = PowerDecay(c=parse_complex(c_text), eps=float(eps_text))
        except ValueError:
            raise ConfigError("bad perturbation spec %r; want power:c:eps"
                              % alpha_text) from None
    elif head == "table":
        if not tail:
            raise ConfigError("table alpha needs a path: table:PATH")
        alpha = AlphaTable(tail)
    else:
        raise ConfigError("unknown alpha model %r" % alpha_text)
    return IntervalBC(a=ns["a"], b=ns["b"], alpha=alpha, order=ns["order"])


def _build_boundary_symbol(ns: dict) -> BoundarySymbol:
    kind = ns["boundary_symbol"]
    head, _, tail = kind.partition(":")
    if head == "table":
        if not tail:
            raise ConfigError("table boundary symbol needs a path: table:PATH")
        return BoundarySymbol.from_file(tail, order=ns["order"])
    bc = _build_bc(ns)
    nmax = _nmax(ns)
    if ns["cutoff_kind"] == "eigenvalue":
        # weight cutoff N reaches |lambda| ~ N^m; indices run to N^m/(2 pi)
        try:
            j_max = int(nmax ** bc.order / (2.0 * math.pi)) + 2
        except OverflowError:
            raise SizeError("--nmax %g to the power %d overflows" % (nmax, bc.order)) from None
    else:
        j_max = int(nmax // 2) + 1
    if head == "inverse":
        return BoundarySymbol.inverse_spectrum(bc, j_max)
    if head == "spectrum":
        return BoundarySymbol.spectrum_symbol(bc, j_max)
    if head == "one":
        return BoundarySymbol.one(bc, j_max)
    raise ConfigError("unknown boundary symbol %r" % kind)


def _cmd_trace(ns: dict) -> int:
    geom, series = _build_series(ns)
    est = dixmier_estimate(series)
    print("geometry: %s   symbol: %s   picture: %s"
          % (geom.describe(), ns["symbol"], series.picture))
    _print_estimate(est)
    _write_csv(ns, series)
    _write_json(ns, {"command": "trace", "geometry": geom.describe(),
                     "symbol": ns["symbol"], "picture": series.picture,
                     "estimate": est.to_json_dict()})
    return _verdict_exit(est.verdict)


def _cmd_residue(ns: dict) -> int:
    a_int, samples_file = ns["a_integral"], ns["density_samples_file"]
    if a_int is not None and samples_file:
        raise ConfigError("give either --a-integral or --density-samples-file, "
                          "not both")
    if samples_file:
        with open(samples_file, "r", encoding="utf-8") as fh:  # line by line
            try:
                a_int = density_integral_from_samples(t for ln in fh for t in ln.split())
            except ValueError as exc:
                raise ConfigError("density samples file %s: %s" % (samples_file, exc)) from None
    elif a_int is None:
        raise ConfigError("residue needs --a-integral or --density-samples-file")
    geom, series = _build_series(ns)
    est = residue_factored(a_int, series)
    print("geometry: %s   symbol: %s   density integral: %.10g"
          % (geom.describe(), ns["symbol"], a_int))
    _print_estimate(est, label="residue_hat")
    _write_csv(ns, series)
    _write_json(ns, {"command": "residue", "geometry": geom.describe(),
                     "symbol": ns["symbol"], "a_integral": a_int,
                     "estimate": est.to_json_dict()})
    return _verdict_exit(est.verdict)


def _cmd_quasinorm(ns: dict) -> int:
    p_val = ns["p"]
    if p_val is None:
        raise ConfigError("quasinorm needs --p")
    geom, series = _build_series(ns)
    result = quasinorm(series, p_val)
    print("geometry: %s   symbol: %s   p = %g"
          % (geom.describe(), ns["symbol"], p_val))
    print("gamma_p = %.10g at cutoff %.6g   stable: %s"
          % (result.gamma, result.argmax_cutoff, result.stable))
    _write_csv(ns, series)
    _write_json(ns, {"command": "quasinorm", "geometry": geom.describe(),
                     "symbol": ns["symbol"], "p": result.p,
                     "gamma": result.gamma,
                     "argmax_cutoff": result.argmax_cutoff,
                     "stable": result.stable})
    return 0 if result.stable else 2


def _cmd_weyl(ns: dict) -> int:
    geom = _geometry(ns)
    series = counting_series(geom, _grid(ns))
    fit = weyl_fit(series)
    print("geometry: %s" % geom.describe())
    print("kappa_hat = %.6g   C0_hat = %.6g   residual %.3g   (%d points)"
          % (fit.kappa_hat, fit.c0_hat, fit.residual, fit.points_used))
    _write_csv(ns, series)
    _write_json(ns, {"command": "weyl", "geometry": geom.describe(),
                     "kappa_hat": fit.kappa_hat, "c0_hat": fit.c0_hat,
                     "residual": fit.residual,
                     "points_used": fit.points_used})
    return 0


def _cmd_boundary(ns: dict) -> int:
    sym = _build_boundary_symbol(ns)
    grid = _grid(ns)
    if ns["cutoff_kind"] == "eigenvalue":
        kappa = ns["kappa"]
        series = boundary_weyl_series(sym, kappa, grid)
        est = dixmier_estimate(series)
        cut_desc = "|lambda|^(1/%d) <= N, kappa = %d" % (sym.order, kappa)
    else:
        series = boundary_series(sym, grid)
        est = boundary_dixmier(sym, grid)
        cut_desc = "enumeration index"
    print("boundary model, %s spectral points, cutoffs on %s"
          % (count_text(sym.size), cut_desc))
    _print_estimate(est)
    _write_csv(ns, series)
    _write_json(ns, {"command": "boundary", "cutoff_kind": ns["cutoff_kind"],
                     "points": sym.size, "estimate": est.to_json_dict()})
    return _verdict_exit(est.verdict)


def _cmd_parametrix(ns: dict) -> int:
    sym = _build_boundary_symbol(ns)
    grid = _grid(ns)
    series = boundary_series(sym.reciprocal(), grid)  # parametrix_trace's one fold
    est = dixmier_estimate(series)
    print("parametrix of a %s-point boundary symbol, index cutoffs" % count_text(sym.size))
    _print_estimate(est)
    _write_csv(ns, series)
    _write_json(ns, {"command": "parametrix", "points": sym.size,
                     "estimate": est.to_json_dict()})
    return _verdict_exit(est.verdict)


def _cmd_oracle_check(ns: dict) -> int:
    cutoff = ns["cutoff"]
    if cutoff is None:
        raise ConfigError("oracle-check needs --cutoff")
    geom = _geometry(ns)
    spec = _symbol(ns)
    report = compare_symbol_vs_oracle(geom, spec, cutoff, cap=ns["cap"])
    print("oracle check on %s, %s, cutoff %g: %d singular values"
          % (geom.describe(), ns["symbol"], cutoff, report["total_dim"]))
    print("max abs diff %.3g, relative sum diff %.3g, tolerance %.1g -> %s"
          % (report["max_abs"], report["sum_rel_diff"], report["tolerance"],
             "ok" if report["passed"] else "MISMATCH"))
    _write_json(ns, {"command": "oracle-check", "geometry": geom.describe(),
                     "symbol": ns["symbol"], "cutoff": cutoff,
                     "report": report})
    return 0 if report["passed"] else 2


def _cmd_s0_check(ns: dict) -> int:
    if not ns["s_grid"]:
        raise ConfigError("s0-check needs --s-grid, e.g. 0,0.5,1,2")
    try:
        s_values = [float(tok) for tok in ns["s_grid"].split(",") if tok]
    except ValueError:
        raise ConfigError("bad --s-grid %r" % ns["s_grid"]) from None
    sym = _build_boundary_symbol(ns)
    report = s0_summability_check(sym, s_values)
    print("summability of sum <xi>^-s over %s boundary points:" % count_text(sym.size))
    for row in report.rows:
        print("  s = %-8g partial sum %.6g   octave ratio %.4f   %s"
              % (row.s, row.partial_sum, row.octave_ratio,
                 "converges" if row.converges else "diverges"))
    if report.s0_estimate is not None:
        print("smallest convergent s on the grid: %g" % report.s0_estimate)
    else:
        print("no s on the grid converges")
    _write_json(ns, {"command": "s0-check",
                     "rows": [{"s": r.s, "partial_sum": r.partial_sum,
                               "octave_ratio": r.octave_ratio,
                               "converges": r.converges}
                              for r in report.rows],
                     "s0_estimate": report.s0_estimate})
    return 0 if report.s0_estimate is not None else 2


_COMMANDS = {
    "trace": _cmd_trace,
    "residue": _cmd_residue,
    "quasinorm": _cmd_quasinorm,
    "weyl": _cmd_weyl,
    "boundary": _cmd_boundary,
    "parametrix": _cmd_parametrix,
    "oracle-check": _cmd_oracle_check,
    "s0-check": _cmd_s0_check,
}


def main(argv=None) -> int:
    try:
        ns = _parse(argv)
        # every value a command keeps is checked finite, so numpy's overflow
        # warnings would only print ahead of the one error line
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[ns["command"]](ns)
    except (DixtraceError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
