"""Command-line front end.

One process runs one command: trace, residue, quasinorm, weyl, boundary,
parametrix, oracle-check or s0-check.  Each prints a short human summary to
stdout and optionally writes a result JSON (--out-json) and a plot-ready
series CSV (--out-csv).  Exit status is 0 for convergent/finite verdicts,
2 for computed-but-flagged outcomes (divergent trace, unstable quasi-norm,
oracle mismatch, no summable s found) and 1 for configuration or runtime
errors.

Flags may also come from a JSON config file (--config); explicit flags win
over config entries.  Default grid: dyadic cutoffs, 4 points per octave,
up to 1e5.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .boundary import (AlphaTable, BoundarySymbol, IntervalBC, PowerDecay,
                       boundary_dixmier, boundary_dixmier_weyl, boundary_series,
                       boundary_weyl_series, parametrix_trace,
                       s0_summability_check)
from .errors import ConfigError, DixtraceError, SizeError
from .geometry import Geometry, parse_geometry
from .oracle import compare_symbol_vs_oracle
from .summation import (SCHEMA_VERSION, PartialSumSeries, counting_series,
                        dyadic_grid, partial_sums, weyl_fit)
from .symbol import parse_complex, parse_symbol
from .trace import (DIVERGENCE_THRESHOLD, STABILITY_RTOL, VANISHING_REL,
                    density_integral_from_samples, dixmier_estimate,
                    quasinorm, residue_factored)

DEFAULT_NMAX = 1e5
DEFAULT_PPO = 4


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

    def add_common(p):
        p.add_argument("--config", default=None,
                       help="JSON file of flag values; explicit flags override")
        p.add_argument("--out-json", dest="out_json", default=None,
                       help="write the result record here")
        p.add_argument("--out-csv", dest="out_csv", default=None,
                       help="write the cutoff/count/sum/f series here")

    def add_grid(p):
        p.add_argument("--nmax", type=float, default=None,
                       help="largest cutoff (default 1e5)")
        p.add_argument("--points-per-octave", dest="points_per_octave",
                       type=int, default=None,
                       help="dyadic grid resolution (default 4)")

    def add_geometry(p):
        p.add_argument("--geometry", default=None,
                       help="torus:N | su2 | so3 | su3 | sphere:N | file:PATH")
        p.add_argument("--symbol", default=None,
                       help="radial:s | bessel:s:nu | power:s[:shift] | "
                            "modulus:s | scaled:c:INNER | mask:INNER | "
                            "diag:PATH | matrix:PATH")
        p.add_argument("--dim", type=int, default=None,
                       help="manifold dimension for file geometries")
        p.add_argument("--nu", type=float, default=None,
                       help="Laplacian order for file geometries")
        p.add_argument("--picture", default=None,
                       choices=["manifold", "group", "homogeneous"],
                       help="summation picture (default: natural one for the "
                            "geometry)")

    def add_tolerances(p):
        p.add_argument("--divergence-threshold", dest="divergence_threshold",
                       type=float, default=None)
        p.add_argument("--vanishing-rel", dest="vanishing_rel",
                       type=float, default=None)

    def add_boundary(p):
        p.add_argument("--a", default=None, help="boundary parameter a (complex)")
        p.add_argument("--b", default=None, help="boundary parameter b (complex)")
        p.add_argument("--alpha", default=None,
                       help="perturbation: zero | power:c:eps | table:PATH")
        p.add_argument("--order", type=int, default=None,
                       help="operator order m (default 1)")
        p.add_argument("--kappa", type=int, default=None,
                       help="dimension for the Weyl-rescaled cutoff (default 1)")
        p.add_argument("--cutoff-kind", dest="cutoff_kind", default=None,
                       choices=["index", "eigenvalue"],
                       help="cut on enumeration index (default) or on "
                            "|lambda|^(1/m)")
        p.add_argument("--boundary-symbol", dest="boundary_symbol", default=None,
                       help="inverse | one | spectrum | table:PATH")
        add_grid(p)

    p = sub.add_parser("trace", help="extrapolated Dixmier trace of a multiplier")
    add_geometry(p); add_grid(p); add_tolerances(p); add_common(p)

    p = sub.add_parser("residue",
                       help="noncommutative residue of a factored symbol")
    add_geometry(p); add_grid(p); add_tolerances(p)
    p.add_argument("--a-integral", dest="a_integral", type=float, default=None,
                   help="mean of the spatial density a(x)")
    p.add_argument("--density-samples-file", dest="density_samples_file",
                   default=None,
                   help="whitespace-separated a(x) samples; their mean is used")
    add_common(p)

    p = sub.add_parser("quasinorm",
                       help="Marcinkiewicz L^(p,infty) quasi-norm proxy")
    add_geometry(p); add_grid(p)
    p.add_argument("--p", type=float, default=None, help="exponent, 1 < p < inf")
    p.add_argument("--stability-rtol", dest="stability_rtol", type=float,
                   default=None)
    add_common(p)

    p = sub.add_parser("weyl", help="log-log fit of the eigenvalue count")
    add_geometry(p); add_grid(p); add_common(p)

    p = sub.add_parser("boundary",
                       help="boundary-model trace over interval spectra")
    add_boundary(p); add_tolerances(p); add_common(p)

    p = sub.add_parser("parametrix",
                       help="Dixmier trace of the inverse boundary symbol")
    add_boundary(p); add_tolerances(p); add_common(p)

    p = sub.add_parser("oracle-check",
                       help="symbol-side vs operator-side singular values")
    add_geometry(p)
    p.add_argument("--cutoff", type=float, default=None, help="weight cutoff")
    p.add_argument("--cap", type=int, default=None,
                   help="largest allowed total dimension (default 10000)")
    add_common(p)

    p = sub.add_parser("s0-check",
                       help="smallest s with sum <xi>^-s convergent")
    add_boundary(p)
    p.add_argument("--s-grid", dest="s_grid", default=None,
                   help="comma-separated s values, increasing")
    add_common(p)

    return parser


def _load_config(ns: dict) -> dict:
    path = ns.get("config")
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
    known = set(ns.keys())
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config"):
            raise ConfigError("config key %r is not allowed" % key)
        if dest not in known:
            raise ConfigError("config %s has unknown key %r" % (path, key))
        if ns.get(dest) is None:
            ns[dest] = value
    return ns


def _nmax(ns: dict) -> float:
    nmax = float(ns["nmax"]) if ns.get("nmax") is not None else DEFAULT_NMAX
    if not math.isfinite(nmax):
        raise ConfigError("--nmax must be finite, got %r" % (nmax,))
    return nmax


def _grid(ns: dict) -> np.ndarray:
    ppo = int(ns["points_per_octave"]) if ns.get("points_per_octave") is not None \
        else DEFAULT_PPO
    return dyadic_grid(_nmax(ns), ppo)


def _geometry(ns: dict) -> Geometry:
    if not ns.get("geometry"):
        raise ConfigError("--geometry is required")
    dim = int(ns["dim"]) if ns.get("dim") is not None else 1
    nu = float(ns["nu"]) if ns.get("nu") is not None else 2.0
    return parse_geometry(str(ns["geometry"]), dim=dim, nu=nu)


def _symbol(ns: dict):
    if not ns.get("symbol"):
        raise ConfigError("--symbol is required")
    return parse_symbol(str(ns["symbol"]))


def _build_series(ns: dict) -> tuple:
    geom = _geometry(ns)
    spec = _symbol(ns)
    series = partial_sums(geom, spec, _grid(ns), picture=ns.get("picture"))
    return geom, series


def _tolerances(ns: dict) -> tuple:
    dt = float(ns["divergence_threshold"]) if ns.get("divergence_threshold") \
        is not None else DIVERGENCE_THRESHOLD
    vr = float(ns["vanishing_rel"]) if ns.get("vanishing_rel") is not None \
        else VANISHING_REL
    return dt, vr


def _write_json(ns: dict, payload: dict) -> None:
    path = ns.get("out_json")
    if not path:
        return
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(ns: dict, series: PartialSumSeries | None) -> None:
    path = ns.get("out_csv")
    if path and series is not None:
        series.to_csv(path, extra_f=True)


def _verdict_exit(verdict: str) -> int:
    return 0 if verdict in ("convergent", "vanishing") else 2


def _print_estimate(est, label: str = "tau_hat") -> None:
    print("%s = %.10g   (last grid point %.10g, fit residual %.3g)"
          % (label, est.value, est.naive_last, est.fit_residual))
    print("verdict: %s" % est.verdict)


def _build_bc(ns: dict) -> IntervalBC:
    a = parse_complex(str(ns["a"])) if ns.get("a") is not None else complex(-math.e)
    b = parse_complex(str(ns["b"])) if ns.get("b") is not None else complex(1.0)
    alpha_text = str(ns["alpha"]) if ns.get("alpha") is not None else "zero"
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
    order = int(ns["order"]) if ns.get("order") is not None else 1
    return IntervalBC(a=a, b=b, alpha=alpha, order=order)


def _build_boundary_symbol(ns: dict, default_kind: str) -> BoundarySymbol:
    kind = str(ns["boundary_symbol"]) if ns.get("boundary_symbol") is not None \
        else default_kind
    head, _, tail = kind.partition(":")
    if head == "table":
        if not tail:
            raise ConfigError("table boundary symbol needs a path: table:PATH")
        order = int(ns["order"]) if ns.get("order") is not None else 1
        return BoundarySymbol.from_file(tail, order=order)
    bc = _build_bc(ns)
    nmax = _nmax(ns)
    if ns.get("cutoff_kind") == "eigenvalue":
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
    dt, vr = _tolerances(ns)
    est = dixmier_estimate(series, dt, vr)
    print("geometry: %s   symbol: %s   picture: %s"
          % (geom.describe(), ns["symbol"], series.picture))
    _print_estimate(est)
    _write_csv(ns, series)
    _write_json(ns, {"command": "trace", "geometry": geom.describe(),
                     "symbol": ns["symbol"], "picture": series.picture,
                     "estimate": est.to_json_dict()})
    return _verdict_exit(est.verdict)


def _cmd_residue(ns: dict) -> int:
    if ns.get("a_integral") is not None and ns.get("density_samples_file"):
        raise ConfigError("give either --a-integral or --density-samples-file, "
                          "not both")
    if ns.get("a_integral") is not None:
        a_int = float(ns["a_integral"])
    elif ns.get("density_samples_file"):
        with open(ns["density_samples_file"], "r", encoding="utf-8") as fh:
            samples = [float(tok) for tok in fh.read().split()]
        if not samples:
            raise ConfigError("density samples file is empty")
        a_int = density_integral_from_samples(samples)
    else:
        raise ConfigError("residue needs --a-integral or --density-samples-file")
    geom, series = _build_series(ns)
    dt, vr = _tolerances(ns)
    est = residue_factored(a_int, series, dt, vr)
    print("geometry: %s   symbol: %s   density integral: %.10g"
          % (geom.describe(), ns["symbol"], a_int))
    _print_estimate(est, label="residue_hat")
    _write_csv(ns, series)
    _write_json(ns, {"command": "residue", "geometry": geom.describe(),
                     "symbol": ns["symbol"], "a_integral": a_int,
                     "estimate": est.to_json_dict()})
    return _verdict_exit(est.verdict)


def _cmd_quasinorm(ns: dict) -> int:
    if ns.get("p") is None:
        raise ConfigError("quasinorm needs --p")
    p_val = float(ns["p"])
    rtol = float(ns["stability_rtol"]) if ns.get("stability_rtol") is not None \
        else STABILITY_RTOL
    geom, series = _build_series(ns)
    result = quasinorm(series, p_val, stability_rtol=rtol)
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
    sym = _build_boundary_symbol(ns, default_kind="inverse")
    grid = _grid(ns)
    dt, vr = _tolerances(ns)
    if ns.get("cutoff_kind") == "eigenvalue":
        kappa = int(ns["kappa"]) if ns.get("kappa") is not None else 1
        series = boundary_weyl_series(sym, kappa, grid)
        est = boundary_dixmier_weyl(sym, kappa, grid, dt, vr)
        cut_desc = "|lambda|^(1/%d) <= N, kappa = %d" % (sym.order, kappa)
    else:
        series = boundary_series(sym, grid)
        est = boundary_dixmier(sym, grid, dt, vr)
        cut_desc = "enumeration index"
    print("boundary model, %d spectral points, cutoffs on %s"
          % (len(sym), cut_desc))
    _print_estimate(est)
    _write_csv(ns, series)
    _write_json(ns, {"command": "boundary", "cutoff_kind":
                     ns.get("cutoff_kind") or "index",
                     "points": len(sym), "estimate": est.to_json_dict()})
    return _verdict_exit(est.verdict)


def _cmd_parametrix(ns: dict) -> int:
    sym = _build_boundary_symbol(ns, default_kind="spectrum")
    grid = _grid(ns)
    dt, vr = _tolerances(ns)
    est = parametrix_trace(sym, grid, dt, vr)
    print("parametrix of a %d-point boundary symbol, index cutoffs" % len(sym))
    _print_estimate(est)
    if ns.get("out_csv"):
        _write_csv(ns, boundary_series(sym.reciprocal(), grid))
    _write_json(ns, {"command": "parametrix", "points": len(sym),
                     "estimate": est.to_json_dict()})
    return _verdict_exit(est.verdict)


def _cmd_oracle_check(ns: dict) -> int:
    if ns.get("cutoff") is None:
        raise ConfigError("oracle-check needs --cutoff")
    geom = _geometry(ns)
    spec = _symbol(ns)
    kwargs = {}
    if ns.get("cap") is not None:
        kwargs["cap"] = int(ns["cap"])
    report = compare_symbol_vs_oracle(geom, spec, float(ns["cutoff"]),
                                      picture=ns.get("picture"), **kwargs)
    print("oracle check on %s, %s, cutoff %g: %d singular values"
          % (geom.describe(), ns["symbol"], float(ns["cutoff"]),
             report["total_dim"]))
    print("max abs diff %.3g, relative sum diff %.3g, tolerance %.1g -> %s"
          % (report["max_abs"], report["sum_rel_diff"], report["tolerance"],
             "ok" if report["passed"] else "MISMATCH"))
    _write_json(ns, {"command": "oracle-check", "geometry": geom.describe(),
                     "symbol": ns["symbol"], "cutoff": float(ns["cutoff"]),
                     "report": report})
    return 0 if report["passed"] else 2


def _cmd_s0_check(ns: dict) -> int:
    if not ns.get("s_grid"):
        raise ConfigError("s0-check needs --s-grid, e.g. 0,0.5,1,2")
    try:
        s_values = [float(tok) for tok in str(ns["s_grid"]).split(",") if tok]
    except ValueError:
        raise ConfigError("bad --s-grid %r" % ns["s_grid"]) from None
    sym = _build_boundary_symbol(ns, default_kind="spectrum")
    report = s0_summability_check(sym, s_values)
    print("summability of sum <xi>^-s over %d boundary points:" % len(sym))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    ns = vars(args)
    try:
        ns = _load_config(ns)
        return _COMMANDS[ns["command"]](ns)
    except (DixtraceError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
