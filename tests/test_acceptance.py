"""End-to-end acceptance runs, one per benchmark, each printing a PASS/FAIL
line (run with -s to see them on success).

Every numeric tolerance here is frozen; loosening one is a functional
change, not a test fix.
"""

import math
import time

import numpy as np
import pytest

from dixtrace import golden
from dixtrace.boundary import (BoundarySymbol, IntervalBC, boundary_dixmier,
                               parametrix_trace)
from dixtrace.geometry import Geometry, enumerate_dual, save_spectrum_file
from dixtrace.oracle import compare_symbol_vs_oracle
from dixtrace.summation import (PartialSumSeries, counting_series, dyadic_grid,
                                partial_sums, weyl_fit)
from dixtrace.symbol import RadialWeight, parse_symbol
from dixtrace.trace import dixmier_estimate, log_model_fit, quasinorm


def report(num, name, ok, detail):
    print("ACCEPTANCE %2d %-28s %s  (%s)" % (num, name,
                                             "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


@pytest.fixture(scope="module")
def benchmark2():
    t0 = time.time()
    series = partial_sums(Geometry.torus(1), parse_symbol("radial:1"),
                          dyadic_grid(1e7, 4))
    est = dixmier_estimate(series)
    return est, time.time() - t0


def test_ac1_oracle_equivalence():
    t0 = time.time()
    r1 = compare_symbol_vs_oracle(Geometry.torus(1), parse_symbol("bessel:1:2"),
                                  250.0)
    r2 = compare_symbol_vs_oracle(Geometry.su2(), parse_symbol("bessel:3:2"),
                                  5.1)
    elapsed = time.time() - t0
    ok = (r1["passed"] and r2["passed"]
          and r1["total_dim"] <= 500 and r2["total_dim"] <= 500
          and elapsed < 5.0)
    report(1, "oracle-equivalence", ok,
           "torus1 max_abs %.2e (%d svals), su2 max_abs %.2e (%d svals), %.2fs"
           % (r1["max_abs"], r1["total_dim"], r2["max_abs"], r2["total_dim"],
              elapsed))


def test_ac2_torus1_benchmark(benchmark2):
    est, elapsed = benchmark2
    rel = abs(est.value - 2.0) / 2.0
    ok = rel <= 0.01 and est.verdict == "convergent" and elapsed < 30.0
    report(2, "torus1-trace", ok,
           "tau_hat %.6f, rel err %.2e, %.2fs" % (est.value, rel, elapsed))


def test_ac3_torus2_benchmark():
    t0 = time.time()
    series = partial_sums(Geometry.torus(2), parse_symbol("radial:2"),
                          dyadic_grid(4000, 4))
    est = dixmier_estimate(series)
    elapsed = time.time() - t0
    rel = abs(est.value - math.pi) / math.pi
    n_points = series.counts[-1]
    ok = (rel <= 0.02 and est.verdict == "convergent"
          and 4e7 < n_points < 6e7 and elapsed < 120.0)
    report(3, "torus2-trace", ok,
           "tau_hat %.6f, rel err %.2e, %.3g lattice points, %.2fs"
           % (est.value, rel, n_points, elapsed))


def test_ac4_su2_golden_series():
    value = golden.su2_bessel_count_ratio(10 ** 6)
    ns = np.unique(np.floor(dyadic_grid(1e6, 4)).astype(np.int64))
    f = np.array([golden.su2_bessel_count_ratio(int(n)) for n in ns])
    tau_printed, _c1, _c2, _rms = log_model_fit(ns.astype(np.float64), f)
    series = partial_sums(Geometry.su2(), parse_symbol("bessel:3:2"),
                          dyadic_grid(1e6, 4))
    general = dixmier_estimate(series).value
    factor = general / tau_printed
    ok = (abs(value - 0.0393) <= 0.001
          and abs(tau_printed - 1.0 / 24.0) * 24.0 <= 0.02
          and abs(factor - 64.0) / 64.0 <= 0.01)
    report(4, "su2-golden-series", ok,
           "at 1e6 %.5f, extrapolated %.6f (1/24 = %.6f), general %.5f, "
           "factor %.3f" % (value, tau_printed, 1 / 24, general, factor))


def test_ac5_su3_counting():
    exact = all(golden.su3_dim_sum(n) == golden.su3_dim_sum_direct(n)
                for n in range(51))
    fit = weyl_fit(counting_series(Geometry.su3(), dyadic_grid(32, 4)))
    rel = abs(fit.kappa_hat - 8.0) / 8.0
    ok = exact and rel <= 0.05
    report(5, "su3-counting", ok,
           "closed form exact to N=50: %s, kappa_hat %.4f (rel %.2e)"
           % (exact, fit.kappa_hat, rel))


def test_ac6_weyl_fits():
    fit_su2 = weyl_fit(counting_series(Geometry.su2(), dyadic_grid(512, 4)))
    fit_t2 = weyl_fit(counting_series(Geometry.torus(2), dyadic_grid(256, 4)))
    rel_su2 = abs(fit_su2.kappa_hat - 3.0) / 3.0
    rel_t2 = abs(fit_t2.kappa_hat - 2.0) / 2.0
    rel_c0 = abs(fit_t2.c0_hat - math.pi) / math.pi
    ok = rel_su2 <= 0.03 and rel_t2 <= 0.02 and rel_c0 <= 0.05
    report(6, "weyl-fits", ok,
           "su2 kappa %.4f, torus2 kappa %.4f, C0 %.4f (pi = %.4f)"
           % (fit_su2.kappa_hat, fit_t2.kappa_hat, fit_t2.c0_hat, math.pi))


def test_ac7_boundary_benchmark():
    bc = IntervalBC(a=-math.e, b=1.0)
    grid = dyadic_grid(1e6, 4)
    sym = BoundarySymbol.inverse_spectrum(bc, 500_001)
    est = boundary_dixmier(sym, grid)
    par = parametrix_trace(BoundarySymbol.spectrum_symbol(bc, 500_001), grid)
    rel = abs(est.value - 1.0 / math.pi) * math.pi
    ok = rel <= 0.02 and par.value == est.value and est.verdict == "convergent"
    report(7, "boundary-inverse", ok,
           "tau_hat %.6f (1/pi = %.6f, rel %.2e), parametrix bit-identical: %s"
           % (est.value, 1 / math.pi, rel, par.value == est.value))


def test_ac8_trace_class_vanishing(benchmark2):
    bench_value = benchmark2[0].value
    est_t = dixmier_estimate(partial_sums(Geometry.torus(1),
                                          parse_symbol("radial:2"),
                                          dyadic_grid(1e6, 4)))
    est_s = dixmier_estimate(partial_sums(Geometry.su2(),
                                          parse_symbol("radial:4"),
                                          dyadic_grid(1e7, 4)))
    bound = 1e-2 * bench_value
    ok = (est_t.verdict == "vanishing" and est_s.verdict == "vanishing"
          and abs(est_t.value) < bound and abs(est_s.value) < bound)
    report(8, "trace-class-vanishing", ok,
           "torus1 %s %.2e, su2 %s %.2e, bound %.2e"
           % (est_t.verdict, est_t.value, est_s.verdict, est_s.value, bound))


def test_ac9_quasinorm_suite():
    g = Geometry.torus(1)
    parts = []
    ok = True
    for p in (4.0 / 3.0, 2.0, 4.0):
        series = partial_sums(g, parse_symbol("modulus:%.17g" % (1.0 / p)),
                              dyadic_grid(1e8, 4))
        q = quasinorm(series, p)
        ok = ok and q.stable and math.isfinite(q.gamma) and q.gamma > 0
        parts.append("p=%.3g gamma %.4f %s"
                     % (p, q.gamma, "stable" if q.stable else "UNSTABLE"))
    flat = partial_sums(g, parse_symbol("radial:0"), dyadic_grid(1e6, 4))
    for p in (4.0 / 3.0, 2.0, 4.0):
        qf = quasinorm(flat, p)
        ok = ok and not qf.stable
    parts.append("sigma=1 unstable at all p")
    report(9, "lp-infinity-suite", ok, "; ".join(parts))


def test_ac10_invariance_suite(tmp_path):
    g = Geometry.su2()
    grid = dyadic_grid(1e4, 4)
    base = partial_sums(g, parse_symbol("bessel:3:2"), grid)
    est = dixmier_estimate(base)
    est3 = dixmier_estimate(partial_sums(g, parse_symbol("scaled:3:bessel:3:2"),
                                         grid))
    hom_err = abs(est3.value - 3.0 * est.value)
    hom_ok = hom_err <= 3.0 * est.fit_residual + 1e-10

    # nonnegative scalar symbols add exactly at every cutoff
    t1 = partial_sums(Geometry.torus(1), parse_symbol("radial:1"), grid)
    t2 = partial_sums(Geometry.torus(1), parse_symbol("radial:2"), grid)
    tsum = partial_sums(Geometry.torus(1), _sum_spec(), grid)
    add_sums_ok = np.allclose(tsum.sums, t1.sums + t2.sums, rtol=1e-12)
    est_a, est_b = dixmier_estimate(t1), dixmier_estimate(t2)
    est_ab = dixmier_estimate(tsum)
    add_tau_ok = abs(est_ab.value - est_a.value - est_b.value) <= (
        est_a.fit_residual + est_b.fit_residual + est_ab.fit_residual + 1e-10)

    csv_path = str(tmp_path / "s.csv")
    base.to_csv(csv_path, extra_f=True)
    back = PartialSumSeries.from_csv(csv_path, dim=base.dim, picture=base.picture)
    io_ok = (np.array_equal(base.sums, back.sums)
             and np.array_equal(base.cutoffs, back.cutoffs))
    spec_path = str(tmp_path / "spec.txt")
    pts = list(enumerate_dual(g, 8.0))
    save_spectrum_file(pts, spec_path)
    back_pts = list(enumerate_dual(Geometry.from_file(spec_path, dim=3), 8.0))
    io_ok = io_ok and all(a.eigenvalue == b.eigenvalue and a.weight == b.weight
                          for a, b in zip(pts, back_pts))

    ok = hom_ok and add_sums_ok and add_tau_ok and io_ok
    report(10, "invariance-suite", ok,
           "homogeneity err %.1e, additivity %s, "
           "round-trips bit-equal %s" % (hom_err, add_tau_ok and add_sums_ok,
                                         io_ok))


def _sum_spec():
    from dixtrace.symbol import SymbolSum
    return SymbolSum([RadialWeight(1.0), RadialWeight(2.0)])
