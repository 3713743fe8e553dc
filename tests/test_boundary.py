import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from dixtrace.boundary import (AlphaTable, BoundarySymbol, IntervalBC,
                               PowerDecay, boundary_dixmier,
                               boundary_dixmier_weyl, boundary_series,
                               boundary_weyl_series, enumeration_js,
                               interval_eigenvalue, interval_spectrum,
                               parametrix_trace, s0_summability_check)
from dixtrace.errors import (ConfigError, DomainError, EllipticityError,
                             SpectrumFormatError)
from dixtrace.summation import dyadic_grid

BC = IntervalBC(a=-math.e, b=1.0)


def test_eigenvalue_formula():
    # -a/b = e, so the log term is exactly 1 and lambda_j = 2 pi j - i
    lam = interval_eigenvalue(BC, 3)
    assert lam == pytest.approx(6 * math.pi - 1j)
    lam_neg = interval_eigenvalue(BC, -2)
    assert lam_neg == pytest.approx(-4 * math.pi - 1j)


def test_self_adjoint_case_is_real_multiples_of_2pi():
    bc = IntervalBC(a=-1.0, b=1.0)
    assert interval_eigenvalue(bc, 3) == pytest.approx(6 * math.pi)
    # j = 0 would be an exact zero eigenvalue: rejected, naming the index
    with pytest.raises(DomainError) as err:
        interval_spectrum(bc, 5)
    assert "j = 0" in str(err.value)


def test_enumeration_order():
    np.testing.assert_array_equal(enumeration_js(3), [0, 1, -1, 2, -2, 3, -3])
    js, lam = interval_spectrum(BC, 4)
    np.testing.assert_array_equal(js, [0, 1, -1, 2, -2, 3, -3, 4, -4])
    assert lam[0] == pytest.approx(-1j)


def test_bc_validation():
    with pytest.raises(ConfigError):
        IntervalBC(a=0.0, b=1.0)
    with pytest.raises(ConfigError):
        IntervalBC(a=1.0, b=1.0, order=0)
    with pytest.raises(ConfigError):
        PowerDecay(c=1.0, eps=0.0)


def test_power_decay_perturbation_values():
    bc = IntervalBC(a=-math.e, b=1.0, alpha=PowerDecay(c=2.0, eps=0.5))
    base = interval_eigenvalue(BC, 4)
    pert = interval_eigenvalue(bc, 4)
    assert pert - base == pytest.approx(2.0 / 5 ** 1.5)


def test_alpha_table(tmp_path):
    path = tmp_path / "alpha.txt"
    path.write_text("# j re im\n0 0.25 0\n2 0 -0.5\n")
    bc = IntervalBC(a=-math.e, b=1.0, alpha=AlphaTable(str(path)))
    assert interval_eigenvalue(bc, 0) == pytest.approx(0.25 - 1j)
    assert interval_eigenvalue(bc, 2) == pytest.approx(4 * math.pi - 1.5j)
    assert interval_eigenvalue(bc, 1) == pytest.approx(2 * math.pi - 1j)
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0.25\n")
    bad_bc = IntervalBC(a=-math.e, b=1.0, alpha=AlphaTable(str(bad)))
    with pytest.raises(SpectrumFormatError):
        interval_eigenvalue(bad_bc, 1)


def test_inverse_symbol_trace_near_one_over_pi():
    sym = BoundarySymbol.inverse_spectrum(BC, 50_000)
    est = boundary_dixmier(sym, dyadic_grid(1e5, 4))
    assert est.verdict == "convergent"
    assert est.value == pytest.approx(1 / math.pi, rel=0.01)


def test_summable_perturbation_leaves_trace_unchanged():
    grid = dyadic_grid(1e5, 4)
    plain = boundary_dixmier(BoundarySymbol.inverse_spectrum(BC, 50_000), grid)
    bc = IntervalBC(a=-math.e, b=1.0, alpha=PowerDecay(c=1.0, eps=1.0))
    pert = boundary_dixmier(BoundarySymbol.inverse_spectrum(bc, 50_000), grid)
    assert pert.value == pytest.approx(plain.value, abs=5e-3)


def test_parametrix_identical_to_inverse_symbol_trace():
    grid = dyadic_grid(1e4, 4)
    inv = boundary_dixmier(BoundarySymbol.inverse_spectrum(BC, 5_000), grid)
    par = parametrix_trace(BoundarySymbol.spectrum_symbol(BC, 5_000), grid)
    assert par.value == inv.value
    assert par.naive_last == inv.naive_last


def test_parametrix_rejects_zero_symbol_value():
    sym = BoundarySymbol.spectrum_symbol(BC, 100)
    sym.values[7] = 0.0
    with pytest.raises(EllipticityError) as err:
        parametrix_trace(sym, dyadic_grid(64, 2))
    assert "l = 7" in str(err.value)


def test_boundary_series_counts():
    sym = BoundarySymbol.from_callable(BC, 50, lambda j, lam: 1.0)
    series = boundary_series(sym, np.array([2.0, 10.0, 200.0]))
    np.testing.assert_array_equal(series.counts, [3.0, 11.0, 101.0])
    np.testing.assert_allclose(series.sums, series.counts, rtol=0)
    assert series.picture == "boundary-index"


def test_weyl_cutoff_variant_matches_index_variant():
    sym = BoundarySymbol.inverse_spectrum(BC, 50_000)
    est = boundary_dixmier_weyl(sym, kappa=1, grid=dyadic_grid(1e5, 4))
    assert est.value == pytest.approx(1 / math.pi, rel=0.01)
    series = boundary_weyl_series(sym, 1, dyadic_grid(1e4, 4))
    # weight cutoff N keeps the ~ N/pi eigenvalues in [-N, N]
    assert series.counts[-1] == pytest.approx(1e4 / math.pi, rel=0.01)


def test_weyl_respects_order():
    # order 2 means the cutoff variable is sqrt|lambda|
    bc2 = IntervalBC(a=-math.e, b=1.0, order=2)
    sym = BoundarySymbol.inverse_spectrum(bc2, 10_000)
    series = boundary_weyl_series(sym, 1, dyadic_grid(64, 2))
    lam_abs = np.abs(sym.lam)
    expect = np.count_nonzero(np.sqrt(lam_abs) <= 64.0)
    assert series.counts[-1] == expect


def test_file_round_trip_and_resorting(tmp_path):
    sym = BoundarySymbol.inverse_spectrum(BC, 40)
    path = str(tmp_path / "sym.txt")
    sym.to_file(path)
    back = BoundarySymbol.from_file(path)
    np.testing.assert_array_equal(sym.js, back.js)
    np.testing.assert_array_equal(sym.lam, back.lam)
    np.testing.assert_array_equal(sym.values, back.values)
    # rows shuffled on disk come back in canonical enumeration order
    lines = Path(path).read_text().splitlines()
    body = lines[1:]
    shuffled = str(tmp_path / "shuffled.txt")
    with open(shuffled, "w") as fh:
        fh.write("\n".join(body[::-1]) + "\n")
    again = BoundarySymbol.from_file(shuffled)
    np.testing.assert_array_equal(again.js, back.js)
    np.testing.assert_array_equal(again.values, back.values)


def test_symbol_validation():
    with pytest.raises(ConfigError):
        BoundarySymbol(js=np.array([0, 1]), lam=np.array([1.0 + 0j]),
                       values=np.array([1.0 + 0j]))
    with pytest.raises(ConfigError):
        BoundarySymbol(js=np.array([0]), lam=np.array([1.0 + 0j]),
                       values=np.array([math.nan + 0j]))


def test_s0_summability_thresholds():
    sym = BoundarySymbol.spectrum_symbol(BC, 4096)
    report = s0_summability_check(sym, [0.0, 1.0, 2.0])
    by_s = {row.s: row for row in report.rows}
    assert not by_s[0.0].converges
    assert not by_s[1.0].converges
    assert by_s[2.0].converges
    assert report.s0_estimate == 2.0


def test_s0_grid_validation():
    sym = BoundarySymbol.spectrum_symbol(BC, 64)
    with pytest.raises(ConfigError):
        s0_summability_check(sym, [2.0, 1.0])
    with pytest.raises(ConfigError):
        s0_summability_check(sym, [-1.0])
    tiny = BoundarySymbol.spectrum_symbol(BC, 3)
    with pytest.raises(ConfigError):
        s0_summability_check(tiny, [1.0])
