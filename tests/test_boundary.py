import cmath
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dixtrace import geometry
from dixtrace.boundary import (AlphaTable, BoundarySymbol, IntervalBC,
                               PowerDecay, boundary_dixmier,
                               boundary_dixmier_weyl, boundary_series,
                               boundary_weyl_series, parametrix_trace,
                               s0_summability_check)
from dixtrace.errors import (ConfigError, DomainError, EllipticityError,
                             SizeError, SpectrumFormatError)
from dixtrace.geometry import _CHUNK
from dixtrace.summation import dyadic_grid
from dixtrace.trace import dixmier_estimate

BC = IntervalBC(a=-math.e, b=1.0)


def arrays(sym):
    """(js, lam, values) of every label, each chunk copied before the next
    one is asked for."""
    parts = [[a.copy() for a in chunk] for _l0, *chunk in sym.chunks()]
    return tuple(np.concatenate(column) for column in zip(*parts))


def spectrum(bc, j_max):
    """(js, lambda_j) of the labels |j| <= j_max in enumeration order."""
    js, lam, _ = BoundarySymbol.spectrum_symbol(bc, j_max).chunk(0, 2 * j_max + 1)
    return js, lam


def eigenvalue(bc, j):
    """lambda_j of one label, the last of a chunk starting at an even index."""
    l = 2 * abs(j) - (j > 0)
    js, lam, _ = BoundarySymbol.spectrum_symbol(bc, abs(j)).chunk(l - l % 2, l + 1)
    assert js[-1] == j
    return complex(lam[-1])


def test_eigenvalue_formula():
    # -a/b = e, so the log term is exactly 1 and lambda_j = 2 pi j - i
    lam = eigenvalue(BC, 3)
    assert lam == pytest.approx(6 * math.pi - 1j)
    lam_neg = eigenvalue(BC, -2)
    assert lam_neg == pytest.approx(-4 * math.pi - 1j)


def test_self_adjoint_case_is_real_multiples_of_2pi():
    bc = IntervalBC(a=-1.0, b=1.0)
    assert eigenvalue(bc, 3) == pytest.approx(6 * math.pi)
    # j = 0 would be an exact zero eigenvalue: rejected, naming the index
    with pytest.raises(DomainError) as err:
        spectrum(bc, 5)
    assert "j = 0" in str(err.value)
    # the generated symbol keeps the check, chunk by chunk
    with pytest.raises(DomainError, match="j = 0"):
        boundary_series(BoundarySymbol.inverse_spectrum(bc, 5), dyadic_grid(8, 2))


def test_enumeration_order():
    np.testing.assert_array_equal(spectrum(BC, 3)[0], [0, 1, -1, 2, -2, 3, -3])
    js, lam = spectrum(BC, 4)
    np.testing.assert_array_equal(js, [0, 1, -1, 2, -2, 3, -3, 4, -4])
    assert lam[0] == pytest.approx(-1j)


def test_enumeration_size_guard(tmp_path):
    # far above the point cap, so the guard must fire before allocating
    with pytest.raises(SizeError, match="above the cap"):
        BoundarySymbol.from_callable(BC, 10 ** 12, lambda j, lam: 1.0)
    # a generated symbol of any size is built, and its index sums take the
    # tail; the consumers that walk every label refuse it past the label cap
    huge = BoundarySymbol.inverse_spectrum(BC, 10 ** 12)
    assert huge.size == 2 * 10 ** 12 + 1
    for walk in (lambda: boundary_weyl_series(huge, 1, dyadic_grid(64, 2)),
                 lambda: s0_summability_check(huge, [1.0]),
                 lambda: boundary_series(huge.reciprocal(), dyadic_grid(64, 2)),
                 lambda: huge.to_file(str(tmp_path / "sym.txt"))):
        with pytest.raises(SizeError, match="above the cap"):
            walk()
    assert not (tmp_path / "sym.txt").exists()
    big = BoundarySymbol.spectrum_symbol(BC, 30_000_000)
    assert len(big) == 60_000_001
    # gathering its labels is refused before allocating
    with pytest.raises(SizeError, match="above the cap"):
        boundary_weyl_series(big, 1, dyadic_grid(64, 2))


def test_bc_validation():
    with pytest.raises(ConfigError):
        IntervalBC(a=0.0, b=1.0)
    with pytest.raises(ConfigError):
        IntervalBC(a=1.0, b=1.0, order=0)
    with pytest.raises(ConfigError):
        PowerDecay(c=1.0, eps=0.0)


def test_power_decay_perturbation_values():
    bc = IntervalBC(a=-math.e, b=1.0, alpha=PowerDecay(c=2.0, eps=0.5))
    base = eigenvalue(BC, 4)
    pert = eigenvalue(bc, 4)
    assert pert - base == pytest.approx(2.0 / 5 ** 1.5)


def test_alpha_table(tmp_path):
    path = tmp_path / "alpha.txt"
    path.write_text("# j re im\n0 0.25 0\n2 0 -0.5\n")
    bc = IntervalBC(a=-math.e, b=1.0, alpha=AlphaTable(str(path)))
    assert eigenvalue(bc, 0) == pytest.approx(0.25 - 1j)
    assert eigenvalue(bc, 2) == pytest.approx(4 * math.pi - 1.5j)
    assert eigenvalue(bc, 1) == pytest.approx(2 * math.pi - 1j)
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0.25\n")
    with pytest.raises(SpectrumFormatError):
        AlphaTable(str(bad))


def test_alpha_table_refuses_a_repeated_label(tmp_path):
    path = tmp_path / "alpha.txt"
    path.write_text("2 0.5 0\n# comment\n2 0.25 0\n")
    with pytest.raises(SpectrumFormatError, match="alpha.txt:3: j = 2 repeats"):
        AlphaTable(str(path))


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_alpha_table_index_series_streams(tmp_path):
    # the table is read once and every chunk looks its labels up: no array
    # of all 1e6 labels is ever held
    path = tmp_path / "alpha.txt"
    path.write_text("0 0.25 0\n-3 0 0.5\n40000 1 -1\n")
    series, peak = _traced_peak(lambda: boundary_series(
        BoundarySymbol.inverse_spectrum(
            IntervalBC(a=-math.e, b=1.0, alpha=AlphaTable(str(path))), 500_000),
        dyadic_grid(1e6, 4)))
    assert series.counts[-1] == 1_000_001
    assert peak < 4 * 2 ** 20


def test_alpha_table_sums_match_from_arrays(tmp_path):
    # alpha_j looked up per chunk gives the sums of the same values held as
    # arrays, bit for bit; the labels j = C/2, -C/2 straddle the first chunk
    # boundary at l = C
    table = {0: 0.25 + 0j, _CHUNK // 2: 0.5 - 1j, -_CHUNK // 2: -2j, _CHUNK: 3.0 + 0j}
    path = tmp_path / "alpha.txt"
    path.write_text("".join("%d %r %r\n" % (j, a.real, a.imag) for j, a in table.items()))
    j_max = _CHUNK + 7
    sym = BoundarySymbol.inverse_spectrum(
        IntervalBC(a=-math.e, b=1.0, alpha=AlphaTable(str(path))), j_max)
    js, lam = spectrum(BC, j_max)
    lam += np.array([table.get(int(j), 0.0) for j in js])
    ref = BoundarySymbol.from_arrays(js, lam, 1.0 / lam)
    grid = dyadic_grid(len(sym) - 1, 8)
    for a, b in ((sym, ref), (sym.reciprocal(), ref.reciprocal())):
        sa, sb = boundary_series(a, grid), boundary_series(b, grid)
        np.testing.assert_array_equal(sa.sums, sb.sums)
        np.testing.assert_array_equal(sa.counts, sb.counts)
    wa, wb = (boundary_weyl_series(s, 1, dyadic_grid(1e5, 4)) for s in (sym, ref))
    np.testing.assert_array_equal(wa.sums, wb.sums)


def test_weyl_series_gathers_two_floats_per_label():
    # |lambda| and |sigma| are gathered into float64 arrays and sorted: at
    # most 48 bytes per label are held, not the symbol's complex arrays
    sym = BoundarySymbol.inverse_spectrum(BC, 500_000)
    series, peak = _traced_peak(lambda: boundary_weyl_series(sym, 1, dyadic_grid(1e5, 4)))
    assert series.counts[-1] == pytest.approx(1e5 / math.pi, rel=0.01)
    assert peak <= 48 * len(sym)


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
    # the error names l and j, also past the first chunk
    for l_zero in (7, _CHUNK + 5):
        js, lam, values = arrays(BoundarySymbol.spectrum_symbol(BC, _CHUNK))
        values[l_zero] = 0.0
        sym = BoundarySymbol.from_arrays(js, lam, values)
        with pytest.raises(EllipticityError) as err:
            parametrix_trace(sym, dyadic_grid(64, 2))
        assert "l = %d (j = %d)" % (l_zero, js[l_zero]) in str(err.value)


def test_generated_chunks_reuse_their_arrays():
    # a generated symbol and a reciprocal compute every chunk into the same
    # arrays, so a chunk is valid only until the next one is asked for
    for sym in (BoundarySymbol.inverse_spectrum(BC, _CHUNK),
                BoundarySymbol.spectrum_symbol(BC, _CHUNK).reciprocal()):
        chunks = sym.chunks()
        first = next(chunks)
        first_values = first[3].copy()
        second = next(chunks)
        assert second[0] == _CHUNK
        for a, b in zip(first[1:], second[1:]):
            assert np.shares_memory(a, b)
        assert not np.array_equal(first[3][:1], first_values[:1])


def test_index_sums_match_fsum():
    # a = b = 1: lambda_j = pi (2j + 1), so |sigma_l| = 1 / (pi |2j + 1|)
    bc = IntervalBC(a=1.0, b=1.0)
    grid = dyadic_grid(1e6, 4)
    series = boundary_series(BoundarySymbol.inverse_spectrum(bc, 500_001), grid)
    js, lam = spectrum(bc, 500_001)
    assert np.all(lam.imag == 0)
    terms = np.abs(1.0 / lam).tolist()
    for n, count, s in zip(grid, series.counts, series.sums):
        assert count == math.floor(n) + 1
        ref = math.fsum(terms[:int(count)])
        assert abs(s - ref) <= 1e-15 * ref


def test_grid_extension_reproduces_snapshots():
    # chunks are fixed by the label index, so a longer grid over more labels
    # repeats every earlier snapshot bit for bit
    grid = dyadic_grid(3e5, 4)
    short, long_ = (boundary_series(BoundarySymbol.inverse_spectrum(BC, int(n // 2) + 1),
                                    grid[grid <= n])
                    for n in (2e4, 3e5))
    k = len(short)
    assert k > 30 and len(long_) > k
    np.testing.assert_array_equal(short.sums, long_.sums[:k])
    np.testing.assert_array_equal(short.counts, long_.counts[:k])


def test_index_sums_match_mpmath_at_1e12():
    # a = -e, b = 1: lambda_j = 2 pi j - i, so |sigma_j| = (4 pi^2 j^2 + 1)^(-1/2);
    # each sign of j summed in 30 digits, the first 1024 labels by fsum and
    # the rest by mpmath.sumem given the exact integral
    mpmath = pytest.importorskip("mpmath")
    grid = dyadic_grid(1e12, 4)
    series = boundary_series(BoundarySymbol.inverse_spectrum(BC, 10 ** 12 // 2 + 1), grid)
    with mpmath.workdps(30):
        def term(j):
            return 1 / mpmath.sqrt(4 * mpmath.pi ** 2 * j * j + 1)

        def side(big_j):  # sum_{j=1}^{J} |sigma_j|
            head = mpmath.fsum(term(mpmath.mpf(j)) for j in range(1, 1024))
            integral = [mpmath.asinh(2 * mpmath.pi * x) / (2 * mpmath.pi) for x in (1024, big_j)]
            return head + mpmath.sumem(term, [1024, big_j], integral=integral[1] - integral[0])
        first = int(np.argmax(grid >= 2 ** 20))
        for k in (first - 1, first, len(grid) - 1):  # the last fold, the first tail, 1e12
            l = int(grid[k])
            ref = 1 + side((l + 1) // 2) + side(l // 2)
            assert abs(series.sums[k] - ref) <= 1e-14 * ref
            assert series.counts[k] == l + 1


def test_grid_extension_past_the_head_is_bit_for_bit():
    # past the head a cutoff's value depends on its label alone
    bc = IntervalBC(a=-math.e, b=1.0, alpha=PowerDecay(c=0.5 + 0.5j, eps=0.5))
    grid = dyadic_grid(1e12, 4)
    long_ = boundary_series(BoundarySymbol.spectrum_symbol(bc, 10 ** 12 // 2 + 1), grid)
    for part in (slice(0, len(grid) - 40), slice(1, None, 3)):
        sym = BoundarySymbol.spectrum_symbol(bc, int(grid[part][-1]) // 2 + 1)
        short = boundary_series(sym, grid[part])
        assert short.cutoffs[-1] > 2 ** 21
        np.testing.assert_array_equal(short.sums, long_.sums[part])
        np.testing.assert_array_equal(short.counts, long_.counts[part])


def test_reciprocal_and_table_symbols_keep_the_fold(tmp_path):
    # no tail for 1/sigma or a tabulated alpha: every label is folded, past
    # the head too, as for any symbol built from the same chunks
    path = tmp_path / "alpha.txt"
    path.write_text("0 0.25 0\n3 0 -0.5\n")
    grid = dyadic_grid(3e6, 4)
    for sym in (BoundarySymbol.spectrum_symbol(BC, 1_500_001).reciprocal(),
                BoundarySymbol.inverse_spectrum(IntervalBC(a=-math.e, b=1.0,
                                                           alpha=AlphaTable(str(path))),
                                                1_500_001)):
        assert sym.terms is None
        folded = BoundarySymbol(sym.size, sym.order, sym.chunk)
        np.testing.assert_array_equal(boundary_series(sym, grid).sums,
                                      boundary_series(folded, grid).sums)


def test_boundary_series_counts():
    sym = BoundarySymbol.from_callable(BC, 50, lambda j, lam: 1.0)
    series = boundary_series(sym, np.array([2.0, 10.0, 200.0]))
    np.testing.assert_array_equal(series.counts, [3.0, 11.0, 101.0])
    np.testing.assert_allclose(series.sums, series.counts, rtol=0)
    assert series.picture == "boundary-index"


def test_callable_runs_once_per_label():
    # fn is evaluated when the symbol is built, not again on each pass
    calls = []
    sym = BoundarySymbol.from_callable(BC, 50, lambda j, lam: calls.append(j) or 2.0)
    assert sorted(calls) == sorted(range(-50, 51))
    for _ in range(2):
        boundary_series(sym, np.array([200.0]))
    s0_summability_check(sym, [1.0, 2.0])
    assert len(calls) == 101


def test_closed_form_one_matches_callable():
    # sigma = 1 in closed form gives the per-label callable's sums bit
    # for bit, also for its reciprocal and under the Weyl cutoff
    j_max = 2 * _CHUNK
    one = BoundarySymbol.one(BC, j_max)
    ref = BoundarySymbol.from_callable(BC, j_max, lambda j, lam: 1.0)
    grid = dyadic_grid(len(ref) - 1, 4)
    for a, b in ((one, ref), (one.reciprocal(), ref.reciprocal())):
        sa, sb = boundary_series(a, grid), boundary_series(b, grid)
        np.testing.assert_array_equal(sa.sums, sb.sums)
        np.testing.assert_array_equal(sa.counts, sb.counts)
    wa, wb = (boundary_weyl_series(s, 1, dyadic_grid(1e4, 4)) for s in (one, ref))
    np.testing.assert_array_equal(wa.sums, wb.sums)
    np.testing.assert_array_equal(wa.counts, wb.counts)


def test_weyl_cutoff_variant_matches_index_variant():
    sym = BoundarySymbol.inverse_spectrum(BC, 50_000)
    est = boundary_dixmier_weyl(sym, kappa=1, grid=dyadic_grid(1e5, 4))
    assert est.value == pytest.approx(1 / math.pi, rel=0.01)
    series = boundary_weyl_series(sym, 1, dyadic_grid(1e4, 4))
    # weight cutoff N keeps the ~ N/pi eigenvalues in [-N, N]
    assert series.counts[-1] == pytest.approx(1e4 / math.pi, rel=0.01)


def test_weyl_ties_across_chunks():
    # equal keys straddling a chunk boundary all count at a cutoff on them
    n = _CHUNK + 3
    js = spectrum(BC, n // 2)[0]
    lam = np.full(n, 2.0 + 0j)
    lam[-1] = 3.0
    sym = BoundarySymbol.from_arrays(js, lam, np.ones(n, dtype=complex))
    series = boundary_weyl_series(sym, 1, np.array([2.0, 2.5, 3.0]))
    np.testing.assert_array_equal(series.counts, [n - 1, n - 1, n])
    np.testing.assert_array_equal(series.sums, series.counts)


def test_weyl_respects_order():
    # order 2 means the cutoff variable is sqrt|lambda|
    bc2 = IntervalBC(a=-math.e, b=1.0, order=2)
    sym = BoundarySymbol.inverse_spectrum(bc2, 10_000)
    series = boundary_weyl_series(sym, 1, dyadic_grid(64, 2))
    lam_abs = np.abs(arrays(sym)[1])
    expect = np.count_nonzero(np.sqrt(lam_abs) <= 64.0)
    assert series.counts[-1] == expect


def test_file_round_trip_and_resorting(tmp_path):
    sym = BoundarySymbol.inverse_spectrum(BC, 40)
    path = str(tmp_path / "sym.txt")
    sym.to_file(path)
    back = BoundarySymbol.from_file(path)
    for a, b in zip(arrays(sym), arrays(back)):
        np.testing.assert_array_equal(a, b)
    # rows shuffled on disk come back in canonical enumeration order
    lines = Path(path).read_text().splitlines()
    body = lines[1:]
    shuffled = str(tmp_path / "shuffled.txt")
    with open(shuffled, "w") as fh:
        fh.write("\n".join(body[::-1]) + "\n")
    again = BoundarySymbol.from_file(shuffled)
    for a, b in zip(arrays(again), arrays(back)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("labels, l_bad, j_bad", [
    ([0, 1, -1, -1, 2, -2, 3], 3, -1),  # j = -1 twice
    ([0, 2, -2, 3, -3], 1, 2),          # no j = +-1
    ([0, 1, -1, 3], 3, 3)])             # a gap at the end
def test_file_labels_must_be_canonical(tmp_path, labels, l_bad, j_bad):
    path = tmp_path / "sym.txt"
    path.write_text("".join("%d %d 0.5 1 0\n" % (j, j) for j in labels))
    with pytest.raises(SpectrumFormatError,
                       match=r"index l = %d holds j = %d$" % (l_bad, j_bad)):
        BoundarySymbol.from_file(str(path))


def test_file_round_trip_gives_identical_sums(tmp_path):
    # the file symbol is sliced at the generated symbol's chunk boundaries
    sym = BoundarySymbol.inverse_spectrum(BC, 3 * _CHUNK)
    path = str(tmp_path / "sym.txt")
    sym.to_file(path)
    grid = dyadic_grid(len(sym) - 1, 4)
    direct = boundary_series(sym, grid)
    back = boundary_series(BoundarySymbol.from_file(path), grid)
    np.testing.assert_array_equal(direct.sums, back.sums)
    np.testing.assert_array_equal(direct.counts, back.counts)


def test_file_symbol_holds_flat_rows(tmp_path):
    # four float64 and an index a row; per-row lists of complex peaked at
    # 185 bytes a row
    sym = BoundarySymbol.inverse_spectrum(BC, 50_000)
    path = str(tmp_path / "sym.txt")
    sym.to_file(path)
    tracemalloc.start()
    try:
        back = BoundarySymbol.from_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back) == len(sym) == 100_001
    assert peak <= 92 * len(sym)
    for a, b in zip(arrays(sym), arrays(back)):
        np.testing.assert_array_equal(a, b)


def test_symbol_validation():
    with pytest.raises(ConfigError):
        BoundarySymbol.from_arrays(np.array([0, 1]), np.array([1.0 + 0j]),
                                   np.array([1.0 + 0j]))
    with pytest.raises(ConfigError):
        BoundarySymbol.from_arrays(np.array([0]), np.array([1.0 + 0j]),
                                   np.array([math.nan + 0j]))


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


def test_boundary_estimators_are_dixmier_estimate_on_their_series():
    # an index series carries dim 1 and a Weyl series dim kappa, so the one
    # estimator reads both, field for field
    sym = BoundarySymbol.inverse_spectrum(BC, 3 * _CHUNK)
    grid = dyadic_grid(len(sym) - 1, 4)
    assert dixmier_estimate(boundary_series(sym, grid)) == boundary_dixmier(sym, grid)
    weyl = dyadic_grid(2000, 4)
    assert dixmier_estimate(boundary_weyl_series(sym, 2, weyl)) == \
        boundary_dixmier_weyl(sym, 2, weyl)


def test_file_readers_refuse_rows_past_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(geometry, "_MAX_MATERIALIZED_POINTS", 5)
    labels = [0, 1, -1, 2, -2, 3]
    path = tmp_path / "sym.txt"
    path.write_text("# header\n" + "".join("%d %d 0.5 1 0\n" % (j, j) for j in labels))
    with pytest.raises(SizeError, match="more than 5 data rows"):
        BoundarySymbol.from_file(str(path))
    path.write_text("".join("%d %d 0.5 1 0\n" % (j, j) for j in labels[:5]))
    assert len(BoundarySymbol.from_file(str(path))) == 5
    # alpha tables are read by the same row reader
    table = tmp_path / "alpha.txt"
    table.write_text("".join("%d 0.1 0\n" % j for j in labels))
    with pytest.raises(SizeError, match="more than 5 data rows"):
        AlphaTable(str(table))
    table.write_text("".join("%d 0.1 0\n" % j for j in labels[:5]))
    assert len(AlphaTable(str(table)).entries[0]) == 5
