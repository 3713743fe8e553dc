import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dixtrace import geometry, summation
from dixtrace.boundary import BoundarySymbol, IntervalBC, boundary_series
from dixtrace.errors import ConfigError, FitError, NumericError, SizeError, SpectrumFormatError
from dixtrace.geometry import (_CHUNK, Geometry, counting_function,
                               enumerate_dual, label_text, parse_geometry,
                               radial_shells, save_spectrum_file)
from dixtrace.oracle import truncate_operator
from dixtrace.summation import (PartialSumSeries, _stream_snapshots,
                                counting_series, dyadic_grid, partial_sums, weyl_fit)
from dixtrace.symbol import (DiagonalTable, PowerOfEigenvalue, RadialWeight, Scaled, SymbolSum,
                             is_radial_scalar, parse_symbol, scalar_values)


def diag_table(path, geom, cutoff, inner):
    """A diag: table holding the scalar inner(lambda) on all d entries of
    every label up to the cutoff; symbol tables always take the per-point
    path, so this pins that path with known values."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in enumerate_dual(geom, cutoff):
            f = scalar_values(inner, np.array([p.eigenvalue]), geom)[0]
            fh.write("%s\n%s\n" % (label_text(p), " ".join([repr(float(f))] * p.rep_dim)))
    return DiagonalTable(str(path))


def test_dyadic_grid_one_point_per_octave():
    np.testing.assert_array_equal(dyadic_grid(16, 1), [2.0, 4.0, 8.0, 16.0])


def test_dyadic_grid_reaches_the_top_of_float64():
    # its last power of two below n_max is 2^1023; 2^1024 overflowed
    grid = dyadic_grid(1.7e308, 4)
    assert grid[-1] == 1.7e308 and grid[-2] == 2.0 ** 1023.75


def test_dyadic_grid_rejects_non_finite_cutoff():
    for n_max in (math.inf, math.nan, 3.0):
        with pytest.raises(ConfigError):
            dyadic_grid(n_max)


def test_dyadic_grid_caps_exactly():
    g = dyadic_grid(1000.0, 4)
    assert g[-1] == 1000.0
    assert np.all(np.diff(g) > 0)
    assert g[0] == 2.0
    # four points per octave means ratio 2**(1/4) between inner points
    np.testing.assert_allclose(g[1] / g[0], 2 ** 0.25, rtol=1e-12)


def test_dyadic_grid_rejects_tiny_range():
    with pytest.raises(ConfigError):
        dyadic_grid(3.0)
    with pytest.raises(ConfigError):
        dyadic_grid(1e4, 0)


def test_dyadic_grid_refuses_an_oversized_grid(monkeypatch):
    n = len(dyadic_grid(1000.0, 4))
    monkeypatch.setattr(summation, "MAX_GRID_CUTOFFS", n)
    assert len(dyadic_grid(1000.0, 4)) == n
    with pytest.raises(ConfigError, match="grid of about %d cutoffs is above the cap of %d"
                       % (n + 1, n)):
        dyadic_grid(1000.0 * 2 ** 0.25, 4)
    monkeypatch.undo()
    # 10^8 per octave would be a list of 1.6e9 cutoffs: refused before it is built
    with pytest.raises(ConfigError, match="above the cap"):
        dyadic_grid(1e5, 10 ** 8)


@given(st.floats(min_value=4.0, max_value=1e8), st.integers(1, 12))
@settings(max_examples=50, deadline=None)
def test_dyadic_grid_properties(n_max, ppo):
    g = dyadic_grid(n_max, ppo)
    assert g[-1] == n_max
    assert np.all(np.diff(g) > 0)
    assert np.all(g >= 2.0)


def test_counting_series_matches_counting_function():
    for geom in (Geometry.torus(1), Geometry.torus(2), Geometry.su2(),
                 Geometry.sphere(2)):
        grid = dyadic_grid(64, 2)
        series = counting_series(geom, grid)
        for n, c in zip(series.cutoffs, series.counts):
            assert c == counting_function(geom, n)
        np.testing.assert_array_equal(series.sums, series.counts)


def test_default_pictures(tmp_path):
    # partial_sums tags its series with the kind's picture
    path = tmp_path / "spec.txt"
    path.write_text("a 1 1 0.0\nb 3 3 2.0\n")
    grid = np.array([4.0])
    for geom, picture in ((Geometry.torus(2), "manifold"), (Geometry.su2(), "group"),
                          (Geometry.sphere(3), "homogeneous"),
                          (Geometry.from_file(str(path)), "manifold")):
        assert partial_sums(geom, RadialWeight(1.0), grid).picture == picture


def matrix_table(path, geom, cutoff, rng):
    """A matrix: table of random complex d x d blocks for every label up to
    the cutoff."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in enumerate_dual(geom, cutoff):
            m = rng.standard_normal((p.rep_dim, p.rep_dim, 2)).tolist()
            fh.write("%s\n" % label_text(p))
            for row in m:
                fh.write(" ".join("%.17g%+.17gi" % (a, b) for a, b in row) + "\n")
    return parse_symbol("matrix:%s" % path)


@pytest.mark.parametrize("name", ["torus:1", "torus:2", "torus:3", "su2", "so3", "su3",
                                  "sphere:2", "sphere:3", "sphere:4", "file"])
def test_one_block_rule_on_every_kind(tmp_path, name):
    # the geometry fixes the block: every point contributes the class-one
    # corner of its block, held D/k times, so a spec and its mask: give the
    # same sums bit for bit, on the radial and the per-point path, and the
    # truncated operator holds the eigenvalue count
    if name == "file":  # records held once (D = d) and a group's d copies (D = d^2)
        path = tmp_path / "spec.txt"
        path.write_text("a 1 1 0.0\nb 3 3 2.0\nc 2 4 3.0\nd 3 9 3.0\ne 4 8 5.0\n")
        g = Geometry.from_file(str(path))
    else:
        g = parse_geometry(name)
    cutoff = 2.0 if name == "su3" else 6.0  # 2686 and at most 895 eigenvalues
    rng = np.random.default_rng(11)
    grid = np.unique(np.linspace(2.0, cutoff, 9))
    texts = ("radial:3",
             "diag:%s" % diag_table(tmp_path / "d.txt", g, cutoff, RadialWeight(3.0)).path,
             "matrix:%s" % matrix_table(tmp_path / "m.txt", g, cutoff, rng).path)
    for text in texts:
        spec = parse_symbol(text)
        bare = partial_sums(g, spec, grid)
        masked = partial_sums(g, parse_symbol("mask:" + text), grid)
        assert bare.sums.tobytes() == masked.sums.tobytes()
        assert bare.counts.tobytes() == masked.counts.tobytes()
        assert bare.picture == masked.picture
        op = truncate_operator(g, spec, cutoff)
        assert op.total_dim == counting_function(g, cutoff) == bare.counts[-1] > 0
        k = [p.class_one_dim for p in enumerate_dual(g, cutoff)]
        assert [len(m) for _, m, _ in op.blocks] == k


def test_additivity_of_nonnegative_scalars():
    g = Geometry.torus(1)
    grid = dyadic_grid(2000, 4)
    s1, s2 = RadialWeight(1.0), RadialWeight(2.0)
    a = partial_sums(g, s1, grid)
    b = partial_sums(g, s2, grid)
    both = partial_sums(g, SymbolSum([s1, s2]), grid)
    np.testing.assert_allclose(both.sums, a.sums + b.sums, rtol=1e-12)


def test_grid_extension_keeps_prefix_bits():
    # the stream must not let later chunks perturb earlier snapshots.  The
    # short grid crosses two chunk boundaries of torus:1 shells, with cutoffs
    # stopping on the last shell of a chunk and on the first of the next.
    # Most snapshots come out correctly rounded under any chunking, so the
    # grid is dense: a chunk length that depends on the cutoff changes a few.
    g = Geometry.torus(1)
    spec = parse_symbol("modulus:0.5")
    edges = [r for k in (1, 2) for r in (k * _CHUNK - 1, k * _CHUNK)]
    edge_cutoffs = [math.sqrt(r * r + 1.5) for r in edges]  # stop on shell r
    long = np.union1d(dyadic_grid(12 * _CHUNK, 32), edge_cutoffs)
    short = long[long <= 3 * _CHUNK]
    a = partial_sums(g, spec, short)
    b = partial_sums(g, spec, long)
    np.testing.assert_array_equal(a.counts[np.isin(short, edge_cutoffs)],
                                  [2 * r + 1 for r in edges])
    k = len(short)
    np.testing.assert_array_equal(a.sums, b.sums[:k])
    np.testing.assert_array_equal(a.counts, b.counts[:k])


@pytest.mark.parametrize("name, symbol", [("torus:2", "modulus:0.5"), ("su3", "radial:9")])
def test_grid_extension_across_lattice_windows(name, symbol):
    # torus:2 and su3 shells come in windows of about _CHUNK labels (a, b)
    # in q = den * lambda (geometry._windows), and only occupied shells are
    # streamed.  Short grids end on the last q of two full windows, on the
    # first q of the next, and on the empty start of a later window (the
    # stream then ends a window early); their snapshots must reappear bit
    # for bit on a grid about 7 windows long.  Windows placed relative to
    # the cap would shift between the two.
    g = parse_geometry(name)
    rule = geometry._ROWS[name]
    long_end = math.sqrt(1 + 10 * _CHUNK / rule.den)
    windows = [(lo, set(rule.q(a, b).tolist()))
               for lo, a, b in geometry._lattice_windows(rule, g.lattice_cap(long_end))]
    starts = [lo for lo, _ in windows]
    occupied = set().union(*(qs for _, qs in windows))
    empty = next(lo for lo in starts[-3:] if lo not in occupied)
    ends = [q for lo in starts[-5:-3] for q in (lo - 1, lo)] + [empty]
    end_cutoffs = [math.sqrt(1 + (q + 0.5) / rule.den) for q in ends]  # cap = q
    assert [g.lattice_cap(n) for n in end_cutoffs] == ends
    long = np.union1d(dyadic_grid(long_end, 64), end_cutoffs)
    b = partial_sums(g, parse_symbol(symbol), long)
    for end in end_cutoffs:
        short = long[long <= end]
        a = partial_sums(g, parse_symbol(symbol), short)
        k = len(short)
        np.testing.assert_array_equal(a.sums, b.sums[:k])
        np.testing.assert_array_equal(a.counts, b.counts[:k])
    for n, c in zip(long, b.counts):
        if n <= end_cutoffs[-1]:  # su3 counts pass 2**53 here
            assert abs(c - counting_function(g, n)) <= 1e-15 * c


def test_grid_extension_between_chunks():
    # su2 cutoffs between the last label of a chunk and the first of the
    # next: a stream that ends there and one that runs on read the same
    # snapshot, the one at the last admitted label
    g = Geometry.su2()
    spec = parse_symbol("bessel:3:2")
    gaps = [math.sqrt(1 + (2 * l * l + 2 * l - 1) / 8) for l in _CHUNK * np.arange(1, 9)]
    long = np.union1d(dyadic_grid(10 * _CHUNK, 4), gaps)
    b = partial_sums(g, spec, long)
    for end in gaps:
        short = long[long <= end]
        a = partial_sums(g, spec, short)
        np.testing.assert_array_equal(a.sums, b.sums[:len(short)])
        assert a.counts[-1] == counting_function(g, end)


def test_past_the_end_snapshot_reads_the_last_chunk_prefix():
    # a threshold past the last shell reads the carry before the last chunk
    # plus that chunk's total, as a threshold inside that chunk does on a
    # longer stream.  The compensated carry after the last chunk has taken
    # the two 1e-16 into account and reads 1 + 2**-52 here instead.
    def chunk(lam, contrib):
        return np.array(lam), np.array(contrib), np.ones(len(lam))

    head = [chunk([0.0], [1.0]), chunk([1.0], [1e-16])]
    end = _stream_snapshots(head + [chunk([2.0], [1e-16])], np.array([2.5]))
    longer = _stream_snapshots(head + [chunk([2.0, 3.0], [1e-16, 1.0])], np.array([2.5]))
    assert end[0][0] == longer[0][0] == 1.0
    assert end[1][0] == longer[1][0] == 3.0


def test_tie_across_chunks_counts_whole():
    # keys [0, 1] and [1, 2]: a threshold on the tie reads both 1s, inside
    # the stream and at its end
    def chunk(lam, contrib):
        return np.array(lam), np.array(contrib), np.ones(len(lam))

    head = [chunk([0.0, 1.0], [1.0, 10.0])]
    sums, counts = _stream_snapshots(head + [chunk([1.0, 2.0], [100.0, 1000.0])],
                                     np.array([0.5, 1.0, 1.5, 2.0]))
    assert counts.tolist() == [1.0, 3.0, 3.0, 4.0]
    assert sums.tolist() == [1.0, 111.0, 111.0, 1111.0]
    sums, counts = _stream_snapshots(head + [chunk([1.0], [100.0])], np.array([1.0]))
    assert (sums[0], counts[0]) == (111.0, 3.0)


def test_grid_extension_with_a_tie_across_point_chunks(tmp_path):
    # per point on torus:2, the 16 points of lambda = 5210 straddle the
    # first chunk boundary.  A grid ending on that shell and one running on
    # read the same snapshots bit for bit, count the shell whole, and sit
    # within 1e-15 of math.fsum of the per-point terms.
    g = Geometry.torus(2)
    f = RadialWeight(2.0)
    spec = diag_table(tmp_path / "t.txt", g, 80.0, f)
    pts = list(enumerate_dual(g, 80.0))
    tie = pts[_CHUNK].eigenvalue
    assert pts[_CHUNK - 1].eigenvalue == tie
    end = math.sqrt(1 + tie + 0.5)
    assert g.lattice_cap(end) == tie
    long = np.union1d(dyadic_grid(80.0, 16), [end])
    short = long[long <= end]
    a = partial_sums(g, spec, short)
    b = partial_sums(g, spec, long)
    np.testing.assert_array_equal(a.sums, b.sums[:len(short)])
    np.testing.assert_array_equal(a.counts, b.counts[:len(short)])
    lam = np.array([p.eigenvalue for p in pts])
    terms = [scalar_values(f, np.array([x]), g)[0] for x in lam]
    for n, s, c in zip(long, b.sums, b.counts):
        k = int(np.searchsorted(lam, g.lambda_threshold(n), "right"))
        assert c == k == counting_function(g, n)
        assert abs(s - math.fsum(terms[:k])) <= 1e-15 * s


def test_torus3_stream_holds_no_shell_lists():
    # higher tori stream _CHUNK enumerated points at a time, never lists of
    # points grouped by shell
    tracemalloc.start()
    try:
        partial_sums(Geometry.torus(3), parse_symbol("radial:3"), dyadic_grid(30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


def test_su2_stream_sums_match_fsum():
    # every snapshot of the shell stream against math.fsum of its D |f| terms
    g = Geometry.su2()
    spec = parse_symbol("bessel:3:2")
    grid = dyadic_grid(1e6, 4)
    series = partial_sums(g, spec, grid)
    chunks = [(lam.copy(), dsum.copy()) for lam, dsum in radial_shells(g, grid[-1])]
    lam, dsum = (np.concatenate(x) for x in zip(*chunks))
    assert len(lam) > 100 * _CHUNK
    terms = (dsum * np.abs(scalar_values(spec, lam, g))).tolist()
    for n, s in zip(grid, series.sums):
        ref = math.fsum(terms[:int(np.searchsorted(lam, g.lambda_threshold(n), "right"))])
        assert abs(s - ref) <= 1e-15 * ref


def test_torus1_sums_match_mpmath():
    # S(N) = 1 + 2 sum_{1 <= r <= m} (1 + r^2)^(-1/2), m = floor(sqrt(N^2 - 1)),
    # summed exactly in 40 digits
    mpmath = pytest.importorskip("mpmath")
    g = Geometry.torus(1)
    grid = dyadic_grid(6 * _CHUNK, 4)
    series = partial_sums(g, RadialWeight(1.0), grid)
    with mpmath.workdps(40):
        ref, r = mpmath.mpf(1), 0
        for n, s in zip(grid, series.sums):
            m = math.isqrt(int(g.lambda_threshold(n)))
            ref += 2 * mpmath.fsum(1 / mpmath.sqrt(1 + mpmath.mpf(k) ** 2)
                                   for k in range(r + 1, m + 1))
            r = m
            assert abs(s - ref) <= 1e-15 * ref


def test_su2_counts_past_2_53_match_counting_function():
    g = Geometry.su2()
    grid = dyadic_grid(1e7, 4)
    counts = partial_sums(g, RadialWeight(0.0), grid).counts
    assert counts[-1] > 2.0 ** 53
    for n, c in zip(grid, counts):
        exact = counting_function(g, n)
        assert abs(c - exact) <= 1e-15 * exact


def test_su2_stream_stops_at_the_exact_cutoff():
    # label 2e8 - 1 has eigenvalue (4e16 - 1)/4 > 1e16 - 1 = N^2 - 1, but
    # both round to 1e16; admitting it would add 4e16, 1.5e-8 of the count.
    # The stream runs on past 1e8, so only the threshold keeps it out.
    g = Geometry.su2()
    grid = np.array([2.0, 1e8, 1e8 + 1])
    for n, count in zip(grid, counting_series(g, grid).counts):
        exact = counting_function(g, n)
        assert abs(count - exact) <= 1e-15 * exact


def test_streamed_sums_run_in_flat_memory():
    # the streams hold one chunk at a time, whatever the cutoff
    bc = IntervalBC(a=-math.e, b=1.0)
    runs = [lambda: partial_sums(Geometry.torus(1), parse_symbol("modulus:0.5"),
                                 dyadic_grid(1e7)),
            lambda: partial_sums(Geometry.su3(), parse_symbol("radial:8"), dyadic_grid(1e3)),
            lambda: partial_sums(Geometry.torus(2), parse_symbol("radial:2"),
                                 dyadic_grid(4000)),
            lambda: boundary_series(BoundarySymbol.inverse_spectrum(bc, 500_001),
                                    dyadic_grid(1e6))]
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


def _digest(series):
    return hashlib.sha256(series.sums.tobytes() + series.counts.tobytes()).hexdigest()[:16]


# sums and counts of the fold before the Euler-Maclaurin tail existed,
# hashed: the point-blocks benchmark's radial specs, all below the head
@pytest.mark.parametrize("name, symbol, cutoff, digest", [
    ("torus:1", "radial:1", 1e4, "edd407c5c1ad6108"),
    ("su2", "radial:3", 300.0, "a13a41c95e7e4a96"),
    ("sphere:3", "radial:3", 40.0, "cd2361b36f389476")])
def test_sums_below_the_head_keep_the_fold_bits(name, symbol, cutoff, digest):
    series = partial_sums(parse_geometry(name), parse_symbol(symbol), dyadic_grid(cutoff, 4))
    assert _digest(series) == digest


def test_mixed_sign_and_steep_terms_keep_the_fold():
    # |f| is not smooth where a sum of leaves of both signs crosses zero, and
    # terms steeper than m^16 would carry the tail's rounding past 5e-15, so
    # both fold every label, past the head too, with the fold's bits and
    # under the label cap
    g = Geometry.su2()
    mixed = SymbolSum([RadialWeight(3.0), Scaled(-0.5, RadialWeight(4.0))])
    assert _digest(partial_sums(g, mixed, dyadic_grid(2e6, 4))) == "367435c7d6491173"
    with pytest.raises(SizeError, match="above the cap"):
        partial_sums(g, mixed, dyadic_grid(1e9, 4))
    steep = partial_sums(Geometry.torus(1), parse_symbol("power:-10"), dyadic_grid(4e6, 4))
    assert _digest(steep) == "41e093f6e320db2a"  # 2 m^20


def test_one_signed_sum_takes_the_tail():
    # leaves of one sign: the tail of the sum is the sum of the tails
    g = Geometry.sphere(3)
    grid = dyadic_grid(1e12, 4)
    parts = [Scaled(-1.0, RadialWeight(3.0)), Scaled(-2.0, PowerOfEigenvalue(2.0, 1.0))]
    whole = partial_sums(g, SymbolSum(parts), grid)
    split = [partial_sums(g, p, grid) for p in parts]
    np.testing.assert_allclose(whole.sums, split[0].sums + split[1].sums, rtol=1e-15)
    np.testing.assert_array_equal(whole.counts, split[0].counts)


def _mp_sum(g, big_m, integral, head=1024):
    """sum_{m=0}^{big_m} g(m) in 30 digits: the first head terms by fsum,
    the rest by mpmath.sumem given the exact integral."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        first = mpmath.fsum(g(mpmath.mpf(m)) for m in range(head))
        return first + mpmath.sumem(g, [head, big_m], integral=integral(big_m) - integral(head))


def _su2_bessel(mpmath):
    # bessel:3:2 on su2: D = (l+1)^2, (1 + l(l+2)/4)^(-3/2) = 8 ((l+1)^2 + 3)^(-3/2)
    def g(l):
        return 8 * (l + 1) ** 2 / ((l + 1) ** 2 + 3) ** 1.5

    def integral(x):
        u = mpmath.mpf(x) + 1
        return 8 * (mpmath.asinh(u / mpmath.sqrt(3)) - u / mpmath.sqrt(u * u + 3))
    return lambda m: _mp_sum(g, m, integral)


def _torus1_radial(mpmath):
    # radial:1 on torus:1: 1 + 2 sum_{m=1}^{M} (1 + m^2)^(-1/2)
    return lambda m: _mp_sum(lambda x: 2 / mpmath.sqrt(1 + x * x), m,
                             lambda x: 2 * mpmath.asinh(x)) - 1


def _sphere3_radial(mpmath):
    # radial:3 on sphere:3: D = (l+1)^2 and 1 + lambda = (l+1)^2, so the sum
    # is a harmonic number
    return lambda m: mpmath.harmonic(m + 1)


@pytest.mark.parametrize("name, symbol, reference", [
    ("su2", "bessel:3:2", _su2_bessel), ("torus:1", "radial:1", _torus1_radial),
    ("sphere:3", "radial:3", _sphere3_radial)])
def test_tail_sums_match_mpmath_at_1e12(name, symbol, reference):
    mpmath = pytest.importorskip("mpmath")
    g = parse_geometry(name)
    grid = dyadic_grid(1e12, 4)
    series = partial_sums(g, parse_symbol(symbol), grid)
    rule = geometry._closed_form(g)
    labels = [rule.label_max(g.lattice_cap(n)) for n in grid]
    first = next(k for k, m in enumerate(labels) if m >= summation._HEAD)
    for k in (first - 1, first, len(grid) - 1):  # the last fold, the first tail, 1e12
        with mpmath.workdps(30):
            ref = reference(mpmath)(labels[k])
            assert abs(series.sums[k] - ref) <= 1e-14 * ref
        assert series.counts[k] == float(rule.count(labels[k]))


@pytest.mark.parametrize("name, symbol", [("torus:1", "modulus:0.5"), ("su2", "bessel:3:2"),
                                          ("so3", "power:-3")])
def test_grid_extension_past_the_head_is_bit_for_bit(name, symbol):
    # a cutoff's tail depends on its label alone: a prefix or a thinned copy
    # of the grid repeats the long grid's sums and counts
    g, spec = parse_geometry(name), parse_symbol(symbol)
    grid = dyadic_grid(1e12, 4)
    long_ = partial_sums(g, spec, grid)
    for part in (slice(0, len(grid) - 40), slice(1, None, 3)):
        short = partial_sums(g, spec, grid[part])
        assert short.cutoffs[-1] > 2 * summation._HEAD
        np.testing.assert_array_equal(short.sums, long_.sums[part])
        np.testing.assert_array_equal(short.counts, long_.counts[part])


def test_tail_refuses_non_finite_values():
    # su2 power:-6.5: f = (l(l+2)/4)^6.5 and D f about l^15 / 8192
    g, spec = Geometry.su2(), PowerOfEigenvalue(-6.5)
    with np.errstate(over="ignore"):
        # f is finite on the head (l < 2^20) and not at l = 2e24: the tail
        # raises the fold's error
        with pytest.raises(ConfigError, match="non-finite values on su2"):
            partial_sums(g, spec, dyadic_grid(1e24))
        # the terms stay finite (4e300 at l = 2e20), and their sum overflows
        with pytest.raises(NumericError, match="not finite"):
            partial_sums(g, spec, dyadic_grid(1e20))


def test_csv_writes_a_count_past_float64(tmp_path):
    series = PartialSumSeries(np.array([2.0, 4.0]), np.array([1.0, 2.0]),
                              np.array([3.0, math.inf]), dim=1, picture="manifold")
    path = tmp_path / "s.csv"
    series.to_csv(str(path))
    assert path.read_text().splitlines()[1:] == ["2,3,1", "4,inf,2"]


def test_grid_extension_on_object_path(tmp_path):
    # keep cutoffs modest: the block path materializes d x d matrices
    g = Geometry.su2()
    spec = diag_table(tmp_path / "t.txt", g, 150, RadialWeight(2.0))
    short = dyadic_grid(50, 4)
    long = dyadic_grid(150, 4)
    a = partial_sums(g, spec, short)
    b = partial_sums(g, spec, long)
    k = len(short) - 1
    np.testing.assert_array_equal(a.sums[:k], b.sums[:k])


def test_block_path_agrees_with_radial_path(tmp_path):
    # the table holds the radial scalar on every diagonal entry, so both code
    # paths compute the same series through different evaluation and
    # reduction orders
    g = Geometry.su2()
    grid = dyadic_grid(120, 4)
    block = partial_sums(g, diag_table(tmp_path / "t.txt", g, 120, RadialWeight(2.0)),
                         grid)
    radial = partial_sums(g, RadialWeight(2.0), grid)
    np.testing.assert_allclose(block.sums, radial.sums, rtol=1e-12)
    np.testing.assert_array_equal(block.counts, radial.counts)


@pytest.mark.parametrize("name, cutoff", [
    ("su2", 150.0), ("so3", 80.0), ("su3", 4.0), ("sphere:3", 40.0),
    ("sphere:4", 30.0), ("torus:1", 1e4), ("torus:2", 60.0), ("file", 30.0)])
def test_streamed_mask_matches_per_point_path(tmp_path, name, cutoff):
    # specs built from radial scalars, scaled: and sums stream by shell on
    # every kind; the same spec over diag: tables holding the
    # same scalars runs per point, each block held D/k times.  The fold
    # sees different terms (one per shell, 2**14 shells or q values per
    # chunk, vs one per point, 2**14 points per chunk), so sums agree to
    # rounding and counts exactly.  A bare table on a sphere is read through
    # its class-one corner, as every block is.
    if name == "file":
        path = str(tmp_path / "su2-spec.txt")  # d = n + 1, D = d^2
        save_spectrum_file(enumerate_dual(Geometry.su2(), cutoff), path)
        g = Geometry.from_file(path, dim=3)
    else:
        g = parse_geometry(name)
    f, h = RadialWeight(3.0), RadialWeight(4.0)
    tables = (diag_table(tmp_path / "f.txt", g, cutoff, f),
              diag_table(tmp_path / "h.txt", g, cutoff, h))
    grid = dyadic_grid(cutoff, 4)
    shapes = [lambda f, h: Scaled(2.0, f),
              lambda f, h: SymbolSum([f, h]),
              lambda f, h: f]
    for build in shapes:
        spec = build(f, h)
        assert is_radial_scalar(spec)
        streamed = partial_sums(g, spec, grid)
        per_point = partial_sums(g, build(*tables), grid)
        np.testing.assert_allclose(streamed.sums, per_point.sums, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(streamed.counts, per_point.counts)
        assert streamed.sums[-1] > 0


@pytest.mark.parametrize("name, cutoff", [
    ("su2", 30.0), ("so3", 30.0), ("su3", 6.0), ("torus:1", 1000.0), ("torus:2", 40.0)])
def test_file_spectrum_of_a_kind_gives_its_sums(tmp_path, name, cutoff):
    # a kind saved as a file spectrum holds each block D/d times, as the
    # kind holds it rep_dim times: a radial scalar and the diag: table of
    # its values give the kind's own sums on either spelling
    g = parse_geometry(name)
    path = str(tmp_path / "spec.txt")
    save_spectrum_file(enumerate_dual(g, cutoff), path)
    fg = Geometry.from_file(path, dim=g.dim)
    f = RadialWeight(3.0)
    table = diag_table(tmp_path / "f.txt", g, cutoff, f)
    grid = dyadic_grid(cutoff, 4)
    own = partial_sums(g, f, grid)
    for geom, spec in ((g, table), (fg, f), (fg, table)):
        series = partial_sums(geom, spec, grid)
        np.testing.assert_allclose(series.sums, own.sums, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(series.counts, own.counts)
    assert own.counts[-1] == counting_function(g, cutoff)


def test_masked_table_past_d_2048_runs_in_flat_memory(tmp_path):
    # sphere:4 blocks reach d = 8555 below cutoff 30; the implied mask
    # builds each diag: table's 1-entry corner alone, never the d entries
    g = parse_geometry("sphere:4")
    table = diag_table(tmp_path / "t.txt", g, 30.0, RadialWeight(3.0))
    assert max(p.rep_dim for p in enumerate_dual(g, 30.0)) == 8555
    tracemalloc.start()
    try:
        series = partial_sums(g, table, dyadic_grid(30.0, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    assert series.counts[-1] == counting_function(g, 30.0)


def test_partial_sums_grid_validation():
    g = Geometry.torus(1)
    with pytest.raises(ConfigError):
        partial_sums(g, RadialWeight(1.0), np.array([4.0, 3.0]))
    with pytest.raises(ConfigError):
        partial_sums(g, RadialWeight(1.0), np.array([1.5, 3.0]))
    with pytest.raises(ConfigError):
        partial_sums(g, RadialWeight(1.0), np.array([]))


def test_csv_round_trip_is_bitwise(tmp_path):
    g = Geometry.torus(1)
    series = partial_sums(g, RadialWeight(1.0), dyadic_grid(5000, 4))
    path = str(tmp_path / "series.csv")
    series.to_csv(path, extra_f=True)
    back = PartialSumSeries.from_csv(path, dim=series.dim,
                                     picture=series.picture)
    np.testing.assert_array_equal(series.cutoffs, back.cutoffs)
    np.testing.assert_array_equal(series.sums, back.sums)
    np.testing.assert_array_equal(series.counts, back.counts)


@pytest.mark.parametrize("row", ["4,x,2", "4,3"])
def test_from_csv_names_the_bad_line(tmp_path, row):
    # a non-numeric field and a short row raised bare ValueError/IndexError
    path = tmp_path / "s.csv"
    path.write_text("cutoff,count,sum\n2,1,1\n%s\n" % row)
    with pytest.raises(SpectrumFormatError, match="s.csv:3: .*%r" % row):
        PartialSumSeries.from_csv(str(path))


def test_csv_header_only_for_empty_series(tmp_path):
    empty = PartialSumSeries(np.zeros(0), np.zeros(0), np.zeros(0),
                             dim=1, picture="manifold")
    path = str(tmp_path / "empty.csv")
    empty.to_csv(path)
    lines = Path(path).read_text().splitlines()
    assert lines == ["cutoff,count,sum"]


def test_weyl_fit_recovers_dimension():
    fit1 = weyl_fit(counting_series(Geometry.torus(1), dyadic_grid(1e5, 4)))
    assert fit1.kappa_hat == pytest.approx(1.0, rel=0.01)
    fit2 = weyl_fit(counting_series(Geometry.su2(), dyadic_grid(512, 4)))
    assert fit2.kappa_hat == pytest.approx(3.0, rel=0.02)


def test_weyl_fit_needs_enough_points():
    with pytest.raises(FitError):
        weyl_fit(counting_series(Geometry.torus(1), dyadic_grid(5, 1)))


def test_series_rejects_unknown_picture():
    with pytest.raises(ConfigError):
        PartialSumSeries(np.array([2.0]), np.array([1.0]), np.array([1.0]),
                         dim=1, picture="sideways")
