import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dixtrace.boundary import BoundarySymbol, IntervalBC, boundary_series
from dixtrace.errors import ConfigError, ContractError, FitError
from dixtrace.geometry import (_CHUNK, Geometry, counting_function,
                               enumerate_dual, label_text, parse_geometry,
                               radial_shells, save_spectrum_file)
from dixtrace.summation import (PartialSumSeries, _stream_snapshots,
                                counting_series, default_picture, dyadic_grid,
                                partial_sums, scale_series, weyl_fit)
from dixtrace.symbol import (ClassOneMask, DiagonalTable, RadialWeight, Scaled,
                             SymbolSum, is_radial_scalar, parse_symbol,
                             scalar_values)


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


def test_default_pictures():
    assert default_picture(Geometry.torus(2)) == "manifold"
    assert default_picture(Geometry.su2()) == "group"
    assert default_picture(Geometry.sphere(3)) == "homogeneous"


def test_group_and_manifold_pictures_agree_on_su2():
    # the block lift makes the two summation formulas produce the same
    # numbers; the picture tag is bookkeeping
    g = Geometry.su2()
    grid = dyadic_grid(200, 4)
    spec = parse_symbol("bessel:3:2")
    a = partial_sums(g, spec, grid, picture="group")
    b = partial_sums(g, spec, grid, picture="manifold")
    np.testing.assert_array_equal(a.sums, b.sums)
    assert a.picture == "group" and b.picture == "manifold"


def test_boundary_picture_rejected():
    with pytest.raises(ContractError):
        partial_sums(Geometry.torus(1), RadialWeight(1.0), dyadic_grid(16),
                     picture="boundary-index")


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


@pytest.mark.parametrize("name, symbol, den, empty", [("torus:2", "modulus:0.5", 1, 3),
                                                      ("su3", "radial:9", 9, 3)])
def test_grid_extension_across_lattice_windows(name, symbol, den, empty):
    # torus:2 and su3 shells come in windows of _CHUNK values of q = den *
    # lambda, fixed in q, and only occupied shells are streamed.  Short
    # grids end on the last q of windows 1 and 2, on the first q of the
    # next, and on the empty start of window `empty` (the stream then ends
    # a window early); their snapshots must reappear bit for bit on a grid
    # 5.5 windows long.  Windows placed relative to the cap would shift
    # between the two.
    g = parse_geometry(name)
    ends = [q for k in (1, 2) for q in (k * _CHUNK - 1, k * _CHUNK)] + [empty * _CHUNK]
    end_cutoffs = [math.sqrt(1 + (q + 0.5) / den) for q in ends]  # cap = q
    assert [g.lattice_cap(n) for n in end_cutoffs] == ends
    long = np.union1d(dyadic_grid(math.sqrt(1 + 5.5 * _CHUNK / den), 64), end_cutoffs)
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
    lam, dsum = (np.concatenate(x) for x in zip(*radial_shells(g, grid[-1])))
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
    # specs built from radial scalars, scaled:, sums and mask: stream by
    # shell on lifted kinds; the same spec over diag: tables holding the
    # same scalars runs per point.  The fold sees different terms (one per
    # shell, 2**14 shells or q values per chunk, vs one per point, 2**14
    # points per chunk), so sums agree to rounding and counts exactly.  On a file spectrum both sides of a mask
    # run per point, with weight 1 per point rather than D.  A bare table on
    # a sphere takes the mask its picture implies (a bare scalar on a file
    # spectrum streams with weight D, which its table does not match, so it
    # is left out).
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
    lifted = g.block_rule(default_picture(g))[1]
    shapes = [lambda f, h: ClassOneMask(f),
              lambda f, h: Scaled(2.0, ClassOneMask(f)),
              lambda f, h: SymbolSum([ClassOneMask(f), h])]
    if lifted:
        shapes.append(lambda f, h: f)
    for build in shapes:
        spec = build(f, h)
        assert is_radial_scalar(spec, lifted) == lifted
        streamed = partial_sums(g, spec, grid)
        per_point = partial_sums(g, build(*tables), grid)
        np.testing.assert_allclose(streamed.sums, per_point.sums, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(streamed.counts, per_point.counts)
        assert streamed.sums[-1] > 0


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


def test_scale_series():
    g = Geometry.torus(1)
    series = partial_sums(g, RadialWeight(1.0), dyadic_grid(100, 2))
    doubled = scale_series(series, 2.0)
    np.testing.assert_allclose(doubled.sums, 2.0 * series.sums, rtol=0)
    np.testing.assert_array_equal(doubled.counts, series.counts)
    with pytest.raises(ConfigError):
        scale_series(series, -1.0)


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


def test_csv_header_only_for_empty_series(tmp_path):
    empty = PartialSumSeries(np.zeros(0), np.zeros(0), np.zeros(0),
                             dim=1, picture="manifold")
    path = str(tmp_path / "empty.csv")
    empty.to_csv(path)
    lines = Path(path).read_text().splitlines()
    assert lines == ["cutoff,count,sum"]


def test_json_round_trip_is_bitwise(tmp_path):
    g = Geometry.su2()
    series = partial_sums(g, parse_symbol("bessel:3:2"), dyadic_grid(300, 4))
    path = str(tmp_path / "series.json")
    series.to_json(path)
    back = PartialSumSeries.from_json(path)
    np.testing.assert_array_equal(series.sums, back.sums)
    np.testing.assert_array_equal(series.cutoffs, back.cutoffs)
    assert back.dim == 3 and back.picture == "group"
    doc = json.loads(Path(path).read_text())
    assert doc["schema_version"] == 1


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
