import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dixtrace.errors import ConfigError, ContractError, FitError
from dixtrace.geometry import (Geometry, counting_function, enumerate_dual,
                               label_text, parse_geometry, save_spectrum_file)
from dixtrace.summation import (PartialSumSeries, counting_series,
                                default_picture, dyadic_grid, partial_sums,
                                scale_series, weyl_fit)
from dixtrace.symbol import (ClassOneMask, DiagonalTable, RadialWeight,
                             SymbolSum, parse_symbol, scalar_values)


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
    # the stream must not let later chunks perturb earlier snapshots
    g = Geometry.torus(1)
    spec = RadialWeight(1.0)
    short = dyadic_grid(1e3, 4)
    long = dyadic_grid(1e5, 4)
    a = partial_sums(g, spec, short)
    b = partial_sums(g, spec, long)
    k = len(short) - 1  # every short cutoff except the appended endpoint
    np.testing.assert_array_equal(a.sums[:k], b.sums[:k])
    np.testing.assert_array_equal(a.counts[:k], b.counts[:k])


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


def test_parallel_matches_serial_bitwise(tmp_path):
    g = Geometry.su2()
    spec = diag_table(tmp_path / "t.txt", g, 150, RadialWeight(2.0))
    grid = dyadic_grid(150, 4)
    serial = partial_sums(g, spec, grid, workers=None)
    parallel = partial_sums(g, spec, grid, workers=3)
    np.testing.assert_array_equal(serial.sums, parallel.sums)
    np.testing.assert_array_equal(serial.counts, parallel.counts)


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
    ("torus:1", 1e4), ("torus:2", 60.0), ("file", 30.0)])
def test_streamed_mask_matches_per_point_path(tmp_path, name, cutoff):
    # mask:SCALAR streams by shell on lifted kinds; a mask of a diag: table
    # with the same scalar runs per point.  The fold groups shells
    # differently (2**21 vs 256 per chunk), so sums agree to rounding and
    # counts exactly.  On a file spectrum both sides run per point, with
    # weight 1 per point rather than D.
    if name == "file":
        path = str(tmp_path / "su2-spec.txt")  # d = n + 1, D = d^2
        save_spectrum_file(enumerate_dual(Geometry.su2(), cutoff), path)
        g = Geometry.from_file(path, dim=3)
    else:
        g = parse_geometry(name)
    inner = RadialWeight(3.0)
    grid = dyadic_grid(cutoff, 4)
    streamed = partial_sums(g, ClassOneMask(inner), grid)
    table = diag_table(tmp_path / "t.txt", g, cutoff, inner)
    per_point = partial_sums(g, ClassOneMask(table), grid)
    np.testing.assert_allclose(streamed.sums, per_point.sums, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(streamed.counts, per_point.counts)
    assert streamed.sums[-1] > 0


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
