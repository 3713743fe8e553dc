import math
import tracemalloc
from fractions import Fraction
from itertools import groupby, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dixtrace import geometry, summation
from dixtrace.errors import ConfigError, SizeError, SpectrumFormatError
from dixtrace.geometry import (_CHUNK, DualPoint, Geometry, _sphere_dims,
                               counting_function, enumerate_dual, label_text,
                               parse_geometry, radial_shells, save_spectrum_file,
                               sphere_harmonic_dim)
from dixtrace.summation import counting_series, dyadic_grid, partial_sums
from dixtrace.symbol import parse_symbol

ALL_GEOMS = [Geometry.torus(1), Geometry.torus(2), Geometry.su2(),
             Geometry.so3(), Geometry.su3(), Geometry.sphere(2),
             Geometry.sphere(3)]


# cutoff caps for geometries whose full enumeration gets slow beyond them
SMALL_CUTOFF = {"su3": 20.0, "torus:3": 12.0, "torus:4": 6.0}


def brute_count(geom, cutoff):
    return sum(p.eigenspace_dim for p in enumerate_dual(geom, cutoff))


@pytest.mark.parametrize("geom", ALL_GEOMS + [Geometry.sphere(4), Geometry.sphere(5),
                                              Geometry.torus(3), Geometry.torus(4)],
                         ids=lambda g: g.describe())
@pytest.mark.parametrize("cutoff", [2.0, 5.1, 17.3, 40.0])
def test_counting_matches_enumeration(geom, cutoff):
    cutoff = min(cutoff, SMALL_CUTOFF.get(geom.describe(), cutoff))
    assert counting_function(geom, cutoff) == brute_count(geom, cutoff)


@pytest.mark.parametrize("kind", ["torus:1", "torus:2", "torus:3", "su2", "so3", "su3",
                                  "sphere:2", "sphere:3", "sphere:4", "file"])
def test_radial_shells_group_the_enumeration(kind, tmp_path):
    # every shell stream, reduced by eigenvalue, is the per-eigenvalue
    # grouping of enumerate_dual; higher tori and file spectra stream one
    # entry per point, so their eigenvalues repeat
    if kind == "file":
        path = str(tmp_path / "spec.txt")
        save_spectrum_file(enumerate_dual(Geometry.so3(), 20.0), path)
        kind = "file:" + path
    geom = parse_geometry(kind)
    cutoff = SMALL_CUTOFF.get(kind, 20.0)
    chunks = [(lam.copy(), dsum.copy()) for lam, dsum in radial_shells(geom, cutoff)]
    lam = np.concatenate([c[0] for c in chunks])
    dsum = np.concatenate([c[1] for c in chunks])
    assert np.all(np.diff(lam) >= 0)
    ev, start = np.unique(lam, return_index=True)
    shells = [(ev, float(sum(p.eigenspace_dim for p in pts)))
              for ev, pts in groupby(enumerate_dual(geom, cutoff), key=lambda p: p.eigenvalue)]
    assert ev.tolist() == [ev for ev, _ in shells]
    assert np.add.reduceat(dsum, start).tolist() == [dd for _, dd in shells]


def test_su2_count_at_golden_cutoff():
    # n <= 9 pass the weight cutoff 5.1; sum of (n+1)^2 is 385
    assert counting_function(Geometry.su2(), 5.1) == 385


def test_torus1_count_closed_form():
    g = Geometry.torus(1)
    for n in (2.0, 10.0, 1000.0, 12345.0):
        r = math.isqrt(int(n * n - 1))
        assert counting_function(g, n) == 2 * r + 1


def test_torus2_count_small_by_hand():
    # weight 2 keeps |k|^2 <= 3: the origin, 4 axis neighbours and 4 diagonals
    assert counting_function(Geometry.torus(2), 2.0) == 9


def test_high_rank_torus_counts():
    # the recursion meets each (rank, cap) pair once per call, so these run
    # in milliseconds; the values are those of the unmemoized recursion
    assert counting_function(Geometry.torus(6), 40.0) == 21151301549
    assert counting_function(Geometry.torus(8), 16.0) == 17281998049


def test_enumeration_sorted_by_eigenvalue():
    for geom in ALL_GEOMS:
        cutoff = 12.0 if geom.kind != "su3" else 8.0
        lams = [p.eigenvalue for p in enumerate_dual(geom, cutoff)]
        assert lams == sorted(lams)
        assert len(lams) > 0


def test_su3_eigenvalue_and_dimension_formulas():
    pts = {p.label: p for p in enumerate_dual(Geometry.su3(), 10.0)}
    assert pts[(1, 0)].rep_dim == 3
    assert pts[(1, 1)].rep_dim == 8
    assert pts[(2, 0)].rep_dim == 6
    assert pts[(1, 0)].eigenvalue == pytest.approx(4.0 / 9.0, abs=0)
    assert pts[(1, 1)].eigenvalue == pytest.approx(1.0, abs=0)
    for p in pts.values():
        a, b = p.label
        assert p.eigenspace_dim == p.rep_dim ** 2
        assert p.eigenvalue * 9 == pytest.approx(a * a + b * b + a * b + 3 * a + 3 * b)


def test_sphere_harmonic_dimensions():
    assert [sphere_harmonic_dim(2, l) for l in range(5)] == [1, 3, 5, 7, 9]
    assert [sphere_harmonic_dim(3, l) for l in range(5)] == [1, 4, 9, 16, 25]
    pts = list(enumerate_dual(Geometry.sphere(2), 6.0))
    for p in pts:
        (l,) = p.label
        assert p.rep_dim == 2 * l + 1
        assert p.class_one_dim == 1
        assert p.eigenvalue == l * (l + 1)


def test_su2_weight_and_eigenvalue():
    pts = list(enumerate_dual(Geometry.su2(), 4.0))
    for p in pts:
        (n,) = p.label
        assert p.eigenvalue == n * (n + 2) / 4.0
        assert p.weight == pytest.approx(math.sqrt(1.0 + p.eigenvalue))
        assert p.class_one_dim == p.rep_dim


@given(st.floats(min_value=2.0, max_value=200.0))
@settings(max_examples=40, deadline=None)
def test_torus1_counting_property(cutoff):
    g = Geometry.torus(1)
    n = counting_function(g, cutoff)
    assert n == brute_count(g, cutoff)
    assert n % 2 == 1  # symmetric around zero plus the origin


@given(st.floats(min_value=2.0, max_value=60.0))
@settings(max_examples=25, deadline=None)
def test_torus2_counting_property(cutoff):
    g = Geometry.torus(2)
    assert counting_function(g, cutoff) == brute_count(g, cutoff)


def test_radial_shells_total_matches_count():
    for geom in ALL_GEOMS:
        cutoff = 30.0 if geom.kind != "su3" else 10.0
        total = 0.0
        last = -1.0
        for lam, dsum in radial_shells(geom, cutoff):
            assert np.all(np.diff(lam) > 0)
            assert lam[0] > last
            last = float(lam[-1])
            total += float(np.sum(dsum))
        assert total == float(counting_function(geom, cutoff))


def test_sphere_harmonic_dim_matches_binomials():
    # one running product serves int labels, exactly, and float64 label
    # arrays (_sphere_dims, the shell stream's form), exactly while (n - 1) d
    # stays below 2**53 and to rounding past it
    labels = np.arange(2001, dtype=np.float64)
    for n in range(2, 13):
        exact = [math.comb(n + l, n) - math.comb(n + l - 2, n) if l else 1
                 for l in range(2001)]
        assert [sphere_harmonic_dim(n, l) for l in range(2001)] == exact
        got = _sphere_dims(n, labels, np.empty_like(labels), np.empty_like(labels))
        assert got.dtype == np.float64
        want = np.array(exact, dtype=np.float64)
        small = np.array([(n - 1) * d < 2 ** 53 for d in exact])
        np.testing.assert_array_equal(got[small], want[small])
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)


@pytest.mark.parametrize("kind, dim", [("torus", 1), ("torus", 3), ("su2", 3), ("so3", 3),
                                       ("su3", 8), ("sphere", 4)])
def test_built_in_kinds_have_nu_two(tmp_path, kind, dim):
    # lattice_cap reads lambda <= N^2 - 1 exactly, so no other nu is built
    for nu in (1.5, 1.0, 3.0, 2.5):
        with pytest.raises(ConfigError, match="laplacian order nu is 2 on %s" % kind):
            Geometry(kind, dim=dim, nu=nu, rank=dim)
    g = Geometry(kind, dim=dim, nu=2, rank=dim)
    assert g == Geometry(kind, dim=dim, rank=dim)
    assert g.lattice_cap(2.5) == {"su2": 4, "su3": 9}.get(kind, 1) * 21 // 4
    path = tmp_path / "spec.txt"
    path.write_text("a 1 1 1.0\n")
    assert Geometry.from_file(str(path), nu=1.5).nu == 1.5


def test_block_rule_lift_identity(tmp_path):
    # a block is held D // k times on every kind; on built-ins d * k == D,
    # so that is rep_dim, and a file record has k = d
    for geom in ALL_GEOMS:
        cutoff = 30.0 if geom.kind != "su3" else 10.0
        for p in enumerate_dual(geom, cutoff):
            assert p.rep_dim * p.class_one_dim == p.eigenspace_dim
            # the class-one corner is the whole block but on spheres
            assert p.class_one_dim == (1 if geom.kind == "sphere" else p.rep_dim)
    path = tmp_path / "spec.txt"
    path.write_text("a 2 4 1.0\n")
    fg = Geometry.from_file(str(path))
    (p,) = enumerate_dual(fg, 10.0)
    assert (p.rep_dim, p.class_one_dim, p.eigenspace_dim // p.class_one_dim) == (2, 2, 2)


def test_parse_geometry_forms():
    assert parse_geometry("torus:2").rank == 2
    assert parse_geometry("su2").kind == "su2"
    assert parse_geometry("SO3").kind == "so3"
    assert parse_geometry("sphere:4").dim == 4
    with pytest.raises(ConfigError):
        parse_geometry("torus:zero")
    with pytest.raises(ConfigError):
        parse_geometry("klein-bottle")
    with pytest.raises(ConfigError):
        parse_geometry("file:")


def test_torus2_histogram_guard():
    with pytest.raises(SizeError):
        list(radial_shells(Geometry.torus(2), 20001.0))


# (c, den, D(l)) of the rank-one kinds: lambda = l(l+c)/den
RANK_ONE = {"su2": (2, 4, lambda l: (l + 1) ** 2), "so3": (1, 1, lambda l: (2 * l + 1) ** 2),
            "sphere:3": (2, 1, lambda l: (l + 1) ** 2)}


def exact_label_max(name, cutoff):
    """Largest rank-one label l with l(l+c)/den <= N^2 - 1, in exact rationals."""
    c, den, _ = RANK_ONE[name]
    t = Fraction(cutoff) ** 2 - 1
    l = math.isqrt(int(den * t))
    while Fraction(l * (l + c), den) > t:
        l -= 1
    return l


def brute_lattice_count(geom, cutoff):
    """Sum of D over the labels with lambda <= N^2 - 1 in exact rationals."""
    t = Fraction(cutoff) ** 2 - 1
    if geom.describe() in RANK_ONE:
        dim = RANK_ONE[geom.describe()][2]
        return sum(dim(l) for l in range(exact_label_max(geom.describe(), cutoff) + 1))
    if geom.kind == "su3":
        bound = math.isqrt(int(9 * t)) + 1
        return sum(((a + 1) * (b + 1) * (a + b + 2) // 2) ** 2
                   for a in range(bound) for b in range(bound)
                   if Fraction(a * a + b * b + a * b + 3 * a + 3 * b, 9) <= t)
    m = math.isqrt(int(t))
    if geom.rank == 1:
        return 2 * m + 1
    return sum(1 for k1 in range(-m, m + 1) for k2 in range(-m, m + 1)
               if k1 * k1 + k2 * k2 <= t)


def test_torus1_cutoff_is_exact_past_2_53():
    # in float64 1e16 - 1 rounds to 1e16 and would admit k = +-1e8
    g = Geometry.torus(1)
    assert counting_function(g, 1e8) == 199_999_999
    for n in (1e8, 2.0 ** 26, 2.0 ** 26 + 0.5, 94906267.0, 94906265.5):
        assert counting_function(g, n) == brute_lattice_count(g, n)
        assert g.lattice_cap(n) == math.floor(Fraction(n) ** 2 - 1)


def test_torus1_stream_stops_at_the_exact_cutoff():
    # the fold's threshold at 1e8 sits between the squares of 1e8 - 1 and
    # 1e8 on the stream, whether the stream ends there or runs on
    g = Geometry.torus(1)
    end = counting_series(g, np.array([2.0, 1e8]))
    longer = counting_series(g, np.array([2.0, 1e8, 1e8 + 1]))
    assert end.counts[1] == longer.counts[1] == 199_999_999
    assert longer.counts[2] == 200_000_001


def test_torus1_enumeration_runs_in_flat_memory():
    # per-point symbols on torus:1 (diag: tables) take one k at a time;
    # materializing the 1e5 points of N = 5e4 at once takes about 5 MB
    tracemalloc.start()
    try:
        n = sum(1 for _ in enumerate_dual(Geometry.torus(1), 5e4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 99_999
    assert peak <= 2 ** 20


@pytest.mark.parametrize("n, cutoff", [(2, 20.0), (3, 9.5), (4, 5.0)])
def test_torus_enumeration_matches_the_cube_reference(n, cutoff):
    g = Geometry.torus(n)
    cap = g.lattice_cap(cutoff)
    m = math.isqrt(cap)
    ref = sorted((sum(x * x for x in k), k)
                 for k in product(range(-m, m + 1), repeat=n)
                 if sum(x * x for x in k) <= cap)
    got = [(p.eigenvalue, p.label) for p in enumerate_dual(g, cutoff)]
    assert got == [(float(q), k) for q, k in ref]
    assert all(type(x) is int for _, k in got for x in k)


# balls of 24 395 to 70 661 points, 5 to 29 windows of q each; torus:3 at
# N = 22 has cap 483, an occupied shell
@pytest.mark.parametrize("n, cutoff", [(1, 2e4), (2, 150.0), (3, 22.0), (4, 10.5), (5, 5.5)])
def test_torus_windows_match_the_cube_reference(n, cutoff):
    g = Geometry.torus(n)
    cap = g.lattice_cap(cutoff)
    assert sum(1 for _ in geometry._torus_windows(n, cap)) >= 5
    m = math.isqrt(cap)
    ref = sorted((sum(x * x for x in k), k)
                 for k in product(range(-m, m + 1), repeat=n)
                 if sum(x * x for x in k) <= cap)
    assert n != 3 or ref[-1][0] == cap
    got = [(p.eigenvalue, p.label) for p in enumerate_dual(g, cutoff)]
    assert got == [(float(q), k) for q, k in ref]


def test_windows_walk_a_row_rule_that_is_not_symmetric():
    # g2's metric, q(a, b) != q(b, a): rows a = 0 .. a_max with floor
    # q(a, 0) reach every label.  Finding the rows by b_max(0, hi), as if q
    # were symmetric, gives 706 of the 869 labels.
    def q(a, b):
        return a * a + 3 * a * b + 3 * b * b + 5 * a + 9 * b

    def b_max(a, cap):  # 3b^2 + (3a + 9) b + a^2 + 5a - cap <= 0
        return (geometry._isqrt((3 * a + 9) ** 2 - 12 * (a * a + 5 * a - cap)) - 3 * a - 9) // 6

    cap = 3000
    a = np.arange(60)
    a = a[q(a, 0) <= cap]
    windows = list(geometry._windows(q(a, 0), np.zeros_like(a),
                                     lambda live, hi: b_max(a[:live], hi) + 1, cap))
    assert len(windows) >= 5
    got = []
    for (lo, row, x), end in zip(windows, [lo for lo, _, _ in windows[1:]] + [cap + 1]):
        qs = q(a[row], x)
        assert np.all((lo <= qs) & (qs < end))  # windows ascend in q
        got += zip(qs.tolist(), a[row].tolist(), x.tolist())
    ref = [(q(x, y), x, y) for x in range(60) for y in range(60) if q(x, y) <= cap]
    assert len(ref) == 869
    assert sorted(got) == sorted(ref)


def test_torus3_partial_sums_hold_one_window():
    # 903 939 points; holding the whole ball peaked at 41.6 MB
    tracemalloc.start()
    try:
        series = partial_sums(Geometry.torus(3), parse_symbol("radial:3"), dyadic_grid(60.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.counts[-1] == counting_function(Geometry.torus(3), 60.0)
    assert peak <= 4 * 2 ** 20


def test_torus3_enumeration_builds_the_ball():
    # 112 931 points of the 205 379 in the cube [-29, 29]^3; building the
    # cube first peaked at 15.7 MB
    tracemalloc.start()
    try:
        n = sum(1 for _ in enumerate_dual(Geometry.torus(3), 30.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == counting_function(Geometry.torus(3), 30.0)
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("name", ["torus:2", "su3", "su2", "so3", "sphere:3"])
def test_lattice_cutoffs_at_ties_are_exact(name):
    # N = sqrt(1 + q/den) sits on a shell; its float64 lies a hair above or
    # below it, and only exact rationals say which
    geom = parse_geometry(name)
    den = {"su3": 9, "su2": 4}.get(name, 1)
    ties = [math.sqrt(1 + q / den) for q in range(3 * den, 300 * den, 7)]
    if name in RANK_ONE:  # every label's own weight
        c = RANK_ONE[name][0]
        ties += [math.sqrt(1 + l * (l + c) / den) for l in range(1, 60)]
    cutoffs = np.union1d([n for n in ties if n >= 2.0], np.arange(2.0, 9.0))
    assert any(math.floor(den * (n * n - 1)) != geom.lattice_cap(n) for n in cutoffs)
    series = counting_series(geom, cutoffs)
    for n, c in zip(cutoffs, series.counts):
        assert c == counting_function(geom, n) == brute_lattice_count(geom, n)
    if name == "su2":
        # sqrt(25.75) lies below the weight of label 9, which float64
        # N^2 - 1 = 24.75 would admit
        assert counting_function(geom, math.sqrt(25.75)) == 285


@pytest.mark.parametrize("name", sorted(RANK_ONE))
def test_rank_one_cutoff_is_exact_past_2_53(name):
    # in float64 the su2 threshold 1e16 - 1 rounds to 1e16 and would admit
    # l = 2e8 - 1, whose eigenvalue is (4e16 - 1)/4
    geom = parse_geometry(name)
    c, den, _ = RANK_ONE[name]
    cutoffs = [1e8, 3e8, 1e9, 2.0 ** 26 + 0.5]
    cutoffs += [math.sqrt(1 + l * (l + c) / den) for l in (10 ** 8 + 7, 3 * 10 ** 8 + 1)]
    for n in cutoffs:
        big_l = exact_label_max(name, n)
        if name == "so3":  # sum of (2l+1)^2
            exact = (big_l + 1) * (2 * big_l + 1) * (2 * big_l + 3) // 3
        else:  # sum of (l+1)^2
            exact = (big_l + 1) * (big_l + 2) * (2 * big_l + 3) // 6
        assert counting_function(geom, n) == exact
    if name == "su2":
        assert exact_label_max(name, 1e8) == 2 * 10 ** 8 - 2
        assert counting_function(geom, 1e8) == 2666666646666666700000000


@pytest.mark.parametrize("cutoff", [2.0, 5.1, 17.3, 20.0, 33.3, 47.0, 60.0])
def test_su3_closed_form_counts_match_the_double_loop(cutoff):
    assert counting_function(Geometry.su3(), cutoff) \
        == brute_lattice_count(Geometry.su3(), cutoff)


@pytest.mark.parametrize("name, cutoff", [("torus:2", 90.0), ("su3", 40.0)])
def test_lattice_label_guard_counts_exactly(monkeypatch, name, cutoff):
    # the guard counts the labels (a, b), a, b >= 0, before any window
    geom = parse_geometry(name)
    labels = sum(1 for p in enumerate_dual(geom, cutoff)
                 if all(c >= 0 for c in p.label))
    monkeypatch.setattr(geometry, "_MAX_LATTICE_LABELS", labels)
    assert sum(dd.sum() for _, dd in radial_shells(geom, cutoff)) \
        == counting_function(geom, cutoff)
    monkeypatch.setattr(geometry, "_MAX_LATTICE_LABELS", labels - 1)
    routes = (radial_shells, enumerate_dual) if name == "su3" else (radial_shells,)
    for route in routes:
        with pytest.raises(SizeError, match="labels"):
            next(iter(route(geom, cutoff)))


def test_vectorised_isqrt_is_exact_below_2_52():
    ks = np.array([1, 2, 3, 1000, 2 ** 20 + 7, 2 ** 26 - 1], dtype=np.int64)
    x = np.concatenate([ks * ks - 1, ks * ks, ks * ks + 1,
                        np.random.default_rng(5).integers(0, 2 ** 52, 1000)])
    assert geometry._isqrt(x).tolist() == [math.isqrt(int(v)) for v in x]


def test_su3_guard_fires_before_allocating():
    # about 5e8 labels at N = 1e4: refused in flat memory
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="su3"):
            next(iter(radial_shells(Geometry.su3(), 1e4)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_su3_shell_weights_past_2_53_match_exact_sums():
    # D = d^2 passes 2**53 from about N = 265 on; each shell's float64 dsum
    # against the exact integer sum of its d^2
    g = Geometry.su3()
    cap = 9 * (300 ** 2 - 1)
    exact = {}
    a = 0
    while a * a + 3 * a <= cap:
        b = 0
        while (q := a * a + b * b + a * b + 3 * a + 3 * b) <= cap:
            exact[q] = exact.get(q, 0) + ((a + 1) * (b + 1) * (a + b + 2) // 2) ** 2
            b += 1
        a += 1
    chunks = [(lam.copy(), dsum.copy()) for lam, dsum in radial_shells(g, 300.0)]
    lam, dsum = (np.concatenate(x) for x in zip(*chunks))
    assert lam.tolist() == [q / 9 for q in sorted(exact)]
    assert max(exact.values()) > 2 ** 53
    for q, x in zip(sorted(exact), dsum.tolist()):
        assert abs(int(x) - exact[q]) * 10 ** 15 <= exact[q]  # x is integral


def test_torus3_materialization_guard():
    with pytest.raises(SizeError):
        list(enumerate_dual(Geometry.torus(3), 5000.0))


def _file_points(path, nu=2.0):
    """Every record of a spectrum file, as a file: geometry enumerates it at
    a cutoff whose N^nu overflows float64, which admits every row."""
    return list(enumerate_dual(Geometry.from_file(str(path), nu=nu), 1e300))


def test_spectrum_file_round_trip(tmp_path):
    src = list(enumerate_dual(Geometry.su2(), 6.0))
    path = str(tmp_path / "spec.txt")
    save_spectrum_file(src, path)
    geom = Geometry.from_file(path, dim=3, nu=2.0)
    back = list(enumerate_dual(geom, 6.0))
    assert len(back) == len(src)
    for a, b in zip(src, back):
        assert a.rep_dim == b.rep_dim
        assert a.eigenspace_dim == b.eigenspace_dim
        assert a.eigenvalue == b.eigenvalue  # bit-exact through 17 digits
        assert a.weight == b.weight


def test_spectrum_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("lbl 2 4 notanumber\n")
    with pytest.raises(SpectrumFormatError) as err:
        _file_points(bad)
    assert "1" in str(err.value)  # names the offending line
    with pytest.raises(ConfigError):
        _file_points(tmp_path / "missing.txt")
    neg = tmp_path / "neg.txt"
    neg.write_text("lbl -2 4 1.0\n")
    with pytest.raises(SpectrumFormatError):
        _file_points(neg)
    # a block is held D/d times, so D must be a multiple of d
    odd = tmp_path / "odd.txt"
    odd.write_text("# label d D lambda\nb 1 1 0.0\na 2 3 1.0\n")
    with pytest.raises(SpectrumFormatError, match=r"odd\.txt:3: D = 3 is not a multiple of d = 2"):
        _file_points(odd)


def test_spectrum_file_refuses_rows_past_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(geometry, "_MAX_MATERIALIZED_POINTS", 4)
    path = tmp_path / "spec.txt"
    path.write_text("# label d D lambda\n" + "".join("p%d 1 1 %d.0\n" % (i, i) for i in range(5)))
    with pytest.raises(SizeError, match="more than 4 data rows"):
        _file_points(path)
    path.write_text("".join("p%d 1 1 %d.0\n" % (i, i) for i in range(4)))
    assert len(_file_points(path)) == 4


def test_file_geometry_sorted_and_labeled(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("# comment line\nb 1 1 4.0\na 2 2 1.0\n")
    pts = list(enumerate_dual(Geometry.from_file(str(path)), 100.0))
    assert [label_text(p) for p in pts] == ["a", "b"]
    assert [p.eigenvalue for p in pts] == [1.0, 4.0]


@pytest.mark.parametrize("kind", ["torus:1", "torus:2", "torus:3", "su2", "so3", "su3",
                                  "sphere:3", "file"])
def test_point_weights_are_python_float_powers(kind, tmp_path):
    # numpy's vectorised power differs from Python's ** in the last ulp on
    # a share of inputs (about 6 % at exponent 1/3), so the file spectrum
    # at nu = 3 would catch it
    if kind == "file":
        lam = np.random.default_rng(5).uniform(0.0, 1e4, 5000)
        path = tmp_path / "spec.txt"
        path.write_text("".join("p%d 1 1 %r\n" % (i, x) for i, x in enumerate(lam.tolist())))
        geom, cutoff = Geometry.from_file(str(path), nu=3.0), 30.0
    else:
        geom = parse_geometry(kind)
        cutoff = {"torus:2": 40.0}.get(kind, SMALL_CUTOFF.get(kind, 3000.0))
    pts = list(enumerate_dual(geom, cutoff))
    assert len(pts) > 1000 and all(type(p) is DualPoint for p in pts)
    assert [p.weight for p in pts] == [(1.0 + p.eigenvalue) ** (1.0 / geom.nu) for p in pts]
    keys = [(p.eigenvalue, p.label) for p in pts]
    assert keys == sorted(keys)


def _object_reader(path, nu):
    """A spectrum file as one DualPoint per record, sorted by (lambda,
    label) with Python's sort: the reference for the column reader."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if parts and not parts[0].startswith("#"):
            d, dd, lam = int(parts[1]), int(parts[2]), float(parts[3])
            rows.append(DualPoint((parts[0],), d, dd, d, lam, (1.0 + lam) ** (1.0 / nu)))
    rows.sort(key=lambda p: (p.eigenvalue, p.label))
    return rows


def test_file_columns_match_the_object_reader(tmp_path, monkeypatch):
    # more than two chunks of rows, ties everywhere (one across the first
    # chunk boundary) and integer labels, whose text order is not numeric
    rng = np.random.default_rng(17)
    n = 2 * _CHUNK + 4000
    labels = rng.permutation(n)
    d = rng.integers(1, 4, n)
    lam = rng.integers(0, 200, n) / 3.0
    path = tmp_path / "spec.txt"
    path.write_text("# label d D lambda\n" + "".join(
        "%d %d %d %r\n" % row for row in zip(labels.tolist(), d.tolist(),
                                            (d * rng.integers(1, 4, n)).tolist(),
                                            lam.tolist())))
    table = tmp_path / "table.txt"
    table.write_text("".join("%d\n%s\n" % (l, " ".join(["%r" % x] * k)) for l, k, x in
                             zip(labels.tolist(), d.tolist(), rng.normal(size=n).tolist())))
    geom = Geometry.from_file(str(path), dim=2)
    ref = _object_reader(path, geom.nu)
    assert ref[_CHUNK - 1].eigenvalue == ref[_CHUNK].eigenvalue
    assert any(a.eigenvalue == b.eigenvalue and int(a.label[0]) > int(b.label[0])
               for a, b in zip(ref, ref[1:]))
    assert list(enumerate_dual(geom, 10.0)) == ref

    def ref_points(g, cutoff):
        t = g.lambda_threshold(cutoff)
        return iter([p for p in ref if p.eigenvalue <= t])

    def ref_shells(g, cutoff):
        rows = np.array([(p.eigenvalue, p.eigenspace_dim) for p in ref_points(g, cutoff)])
        for s in range(0, len(rows), _CHUNK):
            yield rows[s:s + _CHUNK, 0].copy(), rows[s:s + _CHUNK, 1].copy()

    grid = dyadic_grid(10.0, 8)
    specs = [parse_symbol("radial:1"), parse_symbol("diag:%s" % table)]
    got = [partial_sums(geom, spec, grid) for spec in specs]
    monkeypatch.setattr(summation, "radial_shells", ref_shells)
    monkeypatch.setattr(summation, "enumerate_dual", ref_points)
    for spec, series in zip(specs, got):
        want = partial_sums(geom, spec, grid)
        np.testing.assert_array_equal(series.sums, want.sums)
        np.testing.assert_array_equal(series.counts, want.counts)
    assert got[1].counts[-1] == counting_function(geom, 10.0)


@pytest.mark.parametrize("long_label", [0, 10_000])
def test_spectrum_reader_holds_flat_columns(tmp_path, long_label):
    # 40 bytes a row and the label text are held, however long one label
    # is; one DualPoint per record took 352 bytes a row
    n = 100_000
    path = tmp_path / "spec.txt"
    path.write_text("# label d D lambda\n" + "X" * (long_label + 1) + " 1 2 3.5\n" + "".join(
        "%d 1 2 %d.5\n" % (i, i % 977) for i in range(n - 1)))
    tracemalloc.start()
    try:
        spec = geometry._read_spectrum(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spec) == n and spec.labels(slice(0, 1)) == ["0"]
    assert "X" * (long_label + 1) in spec.labels(slice(None))
    assert peak <= n * 64 + len(spec.text)


def test_file_labels_sort_by_their_whole_text(tmp_path):
    # labels that share their first 8 bytes, or differ by a trailing NUL,
    # at tied eigenvalues: the prefix sort is refined to the object order
    rng = np.random.default_rng(23)
    stems = ["-12,-13,", "abcdefgh", "abcdefg", "\u00e9\u00e9\u00e9\u00e9", "a"]
    labels = ["%s%s%s" % (stems[i % 5], rng.integers(0, 30), "\0" * (i % 3 == 0))
              for i in range(3000)]
    path = tmp_path / "spec.txt"
    path.write_text("".join("%s 1 1 %d\n" % (l, x) for l, x in
                            zip(labels, rng.integers(0, 5, 3000).tolist())), encoding="utf-8")
    assert _file_points(path, 3.0) == _object_reader(path, 3.0)


def test_spectrum_reader_messages_name_their_line(tmp_path):
    good = "".join("p%d 2 4 %d.0\n" % (i, i) for i in range(2000))
    for bad, message in [
            ("q 1 1\n", r"expected `label d D lambda`, got 'q 1 1'$"),
            ("q 1 x 1.0\n", r"non-numeric field in 'q 1 x 1.0'$"),
            ("q 0 1 1.0\n", r"dimensions must be positive$"),
            ("q 2 3 1.0\n", r"D = 3 is not a multiple of d = 2$"),
            ("q 1 1 nan\n", r"eigenvalue must be finite and >= 0$"),
            ("q 1 9223372036854775808 1.0\n", r"D must be below 2\*\*63$")]:
        path = tmp_path / "spec.txt"
        path.write_text("# head\n" + good + bad + good, encoding="utf-8")
        with pytest.raises(SpectrumFormatError, match=r"spec\.txt:2002: " + message):
            _file_points(path)
    # what int() and float() accept, the reader accepts
    path.write_text(good + "q +1 1_0 1_0.5\n\u00e9\0 1 1 2.5\n", encoding="utf-8")
    pts = {p.eigenvalue: p for p in _file_points(path)}
    assert len(pts) == 2002 and pts[10.5].label == ("q",) and pts[10.5].eigenspace_dim == 10
    assert pts[2.5].label == ("\u00e9\0",)
