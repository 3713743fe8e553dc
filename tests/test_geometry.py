import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dixtrace.errors import ConfigError, SizeError, SpectrumFormatError
from dixtrace.geometry import (Geometry, counting_function, enumerate_dual,
                               label_text, load_spectrum_file, parse_geometry,
                               radial_shells, save_spectrum_file,
                               sphere_harmonic_dim)

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
    # every shell stream is the per-eigenvalue grouping of enumerate_dual
    if kind == "file":
        path = str(tmp_path / "spec.txt")
        save_spectrum_file(enumerate_dual(Geometry.so3(), 20.0), path)
        kind = "file:" + path
    geom = parse_geometry(kind)
    cutoff = SMALL_CUTOFF.get(kind, 20.0)
    chunks = list(radial_shells(geom, cutoff))
    lam = np.concatenate([c[0] for c in chunks])
    dsum = np.concatenate([c[1] for c in chunks])
    keep = dsum != 0  # the torus:2 histogram also holds empty shells
    shells = [(ev, float(sum(p.eigenspace_dim for p in pts)))
              for ev, pts in groupby(enumerate_dual(geom, cutoff), key=lambda p: p.eigenvalue)]
    assert lam[keep].tolist() == [ev for ev, _ in shells]
    assert dsum[keep].tolist() == [dd for _, dd in shells]


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


def test_block_rule_lift_identity(tmp_path):
    # the streamed class-one path relies on d * k == D on every lifted kind
    for geom in ALL_GEOMS:
        masked, lifted = geom.block_rule("group")
        assert lifted and masked == (geom.kind == "sphere")
        assert geom.block_rule("homogeneous")[0]
        cutoff = 30.0 if geom.kind != "su3" else 10.0
        for p in enumerate_dual(geom, cutoff):
            assert p.rep_dim * p.class_one_dim == p.eigenspace_dim
    path = tmp_path / "spec.txt"
    path.write_text("a 2 4 1.0\n")
    assert Geometry.from_file(str(path)).block_rule("manifold") == (False, False)


def test_lambda_threshold_tie_rule():
    g = Geometry.su2()
    # weight of n=9 is sqrt(1 + 24.75) = sqrt(25.75); cutting exactly there
    # keeps the shell, cutting just below drops it
    w = math.sqrt(1.0 + 9 * 11 / 4.0)
    assert counting_function(g, w) == counting_function(g, w + 1e-9)
    assert counting_function(g, w - 1e-9) == counting_function(g, w) - 100


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


def test_torus3_materialization_guard():
    with pytest.raises(SizeError):
        list(enumerate_dual(Geometry.torus(3), 5000.0))


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
        load_spectrum_file(str(bad))
    assert "1" in str(err.value)  # names the offending line
    with pytest.raises(ConfigError):
        load_spectrum_file(str(tmp_path / "missing.txt"))
    neg = tmp_path / "neg.txt"
    neg.write_text("lbl -2 4 1.0\n")
    with pytest.raises(SpectrumFormatError):
        load_spectrum_file(str(neg))


def test_file_geometry_sorted_and_labeled(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("# comment line\nb 1 1 4.0\na 2 2 1.0\n")
    pts = list(enumerate_dual(Geometry.from_file(str(path)), 100.0))
    assert [label_text(p) for p in pts] == ["a", "b"]
    assert [p.eigenvalue for p in pts] == [1.0, 4.0]
