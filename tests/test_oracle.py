import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dixtrace.errors import ConfigError, SizeError
from dixtrace.geometry import Geometry, counting_function, parse_geometry
from dixtrace.oracle import (compare_symbol_vs_oracle, dixmier_partial_norm,
                             lpinf_partial_norm, operator_singular_values,
                             truncate_operator)
from dixtrace.summation import dyadic_grid, partial_sums
from dixtrace.symbol import ClassOneMask, Scaled, SymbolSum, parse_symbol


def _no_blocks(*args):
    raise AssertionError("a block was evaluated before the cap check")


def test_truncation_shape_and_dimension():
    op = truncate_operator(Geometry.su2(), parse_symbol("bessel:3:2"), 5.1)
    # labels n = 0..9, block n is (n+1)x(n+1) repeated n+1 times
    assert len(op.blocks) == 10
    assert op.total_dim == 385
    for (label, m, mult), n in zip(op.blocks, range(10)):
        assert m.shape == (n + 1, n + 1)
        assert mult == n + 1


def test_truncation_cap_reports_requirement(monkeypatch):
    with pytest.raises(SizeError) as err:
        truncate_operator(Geometry.torus(1), parse_symbol("radial:1"), 1000.0,
                          cap=100)
    assert "1999" in str(err.value)
    # sphere:3 counts 2870 eigenfunctions below 20, and its masked blocks
    # are 1 x 1 corners, so the cap needs exactly that count; no block is
    # evaluated before it is checked
    monkeypatch.setattr("dixtrace.oracle.eval_symbol", _no_blocks)
    with pytest.raises(SizeError, match="cap >= 2870"):
        truncate_operator(parse_geometry("sphere:3"), parse_symbol("radial:3"), 20.0,
                          cap=2000)


def test_file_blocks_are_bounded_by_their_size(tmp_path, monkeypatch):
    # a file spectrum holds each block once and its D says nothing of d:
    # one eigenvalue with a 100000 x 100000 block is refused by the sum of
    # d before any block is evaluated
    path = tmp_path / "spec.txt"
    path.write_text("huge 100000 1 2.0\n")

    monkeypatch.setattr("dixtrace.oracle.eval_symbol", _no_blocks)
    with pytest.raises(SizeError, match="cap >= 100000"):
        truncate_operator(parse_geometry("file:%s" % path), parse_symbol("radial:1"), 10.0)


@pytest.mark.parametrize("name", ["torus:1", "torus:2", "torus:3", "su2", "so3", "su3",
                                  "sphere:2", "sphere:3", "sphere:4"])
@pytest.mark.parametrize("picture", [None, "manifold", "group", "homogeneous"])
def test_total_dim_is_the_eigenvalue_count(name, picture):
    # with masked blocks cut to their class-one corners, mult x block size
    # is D on every built-in kind, whatever the picture and spec shape
    g = parse_geometry(name)
    cutoff = 2.0 if name == "su3" else 6.0  # 2686 and at most 895 eigenvalues
    f = parse_symbol("radial:3")
    for spec in (f, ClassOneMask(f), SymbolSum([ClassOneMask(f), Scaled(2.0, f)])):
        op = truncate_operator(g, spec, cutoff, picture=picture)
        assert op.total_dim == counting_function(g, cutoff) > 0
        assert len(operator_singular_values(op)) == op.total_dim


def test_dense_assembly_matches_block_svd():
    g = Geometry.su2()
    op = truncate_operator(g, parse_symbol("bessel:3:2"), 3.0)
    block = operator_singular_values(op)
    dense = operator_singular_values(op, dense=True)
    assert len(block) == op.total_dim
    np.testing.assert_allclose(block, dense, rtol=1e-12, atol=1e-12)
    big = truncate_operator(g, parse_symbol("bessel:3:2"), 5.1)
    with pytest.raises(SizeError):
        operator_singular_values(big, dense=True)


def test_compare_passes_on_scalar_symbols():
    rep = compare_symbol_vs_oracle(Geometry.torus(1), parse_symbol("bessel:1:2"),
                                   50.0)
    assert rep["passed"] and rep["total_dim"] == 99
    rep2 = compare_symbol_vs_oracle(Geometry.su2(), parse_symbol("bessel:3:2"),
                                    5.1)
    assert rep2["passed"] and rep2["total_dim"] == 385


def test_compare_passes_on_matrix_table(tmp_path):
    # a dense non-normal block exercises the Jacobi route on the symbol side
    path = tmp_path / "mat.txt"
    path.write_text("0\n0.9\n1\n0.5 0.3i\n0.1 -0.2\n2\n0.2 0 0.1\n0 0.3 0\n0.05 0 0.1\n")
    rep = compare_symbol_vs_oracle(Geometry.su2(), parse_symbol("matrix:%s" % path),
                                   2.0)
    assert rep["total_dim"] == 1 + 4 + 9
    assert rep["passed"], rep
    assert rep["max_abs"] < 1e-9


def test_matched_count_correspondence():
    # for a decreasing radial symbol the N largest singular values are the
    # lattice points inside the weight cutoff, so both norm routes agree
    g = Geometry.torus(1)
    spec = parse_symbol("bessel:1:2")
    grid = dyadic_grid(64, 2)
    series = partial_sums(g, spec, grid)
    op = truncate_operator(g, spec, 64.0)
    svals = operator_singular_values(op)
    for n, s in zip(series.counts, series.sums):
        got = dixmier_partial_norm(svals, int(n))
        assert got == pytest.approx(s / math.log(int(n)), rel=1e-12)


@pytest.mark.parametrize("name", ["sphere:3", "su2", "torus:2"])
def test_truncation_total_matches_partial_sum(name):
    # the truncation follows the series' block rule (the sphere's implied
    # mask, the lift), so all its singular values add up to S(cutoff); the
    # masked sphere:3 blocks are 1 x 1 corners, 650 dimensions
    g = parse_geometry(name)
    spec = parse_symbol("radial:3")
    svals = operator_singular_values(truncate_operator(g, spec, 12.0))
    series = partial_sums(g, spec, dyadic_grid(12.0, 2))
    assert math.fsum(svals) == pytest.approx(series.sums[-1], rel=1e-12)


def test_partial_norm_domains():
    svals = np.array([3.0, 2.0, 1.0])
    assert dixmier_partial_norm(svals, 2) == pytest.approx(5.0 / math.log(2))
    with pytest.raises(ConfigError):
        dixmier_partial_norm(svals, 1)
    with pytest.raises(ConfigError):
        dixmier_partial_norm(svals, 4)
    assert lpinf_partial_norm(svals, 2, 2.0) == pytest.approx(5.0 / math.sqrt(2))
    with pytest.raises(ValueError):
        lpinf_partial_norm(svals, 2, 1.0)
    with pytest.raises(ConfigError):
        lpinf_partial_norm(svals, 0, 2.0)


@given(st.integers(0, 5_000), st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_partial_norm_perturbation_bound(seed, n):
    # sorting is 1-Lipschitz entrywise, so the partial norm moves by at
    # most n * eps / log n under an eps-perturbation
    rng = np.random.default_rng(seed)
    base = np.sort(rng.uniform(0.1, 5.0, size=60))[::-1]
    eps = 1e-3
    noisy = np.sort(base + rng.uniform(-eps, eps, size=60))[::-1]
    a = dixmier_partial_norm(base, n)
    b = dixmier_partial_norm(noisy, n)
    assert abs(a - b) <= n * eps / math.log(n) + 1e-12


def test_boundary_picture_has_no_truncation():
    with pytest.raises(ConfigError):
        truncate_operator(Geometry.torus(1), parse_symbol("radial:1"), 10.0,
                          picture="boundary-index")


def test_unknown_picture_is_refused():
    # a typo such as "homogenous" must not run unmasked under a new tag
    for bad in ("bogus", "homogenous"):
        with pytest.raises(ConfigError, match="unknown picture"):
            truncate_operator(Geometry.su2(), parse_symbol("radial:3"), 3.0, picture=bad)
        with pytest.raises(ConfigError, match="unknown picture"):
            partial_sums(Geometry.su2(), parse_symbol("radial:3"), dyadic_grid(16),
                         picture=bad)
