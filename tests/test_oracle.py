import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dixtrace.errors import ConfigError, SizeError
from dixtrace.geometry import Geometry, parse_geometry
from dixtrace.oracle import (compare_symbol_vs_oracle, dixmier_partial_norm,
                             lpinf_partial_norm, operator_singular_values,
                             truncate_operator)
from dixtrace.summation import dyadic_grid, partial_sums
from dixtrace.symbol import parse_symbol


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
    # sphere:3 counts 2870 eigenfunctions below 20, but its masked blocks
    # stay d x d: the cap holds the 722666 dimensions actually built, and
    # no block is evaluated before it is checked
    def no_blocks(*args):
        raise AssertionError("a block was evaluated before the cap check")

    monkeypatch.setattr("dixtrace.oracle.eval_symbol", no_blocks)
    with pytest.raises(SizeError, match="cap >= 722666"):
        truncate_operator(parse_geometry("sphere:3"), parse_symbol("radial:3"), 20.0,
                          cap=3000)


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
    # masked sphere:3 blocks stay d x d, 60710 dimensions, above the
    # default cap
    g = parse_geometry(name)
    spec = parse_symbol("radial:3")
    svals = operator_singular_values(truncate_operator(g, spec, 12.0, cap=100_000))
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
