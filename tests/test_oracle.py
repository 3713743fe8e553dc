import math

import numpy as np
import pytest

from dixtrace import oracle
from dixtrace.cli import main
from dixtrace.errors import SizeError
from dixtrace.geometry import (Geometry, counting_function, enumerate_dual, label_text,
                               parse_geometry)
from dixtrace.oracle import (ORACLE_TOL, compare_symbol_vs_oracle, operator_singular_values,
                             truncate_operator)
from dixtrace.summation import PartialSumSeries, dyadic_grid, partial_sums
from dixtrace.symbol import Scaled, SymbolSum, parse_symbol, singular_values


def _dense_singular_values(op):
    """A cross-check of the block path: assemble the whole block-diagonal
    matrix, each block held mult times and diagonals densified, and
    decompose it in one LAPACK call."""
    full = np.zeros((op.total_dim, op.total_dim), dtype=np.complex128)
    at = 0
    for _, m, mult in op.blocks:
        m = np.diag(m) if m.ndim == 1 else m
        for _ in range(mult):
            full[at:at + len(m), at:at + len(m)] = m
            at += len(m)
    return np.sort(np.linalg.svd(full, compute_uv=False))[::-1]


def _no_blocks(*args):
    raise AssertionError("a block was evaluated before the cap check")


def test_truncation_shape_and_dimension():
    op = truncate_operator(Geometry.su2(), parse_symbol("bessel:3:2"), 5.1)
    # labels n = 0..9, block n is (n+1)x(n+1) repeated n+1 times
    assert len(op.blocks) == 10
    assert op.total_dim == 385
    for (label, m, mult), n in zip(op.blocks, range(10)):
        assert m.shape == (n + 1,)  # a scalar symbol's block is a diagonal
        assert mult == n + 1


def test_truncation_cap_reports_requirement(monkeypatch):
    # the message names the running total of D that passed the cap
    with pytest.raises(SizeError) as err:
        truncate_operator(Geometry.torus(1), parse_symbol("radial:1"), 1000.0,
                          cap=1998)
    assert "1999" in str(err.value)
    # sphere:3 counts 2870 eigenfunctions below 20, and its masked blocks
    # are 1 x 1 corners, so the cap needs exactly that count; no block is
    # evaluated before it is checked
    monkeypatch.setattr("dixtrace.oracle.eval_symbol", _no_blocks)
    with pytest.raises(SizeError, match="cap >= 2870"):
        truncate_operator(parse_geometry("sphere:3"), parse_symbol("radial:3"), 20.0,
                          cap=2869)


def test_cap_refusal_names_the_exact_count_where_counting_is_cheap(monkeypatch):
    # the running total passes 2000 at 2109 on sphere:3, but the cap needed
    # is the whole count, 2870; su3 and torus:2 name their running total
    monkeypatch.setattr("dixtrace.oracle.eval_symbol", _no_blocks)
    f = parse_symbol("radial:3")
    with pytest.raises(SizeError) as err:
        truncate_operator(parse_geometry("sphere:3"), f, 20.0, cap=2000)
    assert "holds 2870 weighted dimensions" in str(err.value)
    assert "pass cap >= 2870 or" in str(err.value)
    for name, cutoff in (("su3", 3.0), ("torus:2", 40.0)):
        g = parse_geometry(name)
        with pytest.raises(SizeError, match=r"at least \d+ weighted .* \(a lower bound\)"):
            truncate_operator(g, f, cutoff, cap=counting_function(g, cutoff) // 2)


def test_file_blocks_are_bounded_by_their_size(tmp_path, monkeypatch):
    # a file block is held D/d times, so the eigenvalue count bounds the
    # sum of d: one eigenspace with a 100000 x 100000 block is refused by
    # the count before any block is evaluated
    path = tmp_path / "spec.txt"
    path.write_text("huge 100000 100000 2.0\n")

    monkeypatch.setattr("dixtrace.oracle.eval_symbol", _no_blocks)
    with pytest.raises(SizeError, match="cap >= 100000"):
        truncate_operator(parse_geometry("file:%s" % path), parse_symbol("radial:1"), 10.0)


@pytest.mark.parametrize("name", ["torus:1", "torus:2", "torus:3", "su2", "so3", "su3",
                                  "sphere:2", "sphere:3", "sphere:4", "file"])
@pytest.mark.parametrize("picture", [None, "manifold", "group", "homogeneous"])
def test_total_dim_is_the_eigenvalue_count(tmp_path, name, picture):
    # with blocks cut to their class-one corners, mult x block size is D
    # on every kind, whatever the spec shape; the file mixes records held
    # once (D = d) with a group's d copies (D = d^2).  The partial sums
    # count the same eigenvalues, and a series read back under any picture
    # tag (None: from_csv's default) keeps its numbers: the tag relabels
    if name == "file":
        path = tmp_path / "spec.txt"
        path.write_text("a 1 1 0.0\nb 3 3 2.0\nc 2 4 3.0\nd 3 9 3.0\ne 4 8 5.0\n")
        g = Geometry.from_file(str(path))
    else:
        g = parse_geometry(name)
    cutoff = 2.0 if name == "su3" else 6.0  # 2686 and at most 895 eigenvalues
    f = parse_symbol("radial:3")
    csv_path = tmp_path / "series.csv"
    masked = parse_symbol("mask:radial:3")
    for spec in (f, masked, SymbolSum([masked, Scaled(2.0, f)])):
        op = truncate_operator(g, spec, cutoff)
        assert op.total_dim == counting_function(g, cutoff) > 0
        assert len(operator_singular_values(op)) == op.total_dim
        series = partial_sums(g, spec, np.array([cutoff]))
        assert series.counts[-1] == op.total_dim
        series.to_csv(str(csv_path))
        kw = {} if picture is None else {"picture": picture}
        back = PartialSumSeries.from_csv(str(csv_path), dim=g.dim, **kw)
        assert back.picture == (picture or "manifold")
        assert np.array_equal(back.counts, series.counts)
        assert np.array_equal(back.sums, series.sums)


def test_dense_assembly_matches_block_svd():
    g = Geometry.su2()
    op = truncate_operator(g, parse_symbol("bessel:3:2"), 3.0)
    block = operator_singular_values(op)
    assert len(block) == op.total_dim
    np.testing.assert_allclose(block, _dense_singular_values(op), rtol=1e-12, atol=1e-12)


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


def test_compare_passes_on_diagonal_and_masked_sum(tmp_path):
    # 1-d blocks reach LAPACK densified by the oracle itself; the sums add
    # a diagonal into a diagonal and into a dense block
    g = Geometry.su2()
    diag = tmp_path / "diag.txt"
    diag.write_text("0\n0.9\n1\n0.5 -0.25i\n2\n0.2 0.3 -0.1\n")
    mat = tmp_path / "mat.txt"
    mat.write_text("0\n0.9\n1\n0.5 0.3i\n0.1 -0.2\n2\n0.2 0 0.1\n0 0.3 0\n0.05 0 0.1\n")
    f = parse_symbol("radial:3")
    for spec in (parse_symbol("diag:%s" % diag),
                 SymbolSum([parse_symbol("mask:diag:%s" % diag), f]),
                 SymbolSum([parse_symbol("mask:matrix:%s" % mat), f])):
        rep = compare_symbol_vs_oracle(g, spec, 2.0)
        assert rep["passed"] and rep["max_abs"] < 1e-12, (spec, rep)
    op = truncate_operator(g, SymbolSum([parse_symbol("mask:diag:%s" % diag), f]), 2.0)
    assert [m.shape for _, m, _ in op.blocks] == [(1,), (2,), (3,)]
    np.testing.assert_allclose(_dense_singular_values(op),
                               operator_singular_values(op), rtol=1e-14, atol=0)


def test_matched_count_correspondence():
    # for a decreasing radial symbol the N largest singular values are the
    # lattice points inside the weight cutoff, so the partial Dixmier norm
    # of the operator's values is the series' normalized sum
    g = Geometry.torus(1)
    spec = parse_symbol("bessel:1:2")
    grid = dyadic_grid(64, 2)
    series = partial_sums(g, spec, grid)
    op = truncate_operator(g, spec, 64.0)
    svals = operator_singular_values(op)
    for n, s in zip(series.counts, series.sums):
        got = math.fsum(svals[:int(n)]) / math.log(int(n))
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


def test_truncation_walks_the_dual_once(monkeypatch):
    # the points of the walk that sums D against the cap are the ones
    # whose blocks are built, refused or not
    calls = []

    def counting(*args):
        calls.append(args)
        return enumerate_dual(*args)

    monkeypatch.setattr(oracle, "enumerate_dual", counting)
    f = parse_symbol("radial:3")
    for name, cutoff in (("su2", 5.1), ("sphere:3", 6.0), ("torus:2", 6.0), ("su3", 2.0)):
        g = parse_geometry(name)
        op = truncate_operator(g, f, cutoff)
        assert len(calls) == 1
        assert [label for label, _, _ in op.blocks] == [
            label_text(p) for p in enumerate_dual(g, cutoff)]
        calls.clear()
    with pytest.raises(SizeError):
        truncate_operator(Geometry.su2(), f, 5.1, cap=384)
    assert len(calls) == 1


def _random_table(path, geom, cutoff):
    """A matrix: table of seeded complex Gaussian d x d blocks, not normal,
    so the symbol side runs the Jacobi route."""
    rng = np.random.default_rng(11)
    with open(path, "w", encoding="utf-8") as fh:
        for p in enumerate_dual(geom, cutoff):
            m = rng.normal(size=(p.rep_dim, p.rep_dim)) + 1j * rng.normal(size=(p.rep_dim,) * 2)
            fh.write("%s\n" % label_text(p))
            for row in m.tolist():
                fh.write(" ".join("%.17g%+.17gi" % (z.real, z.imag) for z in row) + "\n")
    return path


def _nudged(m, label):
    """The symbol side's values with the two largest of each block moved
    1e-6 of the largest apart, the sum kept to rounding."""
    v = singular_values(m, label).copy()
    if len(v) > 1:
        v[0], v[1] = v[0] + 1e-6 * v[0], v[1] - 1e-6 * v[0]
    return v


@pytest.mark.parametrize("c", [1.0, 1e80, 1e-80])
def test_compare_is_relative_to_the_largest_value(tmp_path, monkeypatch, c):
    # the elementwise bound scales with the largest oracle value, so a
    # correct symbol passes at 1e80 and a nudged one fails at 1e-80
    g = Geometry.su2()
    text = "scaled:%r:matrix:%s" % (c, _random_table(tmp_path / "t.txt", g, 5.0))
    rep = compare_symbol_vs_oracle(g, parse_symbol(text), 5.0)
    assert rep["passed"] and rep["first_mismatch_rank"] == -1, rep
    assert main(["oracle-check", "--geometry", "su2", "--symbol", text, "--cutoff", "5"]) == 0
    assert rep["tolerance"] == ORACLE_TOL and rep["total_dim"] == 285
    monkeypatch.setattr(oracle, "singular_values", _nudged)
    rep = compare_symbol_vs_oracle(g, parse_symbol(text), 5.0)
    assert rep["sum_rel_diff"] < ORACLE_TOL
    assert not rep["passed"] and rep["first_mismatch_rank"] >= 0, rep
