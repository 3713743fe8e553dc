import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dixtrace.symbol as symbol
from dixtrace.errors import (ConfigError, DomainError, NumericError, SizeError,
                             SpectrumFormatError, TableLookupError)
from dixtrace.geometry import DualPoint, Geometry, enumerate_dual
from dixtrace.symbol import (BesselPotential, ClassOneMask, DiagonalTable,
                             FullMatrixTable, ModulusWeight, PowerOfEigenvalue,
                             RadialWeight, Scaled, SymbolSum,
                             _jacobi_singular_values, eval_symbol,
                             is_radial_scalar, nuclear_trace_abs,
                             parse_complex, parse_symbol, scalar_values,
                             singular_values)


def random_matrix(seed, d, hermitian=False):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if hermitian:
        m = 0.5 * (m + m.conj().T)
    return m.astype(np.complex128)


# ---------------------------------------------------------------------------
# Singular values: the hand-written Jacobi sweep against LAPACK
# ---------------------------------------------------------------------------

# odd and even sizes up to 40: the seeded su2 table reaches d = 39, and odd
# d pads the round-robin schedule with a dummy column
@given(st.integers(0, 10_000), st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_jacobi_matches_lapack(seed, d):
    m = random_matrix(seed, d)
    ours = np.sort(_jacobi_singular_values(m, None))[::-1]
    ref = np.linalg.svd(m, compute_uv=False)
    scale = max(1.0, float(ref[0]))
    assert np.allclose(ours, ref, rtol=1e-10, atol=1e-10 * scale)


@given(st.integers(0, 10_000), st.integers(2, 40))
@settings(max_examples=40, deadline=None)
def test_jacobi_on_rank_deficient(seed, d):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(d, 1)) + 1j * rng.normal(size=(d, 1))
    v = rng.normal(size=(1, d)) + 1j * rng.normal(size=(1, d))
    m = (u @ v).astype(np.complex128)
    ours = np.sort(_jacobi_singular_values(m, None))[::-1]
    ref = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(ours, ref, rtol=1e-9, atol=1e-9 * max(1.0, ref[0]))


def test_jacobi_round_robin_schedule():
    for d in range(1, 12):
        seen = []
        for i, j in symbol._round_robin(d):
            assert len(set(i) | set(j)) == 2 * len(i)  # pairs of a round are disjoint
            seen += zip(i.tolist(), j.tolist())
        assert sorted(seen) == [(i, j) for i in range(d) for j in range(i + 1, d)]


def test_jacobi_non_convergence_names_label(monkeypatch):
    monkeypatch.setattr(symbol, "JACOBI_MAX_SWEEPS", 1)
    m = random_matrix(3, 8)  # non-normal: one sweep cannot finish
    assert np.abs(m @ m.conj().T - m.conj().T @ m).max() > 1.0
    with pytest.raises(NumericError, match="1 sweeps at label 7,3"):
        _jacobi_singular_values(m, "7,3")


@given(st.integers(0, 10_000), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_hermitian_route_matches_lapack(seed, d):
    m = random_matrix(seed, d, hermitian=True)
    ours = np.sort(singular_values(m))[::-1]
    ref = np.linalg.svd(m, compute_uv=False)
    assert np.allclose(ours, ref, rtol=1e-11, atol=1e-11 * max(1.0, ref[0]))


def test_exact_diagonal_route():
    m = np.diag([3.0, -1.0 + 0j, 0.5j])
    s = singular_values(m)
    assert list(s) == [3.0, 1.0, 0.5]  # exact, no rounding
    assert list(singular_values(np.diag(m))) == [3.0, 1.0, 0.5]  # the 1-d form


def test_scalar_identity_is_exact():
    c = 3.7 - 0.2j
    m = c * np.eye(5, dtype=np.complex128)
    assert nuclear_trace_abs(m) == 5 * float(np.hypot(c.real, c.imag))
    # the same rule on the 1-d form, the one modulus rule np.hypot
    assert nuclear_trace_abs(np.full(5, c)) == 5 * float(np.hypot(c.real, c.imag))


def test_diagonal_modulus_is_correctly_rounded():
    # the modulus of a diagonal against mpmath's, rounded to float64: np.hypot
    # is correctly rounded on all but a few values and never off by more
    # than an ulp (np.abs of complex128 is, on about two thirds of them)
    mpmath = pytest.importorskip("mpmath")
    z = np.random.default_rng(7).standard_normal((3000, 2)) @ np.array([1.0, 1j])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.sqrt(mpmath.mpf(x.real) ** 2 + mpmath.mpf(x.imag) ** 2))
                        for x in z])
    got, ref_sorted = singular_values(z), np.sort(ref)[::-1]
    assert np.count_nonzero(got == ref_sorted) >= 0.99 * z.size
    np.testing.assert_array_max_ulp(got, ref_sorted, maxulp=1)
    single = np.array([nuclear_trace_abs(np.full(3, x)) for x in z])
    assert np.count_nonzero(single == 3 * ref) >= 0.99 * z.size


@given(st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_nuclear_subadditivity(seed, d):
    a = random_matrix(seed, d)
    b = random_matrix(seed + 1, d)
    na, nb = nuclear_trace_abs(a), nuclear_trace_abs(b)
    nab = nuclear_trace_abs(a + b)
    assert nab <= na + nb + 1e-9 * (na + nb + 1.0)


@given(st.integers(0, 10_000), st.integers(1, 6),
       st.floats(min_value=-8, max_value=8))
@settings(max_examples=40, deadline=None)
def test_nuclear_homogeneity(seed, d, c):
    a = random_matrix(seed, d)
    assert nuclear_trace_abs(c * a) == pytest.approx(abs(c) * nuclear_trace_abs(a),
                                                     rel=1e-10, abs=1e-12)


@given(st.integers(0, 10_000), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_unitary_invariance(seed, d):
    a = random_matrix(seed, d)
    q1, _ = np.linalg.qr(random_matrix(seed + 7, d))
    q2, _ = np.linalg.qr(random_matrix(seed + 13, d))
    s0 = np.sort(singular_values(a))
    s1 = np.sort(singular_values(q1 @ a @ q2))
    assert np.allclose(s0, s1, rtol=1e-9, atol=1e-9 * max(1.0, s0[-1]))


# ---------------------------------------------------------------------------
# Evaluation and masking
# ---------------------------------------------------------------------------

def point_of(geom, want_label):
    for p in enumerate_dual(geom, 50.0):
        if p.label == want_label:
            return p
    raise AssertionError("label not found")


def test_eval_radial_on_group_point():
    g = Geometry.su2()
    p = point_of(g, (3,))  # d = 4, lambda = 15/4
    m = eval_symbol(RadialWeight(2.0), p, g)
    expect = (1.0 + 15.0 / 4.0) ** -1.0
    assert m.shape == (4,)  # a diagonal block is its 1-d diagonal
    assert m.dtype == np.complex128
    assert np.array_equal(m, np.full(4, expect))


def test_mask_is_the_class_one_corner(tmp_path):
    g = Geometry.sphere(2)
    p = point_of(g, (2,))  # d = 5, k = 1
    m = eval_symbol(ClassOneMask(RadialWeight(2.0)), p, g)
    assert m.shape == (1,)
    assert m[0] != 0
    # in a sum the corner is zero-padded into the full diagonal
    s = eval_symbol(SymbolSum([ClassOneMask(RadialWeight(2.0)), RadialWeight(1.0)]), p, g)
    assert s.shape == (5,)
    assert s[0] == m[0] + s[1]
    assert np.all(s[1:] == s[1])
    # same for a diag: table holding the radial values on all five entries
    path = tmp_path / "diag.txt"
    path.write_text("2\n%s\n" % " ".join([repr(float(m[0].real))] * 5))
    m2 = eval_symbol(ClassOneMask(DiagonalTable(str(path))), p, g)
    assert np.array_equal(m, m2)
    assert eval_symbol(DiagonalTable(str(path)), p, g).shape == (5,)
    # a matrix: table's corner stays dense; a sum with a diagonal adds the
    # diagonal onto the dense block's diagonal
    dense = tmp_path / "dense.txt"
    rows = [" ".join("%d" % (1 + i + 5 * j) for i in range(5)) for j in range(5)]
    dense.write_text("2\n%s\n" % "\n".join(rows))
    c = eval_symbol(ClassOneMask(FullMatrixTable(str(dense))), p, g)
    assert c.shape == (1, 1) and c[0, 0] == 1
    t = eval_symbol(SymbolSum([FullMatrixTable(str(dense)), RadialWeight(1.0)]), p, g)
    assert t.shape == (5, 5)
    full = np.arange(1, 26).reshape(5, 5) + np.diag(s[1:2].repeat(5))
    assert np.array_equal(t, full)
    u = eval_symbol(SymbolSum([RadialWeight(1.0), ClassOneMask(FullMatrixTable(str(dense)))]),
                    p, g)
    assert np.array_equal(u, np.diag(s[1:2].repeat(5)) + np.pad(c, (0, 4)))


def _traced(fn):
    """fn()'s result, or the SizeError it raised, and its traced peak bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    except SizeError as exc:
        return exc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_size_guard_before_allocation(tmp_path):
    # d = 10**6: a scalar is a 1-d diagonal of 10**6 entries (16 MB) and a
    # mask its one-entry corner, so both evaluate
    g = Geometry.sphere(3)
    big = DualPoint(label=(7,), rep_dim=10 ** 6, eigenspace_dim=10 ** 6,
                    class_one_dim=1, eigenvalue=63.0, weight=8.0)
    f = RadialWeight(2.0)
    for spec, size in ((f, 10 ** 6), (ClassOneMask(f), 1),
                       (Scaled(2.0, ClassOneMask(f)), 1)):
        m, peak = _traced(lambda: eval_symbol(spec, big, g))
        assert m.shape == (size,) and peak < 20 * 2 ** 20
    # a diagonal of d = 10**8 (1.6 GB) in a sum with its own corner, on a
    # file record: refused before it is allocated
    path = tmp_path / "spec.txt"
    path.write_text("huge 100000000 1 2.0\n")
    fg = Geometry.from_file(str(path))
    (huge,) = enumerate_dual(fg, 10.0)
    err, peak = _traced(lambda: eval_symbol(SymbolSum([ClassOneMask(f), f]), huge, fg))
    assert isinstance(err, SizeError)
    assert "label huge needs a 100000000 symbol block" in str(err)
    assert peak < 2 ** 20
    # a 1 x 1 dense corner of a d = 3000 table evaluates alone, but a sum
    # with a diagonal promotes it to 3000 x 3000 (144 MB): refused before
    # that block is allocated (the table entry is a broadcast view)
    p3000 = DualPoint(label=(9,), rep_dim=3000, eigenspace_dim=3000,
                      class_one_dim=1, eigenvalue=80.0, weight=9.0)
    entry = np.broadcast_to(np.complex128(0.5), (3000, 3000))
    table = FullMatrixTable("t", entries={"9": entry})
    corner, peak = _traced(lambda: eval_symbol(ClassOneMask(table), p3000, g))
    assert corner.shape == (1, 1) and peak < 2 ** 20
    err, peak = _traced(lambda: eval_symbol(SymbolSum([ClassOneMask(table), f]), p3000, g))
    assert isinstance(err, SizeError)
    assert "label 9 needs a 3000 x 3000 symbol block" in str(err)
    assert peak < 2 ** 20


def test_scalar_values_semantics():
    g = Geometry.torus(1)
    lam = np.array([0.0, 3.0, 99.0])
    np.testing.assert_allclose(scalar_values(RadialWeight(1.0), lam, g),
                               (1.0 + lam) ** -0.5)
    np.testing.assert_allclose(scalar_values(BesselPotential(3.0, 2.0), lam, g),
                               (1.0 + lam) ** -1.5)
    np.testing.assert_allclose(scalar_values(ModulusWeight(0.5), lam, g),
                               (1.0 + np.sqrt(lam)) ** -0.5)
    np.testing.assert_allclose(
        scalar_values(PowerOfEigenvalue(1.0, shift=1.0), lam, g),
        (1.0 + lam) ** -1.0)
    with pytest.raises(DomainError):
        scalar_values(PowerOfEigenvalue(1.0), lam, g)  # hits 1/0 at lam = 0


def test_scalar_values_are_fresh_arrays():
    # the shell stream overwrites the result with D |f| in place
    g = Geometry.torus(1)
    lam = np.array([1.0, 3.0, 99.0])
    base = RadialWeight(0.0)
    for spec in (base, BesselPotential(1.0, 1.0), PowerOfEigenvalue(-1.0),
                 ModulusWeight(0.0), Scaled(1.0, base), ClassOneMask(base),
                 SymbolSum([base]), SymbolSum([base, base])):
        f = scalar_values(spec, lam, g)
        assert f.dtype == np.float64 and f.flags.writeable
        assert not np.shares_memory(f, lam)
        assert not np.shares_memory(f, scalar_values(spec, lam, g))


def test_sum_and_scale_compose():
    g = Geometry.torus(1)
    lam = np.array([1.0, 7.0])
    spec = SymbolSum([Scaled(2.0, RadialWeight(1.0)), RadialWeight(3.0)])
    got = scalar_values(spec, lam, g)
    want = 2.0 * (1 + lam) ** -0.5 + (1 + lam) ** -1.5
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert is_radial_scalar(spec)
    assert not is_radial_scalar(ClassOneMask(spec))
    # on lifted kinds a mask streams, and its scalar looks through it
    assert is_radial_scalar(SymbolSum([Scaled(2.0, ClassOneMask(spec)), spec]), lifted=True)
    assert not is_radial_scalar(ClassOneMask(DiagonalTable("t", entries={})), lifted=True)
    np.testing.assert_array_equal(scalar_values(ClassOneMask(spec), lam, g), got)


# ---------------------------------------------------------------------------
# parse_symbol / parse_complex
# ---------------------------------------------------------------------------

def test_parse_symbol_forms():
    assert parse_symbol("radial:2") == RadialWeight(2.0)
    assert parse_symbol("bessel:3:2") == BesselPotential(3.0, 2.0)
    assert parse_symbol("bessel:3") == BesselPotential(3.0, 2.0)
    assert parse_symbol("power:1.5:0.25") == PowerOfEigenvalue(1.5, 0.25)
    assert parse_symbol("modulus:0.75") == ModulusWeight(0.75)
    assert parse_symbol("scaled:2:radial:1") == Scaled(2.0, RadialWeight(1.0))
    assert parse_symbol("mask:radial:1") == ClassOneMask(RadialWeight(1.0))
    with pytest.raises(ConfigError):
        parse_symbol("radial:abc")
    with pytest.raises(ConfigError):
        parse_symbol("spherical:1")


def test_parse_complex_accepts_i_and_j():
    assert parse_complex("3") == 3.0
    assert parse_complex("-2.5") == -2.5
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("1-0.5j") == 1 - 0.5j
    assert parse_complex("2i") == 2j
    with pytest.raises(SpectrumFormatError):
        parse_complex("one")


# ---------------------------------------------------------------------------
# Symbol tables
# ---------------------------------------------------------------------------

def test_diagonal_table_round_trip(tmp_path):
    path = tmp_path / "diag.txt"
    path.write_text("# per-label diagonals\n0\n1.0\n1\n0.5 0.5\n2\n0.25 0.25 0.25\n")
    g = Geometry.su2()
    spec = DiagonalTable(str(path))
    p = point_of(g, (1,))
    m = eval_symbol(spec, p, g)
    assert m.shape == (2,)
    assert np.array_equal(m, [0.5, 0.5])


def test_diagonal_table_accepts_square_form(tmp_path):
    path = tmp_path / "diag.txt"
    path.write_text("1\n0.5 0\n0 0.5\n")
    spec = DiagonalTable(str(path))
    assert np.allclose(spec.entries["1"], [0.5, 0.5])
    bad = tmp_path / "bad.txt"
    bad.write_text("1\n0.5 0.1\n0 0.5\n")
    with pytest.raises(SpectrumFormatError):
        DiagonalTable(str(bad))


def test_full_table_and_errors(tmp_path):
    path = tmp_path / "mat.txt"
    path.write_text("1\n1 1i\n0 1\n")
    g = Geometry.su2()
    spec = FullMatrixTable(str(path))
    p = point_of(g, (1,))
    m = eval_symbol(spec, p, g)
    assert m[0, 1] == 1j
    with pytest.raises(TableLookupError):
        eval_symbol(spec, point_of(g, (2,)), g)
    short = tmp_path / "short.txt"
    short.write_text("2\n1 0\n0 1\n")  # 2x2 block for a rep_dim-3 point
    with pytest.raises(SizeError):
        eval_symbol(FullMatrixTable(str(short)), point_of(g, (2,)), g)
    with pytest.raises(ConfigError):
        DiagonalTable(str(tmp_path / "missing.txt"))


def test_table_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("0\nnan\n")
    g = Geometry.su2()
    spec = DiagonalTable(str(path))
    with pytest.raises(DomainError):
        eval_symbol(spec, point_of(g, (0,)), g)


def test_truncated_matrix_table(tmp_path):
    path = tmp_path / "trunc.txt"
    path.write_text("1\n1 0\n")
    with pytest.raises(SpectrumFormatError):
        FullMatrixTable(str(path))
