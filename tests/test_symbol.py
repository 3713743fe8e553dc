import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dixtrace.symbol as symbol
from dixtrace import geometry
from dixtrace.errors import (ConfigError, DomainError, NumericError, SizeError,
                             SpectrumFormatError, TableLookupError)
from dixtrace.geometry import DualPoint, Geometry, enumerate_dual
from dixtrace.symbol import (DiagonalTable, FullMatrixTable, ModulusWeight,
                             PowerOfEigenvalue, RadialWeight,
                             Scaled, SymbolSum, _jacobi_singular_values, eval_symbol,
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


def graded_matrix(seed, d, smallest):
    """U diag(s) V^H with s from 1 down to smallest, geometrically, and
    unitaries from QR of complex Gaussian matrices."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            for _ in range(2))
    return (u * np.geomspace(1.0, smallest, d)) @ v.conj().T


def test_jacobi_non_convergence_names_label(monkeypatch):
    monkeypatch.setattr(symbol, "JACOBI_MAX_SWEEPS", 1)
    # the eigenvectors of m^H m resolve a graded spectrum's small values
    # only roughly, so one sweep cannot finish
    m = graded_matrix(3, 8, 1e-8)
    with pytest.raises(NumericError, match="1 sweeps at label 7,3"):
        _jacobi_singular_values(m, "7,3")


@given(st.integers(0, 10_000), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_jacobi_on_graded_spectrum(seed, d):
    m = graded_matrix(seed, d, 1e-12)
    ours = singular_values(m)
    ref = np.linalg.svd(m, compute_uv=False)
    assert np.max(np.abs(ours - ref)) <= 1e-13 * ref[0]


@pytest.mark.parametrize("k", [-1000, -300, 300, 1000])
def test_singular_values_scale_exactly_by_powers_of_two(k):
    # a dense block is decomposed as m / 2**e, so no square overflows or
    # underflows; tiny blocks are not taken for Hermitian either
    m = random_matrix(5, 12)
    scaled = m * 2.0 ** k
    assert np.array_equal(scaled / 2.0 ** k, m)
    want = singular_values(m) * 2.0 ** k
    assert np.array_equal(singular_values(scaled), want)
    assert nuclear_trace_abs(scaled) == float(np.sum(want))


def test_non_finite_block_names_its_label():
    # a scaled block that overflowed reached eigh as a raw LinAlgError
    with np.errstate(over="ignore", invalid="ignore"):
        m = random_matrix(5, 3) * 1e308 * 1e10
        blocks = (m, m + m.conj().T)
    for block in blocks:
        with pytest.raises(NumericError, match="at label 7,3 is not finite"):
            singular_values(block, "7,3")


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
    m = eval_symbol(RadialWeight(2.0), p, g)
    assert m.shape == (1,)
    assert m[0] != 0
    assert np.array_equal(eval_symbol(Scaled(2.0, RadialWeight(2.0)), p, g), 2.0 * m)
    # a sum adds the corners
    s = eval_symbol(SymbolSum([RadialWeight(2.0), RadialWeight(1.0)]), p, g)
    assert s.shape == (1,)
    assert s[0] == m[0] + eval_symbol(RadialWeight(1.0), p, g)[0]
    # same for a diag: table holding the radial values on all five entries
    path = tmp_path / "diag.txt"
    path.write_text("2\n%s\n" % " ".join([repr(float(m[0].real))] * 5))
    assert np.array_equal(eval_symbol(DiagonalTable(str(path)), p, g), m)
    # a matrix: table's corner stays dense; a sum with a diagonal adds the
    # diagonal onto the dense corner's diagonal
    dense = tmp_path / "dense.txt"
    rows = [" ".join("%d" % (1 + i + 5 * j) for i in range(5)) for j in range(5)]
    dense.write_text("2\n%s\n4\n%s\n" % ("\n".join(rows), "\n".join(rows)))
    c = eval_symbol(FullMatrixTable(str(dense)), p, g)
    assert c.shape == (1, 1) and c[0, 0] == 1
    t = eval_symbol(SymbolSum([FullMatrixTable(str(dense)), RadialWeight(1.0)]), p, g)
    assert t.shape == (1, 1) and t[0, 0] == 1 + s[0] - m[0]
    u = eval_symbol(SymbolSum([RadialWeight(1.0), FullMatrixTable(str(dense))]), p, g)
    assert np.array_equal(u, t)
    # where k = d the corner is the whole block
    q = point_of(Geometry.su2(), (4,))  # d = k = 5
    assert np.array_equal(eval_symbol(FullMatrixTable(str(dense)), q, Geometry.su2()),
                          np.arange(1, 26).reshape(5, 5))


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
    # k = d = 10**6: a scalar is a 1-d diagonal of 10**6 entries (16 MB),
    # bare or scaled; with k = 1 it is a one-entry corner
    g = Geometry.sphere(3)
    big = DualPoint(label=(7,), rep_dim=10 ** 6, eigenspace_dim=10 ** 12,
                    class_one_dim=10 ** 6, eigenvalue=63.0, weight=8.0)
    corner = big._replace(eigenspace_dim=10 ** 6, class_one_dim=1)
    f = RadialWeight(2.0)
    for spec, point, size in ((f, big, 10 ** 6), (Scaled(2.0, f), big, 10 ** 6),
                              (f, corner, 1), (Scaled(2.0, f), corner, 1)):
        m, peak = _traced(lambda: eval_symbol(spec, point, g))
        assert m.shape == (size,) and peak < 20 * 2 ** 20
    # a diagonal of d = 10**8 (1.6 GB) on a file record, where the corner is
    # the whole block, alone or in a sum: refused before it is allocated
    path = tmp_path / "spec.txt"
    path.write_text("huge 100000000 100000000 2.0\n")
    fg = Geometry.from_file(str(path))
    (huge,) = enumerate_dual(fg, 10.0)
    for spec in (f, SymbolSum([f, f])):
        err, peak = _traced(lambda: eval_symbol(spec, huge, fg))
        assert isinstance(err, SizeError)
        assert "label huge needs a 100000000 symbol block" in str(err)
        assert peak < 2 ** 20
    # a 1 x 1 dense corner of a d = 3000 table evaluates, alone and in a
    # sum with a diagonal; where k = d the 3000 x 3000 block (144 MB) is
    # refused before it is allocated (the table entry is a broadcast view)
    p3000 = DualPoint(label=(9,), rep_dim=3000, eigenspace_dim=3000,
                      class_one_dim=1, eigenvalue=80.0, weight=9.0)
    entry = np.broadcast_to(np.complex128(0.5), (3000, 3000))
    table = FullMatrixTable("t", entries={"9": entry})
    for spec in (table, SymbolSum([table, f])):
        m, peak = _traced(lambda: eval_symbol(spec, p3000, g))
        assert m.shape == (1, 1) and peak < 2 ** 20
    whole = p3000._replace(eigenspace_dim=3000 ** 2, class_one_dim=3000)
    for spec in (table, SymbolSum([table, f])):
        err, peak = _traced(lambda: eval_symbol(spec, whole, g))
        assert isinstance(err, SizeError)
        assert "label 9 needs a 3000 x 3000 symbol block" in str(err)
        assert peak < 2 ** 20


def test_scalar_values_semantics():
    g = Geometry.torus(1)
    lam = np.array([0.0, 3.0, 99.0])
    np.testing.assert_allclose(scalar_values(RadialWeight(1.0), lam, g),
                               (1.0 + lam) ** -0.5)
    np.testing.assert_allclose(scalar_values(parse_symbol("bessel:3:2"), lam, g),
                               (1.0 + lam) ** -1.5)
    np.testing.assert_allclose(scalar_values(ModulusWeight(0.5), lam, g),
                               (1.0 + np.sqrt(lam)) ** -0.5)
    np.testing.assert_allclose(
        scalar_values(PowerOfEigenvalue(1.0, shift=1.0), lam, g),
        (1.0 + lam) ** -1.0)
    with pytest.raises(DomainError):  # the one scanned case: shift 0
        scalar_values(parse_symbol("power:1"), lam, g)  # hits 1/0 at lam = 0


@pytest.mark.parametrize("s, nu", [(3.0, 2.0), (1.0, 3.0), (0.7, 0.3), (-2.5, 7.0),
                                   (1e-300, 1e300), (5.0, 1e-3)])
def test_bessel_is_the_shifted_power_bit_for_bit(s, nu):
    # bessel:s:nu parses to power:s/nu:1; -(s/nu) = (-s)/nu exactly, so
    # the values are those of (1 + lambda)^((-s)/nu), bare, scaled and summed
    g = Geometry.torus(1)
    rng = np.random.default_rng(29)
    lam = np.concatenate([[0.0, 1.0, 2.0 ** 53], rng.uniform(0, 1e6, 1000)])
    want = np.add(1.0, lam) ** ((-s) / nu)
    bessel, power = "bessel:%r:%r" % (s, nu), "power:%r:1" % (s / nu)
    assert parse_symbol(bessel) == parse_symbol(power) == PowerOfEigenvalue(s / nu, 1.0)
    for wrap in ("%s", "scaled:-3:%s"):
        assert (scalar_values(parse_symbol(wrap % bessel), lam, g).tobytes()
                == scalar_values(parse_symbol(wrap % power), lam, g).tobytes())
    assert scalar_values(parse_symbol(bessel), lam, g).tobytes() == want.tobytes()
    summed = [scalar_values(SymbolSum([parse_symbol(t), RadialWeight(1.0)]), lam, g)
              for t in (bessel, power)]
    assert summed[0].tobytes() == summed[1].tobytes()


def test_scalar_values_are_fresh_arrays():
    # the shell stream overwrites the result with D |f| in place
    g = Geometry.torus(1)
    lam = np.array([1.0, 3.0, 99.0])
    base = RadialWeight(0.0)
    for spec in (base, PowerOfEigenvalue(1.0, 1.0), PowerOfEigenvalue(-1.0),
                 ModulusWeight(0.0), Scaled(1.0, base), SymbolSum([base]),
                 SymbolSum([base, base])):
        f = scalar_values(spec, lam, g)
        assert f.dtype == np.float64 and f.flags.writeable
        assert not np.shares_memory(f, lam)
        assert not np.shares_memory(f, scalar_values(spec, lam, g))
        out = np.full(3, np.nan)  # computed into out, the same floats
        assert scalar_values(spec, lam, g, out=out) is out
        np.testing.assert_array_equal(out, f)


def test_sum_and_scale_compose():
    g = Geometry.torus(1)
    lam = np.array([1.0, 7.0])
    spec = SymbolSum([Scaled(2.0, RadialWeight(1.0)), RadialWeight(3.0)])
    got = scalar_values(spec, lam, g)
    want = 2.0 * (1 + lam) ** -0.5 + (1 + lam) ** -1.5
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert is_radial_scalar(spec)
    # mask: spells the spec itself, so it streams on every kind
    masked = parse_symbol("scaled:2:mask:radial:1")
    assert is_radial_scalar(SymbolSum([masked, spec]))
    assert not is_radial_scalar(Scaled(2.0, DiagonalTable("t", entries={})))
    np.testing.assert_array_equal(scalar_values(masked, lam, g),
                                  scalar_values(Scaled(2.0, RadialWeight(1.0)), lam, g))


# ---------------------------------------------------------------------------
# parse_symbol / parse_complex
# ---------------------------------------------------------------------------

def test_parse_symbol_forms():
    assert parse_symbol("radial:2") == RadialWeight(2.0)
    assert parse_symbol("bessel:3:2") == PowerOfEigenvalue(1.5, 1.0)
    assert parse_symbol("bessel:3") == PowerOfEigenvalue(1.5, 1.0)
    assert parse_symbol("power:1.5:0.25") == PowerOfEigenvalue(1.5, 0.25)
    assert parse_symbol("modulus:0.75") == ModulusWeight(0.75)
    assert parse_symbol("scaled:2:radial:1") == Scaled(2.0, RadialWeight(1.0))
    assert parse_symbol("mask:radial:1") == RadialWeight(1.0)
    with pytest.raises(ConfigError):
        parse_symbol("radial:abc")
    with pytest.raises(ConfigError):
        parse_symbol("spherical:1")


def test_mask_spells_the_spec_itself(tmp_path):
    diag = tmp_path / "diag.txt"
    diag.write_text("2\n1 2 3 4 5\n")
    mat = tmp_path / "mat.txt"
    mat.write_text("0\n0.5\n")
    for text in ("radial:3", "scaled:2:radial:3", "scaled:2:mask:radial:3",
                 "diag:%s" % diag, "matrix:%s" % mat):
        assert parse_symbol("mask:" + text) == parse_symbol(text)
    # every block is its class-one corner, bare or not: one entry on a sphere
    g = Geometry.sphere(2)
    p = point_of(g, (2,))  # d = 5, k = 1
    assert eval_symbol(parse_symbol("radial:3"), p, g).shape == (1,)
    assert eval_symbol(parse_symbol("diag:%s" % diag), p, g).shape == (1,)


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
    # checked once, when the table is loaded
    with pytest.raises(DomainError, match="nan.txt label 0 has a non-finite entry"):
        DiagonalTable(str(path))


def test_table_entries_are_checked_once_and_read_only(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("0\n2\n1\n1 0\n0 1e999\n")  # overflows to inf
    with pytest.raises(DomainError, match="m.txt label 1 has a non-finite entry"):
        FullMatrixTable(str(path))
    path.write_text("0\n2\n1\n1 0\n0 3\n")
    table = FullMatrixTable(str(path))
    g = Geometry.su2()
    block = eval_symbol(table, point_of(g, (1,)), g)
    assert block.base is table.entries["1"] and not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 5
    assert nuclear_trace_abs(eval_symbol(table, point_of(g, (0,)), g)) == 2.0


def test_truncated_matrix_table(tmp_path):
    path = tmp_path / "trunc.txt"
    path.write_text("1\n1 0\n")
    with pytest.raises(SpectrumFormatError):
        FullMatrixTable(str(path))


# The first data line after the header sits at line 4, so each message's
# line number shows that comments and blank lines count as lines.
@pytest.mark.parametrize("diagonal, body, message", [
    (True, "0 1\n", "t.txt:4: expected a label line, got '0 1'"),
    (True, "0\n1\n2\n", "t.txt:6: label '2' has no entries"),
    (False, "0\n1 0\n", "t.txt:5: label '0' matrix is truncated"),
    (False, "0\n1 0\n\n# c\n0 1 2\n", "t.txt:8: expected 2 entries, got 3"),
    (False, "0\n1 0\n1\n", "t.txt:6: expected 2 entries, got 1"),
    (True, "0\n1 2 3\n0 2 0\n", "t.txt:5: diagonal table label '0' has 2 rows, expected 1 or 3"),
    (True, "0\n1 0\n# c\n1 2\n", "t.txt:5: diagonal table label '0' has nonzero off-diagonal"),
    (True, "0\n1 x\n", "t.txt:5: bad complex literal 'x'"),
    (False, "0\n1 0\n0 1+2i\n1\n1 0\n0 x\n", "t.txt:9: bad complex literal 'x'"),
    (True, "0\n1\n0\n2\n", "t.txt:6: label '0' repeats an earlier record"),
    (False, "0\n1\n1\n2\n\n0\n3\n", "t.txt:9: label '0' repeats an earlier record"),
])
def test_table_messages_name_their_line(tmp_path, diagonal, body, message):
    path = tmp_path / "t.txt"
    path.write_text("# table\n\n  # indented comment\n" + body)
    table = DiagonalTable if diagonal else FullMatrixTable
    with pytest.raises(SpectrumFormatError) as err:
        table(str(path))
    assert str(err.value).startswith(str(tmp_path / message))


@pytest.mark.parametrize("table", [DiagonalTable, FullMatrixTable])
def test_tables_refuse_rows_past_the_cap(tmp_path, monkeypatch, table):
    monkeypatch.setattr(geometry, "_MAX_MATERIALIZED_POINTS", 5)
    path = tmp_path / "t.txt"
    # six data lines, then a malformed one the reader must never reach
    path.write_text("# header\n" + "".join("%d\n1\n" % j for j in range(3)) + "x y z\n")
    with pytest.raises(SizeError, match="t.txt has more than 5 data rows"):
        table(str(path))
    path.write_text("".join("%d\n1\n" % j for j in range(2)) + "2\n")
    with pytest.raises(SpectrumFormatError, match="label '2' has no entries"):
        table(str(path))


def test_matrix_table_holds_one_record_at_a_time(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "m.txt"
    with open(path, "w") as fh:
        for n in range(80):
            fh.write("%d\n" % n)
            for row in rng.normal(size=(n + 1, 2 * n + 2)).view(np.complex128):
                fh.write(" ".join("%.17g%+.17gj" % (z.real, z.imag) for z in row) + "\n")
    tracemalloc.start()
    try:
        table = FullMatrixTable(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(e.nbytes for e in table.entries.values())
    assert held == 16 * sum(d * d for d in range(1, 81))
    assert peak <= 1.2 * held
