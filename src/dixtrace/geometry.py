"""Model geometries and their dual enumerations.

A geometry bundles the data needed to enumerate the dual of a model manifold:
the manifold dimension kappa, the order nu of the generating positive
operator, and the rule attaching to every dual point a label, a matrix size d
(the block the symbol is evaluated on), an eigenspace dimension D (the point's
weight in eigenvalue counting) and a Laplace eigenvalue lambda.

Built-in kinds:

  torus:n    flat n-torus; labels are integer vectors, d = 1, D = 1,
             lambda = |xi|^2.
  su2, so3,  rank one: integer labels l >= 0, lambda = l(l+c)/den with
  sphere:n   (c, den) = (2, 4), (1, 1), (n-1, 1).  d = l+1 on su2 (l is twice
             the highest weight), 2l+1 on so3, the degree-l harmonic
             dimension on sphere:n; class-one dimension k = 1 on spheres and
             d on the groups; D = d*k.
  su3        labels (a, b), d = (a+1)(b+1)(a+b+2)/2, D = d^2,
             lambda = (a^2+b^2+ab+3a+3b)/9.
  file:PATH  arbitrary spectrum from a text file, one `label d D lambda`
             record per line; D is a multiple of d and k = d, so the
             block is held D/d times and a mask leaves it whole.

enumerate_dual, counting_function and radial_shells read each kind's
formulas from one place (_RankOne, and the row rules _Torus2 and _SU3 for
the rank-two lattices).

The weight of a point is w = (1+lambda)^(1/nu).  All cutoffs N act through
the equivalent rule lambda <= N^nu - 1, so that boundary ties are included
the same way on every code path.  Built-in eigenvalues lie in (1/den)Z, so
Geometry.lattice_cap reads the rule exactly, from the rational value of N's
float64; only file spectra evaluate N^nu - 1 in float64.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, SizeError, SpectrumFormatError

_BUILTIN_KINDS = ("torus", "su2", "so3", "su3", "sphere", "file")

# Guard for paths that must materialize every dual point at once.
_MAX_MATERIALIZED_POINTS = 50_000_000
# Guard for the rank-two lattice scans (torus:2, su3): labels (a, b) with
# a, b >= 0 below the cutoff, counted before the first window is built.
_MAX_LATTICE_LABELS = 1 << 27

# Shells, points or boundary labels per streamed chunk, one length for
# every chunked stream, and the width in q = den * lambda of the rank-two
# lattice windows; fixed so summation is reproducible.  The fold sums each
# chunk pairwise, so its length is picked for speed alone: 2^14 float64
# values (128 kB) stay in cache, and longer chunks spill out of it.
_CHUNK = 1 << 14
# Dual points built per batch by enumerate_dual: a batch's objects, about
# 250 bytes a point, stay near 256 kB, and numpy's per-call cost is spread
# over a thousand points.
_BATCH = 1 << 10


@dataclass(frozen=True)
class Geometry:
    """A model manifold with an enumerable dual.

    kind is one of torus / su2 / so3 / su3 / sphere / file; dim is the
    manifold dimension kappa entering every log-normalization; nu is the
    order of the positive operator whose eigenvalues index the dual (2 for
    all built-ins); rank is the torus rank or sphere dimension.
    """

    kind: str
    dim: int
    nu: float = 2.0
    rank: int = 1
    path: str | None = None

    def __post_init__(self):
        if self.kind not in _BUILTIN_KINDS:
            raise ConfigError("unsupported geometry kind: %r" % (self.kind,))
        if self.dim < 1:
            raise ConfigError("geometry dim must be >= 1, got %r" % (self.dim,))
        if not (self.nu > 0):
            raise ConfigError("laplacian order nu must be positive, got %r" % (self.nu,))

    @staticmethod
    def torus(n: int) -> "Geometry":
        if n < 1:
            raise ConfigError("torus rank must be >= 1")
        return Geometry("torus", dim=n, rank=n)

    @staticmethod
    def su2() -> "Geometry":
        return Geometry("su2", dim=3)

    @staticmethod
    def so3() -> "Geometry":
        return Geometry("so3", dim=3)

    @staticmethod
    def su3() -> "Geometry":
        return Geometry("su3", dim=8)

    @staticmethod
    def sphere(n: int) -> "Geometry":
        if n < 2:
            raise ConfigError("sphere dimension must be >= 2")
        return Geometry("sphere", dim=n, rank=n)

    @staticmethod
    def from_file(path: str, dim: int = 1, nu: float = 2.0) -> "Geometry":
        return Geometry("file", dim=dim, nu=nu, path=path)

    def lambda_threshold(self, weight_cutoff: float) -> float:
        """Largest admissible eigenvalue for weight cutoff N, as the float64
        that eigenvalues are compared against.

        File spectra evaluate N^nu - 1 in float64.  Built-in kinds read the
        exact cap q of lattice_cap as the streams compute eigenvalues: q / den
        on higher tori and su3, and the last admitted label's eigenvalue on
        torus:1 and rank one, as past 2**53 q may round onto the next one's.
        """
        if self.kind == "file":
            _check_cutoff(weight_cutoff)
            return float(weight_cutoff) ** self.nu - 1.0
        cap = self.lattice_cap(weight_cutoff)
        if self.kind == "torus" and self.rank == 1:
            return float(math.isqrt(cap) ** 2)
        if self.kind in ("torus", "su3"):
            return float(cap) / _den(self)
        r = _rank_one(self)
        return r.eigenvalue(float(r.label_max(cap)))

    def lattice_cap(self, weight_cutoff: float) -> int:
        """Largest integer q = den * lambda with lambda <= N^nu - 1, exactly:
        built-in eigenvalues lie in (1/den)Z, den = 1 on tori, so3 and
        spheres, 4 on su2 and 9 on su3.  N is read as the exact rational
        value of its float64, in integers."""
        _check_cutoff(weight_cutoff)
        if float(self.nu).is_integer():  # N^nu = p/r in lowest terms
            p, r = (x ** int(self.nu) for x in float(weight_cutoff).as_integer_ratio())
        else:
            p, r = (float(weight_cutoff) ** self.nu).as_integer_ratio()
        return _den(self) * (p - r) // r

    def block_rule(self, picture: str) -> bool:
        """Whether symbol blocks are masked to their top-left k x k corners
        (k = class_one_dim): in the homogeneous picture, and always on
        spheres.  Any picture but manifold, group and homogeneous raises
        ConfigError.

        Every kind holds a point's block D // k times (D = eigenspace_dim):
        rep_dim on built-ins, where d k = D (the Peter-Weyl lift), and D/d
        on files, where k = d.  So a masked scalar f weighs D |f| per point.
        """
        if picture not in ("manifold", "group", "homogeneous"):
            raise ConfigError("unknown picture %r" % (picture,))
        return picture == "homogeneous" or self.kind == "sphere"

    def describe(self) -> str:
        if self.kind == "torus":
            return "torus:%d" % self.rank
        if self.kind == "sphere":
            return "sphere:%d" % self.rank
        if self.kind == "file":
            return "file:%s" % self.path
        return self.kind


def _check_cutoff(weight_cutoff: float) -> None:
    if not 1.0 <= weight_cutoff < math.inf:
        raise ConfigError("weight cutoff must be finite and >= 1, got %r" % (weight_cutoff,))


def parse_geometry(text: str, dim: int = 1, nu: float = 2.0) -> Geometry:
    """Parse a CLI geometry string such as torus:2, su2, sphere:3, file:PATH.

    dim and nu only apply to file geometries; built-ins know their own.
    """
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    if head == "torus":
        try:
            return Geometry.torus(int(tail))
        except ValueError:
            raise ConfigError("bad torus rank in %r" % (text,)) from None
    if head == "sphere":
        try:
            return Geometry.sphere(int(tail))
        except ValueError:
            raise ConfigError("bad sphere dimension in %r" % (text,)) from None
    if head == "su2":
        return Geometry.su2()
    if head == "so3":
        return Geometry.so3()
    if head == "su3":
        return Geometry.su3()
    if head == "file":
        if not tail:
            raise ConfigError("file geometry needs a path: file:PATH")
        return Geometry.from_file(tail, dim=dim, nu=nu)
    raise ConfigError("unsupported geometry kind: %r" % (text,))


class DualPoint(NamedTuple):
    """One point of the dual: label, block size d, counting weight D,
    class-one dimension k, eigenvalue and weight."""

    label: tuple
    rep_dim: int
    eigenspace_dim: int
    class_one_dim: int
    eigenvalue: float
    weight: float


# a DualPoint from one 6-tuple, skipping NamedTuple's Python-level __new__
_new_point = partial(tuple.__new__, DualPoint)


def _points(geom: Geometry, labels, d, dd, k, lam) -> list[DualPoint]:
    """The DualPoints of one batch, zipped from its column lists: labels,
    d, D, k (an int column holds that value at every point) and lambda.

    The weight is (1 + lambda)^(1/nu) as a Python float power, point by
    point: numpy's vectorised power differs from it in the last ulp on a
    share of inputs that depends on the exponent and the CPU.
    """
    e = 1.0 / geom.nu
    d, dd, k = (repeat(c) if isinstance(c, int) else c for c in (d, dd, k))
    return list(map(_new_point, zip(labels, d, dd, k, lam, [(1.0 + x) ** e for x in lam])))


def sphere_harmonic_dim(n: int, l: int) -> int:
    """Dimension of the degree-l spherical harmonics on the n-sphere."""
    if l == 0:
        return 1
    return math.comb(n + l, n) - math.comb(n + l - 2, n)


@dataclass(frozen=True)
class _RankOne:
    """A rank-one dual: labels l >= 0 with eigenvalue l(l+c)/den.

    sphere is the sphere dimension n, where d is the degree-l harmonic
    dimension and k = 1; on the groups (sphere = 0) d = (2l+c)/c and k = d.
    """

    c: int
    den: int
    sphere: int = 0

    def label_max(self, cap: int) -> int:
        # l(l+c) <= cap (Geometry.lattice_cap)  <=>  (2l+c)^2 <= 4 cap + c^2
        return (math.isqrt(4 * cap + self.c ** 2) - self.c) // 2

    def eigenvalue(self, l):
        """lambda of label l, an int, a float or a float64 array of labels."""
        return l * (l + self.c) / self.den

    def point(self, l):
        """(lambda, d, k) of label l, an int or a float64 array of labels."""
        lam = self.eigenvalue(l)
        if not self.sphere:
            d = l * (2 // self.c) + 1  # su2: l + 1, so3: 2l + 1
            return lam, d, d
        if isinstance(l, np.ndarray):
            return lam, np.array([float(sphere_harmonic_dim(self.sphere, int(x)))
                                  for x in l]), 1
        return lam, sphere_harmonic_dim(self.sphere, l), 1

    def count(self, big_l: int) -> int:
        """Sum of D = d*k over the labels l <= big_l."""
        n, c = self.sphere, self.c
        if n:  # the harmonic dimensions telescope
            return math.comb(n + big_l, n) + math.comb(n + big_l - 1, n)
        # sum of ((2l+c)/c)^2
        return ((big_l + 1) * (2 * big_l * (2 * big_l + 1) + 6 * c * big_l + 3 * c * c)
                // (3 * c * c))


_GROUPS = {"su2": _RankOne(2, 4), "so3": _RankOne(1, 1)}  # su2: l = twice the weight


def _rank_one(geom: Geometry) -> _RankOne:
    return _GROUPS.get(geom.kind) or _RankOne(geom.rank - 1, 1, sphere=geom.rank)


def _den(geom: Geometry) -> int:
    """den of a built-in kind, whose eigenvalues lie in (1/den)Z."""
    if geom.kind == "file":
        raise ConfigError("a file spectrum has no exact eigenvalue lattice")
    if geom.kind == "torus":
        return 1
    if geom.kind == "su3":
        return _SU3.den
    return _rank_one(geom).den


def _isqrt(x):
    """floor(sqrt(x)) of an int, or elementwise of an int64 array below 2**52.

    Below 2**52 the float64 square root, correctly rounded, never reaches
    the next integer (sqrt(k^2 - 1) rounds up to k only for k > 2**26), so
    truncating it is exact; the label guard keeps the row rules' arguments
    below 2**32.
    """
    if not isinstance(x, np.ndarray):
        return math.isqrt(x)
    return np.sqrt(x).astype(np.int64)


# Row rules of the rank-two lattices.  Labels (a, b) have a, b >= 0 and an
# integer q(a, b) = den * lambda, symmetric in a and b and strictly
# increasing in each.  b_max(a, q) is the largest b with q(a, b) <= q, for
# rows with q(a, 0) <= q; weight(a, b) is the float64 D of a label.  Every
# function takes ints or int64 arrays.

class _Torus2:
    """torus:2: the label (a, b) = (|k1|, |k2|) stands for its sign choices."""

    name, den = "torus:2", 1

    @staticmethod
    def q(a, b):
        return a * a + b * b

    @staticmethod
    def b_max(a, q):
        return _isqrt(q - a * a)

    @staticmethod
    def weight(a, b):
        return (1.0 + (a > 0)) * (1.0 + (b > 0))


class _SU3:
    """su3: highest weights (a, b), d = (a+1)(b+1)(a+b+2)/2 and D = d^2."""

    name, den = "su3", 9

    @staticmethod
    def q(a, b):
        return a * a + b * b + a * b + 3 * a + 3 * b

    @staticmethod
    def b_max(a, q):
        # b^2 + (a+3) b + (a^2 + 3a - q) <= 0
        return (_isqrt((a + 3) * (a + 3) - 4 * (a * a + 3 * a - q)) - (a + 3)) // 2

    @staticmethod
    def dim(a, b):
        return (a + 1) * (b + 1) * (a + b + 2) // 2

    @staticmethod
    def weight(a, b):
        d = _SU3.dim(a, b).astype(np.float64)
        return d * d

    @staticmethod
    def row_count(a: int, b_max: int) -> int:
        # exact sum of D over b <= b_max: d = m u (u + m) / 2 (m = a+1, u = b+1),
        # so it is m^2 (S4 + 2m S3 + m^2 S2) / 4 with S_k = sum of u^k, u <= n
        n, m = b_max + 1, a + 1
        s2 = n * (n + 1) * (2 * n + 1) // 6
        s3 = (n * (n + 1) // 2) ** 2
        s4 = s2 * (3 * n * n + 3 * n - 1) // 5
        return m * m * (s4 + 2 * m * s3 + m * m * s2) // 4


_ROWS = {"torus:2": _Torus2, "su3": _SU3}


def _rows(rule, cap: int) -> Iterator[tuple[int, int]]:
    """Yield (a, b_max) for every row a holding a label with q <= cap."""
    a = 0
    while rule.q(a, 0) <= cap:
        yield a, rule.b_max(a, cap)
        a += 1


def _window_labels(rule, cap: int):
    """Yield (lo, a, b) int64 arrays: the labels with lo <= q(a, b) < lo +
    _CHUNK and q <= cap, rows in order and b ascending within a row.

    The label count is checked against _MAX_LATTICE_LABELS before the first
    window, one isqrt per row.  Windows are fixed in q, so the labels of a
    window never depend on how far the cap lies beyond it.
    """
    n = 0
    for _, b_max in _rows(rule, cap):
        n += b_max + 1
        if n > _MAX_LATTICE_LABELS:
            raise SizeError("%s at this cutoff has more than %d labels (a, b) "
                            "with a, b >= 0; lower the cutoff" % (rule.name, _MAX_LATTICE_LABELS))
    b_next = np.zeros(rule.b_max(0, cap) + 1, dtype=np.int64)  # q is symmetric
    for lo in range(0, cap + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, cap)
        a = np.arange(rule.b_max(0, hi) + 1, dtype=np.int64)
        b_end = rule.b_max(a, hi) + 1
        count = b_end - b_next[:a.size]
        # row a adds b = b_next[a] .. b_end[a] - 1
        skip = np.repeat(b_next[:a.size] - (np.cumsum(count) - count), count)
        b = np.arange(skip.size) + skip
        b_next[:a.size] = b_end
        yield lo, np.repeat(a, count), b


def _window_shells(rule, cap: int):
    """Shells of one window at a time: (lam, dsum) of its occupied q."""
    for lo, a, b in _window_labels(rule, cap):
        hist = np.bincount(rule.q(a, b) - lo, weights=rule.weight(a, b))
        q = np.flatnonzero(hist > 0)  # faster than testing floats for nonzero
        if q.size:
            yield (q + lo) / rule.den, hist[q]


def enumerate_dual(geom: Geometry, weight_cutoff: float) -> Iterator[DualPoint]:
    """Yield every dual point with weight <= weight_cutoff.

    Points come out sorted by (eigenvalue, label); within an eigenvalue the
    label order is lexicographic (by label text on file spectra).  This is
    the canonical enumeration order all summation paths share.
    """
    yield from chain.from_iterable(_point_batches(geom, weight_cutoff))


def _point_batches(geom: Geometry, weight_cutoff: float) -> Iterator[list[DualPoint]]:
    """enumerate_dual's points as lists of up to _BATCH points, each built
    from flat columns by _points."""
    if geom.kind == "torus":
        yield from _torus_batches(geom, geom.lattice_cap(weight_cutoff))
    elif geom.kind == "su3":
        for _, a, b in _window_labels(_SU3, geom.lattice_cap(weight_cutoff)):
            q = _SU3.q(a, b)
            order = np.argsort(q, kind="stable")  # labels come in (a, b) order
            for s in range(0, order.size, _BATCH):
                rows = order[s:s + _BATCH]
                d = _SU3.dim(a[rows], b[rows]).tolist()
                yield _points(geom, list(zip(a[rows].tolist(), b[rows].tolist())), d,
                              [x * x for x in d], d, (q[rows] / _SU3.den).tolist())
    elif geom.kind == "file":
        spec = _load_spectrum(geom)
        yield from _file_batches(geom, spec, spec.admitted(geom.lambda_threshold(weight_cutoff)))
    else:  # rank one: su2, so3, sphere
        r = _rank_one(geom)
        lmax = r.label_max(geom.lattice_cap(weight_cutoff))
        for s in range(0, lmax + 1, _BATCH):
            ls = range(s, min(s + _BATCH, lmax + 1))
            lam, d, k = zip(*map(r.point, ls))
            yield _points(geom, [(l,) for l in ls], d, [x * y for x, y in zip(d, k)], k, lam)


def _file_batches(geom: Geometry, spec: "SpectrumColumns", n: int) -> Iterator[list[DualPoint]]:
    """The DualPoints of a spectrum's first n rows, a batch at a time."""
    for s in range(0, n, _BATCH):
        rows = slice(s, min(s + _BATCH, n))
        d = spec.rep_dim[rows].tolist()
        yield _points(geom, [(t,) for t in spec.labels(rows)], d,
                      spec.eigenspace_dim[rows].tolist(), d, spec.eigenvalue[rows].tolist())


def _torus_batches(geom: Geometry, cap: int) -> Iterator[list[DualPoint]]:
    n = geom.rank
    m = math.isqrt(cap)
    if n == 1:  # k = 0, -1, 1, -2, 2, ...
        for s in range(0, m + 1, _BATCH // 2):
            ks = [k for r in range(s, min(s + _BATCH // 2, m + 1))
                  for k in ((-r, r) if r else (0,))]
            yield _points(geom, [(k,) for k in ks], 1, 1, 1, [float(k * k) for k in ks])
        return
    count_bound = (2 * m + 1) ** n
    if count_bound > _MAX_MATERIALIZED_POINTS:
        raise SizeError(
            "torus:%d enumeration at this cutoff would materialize ~%d points "
            "(cap %d); lower the cutoff"
            % (n, count_bound, _MAX_MATERIALIZED_POINTS))
    # the ball, not the cube: extend each row (k_1..k_i, q) by every k_{i+1}
    # with q + k_{i+1}^2 <= cap, one axis at a time
    cols, q = [], np.zeros(1, dtype=np.int64)
    for _ in range(n):
        r = _isqrt(cap - q)
        width = 2 * r + 1
        rows = np.repeat(np.arange(q.size), width)
        k = np.arange(rows.size) - np.repeat(np.cumsum(width) - r - 1, width)
        cols = [c[rows] for c in cols] + [k]
        q = q[rows] + k * k
    order = np.lexsort(cols[::-1] + [q])
    for s in range(0, order.size, _BATCH):
        rows = order[s:s + _BATCH]
        yield _points(geom, list(zip(*(c[rows].tolist() for c in cols))), 1, 1, 1,
                      q[rows].astype(np.float64).tolist())


def counting_function(geom: Geometry, weight_cutoff: float) -> int:
    """Number of eigenvalues (with multiplicity D) of weight <= cutoff.

    Exact integer arithmetic; equals the sum of eigenspace_dim over
    enumerate_dual at the same cutoff.  Built-in kinds read the cutoff
    exactly (lattice_cap), file spectra through their float64 threshold.
    """
    if geom.kind == "file":
        spec = _load_spectrum(geom)
        n = spec.admitted(geom.lambda_threshold(weight_cutoff))
        return sum(spec.eigenspace_dim[:n].tolist())
    cap = geom.lattice_cap(weight_cutoff)
    if geom.kind == "torus":
        return _count_torus(geom.rank, cap)
    if geom.kind == "su3":
        return sum(_SU3.row_count(a, b_max) for a, b_max in _rows(_SU3, cap))
    r = _rank_one(geom)
    return r.count(r.label_max(cap))


def _count_torus(n: int, cap: int) -> int:
    """Number of k in Z^n with |k|^2 <= cap."""
    m = math.isqrt(cap)
    if n == 1:
        return 2 * m + 1
    return _count_torus(n - 1, cap) + 2 * sum(
        _count_torus(n - 1, cap - x * x) for x in range(1, m + 1))


# ---------------------------------------------------------------------------
# Radial shell streams: (lambda ascending, summed D per shell) in float64.
# This is the bulk interface the summation engine consumes for scalar radial
# symbols.  torus:1 and the rank-one kinds hand out _CHUNK shells per chunk
# from the first one on; torus:2 and su3 hand out the occupied shells of
# one window of _CHUNK values of q = den * lambda per chunk; higher tori
# hand out _CHUNK enumerated points per chunk and file spectra _CHUNK rows
# of their sorted columns, one entry per point, so an eigenvalue repeats
# and may straddle two chunks (the fold reads ties whole).  Chunk
# boundaries are fixed functions of the geometry, so repeated runs and
# longer cutoffs reproduce sums bit-for-bit.
# ---------------------------------------------------------------------------

def radial_shells(geom: Geometry, weight_cutoff: float):
    """Yield (lam, dsum) float64 array chunks, ascending in lam across chunks.

    An entry is a shell (the dual points of one eigenvalue, dsum the sum of
    their D), but a single point on higher tori and file spectra, where
    eigenvalues repeat.  dsum is exact in float64 up to 2**53 (su3 rounds
    each D = d^2 above that, and the fold's counts past 2**53 stay within a
    few ulp of counting_function).
    """
    rows = _ROWS.get(geom.describe())
    if geom.kind == "torus" and geom.rank == 1:
        m = math.isqrt(geom.lattice_cap(weight_cutoff))
        for a in range(0, m + 1, _CHUNK):
            b = min(a + _CHUNK, m + 1)
            r = np.arange(a, b, dtype=np.float64)
            dsum = np.full(b - a, 2.0)
            if a == 0:
                dsum[0] = 1.0
            yield r * r, dsum
    elif rows is not None:
        yield from _window_shells(rows, geom.lattice_cap(weight_cutoff))
    elif geom.kind == "file":  # slices of the sorted columns
        spec = _load_spectrum(geom)
        n = spec.admitted(geom.lambda_threshold(weight_cutoff))
        for a in range(0, n, _CHUNK):
            b = min(a + _CHUNK, n)
            yield spec.eigenvalue[a:b], spec.eigenspace_dim[a:b].astype(np.float64)
    elif geom.kind == "torus":  # rank >= 3: the enumerated points
        points = enumerate_dual(geom, weight_cutoff)
        yield from _row_chunks(map(itemgetter(4, 2), points), 2)  # (lambda, D)
    else:  # rank one: su2, so3, sphere
        r = _rank_one(geom)
        lmax = r.label_max(geom.lattice_cap(weight_cutoff))
        for a in range(0, lmax + 1, _CHUNK):
            lam, d, k = r.point(np.arange(a, min(a + _CHUNK, lmax + 1), dtype=np.float64))
            yield lam, d * k


def _row_chunks(rows: Iterable[tuple], width: int) -> Iterator[np.ndarray]:
    """(width, n) float64 arrays of consecutive rows, filled as the rows
    come, n = _CHUNK in all but the last, so boundaries depend on the row
    index alone."""
    rows = iter(rows)
    while (a := np.fromiter(chain.from_iterable(islice(rows, _CHUNK)), np.float64)).size:
        yield a.reshape(-1, width).T.copy()


# ---------------------------------------------------------------------------
# Spectrum files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumColumns:
    """A spectrum file as flat columns, rows sorted by (lambda, label text):
    rep_dim and eigenspace_dim are int64 and eigenvalue is float64.  The
    labels' UTF-8 text stays in file order in one buffer, record j's label
    being text[offset[j]:offset[j + 1]], and row i is record order[i]."""

    text: bytearray
    offset: np.ndarray
    order: np.ndarray
    rep_dim: np.ndarray
    eigenspace_dim: np.ndarray
    eigenvalue: np.ndarray

    def __len__(self) -> int:
        return len(self.eigenvalue)

    def admitted(self, threshold: float) -> int:
        """Number of rows with lambda <= threshold, which lead the columns."""
        return int(np.searchsorted(self.eigenvalue, threshold, side="right"))

    def labels(self, rows: slice) -> list[str]:
        """The label text of a slice of rows."""
        j = self.order[rows]
        t = self.text
        return [t[a:b].decode() for a, b in zip(self.offset[j].tolist(),
                                                self.offset[j + 1].tolist())]


def _load_spectrum(geom: Geometry) -> SpectrumColumns:
    if geom.path is None:
        raise ConfigError("file geometry has no path")
    return _read_spectrum(geom.path)


def _check_rows_read(path: str, rows: int) -> None:
    """SizeError once a file read into memory passes the point cap; file
    readers call it before holding each further row."""
    if rows > _MAX_MATERIALIZED_POINTS:
        raise SizeError("%s has more than %d data rows, the cap on points held "
                        "at once" % (path, _MAX_MATERIALIZED_POINTS))


def load_spectrum_file(path: str, nu: float = 2.0) -> list[DualPoint]:
    """Read `label d D lambda` records as DualPoints of weight
    (1 + lambda)^(1/nu), sorted by (lambda, label text); the file is read
    and checked as a file: geometry reads it (_read_spectrum)."""
    spec = _read_spectrum(path)
    return list(chain.from_iterable(
        _file_batches(Geometry.from_file(path, nu=nu), spec, len(spec))))


def _read_spectrum(path: str) -> SpectrumColumns:
    """Read `label d D lambda` records into flat columns, one line at a time,
    and sort them once by (lambda, label text); more than
    _MAX_MATERIALIZED_POINTS records raise SizeError while the file is read.
    With no class-one data, k = d (the mask is the identity) and the block
    is held D/d times, so a D that d does not divide is refused, and so is
    a D of 2**63 or more.  Held: 40 bytes a row plus the label text.
    """
    text, offset = bytearray(), array("q", [0])
    d_col, dd_col, lam_col = array("q"), array("q"), array("d")
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError("cannot read spectrum file %s: %s" % (path, exc)) from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise SpectrumFormatError(
                    "%s:%d: expected `label d D lambda`, got %r" % (path, lineno, raw.rstrip()))
            label, d_s, dd_s, lam_s = parts
            try:
                d = int(d_s)
                dd = int(dd_s)
                lam = float(lam_s)
            except ValueError:
                raise SpectrumFormatError(
                    "%s:%d: non-numeric field in %r" % (path, lineno, raw.rstrip())) from None
            if d < 1 or dd < 1:
                raise SpectrumFormatError(
                    "%s:%d: dimensions must be positive" % (path, lineno))
            if dd % d:
                raise SpectrumFormatError(
                    "%s:%d: D = %d is not a multiple of d = %d" % (path, lineno, dd, d))
            if not math.isfinite(lam) or lam < 0:
                raise SpectrumFormatError(
                    "%s:%d: eigenvalue must be finite and >= 0" % (path, lineno))
            if dd >= 2 ** 63:
                raise SpectrumFormatError(
                    "%s:%d: D must be below 2**63" % (path, lineno))
            _check_rows_read(path, len(lam_col) + 1)
            text += label.encode()
            offset.append(len(text))
            d_col.append(d)
            dd_col.append(dd)
            lam_col.append(lam)
    # numpy views of the arrays, the only references left to them, so each
    # sorted column frees its unsorted one
    offset, d_col, dd_col = (np.frombuffer(c, dtype=np.int64) for c in (offset, d_col, dd_col))
    lam_col = np.frombuffer(lam_col, dtype=np.float64)
    key = _label_prefixes(text, offset)
    order = np.lexsort((key, lam_col))
    lam_col = lam_col[order]  # one column at a time
    key = key[order]
    tied = (lam_col[1:] == lam_col[:-1]) & (key[1:] == key[:-1])
    del key
    _sort_tied_runs(order, tied, text, offset)
    return SpectrumColumns(text, offset, order, d_col[order], dd_col[order], lam_col)


def _label_prefixes(text: bytearray, offset: np.ndarray) -> np.ndarray:
    """Each label's first 8 bytes, zero-padded, as a uint64 that orders as
    the bytes do; built a byte of _CHUNK labels at a time."""
    buf = np.frombuffer(text, dtype=np.uint8)
    key = np.zeros(len(offset) - 1, dtype=np.uint64)
    for a in range(0, key.size, _CHUNK):
        k = key[a:a + _CHUNK]
        start, end = offset[a:a + k.size], offset[a + 1:a + k.size + 1]
        for c in range(8):
            k <<= 8
            k |= np.where(start + c < end, buf[np.minimum(start + c, buf.size - 1)], 0)
    return key


def _sort_tied_runs(order: np.ndarray, tied: np.ndarray, text: bytearray,
                    offset: np.ndarray) -> None:
    """Sort each run of rows whose (lambda, label prefix) tie, tied[i]
    saying that rows i and i + 1 do, by full label text, in place and
    stably, with Python's sort."""
    edge = np.flatnonzero(np.diff(tied, prepend=False, append=False)).tolist()
    for a, b in zip(edge[0::2], edge[1::2]):
        run = order[a:b + 1]
        keys = [text[s:e] for s, e in zip(offset[run].tolist(), offset[run + 1].tolist())]
        order[a:b + 1] = run[sorted(range(len(keys)), key=keys.__getitem__)]


def label_text(point: DualPoint) -> str:
    """Canonical whitespace-free label string, used in files and messages."""
    return ",".join(str(c) for c in point.label)


def save_spectrum_file(points, path: str) -> None:
    """Write points in the FileSpectrum format with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# label d D lambda\n")
        for p in points:
            fh.write("%s %d %d %s\n" % (label_text(p), p.rep_dim,
                                        p.eigenspace_dim, format(p.eigenvalue, ".17g")))
