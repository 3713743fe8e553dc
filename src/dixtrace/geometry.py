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

Every rule a kind decides lives on one kind object, Geometry.dual, built
once per geometry by the kind table (_KINDS), which checks the dim and rank
the kind can have: _RankOne for su2, so3, sphere:n and torus:1 (the circle:
sphere:1 on its shells, lambda = l^2 and D = 2 but 1 at l = 0), the row
rules _Torus2 and _SU3, _Torus for higher tori and _File for file spectra.
No other module tells kinds apart.  Every lattice stream (torus:2 and su3
shells, su3 points, the points of every torus) walks q = den * lambda in
windows of about 2^14 labels by one row rule (_windows): rows sorted by
their least q, which each window extends by the labels its q range admits.

The weight of a point is w = (1+lambda)^(1/nu).  All cutoffs N act through
the equivalent rule lambda <= N^nu - 1, so that boundary ties are included
the same way on every code path.  Built-in kinds have nu = 2 and their
eigenvalues in (1/den)Z, so Geometry.lattice_cap reads the rule exactly,
from N's float64 as a rational; only file spectra evaluate N^nu - 1.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, SizeError, SpectrumFormatError, count_text

# Guard for paths that must materialize every dual point at once, and on
# the cube count of the per-point tori, which stream theirs.
_MAX_MATERIALIZED_POINTS = 50_000_000
# Guard for the rank-two lattice scans (torus:2, su3): labels (a, b) with
# a, b >= 0 below the cutoff, counted before the first window is built.
_MAX_LATTICE_LABELS = 1 << 27

# Shells, points or boundary labels per streamed chunk, one length for
# every chunked stream, and about the labels of one lattice window
# (_windows); fixed so summation is reproducible.  The fold sums each
# chunk pairwise, so its length is picked for speed alone: 2^14 float64
# values (128 kB) stay in cache, and longer chunks spill out of it.
_CHUNK = 1 << 14
# Labels of a closed-form stream (torus:1 and rank-one shells, generated
# boundary symbols) folded label by label, refused before the first chunk:
# they run in flat memory, so this bounds their run time (on 2 vCPUs, su2
# `radial:3` sums about 1e8 labels a second).  Sums that take the
# Euler-Maclaurin tail (summation._tail_sums) fold only their head, so the
# cap binds only where every label is folded: mixed-sign symbol sums, terms
# steeper than m^16, reciprocal and --alpha table: boundary symbols, and the
# boundary consumers that walk every label (s0-check, to_file).
_MAX_STREAMED_LABELS = 1 << 30
# Dual points built per batch by enumerate_dual: a batch's objects, about
# 250 bytes a point, stay near 256 kB, and numpy's per-call cost is spread
# over a thousand points.
_BATCH = 1 << 10


@dataclass(frozen=True)
class Geometry:
    """A model manifold with an enumerable dual.

    kind is one of torus / su2 / so3 / su3 / sphere / file; dim is the
    manifold dimension kappa entering every log-normalization; nu is the
    order of the positive operator whose eigenvalues index the dual (2 on
    every built-in kind, which refuses any other); rank is the torus rank
    or sphere dimension, which is their dim, and the groups do not read it.
    dual is the kind object (_KINDS) that answers every rule the kind
    decides; it takes no part in equality, hashing or repr.
    """

    kind: str
    dim: int
    nu: float = 2.0
    rank: int = 1
    path: str | None = None
    dual: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError("unsupported geometry kind: %r" % (self.kind,))
        object.__setattr__(self, "dual", _KINDS[self.kind](self))
        if self.dim < 1:
            raise ConfigError("geometry dim must be >= 1, got %r" % (self.dim,))
        if not 0 < self.nu < math.inf:
            raise ConfigError("laplacian order nu must be positive and finite, got %r"
                              % (self.nu,))
        if self.dual.den is not None and self.nu != 2:  # lattice_cap reads nu = 2
            raise ConfigError("laplacian order nu is 2 on %s, got %r" % (self.kind, self.nu))

    @staticmethod
    def torus(n: int) -> "Geometry":
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
        return Geometry("sphere", dim=n, rank=n)

    @staticmethod
    def from_file(path: str, dim: int = 1, nu: float = 2.0) -> "Geometry":
        return Geometry("file", dim=dim, nu=nu, path=path)

    def lambda_threshold(self, weight_cutoff: float) -> float:
        """Largest admissible eigenvalue for weight cutoff N, as the float64
        that eigenvalues are compared against.

        File spectra evaluate N^nu - 1 in float64, and inf where N^nu
        overflows it, which admits every row.  Built-in kinds read the exact
        cap q of lattice_cap as the streams compute eigenvalues: q / den on
        higher tori and su3, and the last admitted label's eigenvalue on
        torus:1 and rank one, as past 2**53 q may round onto the next one's;
        inf where that value passes float64.
        """
        if self.dual.den is None:  # a file spectrum
            _check_cutoff(weight_cutoff)
            try:
                return float(weight_cutoff) ** self.nu - 1.0
            except OverflowError:  # past float64, so every row is admitted
                return math.inf
        cap = self.lattice_cap(weight_cutoff)
        r = self.dual.tail
        try:
            if r is not None:
                return r.eigenvalue(float(r.label_max(cap)))
            return float(cap) / self.dual.den
        except OverflowError:  # past float64, so every eigenvalue is admitted
            return math.inf

    def lattice_cap(self, weight_cutoff: float) -> int:
        """Largest integer q = den * lambda with lambda <= N^2 - 1, exactly:
        built-in eigenvalues lie in (1/den)Z, den = 1 on tori, so3 and
        spheres, 4 on su2 and 9 on su3.  N is read as the exact rational
        value of its float64, in integers, and nu = 2."""
        _check_cutoff(weight_cutoff)
        if self.dual.den is None:
            raise ConfigError("a file spectrum has no exact eigenvalue lattice")
        p, r = float(weight_cutoff).as_integer_ratio()  # N^2 = p^2/r^2 in lowest terms
        return self.dual.den * (p * p - r * r) // (r * r)

    def describe(self) -> str:
        if self.kind in ("torus", "sphere"):
            return "%s:%d" % (self.kind, self.rank)
        if self.kind == "file":
            return "file:%s" % self.path
        return self.kind


def _check_cutoff(weight_cutoff: float) -> None:
    if not 1.0 <= weight_cutoff < math.inf:
        raise ConfigError("weight cutoff must be finite and >= 1, got %r" % (weight_cutoff,))


def parse_geometry(text: str, dim: int | None = None, nu: float | None = None) -> Geometry:
    """Parse a CLI geometry string such as torus:2, su2, sphere:3, file:PATH.

    dim and nu are for file geometries, 1 and 2.0 where None; built-ins
    know their own, so a value given for one is refused, naming its flag.
    """
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    if head == "file":
        if not tail:
            raise ConfigError("file geometry needs a path: file:PATH")
        return Geometry.from_file(tail, dim=1 if dim is None else dim,
                                  nu=2.0 if nu is None else nu)
    if head not in _KINDS:
        raise ConfigError("unsupported geometry kind: %r" % (text,))
    for flag, value in (("--dim", dim), ("--nu", nu)):
        if value is not None:
            raise ConfigError("%s is for file geometries; %s knows its own" % (flag, text))
    if head in ("torus", "sphere"):  # Geometry.torus(n), Geometry.sphere(n)
        try:
            return getattr(Geometry, head)(int(tail))
        except ValueError:
            what = "torus rank" if head == "torus" else "sphere dimension"
            raise ConfigError("bad %s in %r" % (what, text)) from None
    return getattr(Geometry, head)()


class DualPoint(NamedTuple):
    """One point of the dual: label, block size d, counting weight D,
    class-one dimension k, eigenvalue and weight.

    The point fixes the block rule: a symbol enters as the top-left k x k
    corner of its block, held D // k times.  Built-in kinds have d k = D
    (the Peter-Weyl lift) and k = d but on spheres (k = 1); a file record
    has k = d.  So a scalar f weighs D |f| per point on every kind.
    """

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
    """Dimension of the degree-l spherical harmonics on the n-sphere,
    C(l+n-2, n-2) (2l+n-1)/(n-1), as a running product of exact integer
    quotients."""
    d = 1
    for j in range(1, n - 1):  # C(l+j, j) = C(l+j-1, j-1) (l+j) / j
        d = d * (l + j) // j
    return d * (2 * l + n - 1) // (n - 1)


def _sphere_dims(n: int, l: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """sphere_harmonic_dim of a float64 array of labels, the same running
    product elementwise, computed into out, each factor formed in scratch
    (both as long as l): exact while (n-1) times the dimension stays below
    2**53.  On the circle (n = 1) it is 2, but 1 at l = 0."""
    if n == 1:  # the shell |k| = l holds k = l and k = -l
        return np.add(np.minimum(l, 1.0, out=out), 1.0, out=out)
    out.fill(1.0)
    for j in range(1, n - 1):
        out *= np.add(l, j, out=scratch)
        out /= j
    out *= np.add(np.multiply(l, 2, out=scratch), n - 1, out=scratch)
    out /= n - 1
    return out


# ---------------------------------------------------------------------------
# Kind objects: den (eigenvalues lie in (1/den)Z; None on file spectra),
# picture (the series' tag), cheap_count (the oracle's refusal names a count
# that is closed form or one column sum), tail (the closed-form label rule
# of summation's tail, or None), and shells, batches and count, which
# radial_shells, enumerate_dual and counting_function hand on to.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RankOne:
    """A rank-one dual: labels l >= 0 with eigenvalue l(l+c)/den.

    sphere is the sphere dimension n, where d is the degree-l harmonic
    dimension and k = 1; on the groups (sphere = 0) d = (2l+c)/c and k = d.
    The circle, torus:1, is sphere:1 on its shells, the label l standing
    for k = l and k = -l, and the torus windows give its points.
    """

    c: int
    den: int
    sphere: int = 0
    picture: str = "group"
    cheap_count = True
    tail = property(lambda self: self)  # its labels have closed forms

    def label_max(self, cap: int) -> int:
        # l(l+c) <= cap (Geometry.lattice_cap)  <=>  (2l+c)^2 <= 4 cap + c^2
        return (math.isqrt(4 * cap + self.c ** 2) - self.c) // 2

    def eigenvalue(self, l):
        """lambda of label l, an int or a float (fill computes it in place)."""
        return l * (l + self.c) / self.den

    def point(self, l: int):
        """(lambda, d, k) of label l."""
        lam = self.eigenvalue(l)
        if not self.sphere:
            d = l * (2 // self.c) + 1  # su2: l + 1, so3: 2l + 1
            return lam, d, d
        return lam, sphere_harmonic_dim(self.sphere, l), 1

    def fill(self, l: np.ndarray, lam: np.ndarray, dsum: np.ndarray) -> None:
        """point's lambda and D = d*k for a float64 array of labels, the same
        floats, computed into lam and dsum (lam is scratch until its last
        step)."""
        if self.sphere:
            _sphere_dims(self.sphere, l, dsum, lam)  # k = 1
        else:
            np.multiply(l, 2 // self.c, out=dsum)
            dsum += 1
            dsum *= dsum  # k = d
        np.add(l, self.c, out=lam)
        lam *= l
        lam /= self.den

    def count_to(self, big_l: int) -> int:
        """Sum of D = d*k over the labels l <= big_l."""
        n, c = self.sphere, self.c
        if n:  # the harmonic dimensions telescope
            return math.comb(n + big_l, n) + math.comb(n + big_l - 1, n)
        # sum of ((2l+c)/c)^2
        return ((big_l + 1) * (2 * big_l * (2 * big_l + 1) + 6 * c * big_l + 3 * c * c)
                // (3 * c * c))

    def shells(self, geom: Geometry, weight_cutoff: float):
        """_CHUNK shells a chunk, computed into the same arrays (_reused)."""
        held = []
        for l in _label_chunks(geom, self.label_max(geom.lattice_cap(weight_cutoff)) + 1):
            lam, dsum = _reused(held, l.size, np.float64, np.float64)
            self.fill(l, lam, dsum)
            yield lam, dsum

    def batches(self, geom: Geometry, weight_cutoff: float):
        if self.sphere == 1:  # the circle's points are those of Z
            yield from _TORUS.batches(geom, weight_cutoff)
            return
        lmax = self.label_max(geom.lattice_cap(weight_cutoff))
        for s in range(0, lmax + 1, _BATCH):
            ls = range(s, min(s + _BATCH, lmax + 1))
            lam, d, k = zip(*map(self.point, ls))
            yield _points(geom, [(l,) for l in ls], d, [x * y for x, y in zip(d, k)], k, lam)

    def count(self, geom: Geometry, weight_cutoff: float) -> int:
        return self.count_to(self.label_max(geom.lattice_cap(weight_cutoff)))


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


class _Torus:
    """torus:n: k in Z^n, lambda = |k|^2, d = D = k = 1, points from
    _torus_windows (the circle's too); each a shell entry above rank two."""

    den, picture, cheap_count, tail = 1, "manifold", False, None

    def shells(self, geom: Geometry, weight_cutoff: float):
        points = enumerate_dual(geom, weight_cutoff)
        yield from _row_chunks(map(itemgetter(4, 2), points), 2)  # (lambda, D)

    def batches(self, geom: Geometry, weight_cutoff: float):
        windows = _torus_windows(geom.rank, geom.lattice_cap(weight_cutoff))
        yield from _lattice_batches(geom, windows, lambda cols: (1, 1, 1))

    def count(self, geom: Geometry, weight_cutoff: float) -> int:
        return _count_torus(geom.rank, geom.lattice_cap(weight_cutoff))


# Row rules of the rank-two lattices.  Labels (a, b) have a, b >= 0 and an
# integer q(a, b) = den * lambda, strictly increasing in each.  b_max(a, q)
# is the largest b with q(a, b) <= q, for rows with q(a, 0) <= q;
# weight(a, b) is the float64 D of a label.  Every function takes ints or
# int64 arrays.

class _Rows:
    """The shells of a row rule: the occupied q of each window."""

    cheap_count, tail = False, None

    def shells(self, geom: Geometry, weight_cutoff: float):
        for lo, a, b in _lattice_windows(self, geom.lattice_cap(weight_cutoff)):
            hist = np.bincount(self.q(a, b) - lo, weights=self.weight(a, b))
            q = np.flatnonzero(hist > 0)  # faster than testing floats for nonzero
            if q.size:
                yield (q + lo) / self.den, hist[q]


class _Torus2(_Rows, _Torus):
    """torus:2: the label (a, b) = (|k1|, |k2|) stands for its sign choices."""

    name = "torus:2"

    @staticmethod
    def q(a, b):
        return a * a + b * b

    @staticmethod
    def b_max(a, q):
        return _isqrt(q - a * a)

    @staticmethod
    def weight(a, b):
        return (1.0 + (a > 0)) * (1.0 + (b > 0))


class _SU3(_Rows):
    """su3: highest weights (a, b), d = (a+1)(b+1)(a+b+2)/2 and D = d^2."""

    name, den, picture = "su3", 9, "group"

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
    def blocks(label):  # (d, D, k) of a batch of labels [a, b]
        d = _SU3.dim(*label).tolist()
        return d, [x * x for x in d], d

    @staticmethod
    def row_count(a: int, b_max: int) -> int:
        # exact sum of D over b <= b_max: d = m u (u + m) / 2 (m = a+1, u = b+1),
        # so it is m^2 (S4 + 2m S3 + m^2 S2) / 4 with S_k = sum of u^k, u <= n
        n, m = b_max + 1, a + 1
        s2 = n * (n + 1) * (2 * n + 1) // 6
        s3 = (n * (n + 1) // 2) ** 2
        s4 = s2 * (3 * n * n + 3 * n - 1) // 5
        return m * m * (s4 + 2 * m * s3 + m * m * s2) // 4

    def batches(self, geom: Geometry, weight_cutoff: float):
        windows = (([a, b], self.q(a, b))
                   for _, a, b in _lattice_windows(self, geom.lattice_cap(weight_cutoff)))
        yield from _lattice_batches(geom, windows, self.blocks)

    def count(self, geom: Geometry, weight_cutoff: float) -> int:
        return sum(self.row_count(a, b_max)
                   for a, b_max in _rows(self, geom.lattice_cap(weight_cutoff)))


class _File:
    """A file spectrum: SpectrumColumns read on each call, whose first rows
    are those the float64 threshold admits (Geometry.lambda_threshold)."""

    den, picture, cheap_count, tail = None, "manifold", True, None

    @staticmethod
    def _admitted(geom: Geometry, weight_cutoff: float) -> tuple["SpectrumColumns", int]:
        if geom.path is None:
            raise ConfigError("file geometry has no path")
        spec = _read_spectrum(geom.path)
        return spec, spec.admitted(geom.lambda_threshold(weight_cutoff))

    def shells(self, geom: Geometry, weight_cutoff: float):  # slices of the sorted columns
        spec, n = self._admitted(geom, weight_cutoff)
        for a in range(0, n, _CHUNK):
            b = min(a + _CHUNK, n)
            yield spec.eigenvalue[a:b], spec.eigenspace_dim[a:b].astype(np.float64)

    def batches(self, geom: Geometry, weight_cutoff: float):
        spec, n = self._admitted(geom, weight_cutoff)
        for s in range(0, n, _BATCH):
            rows = slice(s, min(s + _BATCH, n))
            d = spec.rep_dim[rows].tolist()
            yield _points(geom, [(t,) for t in spec.labels(rows)], d,
                          spec.eigenspace_dim[rows].tolist(), d, spec.eigenvalue[rows].tolist())

    def count(self, geom: Geometry, weight_cutoff: float) -> int:
        spec, n = self._admitted(geom, weight_cutoff)
        return sum(spec.eigenspace_dim[:n].tolist())


_CIRCLE = _RankOne(0, 1, sphere=1, picture="manifold")
_TORUS, _TORUS2 = _Torus(), _Torus2()


def _of_dim(dim: int, dual, geom: Geometry):
    """dual, once geom has its kind's one dim."""
    if geom.dim != dim:
        raise ConfigError("%s has dim %d, got %r" % (geom.describe(), dim, geom.dim))
    return dual


def _torus(geom: Geometry):
    if geom.rank < 1:
        raise ConfigError("torus rank must be >= 1")
    return _of_dim(geom.rank, {1: _CIRCLE, 2: _TORUS2}.get(geom.rank, _TORUS), geom)


def _sphere(geom: Geometry) -> _RankOne:
    if geom.rank < 2:
        raise ConfigError("sphere dimension must be >= 2")
    n = geom.rank
    return _of_dim(n, _RankOne(n - 1, 1, sphere=n, picture="homogeneous"), geom)


# The kind table, the one place a kind is told apart: each kind's entry
# checks the dim and rank a geometry of it can have and gives its dual
# object (Geometry.dual).  Tori and spheres have dim = rank; the groups
# have one dim and do not read rank.  su2 labels l = twice the weight.
_KINDS = {"torus": _torus, "sphere": _sphere, "file": lambda geom: _File(),
          "su2": partial(_of_dim, 3, _RankOne(2, 4)), "so3": partial(_of_dim, 3, _RankOne(1, 1)),
          "su3": partial(_of_dim, 8, _SU3())}


def _rows(rule, cap: int) -> Iterator[tuple[int, int]]:
    """Yield (a, b_max) for every row a holding a label with q <= cap."""
    a = 0
    while rule.q(a, 0) <= cap:
        yield a, rule.b_max(a, cap)
        a += 1


def _windows(floor: np.ndarray, start: np.ndarray, end, cap: int):
    """Yield (lo, row, x) int64 arrays, one window lo <= q <= hi at a time
    up to cap: the labels (row, x), rows in order and x ascending, of rows
    whose integer q rises with x.  floor, ascending, bounds each row's q
    from below; start holds each row's first x, then its next x (it is
    advanced in place); end(live, hi) gives the x past the last with
    q <= hi on the first live rows, those with floor <= hi.  A window's
    width is the last one's scaled to _CHUNK labels by the last one's
    count, at most doubled, so no window but the last depends on the cap.
    """
    x_next = start
    lo, width = 0, 1
    while lo <= cap:
        hi = min(lo + width - 1, cap)
        live = int(np.searchsorted(floor, hi, side="right"))
        x_end = end(live, hi)
        count = int((x_end - x_next[:live]).sum())
        yield (lo, *_ranges(x_next[:live], x_end))  # held by the consumer alone
        x_next[:live] = x_end
        width = min(2 * width, max(1, width * _CHUNK // max(count, 1)))
        lo = hi + 1


def _ranges(start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, x) int64 arrays listing x = start[row] .. end[row] - 1 for
    each row in turn."""
    count = end - start
    row = np.repeat(np.arange(count.size), count)
    return row, np.arange(row.size) + np.repeat(start - (np.cumsum(count) - count), count)


def _lattice_windows(rule, cap: int):
    """_windows over the labels (a, b), a, b >= 0, of a rank-two row rule:
    row a has floor q(a, 0) and ends at b_max(a, hi).  The label count is
    checked against _MAX_LATTICE_LABELS first, one isqrt per row."""
    n = a = 0
    for a, b_max in _rows(rule, cap):
        n += b_max + 1
        if n > _MAX_LATTICE_LABELS:
            raise SizeError("%s at this cutoff has more than %d labels (a, b) "
                            "with a, b >= 0; lower the cutoff" % (rule.name, _MAX_LATTICE_LABELS))
    a = np.arange(a + 1, dtype=np.int64)
    return _windows(rule.q(a, 0), np.zeros_like(a),
                    lambda live, hi: rule.b_max(a[:live], hi) + 1, cap)


def _torus_windows(n: int, cap: int) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
    """(cols, q) for the k in Z^n with q = |k|^2 <= cap, one window of
    _windows at a time: cols are the int64 columns k_1 .. k_n, unordered
    within a window.  The prefixes (k_1 .. k_{n-1}) of the ball are built
    once, sorted by q, and prefix i is two rows of x = |k_n| with its q as
    floor: row 2i has k_n = x from x = 0, row 2i + 1 has k_n = -x from 1.
    """
    count_bound = (2 * math.isqrt(cap) + 1) ** n
    if count_bound > _MAX_MATERIALIZED_POINTS:
        raise SizeError("torus:%d enumeration at this cutoff would enumerate ~%s points (cap "
                        "%d); lower the cutoff" % (n, count_text(count_bound),
                                                   _MAX_MATERIALIZED_POINTS))
    # the ball, not the cube: extend each row (k_1..k_i, q) by every k_{i+1}
    # with q + k_{i+1}^2 <= cap, one axis at a time, stopping one axis short
    cols, q0 = [], np.zeros(1, dtype=np.int64)
    for _ in range(n - 1):
        r = _isqrt(cap - q0)
        rows, k = _ranges(-r, r + 1)
        cols = [c[rows] for c in cols] + [k]
        q0 = q0[rows] + k * k
    by_q = np.argsort(q0, kind="stable")
    cols, floor = [c[by_q] for c in cols], np.repeat(q0[by_q], 2)
    windows = _windows(floor, np.arange(floor.size) % 2,
                       lambda live, hi: _isqrt(hi - floor[:live]) + 1, cap)
    for _, row, x in windows:
        q = floor[row]
        q += x * x
        x[row % 2 == 1] *= -1
        row >>= 1  # the prefix
        window = [c[row] for c in cols] + [x]
        del row, x  # only the window outlives the yield
        yield window, q


def enumerate_dual(geom: Geometry, weight_cutoff: float) -> Iterator[DualPoint]:
    """Yield every dual point with weight <= weight_cutoff.

    Points come out sorted by (eigenvalue, label); within an eigenvalue the
    label order is lexicographic (by label text on file spectra).  This is
    the canonical enumeration order all summation paths share.
    """
    yield from chain.from_iterable(geom.dual.batches(geom, weight_cutoff))


def _lattice_batches(geom: Geometry, windows, blocks) -> Iterator[list[DualPoint]]:
    """The DualPoints of a lattice stream, _BATCH at a time: windows yields
    (cols, q), the int64 label columns and q = den * lambda of a window,
    which is sorted by (q, label); blocks(cols) gives a batch's (d, D, k)."""
    den = geom.dual.den
    for cols, q in windows:
        order = np.lexsort(cols[::-1] + [q])
        for s in range(0, order.size, _BATCH):
            rows = order[s:s + _BATCH]
            label = [c[rows] for c in cols]
            yield _points(geom, list(zip(*(c.tolist() for c in label))), *blocks(label),
                          (q[rows] / den).tolist())


def counting_function(geom: Geometry, weight_cutoff: float) -> int:
    """Number of eigenvalues (with multiplicity D) of weight <= cutoff.

    Exact integer arithmetic; equals the sum of eigenspace_dim over
    enumerate_dual at the same cutoff.  Built-in kinds read the cutoff
    exactly (lattice_cap), file spectra through their float64 threshold.
    """
    return geom.dual.count(geom, weight_cutoff)


def _count_torus(n: int, cap: int) -> int:
    """Number of k in Z^n with |k|^2 <= cap.  The recursion meets the same
    (rank, cap) pairs many times, so each is counted once per call."""
    @cache
    def count(n: int, cap: int) -> int:
        m = math.isqrt(cap)
        if n == 1:
            return 2 * m + 1
        return count(n - 1, cap) + 2 * sum(count(n - 1, cap - x * x) for x in range(1, m + 1))
    return count(n, cap)


# ---------------------------------------------------------------------------
# Radial shell streams: (lambda ascending, summed D per shell) in float64.
# This is the bulk interface the summation engine consumes for scalar radial
# symbols, each kind's shells method.  The closed-form kinds (_RankOne:
# torus:1 and rank one) hand out _CHUNK shells per chunk from the first one
# on, up to _MAX_STREAMED_LABELS labels, each chunk computed into the same
# arrays (_reused); torus:2 and su3 (_Rows) the occupied shells of one
# window of about _CHUNK labels (a, b) per chunk (_windows); higher tori
# _CHUNK enumerated points per chunk and file spectra _CHUNK rows of their
# sorted columns, one entry per point, so an
# eigenvalue repeats and may straddle two chunks (the fold reads ties
# whole).  Chunk boundaries are fixed functions of the geometry, so
# repeated runs and longer cutoffs reproduce sums bit-for-bit.
# ---------------------------------------------------------------------------

def radial_shells(geom: Geometry, weight_cutoff: float):
    """Yield (lam, dsum) float64 array chunks, ascending in lam across chunks.

    An entry is a shell (the dual points of one eigenvalue, dsum the sum of
    their D), but a single point on higher tori and file spectra, where
    eigenvalues repeat.  dsum is exact in float64 up to 2**53 (su3 rounds
    each D = d^2 above that, and the fold's counts past 2**53 stay within a
    few ulp of counting_function).  A chunk is valid until the next one is
    drawn: the stream may compute the next chunk into the same arrays, so a
    caller that keeps chunks copies them.
    """
    yield from geom.dual.shells(geom, weight_cutoff)


def _label_chunks(geom: Geometry, n: int) -> Iterator[np.ndarray]:
    """The labels 0 .. n - 1 of a closed-form stream as float64 arrays,
    _CHUNK at a time, each one array advanced in place, so valid until the
    next; SizeError above _MAX_STREAMED_LABELS first."""
    if n > _MAX_STREAMED_LABELS:
        raise SizeError("%s shell stream at this cutoff has %s labels, above the cap "
                        "of %d; lower the cutoff" % (geom.describe(), count_text(n),
                                                     _MAX_STREAMED_LABELS))
    labels = np.arange(min(n, _CHUNK), dtype=np.float64)
    for a in range(0, n, _CHUNK):
        if a:
            labels += _CHUNK  # exact: integers below 2**53
        yield labels[:n - a]


def _reused(held: list, n: int, *dtypes) -> list:
    """n-element views of one array per dtype, kept in held and allocated
    again only when a chunk longer than every earlier one asks for them."""
    if not held or len(held[0]) < n:
        held[:] = [np.empty(n, dtype=t) for t in dtypes]
    return [a[:n] for a in held]


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


def _records(path: str, what: str) -> Iterator[tuple[int, str, list[str]]]:
    """(lineno, line, fields) for each data line of a UTF-8 text file, line
    being the raw text.  Every input file is read here: blank lines and
    lines whose first field starts with `#` are skipped, a file that cannot
    be opened raises ConfigError naming it as `what`, and more than
    _MAX_MATERIALIZED_POINTS data lines raise SizeError before the next one
    is handed out."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError("cannot read %s %s: %s" % (what, path, exc)) from None
    with fh:
        count = 0
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields or fields[0][0] == "#":
                continue
            count += 1
            if count > _MAX_MATERIALIZED_POINTS:
                raise SizeError("%s has more than %d data rows, the cap on points held "
                                "at once" % (path, _MAX_MATERIALIZED_POINTS))
            yield lineno, line, fields


def _read_spectrum(path: str) -> SpectrumColumns:
    """Read `label d D lambda` records (_records) into flat columns, one
    line at a time, and sort them once by (lambda, label text).
    With no class-one data, k = d (the mask is the identity) and the block
    is held D/d times, so a D that d does not divide is refused, and so is
    a D of 2**63 or more.  Held: 40 bytes a row plus the label text.
    """
    text, offset = bytearray(), array("q", [0])
    d_col, dd_col, lam_col = array("q"), array("q"), array("d")
    for lineno, raw, parts in _records(path, "spectrum file"):
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
