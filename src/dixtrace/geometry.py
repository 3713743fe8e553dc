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
             record per line.

enumerate_dual, counting_function and radial_shells read each kind's
formulas from one place (_RankOne, _su3 and _su3_rows for the built-ins).

The weight of a point is w = (1+lambda)^(1/nu).  All cutoffs N act through
the equivalent rule lambda <= N^nu - 1, evaluated once in float64, so that
boundary ties are included the same way on every code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, SizeError, SpectrumFormatError

_BUILTIN_KINDS = ("torus", "su2", "so3", "su3", "sphere", "file")

# Guard for paths that must materialize every dual point at once.
_MAX_MATERIALIZED_POINTS = 50_000_000
# Guard for the torus:2 eigenvalue histogram (N_max^2 float64 entries).
_MAX_TORUS2_CUTOFF = 12_000.0

# Shells (or boundary labels) per streamed chunk, one length for every
# chunked stream; fixed so summation is reproducible.  The fold sums each
# chunk pairwise, so its length is picked for speed alone: 2^14 float64
# values (128 kB) stay in cache, and longer chunks spill out of it.
_CHUNK = 1 << 14


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
        """Largest admissible eigenvalue for weight cutoff N: N^nu - 1."""
        if weight_cutoff < 1.0:
            raise ConfigError("weight cutoff must be >= 1, got %r" % (weight_cutoff,))
        return float(weight_cutoff) ** self.nu - 1.0

    def block_rule(self, picture: str) -> tuple[bool, bool]:
        """Mask and multiplicity of symbol blocks: (masked, lifted).

        masked: blocks keep only their top-left class_one_dim block, in the
        homogeneous picture and always on spheres.  lifted: the operator
        holds rep_dim copies of each d x d block (the Peter-Weyl lift on
        tori, groups and spheres); a file spectrum holds each block once.
        On every lifted kind rep_dim * class_one_dim == eigenspace_dim, so
        a masked scalar f contributes D |f| per point.
        """
        masked = picture == "homogeneous" or self.kind == "sphere"
        return masked, self.kind != "file"

    def describe(self) -> str:
        if self.kind == "torus":
            return "torus:%d" % self.rank
        if self.kind == "sphere":
            return "sphere:%d" % self.rank
        if self.kind == "file":
            return "file:%s" % self.path
        return self.kind


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


@dataclass(frozen=True)
class DualPoint:
    """One point of the dual: label, block size d, counting weight D,
    class-one dimension k, eigenvalue and weight."""

    label: tuple
    rep_dim: int
    eigenspace_dim: int
    class_one_dim: int
    eigenvalue: float
    weight: float


def _mk_point(geom: Geometry, label, d: int, D: int, k: int, lam: float) -> DualPoint:
    w = (1.0 + lam) ** (1.0 / geom.nu)
    return DualPoint(label=label, rep_dim=d, eigenspace_dim=D, class_one_dim=k,
                     eigenvalue=lam, weight=w)


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

    def label_max(self, threshold: float) -> int:
        # l(l+c) <= den*t  <=>  (2l+c)^2 <= 4*den*t + c^2; den is a power of
        # two, so 4*den*t is exact in float64
        return (math.isqrt(int(4 * self.den * threshold) + self.c ** 2) - self.c) // 2

    def point(self, l):
        """(lambda, d, k) of label l, an int or a float64 array of labels."""
        lam = l * (l + self.c) / self.den
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


def _su3(a, b):
    """q = 9*lambda and block size d of the su3 label (a, b); ints or arrays."""
    return a * a + b * b + a * b + 3 * a + 3 * b, (a + 1) * (b + 1) * (a + b + 2) // 2


def _su3_rows(threshold: float) -> Iterator[tuple[int, int]]:
    """Yield (a, b_max) rows with q(a,b) <= 9*threshold."""
    q_cap = int(9.0 * threshold)
    a = 0
    while a * a + 3 * a <= q_cap:
        # b^2 + (a+3) b + (a^2 + 3a - q_cap) <= 0
        disc = (a + 3) * (a + 3) - 4 * (a * a + 3 * a - q_cap)
        yield a, (math.isqrt(disc) - (a + 3)) // 2
        a += 1


def _su3_sorted(threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and D = d^2 of all su3 labels, stably sorted by q."""
    qd = [_su3(a, np.arange(b_max + 1, dtype=np.int64)) for a, b_max in _su3_rows(threshold)]
    q = np.concatenate([x[0] for x in qd])
    d = np.concatenate([x[1] for x in qd]).astype(np.float64)
    del qd  # the row arrays would double the peak memory
    d *= d
    order = np.argsort(q, kind="stable")
    return q[order] / 9.0, d[order]


def enumerate_dual(geom: Geometry, weight_cutoff: float) -> Iterator[DualPoint]:
    """Yield every dual point with weight <= weight_cutoff.

    Points come out sorted by (eigenvalue, label); within an eigenvalue the
    label order is lexicographic.  This is the canonical enumeration order
    all summation paths share.
    """
    t = geom.lambda_threshold(weight_cutoff)
    if geom.kind == "torus":
        yield from _enumerate_torus(geom, t)
    elif geom.kind == "su3":
        pts = []
        for a, b_max in _su3_rows(t):
            for b in range(b_max + 1):
                q, d = _su3(a, b)
                pts.append((q, (a, b), d))
        pts.sort()
        for q, label, d in pts:
            yield _mk_point(geom, label, d, d * d, d, q / 9.0)
    elif geom.kind == "file":
        for row in _load_spectrum(geom):
            if row.eigenvalue <= t:
                yield row
    else:  # rank one: su2, so3, sphere
        r = _rank_one(geom)
        for l in range(r.label_max(t) + 1):
            lam, d, k = r.point(l)
            yield _mk_point(geom, (l,), d, d * k, k, lam)


def _enumerate_torus(geom: Geometry, t: float) -> Iterator[DualPoint]:
    n = geom.rank
    m = math.isqrt(int(t))
    if n == 1:
        yield _mk_point(geom, (0,), 1, 1, 1, 0.0)
        for r in range(1, m + 1):
            lam = float(r * r)
            yield _mk_point(geom, (-r,), 1, 1, 1, lam)
            yield _mk_point(geom, (r,), 1, 1, 1, lam)
        return
    count_bound = (2 * m + 1) ** n
    if count_bound > _MAX_MATERIALIZED_POINTS:
        raise SizeError(
            "torus:%d enumeration at this cutoff would materialize ~%d points "
            "(cap %d); use the radial summation path instead"
            % (n, count_bound, _MAX_MATERIALIZED_POINTS))
    axes = [np.arange(-m, m + 1, dtype=np.int64)] * n
    grid = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([g.ravel() for g in grid], axis=1)
    lam = np.sum(coords.astype(np.float64) ** 2, axis=1)
    keep = lam <= t
    coords, lam = coords[keep], lam[keep]
    order = np.lexsort(tuple(coords[:, i] for i in range(n - 1, -1, -1)) + (lam,))
    for i in order:
        yield _mk_point(geom, tuple(int(c) for c in coords[i]), 1, 1, 1, float(lam[i]))


def counting_function(geom: Geometry, weight_cutoff: float) -> int:
    """Number of eigenvalues (with multiplicity D) of weight <= cutoff.

    Exact integer arithmetic; equals the sum of eigenspace_dim over
    enumerate_dual at the same cutoff.
    """
    t = geom.lambda_threshold(weight_cutoff)
    if geom.kind == "torus":
        return _count_torus(geom.rank, int(t))
    if geom.kind == "su3":
        return sum(_su3(a, b)[1] ** 2 for a, b_max in _su3_rows(t)
                   for b in range(b_max + 1))
    if geom.kind == "file":
        return sum(p.eigenspace_dim for p in _load_spectrum(geom) if p.eigenvalue <= t)
    r = _rank_one(geom)
    return r.count(r.label_max(t))


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
# symbols; chunks hold _CHUNK shells from the first one on (the grouped
# kinds come as one chunk), so their boundaries are fixed functions of the
# geometry and repeated runs reproduce sums bit-for-bit.
# ---------------------------------------------------------------------------

def radial_shells(geom: Geometry, weight_cutoff: float):
    """Yield (lam, dsum) float64 array chunks, ascending in lam across chunks.

    Each shell groups all dual points of one eigenvalue; dsum is the exact
    sum of their eigenspace dimensions (exact in float64 up to 2**53; the
    fold's counts past 2**53 stay within a few ulp of counting_function).
    """
    t = geom.lambda_threshold(weight_cutoff)
    if geom.kind == "torus" and geom.rank == 1:
        m = math.isqrt(int(t))
        for a in range(0, m + 1, _CHUNK):
            b = min(a + _CHUNK, m + 1)
            r = np.arange(a, b, dtype=np.float64)
            dsum = np.full(b - a, 2.0)
            if a == 0:
                dsum[0] = 1.0
            yield r * r, dsum
    elif geom.kind == "torus" and geom.rank == 2:
        yield from _torus2_shells(t)
    elif geom.kind == "su3":
        yield from _group_sorted(*_su3_sorted(t))
    elif geom.kind in ("torus", "file"):
        # torus rank >= 3 and file spectra: group the enumerated points
        pts = list(enumerate_dual(geom, weight_cutoff))
        yield from _group_sorted(np.array([p.eigenvalue for p in pts]),
                                 np.array([float(p.eigenspace_dim) for p in pts]))
    else:  # rank one: su2, so3, sphere
        r = _rank_one(geom)
        lmax = r.label_max(t)
        for a in range(0, lmax + 1, _CHUNK):
            lam, d, k = r.point(np.arange(a, min(a + _CHUNK, lmax + 1), dtype=np.float64))
            yield lam, d * k


def _group_sorted(lam: np.ndarray, dsum: np.ndarray):
    if lam.size == 0:
        return
    ulam, start = np.unique(lam, return_index=True)
    yield ulam, np.add.reduceat(dsum, start)


def _torus2_shells(t: float):
    if t + 1.0 > _MAX_TORUS2_CUTOFF ** 2:
        raise SizeError(
            "torus:2 radial path holds an eigenvalue histogram of size N^2; "
            "cutoff %g exceeds the supported N <= %g" % (math.sqrt(t + 1.0), _MAX_TORUS2_CUTOFF))
    cap = int(t)
    m = math.isqrt(cap)
    hist = np.zeros(cap + 1)
    for k1 in range(m + 1):
        rem = cap - k1 * k1
        m2 = math.isqrt(rem)
        k2 = np.arange(0, m2 + 1, dtype=np.int64)
        w = np.full(m2 + 1, 2.0 if k1 else 1.0)
        w[1:] *= 2.0
        # indices k1^2 + k2^2 are distinct within a row, so += vectorizes safely
        hist[k1 * k1 + k2 * k2] += w
    for a in range(0, cap + 1, _CHUNK):
        b = min(a + _CHUNK, cap + 1)
        yield np.arange(a, b, dtype=np.float64), hist[a:b]


# ---------------------------------------------------------------------------
# Spectrum files
# ---------------------------------------------------------------------------

def _load_spectrum(geom: Geometry) -> list[DualPoint]:
    if geom.path is None:
        raise ConfigError("file geometry has no path")
    return load_spectrum_file(geom.path, nu=geom.nu)


def load_spectrum_file(path: str, nu: float = 2.0) -> list[DualPoint]:
    """Read `label d D lambda` records, sorted by (lambda, label)."""
    rows = []
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
            if not math.isfinite(lam) or lam < 0:
                raise SpectrumFormatError(
                    "%s:%d: eigenvalue must be finite and >= 0" % (path, lineno))
            w = (1.0 + lam) ** (1.0 / nu)
            rows.append(DualPoint(label=(label,), rep_dim=d, eigenspace_dim=dd,
                                  class_one_dim=1, eigenvalue=lam, weight=w))
    rows.sort(key=lambda p: (p.eigenvalue, p.label))
    return rows


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
