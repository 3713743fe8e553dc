"""Model geometries and their dual enumerations.

A geometry bundles the data needed to enumerate the dual of a model manifold:
the manifold dimension kappa, the order nu of the generating positive
operator, and the rule attaching to every dual point a label, a matrix size d
(the block the symbol is evaluated on), an eigenspace dimension D (the point's
weight in eigenvalue counting) and a Laplace eigenvalue lambda.

Built-in kinds:

  torus:n    flat n-torus; labels are integer vectors, d = 1, D = 1,
             lambda = |xi|^2.
  su2        labels store n = 2l (half-integer highest weight l), d = n+1,
             D = d^2, lambda = n(n+2)/4 = l(l+1).
  so3        integer l only, d = 2l+1, D = d^2, lambda = l(l+1).
  su3        labels (a, b), d = (a+1)(b+1)(a+b+2)/2, D = d^2,
             lambda = (a^2+b^2+ab+3a+3b)/9.
  sphere:n   round n-sphere as a rank-one space; labels l, d = dim of the
             degree-l spherical harmonics, class-one dimension k = 1,
             D = d, lambda = l(l+n-1).
  file:PATH  arbitrary spectrum from a text file, one `label d D lambda`
             record per line.

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

_CHUNK = 1 << 21  # shells per streamed chunk; fixed so summation is reproducible


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


def _su2_label_max(threshold: float) -> int:
    # n(n+2) <= 4*threshold  <=>  (n+1)^2 <= 4*threshold + 1
    if threshold < 0:
        return -1
    return math.isqrt(int(4.0 * threshold) + 1) - 1


def _quadratic_label_max(threshold: float, c: int) -> int:
    # l(l+c) <= threshold  <=>  (2l+c)^2 <= 4*threshold + c^2
    if threshold < 0:
        return -1
    return (math.isqrt(int(4.0 * threshold) + c * c) - c) // 2


def _su3_rows(threshold: float) -> Iterator[tuple[int, int]]:
    """Yield (a, b_max) rows with q(a,b) = a^2+b^2+ab+3a+3b <= 9*threshold."""
    if threshold < 0:
        return
    q_cap = int(9.0 * threshold)
    a = 0
    while a * a + 3 * a <= q_cap:
        # b^2 + (a+3) b + (a^2 + 3a - q_cap) <= 0
        disc = (a + 3) * (a + 3) - 4 * (a * a + 3 * a - q_cap)
        b_max = (math.isqrt(disc) - (a + 3)) // 2
        if b_max >= 0:
            yield a, b_max
        a += 1


def _torus_k2_bounds(rem: np.ndarray) -> np.ndarray:
    """floor(sqrt(rem)) for an int64 array with exact integer correction."""
    out = np.floor(np.sqrt(np.maximum(rem, 0).astype(np.float64))).astype(np.int64)
    out = np.where((out + 1) * (out + 1) <= rem, out + 1, out)
    out = np.where(out * out > rem, out - 1, out)
    out[rem < 0] = -1
    return out


def enumerate_dual(geom: Geometry, weight_cutoff: float) -> Iterator[DualPoint]:
    """Yield every dual point with weight <= weight_cutoff.

    Points come out sorted by (eigenvalue, label); within an eigenvalue the
    label order is lexicographic.  This is the canonical enumeration order
    all summation paths share.
    """
    t = geom.lambda_threshold(weight_cutoff)
    if geom.kind == "torus":
        yield from _enumerate_torus(geom, t)
    elif geom.kind == "su2":
        for n in range(_su2_label_max(t) + 1):
            d = n + 1
            yield _mk_point(geom, (n,), d, d * d, d, n * (n + 2) / 4.0)
    elif geom.kind == "so3":
        for l in range(_quadratic_label_max(t, 1) + 1):
            d = 2 * l + 1
            yield _mk_point(geom, (l,), d, d * d, d, float(l * (l + 1)))
    elif geom.kind == "su3":
        pts = []
        for a, b_max in _su3_rows(t):
            for b in range(b_max + 1):
                q = a * a + b * b + a * b + 3 * a + 3 * b
                d = (a + 1) * (b + 1) * (a + b + 2) // 2
                pts.append((q, (a, b), d))
        pts.sort()
        for q, label, d in pts:
            yield _mk_point(geom, label, d, d * d, d, q / 9.0)
    elif geom.kind == "sphere":
        n = geom.rank
        for l in range(_quadratic_label_max(t, n - 1) + 1):
            d = sphere_harmonic_dim(n, l)
            yield _mk_point(geom, (l,), d, d, 1, float(l * (l + n - 1)))
    elif geom.kind == "file":
        for row in _load_spectrum(geom):
            if row.eigenvalue <= t:
                yield row


def _enumerate_torus(geom: Geometry, t: float) -> Iterator[DualPoint]:
    n = geom.rank
    if t < 0:
        return
    if n == 1:
        m = math.isqrt(int(t))
        yield _mk_point(geom, (0,), 1, 1, 1, 0.0)
        for r in range(1, m + 1):
            lam = float(r * r)
            yield _mk_point(geom, (-r,), 1, 1, 1, lam)
            yield _mk_point(geom, (r,), 1, 1, 1, lam)
        return
    m = math.isqrt(int(t))
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
    if t < 0:
        return 0
    if geom.kind == "torus":
        return _count_torus(geom.rank, t)
    if geom.kind == "su2":
        nmax = _su2_label_max(t)
        m = nmax + 1
        return m * (m + 1) * (2 * m + 1) // 6
    if geom.kind == "so3":
        lmax = _quadratic_label_max(t, 1)
        return (lmax + 1) * (2 * lmax + 1) * (2 * lmax + 3) // 3
    if geom.kind == "su3":
        total = 0
        for a, b_max in _su3_rows(t):
            for b in range(b_max + 1):
                d = (a + 1) * (b + 1) * (a + b + 2) // 2
                total += d * d
        return total
    if geom.kind == "sphere":
        n = geom.rank
        lmax = _quadratic_label_max(t, n - 1)
        return sum(sphere_harmonic_dim(n, l) for l in range(lmax + 1))
    if geom.kind == "file":
        return sum(p.eigenspace_dim for p in _load_spectrum(geom) if p.eigenvalue <= t)
    raise ConfigError("unsupported geometry kind: %r" % (geom.kind,))


def _count_torus(n: int, t: float) -> int:
    m = math.isqrt(int(t))
    if n == 1:
        return 2 * m + 1
    if n == 2:
        k1 = np.arange(0, m + 1, dtype=np.int64)
        rem = np.int64(int(t)) - k1 * k1
        k2 = _torus_k2_bounds(rem)
        w1 = np.where(k1 == 0, 1, 2).astype(np.int64)
        per_row = np.where(k2 >= 0, 2 * k2 + 1, 0)
        return int(np.sum(w1 * per_row))
    # small ranks: recurse over the first coordinate
    total = 0
    for x in range(-m, m + 1):
        rem = t - float(x * x)
        if rem >= 0:
            total += _count_torus(n - 1, rem)
    return total


# ---------------------------------------------------------------------------
# Radial shell streams: (lambda ascending, summed D per shell) in float64.
# This is the bulk interface the summation engine consumes for scalar radial
# symbols; chunk boundaries are fixed functions of the geometry and cutoff so
# repeated runs reproduce sums bit-for-bit.
# ---------------------------------------------------------------------------

def radial_shells(geom: Geometry, weight_cutoff: float):
    """Yield (lam, dsum) float64 array chunks, ascending in lam across chunks.

    Each shell groups all dual points of one eigenvalue; dsum is the exact
    sum of their eigenspace dimensions (exact in float64 up to 2**53).
    """
    t = geom.lambda_threshold(weight_cutoff)
    if t < 0:
        return
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
    elif geom.kind == "torus":
        geom_pts = list(enumerate_dual(geom, weight_cutoff))
        lam = np.array([p.eigenvalue for p in geom_pts])
        dd = np.array([float(p.eigenspace_dim) for p in geom_pts])
        yield from _group_sorted(lam, dd)
    elif geom.kind in ("su2", "so3", "sphere"):
        yield from _rank_one_shells(geom, t)
    elif geom.kind == "su3":
        rows = list(_su3_rows(t))
        if not rows:
            return
        qs, ds = [], []
        for a, b_max in rows:
            b = np.arange(0, b_max + 1, dtype=np.int64)
            qs.append(a * a + b * b + a * b + 3 * a + 3 * b)
            ds.append((a + 1) * (b + 1) * (a + b + 2) // 2)
        q = np.concatenate(qs)
        d = np.concatenate(ds).astype(np.float64)
        order = np.argsort(q, kind="stable")
        q, d = q[order], d[order]
        uq, start = np.unique(q, return_index=True)
        dsum = np.add.reduceat(d * d, start)
        yield uq.astype(np.float64) / 9.0, dsum
    elif geom.kind == "file":
        pts = [p for p in _load_spectrum(geom) if p.eigenvalue <= t]
        lam = np.array([p.eigenvalue for p in pts])
        dd = np.array([float(p.eigenspace_dim) for p in pts])
        yield from _group_sorted(lam, dd)


def _group_sorted(lam: np.ndarray, dsum: np.ndarray):
    if lam.size == 0:
        return
    ulam, start = np.unique(lam, return_index=True)
    yield ulam, np.add.reduceat(dsum, start)


def _rank_one_shells(geom: Geometry, t: float):
    if geom.kind == "su2":
        lmax = _su2_label_max(t)
    else:
        c = 1 if geom.kind == "so3" else geom.rank - 1
        lmax = _quadratic_label_max(t, c)
    for a in range(0, lmax + 1, _CHUNK):
        b = min(a + _CHUNK, lmax + 1)
        l = np.arange(a, b, dtype=np.float64)
        if geom.kind == "su2":
            lam = l * (l + 2.0) / 4.0
            dsum = (l + 1.0) ** 2
        elif geom.kind == "so3":
            lam = l * (l + 1.0)
            dsum = (2.0 * l + 1.0) ** 2
        else:
            n = geom.rank
            lam = l * (l + n - 1.0)
            # harmonic dimensions via the binomial formula, vectorized
            dsum = np.array([float(sphere_harmonic_dim(n, int(x))) for x in l])
        yield lam, dsum


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
