"""Partial sums of symbol traces over dual enumerations.

The central object is a PartialSumSeries: cutoffs N_k on a geometric grid,
the partial sums S(N_k) = sum of |trace| contributions over dual points of
weight <= N_k, and the eigenvalue counts at the same cutoffs.

Two evaluation strategies produce series:

  * a radial bulk path for specs built from radial scalars, Scaled,
    SymbolSum and (on lifted kinds, all but file:) ClassOneMask, streaming
    (eigenvalue, total multiplicity) shell chunks from the geometry and
    evaluating the scalar vectorized;
  * a per-point object path for everything else (tables, masks on file
    spectra), wrapping the spec in ClassOneMask where the picture masks
    blocks and evaluating one symbol block per point, in order.

Both share one accumulation contract so results are reproducible bit for
bit: pairwise sums of chunk prefixes, with one chunk length.  Terms come
in ascending eigenvalue order in fixed chunks: geometry._CHUNK shells or
labels on the torus:1, rank-one and boundary streams, the occupied shells
of a window of geometry._CHUNK values of q = den * lambda on torus:2 and
su3, and geometry._CHUNK points of enumerate_dual wherever dual points are
enumerated (the per-point path, higher tori, file spectra).  The fold
owns ties: a run of equal eigenvalues may straddle chunks, and a
threshold is read only once a chunk's last key lies strictly above it.
Its snapshot is the Neumaier-compensated carry of the chunk totals before
that chunk plus the pairwise sum (np.sum) of the chunk's prefix the
threshold admits.  No cumulative sum is formed, so the in-chunk error
grows like log of the chunk length, not like the length.  Chunk
boundaries depend only on the geometry, never on the grid, so extending
the grid reproduces every earlier snapshot exactly.

Cutoffs act through the eigenvalue threshold lambda <= N^nu - 1 (ties
included), read exactly on every built-in kind (Geometry.lambda_threshold).
Counts are kept in float64 and fold the same way; they are exact integers
up to 2**53 and beyond that (huge SU(2)/SU(3) grids) stay within a few ulp
of counting_function, which is exact.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, ContractError, FitError, SpectrumFormatError
from .geometry import Geometry, _row_chunks, enumerate_dual, label_text, radial_shells
from .symbol import ClassOneMask, RadialWeight, SymbolSpec, eval_symbol, \
    is_radial_scalar, nuclear_trace_abs, scalar_values

PICTURES = ("manifold", "group", "homogeneous", "boundary-index")

SCHEMA_VERSION = 1


def dyadic_grid(n_max: float, points_per_octave: int = 4) -> np.ndarray:
    """Geometric cutoff grid from 2 to n_max, last point exactly n_max."""
    if not 4 <= n_max < math.inf:
        raise ConfigError("grid n_max must be finite and >= 4, got %r" % (n_max,))
    if points_per_octave < 1:
        raise ConfigError("points_per_octave must be >= 1")
    n_max = float(n_max)
    vals = []
    k = 0
    while True:
        v = 2.0 ** (1.0 + k / points_per_octave)
        if v >= n_max:
            break
        vals.append(v)
        k += 1
    vals.append(n_max)
    return np.array(vals)


def check_grid(grid) -> np.ndarray:
    """The cutoff grid as float64: nonempty, increasing, 1-d, from 2 up."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or len(grid) == 0 or np.any(np.diff(grid) <= 0):
        raise ConfigError("grid must be a nonempty increasing 1-d array")
    if grid[0] < 2.0:
        raise ConfigError("grid cutoffs must start at 2 or above")
    return grid


@dataclass
class PartialSumSeries:
    """Cutoff grid with partial sums and eigenvalue counts.

    dim is the manifold dimension kappa used in log-normalizations; picture
    records which summation formula produced the sums.
    """

    cutoffs: np.ndarray
    sums: np.ndarray
    counts: np.ndarray
    dim: int
    picture: str

    def __post_init__(self):
        if self.picture not in PICTURES:
            raise ConfigError("unknown picture %r" % (self.picture,))
        if not (len(self.cutoffs) == len(self.sums) == len(self.counts)):
            raise ConfigError("series arrays must have equal length")

    def __len__(self) -> int:
        return len(self.cutoffs)

    def normalized(self) -> np.ndarray:
        """f_k = S(N_k) / (kappa * log N_k), the quantity extrapolated."""
        return self.sums / (self.dim * np.log(self.cutoffs))

    def to_csv(self, path: str, extra_f: bool = False) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["cutoff", "count", "sum", "f"] if extra_f
                       else ["cutoff", "count", "sum"])
            f = self.normalized() if extra_f else None
            for i in range(len(self)):
                row = [format(self.cutoffs[i], ".17g"),
                       _format_count(self.counts[i]),
                       format(self.sums[i], ".17g")]
                if extra_f:
                    row.append(format(f[i], ".17g"))
                w.writerow(row)

    @staticmethod
    def from_csv(path: str, dim: int = 1, picture: str = "manifold") -> "PartialSumSeries":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SpectrumFormatError("%s: empty series file" % path) from None
            if [h.strip() for h in header[:3]] != ["cutoff", "count", "sum"]:
                raise SpectrumFormatError("%s: expected header cutoff,count,sum" % path)
            cutoffs, counts, sums = [], [], []
            for row in reader:
                if not row:
                    continue
                cutoffs.append(float(row[0]))
                counts.append(float(row[1]))
                sums.append(float(row[2]))
        return PartialSumSeries(np.array(cutoffs), np.array(sums),
                                np.array(counts), dim=dim, picture=picture)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "picture": self.picture,
            "dim": self.dim,
            "cutoffs": [float(x) for x in self.cutoffs],
            "counts": [float(x) for x in self.counts],
            "sums": [float(x) for x in self.sums],
        }

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @staticmethod
    def from_json(path: str) -> "PartialSumSeries":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return PartialSumSeries(np.array(doc["cutoffs"], dtype=np.float64),
                                np.array(doc["sums"], dtype=np.float64),
                                np.array(doc["counts"], dtype=np.float64),
                                dim=int(doc["dim"]), picture=doc["picture"])


def _format_count(c: float) -> str:
    if c == math.floor(c) and abs(c) < 2.0 ** 53:
        return str(int(c))
    return format(c, ".17g")


class _Carry:
    """Neumaier (Kahan-Babuska) compensated accumulator for chunk totals."""

    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, x: float) -> None:
        t = self.total + x
        if abs(self.total) >= abs(x):
            self.comp += (self.total - t) + x
        else:
            self.comp += (x - t) + self.total
        self.total = t

    def value(self) -> float:
        return self.total + self.comp


def _stream_snapshots(chunks: Iterable[tuple], thresholds: np.ndarray):
    """Fold (lam, contrib, dsum) chunks, lam ascending, into snapshot sums/counts.

    A chunk's totals are pairwise sums (np.sum) folded into a Neumaier
    carry.  A threshold is read once a chunk's last key lies strictly above
    it, so a run of equal keys counts whole even where it straddles chunks:
    the carry before the chunk plus the pairwise sum of the chunk's prefix
    the threshold admits, or, below the chunk's first key, the snapshot at
    the end of the chunk before.  Each prefix depends only on the chunk and
    the prefix length, so values never depend on how far the stream
    continues afterwards, nor on where between two keys the threshold falls.
    """
    k_total = len(thresholds)
    sums = np.zeros(k_total)
    counts = np.zeros(k_total)
    carry_s = _Carry()
    carry_c = _Carry()
    ptr = 0
    last = (0.0, 0.0)  # the snapshot at the end of the stream so far
    for lam, contrib, dsum in chunks:
        if lam.size == 0:
            continue
        while ptr < k_total and thresholds[ptr] < lam[-1]:
            n = int(np.searchsorted(lam, thresholds[ptr], side="right"))
            if n:
                sums[ptr] = carry_s.value() + float(np.sum(contrib[:n]))
                counts[ptr] = carry_c.value() + float(np.sum(dsum[:n]))
            else:  # below this chunk's first key: the end of the chunk before
                sums[ptr], counts[ptr] = last
            ptr += 1
        total_s = float(np.sum(contrib))
        total_c = float(np.sum(dsum))
        last = (carry_s.value() + total_s, carry_c.value() + total_c)
        carry_s.add(total_s)
        carry_c.add(total_c)
    # thresholds at or past the last key read the end of the stream, as the
    # end of that chunk would on a longer stream
    sums[ptr:], counts[ptr:] = last
    return sums, counts


def default_picture(geom: Geometry) -> str:
    if geom.kind in ("su2", "so3", "su3"):
        return "group"
    if geom.kind == "sphere":
        return "homogeneous"
    return "manifold"


def partial_sums(geom: Geometry, spec: SymbolSpec, grid: np.ndarray,
                 picture: str | None = None) -> PartialSumSeries:
    """Partial sums of nuclear traces of the symbol over the dual.

    grid is an increasing array of weight cutoffs (see dyadic_grid).  The
    three closed-geometry pictures share one contribution rule (the block
    lift makes them agree numerically); the picture tag records which
    normalization downstream estimators should apply.
    """
    grid = check_grid(grid)
    if picture is None:
        picture = default_picture(geom)
    if picture == "boundary-index":
        raise ContractError("boundary-index series come from the boundary module")
    masked, lifted = geom.block_rule(picture)
    thresholds = np.array([geom.lambda_threshold(float(n)) for n in grid])
    n_max = float(grid[-1])
    if is_radial_scalar(spec, lifted):
        chunks = _radial_chunks(geom, spec, n_max)
    else:
        spec = ClassOneMask(spec) if masked else spec
        chunks = _point_chunks(geom, spec, n_max, lifted)
    sums, counts = _stream_snapshots(chunks, thresholds)
    return PartialSumSeries(grid.copy(), sums, counts, dim=geom.dim, picture=picture)


def _radial_chunks(geom: Geometry, spec: SymbolSpec, n_max: float) -> Iterator[tuple]:
    for lam, dsum in radial_shells(geom, n_max):
        f = scalar_values(spec, lam, geom)  # a fresh array, so D |f| forms in place
        if not np.all(np.isfinite(f)):
            raise ConfigError("symbol produced non-finite values on %s" % geom.describe())
        np.abs(f, out=f)
        f *= dsum
        yield lam, f, dsum


def _point_chunks(geom: Geometry, spec: SymbolSpec, n_max: float,
                  lifted: bool) -> Iterator[np.ndarray]:
    """Per-point (lambda, mult * Tr|sigma|, D) rows in enumerate_dual's
    order, geometry._CHUNK points per chunk; a tie may straddle two chunks."""
    def row(p):
        t = nuclear_trace_abs(eval_symbol(spec, p, geom), label=label_text(p))
        return p.eigenvalue, p.rep_dim * t if lifted else t, p.eigenspace_dim
    return _row_chunks(map(row, enumerate_dual(geom, n_max)), 3)


def counting_series(geom: Geometry, grid: np.ndarray) -> PartialSumSeries:
    """Series whose counts (and sums) are the eigenvalue counting function."""
    return partial_sums(geom, RadialWeight(0.0), grid)


def scale_series(series: PartialSumSeries, c: float) -> PartialSumSeries:
    """Multiply all partial sums by c >= 0 (counts untouched)."""
    if c < 0:
        raise ConfigError("scale factor must be >= 0, got %r" % (c,))
    return replace(series, cutoffs=series.cutoffs.copy(), sums=c * series.sums,
                   counts=series.counts.copy())


@dataclass
class WeylFit:
    """Log-log fit of the counting function: count ~ c0 * N^kappa."""

    kappa_hat: float
    c0_hat: float
    residual: float
    points_used: int


def weyl_fit(series: PartialSumSeries) -> WeylFit:
    """Fit log(count) = log(c0) + kappa*log(N) on the upper half of the grid."""
    if len(series) < 4:
        raise FitError("weyl_fit needs at least 4 grid points, got %d" % len(series))
    half = len(series) // 2
    n = series.cutoffs[half:]
    c = series.counts[half:]
    if np.any(c < 1):
        raise FitError("weyl_fit needs counts >= 1 on the fit window")
    if np.all(c == c[0]):
        raise FitError("weyl_fit: counting function is constant on the fit window")
    x = np.log(n)
    y = np.log(c)
    a = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return WeylFit(kappa_hat=float(coef[1]), c0_hat=float(math.exp(coef[0])),
                   residual=rms, points_used=len(n))
