"""Partial sums of symbol traces over dual enumerations.

The central object is a PartialSumSeries: cutoffs N_k on a geometric grid,
the partial sums S(N_k) = sum of |trace| contributions over dual points of
weight <= N_k, and the eigenvalue counts at the same cutoffs.

Two evaluation strategies produce series:

  * a radial bulk path for specs built from radial scalars, Scaled and
    SymbolSum, streaming (eigenvalue, total multiplicity) shell chunks
    from the geometry and evaluating the scalar vectorized;
  * a per-point object path for everything else (tables), evaluating the
    spec at each point in order: the k x k class-one corner of its block
    (all of it but on spheres), held D/k times (DualPoint), so a scalar
    weighs D |f| on either path.

Both share one accumulation contract so results are reproducible bit for
bit: pairwise sums of chunk prefixes, with one chunk length.  Terms come
in ascending eigenvalue order in fixed chunks: geometry._CHUNK shells or
labels on the torus:1, rank-one and boundary streams, the occupied shells
of a window of about geometry._CHUNK labels (a, b) on torus:2 and su3
(geometry._windows: rows of labels sorted by their least q = den *
lambda, each window as wide in q as the last one's count scaled to
geometry._CHUNK labels, at most doubled), geometry._CHUNK points of
enumerate_dual wherever dual points are enumerated (the per-point path,
higher tori), and on the radial path geometry._CHUNK-row slices of a file
spectrum's sorted columns.  The fold
owns ties: a run of equal eigenvalues may straddle chunks, and a
threshold is read only once a chunk's last key lies strictly above it.
Its snapshot is the Neumaier-compensated carry of the chunk totals before
that chunk plus the pairwise sum (np.sum) of the chunk's prefix the
threshold admits.  No cumulative sum is formed, so the in-chunk error
grows like log of the chunk length, not like the length.  Chunk
boundaries depend only on the geometry, never on the grid, so extending
the grid reproduces every earlier snapshot exactly.  A series whose sums
overflow float64 is refused, naming the first cutoff it overflows at.

The closed-form streams fold only a head.  On torus:1 and the rank-one
kinds with a radial scalar whose nonzero leaves share one sign, and on the
generated boundary symbols, the fold stops after the first _HEAD = 2^20
labels, and every cutoff whose label M lies past it is that head plus an
Euler-Maclaurin tail over the labels up to M (_tail_sums), each sign of j
on its own on the boundary.  So the sums are bit for bit the fold's below
the head, and past it within about 1e-15 relative of the fold (3e-16
(p + 1) for terms growing like m^p; terms steeper than m^16 are folded).
A tail value depends on M alone, so grid extension stays bit for bit there
too.  Those counts are the exact counts, rounded once to float64.

Cutoffs act through the eigenvalue threshold lambda <= N^nu - 1 (ties
included), read exactly on every built-in kind (Geometry.lambda_threshold).
Counts are kept in float64 and fold the same way; they are exact integers
up to 2**53 and beyond that (huge SU(2)/SU(3) grids) stay within a few ulp
of counting_function, which is exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, FitError, NumericError, SpectrumFormatError, count_text
from .geometry import _CHUNK, Geometry, _reused, _row_chunks, enumerate_dual, label_text, \
    radial_shells
from .symbol import RadialWeight, SymbolSpec, _leaf_signs, eval_symbol, is_radial_scalar, \
    nuclear_trace_abs, scalar_values

PICTURES = ("manifold", "group", "homogeneous", "boundary-index")

SCHEMA_VERSION = 1

# Most cutoffs dyadic_grid builds; each costs an exact threshold and a fold
# step.
MAX_GRID_CUTOFFS = 1_000_000


def dyadic_grid(n_max: float, points_per_octave: int = 4) -> np.ndarray:
    """Geometric cutoff grid from 2 to n_max, last point exactly n_max; a
    grid of more than MAX_GRID_CUTOFFS cutoffs raises ConfigError before it
    is built."""
    if not 4 <= n_max < math.inf:
        raise ConfigError("grid n_max must be finite and >= 4, got %r" % (n_max,))
    if points_per_octave < 1:
        raise ConfigError("points_per_octave must be >= 1")
    n_max = float(n_max)
    count = math.ceil(points_per_octave * math.log2(n_max / 2.0)) + 1
    if count > MAX_GRID_CUTOFFS:
        raise ConfigError("a grid of about %s cutoffs is above the cap of %d; lower "
                          "points_per_octave or n_max" % (count_text(count), MAX_GRID_CUTOFFS))
    vals = []
    k = 0
    while True:
        e = 1.0 + k / points_per_octave
        if e >= 1024 or (v := 2.0 ** e) >= n_max:  # 2^1024 is past float64
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

    dim is the kappa of the log-normalization S(N)/(kappa log N): the
    manifold dimension, or the Weyl kappa of a boundary eigenvalue cutoff.
    picture tags where the sums come from: the geometry's kind, as
    partial_sums sets it (one block rule on every kind), or boundary-index,
    whose series counts labels, so its dim is 1.
    """

    cutoffs: np.ndarray
    sums: np.ndarray
    counts: np.ndarray
    dim: int
    picture: str

    def __post_init__(self):
        if self.picture not in PICTURES:
            raise ConfigError("unknown picture %r" % (self.picture,))
        if self.picture == "boundary-index" and self.dim != 1:
            raise ConfigError("a boundary-index series has dim 1, got %r" % (self.dim,))
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
                try:
                    cutoff, count, total = map(float, row[:3])
                except ValueError:
                    raise SpectrumFormatError(
                        "%s:%d: expected numbers cutoff,count,sum, got %r"
                        % (path, reader.line_num, ",".join(row))) from None
                cutoffs.append(cutoff)
                counts.append(count)
                sums.append(total)
        return PartialSumSeries(np.array(cutoffs), np.array(sums),
                                np.array(counts), dim=dim, picture=picture)


def _format_count(c: float) -> str:
    if float(c).is_integer() and abs(c) < 2.0 ** 53:
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


def _stream_snapshots(chunks: Iterable[tuple], thresholds: np.ndarray, cutoffs=None):
    """Fold (lam, contrib, dsum) chunks, lam ascending, into snapshot sums/counts.

    A chunk's totals are pairwise sums (np.sum) folded into a Neumaier
    carry.  A threshold is read once a chunk's last key lies strictly above
    it, so a run of equal keys counts whole even where it straddles chunks:
    the carry before the chunk plus the pairwise sum of the chunk's prefix
    the threshold admits, or, below the chunk's first key, the snapshot at
    the end of the chunk before.  Each prefix depends only on the chunk and
    the prefix length, so values never depend on how far the stream
    continues afterwards, nor on where between two keys the threshold falls.
    A non-finite sum raises NumericError naming its cutoff (cutoffs, by
    default the thresholds), checked once on the finished series.
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
    _check_overflow(sums, thresholds if cutoffs is None else cutoffs)
    return sums, counts


def _check_overflow(sums: np.ndarray, cutoffs) -> None:
    """NumericError naming the first cutoff whose sum is not finite."""
    if not np.isfinite(sums).all():
        raise NumericError("the partial sum at cutoff %g is not finite (float64 overflow); "
                           "scale the symbol down" % cutoffs[np.argmin(np.isfinite(sums))])


# Labels the closed-form streams fold exactly before their Euler-Maclaurin
# tail (_tail_sums): 64 chunks, about 10 ms of fold.  Every cutoff whose
# label lies below it keeps the fold's bits.
_HEAD = 64 * _CHUNK
# Gauss-Legendre nodes per panel of the tail's integral, and the relative
# step of the central differences that give g' at its two ends.
_NODES = 24
_STEP = 2.0 ** -16
# Steepest growth m^p of the terms partial_sums hands to the tail.  A
# quadrature node carries about an ulp of rounding, which terms like m^p
# amplify p times, so the tail is within about 3e-16 (p + 1) of the sum;
# steeper terms are folded.
_MAX_GROWTH = 16.0


def _tail_sums(g, start: int, ends) -> list:
    """sum_{m=start}^{M} g(m) for each integer M of ends (0.0 where M < start).

    g maps a float64 array of labels to the terms there, and is smooth and
    of one sign past start.  Each sum is the Euler-Maclaurin form

        T(M) = int_start^M g + (g(start) + g(M))/2 + (g'(M) - g'(start))/12.

    The integral runs over fixed panels [start 2^i, start 2^(i+1)], with
    _NODES Gauss-Legendre nodes in log m on each.  Whole panels fold into a
    Neumaier carry, and each M adds its one partial panel, so T(M) depends
    on M alone and extending a grid repeats it bit for bit.  g' is a
    central difference.  For start >= 2^19 and terms like m^p, |p| < 50,
    the first term left out, B4/4! times the difference of the third
    derivatives, is below 1e-18 of the sum.  A ConfigError of g propagates.
    """
    from numpy.polynomial.legendre import leggauss  # the tail's alone, off every start
    xi, w = leggauss(_NODES)
    out = [0.0] * len(ends)
    live = [(k, m) for k, m in enumerate(ends) if m >= start]
    if not live:
        return out
    panel = [(m // start).bit_length() - 1 for _, m in live]  # start 2^i <= M < start 2^(i+1)
    whole = max(panel)
    lo = np.ldexp(float(start), list(range(whole)) + panel)
    hi = np.concatenate([2.0 * lo[:whole], [float(m) for _, m in live]])
    span = np.log(hi / lo)
    x = lo[:, None] * np.exp(np.multiply.outer(0.5 * span, 1.0 + xi))
    ends_f = np.array([float(start)] + [float(m) for _, m in live])
    probes = np.concatenate([x.ravel(), ends_f, ends_f * (1.0 + _STEP), ends_f * (1.0 - _STEP)])
    values = g(probes)
    terms = values[:x.size].reshape(x.shape) * x
    integral = terms[:, 0] * w[0]  # column by column, so a row's value is its own
    for k in range(1, _NODES):
        integral += terms[:, k] * w[k]
    integral *= 0.5 * span
    at, up, down = np.split(values[x.size:], 3)
    _, x_up, x_down = np.split(probes[x.size:], 3)
    slope = (up - down) / (x_up - x_down)  # x_up - x_down is exact (Sterbenz)
    carry = _Carry()
    prefix = [(0.0, 0.0)]
    for v in integral[:whole].tolist():
        carry.add(v)
        prefix.append((carry.total, carry.comp))
    for j, ((k, _m), i) in enumerate(zip(live, panel)):
        out[k] = math.fsum((*prefix[i], float(integral[whole + j]), 0.5 * float(at[0]),
                            0.5 * float(at[j + 1]), float(slope[j + 1] - slope[0]) / 12.0))
    return out


def partial_sums(geom: Geometry, spec: SymbolSpec, grid: np.ndarray) -> PartialSumSeries:
    """Partial sums of nuclear traces of the symbol over the dual.

    grid is an increasing array of weight cutoffs (see dyadic_grid).  Each
    point contributes the class-one corner of its block, held D/k times
    (DualPoint), and the series carries geom.dim and its kind's picture
    tag, which changes no number.

    On torus:1 and the rank-one kinds (geom.dual.tail), a radial scalar
    whose nonzero leaves share one sign folds its first _HEAD labels, and
    a cutoff of label M >= _HEAD adds the Euler-Maclaurin tail over labels
    _HEAD .. M to that head, with the exact count of the labels up to M.
    A count or an eigenvalue past float64 is refused first.  Terms that
    grow faster than m^_MAX_GROWTH at the last label are folded.
    """
    grid = check_grid(grid)
    n_max = float(grid[-1])
    rule = None
    if is_radial_scalar(spec) and len(_leaf_signs(spec)) <= 1:
        rule = geom.dual.tail
    labels = [rule.label_max(geom.lattice_cap(float(n))) for n in grid] if rule else []
    tail = next((k for k, m in enumerate(labels) if m >= _HEAD), len(labels))

    def g(x):
        lam, dsum = np.empty_like(x), np.empty_like(x)
        rule.fill(x, lam, dsum)
        return _radial_terms(geom, spec, lam, dsum)
    if tail < len(labels):
        _check_reach(geom, rule, n_max, labels[-1])
        if _steep(g, labels[-1]):
            tail = len(labels)  # every label is folded, under the label cap
        else:
            n_max = math.sqrt(1.0 + rule.eigenvalue(_HEAD - 0.5))  # its stream ends at _HEAD - 1
    thresholds = np.array([geom.lambda_threshold(float(n)) for n in grid])
    if is_radial_scalar(spec):
        chunks = _radial_chunks(geom, spec, n_max)
    else:
        chunks = _point_chunks(geom, spec, n_max)
    sums, counts = _stream_snapshots(chunks, thresholds, grid)
    if tail < len(labels):
        head = float(sums[tail])  # the end of the head's stream
        sums[tail:] = [head + t for t in _tail_sums(g, _HEAD, labels[tail:])]
        counts[tail:] = [float(rule.count_to(m)) for m in labels[tail:]]
        _check_overflow(sums, grid)
    return PartialSumSeries(grid.copy(), sums, counts, geom.dim, geom.dual.picture)


def _steep(g, m: int) -> bool:
    """True where m g'(m) > _MAX_GROWTH g(m), g' by the tail's central
    difference."""
    x = float(m) * np.array([1.0 - _STEP, 1.0, 1.0 + _STEP])
    down, at, up = g(x).tolist()
    return not x[1] * (up - down) <= _MAX_GROWTH * at * (x[2] - x[0])


def _check_reach(geom: Geometry, rule, cutoff: float, m: int) -> None:
    """NumericError, before any work, where the count of the labels up to m
    or the largest eigenvalue the tail reads passes float64."""
    count = rule.count_to(m)
    try:
        float(count)
    except OverflowError:
        past = "count of %s eigenvalues" % count_text(count)
    else:
        if math.isfinite(rule.eigenvalue(float(m) * (1.0 + _STEP))):
            return
        past = "last eigenvalue"
    raise NumericError("%s at cutoff %g has %s labels, and their %s passes float64; "
                       "lower the cutoff" % (geom.describe(), cutoff, count_text(m + 1), past))


def _radial_terms(geom: Geometry, spec: SymbolSpec, lam: np.ndarray, dsum: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """D |f| on shells (lam, dsum), computed into out where given;
    ConfigError where f is not finite."""
    f = scalar_values(spec, lam, geom, out=out)
    if not np.all(np.isfinite(f)):
        raise ConfigError("symbol produced non-finite values on %s" % geom.describe())
    np.abs(f, out=f)
    f *= dsum
    return f


def _radial_chunks(geom: Geometry, spec: SymbolSpec, n_max: float) -> Iterator[tuple]:
    """(lambda, D |f|, D) per shell chunk, D |f| computed into one array
    for every chunk, so valid until the next, as the shells are."""
    held = []
    for lam, dsum in radial_shells(geom, n_max):
        yield lam, _radial_terms(geom, spec, lam, dsum,
                                 out=_reused(held, lam.size, np.float64)[0]), dsum


def _point_chunks(geom: Geometry, spec: SymbolSpec, n_max: float) -> Iterator[np.ndarray]:
    """Per-point (lambda, D/k * Tr|sigma|, D) rows in enumerate_dual's
    order, geometry._CHUNK points per chunk; a tie may straddle two chunks."""
    def row(p):
        t = nuclear_trace_abs(eval_symbol(spec, p, geom), label=label_text(p))
        return p.eigenvalue, p.eigenspace_dim // p.class_one_dim * t, p.eigenspace_dim
    return _row_chunks(map(row, enumerate_dual(geom, n_max)), 3)


def counting_series(geom: Geometry, grid: np.ndarray) -> PartialSumSeries:
    """Series whose counts (and sums) are the eigenvalue counting function."""
    return partial_sums(geom, RadialWeight(0.0), grid)


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
    return WeylFit(kappa_hat=float(coef[1]), c0_hat=float(math.exp(coef[0])),
                   residual=_rms(y - a @ coef), points_used=len(n))


def _rms(resid: np.ndarray) -> float:
    """Root mean square of fit residuals, squared as resid / 2**e with the
    largest |resid| in [0.5, 1), so a finite residual stays finite; where
    no square overflows or underflows, the same float as without the
    scaling."""
    e = math.frexp(float(np.max(np.abs(resid))))[1]
    return math.ldexp(float(np.sqrt(np.mean(np.ldexp(resid, -e) ** 2))), e)
