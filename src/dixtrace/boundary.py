"""Boundary model: interval spectra, boundary symbols and their traces.

The model operator on the unit interval has eigenvalues

    lambda_j = 2 pi j - i ln(-a/b) + alpha_j,   j in Z,

with nonzero complex parameters a, b, a principal-branch logarithm and a
summable perturbation sequence alpha.  The canonical enumeration of the
index set walks |j| ascending with +j before -j at ties, giving the linear
index l = 0, 1, 2, ... used by all index cutoffs.

Two trace normalizations exist here.  The index-cutoff form

    tau'(A) = lim (1/log N) sum_{l <= N} |sigma(xi_l)|

has no 1/dim factor.  The Weyl-rescaled form cuts on |lambda|^(1/m) <= N and
divides by kappa.  The parametrix trace feeds the reciprocal symbol through
the index-cutoff form, which is why parametrix_trace(P = L) and
boundary_dixmier on sigma = 1/lambda produce identical floats.

Both forms sum through the compensated fold the closed geometries use
(summation._stream_snapshots): pairwise sums of chunk prefixes, in chunks
of the one stream length geometry._CHUNK, chunk totals folded with a
Neumaier carry.  Index sums are keyed by l with a unit count per label;
the closed-form symbols 1/lambda, lambda and 1 generate their chunks on
the fly, so they run in flat memory up to _MAX_STREAMED_LABELS (2^30)
labels.  Symbols held as arrays (files, callables, --alpha table:) and the
Weyl form, which sorts by |lambda|, stay materialized under the 5e7-point
cap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (ConfigError, DomainError, EllipticityError, SizeError,
                     SpectrumFormatError)
from .geometry import _CHUNK, _MAX_MATERIALIZED_POINTS
from .summation import PartialSumSeries, _stream_snapshots, check_grid
from .trace import (DIVERGENCE_THRESHOLD, VANISHING_REL, TraceEstimate,
                    _estimate)

ZERO_EIGENVALUE_TOL = 1e-12

# closed-form index sums stream in flat memory; this bounds their run time
# (about a minute per 1e9 labels for the two passes of `dixtrace boundary`)
_MAX_STREAMED_LABELS = 1 << 30


@dataclass(frozen=True)
class PowerDecay:
    """alpha_j = c / (1+|j|)^(1+eps); summable to power 1+eps' for eps' < eps."""

    c: complex
    eps: float

    def __post_init__(self):
        if not (self.eps > 0):
            raise ConfigError("PowerDecay eps must be positive")


@dataclass(frozen=True)
class AlphaTable:
    """Explicit perturbations from a text file of `j re im` lines."""

    path: str

    def load(self) -> dict:
        table = {}
        try:
            fh = open(self.path, "r", encoding="utf-8")
        except OSError as exc:
            raise ConfigError("cannot read alpha table %s: %s" % (self.path, exc)) from None
        with fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise SpectrumFormatError("%s:%d: expected `j re im`"
                                              % (self.path, lineno))
                try:
                    table[int(parts[0])] = complex(float(parts[1]), float(parts[2]))
                except ValueError:
                    raise SpectrumFormatError("%s:%d: non-numeric field"
                                              % (self.path, lineno)) from None
        return table


@dataclass(frozen=True)
class IntervalBC:
    """Boundary condition data: a f(0) + b f(1) + integral term = 0."""

    a: complex
    b: complex
    alpha: object = None  # None (zero), PowerDecay, or AlphaTable
    order: int = 1

    def __post_init__(self):
        if self.a == 0 or self.b == 0:
            raise ConfigError("boundary parameters a, b must be nonzero")
        if self.order < 1:
            raise ConfigError("operator order m must be >= 1")

    def log_ratio(self) -> complex:
        return cmath.log(-self.a / self.b)


def _label_count(j_max: int, cap: int) -> int:
    """2 j_max + 1, the labels with |j| <= j_max; SizeError above cap."""
    if j_max < 0:
        raise ConfigError("j_max must be >= 0")
    n = 2 * j_max + 1
    if n > cap:
        raise SizeError("boundary enumeration |j| <= %d holds %d points, above the "
                        "cap of %d; lower the cutoff" % (j_max, n, cap))
    return n


def _label_js(l0: int, l1: int) -> np.ndarray:
    """Labels j at enumeration indices l0 <= l < l1, l0 even: the even l
    hold j = -l/2, the odd l hold j = (l+1)/2."""
    js = np.empty(l1 - l0, dtype=np.int64)
    half = l0 // 2
    n_even = len(js[0::2])
    js[0::2] = np.arange(-half, -half - n_even, -1)
    js[1::2] = np.arange(half + 1, half + 1 + (len(js) - n_even))
    return js


def enumeration_js(j_max: int) -> np.ndarray:
    """Index labels in canonical order: 0, 1, -1, 2, -2, ..., j_max, -j_max.

    More than _MAX_MATERIALIZED_POINTS labels raise SizeError before any
    array is allocated.
    """
    return _label_js(0, _label_count(j_max, _MAX_MATERIALIZED_POINTS))


def _alpha_values(bc: IntervalBC, js: np.ndarray) -> np.ndarray:
    if bc.alpha is None:
        return np.zeros(len(js), dtype=np.complex128)
    if isinstance(bc.alpha, PowerDecay):
        return np.asarray(bc.alpha.c, dtype=np.complex128) / \
            (1.0 + np.abs(js)) ** (1.0 + bc.alpha.eps)
    if isinstance(bc.alpha, AlphaTable):
        table = bc.alpha.load()
        return np.array([table.get(int(j), 0.0) for j in js], dtype=np.complex128)
    raise ConfigError("unknown alpha model %r" % (bc.alpha,))


def interval_eigenvalue(bc: IntervalBC, j: int) -> complex:
    """lambda_j = 2 pi j - i ln(-a/b) + alpha_j for a single index."""
    alpha = complex(_alpha_values(bc, np.array([j], dtype=np.int64))[0])
    lam = 2.0 * math.pi * j - 1j * bc.log_ratio() + alpha
    if abs(lam) < ZERO_EIGENVALUE_TOL:
        raise DomainError("eigenvalue at j = %d is zero; the model assumes an "
                          "invertible operator" % j)
    return lam


def _eigenvalues(bc: IntervalBC, js: np.ndarray) -> np.ndarray:
    """lambda_j for an array of labels; a |lambda_j| below 1e-12 is rejected
    with a domain error naming j."""
    lam = 2.0 * math.pi * js - 1j * bc.log_ratio()
    if bc.alpha is not None:
        lam += _alpha_values(bc, js)
    bad = np.abs(lam) < ZERO_EIGENVALUE_TOL
    if np.any(bad):
        j_bad = int(js[np.argmax(bad)])
        raise DomainError("eigenvalue at j = %d is zero; the model assumes an "
                          "invertible operator" % j_bad)
    return lam


def interval_spectrum(bc: IntervalBC, j_max: int):
    """Eigenvalues for |j| <= j_max in canonical enumeration order.

    Returns (js, lambdas), materialized under the point cap.
    """
    js = enumeration_js(j_max)
    return js, _eigenvalues(bc, js)


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values.view(np.float64))):
        raise ConfigError("boundary symbol has non-finite values")


# closed-form symbol kinds: values from lambda, and the kind of 1/sigma
_CLOSED_VALUES = {"inverse": lambda lam: 1.0 / lam, "spectrum": lambda lam: lam,
                  "one": np.ones_like}
_RECIPROCAL = {"inverse": "spectrum", "spectrum": "inverse", "one": "one"}


class BoundarySymbol:
    """Symbol values on the boundary index set, in enumeration order.

    order is the differential order m entering the boundary weight
    <xi> = (1+|lambda|^2)^(1/2m).

    A symbol read from a file or a callable holds its arrays js, lam and
    values.  A closed-form symbol (inverse_spectrum, spectrum_symbol, one)
    holds only (bc, j_max, kind) and generates its labels chunk by chunk, so
    its index sums run in flat memory up to _MAX_STREAMED_LABELS labels.  Both
    hand out the same fixed chunks (chunks()), so equal values give equal
    sums bit for bit.  Reading js, lam or values of a closed-form symbol
    materializes it under the point cap.
    """

    def __init__(self, js, lam, values, order: int = 1):
        if not (len(js) == len(lam) == len(values)):
            raise ConfigError("boundary symbol arrays must have equal length")
        values = np.asarray(values, dtype=np.complex128)
        _check_finite(values)
        self._arrays = (np.asarray(js), np.asarray(lam), values)
        self._closed = None
        self._n = len(values)
        self.order = order

    @staticmethod
    def _closed_form(bc: IntervalBC, j_max: int, kind: str) -> "BoundarySymbol":
        sym = object.__new__(BoundarySymbol)
        sym._n = _label_count(j_max, _MAX_STREAMED_LABELS)
        sym._arrays = None
        sym._closed = (bc, j_max, kind)
        sym.order = bc.order
        if isinstance(bc.alpha, AlphaTable):
            sym._materialized()  # read the table file once, not once per chunk
        return sym

    def __len__(self) -> int:
        return self._n

    def _materialized(self) -> tuple:
        if self._arrays is None:
            bc, j_max, kind = self._closed
            js, lam = interval_spectrum(bc, j_max)
            values = np.array(_CLOSED_VALUES[kind](lam))
            _check_finite(values)
            self._arrays = (js, lam, values)
        return self._arrays

    @property
    def js(self) -> np.ndarray:
        return self._materialized()[0]

    @property
    def lam(self) -> np.ndarray:
        return self._materialized()[1]

    @property
    def values(self) -> np.ndarray:
        return self._materialized()[2]

    def chunks(self) -> Iterator[tuple]:
        """(l0, js, lam, values) for enumeration indices l0 <= l < l0 + C.

        C is geometry._CHUNK.  Chunk boundaries depend on the label index
        alone, never on the grid or on how the symbol is held.
        """
        for l0 in range(0, self._n, _CHUNK):
            l1 = min(l0 + _CHUNK, self._n)
            if self._arrays is not None:
                js, lam, values = (a[l0:l1] for a in self._arrays)
            else:
                bc, _j_max, kind = self._closed
                js = _label_js(l0, l1)
                lam = _eigenvalues(bc, js)
                values = _CLOSED_VALUES[kind](lam)
                _check_finite(values)
            yield l0, js, lam, values

    def reciprocal(self) -> "BoundarySymbol":
        """The symbol 1/sigma on the same labels.

        Every value must be nonzero; the error names the first violating
        enumeration index and its label.
        """
        if self._arrays is None:
            bc, j_max, kind = self._closed
            return BoundarySymbol._closed_form(bc, j_max, _RECIPROCAL[kind])
        js, lam, values = self._arrays
        zero = values == 0.0
        if np.any(zero):
            l_bad = int(np.argmax(zero))
            raise EllipticityError("parametrix needs an invertible symbol; "
                                   "sigma is zero at enumeration index l = %d (j = %d)"
                                   % (l_bad, int(js[l_bad])))
        return BoundarySymbol(js=js, lam=lam, values=1.0 / values, order=self.order)

    @staticmethod
    def from_callable(bc: IntervalBC, j_max: int,
                      fn: Callable[[int, complex], complex]) -> "BoundarySymbol":
        """Evaluate fn(j, lambda_j) over the canonical enumeration."""
        js, lam = interval_spectrum(bc, j_max)
        vals = np.array([fn(int(j), complex(l)) for j, l in zip(js, lam)],
                        dtype=np.complex128)
        return BoundarySymbol(js=js, lam=lam, values=vals, order=bc.order)

    @staticmethod
    def inverse_spectrum(bc: IntervalBC, j_max: int) -> "BoundarySymbol":
        """The canonical benchmark sigma(xi_j) = 1/lambda_j, in closed form."""
        return BoundarySymbol._closed_form(bc, j_max, "inverse")

    @staticmethod
    def spectrum_symbol(bc: IntervalBC, j_max: int) -> "BoundarySymbol":
        """sigma(xi_j) = lambda_j, the symbol of the model operator itself."""
        return BoundarySymbol._closed_form(bc, j_max, "spectrum")

    @staticmethod
    def one(bc: IntervalBC, j_max: int) -> "BoundarySymbol":
        """sigma(xi_j) = 1, in closed form; its own reciprocal."""
        return BoundarySymbol._closed_form(bc, j_max, "one")

    @staticmethod
    def from_file(path: str, order: int = 1) -> "BoundarySymbol":
        """Read `j re(lambda) im(lambda) re(sigma) im(sigma)` lines.

        Rows are re-sorted into the canonical enumeration order.
        """
        js, lams, vals = [], [], []
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise ConfigError("cannot read boundary symbol %s: %s" % (path, exc)) from None
        with fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 5:
                    raise SpectrumFormatError(
                        "%s:%d: expected `j re(lambda) im(lambda) re(sigma) im(sigma)`"
                        % (path, lineno))
                try:
                    js.append(int(parts[0]))
                    lams.append(complex(float(parts[1]), float(parts[2])))
                    vals.append(complex(float(parts[3]), float(parts[4])))
                except ValueError:
                    raise SpectrumFormatError("%s:%d: non-numeric field"
                                              % (path, lineno)) from None
        order_key = np.lexsort((np.asarray(js, dtype=np.int64) < 0,
                                np.abs(np.asarray(js, dtype=np.int64))))
        js_a = np.asarray(js, dtype=np.int64)[order_key]
        return BoundarySymbol(js=js_a,
                              lam=np.asarray(lams, dtype=np.complex128)[order_key],
                              values=np.asarray(vals, dtype=np.complex128)[order_key],
                              order=order)

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# j re(lambda) im(lambda) re(sigma) im(sigma)\n")
            for _l0, js, lam, values in self.chunks():
                for j, l, v in zip(js, lam, values):
                    fh.write("%d %s %s %s %s\n" % (
                        j, format(l.real, ".17g"), format(l.imag, ".17g"),
                        format(v.real, ".17g"), format(v.imag, ".17g")))


def _index_chunks(sym: BoundarySymbol, terms: Callable) -> Iterator[tuple]:
    """(l, terms(lam, values), 1) per symbol chunk, for _stream_snapshots."""
    unit = np.ones(_CHUNK)
    for l0, _js, lam, values in sym.chunks():
        n = len(values)
        yield np.arange(l0, l0 + n, dtype=np.float64), terms(lam, values), unit[:n]


def boundary_series(sym: BoundarySymbol, grid: np.ndarray) -> PartialSumSeries:
    """Partial sums over index cutoffs: S(L) = sum_{l <= L} |sigma(xi_l)|.

    |sigma| streams through the shared compensated fold in the symbol's
    fixed chunks, keyed by the enumeration index l with a unit count per
    label, so S(L) is the snapshot at l = floor(L).
    """
    grid = check_grid(grid)
    if len(sym) == 0:
        raise ConfigError("empty boundary symbol")
    sums, counts = _stream_snapshots(_index_chunks(sym, lambda lam, v: np.abs(v)),
                                     np.floor(grid))
    return PartialSumSeries(grid.copy(), sums, counts, dim=1, picture="boundary-index")


def boundary_dixmier(sym: BoundarySymbol, grid: np.ndarray,
                     divergence_threshold: float = DIVERGENCE_THRESHOLD,
                     vanishing_rel: float = VANISHING_REL) -> TraceEstimate:
    """Index-cutoff boundary trace: lim S(L)/log L (no dimension factor)."""
    series = boundary_series(sym, grid)
    f = series.sums / np.log(series.cutoffs)
    return _estimate(series.cutoffs, f, divergence_threshold, vanishing_rel)


def _sorted_chunks(x: np.ndarray, terms: np.ndarray) -> Iterator[tuple]:
    """Slices of ascending keys x, _CHUNK long and each extended to
    the end of its run of equal keys, so no threshold splits a tie."""
    start = 0
    while start < len(x):
        end = min(start + _CHUNK, len(x))
        end = int(np.searchsorted(x, x[end - 1], side="right"))
        yield x[start:end], terms[start:end], np.ones(end - start)
        start = end


def boundary_weyl_series(sym: BoundarySymbol, kappa: int,
                         grid: np.ndarray) -> PartialSumSeries:
    """Partial sums over weight cutoffs |lambda|^(1/m) <= N.

    The labels are stably sorted by x = |lambda|^(1/m) and |sigma| folds
    through the shared compensated fold keyed by x.  The result carries
    dim = kappa so that normalized() is the Weyl-rescaled quotient
    S(N)/(kappa log N).
    """
    if kappa < 1:
        raise ConfigError("kappa must be >= 1")
    grid = check_grid(grid)
    x = np.abs(sym.lam) ** (1.0 / sym.order)
    order_key = np.argsort(x, kind="stable")
    sums, counts = _stream_snapshots(
        _sorted_chunks(x[order_key], np.abs(sym.values)[order_key]), grid)
    return PartialSumSeries(grid.copy(), sums, counts, dim=kappa,
                            picture="manifold")


def boundary_dixmier_weyl(sym: BoundarySymbol, kappa: int, grid: np.ndarray,
                          divergence_threshold: float = DIVERGENCE_THRESHOLD,
                          vanishing_rel: float = VANISHING_REL) -> TraceEstimate:
    """Weyl-rescaled boundary trace: cut on |lambda|^(1/m) <= N, divide by kappa."""
    series = boundary_weyl_series(sym, kappa, grid)
    return _estimate(series.cutoffs, series.normalized(),
                     divergence_threshold, vanishing_rel)


def parametrix_trace(p_sym: BoundarySymbol, grid: np.ndarray,
                     divergence_threshold: float = DIVERGENCE_THRESHOLD,
                     vanishing_rel: float = VANISHING_REL) -> TraceEstimate:
    """Dixmier trace of the parametrix: index-cutoff trace of 1/sigma_P.

    Every symbol value inside the range must be nonzero; the error names the
    first violating enumeration index.
    """
    return boundary_dixmier(p_sym.reciprocal(), grid, divergence_threshold,
                            vanishing_rel)


@dataclass
class S0Row:
    s: float
    partial_sum: float
    octave_ratio: float
    converges: bool


@dataclass
class S0Report:
    rows: list
    s0_estimate: float | None  # smallest grid s that converges, if any


def s0_summability_check(sym: BoundarySymbol, s_grid: Sequence[float],
                         ratio_threshold: float = 0.9) -> S0Report:
    """Probe sum <xi_l>^{-s} for each s: octave-increment ratio heuristic.

    <xi_l> = (1+|lambda_l|^2)^(1/2m).  The sum over index octaves
    [2^k, 2^{k+1}) shrinks geometrically for convergent s; a final-octave
    ratio above ratio_threshold flags divergence.
    """
    if len(sym) < 16:
        raise ConfigError("s0 check needs at least 16 enumerated points")
    s_values = [float(s) for s in s_grid]
    if any(s < 0 for s in s_values):
        raise ConfigError("s grid must be nonnegative")
    if sorted(s_values) != s_values:
        raise ConfigError("s grid must be increasing")
    n_oct = int(math.floor(math.log2(len(sym))))
    # snapshots at l = 2^k - 1 (k = 0..n_oct), then at the last label
    marks = np.array([2.0 ** k - 1.0 for k in range(n_oct + 1)] + [len(sym) - 1.0])
    inv_2m = 1.0 / (2.0 * sym.order)
    rows = []
    s0 = None
    for s in s_values:
        snaps, _ = _stream_snapshots(
            _index_chunks(sym, lambda lam, v: ((1.0 + np.abs(lam) ** 2) ** inv_2m) ** (-s)),
            marks)
        # increments over index octaves [2^k, 2^{k+1})
        incs = np.diff(snaps[:n_oct + 1])
        if incs[-2] <= 0:
            ratio = 0.0
        else:
            ratio = float(incs[-1] / incs[-2])
        conv = ratio < ratio_threshold
        rows.append(S0Row(s=s, partial_sum=float(snaps[-1]), octave_ratio=ratio,
                          converges=conv))
        if conv and s0 is None:
            s0 = s
    return S0Report(rows=rows, s0_estimate=s0)
