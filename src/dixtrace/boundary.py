"""Boundary model: interval spectra, boundary symbols and their traces.

The model operator on the unit interval has eigenvalues

    lambda_j = 2 pi j - i ln(-a/b) + alpha_j,   j in Z,

with nonzero complex parameters a, b, a principal-branch logarithm and a
summable perturbation sequence alpha.  The canonical enumeration of the
index set walks |j| ascending with +j before -j at ties, giving the linear
index l = 0, 1, 2, ... used by all index cutoffs.

Two trace normalizations exist here.  The index-cutoff form

    tau'(A) = lim (1/log N) sum_{l <= N} |sigma(xi_l)|

has no 1/dim factor: its series carries dim 1.  The Weyl-rescaled form cuts
on |lambda|^(1/m) <= N and its series carries dim kappa.  Either way the
estimate is trace.dixmier_estimate's S(N)/(dim log N), bit for bit.  The
parametrix trace feeds the reciprocal symbol through the index-cutoff form,
which is why parametrix_trace(P = L) and boundary_dixmier on sigma =
1/lambda produce identical floats.

A BoundarySymbol is n labels, an order and one function chunk(l0, l1)
giving (js, lam, values) for the labels l0 <= l < l1; chunks() calls it on
fixed slices of geometry._CHUNK labels, up to _MAX_STREAMED_LABELS (2^30)
labels.  Symbols built from the spectrum compute each chunk from its
labels, so they run in flat memory; file, array and callable symbols slice
their arrays.  Both trace forms sum through the compensated fold of the
closed geometries (summation._stream_snapshots).  Index sums key it by l
with a unit count per label.  The generated `inverse`, `spectrum` and
`one` symbols, with no alpha or a PowerDecay, also hold |sigma| at real
labels j: their index sums fold the first summation._HEAD labels and add
an Euler-Maclaurin tail for each sign of j past them (summation._tail_sums),
so they reach any cutoff.  The Weyl form keys it by |lambda|^(1/m): it
gathers those keys and |sigma| into two float64 arrays under the 5e7-point
cap, sorts them once and folds fixed slices of _CHUNK sorted labels; the
fold counts a run of equal keys whole where it straddles two slices.
"""

from __future__ import annotations

import cmath
import math
import sys
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (ConfigError, DomainError, EllipticityError, NumericError, SizeError,
                     SpectrumFormatError, count_text)
from .geometry import _CHUNK, _MAX_MATERIALIZED_POINTS, _MAX_STREAMED_LABELS, _records, \
    _reused
from .summation import _HEAD, _STEP, PartialSumSeries, _check_overflow, _stream_snapshots, \
    _tail_sums, check_grid
from .trace import TraceEstimate, _estimate

ZERO_EIGENVALUE_TOL = 1e-12

# Largest |lambda_j| an index sum's tail reads (2^1022): past it 1/lambda_j
# is subnormal, so the tail's |sigma| would lose its digits.
_LAMBDA_MAX = 1.0 / sys.float_info.min

# s0_summability_check: a last-octave increment ratio at or above this diverges
S0_RATIO_THRESHOLD = 0.9


@dataclass(frozen=True)
class PowerDecay:
    """alpha_j = c / (1+|j|)^(1+eps); summable to power 1+eps' for eps' < eps."""

    c: complex
    eps: float

    def __post_init__(self):
        if not (self.eps > 0):
            raise ConfigError("PowerDecay eps must be positive")


def _rows(path: str, what: str, layout: str) -> Iterator[tuple]:
    """(lineno, j, floats) for each data line (geometry._records) of a text
    file of `layout` rows, an integer label j then floats."""
    for lineno, _line, parts in _records(path, what):
        if len(parts) != len(layout.split()):
            raise SpectrumFormatError("%s:%d: expected `%s`" % (path, lineno, layout))
        try:  # labels are int64 wherever they are held
            row = lineno, int(np.int64(parts[0])), [float(t) for t in parts[1:]]
        except (ValueError, OverflowError):
            raise SpectrumFormatError("%s:%d: non-numeric field"
                                      % (path, lineno)) from None
        yield row


def _load_alpha(path: str) -> tuple:
    """(labels ascending, alpha_j) from `j re im` lines; a repeated j is refused."""
    table = {}
    for lineno, j, (real, imag) in _rows(path, "alpha table", "j re im"):
        if j in table:
            raise SpectrumFormatError("%s:%d: j = %d repeats an earlier line"
                                      % (path, lineno, j))
        table[j] = complex(real, imag)
    labels = sorted(table)
    return (np.array(labels, dtype=np.int64),
            np.array([table[j] for j in labels], dtype=np.complex128))


@dataclass(frozen=True)
class AlphaTable:
    """Explicit perturbations from a text file of `j re im` lines, read once
    when the table is built; labels missing from the file have alpha_j = 0."""

    path: str
    entries: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _load_alpha(self.path))


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


def _capped(n: int, cap: int) -> int:
    """n labels; SizeError above cap, before anything is allocated."""
    if n > cap:
        raise SizeError("boundary symbol of %s labels is above the cap of %d; "
                        "lower the cutoff" % (count_text(n), cap))
    return n


def _label_count(j_max: int, cap: int) -> int:
    """2 j_max + 1, the labels with |j| <= j_max; SizeError above cap."""
    if j_max < 0:
        raise ConfigError("j_max must be >= 0")
    return _capped(2 * j_max + 1, cap)


def _label_js(l0: int, l1: int, out: np.ndarray | None = None) -> np.ndarray:
    """Labels j at enumeration indices l0 <= l < l1, l0 even, written into
    out where given: the even l hold j = -l/2, the odd l hold j = (l+1)/2."""
    js = np.empty(l1 - l0, dtype=np.int64) if out is None else out
    half = l0 // 2
    n_even = len(js[0::2])
    js[0::2] = np.arange(-half, -half - n_even, -1)
    js[1::2] = np.arange(half + 1, half + 1 + (len(js) - n_even))
    return js


def _alpha_values(bc: IntervalBC, js: np.ndarray) -> np.ndarray:
    if isinstance(bc.alpha, PowerDecay):
        return np.asarray(bc.alpha.c, dtype=np.complex128) / \
            (1.0 + np.abs(js)) ** (1.0 + bc.alpha.eps)
    if isinstance(bc.alpha, AlphaTable):
        labels, alpha = bc.alpha.entries
        out = np.zeros(len(js), dtype=np.complex128)
        hit = np.isin(js, labels)
        out[hit] = alpha[np.searchsorted(labels, js[hit])]
        return out
    raise ConfigError("unknown alpha model %r" % (bc.alpha,))


def _eigenvalues(bc: IntervalBC, js: np.ndarray, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """lambda_j for an array of labels, into out (complex128) where given,
    |lambda_j| going through scratch (float64); a |lambda_j| below 1e-12
    is rejected with a domain error naming j."""
    lam = np.empty(len(js), dtype=np.complex128) if out is None else out
    np.multiply(2.0 * math.pi, js, out=lam)
    lam -= 1j * bc.log_ratio()
    if bc.alpha is not None:
        lam += _alpha_values(bc, js)
    bad = np.abs(lam, out=scratch) < ZERO_EIGENVALUE_TOL
    if np.any(bad):
        j_bad = int(js[np.argmax(bad)])
        raise DomainError("eigenvalue at j = %d is zero; the model assumes an "
                          "invertible operator" % j_bad)
    return lam


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ConfigError("boundary symbol has non-finite values")


class BoundarySymbol:
    """Symbol values on the boundary index set, in enumeration order.

    A symbol is n labels, the differential order m entering the boundary
    weight <xi> = (1+|lambda|^2)^(1/2m), and one function chunk(l0, l1)
    returning (js, lam, values) for the enumeration indices l0 <= l < l1.
    chunks() calls it on fixed slices, so equal values give equal sums bit
    for bit whether a symbol is generated from the spectrum or read from
    arrays, at every index cutoff below summation._HEAD; past it, a
    generated symbol's sums come from its tail (terms, |sigma| at real
    labels j), within about 1e-15 relative of the fold.

    A chunk's arrays are valid only until the symbol computes another one:
    generated symbols and reciprocals compute every chunk into arrays they
    allocate once, and a reciprocal hands out the js and lam of the symbol
    it inverts.  So a consumer folds or copies a chunk before it asks for
    the next, and never walks one symbol twice at once.
    """

    def __init__(self, n: int, order: int, chunk: Callable[[int, int], tuple],
                 terms: Callable[[np.ndarray], np.ndarray] | None = None):
        self.size = n  # an int past sys.maxsize too, where len() fails
        self.order = order
        self.chunk = chunk
        self.terms = terms

    def __len__(self) -> int:
        return self.size

    def chunks(self) -> Iterator[tuple]:
        """(l0, js, lam, values) for enumeration indices l0 <= l < l0 + C.

        C is geometry._CHUNK.  Chunk boundaries depend on the label index
        alone, never on the grid or on how the symbol is held.  A symbol of
        more than _MAX_STREAMED_LABELS labels raises SizeError here, before
        the first chunk.
        """
        return self._chunks(_capped(self.size, _MAX_STREAMED_LABELS))

    def _chunks(self, n: int) -> Iterator[tuple]:
        """chunks() of the first n labels."""
        for l0 in range(0, n, _CHUNK):
            yield (l0, *self.chunk(l0, min(l0 + _CHUNK, n)))

    def reciprocal(self) -> "BoundarySymbol":
        """The symbol 1/sigma on the same labels, chunk by chunk.

        Every value must be nonzero; the error names the first violating
        enumeration index and its label.
        """
        held = []

        def chunk(l0, l1):
            js, lam, values = self.chunk(l0, l1)
            zero = values == 0.0
            if np.any(zero):
                k = int(np.argmax(zero))
                raise EllipticityError("parametrix needs an invertible symbol; "
                                       "sigma is zero at enumeration index l = %d (j = %d)"
                                       % (l0 + k, int(js[k])))
            inverse = np.divide(1.0, values, out=_reused(held, len(values), np.complex128)[0])
            _check_finite(inverse)
            return js, lam, inverse
        return BoundarySymbol(self.size, self.order, chunk)

    @staticmethod
    def from_arrays(js, lam, values, order: int = 1) -> "BoundarySymbol":
        """A symbol held as arrays in enumeration order; its chunks are slices."""
        if not (len(js) == len(lam) == len(values)):
            raise ConfigError("boundary symbol arrays must have equal length")
        held = (np.asarray(js), np.asarray(lam), np.asarray(values, dtype=np.complex128))
        _check_finite(held[2])
        return BoundarySymbol(len(held[2]), order,
                              lambda l0, l1: tuple(a[l0:l1] for a in held))

    @staticmethod
    def from_callable(bc: IntervalBC, j_max: int,
                      fn: Callable[[int, complex], complex]) -> "BoundarySymbol":
        """fn(j, lambda_j) called once per canonical label, held as arrays."""
        js = _label_js(0, _label_count(j_max, _MAX_MATERIALIZED_POINTS))
        lam = _eigenvalues(bc, js)
        return BoundarySymbol.from_arrays(
            js, lam, [fn(int(j), complex(l)) for j, l in zip(js, lam)], order=bc.order)

    @staticmethod
    def inverse_spectrum(bc: IntervalBC, j_max: int) -> "BoundarySymbol":
        """The canonical benchmark sigma(xi_j) = 1/lambda_j."""
        return _generated(bc, j_max, lambda lam, out: np.divide(1.0, lam, out=out))

    @staticmethod
    def spectrum_symbol(bc: IntervalBC, j_max: int) -> "BoundarySymbol":
        """sigma(xi_j) = lambda_j, the symbol of the model operator itself."""
        return _generated(bc, j_max, lambda lam, out: lam)

    @staticmethod
    def one(bc: IntervalBC, j_max: int) -> "BoundarySymbol":
        """sigma(xi_j) = 1; its own reciprocal."""
        return _generated(bc, j_max, lambda lam, out: np.copyto(out, 1.0) or out)

    @staticmethod
    def from_file(path: str, order: int = 1) -> "BoundarySymbol":
        """Read `j re(lambda) im(lambda) re(sigma) im(sigma)` lines.

        Rows are taken in the canonical enumeration order, and their labels
        must be its first n labels, each once: the error names the first
        enumeration index l whose label j is repeated or out of place.  The
        rows are held as they come, four float64 a row, with the row of
        each enumeration index, 40 bytes a row in all.
        """
        js, floats = array("q"), array("d")
        for _lineno, j, row in _rows(
                path, "boundary symbol", "j re(lambda) im(lambda) re(sigma) im(sigma)"):
            js.append(j)
            floats.extend(row)
        js = np.asarray(js)
        n = len(js)
        c = np.clip(js, -n - 1, n + 1)  # labels past n are out of place anyway
        l = 2 * np.abs(c) - (c > 0)  # the enumeration index of label j
        rows = np.full(n, -1, dtype=np.int64)
        if np.all(l < n):
            rows[l] = np.arange(n)
        if np.any(rows < 0):  # a label past n, or a repeat leaving a hole
            js = js[np.lexsort((js < 0, np.abs(js)))]
            l_bad = int(np.argmax(js != _label_js(0, n)))
            raise SpectrumFormatError(
                "%s: labels must be the canonical enumeration 0, 1, -1, 2, -2, ... "
                "each once; enumeration index l = %d holds j = %d"
                % (path, l_bad, js[l_bad]))
        pairs = np.asarray(floats).view(np.complex128).reshape(n, 2)  # (lambda, sigma)
        _check_finite(pairs[:, 1])

        def chunk(l0, l1):
            lam, values = pairs[rows[l0:l1]].T.copy()
            return _label_js(l0, l1), lam, values
        return BoundarySymbol(n, order, chunk)

    def to_file(self, path: str) -> None:
        chunks = self.chunks()  # the label cap, before the file is opened
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# j re(lambda) im(lambda) re(sigma) im(sigma)\n")
            for _l0, js, lam, values in chunks:
                for j, l, v in zip(js, lam, values):
                    fh.write("%d %s %s %s %s\n" % (
                        j, format(l.real, ".17g"), format(l.imag, ".17g"),
                        format(v.real, ".17g"), format(v.imag, ".17g")))


def _generated(bc: IntervalBC, j_max: int,
               values_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> BoundarySymbol:
    """The labels |j| <= j_max, each chunk computed from its labels as
    lambda_j and then as the values values_fn(lam, out) returns, out being
    free for them.  Every chunk is computed into the same arrays (_reused).
    Unless alpha is a table, the symbol's terms give |sigma| the same way
    at any real labels j, for the index sums' tail."""
    held = []

    def chunk(l0, l1):
        js, lam, values, scratch = _reused(held, l1 - l0, np.int64, np.complex128,
                                           np.complex128, np.float64)
        _label_js(l0, l1, out=js)
        _eigenvalues(bc, js, out=lam, scratch=scratch)
        values = values_fn(lam, values)
        _check_finite(values)
        return js, lam, values

    def terms(js):
        lam = _eigenvalues(bc, js)
        values = values_fn(lam, np.empty_like(lam))
        _check_finite(values)
        return np.abs(values)
    return BoundarySymbol(_label_count(j_max, math.inf), bc.order, chunk,
                          None if isinstance(bc.alpha, AlphaTable) else terms)


def _index_chunks(chunks: Iterator[tuple], terms: Callable) -> Iterator[tuple]:
    """(l, terms(lam, values, out), 1) per symbol chunk, for
    _stream_snapshots; the keys l and out are arrays allocated once, valid
    until the next chunk, as the symbol's own are."""
    keys = None
    for _l0, _js, lam, values in chunks:
        n = len(values)
        if keys is None:  # the first chunk is the longest
            keys, out, unit = np.arange(n, dtype=np.float64), np.empty(n), np.ones(n)
        yield keys[:n], terms(lam, values, out[:n]), unit[:n]
        keys += _CHUNK  # the next chunk starts _CHUNK labels on


def boundary_series(sym: BoundarySymbol, grid: np.ndarray) -> PartialSumSeries:
    """Partial sums over index cutoffs: S(L) = sum_{l <= L} |sigma(xi_l)|.

    |sigma| streams through the shared compensated fold in the symbol's
    fixed chunks, keyed by the enumeration index l with a unit count per
    label, so S(L) is the snapshot at l = floor(L), or at the last label.
    A symbol with terms folds its first summation._HEAD labels only, and a
    cutoff past them adds to that head one Euler-Maclaurin tail for each
    sign of j, with a count of floor(L) + 1.  The tail is refused first
    where 2 pi |j| passes _LAMBDA_MAX.
    """
    grid = check_grid(grid)
    if sym.size == 0:
        raise ConfigError("empty boundary symbol")
    labels = [min(int(c), sym.size - 1) for c in np.floor(grid)]
    if sym.terms is None:
        chunks, tail = sym.chunks(), len(labels)
    else:
        chunks = sym._chunks(min(sym.size, _HEAD))
        tail = next((k for k, l in enumerate(labels) if l >= _HEAD), len(labels))
        if 2.0 * math.pi * float(labels[-1] // 2 + 1) * (1.0 + _STEP) >= _LAMBDA_MAX:
            raise NumericError("boundary symbol at cutoff %g has %s labels, and |lambda_j| "
                               "there passes %.2g, where 1/lambda_j leaves float64's normal "
                               "range; lower the cutoff" % (grid[-1], count_text(labels[-1] + 1),
                                                            _LAMBDA_MAX))
    sums, counts = _stream_snapshots(_index_chunks(chunks, lambda lam, v, out: np.abs(v, out=out)),
                                     np.floor(grid), grid)
    if tail < len(labels):
        # the head holds j = 1 .. _HEAD/2 and j = -1 .. -(_HEAD/2 - 1)
        head, ends = float(sums[tail]), labels[tail:]
        up = _tail_sums(sym.terms, _HEAD // 2 + 1, [(l + 1) // 2 for l in ends])
        down = _tail_sums(lambda x: sym.terms(-x), _HEAD // 2, [l // 2 for l in ends])
        sums[tail:] = [math.fsum((head, a, b)) for a, b in zip(up, down)]
        counts[tail:] = [float(l + 1) for l in ends]
        _check_overflow(sums, grid)
    return PartialSumSeries(grid.copy(), sums, counts, dim=1, picture="boundary-index")


def boundary_dixmier(sym: BoundarySymbol, grid: np.ndarray) -> TraceEstimate:
    """Index-cutoff boundary trace: lim S(L)/log L, the series' dim being 1."""
    series = boundary_series(sym, grid)
    return _estimate(series.cutoffs, series.normalized())


def boundary_weyl_series(sym: BoundarySymbol, kappa: int,
                         grid: np.ndarray) -> PartialSumSeries:
    """Partial sums over weight cutoffs |lambda|^(1/m) <= N.

    x = |lambda|^(1/m) and |sigma| are gathered chunk by chunk into two
    float64 arrays under the point cap, stably sorted by x, and fold
    through the shared compensated fold keyed by x in _CHUNK slices of the
    sorted labels.  The result carries dim = kappa so that normalized() is
    the Weyl-rescaled quotient S(N)/(kappa log N).
    """
    if kappa < 1:
        raise ConfigError("kappa must be >= 1")
    grid = check_grid(grid)
    n = _capped(sym.size, _MAX_MATERIALIZED_POINTS)
    x, terms = np.empty(n), np.empty(n)
    for l0, _js, lam, values in sym.chunks():
        l1 = l0 + len(values)
        x[l0:l1] = np.abs(lam) ** (1.0 / sym.order)
        terms[l0:l1] = np.abs(values)
    order_key = np.argsort(x, kind="stable")
    x = x[order_key]
    terms = terms[order_key]
    unit = np.ones(_CHUNK)
    chunks = ((x[s:s + _CHUNK], terms[s:s + _CHUNK], unit[:len(x) - s])
              for s in range(0, len(x), _CHUNK))
    sums, counts = _stream_snapshots(chunks, grid)
    return PartialSumSeries(grid.copy(), sums, counts, dim=kappa,
                            picture="manifold")


def boundary_dixmier_weyl(sym: BoundarySymbol, kappa: int,
                          grid: np.ndarray) -> TraceEstimate:
    """Weyl-rescaled boundary trace: cut on |lambda|^(1/m) <= N, divide by kappa."""
    series = boundary_weyl_series(sym, kappa, grid)
    return _estimate(series.cutoffs, series.normalized())


def parametrix_trace(p_sym: BoundarySymbol, grid: np.ndarray) -> TraceEstimate:
    """Dixmier trace of the parametrix: index-cutoff trace of 1/sigma_P.

    Every symbol value inside the range must be nonzero; the error names the
    first violating enumeration index.
    """
    return boundary_dixmier(p_sym.reciprocal(), grid)


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


def s0_summability_check(sym: BoundarySymbol, s_grid: Sequence[float]) -> S0Report:
    """Probe sum <xi_l>^{-s} for each s: octave-increment ratio heuristic.

    <xi_l> = (1+|lambda_l|^2)^(1/2m).  The sum over index octaves
    [2^k, 2^{k+1}) shrinks geometrically for convergent s; a final-octave
    ratio at or above S0_RATIO_THRESHOLD flags divergence.  The s grid must
    be nonempty, finite, nonnegative and strictly increasing.
    """
    if sym.size < 16:
        raise ConfigError("s0 check needs at least 16 enumerated points")
    s_values = [float(s) for s in s_grid]
    if not s_values:
        raise ConfigError("s grid is empty")
    if not all(math.isfinite(s) for s in s_values):
        raise ConfigError("s grid must be finite, got %r" % (s_values,))
    if any(s < 0 for s in s_values):
        raise ConfigError("s grid must be nonnegative")
    if any(b <= a for a, b in zip(s_values, s_values[1:])):
        raise ConfigError("s grid must be strictly increasing")
    n_oct = int(math.floor(math.log2(sym.size)))
    # snapshots at l = 2^k - 1 (k = 0..n_oct), then at the last label
    marks = np.array([2.0 ** k - 1.0 for k in range(n_oct + 1)] + [sym.size - 1.0])
    inv_2m = 1.0 / (2.0 * sym.order)
    rows = []
    s0 = None
    for s in s_values:
        snaps, _ = _stream_snapshots(
            _index_chunks(sym.chunks(),
                          lambda lam, v, out: ((1.0 + np.abs(lam) ** 2) ** inv_2m) ** (-s)),
            marks)
        # increments over index octaves [2^k, 2^{k+1})
        incs = np.diff(snaps[:n_oct + 1])
        if incs[-2] <= 0:
            ratio = 0.0
        else:
            ratio = float(incs[-1] / incs[-2])
        conv = ratio < S0_RATIO_THRESHOLD
        rows.append(S0Row(s=s, partial_sum=float(snaps[-1]), octave_ratio=ratio,
                          converges=conv))
        if conv and s0 is None:
            s0 = s
    return S0Report(rows=rows, s0_estimate=s0)
