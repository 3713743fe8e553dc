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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigError, ContractError, DomainError, EllipticityError,
                     FitError, SpectrumFormatError)
from .summation import PartialSumSeries, check_grid
from .trace import (DIVERGENCE_THRESHOLD, VANISHING_REL, TraceEstimate,
                    _estimate)

ZERO_EIGENVALUE_TOL = 1e-12


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


def enumeration_js(j_max: int) -> np.ndarray:
    """Index labels in canonical order: 0, 1, -1, 2, -2, ..., j_max, -j_max."""
    if j_max < 0:
        raise ConfigError("j_max must be >= 0")
    js = np.zeros(2 * j_max + 1, dtype=np.int64)
    js[1::2] = np.arange(1, j_max + 1)
    js[2::2] = -np.arange(1, j_max + 1)
    return js


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


def interval_spectrum(bc: IntervalBC, j_max: int):
    """Eigenvalues for |j| <= j_max in canonical enumeration order.

    Returns (js, lambdas).  Any |lambda_j| below 1e-12 is rejected with a
    domain error naming j.
    """
    js = enumeration_js(j_max)
    lam = 2.0 * math.pi * js - 1j * bc.log_ratio() + _alpha_values(bc, js)
    bad = np.abs(lam) < ZERO_EIGENVALUE_TOL
    if np.any(bad):
        j_bad = int(js[np.argmax(bad)])
        raise DomainError("eigenvalue at j = %d is zero; the model assumes an "
                          "invertible operator" % j_bad)
    return js, lam


@dataclass
class BoundarySymbol:
    """Symbol values on the boundary index set, in enumeration order.

    order is the differential order m entering the boundary weight
    <xi> = (1+|lambda|^2)^(1/2m).
    """

    js: np.ndarray
    lam: np.ndarray
    values: np.ndarray
    order: int = 1

    def __post_init__(self):
        if not (len(self.js) == len(self.lam) == len(self.values)):
            raise ConfigError("boundary symbol arrays must have equal length")
        vals = np.asarray(self.values, dtype=np.complex128)
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ConfigError("boundary symbol has non-finite values")

    def __len__(self) -> int:
        return len(self.js)

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
        """The canonical benchmark sigma(xi_j) = 1/lambda_j, vectorized."""
        js, lam = interval_spectrum(bc, j_max)
        return BoundarySymbol(js=js, lam=lam, values=1.0 / lam, order=bc.order)

    @staticmethod
    def spectrum_symbol(bc: IntervalBC, j_max: int) -> "BoundarySymbol":
        """sigma(xi_j) = lambda_j, the symbol of the model operator itself."""
        js, lam = interval_spectrum(bc, j_max)
        return BoundarySymbol(js=js, lam=lam, values=lam.copy(), order=bc.order)

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
            for j, l, v in zip(self.js, self.lam, self.values):
                fh.write("%d %s %s %s %s\n" % (
                    j, format(l.real, ".17g"), format(l.imag, ".17g"),
                    format(v.real, ".17g"), format(v.imag, ".17g")))


def boundary_series(sym: BoundarySymbol, grid: np.ndarray) -> PartialSumSeries:
    """Partial sums over index cutoffs: S(L) = sum_{l <= L} |sigma(xi_l)|."""
    grid = check_grid(grid)
    if len(sym) == 0:
        raise ConfigError("empty boundary symbol")
    absvals = np.abs(sym.values)
    cs = np.cumsum(absvals)
    idx = np.minimum(np.floor(grid).astype(np.int64), len(sym) - 1)
    sums = cs[idx]
    counts = (idx + 1).astype(np.float64)
    return PartialSumSeries(grid.copy(), sums, counts, dim=1, picture="boundary-index")


def boundary_dixmier(sym: BoundarySymbol, grid: np.ndarray,
                     divergence_threshold: float = DIVERGENCE_THRESHOLD,
                     vanishing_rel: float = VANISHING_REL) -> TraceEstimate:
    """Index-cutoff boundary trace: lim S(L)/log L (no dimension factor)."""
    series = boundary_series(sym, grid)
    f = series.sums / np.log(series.cutoffs)
    return _estimate(series.cutoffs, f, divergence_threshold, vanishing_rel)


def boundary_weyl_series(sym: BoundarySymbol, kappa: int,
                         grid: np.ndarray) -> PartialSumSeries:
    """Partial sums over weight cutoffs |lambda|^(1/m) <= N.

    The result carries dim = kappa so that normalized() is the
    Weyl-rescaled quotient S(N)/(kappa log N).
    """
    if kappa < 1:
        raise ConfigError("kappa must be >= 1")
    grid = check_grid(grid)
    x = np.abs(sym.lam) ** (1.0 / sym.order)
    order_key = np.argsort(x, kind="stable")
    x_sorted = x[order_key]
    cs = np.cumsum(np.abs(sym.values)[order_key])
    idx = np.searchsorted(x_sorted, grid, side="right") - 1
    sums = np.where(idx >= 0, cs[np.maximum(idx, 0)], 0.0)
    counts = (idx + 1).astype(np.float64)
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
    zero = np.abs(p_sym.values) == 0.0
    if np.any(zero):
        l_bad = int(np.argmax(zero))
        raise EllipticityError("parametrix needs an invertible symbol; "
                               "sigma is zero at enumeration index l = %d (j = %d)"
                               % (l_bad, int(p_sym.js[l_bad])))
    inv = BoundarySymbol(js=p_sym.js.copy(), lam=p_sym.lam.copy(),
                         values=1.0 / p_sym.values, order=p_sym.order)
    return boundary_dixmier(inv, grid, divergence_threshold, vanishing_rel)


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
    xi = (1.0 + np.abs(sym.lam) ** 2) ** (1.0 / (2.0 * sym.order))
    n_oct = int(math.floor(math.log2(len(sym))))
    rows = []
    s0 = None
    for s in s_values:
        terms = xi ** (-s)
        cs = np.cumsum(terms)
        # increments over index octaves [2^k, 2^{k+1})
        upper = [cs[min(2 ** (k + 1), len(sym)) - 1] for k in range(n_oct)]
        lower = [cs[2 ** k - 1] for k in range(n_oct)]
        incs = [u - l for u, l in zip(upper, lower)]
        if incs[-2] <= 0:
            ratio = 0.0
        else:
            ratio = float(incs[-1] / incs[-2])
        conv = ratio < ratio_threshold
        rows.append(S0Row(s=s, partial_sum=float(cs[-1]), octave_ratio=ratio,
                          converges=conv))
        if conv and s0 is None:
            s0 = s
    return S0Report(rows=rows, s0_estimate=s0)
