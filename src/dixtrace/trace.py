"""Dixmier trace estimates, Marcinkiewicz quasi-norms and residues.

Estimation model: on a geometric cutoff grid the normalized partial sums
f_k = S(N_k)/(kappa log N_k) of a traceable multiplier approach the Dixmier
trace like tau + c1/log N + c2/log^2 N.  kappa is the series' own dim: the
manifold dimension on closed geometries, the Weyl kappa on boundary
eigenvalue cutoffs and 1 on boundary index cutoffs, so one estimator reads
every series.  It least-squares fits that model on the upper half of the
grid and reports the intercept, keeping the last raw f_k as a sanity value.

Verdicts are fixed rules: divergent when f grows by more than
DIVERGENCE_THRESHOLD (relative) over the last three octaves; vanishing when
the extrapolated value is below VANISHING_REL times the largest f_k
(trace-class symbols); convergent otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import ConfigError, FitError, NumericError
from .summation import SCHEMA_VERSION, PartialSumSeries, _rms

DIVERGENCE_THRESHOLD = 0.1  # growth of f over the last three octaves
VANISHING_REL = 1e-3  # |tau| against max |f|
STABILITY_RTOL = 0.01  # quasi-norm growth over the last decade


@dataclass
class TraceEstimate:
    """Extrapolated log-average with fit diagnostics and a verdict."""

    value: float
    naive_last: float
    fit_coeffs: tuple
    fit_residual: float
    verdict: str  # convergent | divergent | vanishing
    grid_max: float

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "value": self.value,
            "naive_last": self.naive_last,
            "fit_coeffs": list(self.fit_coeffs),
            "fit_residual": self.fit_residual,
            "verdict": self.verdict,
            "grid_max": self.grid_max,
        }


@dataclass
class QuasiNormResult:
    """sup_N N^e S(N) over the grid with a last-decade stability check."""

    p: float
    gamma: float
    argmax_cutoff: float
    stable: bool


def log_model_fit(cutoffs: np.ndarray, f: np.ndarray):
    """LSQ fit f = tau + c1/L + c2/L^2, L = log N, on the upper half grid.

    Returns (tau, c1, c2, rms_residual).
    """
    if len(cutoffs) < 4:
        raise FitError("extrapolation needs at least 4 grid points, got %d" % len(cutoffs))
    if np.any(cutoffs < 2.0):
        raise FitError("extrapolation needs cutoffs >= 2")
    half = len(cutoffs) // 2
    el = np.log(cutoffs[half:])
    y = f[half:]
    a = np.vstack([np.ones_like(el), 1.0 / el, 1.0 / el ** 2]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2]), _rms(y - a @ coef)


def _estimate(cutoffs: np.ndarray, f: np.ndarray) -> TraceEstimate:
    tau, c1, c2, rms = log_model_fit(cutoffs, f)
    naive = float(f[-1])
    # relative growth of f over the last three octaves flags divergence
    anchor = cutoffs[-1] / 8.0
    idx = np.searchsorted(cutoffs, anchor, side="right") - 1
    idx = max(0, min(idx, len(cutoffs) - 2))
    base = abs(f[idx])
    growth = (f[-1] - f[idx]) / max(base, 1e-300)
    if growth > DIVERGENCE_THRESHOLD:
        verdict = "divergent"
    elif abs(tau) <= VANISHING_REL * float(np.max(np.abs(f))):
        verdict = "vanishing"
    else:
        verdict = "convergent"
    return TraceEstimate(value=tau, naive_last=naive, fit_coeffs=(c1, c2),
                         fit_residual=rms, verdict=verdict,
                         grid_max=float(cutoffs[-1]))


def dixmier_estimate(series: PartialSumSeries) -> TraceEstimate:
    """Extrapolate S(N)/(kappa log N) to the Dixmier trace, kappa = series.dim."""
    return _estimate(series.cutoffs, series.normalized())


def quasinorm(series: PartialSumSeries, p: float) -> QuasiNormResult:
    """Marcinkiewicz L^(p,infty) quasi-norm proxy sup_N N^e S(N).

    The grid exponent e = kappa (1/p - 1), kappa = series.dim, needs
    1 < p < infinity; it decreases in p.  Stability compares the sup over
    the whole grid with the sup over cutoffs <= N_max/10.
    """
    if not (p > 1) or math.isinf(p):
        raise ValueError("exponent needs 1 < p < infinity, got %r" % (p,))
    e = series.dim * (1.0 / p - 1.0)
    g = series.cutoffs ** e * series.sums
    i = int(np.argmax(g))
    gamma = float(g[i])
    early = series.cutoffs <= series.cutoffs[-1] / 10.0
    if np.any(early):
        gamma_early = float(np.max(g[early]))
        stable = gamma <= gamma_early * (1.0 + STABILITY_RTOL)
    else:
        stable = False
    return QuasiNormResult(p=p, gamma=gamma, argmax_cutoff=float(series.cutoffs[i]),
                           stable=stable)


def residue_factored(a_integral: float, series: PartialSumSeries) -> TraceEstimate:
    """Residue of a factored symbol a(x) sigma(xi): density integral times
    the multiplier's Dixmier estimate.

    With a_integral = 1 this is dixmier_estimate on the same code path, so
    the residue/trace identification holds exactly, on every geometry.  A
    divergent underlying estimate keeps its verdict; the scaled value is
    still reported.  A non-finite a_integral is refused, and so is a
    product that overflows float64 where the estimate was finite.
    """
    a = float(a_integral)
    if not math.isfinite(a):
        raise ConfigError("density integral must be finite, got %r" % (a,))
    est = dixmier_estimate(series)
    if any(math.isfinite(x) and not math.isfinite(a * x)
           for x in (est.value, est.naive_last, *est.fit_coeffs, est.fit_residual)):
        raise NumericError("density integral %r times the trace estimate is not finite "
                           "(float64 overflow)" % (a,))
    return replace(est, value=a * est.value, naive_last=a * est.naive_last,
                   fit_coeffs=(a * est.fit_coeffs[0], a * est.fit_coeffs[1]),
                   fit_residual=abs(a) * est.fit_residual)


def density_integral_from_samples(values: Iterable[float]) -> float:
    """Rectangle rule from user-tabulated density samples on a uniform grid:
    their mean, folded in one pass, so an iterator (a file read line by
    line) is read in constant memory."""
    seen = itertools.count()  # zip draws a value first, so it counts values
    total = math.fsum(float(v) for v, _ in zip(values, seen))
    n = next(seen)
    if not n:
        raise ConfigError("no density samples given")
    return total / n
