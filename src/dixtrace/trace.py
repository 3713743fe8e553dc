"""Dixmier trace estimates, Marcinkiewicz quasi-norms and residues.

Estimation model: on a geometric cutoff grid the normalized partial sums
f_k = S(N_k)/(kappa log N_k) of a traceable multiplier approach the Dixmier
trace like tau + c1/log N + c2/log^2 N.  The estimator least-squares fits
that model on the upper half of the grid and reports the intercept, keeping
the last raw f_k as a sanity value.

Verdicts: divergent when f grows by more than divergence_threshold
(relative) over the last three octaves; vanishing when the extrapolated
value is below vanishing_rel times the largest f_k (trace-class symbols);
convergent otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, FitError
from .summation import SCHEMA_VERSION, PartialSumSeries, scale_series

DIVERGENCE_THRESHOLD = 0.1
VANISHING_REL = 1e-3
STABILITY_RTOL = 0.01


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

    @staticmethod
    def from_json_dict(doc: dict) -> "TraceEstimate":
        return TraceEstimate(value=doc["value"], naive_last=doc["naive_last"],
                             fit_coeffs=tuple(doc["fit_coeffs"]),
                             fit_residual=doc["fit_residual"],
                             verdict=doc["verdict"], grid_max=doc["grid_max"])


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
    resid = y - a @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return float(coef[0]), float(coef[1]), float(coef[2]), rms


def _estimate(cutoffs: np.ndarray, f: np.ndarray, divergence_threshold: float,
              vanishing_rel: float) -> TraceEstimate:
    tau, c1, c2, rms = log_model_fit(cutoffs, f)
    naive = float(f[-1])
    # relative growth of f over the last three octaves flags divergence
    anchor = cutoffs[-1] / 8.0
    idx = np.searchsorted(cutoffs, anchor, side="right") - 1
    idx = max(0, min(idx, len(cutoffs) - 2))
    base = abs(f[idx])
    growth = (f[-1] - f[idx]) / max(base, 1e-300)
    if growth > divergence_threshold:
        verdict = "divergent"
    elif abs(tau) <= vanishing_rel * float(np.max(np.abs(f))):
        verdict = "vanishing"
    else:
        verdict = "convergent"
    return TraceEstimate(value=tau, naive_last=naive, fit_coeffs=(c1, c2),
                         fit_residual=rms, verdict=verdict,
                         grid_max=float(cutoffs[-1]))


def dixmier_estimate(series: PartialSumSeries,
                     divergence_threshold: float = DIVERGENCE_THRESHOLD,
                     vanishing_rel: float = VANISHING_REL) -> TraceEstimate:
    """Extrapolate S(N)/(kappa log N) to the Dixmier trace.

    Series in the boundary-index picture carry their own normalization and
    are rejected; use the boundary module's estimators for those.
    """
    if series.picture == "boundary-index":
        raise ContractError("boundary-index series use the boundary module's "
                            "normalization, not kappa log N")
    return _estimate(series.cutoffs, series.normalized(),
                     divergence_threshold, vanishing_rel)


def quasinorm(series: PartialSumSeries, p: float,
              stability_rtol: float = STABILITY_RTOL) -> QuasiNormResult:
    """Marcinkiewicz L^(p,infty) quasi-norm proxy sup_N N^e S(N).

    e = kappa(1/p - 1) in the weight pictures and (1/p - 1) against index
    cutoffs (boundary-index picture).  Stability compares the sup over the
    whole grid with the sup over cutoffs <= N_max/10.
    """
    if not (p > 1) or math.isinf(p):
        raise ValueError("quasinorm needs 1 < p < infinity, got %r" % (p,))
    kappa = 1 if series.picture == "boundary-index" else series.dim
    e = kappa * (1.0 / p - 1.0)
    g = series.cutoffs ** e * series.sums
    i = int(np.argmax(g))
    gamma = float(g[i])
    early = series.cutoffs <= series.cutoffs[-1] / 10.0
    if np.any(early):
        gamma_early = float(np.max(g[early]))
        stable = gamma <= gamma_early * (1.0 + stability_rtol)
    else:
        stable = False
    return QuasiNormResult(p=p, gamma=gamma, argmax_cutoff=float(series.cutoffs[i]),
                           stable=stable)


def marcinkiewicz_exponent(p: float, kappa: int) -> float:
    """The grid exponent e(p) = kappa (1/p - 1); decreasing in p."""
    if not (p > 1) or math.isinf(p):
        raise ValueError("exponent needs 1 < p < infinity, got %r" % (p,))
    return kappa * (1.0 / p - 1.0)


def residue_factored(a_integral: float, series: PartialSumSeries,
                     divergence_threshold: float = DIVERGENCE_THRESHOLD,
                     vanishing_rel: float = VANISHING_REL) -> TraceEstimate:
    """Residue of a factored symbol a(x) sigma(xi): density integral times
    the multiplier's Dixmier estimate.

    With a_integral = 1 this is dixmier_estimate on the same code path, so
    the residue/trace identification holds exactly.  A divergent underlying
    estimate keeps its verdict; the scaled value is still reported.
    """
    if series.picture != "group" and series.picture != "manifold":
        raise ContractError("residue_factored expects a multiplier series in the "
                            "group or manifold picture, got %r" % (series.picture,))
    est = dixmier_estimate(series, divergence_threshold, vanishing_rel)
    a = float(a_integral)
    return replace(est, value=a * est.value, naive_last=a * est.naive_last,
                   fit_coeffs=(a * est.fit_coeffs[0], a * est.fit_coeffs[1]),
                   fit_residual=abs(a) * est.fit_residual)


def torus_density_integral(a: Callable, samples_per_dim: int, ndim: int = 1) -> float:
    """Periodic rectangle rule for int_{[0,1)^ndim} a(x) dx.

    Exact (up to rounding) for trigonometric polynomials of degree below
    samples_per_dim in each variable.
    """
    if samples_per_dim < 1:
        raise ConfigError("samples_per_dim must be >= 1")
    if ndim < 1 or samples_per_dim ** ndim > 20_000_000:
        raise ConfigError("density grid too large")
    step = 1.0 / samples_per_dim
    if ndim == 1:
        vals = [a(i * step) for i in range(samples_per_dim)]
    else:
        vals = []
        idx = [0] * ndim
        total = samples_per_dim ** ndim
        for flat in range(total):
            rem = flat
            for d in range(ndim - 1, -1, -1):
                idx[d] = rem % samples_per_dim
                rem //= samples_per_dim
            vals.append(a(tuple(i * step for i in idx)))
    return math.fsum(vals) / len(vals)


def density_integral_from_samples(values: Sequence[float]) -> float:
    """Rectangle rule from user-tabulated density samples on a uniform grid."""
    vals = [float(v) for v in values]
    if not vals:
        raise ConfigError("no density samples given")
    return math.fsum(vals) / len(vals)


@dataclass
class MeasurabilityProbe:
    """Extrapolations along interleaved subgrids and their spread."""

    tau_even: float
    tau_odd: float
    dispersion: float


def measurability_probe(series: PartialSumSeries) -> MeasurabilityProbe:
    """Extrapolate along even- and odd-indexed cutoffs separately.

    A measurable (Dixmier-traceable) symbol gives matching intercepts; a
    large dispersion flags dependence on the averaging scheme.
    """
    if len(series) < 8:
        raise FitError("measurability probe needs at least 8 grid points")
    f = series.normalized()
    taus = []
    for par in (0, 1):
        tau, _c1, _c2, _r = log_model_fit(series.cutoffs[par::2], f[par::2])
        taus.append(tau)
    return MeasurabilityProbe(tau_even=taus[0], tau_odd=taus[1],
                              dispersion=abs(taus[0] - taus[1]))


def estimate_to_json(est: TraceEstimate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(est.to_json_dict(), fh, indent=1)
        fh.write("\n")


def estimate_from_json(path: str) -> TraceEstimate:
    with open(path, "r", encoding="utf-8") as fh:
        return TraceEstimate.from_json_dict(json.load(fh))


__all__ = [
    "TraceEstimate", "QuasiNormResult", "MeasurabilityProbe",
    "dixmier_estimate", "quasinorm", "residue_factored",
    "torus_density_integral", "density_integral_from_samples",
    "measurability_probe", "log_model_fit", "marcinkiewicz_exponent",
    "scale_series", "estimate_to_json", "estimate_from_json",
]
