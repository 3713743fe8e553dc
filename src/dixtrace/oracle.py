"""Brute-force operator oracle.

Everything here works at the level of actual matrices: materialize the
block-diagonal truncation of the operator below a weight cutoff, get its
singular values from LAPACK, and form partial Dixmier / quasi-norm sums
directly from the sorted list.  This is deliberately independent of the
symbol-side streaming path (different SVD, different summation order) so
the two can be compared as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SizeError
from .geometry import Geometry, counting_function, enumerate_dual, label_text
from .summation import default_picture
from .symbol import ClassOneMask, SymbolSpec, eval_symbol, singular_values

DEFAULT_CAP = 10_000
DENSE_DIM_CAP = 300
ORACLE_TOL = 1e-9


@dataclass
class TruncatedOperator:
    """Block-diagonal truncation: one (label, matrix, multiplicity) per point.

    Masked blocks are their k x k class-one corners, so total_dim, the sum
    of mult * block size, is the eigenvalue count on every built-in kind.
    """

    blocks: list
    total_dim: int
    geometry: Geometry
    picture: str


def truncate_operator(geom: Geometry, spec: SymbolSpec, cutoff: float,
                      cap: int = DEFAULT_CAP,
                      picture: str | None = None) -> TruncatedOperator:
    """Materialize all symbol blocks with weight <= cutoff.

    The eigenvalue count, the total dimension on built-in kinds, is checked
    against cap first, so an oversized request fails fast with the cap it
    needs.  A file spectrum holds each block once whatever its D, so there
    the sum of d is checked too, before any block is built.
    """
    if picture is None:
        picture = default_picture(geom)
    if picture == "boundary-index":
        raise ConfigError("boundary symbols have no block truncation; "
                          "use the boundary module directly")
    masked, lifted = geom.block_rule(picture)
    _check_cap(counting_function(geom, cutoff), cutoff, cap)
    points = list(enumerate_dual(geom, cutoff))
    if not lifted:
        _check_cap(sum(p.rep_dim for p in points), cutoff, cap)
    spec = ClassOneMask(spec) if masked else spec
    blocks = [(label_text(p), eval_symbol(spec, p, geom), p.rep_dim if lifted else 1)
              for p in points]
    return TruncatedOperator(blocks=blocks,
                             total_dim=sum(mult * len(m) for _, m, mult in blocks),
                             geometry=geom, picture=picture)


def _check_cap(total: int, cutoff: float, cap: int) -> None:
    if total > cap:
        raise SizeError("truncation at cutoff %g holds %d weighted dimensions; "
                        "pass cap >= %d to allow it" % (cutoff, total, total))


def _sorted_with_multiplicity(op: TruncatedOperator, svd) -> np.ndarray:
    """svd(block, label) of each block, repeated by multiplicity, descending."""
    parts = [np.tile(svd(m, label), mult) for label, m, mult in op.blocks]
    if not parts:
        return np.zeros(0, dtype=np.float64)
    return np.sort(np.concatenate(parts))[::-1]


def operator_singular_values(op: TruncatedOperator,
                             dense: bool = False) -> np.ndarray:
    """All singular values of the truncation, descending, with multiplicity.

    The default path runs LAPACK SVD per block and repeats each block's
    values by its multiplicity.  dense=True assembles the full
    block-diagonal matrix first (capped at dimension 300) and decomposes it
    in one call; it exists purely as a paranoia check on the block path.
    """
    if dense:
        if op.total_dim > DENSE_DIM_CAP:
            raise SizeError("dense oracle capped at dimension %d, operator has %d"
                            % (DENSE_DIM_CAP, op.total_dim))
        full = np.zeros((op.total_dim, op.total_dim), dtype=np.complex128)
        at = 0
        for _label, m, mult in op.blocks:
            d = m.shape[0]
            for _ in range(mult):
                full[at:at + d, at:at + d] = m
                at += d
        svals = np.linalg.svd(full, compute_uv=False)
        return np.sort(svals)[::-1]
    return _sorted_with_multiplicity(
        op, lambda m, _label: np.linalg.svd(m, compute_uv=False))


def dixmier_partial_norm(svals: np.ndarray, n: int) -> float:
    """(1/log n) * sum of the n largest singular values."""
    svals = np.asarray(svals, dtype=np.float64)
    if n < 2:
        raise ConfigError("partial norm needs n >= 2")
    if n > len(svals):
        raise ConfigError("asked for %d singular values, operator has %d"
                          % (n, len(svals)))
    return float(math.fsum(svals[:n]) / math.log(n))


def lpinf_partial_norm(svals: np.ndarray, n: int, p: float) -> float:
    """n^(1/p - 1) * sum of the n largest singular values."""
    svals = np.asarray(svals, dtype=np.float64)
    if not (p > 1) or math.isinf(p):
        raise ValueError("p must be finite and > 1")
    if n < 1:
        raise ConfigError("partial norm needs n >= 1")
    if n > len(svals):
        raise ConfigError("asked for %d singular values, operator has %d"
                          % (n, len(svals)))
    return float(n ** (1.0 / p - 1.0) * math.fsum(svals[:n]))


def compare_symbol_vs_oracle(geom: Geometry, spec: SymbolSpec, cutoff: float,
                             cap: int = DEFAULT_CAP,
                             picture: str | None = None,
                             tolerance: float = ORACLE_TOL) -> dict:
    """Cross-check the symbol-side SVD against the operator-level one.

    Both sides decompose the same materialized blocks into the full
    weighted singular-value list below the cutoff; the lists are sorted and
    compared elementwise, and their total sums compared in relative terms.
    The two routes share no decomposition code: the symbol side runs the
    one-sided Jacobi / Hermitian paths, the oracle side runs LAPACK.
    """
    op = truncate_operator(geom, spec, cutoff, cap=cap, picture=picture)
    oracle_vals = operator_singular_values(op)
    symbol_vals = _sorted_with_multiplicity(op, singular_values)
    if len(symbol_vals) != len(oracle_vals):
        raise ConfigError("internal mismatch: %d symbol-side values vs %d "
                          "oracle-side" % (len(symbol_vals), len(oracle_vals)))
    diff = np.abs(symbol_vals - oracle_vals)
    max_abs = float(diff.max()) if len(diff) else 0.0
    first_bad = int(np.argmax(diff > tolerance)) if np.any(diff > tolerance) else -1
    sum_sym = math.fsum(symbol_vals)
    sum_orc = math.fsum(oracle_vals)
    denom = max(abs(sum_orc), 1e-300)
    sum_rel = abs(sum_sym - sum_orc) / denom
    passed = max_abs <= tolerance and sum_rel <= tolerance
    return {
        "total_dim": int(len(oracle_vals)),
        "max_abs": max_abs,
        "first_mismatch_rank": first_bad,
        "sum_rel_diff": float(sum_rel),
        "tolerance": tolerance,
        "passed": bool(passed),
    }
