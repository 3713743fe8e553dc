"""Brute-force operator oracle.

Everything here works at the level of actual matrices: materialize the
block-diagonal truncation of the operator below a weight cutoff and get
its singular values from LAPACK.  This is deliberately independent of the
symbol-side streaming path (different SVD, different summation order) so
the two can be compared as a cross-check.  Each block is the class-one
corner eval_symbol returns, the same one the per-point partial sums read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SizeError, count_text
from .geometry import Geometry, counting_function, enumerate_dual, label_text
from .symbol import SymbolSpec, check_block_size, eval_symbol, singular_values

DEFAULT_CAP = 10_000
ORACLE_TOL = 1e-9  # relative difference that still matches, elementwise and of the sums


@dataclass
class TruncatedOperator:
    """Block-diagonal truncation: one (label, block, multiplicity) per point.

    Blocks are the class-one corners eval_symbol returns, diagonals 1-d,
    each held D/k times (DualPoint), so total_dim, the sum of mult * block
    size, is the eigenvalue count on every kind.
    """

    blocks: list
    total_dim: int


def truncate_operator(geom: Geometry, spec: SymbolSpec, cutoff: float,
                      cap: int = DEFAULT_CAP) -> TruncatedOperator:
    """Materialize all symbol blocks with weight <= cutoff.

    One walk of the dual keeps its points while summing their D, and once
    the running total passes cap the request fails before any block is
    built: the enumeration is lazy, so this takes time in the cap, not the
    cutoff.  The error names the cap needed, counting_function where that
    is closed form or one column sum, else the running total as a lower
    bound.  Then the kept points' blocks are built, and their total must
    equal counting_function.
    """
    points = []
    total = 0
    for p in enumerate_dual(geom, cutoff):
        points.append(p)
        total += p.eigenspace_dim
        if total > cap:
            exact = geom.dual.cheap_count  # closed form or one column sum
            n = count_text(counting_function(geom, cutoff) if exact else total)
            raise SizeError("truncation at cutoff %g holds %s%s weighted dimensions, more "
                            "than the cap of %d; pass cap >= %s%s or lower the cutoff"
                            % (cutoff, "" if exact else "at least ", n, cap, n,
                               "" if exact else " (a lower bound)"))
    blocks = [(label_text(p), eval_symbol(spec, p, geom), p.eigenspace_dim // p.class_one_dim)
              for p in points]
    total = sum(mult * len(m) for _, m, mult in blocks)
    if total != counting_function(geom, cutoff):
        raise ConfigError("internal mismatch: %d dimensions against the counting function" % total)
    return TruncatedOperator(blocks=blocks, total_dim=total)


def _sorted_with_multiplicity(op: TruncatedOperator, svd) -> np.ndarray:
    """svd(block, label) of each block, repeated by multiplicity, descending."""
    parts = [np.tile(svd(m, label), mult) for label, m, mult in op.blocks]
    if not parts:
        return np.zeros(0, dtype=np.float64)
    return np.sort(np.concatenate(parts))[::-1]


def _square(label: str, m: np.ndarray) -> np.ndarray:
    """The block as a square matrix for LAPACK: the oracle densifies a
    diagonal itself, under the symbol side's block cap."""
    if m.ndim == 2:
        return m
    check_block_size(label, m.shape * 2)
    return np.diag(m)


def operator_singular_values(op: TruncatedOperator) -> np.ndarray:
    """All singular values of the truncation, descending, with multiplicity:
    LAPACK SVD per block, diagonal blocks densified, each block's values
    repeated by its multiplicity."""
    return _sorted_with_multiplicity(
        op, lambda m, label: np.linalg.svd(_square(label, m), compute_uv=False))


def compare_symbol_vs_oracle(geom: Geometry, spec: SymbolSpec, cutoff: float,
                             cap: int = DEFAULT_CAP) -> dict:
    """Cross-check the symbol-side SVD against the operator-level one.

    Both sides decompose the same materialized blocks into the full
    weighted singular-value list below the cutoff; the lists are sorted and
    compared elementwise relative to the largest oracle value, and their
    total sums relative to the oracle's, both to ORACLE_TOL, so scaling
    the symbol by any c != 0 leaves the verdict as it was.
    The symbol side runs the one-sided Jacobi / Hermitian paths, the
    oracle side LAPACK's SVD.  The symbol side calls LAPACK (eigh) only for
    the Jacobi iteration's unitary start, and its values are the column
    norms that iteration certifies orthogonal, so the two stay independent.
    """
    op = truncate_operator(geom, spec, cutoff, cap=cap)
    oracle_vals = operator_singular_values(op)
    symbol_vals = _sorted_with_multiplicity(op, singular_values)
    if len(symbol_vals) != len(oracle_vals):
        raise ConfigError("internal mismatch: %d symbol-side values vs %d "
                          "oracle-side" % (len(symbol_vals), len(oracle_vals)))
    diff = np.abs(symbol_vals - oracle_vals)
    max_abs = float(diff.max()) if len(diff) else 0.0
    tol = ORACLE_TOL * (float(oracle_vals[0]) if len(oracle_vals) else 0.0)
    first_bad = int(np.argmax(diff > tol)) if np.any(diff > tol) else -1
    sum_sym = math.fsum(symbol_vals)
    sum_orc = math.fsum(oracle_vals)
    denom = max(abs(sum_orc), 1e-300)
    sum_rel = abs(sum_sym - sum_orc) / denom
    passed = max_abs <= tol and sum_rel <= ORACLE_TOL
    return {
        "total_dim": int(len(oracle_vals)),
        "max_abs": max_abs,
        "first_mismatch_rank": first_bad,
        "sum_rel_diff": float(sum_rel),
        "tolerance": ORACLE_TOL,
        "passed": bool(passed),
    }
