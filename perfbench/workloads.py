"""Workloads of the dixtrace benchmark: fixed job lists and their references.

A job is one `dixtrace` CLI invocation.  Every job writes its result JSON
(and, where the command has a series, its CSV) and is checked against its
expected exit code and a reference band.  The bands are closed-form limits
widened to about twice the finite-cutoff error the job shows at its
cutoff, so a correct change of the summation rules (for example an exact
integer cutoff at ties) stays inside them while a lost factor or a wrong
shell does not.  Outputs are never compared bit for bit with earlier runs.

Only `point-blocks` depends on the seed: its su2 matrix table is drawn from
it (see table.py).  The other job lists are the same for every seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import table

# Dixmier traces known in closed form.
TAU_TORUS1_RADIAL1 = 2.0                  # 2 lattice points per shell
TAU_TORUS2_RADIAL2 = math.pi              # area of the unit disc
TAU_TORUS3_RADIAL3 = 4.0 * math.pi / 3.0  # volume of the unit ball
TAU_SU2_BESSEL3 = 8.0 / 3.0               # sum over n of d^2 (d/2)^-3, / 3 log N
TAU_SPHERE3_CLASS_ONE = 1.0 / 3.0         # one class-one vector per level, / 3 log N
TAU_BOUNDARY_INVERSE = 1.0 / math.pi      # |1/lambda_j| ~ 1/(2 pi |j|), two per |j|
GAMMA_TORUS1_MODULUS = 4.0                # 2 sum |k|^-1/2 ~ 4 sqrt N
# Weyl constant of su3: 3^8 times the integral of (u v (u+v)/2)^2 over
# u, v >= 0, u^2 + uv + v^2 <= 1, which evaluates to 27 sqrt(3) pi / 8.
TAU_SU3_RADIAL8 = 27.0 * math.sqrt(3.0) * math.pi / 8.0
KAPPA_SU3 = 8.0

TABLE_NMAX = 20        # trace cutoff of the seeded-table job
ORACLE_CUTOFF = 15.1   # 30 su2 labels, 9455 weighted dimensions (cap 10000)
SUMS_RTOL = 1e-12      # table sums against the bessel:3:2 sums


@dataclass(frozen=True)
class Check:
    """The value at `path` in the result JSON must equal `ref` (rtol None)
    or lie within rtol of it, relative."""

    path: tuple
    ref: object
    rtol: float | None = None


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple
    checks: tuple
    exit_code: int = 0
    series: bool = True    # the command writes a partial-sum CSV
    sums: Callable | None = None   # cutoffs -> reference partial sums


@dataclass(frozen=True)
class Workload:
    jobs: Callable         # (seed, workdir) -> list[Job]
    traced: tuple          # wrapped names that must be called (tracer.WRAPS keys)


def _trace(name, geometry, symbol, nmax, tau, rtol, exit_code=0,
           verdict="convergent", sums=None):
    return Job(name, ("trace", "--geometry", geometry, "--symbol", symbol,
                      "--nmax", nmax),
               (Check(("estimate", "value"), tau, rtol),
                Check(("estimate", "verdict"), verdict)),
               exit_code=exit_code, sums=sums)


# radial-stream: scalar radial symbols on the vectorised shell stream, plus
# the vectorised boundary arrays.  No per-point objects are built, so block
# and lattice optimisations should leave it unchanged.
def _radial_stream(seed: int, workdir: Path) -> list:
    return [
        Job("torus1-modulus-quasinorm",
            ("quasinorm", "--geometry", "torus:1", "--symbol", "modulus:0.5",
             "--p", "2", "--nmax", "1e8"),
            (Check(("gamma",), GAMMA_TORUS1_MODULUS, 5e-4),
             Check(("stable",), True))),
        _trace("su2-bessel", "su2", "bessel:3:2", "1e7", TAU_SU2_BESSEL3, 1e-4),
        Job("boundary-inverse",
            ("boundary", "--boundary-symbol", "inverse", "--nmax", "1e7"),
            (Check(("estimate", "value"), TAU_BOUNDARY_INVERSE, 1e-4),
             Check(("estimate", "verdict"), "convergent"))),
    ]


# point-blocks: matrix symbols on the per-point path, one DualPoint and one
# dense block per label: many 1x1 blocks (torus:1), large masked blocks
# (su2, sphere:3) and non-Hermitian seeded blocks through the Jacobi path,
# whose oracle-check keeps the operator side dense.
def _point_blocks(seed: int, workdir: Path) -> list:
    path = workdir / ("su2-table-seed%d.txt" % seed)
    table.write_table(str(path), seed, table.su2_label_max(TABLE_NMAX))
    oracle_dim = sum((n + 1) ** 2 for n in range(table.su2_label_max(ORACLE_CUTOFF) + 1))
    return [
        _trace("torus1-mask", "torus:1", "mask:radial:1", "1e4",
               TAU_TORUS1_RADIAL1, 5e-3),
        _trace("su2-mask", "su2", "mask:radial:3", "300", TAU_SU2_BESSEL3, 2.5e-2),
        _trace("sphere3-mask", "sphere:3", "mask:radial:3", "40",
               TAU_SPHERE3_CLASS_ONE, 0.1),
        Job("su2-table", ("trace", "--geometry", "su2", "--symbol", "matrix:%s" % path,
                          "--nmax", str(TABLE_NMAX)),
            (Check(("estimate", "verdict"), "convergent"),),
            sums=table.bessel_sums),
        Job("su2-table-oracle",
            ("oracle-check", "--geometry", "su2", "--symbol", "matrix:%s" % path,
             "--cutoff", str(ORACLE_CUTOFF)),
            (Check(("report", "passed"), True),
             Check(("report", "total_dim"), oracle_dim)),
            series=False),
    ]


# lattice-shells: scalar symbols on multi-dimensional duals, where the work
# is building the shells (torus:2 histogram, the torus:3 per-point fallback,
# su3 sort/unique) and the scalar evaluation is cheap.
def _lattice_shells(seed: int, workdir: Path) -> list:
    return [
        _trace("torus2-radial", "torus:2", "radial:2", "4000", TAU_TORUS2_RADIAL2, 5e-4),
        # still growing at this cutoff: flagged divergent, exit 2
        _trace("torus3-radial", "torus:3", "radial:3", "30", TAU_TORUS3_RADIAL3, 1e-2,
               exit_code=2, verdict="divergent"),
        _trace("su3-radial", "su3", "radial:8", "1e3", TAU_SU3_RADIAL8, 2e-3),
        Job("su3-weyl", ("weyl", "--geometry", "su3", "--nmax", "32"),
            (Check(("kappa_hat",), KAPPA_SU3, 1e-2),)),
    ]


_CLI = ("cli.main", "cli.partial_sums", "cli.parse_symbol", "cli.dixmier_estimate")

WORKLOADS = {
    "radial-stream": Workload(
        _radial_stream,
        _CLI + ("cli.quasinorm", "summation.radial_shells", "summation.scalar_values",
                "cli.BoundarySymbol.inverse_spectrum", "cli.boundary_series",
                "cli.boundary_dixmier", "boundary.boundary_series", "boundary._estimate")),
    "point-blocks": Workload(
        _point_blocks,
        _CLI + ("summation.enumerate_dual", "summation.eval_symbol",
                "summation.nuclear_trace_abs", "cli.compare_symbol_vs_oracle",
                "oracle.counting_function", "oracle.enumerate_dual", "oracle.eval_symbol",
                "oracle.singular_values", "oracle.truncate_operator",
                "oracle.operator_singular_values")),
    "lattice-shells": Workload(
        _lattice_shells,
        _CLI + ("summation.radial_shells", "summation.scalar_values",
                "geometry.enumerate_dual", "cli.counting_series",
                "summation.partial_sums", "cli.weyl_fit")),
}


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _close(got, ref, rtol) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and math.isfinite(got) and abs(got - ref) <= rtol * abs(ref))


def check_job(job: Job, code: int, json_path: Path, csv_path: Path | None) -> list:
    """Problems with one job's outputs; an empty list means it passed."""
    problems = []
    if code != job.exit_code:
        problems.append("exit code %d, expected %d" % (code, job.exit_code))
    try:
        with open(json_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return problems + ["no result JSON: %s" % exc]
    for c in job.checks:
        try:
            got = _lookup(doc, c.path)
        except (KeyError, IndexError, TypeError):
            problems.append("result has no %s" % ".".join(c.path))
            continue
        ok = got == c.ref if c.rtol is None else _close(got, c.ref, c.rtol)
        if not ok:
            band = "" if c.rtol is None else " within %g relative" % c.rtol
            problems.append("%s = %r, expected %r%s" % (".".join(c.path), got, c.ref, band))
    if job.sums is not None:
        problems += _check_sums(job, csv_path)
    return problems


def _check_sums(job: Job, csv_path: Path | None) -> list:
    try:
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cutoffs = [float(r["cutoff"]) for r in rows]
        sums = [float(r["sum"]) for r in rows]
    except (OSError, TypeError, KeyError, ValueError) as exc:
        return ["no series CSV: %s" % exc]
    if not rows:
        return ["series CSV is empty"]
    bad = [(c, s, r) for c, s, r in zip(cutoffs, sums, job.sums(cutoffs))
           if not _close(s, r, SUMS_RTOL)]
    return ["S(%r) = %r, reference %r within %g relative" % (c, s, r, SUMS_RTOL)
            for c, s, r in bad[:3]]
