"""Self-tests of the benchmark: python -m pytest perfbench -q

They run small versions of the workload jobs in-process, so they finish in
a few seconds and do not touch the benchmark's timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import table  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Check, Job  # noqa: E402

import dixtrace.cli as cli  # noqa: E402


def _small_jobs(tmp_path):
    """One small job per path the workloads take."""
    path = tmp_path / "table.txt"
    table.write_table(str(path), 3, table.su2_label_max(6.0))
    return [
        workloads._trace("su2-bessel", "su2", "bessel:3:2", "1e4",
                         workloads.TAU_SU2_BESSEL3, 1e-2),
        Job("boundary", ("boundary", "--boundary-symbol", "inverse", "--nmax", "1e4"), ()),
        Job("quasinorm", ("quasinorm", "--geometry", "torus:1", "--symbol", "modulus:0.5",
                          "--p", "2", "--nmax", "1e5"), ()),
        workloads._trace("torus1-mask", "torus:1", "mask:radial:1", "300",
                         workloads.TAU_TORUS1_RADIAL1, 5e-2),
        Job("sphere3-mask", ("trace", "--geometry", "sphere:3", "--symbol",
                             "mask:radial:3", "--nmax", "12"), ()),
        # still growing at this cutoff, so flagged divergent
        Job("su2-table", ("trace", "--geometry", "su2", "--symbol", "matrix:%s" % path,
                          "--nmax", "6"), (), exit_code=2, sums=table.bessel_sums),
        Job("oracle", ("oracle-check", "--geometry", "su2", "--symbol", "matrix:%s" % path,
                       "--cutoff", "5"), (Check(("report", "passed"), True),), series=False),
        Job("torus3", ("trace", "--geometry", "torus:3", "--symbol", "radial:3",
                       "--nmax", "8"), (), exit_code=2),
        Job("weyl", ("weyl", "--geometry", "su3", "--nmax", "16"), ()),
    ]


def _run(job, tmp_path, tag, tr=None):
    out_json = tmp_path / ("%s.%s.json" % (job.name, tag))
    out_csv = tmp_path / ("%s.%s.csv" % (job.name, tag)) if job.series else None
    argv = list(job.args) + ["--out-json", str(out_json)]
    if out_csv is not None:
        argv += ["--out-csv", str(out_csv)]
    if tr is not None:
        tr.reset()
        tr.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        if tr is not None:
            tr.uninstall()
    return code, out_json, out_csv


def test_same_seed_gives_same_table_bytes(tmp_path):
    paths = [tmp_path / name for name in ("a.txt", "b.txt", "c.txt")]
    for path, seed in zip(paths, (11, 11, 12)):
        table.write_table(str(path), seed, 8)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_table_block_has_the_bessel_nuclear_norm():
    for n, block in table.table_blocks(5, 6):
        d = n + 1
        s = np.linalg.svd(block, compute_uv=False)
        assert math.isclose(s.sum(), d * (1.0 + table.su2_eigenvalue(n)) ** -1.5,
                            rel_tol=1e-13)


def test_traced_and_plain_runs_agree_byte_for_byte_and_pass_checks(tmp_path):
    tr = tracer.Tracer()
    for job in _small_jobs(tmp_path):
        code, plain_json, plain_csv = _run(job, tmp_path, "plain")
        code_t, traced_json, traced_csv = _run(job, tmp_path, "traced", tr)
        assert code == code_t == job.exit_code, job.name
        assert plain_json.read_bytes() == traced_json.read_bytes(), job.name
        if job.series:
            assert plain_csv.read_bytes() == traced_csv.read_bytes(), job.name
        assert workloads.check_job(job, code_t, traced_json, traced_csv) == [], job.name
    # every wrapped name was reached by some small job except the unused
    # boundary constructors and commands
    unused = {k for k, n in tr.calls.items() if n == 0}
    assert unused <= {"cli.BoundarySymbol.spectrum_symbol", "cli.BoundarySymbol.from_callable",
                      "cli.BoundarySymbol.from_file", "cli.boundary_weyl_series",
                      "cli.boundary_dixmier_weyl", "cli.parametrix_trace",
                      "cli.residue_factored", "boundary.boundary_weyl_series"}


def test_self_times_add_up_to_the_root_span(tmp_path):
    tr = tracer.Tracer()
    for job in _small_jobs(tmp_path):
        _run(job, tmp_path, "traced", tr)
        assert tr.spans[0][0] == "cli.self" and tr.spans[0][3] == -1
        total = sum(tr.self_times().values())
        assert math.isclose(total, tr.root_seconds(), rel_tol=1e-9, abs_tol=1e-9), job.name


def test_generator_spans_nest_under_their_consumer(tmp_path):
    tr = tracer.Tracer()
    job = _small_jobs(tmp_path)[-2]  # torus:3 shells built from the dual stream
    _run(job, tmp_path, "traced", tr)
    names = [s[0] for s in tr.spans]
    parents = {names[s[3]] for s in tr.spans if s[0] == "geometry.enumerate"}
    assert parents == {"geometry.shells"}
    assert tr.counters["geometry.points"] > 0 and tr.counters["geometry.chunks"] == 1


def test_checker_counts_a_perturbed_tau_as_failure(tmp_path):
    job = _small_jobs(tmp_path)[0]
    code, out_json, out_csv = _run(job, tmp_path, "plain")
    assert workloads.check_job(job, code, out_json, out_csv) == []
    doc = json.loads(out_json.read_text())
    doc["estimate"]["value"] *= 1.05
    out_json.write_text(json.dumps(doc))
    problems = workloads.check_job(job, code, out_json, out_csv)
    assert len(problems) == 1 and "estimate.value" in problems[0]
    assert workloads.check_job(job, 2, out_json, out_csv)[0].startswith("exit code 2")


def test_checker_compares_table_sums_with_the_bessel_sums(tmp_path):
    job = _small_jobs(tmp_path)[5]
    code, out_json, out_csv = _run(job, tmp_path, "plain")
    assert workloads.check_job(job, code, out_json, out_csv) == []
    lines = out_csv.read_text().splitlines()
    cut, count, s, f = lines[-1].split(",")
    lines[-1] = ",".join((cut, count, repr(float(s) * (1 + 1e-11)), f))
    out_csv.write_text("\n".join(lines) + "\n")
    assert len(workloads.check_job(job, code, out_json, out_csv)) == 1


def test_tracer_fails_loudly(monkeypatch):
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError, match="zero calls"):
        tr.require_calls(["cli.main"])
    monkeypatch.delattr(cli, "partial_sums")
    with pytest.raises(RuntimeError, match="no longer exists"):
        tr.install()
    assert not hasattr(cli.parse_symbol, "__wrapped__")


def test_every_workload_expects_only_wrapped_names():
    for name, workload in workloads.WORKLOADS.items():
        assert set(workload.traced) <= set(tracer.WRAPS), name


def test_benchmark_json_lists_every_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in doc["per_layer"]}
    produced = {s + "_s" for s in tracer.SPANS} | set(tracer.COUNTERS)
    assert per_layer == produced | {"bench.tracing_overhead_s"}
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb",
                                                      "setup_s"}
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
