#!/usr/bin/env python3
"""Benchmark of the dixtrace command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  NAME is radial-stream, point-blocks,
lattice-shells or `all`.  The package is imported from `src/`, which the
benchmark puts on PYTHONPATH itself, so nothing needs installing.

--trace 0 measures end to end.  One closed-loop client runs the workload's
fixed job list (workloads.py) one job at a time, each job a fresh
`python -m dixtrace.cli` process, pass after pass until S seconds are
used.  wall_s is the wall time of one pass and cpu_s the children's
user+sys time in it, both summed over the jobs from each job's median
over the passes; peak_rss_mb is the largest of the jobs' median peak RSS.
setup_s is the median wall time of a CLI process that imports everything
and exits (`trace --help`), started several times before the passes.

--trace 1 runs the same jobs in-process through `dixtrace.cli.main`, each
job once plain and once with the layer wrappers of tracer.py installed,
and reports the medians over passes of the per-layer self times and
counters, plus the tracing overhead (traced minus plain wall).

Every job's outputs are checked against its reference (workloads.py); in
the traced run the plain and traced outputs must also match byte for byte.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Metric names and units come from
BENCHMARK.json.  A result record with provenance and every sample goes to
.perfbench/results/, and the spans of the last traced pass to
.perfbench/spans/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_STARTS = 5        # timed `trace --help` starts, after one warm-up start
HARD_LIMIT_S = 170.0    # kill a job that would take the run past this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "DIXTRACE_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, env, log_path: Path, timeout: float):
    """Run `python -m dixtrace.cli ARGS`; return (exit code, wall, cpu, peak RSS MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "dixtrace.cli", *args], cwd=ROOT,
                                env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            raise
        finally:
            killer.cancel()
            killer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def _outputs(job, workdir: Path, tag: str):
    json_path = workdir / ("%s%s.json" % (job.name, tag))
    csv_path = workdir / ("%s%s.csv" % (job.name, tag)) if job.series else None
    args = list(job.args) + ["--out-json", str(json_path)]
    if csv_path is not None:
        args += ["--out-csv", str(csv_path)]
    for p in (json_path, csv_path):
        if p is not None and p.exists():
            p.unlink()
    return args, json_path, csv_path


def _report_failure(job, problems, log_text):
    print("FAILED %s: %s" % (job.name, "; ".join(problems)), file=sys.stderr)
    if log_text:
        print("  output: %s" % log_text.strip()[-400:], file=sys.stderr)


def measure_end_to_end(jobs, workdir: Path, seconds: float, t_start: float) -> dict:
    """wall_s and cpu_s sum each job's median over the passes, and peak_rss_mb
    is the largest of those medians, so one slow job in one pass moves
    nothing; setup_s is the median over the `--help` starts."""
    env = child_env()
    setup = []
    for i in range(SETUP_STARTS + 1):
        code, wall, _cpu, _rss = run_child(["trace", "--help"], env, workdir / "setup.log", 60.0)
        if code != 0:
            raise RuntimeError("`dixtrace.cli trace --help` exited %d" % code)
        if i:
            setup.append(wall)
    samples = {job.name: {"wall_s": [], "cpu_s": [], "peak_rss_mb": []} for job in jobs}
    passes = attempted = failed = 0
    while True:
        t_pass = time.perf_counter()
        for job in jobs:
            args, json_path, csv_path = _outputs(job, workdir, "")
            log_path = workdir / (job.name + ".log")
            timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - t_start))
            code, wall, cpu, rss = run_child(args, env, log_path, timeout)
            for key, value in (("wall_s", wall), ("cpu_s", cpu), ("peak_rss_mb", rss)):
                samples[job.name][key].append(value)
            attempted += 1
            problems = workloads.check_job(job, code, json_path, csv_path)
            if problems:
                failed += 1
                _report_failure(job, problems, log_path.read_text(errors="replace"))
        passes += 1
        now = time.perf_counter()
        if (now - t_start) + (now - t_pass) > seconds:
            break
    med = {name: {k: statistics.median(v) for k, v in s.items()} for name, s in samples.items()}
    values = {"wall_s": sum(m["wall_s"] for m in med.values()),
              "cpu_s": sum(m["cpu_s"] for m in med.values()),
              "peak_rss_mb": max(m["peak_rss_mb"] for m in med.values()),
              "setup_s": statistics.median(setup)}
    counts = dict.fromkeys(values, passes)
    counts["setup_s"] = len(setup)
    samples["setup"] = {"setup_s": setup}
    return {"values": values, "counts": counts, "samples": samples,
            "attempted": attempted, "failed": failed}


def _run_in_process(main, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - t0
    return code, wall, sink.getvalue()


def measure_traced(workload, jobs, workdir: Path, seconds: float, t_start: float) -> dict:
    """Plain and traced in-process runs of every job, pass after pass."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dixtrace.cli as cli

    tr = tracer.Tracer()
    passes = []
    last_spans = []
    attempted = failed = 0
    while True:
        t_pass = time.perf_counter()
        totals = dict.fromkeys(tracer.SPANS, 0.0)
        counts = dict.fromkeys(tracer.COUNTERS, 0)
        overhead = 0.0
        spans_of_pass = []
        for job in jobs:
            plain_args, plain_json, plain_csv = _outputs(job, workdir, ".plain")
            traced_args, traced_json, traced_csv = _outputs(job, workdir, ".traced")
            # in the first pass a warm-up run goes before the timed plain run
            for _ in range(1 if passes else 2):
                _code, plain_wall, _ = _run_in_process(cli.main, plain_args)
            tr.reset()
            tr.install()
            try:
                code, traced_wall, log_text = _run_in_process(cli.main, traced_args)
            finally:
                tr.uninstall()
            overhead += traced_wall - plain_wall
            for name, value in tr.self_times().items():
                totals[name] += value
            for name, value in tr.counters.items():
                counts[name] = max(counts[name], value) if name == "symbol.max_block_d" \
                    else counts[name] + value
            spans_of_pass.append({"job": job.name, "spans": tr.spans})
            attempted += 1
            problems = workloads.check_job(job, code, traced_json, traced_csv)
            for a, b in ((plain_json, traced_json), (plain_csv, traced_csv)):
                if a is not None and (not (a.exists() and b.exists())
                                      or a.read_bytes() != b.read_bytes()):
                    problems.append("traced %s differs from the plain run" % b.name)
            if problems:
                failed += 1
                _report_failure(job, problems, log_text)
        tr.require_calls(workload.traced)
        sample = {name + "_s": value for name, value in totals.items()}
        sample.update(counts)
        sample["bench.tracing_overhead_s"] = overhead
        passes.append(sample)
        last_spans = spans_of_pass
        now = time.perf_counter()
        if (now - t_start) + (now - t_pass) > seconds:
            break
    samples = {k: [p[k] for p in passes] for k in passes[0]}
    return {"values": {k: statistics.median(v) for k, v in samples.items()},
            "counts": dict.fromkeys(samples, len(passes)), "samples": samples,
            "attempted": attempted, "failed": failed, "spans": last_spans}


def write_spans(path: Path, spans_by_job) -> None:
    """Spans as [name, start, end, parent] with times relative to each job's root."""
    doc = []
    for entry in spans_by_job:
        base = entry["spans"][0][1] if entry["spans"] else 0.0
        doc.append({"job": entry["job"],
                    "spans": [[n, round(t0 - base, 9), round(t1 - base, 9), p]
                              for n, t0, t1, p in entry["spans"]]})
    path.write_text(json.dumps(doc, separators=(",", ":")))


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
            "seed": seed}


def load_metric_units(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    t_start = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    workdir = OUT / ("work-%s-seed%d-trace%d-%d" % (name, seed, trace, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workload.jobs(seed, workdir)
        if trace:
            res = measure_traced(workload, jobs, workdir, seconds, t_start)
        else:
            res = measure_end_to_end(jobs, workdir, seconds, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(res["values"]))
    if missing:
        raise RuntimeError("benchmark produced no value for %s" % ", ".join(missing))
    metrics = {m: {"value": res["values"][m], "unit": units[m]} for m in units}
    print("workload %s  seed %d  %s  %d jobs per pass" % (
        name, seed, "traced in-process" if trace else "end to end", len(jobs)))
    for m in units:
        print("  %-28s %14.6g %-6s median of %d %s" % (
            m, metrics[m]["value"], units[m], res["counts"][m],
            "starts" if m == "setup_s" else "passes"))
    share = res["failed"] / res["attempted"]
    print("  %-28s %14.6g %-6s %d of %d jobs" % ("failed_share", share, "1",
                                                 res["failed"], res["attempted"]))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "trace": trace, "seconds": seconds,
              "provenance": provenance(seed), "metrics": metrics,
              "samples": res["samples"], "attempted": res["attempted"],
              "failed": res["failed"], "failed_share": share}
    tag = "%s-seed%d-trace%d" % (name, seed, trace)
    (OUT / "results" / (tag + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        write_spans(OUT / "spans" / (tag + ".json"), res["spans"])
    return {"attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dixtrace" / "cli.py").is_file():
        print("error: %s holds no dixtrace sources; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = load_metric_units(trace)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, trace, units) for n in names}
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {"%s.%s" % (n, m): v for n, r in results.items()
                   for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
