"""The benchmark's traced run wraps dixtrace names by their import path
(perfbench/tracer.py).  A renamed or moved binding must fail here, not only
when the traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer):
    return {key: vars(owner)[attr]
            for key, (owner, attr) in ((k, tracer._resolve(k)) for k in tracer.WRAPS)}


def test_tracer_install_resolves_every_name_and_uninstall_restores():
    tracer = load_tracer()
    before = bindings(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = bindings(tracer)
    finally:
        t.uninstall()
    assert all(wrapped[key] is not before[key] for key in before)
    assert all(raw is before[key] for key, raw in bindings(tracer).items())


def test_boundary_job_calls_every_traced_boundary_name(tmp_path, monkeypatch):
    # radial-stream's traced run fails on a required name with zero calls;
    # run its boundary job at a small cutoff under the tracer
    monkeypatch.syspath_prepend(str(TRACER_PATH.parent))
    workloads = importlib.import_module("workloads")
    from dixtrace import cli

    workload = workloads.WORKLOADS["radial-stream"]
    job, = [j for j in workload.jobs(0, tmp_path) if j.args[0] == "boundary"]
    args = list(job.args)
    args[args.index("--nmax") + 1] = "1e4"
    names = [k for k in workload.traced if "oundary" in k]
    assert len(names) == 5
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(args + ["--out-json", str(tmp_path / "b.json")]) == 0
    finally:
        t.uninstall()
    t.require_calls(names)
