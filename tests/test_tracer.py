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


def test_every_workload_calls_its_traced_names(tmp_path, monkeypatch):
    # a workload's traced run fails on a required name with zero calls; run
    # each workload's jobs at small cutoffs under the tracer (a divergent
    # verdict, exit 2, is fine at these cutoffs)
    monkeypatch.syspath_prepend(str(TRACER_PATH.parent))
    workloads = importlib.import_module("workloads")
    from dixtrace import cli

    tracer = load_tracer()
    for name, workload in workloads.WORKLOADS.items():
        t = tracer.Tracer()
        t.install()
        try:
            for i, job in enumerate(workload.jobs(0, tmp_path)):
                args = list(job.args)
                if "--nmax" in args:
                    k = args.index("--nmax") + 1
                    args[k] = repr(min(float(args[k]), 200.0))
                out = str(tmp_path / ("%s-%d.json" % (name, i)))
                assert cli.main(args + ["--out-json", out]) in (0, 2), (name, job.name)
        finally:
            t.uninstall()
        t.require_calls(workload.traced)
