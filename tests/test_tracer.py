"""The benchmark's traced run wraps dixtrace names by their import path
(perfbench/tracer.py).  A renamed or moved binding must fail here, not only
when the traced benchmark runs."""

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
