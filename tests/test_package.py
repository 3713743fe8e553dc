"""The package's import surface and the command line's process setup, each
checked in a fresh interpreter, since both act at import time."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dixtrace
from dixtrace.errors import count_text

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
TIMEOUT_VARS = ("OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")


def fresh(code, **env):
    """Run code in a new interpreter with src on the path and neither BLAS
    timeout variable set unless given; return its stdout parsed as JSON."""
    base = {k: v for k, v in os.environ.items() if k not in TIMEOUT_VARS}
    base["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, base.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                         capture_output=True, text=True, timeout=60, check=True)
    return json.loads(out.stdout)


def test_import_loads_no_submodule_and_no_numpy():
    loaded = fresh("import json, sys, dixtrace\n"
                   "print(json.dumps(sorted(m for m in sys.modules\n"
                   "    if m == 'numpy' or m.startswith('dixtrace.'))))")
    assert loaded == []


def test_cli_import_loads_no_quadrature_or_reference_package():
    # the Euler-Maclaurin tail imports numpy.polynomial when it runs, so no
    # start (`--help` included) pays for it, nor for the packages tests use
    loaded = fresh("import json, sys, dixtrace.cli\n"
                   "print(json.dumps(sorted(m for m in sys.modules\n"
                   "    if m.split('.')[0] in ('mpmath', 'scipy', 'sympy')\n"
                   "    or m.startswith('numpy.polynomial'))))")
    assert loaded == []


def test_exported_names_resolve_to_their_defining_objects():
    bad = fresh("import importlib, json, dixtrace\n"
                "print(json.dumps([n for n in dixtrace.__all__\n"
                "    if getattr(dixtrace, n) is not getattr(importlib.import_module(\n"
                "        'dixtrace.' + dixtrace._MODULE_OF[n]), n)]))")
    assert bad == []


def test_dir_lists_every_exported_name():
    missing = fresh("import json, dixtrace\n"
                    "print(json.dumps(sorted(set(dixtrace.__all__) - set(dir(dixtrace)))))")
    assert missing == []


def test_readme_lists_the_exported_names():
    # each bullet under "The public names" is `module`: then its names; a
    # method of a listed class, such as PartialSumSeries.to_csv, may appear
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("The public names are those of", 1)[1].split("\n\n", 2)[1]
    listed = {}
    for bullet in section.split("\n- "):
        module, *names = re.findall(r"`(\w+)`", bullet)
        classes = [c for c in (getattr(dixtrace, n, None) for n in names) if isinstance(c, type)]
        for n in names:
            if not any(hasattr(c, n) for c in classes):
                listed[n] = module
    assert listed == dixtrace._MODULE_OF


def test_every_exported_function_has_a_caller_outside_the_unit_tests():
    # a function the package exports is called by the command line, the
    # benchmark or the acceptance tests; classes (errors among them) and the
    # golden reference formulas are exempt
    callers = [ROOT / "src" / "dixtrace" / "cli.py", ROOT / "tests" / "test_acceptance.py",
               *sorted((ROOT / "perfbench").glob("*.py"))]
    text = "\n".join(path.read_text(encoding="utf-8") for path in callers)
    functions = [n for n in dixtrace.__all__ if dixtrace._MODULE_OF[n] != "golden"
                 and not isinstance(getattr(dixtrace, n), type)]
    assert functions
    assert [n for n in functions if not re.search(r"\b%s\b" % n, text)] == []


def test_unknown_attribute_raises_attribute_error():
    result = fresh("import json, dixtrace\n"
                   "try:\n"
                   "    dixtrace.no_such_name\n"
                   "except AttributeError as exc:\n"
                   "    print(json.dumps(str(exc)))\n"
                   "else:\n"
                   "    print(json.dumps(None))")
    assert result == "module 'dixtrace' has no attribute 'no_such_name'"


def test_submodules_still_resolve():
    names = fresh("import json, dixtrace\n"
                  "from dixtrace import golden\n"
                  "print(json.dumps([golden.__name__, dixtrace.summation.__name__]))")
    assert names == ["dixtrace.golden", "dixtrace.summation"]


_TIMEOUTS = "import json, os, dixtrace.cli\nprint(json.dumps([os.environ.get(v) for v in %r]))" \
    % (TIMEOUT_VARS,)


@pytest.mark.parametrize("preset, expected", [
    ({}, ["20", None]),
    ({"OPENBLAS_THREAD_TIMEOUT": "28"}, ["28", None]),
    ({"GOTO_THREAD_TIMEOUT": "28"}, [None, "28"]),
])
def test_cli_sets_the_blas_timeout_unless_the_user_did(preset, expected):
    assert fresh(_TIMEOUTS, **preset) == expected


def test_cli_sets_the_blas_timeout_before_numpy_loads():
    order = fresh("import json, os, sys, builtins\n"
                  "seen = []\n"
                  "real = builtins.__import__\n"
                  "def spy(name, *a, **k):\n"
                  "    if name == 'numpy' and 'numpy' not in sys.modules:\n"
                  "        seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
                  "    return real(name, *a, **k)\n"
                  "builtins.__import__ = spy\n"
                  "import dixtrace.cli\n"
                  "print(json.dumps(seen[:1]))")
    assert order == ["20"]


@pytest.mark.parametrize("n, text", [
    (0, "0"), (1073741824, "1073741824"), (10 ** 15 - 1, "999999999999999"),
    (10 ** 15, "1.0e+15"), (1999999999999999, "2.0e+15"),
    (2 * 10 ** 300 - 1, "2.0e+300"), (8 * 10 ** 900 + 12345, "8.0e+900"),
])
def test_count_text_is_exact_below_1e15_and_scientific_above(n, text):
    assert count_text(n) == text
