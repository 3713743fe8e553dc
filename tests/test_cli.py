import json
import math
from pathlib import Path

import numpy as np
import pytest

from dixtrace.boundary import BoundarySymbol
from dixtrace.cli import main
from dixtrace.summation import PartialSumSeries


def run(*argv):
    return main(list(argv))


def test_trace_convergent_exits_zero(tmp_path, capsys):
    out_json = str(tmp_path / "r.json")
    out_csv = str(tmp_path / "r.csv")
    code = run("trace", "--geometry", "torus:1", "--symbol", "bessel:1:2",
               "--nmax", "1e4", "--out-json", out_json, "--out-csv", out_csv)
    assert code == 0
    text = capsys.readouterr().out
    assert "convergent" in text
    doc = json.loads(Path(out_json).read_text())
    assert doc["schema_version"] == 1
    assert doc["command"] == "trace"
    assert doc["estimate"]["verdict"] == "convergent"
    assert doc["estimate"]["value"] == pytest.approx(2.0, rel=0.02)


def test_trace_divergent_exits_two(capsys):
    code = run("trace", "--geometry", "torus:1", "--symbol", "radial:0",
               "--nmax", "1e4")
    assert code == 2
    assert "divergent" in capsys.readouterr().out


def test_series_csv_round_trips(tmp_path):
    out_csv = str(tmp_path / "series.csv")
    run("trace", "--geometry", "torus:1", "--symbol", "radial:1",
        "--nmax", "1e4", "--out-csv", out_csv)
    back = PartialSumSeries.from_csv(out_csv)
    assert len(back) > 10
    assert back.cutoffs[-1] == 1e4
    header = Path(out_csv).read_text().splitlines()[0]
    assert header == "cutoff,count,sum,f"


def test_quasinorm_domain_error_exits_one(capsys):
    code = run("quasinorm", "--geometry", "torus:1", "--symbol", "radial:1",
               "--p", "0.5", "--nmax", "1e4")
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_quasinorm_stable_and_unstable(tmp_path, capsys):
    code = run("quasinorm", "--geometry", "torus:1", "--symbol", "modulus:0.5",
               "--p", "2", "--nmax", "1e6")
    assert code == 0
    code2 = run("quasinorm", "--geometry", "torus:1", "--symbol", "radial:0",
                "--p", "2", "--nmax", "1e6")
    assert code2 == 2


def test_missing_required_flag_exits_one(capsys):
    assert run("trace", "--symbol", "radial:1") == 1
    assert "geometry" in capsys.readouterr().err


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        run("trace", "--nmax")  # flag without value
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc2:
        run("no-such-command")
    assert exc2.value.code == 1


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"geometry": "torus:1", "symbol": "radial:0",
                               "nmax": 1e4}))
    # flag overrides the config's divergent symbol
    code = run("trace", "--config", str(cfg), "--symbol", "bessel:1:2")
    assert code == 0
    # config alone drives a full run
    assert run("trace", "--config", str(cfg)) == 2
    capsys.readouterr()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"geometry": "torus:1", "symbl": "radial:1"}))
    assert run("trace", "--config", str(cfg)) == 1
    assert "symbl" in capsys.readouterr().err


def test_residue_from_samples_file(tmp_path, capsys):
    samples = tmp_path / "dens.txt"
    samples.write_text("0.5 1.5\n2.0 0.0\n")
    out_json = str(tmp_path / "res.json")
    code = run("residue", "--geometry", "torus:1", "--symbol", "bessel:1:2",
               "--nmax", "1e4", "--density-samples-file", str(samples),
               "--out-json", out_json)
    assert code == 0
    doc = json.loads(Path(out_json).read_text())
    assert doc["a_integral"] == pytest.approx(1.0)
    assert doc["estimate"]["value"] == pytest.approx(2.0, rel=0.02)


def test_residue_requires_exactly_one_density_source(tmp_path, capsys):
    samples = tmp_path / "dens.txt"
    samples.write_text("1.0\n")
    code = run("residue", "--geometry", "torus:1", "--symbol", "bessel:1:2",
               "--nmax", "1e4", "--a-integral", "1.0",
               "--density-samples-file", str(samples))
    assert code == 1
    assert run("residue", "--geometry", "torus:1", "--symbol", "bessel:1:2",
               "--nmax", "1e4") == 1
    capsys.readouterr()


def test_weyl_command(tmp_path, capsys):
    out_json = str(tmp_path / "w.json")
    code = run("weyl", "--geometry", "su2", "--nmax", "512",
               "--out-json", out_json)
    assert code == 0
    doc = json.loads(Path(out_json).read_text())
    assert doc["kappa_hat"] == pytest.approx(3.0, rel=0.03)


def test_boundary_and_parametrix_agree(tmp_path, capsys):
    j1 = str(tmp_path / "b.json")
    j2 = str(tmp_path / "p.json")
    a = repr(-math.e)
    assert run("boundary", "--a", a, "--b", "1", "--nmax", "1e4",
               "--out-json", j1) == 0
    assert run("parametrix", "--a", a, "--b", "1", "--nmax", "1e4",
               "--out-json", j2) == 0
    v1 = json.loads(Path(j1).read_text())["estimate"]["value"]
    v2 = json.loads(Path(j2).read_text())["estimate"]["value"]
    assert v1 == v2
    assert v1 == pytest.approx(1 / math.pi, rel=0.02)
    capsys.readouterr()


def test_boundary_eigenvalue_cutoff(capsys):
    code = run("boundary", "--a", repr(-math.e), "--b", "1", "--nmax", "1e4",
               "--cutoff-kind", "eigenvalue", "--kappa", "1")
    assert code == 0
    assert "lambda" in capsys.readouterr().out


def test_boundary_symbol_table(tmp_path, capsys):
    path = tmp_path / "sym.txt"
    rows = ["%d %.17g 0 1 0" % (j, 2 * math.pi * j)
            for j in range(1, 40)] + ["%d %.17g 0 1 0" % (-j, -2 * math.pi * j)
                                      for j in range(1, 40)]
    path.write_text("0 0 -1 1 0\n" + "\n".join(rows) + "\n")
    code = run("boundary", "--boundary-symbol", "table:%s" % path,
               "--nmax", "64")
    assert code == 2  # constant symbol values diverge under index cutoffs
    capsys.readouterr()


def test_oracle_check_passes(tmp_path, capsys):
    out_json = str(tmp_path / "o.json")
    code = run("oracle-check", "--geometry", "torus:1", "--symbol",
               "bessel:1:2", "--cutoff", "50", "--out-json", out_json)
    assert code == 0
    doc = json.loads(Path(out_json).read_text())
    assert doc["report"]["passed"] is True
    assert doc["report"]["max_abs"] < 1e-10


def test_oracle_check_cap_error(capsys):
    code = run("oracle-check", "--geometry", "torus:1", "--symbol", "radial:1",
               "--cutoff", "100000")
    assert code == 1
    capsys.readouterr()
    # sphere:3 masks to 1 x 1 corners: the 2870 eigenvalues below 20 are
    # the whole truncation, within the default cap
    sphere3 = ("oracle-check", "--geometry", "sphere:3", "--symbol", "radial:3",
               "--cutoff", "20")
    assert run(*sphere3, "--cap", "2000") == 1
    assert "cap >= 2870" in capsys.readouterr().err
    assert run(*sphere3) == 0
    assert "2870 singular values" in capsys.readouterr().out


def test_s0_check_exit_codes(capsys):
    base = ["s0-check", "--a", repr(-math.e), "--b", "1", "--nmax", "2048"]
    assert run(*base, "--s-grid", "0,1,2") == 0
    assert run(*base, "--s-grid", "0,1") == 2
    assert run(*base, "--s-grid", "two") == 1
    capsys.readouterr()


def test_threads_env_var(tmp_path, monkeypatch, capsys):
    # a diag: table runs per point, where the thread fan-out lives; it holds
    # the radial:3 values (1+lambda)^(-3/2) on su2 labels n <= 198
    table = tmp_path / "su2-radial3.txt"
    rows = ("%d\n%s\n" % (n, " ".join([repr((1.0 + n * (n + 2) / 4.0) ** -1.5)] * (n + 1)))
            for n in range(199))
    table.write_text("".join(rows))
    symbol = "diag:%s" % table
    monkeypatch.setenv("DIXTRACE_THREADS", "2")
    assert run("trace", "--geometry", "su2", "--symbol", symbol,
               "--nmax", "100") == 0
    monkeypatch.setenv("DIXTRACE_THREADS", "lots")
    assert run("trace", "--geometry", "su2", "--symbol", symbol,
               "--nmax", "100") == 1
    capsys.readouterr()


def test_oversized_block_exits_one(tmp_path, capsys):
    # file spectra keep masks per point; the d = 10**6 label must fail on the
    # block size cap before any block of that size is allocated
    spec = tmp_path / "spec.txt"
    spec.write_text("a 3 3 0.0\nhuge 1000000 1000000 2.0\n")
    code = run("trace", "--geometry", "file:%s" % spec, "--dim", "1",
               "--symbol", "mask:radial:3", "--nmax", "100")
    assert code == 1
    assert "1000000 x 1000000" in capsys.readouterr().err


def test_non_finite_streamed_mask_exits_one(capsys):
    # the streamed mask path keeps the non-finite check of the block path
    with np.errstate(over="ignore"):
        code = run("trace", "--geometry", "su2", "--symbol", "mask:radial:-10000",
                   "--nmax", "20")
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


def test_streamed_scaled_mask_exits_zero(capsys):
    # scaled: around a mask streams by shell on sphere:3; per point the
    # degree-99 label would need a 10000 x 10000 block, above the cap
    assert run("trace", "--geometry", "sphere:3", "--symbol", "scaled:2:mask:radial:3",
               "--nmax", "100") == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("trace", "--geometry", "su2", "--symbol", "radial:3"),
    ("weyl", "--geometry", "su2"),
    ("boundary", "--cutoff-kind", "eigenvalue")])
def test_non_finite_nmax_exits_one(capsys, argv):
    assert run(*argv, "--nmax", "inf") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_oversized_boundary_exits_one(capsys):
    # 1e12 points: the size guard fires before any array is allocated
    assert run("boundary", "--nmax", "1e12") == 1
    assert "above the cap" in capsys.readouterr().err
    # N^m itself overflows a float
    assert run("boundary", "--cutoff-kind", "eigenvalue", "--order", "2",
               "--nmax", "1e200") == 1
    assert "overflows" in capsys.readouterr().err


def test_oversized_lattice_exits_one(capsys):
    # about 5e8 su3 labels at N = 1e4: refused before the first window
    assert run("trace", "--geometry", "su3", "--symbol", "radial:8", "--nmax", "1e4") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "labels" in err[0]


def test_boundary_symbol_one_streams(tmp_path, capsys, monkeypatch):
    # sigma = 1 is a closed form: no per-label callable, sums equal counts
    def refuse(*args):
        raise AssertionError("sigma = 1 went through from_callable")

    monkeypatch.setattr(BoundarySymbol, "from_callable", staticmethod(refuse))
    out_csv = str(tmp_path / "one.csv")
    assert run("boundary", "--boundary-symbol", "one", "--nmax", "1e5",
               "--out-csv", out_csv) == 2  # a constant diverges
    capsys.readouterr()
    back = PartialSumSeries.from_csv(out_csv)
    np.testing.assert_array_equal(back.counts, np.floor(back.cutoffs) + 1)
    np.testing.assert_array_equal(back.sums, back.counts)
