import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dixtrace import boundary
from dixtrace.boundary import BoundarySymbol
from dixtrace.cli import _COMMANDS, _parse, main
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


def test_oversized_grid_exits_one(capsys):
    assert run("trace", "--geometry", "torus:1", "--symbol", "radial:1",
               "--points-per-octave", "100000000") == 1
    assert "cutoffs is above the cap" in capsys.readouterr().err


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


def test_density_samples_file_is_read_in_constant_memory(tmp_path, capsys):
    # 1e6 samples, one per line: the mean is folded while the file is read
    samples = tmp_path / "dens.txt"
    values = [0.25, 1.5, 0.125, 2.0]
    samples.write_text("".join("%r\n" % v for v in values) * 250_000)
    out_json = tmp_path / "res.json"
    tracemalloc.start()
    try:
        code = run("residue", "--geometry", "torus:1", "--symbol", "bessel:1:2",
                   "--nmax", "64", "--density-samples-file", str(samples),
                   "--out-json", str(out_json))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    capsys.readouterr()
    assert peak < 2 ** 20
    assert json.loads(out_json.read_text())["a_integral"] == math.fsum(values) / 4


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


def test_residue_runs_on_spheres(tmp_path, capsys):
    # Connes' res = Tr_w scaling holds on every closed manifold, the
    # spheres' masked blocks included
    base = ["--geometry", "sphere:3", "--symbol", "radial:3", "--nmax", "40"]
    trace_json = str(tmp_path / "t.json")
    res_json = str(tmp_path / "r.json")
    assert run("trace", *base, "--out-json", trace_json) == 0
    assert run("residue", *base, "--a-integral", "1", "--out-json", res_json) == 0
    capsys.readouterr()
    assert _estimate(res_json) == _estimate(trace_json)


@pytest.mark.parametrize("a_integral, samples, message", [
    ("inf", None, "density integral must be finite, got inf"),
    ("nan", None, "density integral must be finite, got nan"),
    (None, "1.0 nan\n", "density integral must be finite, got nan"),
    (None, "1.0 x\n", "density samples file {path}: could not convert string "
                      "to float: 'x'")])
def test_residue_refuses_a_non_finite_density(tmp_path, capsys, a_integral,
                                               samples, message):
    path = tmp_path / "dens.txt"
    if samples is None:
        density = ["--a-integral", a_integral]
    else:
        path.write_text(samples)
        density = ["--density-samples-file", str(path)]
    out_json = tmp_path / "r.json"
    code = run("residue", "--geometry", "torus:1", "--symbol", "bessel:1:2",
               "--nmax", "1e3", *density, "--out-json", str(out_json))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message.format(path=path)
    assert not out_json.exists()


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


@pytest.mark.parametrize("nu", ["0", "-1", "nan"])
def test_bessel_with_a_non_positive_nu_exits_one(capsys, nu):
    code = run("trace", "--geometry", "su2", "--symbol", "bessel:3:%s" % nu, "--nmax", "100")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: bessel nu must be positive, got %s" % float(nu))


def test_oracle_check_cap_error(capsys):
    code = run("oracle-check", "--geometry", "torus:1", "--symbol", "radial:1",
               "--cutoff", "100000")
    assert code == 1
    capsys.readouterr()
    # sphere:3 masks to 1 x 1 corners: the 2870 eigenvalues below 20 are
    # the whole truncation, within the default cap
    sphere3 = ("oracle-check", "--geometry", "sphere:3", "--symbol", "radial:3",
               "--cutoff", "20")
    assert run(*sphere3, "--cap", "2869") == 1
    assert "cap >= 2870" in capsys.readouterr().err
    assert run(*sphere3) == 0
    assert "2870 singular values" in capsys.readouterr().out


def test_s0_check_exit_codes(capsys):
    base = ["s0-check", "--a", repr(-math.e), "--b", "1", "--nmax", "2048"]
    assert run(*base, "--s-grid", "0,1,2") == 0
    assert run(*base, "--s-grid", "0,1") == 2
    assert run(*base, "--s-grid", "two") == 1
    capsys.readouterr()


@pytest.mark.parametrize("s_grid, message", [
    (",", "s grid is empty"),
    ("nan", "s grid must be finite"),
    ("0,inf", "s grid must be finite"),
    ("1,1", "s grid must be strictly increasing")])
def test_s0_check_refuses_a_bad_grid(capsys, s_grid, message):
    assert run("s0-check", "--nmax", "2048", "--s-grid", s_grid) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s" % message)


def test_torus_ball_guard_says_to_lower_the_cutoff(capsys):
    # torus:3 streams its enumerated points already; past the point cap the
    # only way on is a lower cutoff
    code = run("trace", "--geometry", "torus:3", "--symbol", "radial:3", "--nmax", "300")
    assert code == 1
    err = capsys.readouterr().err
    assert "(cap 50000000); lower the cutoff" in err
    assert "radial summation path" not in err


def test_oversized_block_exits_one(tmp_path, capsys):
    # a mask of a scalar streams on file spectra too, so the d = 10**6
    # label builds no block and the run succeeds
    spec = tmp_path / "spec.txt"
    spec.write_text("a 3 3 0.0\nhuge 1000000 1000000 2.0\n")
    code = run("trace", "--geometry", "file:%s" % spec, "--dim", "1",
               "--symbol", "mask:radial:3", "--nmax", "100")
    assert code == 0
    capsys.readouterr()
    # the oracle densifies a d = 3000 diagonal for LAPACK: 3000 x 3000 is
    # above the block cap, refused before it is allocated
    spec.write_text("big 3000 3000 2.0\n")
    code = run("oracle-check", "--geometry", "file:%s" % spec, "--symbol", "radial:3",
               "--cutoff", "10", "--cap", "5000")
    assert code == 1
    assert "3000 x 3000" in capsys.readouterr().err


def test_non_finite_streamed_mask_exits_one(capsys):
    # the streamed mask path keeps the non-finite check of the block path,
    # and numpy's overflow warning stays off stderr
    code = run("trace", "--geometry", "su2", "--symbol", "mask:radial:-10000", "--nmax", "20")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "non-finite" in err


def _trace_json(tmp_path, capsys, symbol, nmax):
    out_json = tmp_path / "r.json"
    assert run("trace", "--geometry", "su2", "--symbol", symbol, "--nmax", nmax,
               "--out-json", str(out_json)) == 0
    capsys.readouterr()
    return json.loads(out_json.read_text())["estimate"]


@pytest.mark.parametrize("c", [1e100, 1e-100])
def test_scaled_matrix_symbol_keeps_its_trace(tmp_path, capsys, c):
    # blocks U diag(s) V^H, s_i = (2i+1)/d (1+lambda)^-1.5, take the Jacobi
    # path; scaled by 1e100 their squared column norms overflowed and went
    # unrotated, scaled by 1e-100 they were taken for Hermitian
    rng = np.random.default_rng(11)
    path = tmp_path / "t.txt"
    with open(path, "w", encoding="utf-8") as fh:
        for n in range(39):  # the su2 labels to N = 20
            d = n + 1
            u, v = (np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
                    for _ in range(2))
            s = (2 * np.arange(d) + 1) / d * (1 + n * (n + 2) / 4) ** -1.5
            fh.write("%d\n" % n)
            for row in ((u * s) @ v.conj().T).tolist():
                fh.write(" ".join("%.17g%+.17gi" % (z.real, z.imag) for z in row) + "\n")
    want = _trace_json(tmp_path, capsys, "matrix:%s" % path, "20")["value"]
    got = _trace_json(tmp_path, capsys, "scaled:%r:matrix:%s" % (c, path), "20")["value"]
    assert got == pytest.approx(c * want, rel=1e-12)


def test_fit_residual_of_a_huge_series_is_finite(tmp_path, capsys):
    # the residuals are squared scaled to order one, so near 1e300 they
    # neither overflow (pytest turns numpy's warning into an error) nor
    # lose their digits
    want = _trace_json(tmp_path, capsys, "radial:3", "100")["fit_residual"]
    got = _trace_json(tmp_path, capsys, "scaled:1e300:radial:3", "100")["fit_residual"]
    assert got == pytest.approx(1e300 * want, rel=1e-6)


@pytest.mark.parametrize("argv", [
    ("trace", "--geometry", "su2", "--symbol", "scaled:1e308:radial:3"),
    ("residue", "--geometry", "torus:1", "--symbol", "radial:1", "--a-integral", "1e308"),
    ("trace", "--geometry", "su2", "--symbol", "radial:-300")])
def test_overflow_exits_one_and_writes_nothing_non_finite(tmp_path, capsys, argv):
    # the su2 sums overflow float64, and so does the residue's product;
    # radial:-300 overflows in the symbol's own values.  numpy's warnings
    # stay off stderr, which holds the one error line
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    code = run(*argv, "--nmax", "100", "--out-json", str(out_json), "--out-csv", str(out_csv))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert ("non-finite values" if "radial:-300" in argv else "not finite") in captured.err
    for text in (captured.out,) + tuple(p.read_text() for p in (out_json, out_csv)
                                        if p.exists()):
        assert "nan" not in text.lower() and "inf" not in text.lower()


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
    # 1e12 points: the parametrix folds every label, and the size guard
    # fires before any array is allocated
    assert run("parametrix", "--nmax", "1e12") == 1
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


def _estimate(path):
    return json.loads(Path(path).read_text())["estimate"]


def test_alpha_power_and_table(tmp_path, capsys):
    base = ["boundary", "--a", repr(-math.e), "--b", "1", "--nmax", "1e4"]
    plain = str(tmp_path / "plain.json")
    assert run(*base, "--out-json", plain) == 0
    # a perturbation decaying like 1/|j|^2 leaves the trace at 1/pi
    power = str(tmp_path / "power.json")
    assert run(*base, "--alpha", "power:0.5+0.5i:1", "--out-json", power) == 0
    assert _estimate(power)["value"] == pytest.approx(1 / math.pi, rel=0.02)
    assert _estimate(power)["value"] != _estimate(plain)["value"]
    # a table of zeros leaves every lambda_j as it is: same floats
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("# j re im\n0 0 0\n1 0 0\n-1 0 0\n")
    table = str(tmp_path / "table.json")
    assert run(*base, "--alpha", "table:%s" % zeros, "--out-json", table) == 0
    assert _estimate(table) == _estimate(plain)
    capsys.readouterr()


@pytest.mark.parametrize("alpha, message", [
    ("power:1", "bad perturbation spec 'power:1'; want power:c:eps"),
    ("power:x:1", "bad complex literal 'x'"),
    ("table:", "table alpha needs a path: table:PATH"),
    ("wiggle:1", "unknown alpha model 'wiggle:1'")])
def test_alpha_errors_exit_one(capsys, alpha, message):
    assert run("boundary", "--alpha", alpha, "--nmax", "64") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_residue_a_integral_scales_the_trace(tmp_path, capsys):
    base = ["--geometry", "torus:1", "--symbol", "bessel:1:2", "--nmax", "1e4"]
    trace_json = str(tmp_path / "t.json")
    res_json = str(tmp_path / "r.json")
    assert run("trace", *base, "--out-json", trace_json) == 0
    assert run("residue", *base, "--a-integral", "0.5", "--out-json", res_json) == 0
    assert "density integral: 0.5" in capsys.readouterr().out
    doc = json.loads(Path(res_json).read_text())
    assert doc["a_integral"] == 0.5
    assert doc["estimate"]["value"] == 0.5 * _estimate(trace_json)["value"]


def test_parametrix_csv_is_the_inverse_symbol_series(tmp_path, capsys):
    base = ["--a", repr(-math.e), "--b", "1", "--nmax", "1e4"]
    b_csv = tmp_path / "b.csv"
    p_csv = tmp_path / "p.csv"
    assert run("boundary", *base, "--out-csv", str(b_csv)) == 0
    assert run("parametrix", *base, "--out-csv", str(p_csv)) == 0
    assert p_csv.read_bytes() == b_csv.read_bytes()
    assert p_csv.read_text().splitlines()[0] == "cutoff,count,sum,f"
    capsys.readouterr()


def test_parametrix_folds_its_labels_once(tmp_path, monkeypatch, capsys):
    folds = []
    index_chunks = boundary._index_chunks
    monkeypatch.setattr(boundary, "_index_chunks",
                        lambda *args: folds.append(1) or index_chunks(*args))
    assert run("parametrix", "--nmax", "1e4", "--out-csv", str(tmp_path / "p.csv")) == 0
    assert len(folds) == 1
    capsys.readouterr()


def _config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command, base, entry, flag", [
    ("boundary", ["--nmax", "1e4"], {"order": 2}, ["--order", "2"]),
    ("boundary", ["--nmax", "1e4"], {"a": "1+2i"}, ["--a", "1+2i"]),
    ("trace", ["--geometry", "torus:1", "--symbol", "bessel:1:2", "--nmax", "1e4"],
     {"points_per_octave": 8}, ["--points-per-octave", "8"]),
    ("trace", ["--geometry", "torus:1", "--symbol", "bessel:1:2"],
     {"nmax": None}, [])])
def test_config_entries_mean_what_the_flags_mean(tmp_path, capsys, command, base,
                                                  entry, flag):
    by_flag = tmp_path / "flag.csv"
    by_config = tmp_path / "config.csv"
    code = run(command, *base, *flag, "--out-csv", str(by_flag))
    assert run(command, *base, "--config", _config(tmp_path, entry),
               "--out-csv", str(by_config)) == code
    assert by_config.read_bytes() == by_flag.read_bytes()
    out = capsys.readouterr().out.splitlines()
    assert out[:len(out) // 2] == out[len(out) // 2:]


def test_explicit_flag_wins_over_typed_config_entry(tmp_path, capsys):
    base = ["trace", "--geometry", "torus:1", "--symbol", "bessel:1:2", "--nmax", "1e4"]
    by_flag = tmp_path / "flag.csv"
    both = tmp_path / "both.csv"
    assert run(*base, "--points-per-octave", "2", "--out-csv", str(by_flag)) == 0
    assert run(*base, "--config", _config(tmp_path, {"points_per_octave": 8}),
               "--points-per-octave", "2", "--out-csv", str(both)) == 0
    assert both.read_bytes() == by_flag.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("base, entry, flag", [
    (["boundary", "--nmax", "64"], {"cutoff_kind": "eigen"}, "--cutoff-kind")])
def test_config_entry_outside_choices_exits_one(tmp_path, capsys, base, entry, flag):
    # a config entry is refused as the flag's text is, before any output
    (value,) = entry.values()
    with pytest.raises(SystemExit) as exc:
        run(*base, flag, value)
    assert exc.value.code == 1
    by_flag = capsys.readouterr().err.splitlines()[-1]
    assert "argument %s: invalid choice: %r" % (flag, value) in by_flag
    out_json = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run(*base, "--config", _config(tmp_path, entry), "--out-json", str(out_json))
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == by_flag
    assert not out_json.exists()


def test_bad_complex_literal_exits_one(tmp_path, capsys):
    assert run("boundary", "--a", "1+x", "--nmax", "64") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad complex literal '1+x'")
    assert run("boundary", "--config", _config(tmp_path, {"b": "oops"}),
               "--nmax", "64") == 1
    assert capsys.readouterr().err.startswith("error: bad complex literal 'oops'")


_NMAX = ["--nmax NMAX largest cutoff (default 1e5)"]
_GRID = _NMAX + ["dyadic grid resolution (default 4)"]
_GEOMETRY = ["for file geometries (default 1)", "for file geometries (default 2.0)"]
_BOUNDARY = ["boundary parameter a, complex (default -2.718281828459045)",
             "boundary parameter b, complex (default 1)",
             "table:PATH (default zero)", "operator order m (default 1)",
             "(default index)"] + _NMAX


@pytest.mark.parametrize("command, shown", [
    ("trace", _GEOMETRY + _GRID),
    ("residue", _GEOMETRY + _GRID),
    ("quasinorm", _GEOMETRY + _GRID),
    ("weyl", _GEOMETRY + _GRID),
    ("boundary", _BOUNDARY + _GRID + ["Weyl-rescaled cutoff (default 1)",
                                      "table:PATH (default inverse)"]),
    ("parametrix", _BOUNDARY + _GRID + ["table:PATH (default spectrum)"]),
    ("oracle-check", _GEOMETRY + ["total dimension (default 10000)"]),
    ("s0-check", _BOUNDARY + ["table:PATH (default spectrum)"])])
def test_help_shows_every_default(capsys, command, shown):
    # help strings are %-formatted only when rendered
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for item in shown:
        assert item in text
    assert "None" not in text


class _Reads(dict):
    """A parsed flag dict that records every key a handler reads."""

    def __init__(self, ns):
        super().__init__(ns)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("command, variants", [
    ("trace", [["--geometry", "torus:1", "--symbol", "radial:1", "--nmax", "64"]]),
    ("residue", [["--geometry", "torus:1", "--symbol", "radial:1", "--nmax", "64",
                  "--a-integral", "2"]]),
    ("quasinorm", [["--geometry", "torus:1", "--symbol", "radial:1", "--nmax", "64",
                    "--p", "2"]]),
    ("weyl", [["--geometry", "su2", "--nmax", "64"]]),
    # --kappa is read on eigenvalue cutoffs only
    ("boundary", [["--nmax", "64"], ["--nmax", "64", "--cutoff-kind", "eigenvalue"]]),
    ("parametrix", [["--nmax", "64"]]),
    ("oracle-check", [["--geometry", "torus:1", "--symbol", "radial:1",
                       "--cutoff", "10"]]),
    ("s0-check", [["--nmax", "64", "--s-grid", "0,2"]])])
def test_every_flag_is_read_by_its_handler(capsys, command, variants):
    # a flag its command never reads would be a knob that does nothing
    read, dests = set(), set()
    for argv in variants:
        ns = _Reads(_parse([command, *argv]))
        assert _COMMANDS[command](ns) in (0, 2)
        read |= ns.read
        dests |= set(ns)
    capsys.readouterr()
    assert dests - {"command", "config"} - read == set()


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_fixed_verdict_rules_are_not_flags(tmp_path, capsys, command):
    with pytest.raises(SystemExit):
        run(command, "--help")
    text = capsys.readouterr().out
    for flag in ("--divergence-threshold", "--vanishing-rel", "--stability-rtol"):
        assert flag not in text
    cfg = _config(tmp_path, {"divergence_threshold": 0.2})
    assert run(command, "--config", cfg) == 1
    assert "unknown key 'divergence_threshold'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, stream", [
    (["trace", "--geometry", "su2", "--symbol", "radial:3", "--nmax", "1e103"], "su2"),
    (["trace", "--geometry", "su2", "--symbol", "radial:3", "--nmax", "1e300"], "su2"),
    (["trace", "--geometry", "torus:1", "--symbol", "radial:1", "--nmax", "1e160"], "torus:1"),
    (["trace", "--geometry", "sphere:3", "--symbol", "radial:3", "--nmax", "1e104"], "sphere:3"),
    (["weyl", "--geometry", "so3", "--nmax", "1e104"], "so3"),
])
def test_closed_form_streams_refuse_past_float64(tmp_path, capsys, argv, stream):
    # the count (su2, sphere:3, so3) or the last eigenvalue (torus:1 past
    # N = 1.3e154) leaves float64: refused before any work, nothing written
    out = [str(tmp_path / "r.json"), str(tmp_path / "r.csv")]
    start = time.perf_counter()
    assert run(*argv, "--out-json", out[0], "--out-csv", out[1]) == 1
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s at cutoff " % stream)
    assert err.endswith(" passes float64; lower the cutoff\n")
    assert err.count("\n") == 1
    assert not any(Path(p).exists() for p in out)


def test_boundary_tail_refuses_past_the_normal_range(capsys):
    # past 2 pi |j| = 2^1022, 1/lambda_j is subnormal: refused before any work
    assert run("boundary", "--nmax", "1.7e308") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: boundary symbol at cutoff 1.7e+308 has 1.7e+308 labels")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, tau", [
    (["trace", "--geometry", "su2", "--symbol", "radial:3", "--nmax", "1e100"], 8.0 / 3.0),
    (["trace", "--geometry", "torus:1", "--symbol", "radial:1", "--nmax", "1e150"], 2.0),
    (["boundary", "--boundary-symbol", "inverse", "--nmax", "1e100"], 1.0 / math.pi),
])
def test_closed_form_streams_reach_far_cutoffs(tmp_path, capsys, argv, tau):
    # past a head of 2^20 labels the sums are an Euler-Maclaurin tail, so
    # their cost grows with the grid, not with the labels
    out = str(tmp_path / "r.json")
    start = time.perf_counter()
    assert run(*argv, "--out-json", out) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == ""
    assert abs(json.loads(Path(out).read_text())["estimate"]["value"] - tau) <= 1e-12 * tau


@pytest.mark.parametrize("argv", [
    ["trace", "--geometry", "su2", "--symbol", "radial:3", "--nmax", "1e12"],
    ["trace", "--geometry", "torus:1", "--symbol", "radial:1", "--nmax", "1e13"],
    ["trace", "--geometry", "sphere:3", "--symbol", "radial:3", "--nmax", "1e12"],
    ["weyl", "--geometry", "so3", "--nmax", "1e12"],
])
def test_closed_form_streams_run_past_the_label_cap(capsys, argv):
    # 2e12 labels and more, refused by the 2^30 label cap before the tail
    start = time.perf_counter()
    assert run(*argv) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("geometry, cutoff", [
    ("torus:3", "3000"), ("torus:2", "1e7"), ("su3", "1e7"), ("torus:3", "3e4"),
    ("su3", "1e8"), ("torus:2", "1e9"), ("torus:3", "1e9"), ("su3", "1e9")])
def test_oracle_check_refuses_an_oversized_truncation_at_once(capsys, geometry, cutoff):
    # the D of the lazily enumerated points are summed until they pass the
    # default cap, or a stream's own guard fires; counting the whole
    # truncation first took from 7 s to minutes on these
    start = time.perf_counter()
    assert run("oracle-check", "--geometry", geometry, "--symbol", "radial:1",
               "--cutoff", cutoff) == 1
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("argv, count", [
    (["trace", "--geometry", "su2", "--symbol", "radial:3"], "2.0e+300 labels"),
    (["trace", "--geometry", "torus:1", "--symbol", "radial:1"], "1.0e+300 labels"),
    (["parametrix"], "1.0e+300 labels"),
    (["trace", "--geometry", "torus:3", "--symbol", "radial:3"], "~8.0e+900 points"),
    (["trace", "--geometry", "torus:1", "--symbol", "radial:1",
      "--points-per-octave", "10000000000000000000000000"], "1.0e+28 cutoffs"),
])
def test_caps_print_huge_counts_in_scientific_notation(capsys, argv, count):
    # the exact counts have 301 to 901 digits, and N^2 at 1e300 is past float64
    assert run(*argv, "--nmax", "1e300") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
    assert " %s" % count in err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "2"])
def test_nu_is_refused_on_built_in_kinds(tmp_path, capsys, value):
    # a built-in kind knows its own nu, so a --nu, also a config entry, is
    # an error rather than a flag that does nothing
    for base in (["trace", "--geometry", "torus:1", "--symbol", "radial:1", "--nmax", "100"],
                 ["weyl", "--geometry", "su2", "--nmax", "64"]):
        for extra in (["--nu", value], ["--config", _config(tmp_path, {"nu": value})]):
            assert run(*base, *extra) == 1
            assert capsys.readouterr().err == \
                "error: --nu is for file geometries; %s knows its own\n" % base[2]


@pytest.mark.parametrize("value", ["-3", "1", "3"])
def test_dim_is_refused_on_built_in_kinds(tmp_path, capsys, value):
    for base in (["trace", "--geometry", "sphere:3", "--symbol", "radial:3", "--nmax", "100"],
                 ["oracle-check", "--geometry", "su3", "--symbol", "radial:8", "--cutoff", "2"]):
        for extra in (["--dim", value], ["--config", _config(tmp_path, {"dim": value})]):
            assert run(*base, *extra) == 1
            assert capsys.readouterr().err == \
                "error: --dim is for file geometries; %s knows its own\n" % base[2]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
def test_file_geometry_refuses_a_non_finite_or_zero_nu(tmp_path, capsys, value):
    # an infinite nu would admit every row at every cutoff
    path = tmp_path / "spec.txt"
    path.write_text("".join("%d 1 1 %d\n" % (k, k * k) for k in range(-5, 6)))
    assert run("trace", "--geometry", "file:%s" % path, "--symbol", "radial:1",
               "--nmax", "8", "--nu=" + value) == 1
    assert capsys.readouterr().err.startswith(
        "error: laplacian order nu must be positive and finite, got ")


@pytest.mark.parametrize("extra", [["--nmax", "1e200"], ["--nu", "3", "--nmax", "1e150"]])
def test_file_cutoff_past_float64_admits_every_row(tmp_path, capsys, extra):
    # N^nu overflows float64: the threshold is inf, which admits the whole
    # finite spectrum, as 1e100 does
    path = tmp_path / "torus1.txt"
    path.write_text("".join("%d 1 1 %d\n" % (k, k * k) for k in range(-50, 51)))
    geom = ["--geometry", "file:%s" % path, "--symbol", "radial:1"]
    start = time.perf_counter()
    code = run("trace", *geom, *extra)
    assert time.perf_counter() - start < 2
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert "verdict:" in out.out
