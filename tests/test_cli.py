import csv
import json
import os
import shutil

import numpy as np
import pytest

from struprune.cli import main
from struprune.model import load_model, save_calibration
from struprune.model import CalibrationSet


def run(*argv):
    return main(list(argv))


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.fixture
def workspace(tmp_path):
    model = str(tmp_path / "model")
    calib = str(tmp_path / "calib")
    assert run("gen", "--d", "8", "--layers", "2", "--heads", "2", "--seed", "7", "--out", model) == 0
    assert run("calibrate", "--model", model, "--n", "4", "--seq-len", "8", "--seed", "8", "--out", calib) == 0
    return tmp_path, model, calib


class TestPipeline:
    def test_plan_prune_admm_eval_sweep(self, workspace):
        tmp, model, calib = workspace
        plandir = str(tmp / "plan")
        assert run("plan", "--model", model, "--calib", calib, "--method", "softmax",
                   "--sparsity", "0.3", "--out", plandir) == 0
        rows = read_csv(os.path.join(plandir, "plan.csv"))
        assert len(rows) == 4 and rows[0]["allocator"] == "softmax+post"

        pruned = str(tmp / "pruned")
        assert run("prune", "--model", model, "--calib", calib, "--method", "magnitude",
                   "--sparsity", "0.25", "--out", pruned) == 0
        loaded = load_model(pruned)
        ffn = next(b for b in loaded.blocks if b.kind == "ffn")
        zero_rows = int(np.sum(~np.any(ffn.w1 != 0.0, axis=1)))
        assert zero_rows == round(0.25 * loaded.arch.ffn_dim)

        admm_out = str(tmp / "admm")
        assert run("admm", "--model", model, "--calib", calib, "--method", "closed-form",
                   "--sparsity", "0.5", "--iters", "2", "--inner", "5", "--out", admm_out) == 0
        trace = read(os.path.join(admm_out, "trace.csv"))
        assert trace.startswith("iteration,layer,block_kind,objective\n")
        assert len(trace.strip().split("\n")) == 1 + 2 * 4

        evaldir = str(tmp / "eval")
        assert run("eval", "--model", admm_out, "--dense", model, "--calib", calib,
                   "--out", evaldir) == 0
        report = json.loads(read(os.path.join(evaldir, "report.json")))
        assert report["total_loss"] >= 0.0
        assert "wall_time" not in read(os.path.join(evaldir, "report.json"))
        assert os.path.exists(os.path.join(evaldir, "memory.csv"))

        sweepdir = str(tmp / "sweep")
        assert run("sweep", "--model", model, "--calib", calib, "--t-grid", "0.5,1.0",
                   "--sparsity", "0.3", "--out", sweepdir) == 0
        sweep_rows = read_csv(os.path.join(sweepdir, "sweep.csv"))
        assert len(sweep_rows) == 2

    def test_equal_importance_softmax_plan_is_uniform(self, workspace):
        tmp, model, calib = workspace
        # Zero calibration activations stay zero through relu-only blocks,
        # giving every block identical (zero) importance; the allocation
        # must then be uniform at the target.
        ffn_model = str(tmp / "ffnmodel")
        assert run("gen", "--d", "8", "--layers", "3", "--layout", "ffn", "--seed", "5",
                   "--out", ffn_model) == 0
        zero_calib = str(tmp / "zerocalib")
        save_calibration(CalibrationSet(inputs=np.zeros((2, 4, 8))), zero_calib, 8)
        plandir = str(tmp / "plan0")
        assert run("plan", "--model", ffn_model, "--calib", zero_calib, "--method", "softmax",
                   "--sparsity", "0.3", "--temperature", "1.0", "--out", plandir) == 0
        rows = read_csv(os.path.join(plandir, "plan.csv"))
        for row in rows:
            assert abs(float(row["sparsity"]) - 0.3) < 1e-12

    def test_memory_tables(self, tmp_path):
        out = str(tmp_path / "mem")
        assert run("memory", "--out", out) == 0
        text = read(os.path.join(out, "memory.csv"))
        assert "OPT-125M,0.125B,12,10.4,20.8" in text
        assert "OPT-66B,66B,64,1031.2,2062.4" in text
        split = read(os.path.join(out, "module_split.csv"))
        assert '"4,718,592"' in split and '"679,477,248"' in split

    def test_inverse_weight_and_baseline_methods(self, workspace):
        tmp, model, calib = workspace
        for method in ("inverse-weight", "wanda-local", "snip", "l0"):
            out = str(tmp / f"m-{method}")
            assert run("prune", "--model", model, "--calib", calib, "--method", method,
                       "--sparsity", "0.25", "--gamma", "0.9", "--rho", "1.5",
                       "--out", out) == 0


class TestDeterminismAndSafety:
    def test_reruns_byte_identical(self, workspace):
        tmp, model, calib = workspace
        out1, out2 = str(tmp / "p1"), str(tmp / "p2")
        for out in (out1, out2):
            assert run("admm", "--model", model, "--calib", calib, "--method", "softmax",
                       "--sparsity", "0.4", "--iters", "2", "--inner", "4",
                       "--seed", "3", "--out", out) == 0
        assert dir_bytes(out1) == dir_bytes(out2)

    def test_inputs_not_mutated(self, workspace):
        tmp, model, calib = workspace
        before = dir_bytes(model), dir_bytes(calib)
        assert run("prune", "--model", model, "--calib", calib, "--method", "wanda-local",
                   "--sparsity", "0.3", "--out", str(tmp / "out")) == 0
        assert (dir_bytes(model), dir_bytes(calib)) == before

    def test_idempotent_overwrite(self, workspace):
        tmp, model, calib = workspace
        out = str(tmp / "plan")
        for _ in range(2):
            assert run("plan", "--model", model, "--calib", calib, "--method", "magnitude",
                       "--sparsity", "0.3", "--out", out) == 0


class TestValidation:
    def test_unknown_flag_exits_one(self, capsys, workspace):
        _, model, calib = workspace
        assert run("plan", "--model", model, "--calib", calib, "--bogus", "1",
                   "--out", "/tmp/x") == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_missing_model_exits_one(self, tmp_path):
        assert run("plan", "--model", str(tmp_path / "nope"), "--calib", str(tmp_path / "c"),
                   "--out", str(tmp_path / "o")) == 1

    def test_bad_sparsity_exits_one(self, workspace):
        tmp, model, calib = workspace
        assert run("plan", "--model", model, "--calib", calib, "--sparsity", "1.5",
                   "--out", str(tmp / "o")) == 1

    def test_bad_log_level(self, workspace, monkeypatch):
        tmp, model, calib = workspace
        monkeypatch.setenv("STRUPRUNE_LOG", "verbose")
        assert run("memory", "--out", str(tmp / "mem")) == 1

    def test_missing_subcommand(self):
        assert run() == 1

    def test_solver_error_exits_two(self, workspace):
        tmp, model, calib = workspace
        # A wildly unstable learning rate trips the divergence guard.
        code = run("admm", "--model", model, "--calib", calib, "--method", "magnitude",
                   "--sparsity", "0.4", "--iters", "1", "--inner", "40", "--lr", "50.0",
                   "--out", str(tmp / "diverge"))
        assert code == 2


class TestConfigFile:
    def test_config_provides_defaults_flags_win(self, workspace):
        tmp, model, calib = workspace
        cfg = tmp / "run.json"
        cfg.write_text(json.dumps({"sparsity": 0.45, "method": "magnitude"}))
        out = str(tmp / "planC")
        assert run("plan", "--model", model, "--calib", calib, "--config", str(cfg),
                   "--out", out) == 0
        rows = read_csv(os.path.join(out, "plan.csv"))
        assert all(abs(float(r["sparsity"]) - 0.45) < 1e-12 for r in rows)
        out2 = str(tmp / "planD")
        assert run("plan", "--model", model, "--calib", calib, "--config", str(cfg),
                   "--sparsity", "0.2", "--out", out2) == 0
        rows2 = read_csv(os.path.join(out2, "plan.csv"))
        assert all(abs(float(r["sparsity"]) - 0.2) < 1e-12 for r in rows2)

    def test_bad_config_rejected(self, workspace, tmp_path):
        _, model, calib = workspace
        cfg = tmp_path / "bad.json"
        cfg.write_text("[1, 2, 3]")
        assert run("plan", "--model", model, "--calib", calib, "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 1


def test_verify_subcommand_passes(capsys):
    assert run("verify") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


class TestTokenPipeline:
    def test_eval_reports_pseudo_perplexity(self, tmp_path):
        model = str(tmp_path / "lm")
        calib = str(tmp_path / "tok")
        assert run("gen", "--d", "8", "--layers", "1", "--heads", "2", "--vocab", "12",
                   "--seed", "21", "--out", model) == 0
        assert run("calibrate", "--model", model, "--n", "4", "--seq-len", "8",
                   "--kind", "tokens", "--seed", "22", "--out", calib) == 0
        pruned = str(tmp_path / "pruned")
        assert run("prune", "--model", model, "--calib", calib, "--method", "wanda-local",
                   "--sparsity", "0.25", "--out", pruned) == 0
        evald = str(tmp_path / "eval")
        assert run("eval", "--model", pruned, "--dense", model, "--calib", calib,
                   "--out", evald) == 0
        report = json.loads(read(os.path.join(evald, "report.json")))
        assert report["pseudo_perplexity"] is not None
        assert report["pseudo_perplexity"] >= 1.0

    def test_plan_writes_scores_csv(self, workspace):
        tmp, model, calib = workspace
        plandir = str(tmp / "scored")
        assert run("plan", "--model", model, "--calib", calib, "--method", "softmax",
                   "--sparsity", "0.3", "--out", plandir) == 0
        rows = read_csv(os.path.join(plandir, "scores.csv"))
        assert rows and set(rows[0]) == {"layer", "block_kind", "unit_axis", "unit_index",
                                         "criterion", "score"}


def _edit_json(path, change):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    change(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    for needle in needles:
        assert needle in lines[0], err


class TestMalformedInput:
    def test_manifest_entry_missing_rows(self, workspace, capsys):
        tmp, model, calib = workspace
        _edit_json(os.path.join(model, "manifest.json"), lambda m: m["matrices"][1].pop("rows"))
        assert run("plan", "--model", model, "--calib", calib, "--out", str(tmp / "o")) == 1
        _one_error_line(capsys, "matrices[1]", "'rows'")

    def test_manifest_file_outside_model_dir(self, workspace, capsys):
        tmp, model, calib = workspace
        outside = tmp / "outside"
        outside.mkdir()
        manifest = os.path.join(model, "manifest.json")
        entry = json.loads(read(manifest))["matrices"][0]
        with open(os.path.join(model, entry["file"]), "rb") as src:
            (outside / "x.bin").write_bytes(src.read())

        def escape(m):
            m["matrices"][0]["file"] = "../outside/x.bin"

        _edit_json(manifest, escape)
        assert run("eval", "--model", model, "--dense", model, "--calib", calib,
                   "--out", str(tmp / "e")) == 1
        _one_error_line(capsys, entry["name"], "../outside/x.bin")

    def test_manifest_nonpositive_shape(self, workspace, capsys):
        tmp, model, calib = workspace

        def shrink(m):
            m["matrices"][0]["cols"] = 0

        _edit_json(os.path.join(model, "manifest.json"), shrink)
        assert run("plan", "--model", model, "--calib", calib, "--out", str(tmp / "o")) == 1
        _one_error_line(capsys, "cols")

    def test_calibration_negative_count(self, workspace, capsys):
        tmp, model, calib = workspace

        def negate(c):
            c["N"] = -1

        _edit_json(os.path.join(calib, "calib.json"), negate)
        assert run("plan", "--model", model, "--calib", calib, "--out", str(tmp / "o")) == 1
        _one_error_line(capsys, "'N'", "positive int")


def _poison_first_value(path, value=np.nan):
    with open(path, "r+b") as fh:
        fh.write(np.array([value], dtype="<f4").tobytes())


class TestNonFiniteInput:
    def _nan_model(self, tmp, model):
        nan = str(tmp / "nan-model")
        shutil.copytree(model, nan)
        with open(os.path.join(nan, "manifest.json"), "r", encoding="utf-8") as fh:
            entry = json.load(fh)["matrices"][1]
        _poison_first_value(os.path.join(nan, entry["file"]))
        return nan, entry["name"]

    def test_eval_rejects_nan_weight(self, workspace, capsys):
        tmp, model, calib = workspace
        nan, name = self._nan_model(tmp, model)
        out = tmp / "e"
        assert run("eval", "--model", nan, "--dense", model, "--calib", calib,
                   "--out", str(out)) == 1
        _one_error_line(capsys, name, "non-finite")
        assert not (out / "report.json").exists()

    def test_admm_rejects_nan_weight(self, workspace, capsys):
        tmp, model, calib = workspace
        nan, name = self._nan_model(tmp, model)
        assert run("admm", "--model", nan, "--calib", calib, "--iters", "1", "--inner", "2",
                   "--out", str(tmp / "a")) == 1
        _one_error_line(capsys, name, "non-finite")

    def test_calibration_rejects_inf(self, workspace, capsys):
        tmp, model, calib = workspace
        _poison_first_value(os.path.join(calib, "calib.bin"), np.inf)
        assert run("plan", "--model", model, "--calib", calib, "--out", str(tmp / "o")) == 1
        _one_error_line(capsys, "calib.bin", "non-finite")

    def test_report_json_rejects_nan(self):
        from struprune.errors import SolverError
        from struprune.evaluation import EvalReport

        report = EvalReport(per_layer_loss=[(0, "ffn", float("nan"))], total_loss=float("nan"),
                            sparsity_per_layer=[(0, "ffn", 0.0)])
        with pytest.raises(SolverError, match='"loss": NaN'):
            report.to_json()


class TestMismatchedModel:
    def test_eval_names_block_matrix_and_shapes(self, workspace, capsys):
        tmp, model, calib = workspace
        wide = str(tmp / "wide")
        assert run("gen", "--d", "16", "--layers", "2", "--heads", "2", "--seed", "7",
                   "--out", wide) == 0
        capsys.readouterr()
        out = tmp / "e"
        assert run("eval", "--model", wide, "--dense", model, "--calib", calib,
                   "--out", str(out)) == 1
        _one_error_line(capsys, "layer 0 mha matrix wq", "(16, 16)", "(8, 8)")
        assert not (out / "report.json").exists()


class TestFlagValues:
    def test_config_string_value_parsed_by_flag_type(self, workspace):
        tmp, model, calib = workspace
        cfg = tmp / "str.json"
        cfg.write_text(json.dumps({"sparsity": "0.35", "method": "magnitude"}))
        out = str(tmp / "planS")
        assert run("plan", "--model", model, "--calib", calib, "--config", str(cfg),
                   "--out", out) == 0
        rows = read_csv(os.path.join(out, "plan.csv"))
        assert all(abs(float(r["sparsity"]) - 0.35) < 1e-12 for r in rows)

    def test_config_value_checked_against_flag(self, workspace, capsys):
        tmp, model, calib = workspace
        for data, needle in (({"sparsity": "lots"}, "--sparsity"),
                             ({"method": "hessian"}, "--method")):
            cfg = tmp / "bad.json"
            cfg.write_text(json.dumps(data))
            assert run("plan", "--model", model, "--calib", calib, "--config", str(cfg),
                       "--out", str(tmp / "o")) == 1
            _one_error_line(capsys, "config", needle)

    def test_unread_flags_rejected(self, tmp_path, capsys):
        out = tmp_path / "mem"
        for argv in (("memory", "--seed", "1", "--out", str(out)),
                     ("memory", "--threads", "2", "--out", str(out)),
                     ("verify", "--threads", "2")):
            assert run(*argv) == 1
            _one_error_line(capsys, "unrecognized arguments", argv[1])
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("admm", ["--iters", "1", "--inner", "2"]),
        ("sweep", ["--t-grid", "0.5,1.0"]),
    ])
    def test_threads_below_one_rejected(self, workspace, capsys, command, extra):
        tmp, model, calib = workspace
        for threads in ("0", "-2"):
            assert run(command, "--model", model, "--calib", calib, "--threads", threads,
                       *extra, "--out", str(tmp / f"{command}{threads}")) == 1
            _one_error_line(capsys, "--threads")


ADMM_SHORT = ["--iters", "1", "--inner", "2"]


# Each bad float value (and each out-of-range --sparsity or int value)
# exits 1 at parse time with one error line naming the flag, before any
# work, whatever the method reads; a --config value goes through the same
# flag type.
@pytest.mark.parametrize("command, argv, config, flag", [
    ("admm", ["--gamma", "nan", *ADMM_SHORT], None, "--gamma"),
    ("admm", ["--gamma", "5", *ADMM_SHORT], None, "--gamma"),
    ("admm", ["--rho", "-1", *ADMM_SHORT], None, "--rho"),
    ("admm", ["--temperature", "inf", *ADMM_SHORT], None, "--temperature"),
    ("admm", ["--eps", "nan", *ADMM_SHORT], None, "--eps"),
    ("admm", ["--alpha", "nan", *ADMM_SHORT], None, "--alpha"),
    ("admm", ["--lr", "inf", *ADMM_SHORT], None, "--lr"),
    ("sweep", ["--alpha", "nan", "--t-grid", "1"], None, "--alpha"),
    ("sweep", ["--t-grid", "nan,1"], None, "--t-grid"),
    ("sweep", ["--t-grid", ","], None, "--t-grid"),
    ("eval", ["--alpha", "nan"], None, "--alpha"),
    ("plan", [], {"temperature": -2.0}, "--temperature"),
    ("plan", ["--sparsity", "1"], None, "--sparsity"),
    ("sweep", ["--sparsity", "0", "--t-grid", "1"], None, "--sparsity"),
    ("admm", ["--iters", "0"], None, "--iters"),
    ("admm", ["--inner", "-1"], None, "--inner"),
    ("prune", ["--seed", "-1"], None, "--seed"),
])
def test_bad_float_flag_rejected(workspace, capsys, command, argv, config, flag):
    tmp, model, calib = workspace
    if config is not None:
        cfg = tmp / "bad.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    if command == "eval":
        argv = [*argv, "--dense", model]
    out = tmp / "out"
    assert run(command, "--model", model, "--calib", calib, *argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and flag in lines[0], err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--d", "0"], "--d"),
    (["gen", "--layers", "0"], "--layers"),
    (["gen", "--heads", "-1"], "--heads"),
    (["gen", "--ffn-dim", "-1"], "--ffn-dim"),
    (["gen", "--vocab", "-2"], "--vocab"),
    (["calibrate", "--model", "m", "--n", "0"], "--n"),
    (["calibrate", "--model", "m", "--seq-len", "0"], "--seq-len"),
])
def test_bad_int_flag_rejected(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 1
    _one_error_line(capsys, flag)
    assert not out.exists()


@pytest.fixture(scope="module")
def pin_fixture(tmp_path_factory):
    """The d=16 decoder of the pins, a magnitude-pruned copy, and a copy
    with every blob multiplied by 1e36 (still finite in float32)."""
    root = tmp_path_factory.mktemp("pin-fixture")
    model, calib, pruned, big = (str(root / n) for n in ("model", "calib", "pruned", "big"))
    assert run("gen", "--d", "16", "--layers", "2", "--heads", "2", "--seed", "101",
               "--out", model) == 0
    assert run("calibrate", "--model", model, "--n", "8", "--seq-len", "16", "--seed", "202",
               "--out", calib) == 0
    assert run("prune", "--model", model, "--calib", calib, "--method", "magnitude",
               "--out", pruned) == 0
    shutil.copytree(model, big)
    with open(os.path.join(big, "manifest.json"), encoding="utf-8") as fh:
        for entry in json.load(fh)["matrices"]:
            blob = os.path.join(big, entry["file"])
            scaled = np.fromfile(blob, dtype="<f4") * np.float32(1e36)
            assert np.isfinite(scaled).all()
            scaled.tofile(blob)
    return {"root": root, "model": model, "calib": calib, "pruned": pruned, "big": big}


# Overflowing values exit 1 (a temperature too small for the importances)
# or 2 (a numerical failure), with one stderr line and no warning.
@pytest.mark.parametrize("argv, code, needles", [
    (["plan", "--method", "softmax", "--temperature", "1e-310"], 1, ["temperature 1e-310"]),
    (["admm", "--temperature", "1e-310"], 1, ["temperature 1e-310"]),
    (["sweep", "--t-grid", "1e-310"], 1, ["temperature 1e-310"]),
    (["sweep", "--t-grid", "1", "--alpha", "1e308"], 2, ["'total_loss'", "inf"]),
    (["eval", "--model", "{pruned}", "--dense", "{model}", "--alpha", "1e308"], 2,
     ['"loss": Infinity']),
    (["admm", "--beta", "1e-17"], 2, ["--beta 1e-17", "layer 1"]),
    (["admm", "--alpha", "1e308"], 2, ["layer 0"]),
    (["admm", "--beta", "1e308"], 2, ["layer 0"]),
    (["admm", "--lr", "1e308"], 2, ["layer 0"]),
    (["plan", "--model", "{big}", "--method", "closed-form"], 2, ["layer 2", "not finite"]),
    (["prune", "--model", "{big}", "--method", "closed-form"], 2, ["layer 2", "not finite"]),
])
def test_overflow_exits_with_one_line(pin_fixture, capsys, argv, code, needles):
    argv = [a.format(**pin_fixture) for a in argv]
    if "--model" not in argv:
        argv += ["--model", pin_fixture["model"]]
    out = os.path.join(pin_fixture["root"], "out")
    assert run(*argv, "--calib", pin_fixture["calib"], "--out", out) == code
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    prefix = "error:" if code == 1 else "solver error:"
    assert len(lines) == 1 and lines[0].startswith(prefix), err
    for needle in needles:
        assert needle in lines[0], err
