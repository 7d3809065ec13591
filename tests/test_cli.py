import csv
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

from struprune import cli
from struprune.cli import main
from struprune.model import load_model, save_calibration, write_atomic
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
        assert os.listdir(evaldir) == ["report.json"]

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

    def test_inverse_weight_on_ffn_only_model(self, tmp_path):
        # A model with no MHA block is allocated over its FFN family alone.
        model, calib = str(tmp_path / "model"), str(tmp_path / "calib")
        assert run("gen", "--d", "8", "--layers", "3", "--layout", "ffn", "--seed", "5", "--out", model) == 0
        assert run("calibrate", "--model", model, "--n", "4", "--seq-len", "8", "--seed", "6", "--out", calib) == 0
        plandir, sweepdir = str(tmp_path / "plan"), str(tmp_path / "sweep")
        assert run("plan", "--model", model, "--calib", calib, "--method", "inverse-weight",
                   "--sparsity", "0.3", "--out", plandir) == 0
        rows = read_csv(os.path.join(plandir, "plan.csv"))
        assert [r["block_kind"] for r in rows] == ["ffn"] * 3
        assert abs(np.mean([float(r["sparsity"]) for r in rows]) - 0.3) < 1e-12
        assert run("sweep", "--model", model, "--calib", calib, "--allocator", "inverse-weight",
                   "--t-grid", "0.5,1.0", "--sparsity", "0.3", "--out", sweepdir) == 0
        assert len(read_csv(os.path.join(sweepdir, "sweep.csv"))) == 2


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

    def test_admm_frees_the_calibration_set_before_the_solve(self, workspace, monkeypatch):
        # Only capture reads the calibration set; the solve runs without it.
        tmp, model, calib = workspace
        loaded, alive = [], []
        load, solve = cli.load_calibration, cli.run_outer_loop

        def load_calibration(path):
            calib_set = load(path)
            loaded.append(weakref.ref(calib_set))
            return calib_set

        def run_outer_loop(*args, **kwargs):
            alive.append(loaded[0]() is not None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "load_calibration", load_calibration)
        monkeypatch.setattr(cli, "run_outer_loop", run_outer_loop)
        assert run("admm", "--model", model, "--calib", calib, "--method", "softmax",
                   "--sparsity", "0.4", "--iters", "1", "--out", str(tmp / "out")) == 0
        assert len(loaded) == 1 and alive == [False]

    @pytest.mark.parametrize("command, out, flag", [
        ("prune", "model", "--model"),
        ("prune", "calib", "--calib"),
        ("prune", "model/sub", "--model"),
        ("prune", "link-to-model", "--model"),
        ("admm", "model", "--model"),
        ("admm", "calib/../calib/.", "--calib"),
        ("eval", "pruned", "--model"),
        ("eval", "model", "--dense"),
        ("eval", "calib/sub", "--calib"),
    ])
    def test_out_over_an_input_exits_one(self, workspace, capsys, command, out, flag):
        tmp, model, calib = workspace
        os.symlink(model, str(tmp / "link-to-model"))
        inputs = ["--model", model, "--calib", calib, "--method", "magnitude"]
        if command == "eval":
            assert run("prune", *inputs, "--out", str(tmp / "pruned")) == 0
            inputs = ["--model", str(tmp / "pruned"), "--dense", model, "--calib", calib]
        elif command == "admm":
            inputs += ["--iters", "1"]
        out = str(tmp / out)
        before = dir_bytes(model), dir_bytes(calib)
        capsys.readouterr()
        assert run(command, *inputs, "--out", out) == 1
        _one_error_line(capsys, f"--out {out}", flag)
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


def _runs_at_log_levels(tmp, *argv):
    """The console entry point run in a fresh process at STRUPRUNE_LOG=info
    and =debug, each writing to its own --out: per level, stdout (with the
    out directory as OUT), the artifact bytes and the stderr lines."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    runs = {}
    for level in ("info", "debug"):
        out = str(tmp / level)
        env = dict(os.environ, STRUPRUNE_LOG=level, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run([sys.executable, "-m", "struprune.cli", *argv, "--out", out],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs[level] = (done.stdout.replace(out, "OUT"), dir_bytes(out), done.stderr.splitlines())
    return runs


def test_debug_logs_one_resource_line_per_command(workspace):
    """STRUPRUNE_LOG=debug adds one stderr line with the command's getrusage
    deltas; stdout and every artifact byte stay those of the info level."""
    tmp, model, calib = workspace
    runs = _runs_at_log_levels(tmp, "prune", "--model", model, "--calib", calib,
                               "--method", "softmax", "--sparsity", "0.4", "--threads", "2")
    assert runs["info"][:2] == runs["debug"][:2]
    assert not [line for line in runs["info"][2] if "resources:" in line]
    lines = [line for line in runs["debug"][2] if "resources:" in line]
    assert len(lines) == 1 and re.fullmatch(
        r"DEBUG struprune: prune resources: wall \d+\.\d{3} s, user \d+\.\d{3} s, "
        r"sys \d+\.\d{3} s, minflt \d+, maxrss \+\d+ kB \(\d+ kB\)", lines[0]), lines


def test_debug_logs_each_mha_sub_solve(workspace):
    """At STRUPRUNE_LOG=debug admm logs one line per MHA sub-solve with its
    layer, outer iteration and the objective at entry and at exit; stdout
    and every artifact byte stay those of the info level, which logs none."""
    tmp, model, calib = workspace
    runs = _runs_at_log_levels(tmp, "admm", "--model", model, "--calib", calib, "--method", "softmax",
                               "--sparsity", "0.5", "--iters", "2", "--inner", "3", "--threads", "2")
    assert runs["info"][:2] == runs["debug"][:2]
    assert not [line for line in runs["info"][2] if "sub-solve" in line]
    pattern = re.compile(r"DEBUG struprune\.admm: layer (\d+) iteration (\d+) (activation|attention-activation|output) "
                         r"sub-solve: objective (\S+) at entry, (\S+) at exit after 3 steps")
    lines = [line for line in runs["debug"][2] if "sub-solve" in line]
    matches = [pattern.fullmatch(line) for line in lines]
    assert all(matches), lines
    # The decoder's MHA blocks are layers 0 and 2; the two blocks run on
    # the pool at once, so only each block's own lines keep their order.
    in_order = [(it, label) for it in (1, 2) for label in ("activation", "attention-activation", "output")]
    for layer in (0, 2):
        assert [(int(m[2]), m[3]) for m in matches if int(m[1]) == layer] == in_order, lines
    assert len(matches) == 2 * len(in_order)


def test_each_main_call_applies_its_own_log_level(tmp_path):
    """Two cli.main calls in one process, at error and then at debug: the
    second logs its resource line although the first one set logging up
    already; stdout and the artifact bytes are those of the first call."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = textwrap.dedent("""
        import os, sys
        from struprune.cli import main
        for level in ("error", "debug"):
            os.environ["STRUPRUNE_LOG"] = level
            out = os.path.join(sys.argv[1], level)
            assert main(["memory", "--out", out]) == 0
            print("---", flush=True)
            print("---", file=sys.stderr, flush=True)
    """)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    stdout = done.stdout.split("---\n")
    stderr = done.stderr.split("---\n")
    assert stdout[0].replace(str(tmp_path / "error"), "OUT") == stdout[1].replace(str(tmp_path / "debug"), "OUT")
    assert dir_bytes(str(tmp_path / "error")) == dir_bytes(str(tmp_path / "debug"))
    assert stderr[0] == ""
    assert re.fullmatch(r"DEBUG struprune: memory resources: wall .*\n", stderr[1]), stderr[1]


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

    # A matrix listed twice, here with a second blob, would load the later
    # blob; one blob named for w1 and w2, which have the same byte count,
    # would load w1's bytes as w2.
    @pytest.mark.parametrize("repeat", ["name", "file"])
    def test_manifest_repeats_name_or_file(self, workspace, capsys, repeat):
        tmp, model, calib = workspace
        path = os.path.join(model, "manifest.json")
        manifest = json.loads(read(path))
        by_name = {e["name"]: e for e in manifest["matrices"]}
        w1, w2 = by_name["layer1.ffn.w1"], by_name["layer1.ffn.w2"]
        if repeat == "name":
            shutil.copy(os.path.join(model, w1["file"]), os.path.join(model, "copy.bin"))
            manifest["matrices"].append({**w1, "file": "copy.bin"})
        else:
            w2["file"] = w1["file"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        assert run("plan", "--model", model, "--calib", calib, "--out", str(tmp / "o")) == 1
        _one_error_line(capsys, repr(w1[repeat]))

    def test_manifest_nonpositive_shape(self, workspace, capsys):
        tmp, model, calib = workspace

        def shrink(m):
            m["matrices"][0]["cols"] = 0

        _edit_json(os.path.join(model, "manifest.json"), shrink)
        assert run("plan", "--model", model, "--calib", calib, "--out", str(tmp / "o")) == 1
        _one_error_line(capsys, "cols")

    def test_manifest_arch_disagrees_with_block_matrix(self, workspace, capsys):
        tmp, model, calib = workspace
        _edit_json(os.path.join(model, "manifest.json"), lambda m: m["arch"].update(ffn_dim=24))
        assert run("eval", "--model", model, "--dense", model, "--calib", calib,
                   "--out", str(tmp / "e")) == 1
        _one_error_line(capsys, "layer1.ffn.w1", "(32, 8)", "(24, 8)")

    # Each wrong type or value in the manifest's top level or arch exits 1
    # with one error line naming the field; a bool is not an int.
    @pytest.mark.parametrize("mutate, needle", [
        (lambda m: list(m.items()), "JSON object"),
        (lambda m: {**m, "arch": None}, "arch"),
        (lambda m: {**m, "matrices": 5}, "matrices"),
        (lambda m: {**m, "arch": {**m["arch"], "d": str(m["arch"]["d"])}}, "'d'"),
        (lambda m: {**m, "arch": {**m["arch"], "L": "x"}}, "'L'"),
        (lambda m: {**m, "arch": {**m["arch"], "h": 0}}, "'h'"),
        (lambda m: {**m, "arch": {**m["arch"], "vocab": 1.5}}, "'vocab'"),
        (lambda m: {**m, "arch": {**m["arch"], "vocab": -1}}, "'vocab'"),
        (lambda m: {**m, "arch": {**m["arch"], "ffn_dim": float(m["arch"]["ffn_dim"])}}, "'ffn_dim'"),
        (lambda m: {**m, "format_version": True}, "format_version"),
        (lambda m: {**m, "matrices": [{**m["matrices"][0], "name": 3}, *m["matrices"][1:]]},
         "matrices[0]"),
    ], ids=["list", "arch-null", "matrices-int", "d-str", "L-str", "h-zero", "vocab-float",
            "vocab-negative", "ffn_dim-float", "format_version-bool", "name-int"])
    def test_bad_manifest_field(self, workspace, capsys, mutate, needle):
        tmp, model, calib = workspace
        path = os.path.join(model, "manifest.json")
        manifest = mutate(json.loads(read(path)))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        assert run("plan", "--model", model, "--calib", calib, "--out", str(tmp / "p")) == 1
        _one_error_line(capsys, needle)
        assert not os.path.exists(tmp / "p")

    def test_calibration_negative_count(self, workspace, capsys):
        tmp, model, calib = workspace

        def negate(c):
            c["N"] = -1

        _edit_json(os.path.join(calib, "calib.json"), negate)
        assert run("plan", "--model", model, "--calib", calib, "--out", str(tmp / "o")) == 1
        _one_error_line(capsys, "'N'", "positive int")

    # A dense sidecar carries no kind; any kind but "tokens" is an error,
    # not a dense read of the blob.
    @pytest.mark.parametrize("kind", ["tokenz", ["tokens"], "dense", None, 1])
    def test_calibration_unknown_kind(self, workspace, capsys, kind):
        tmp, model, calib = workspace
        _edit_json(os.path.join(calib, "calib.json"), lambda c: c.update(kind=kind))
        assert run("plan", "--model", model, "--calib", calib, "--out", str(tmp / "o")) == 1
        _one_error_line(capsys, "'kind'", repr(kind))

    # A JSON input that does not parse exits 1 with one error line naming
    # its file: cut short, nested past the parser's depth limit, or not
    # UTF-8.
    @pytest.mark.parametrize("damage", ["truncated", "deep", "not-utf8"])
    @pytest.mark.parametrize("target", ["config", "manifest", "calib"])
    def test_unparsable_json_names_file(self, workspace, capsys, target, damage):
        tmp, model, calib = workspace
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({"sparsity": 0.35}))
        path = {"config": str(cfg), "manifest": os.path.join(model, "manifest.json"),
                "calib": os.path.join(calib, "calib.json")}[target]
        with open(path, "rb") as fh:
            text = fh.read()
        opener, closer = (b'{"a":', b"}") if target == "calib" else (b"[", b"]")
        bad = {"truncated": text[: len(text) // 2],
               "deep": opener * 100000 + b"1" + closer * 100000,
               "not-utf8": b"\xff\xfe" + text}[damage]
        with open(path, "wb") as fh:
            fh.write(bad)
        assert run("plan", "--model", model, "--calib", calib, "--config", str(cfg),
                   "--out", str(tmp / "o")) == 1
        _one_error_line(capsys, path)


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


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    try:
        yield
    finally:
        os.umask(old)


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def _open_mode(directory):
    """The mode of a file that open(..., "wb") makes in directory."""
    path = os.path.join(directory, "reference")
    with open(path, "wb"):
        pass
    mode = _mode(path)
    os.unlink(path)
    return mode


# Artifacts are made as open(path, "wb") makes a file, with mode 0o666
# less the umask, not the 0o600 of a private temporary file.
class TestArtifactModes:
    def test_write_atomic_follows_the_umask(self, tmp_path, umask_027):
        path = tmp_path / "a.bin"
        write_atomic(str(path), b"x")
        assert _mode(path) == _open_mode(tmp_path) == 0o640
        assert path.read_bytes() == b"x" and os.listdir(tmp_path) == ["a.bin"]

    def test_gen_manifest_and_blob(self, tmp_path, umask_027):
        model = tmp_path / "model"
        assert run("gen", "--d", "8", "--layers", "1", "--heads", "2", "--seed", "7", "--out", str(model)) == 0
        want = _open_mode(model)
        assert want == 0o640
        assert _mode(model / "manifest.json") == want
        assert _mode(model / "layer0_mha_wq.bin") == want


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
