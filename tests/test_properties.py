"""Property tests of the exit-code contract over numeric flag values,
manifest and calibration-sidecar mutations, and blob size mutations.

Whatever value a float or int flag of plan, prune, admm, sweep or eval
takes, whichever one manifest or calib.json field is dropped or retyped,
and whichever one blob is truncated or extended, the CLI exits 0, 1 or 2 and prints no traceback and no warning;
exit 1 prints one `error:` line and exit 2 one `solver error:` line; and
a run that exits 0 writes only artifacts that parse as strict JSON or CSV
and hold no NaN or inf. A save interrupted at any file leaves a
directory that loads as the old model or exits 1, never a mix.
"""

import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from struprune import model as model_io
from struprune.cli import METHODS, main

SPECIAL = ["nan", "inf", "-inf", "0", "-0.0", "-1", "5e-324", "1e-310", "1e-17", "1e308", "-1e308"]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats().map(repr))
INTS = st.integers(-2, 6).map(str)
THREADS = st.integers(-2, 4).map(str)  # never more than 4 worker threads
T_GRID = st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(0.01, 100).map(repr)),
                  min_size=1, max_size=3).map(",".join)

PLAN_FLOATS = ["--sparsity", "--temperature", "--gamma", "--rho"]
FLAG_VALUES = {
    "plan": {**dict.fromkeys(PLAN_FLOATS, FLOATS), "--seed": INTS, "--threads": THREADS},
    "admm": {**dict.fromkeys([*PLAN_FLOATS, "--alpha", "--beta", "--lr", "--eps"], FLOATS),
             "--seed": INTS, "--threads": THREADS, "--iters": INTS, "--inner": INTS},
    "sweep": {**dict.fromkeys(["--sparsity", "--alpha", "--gamma", "--rho"], FLOATS),
              "--t-grid": T_GRID, "--seed": INTS, "--threads": THREADS},
    "eval": {"--alpha": FLOATS, "--seed": INTS, "--threads": THREADS},
}
FLAG_VALUES["prune"] = FLAG_VALUES["plan"]
# Short solves, so each example takes a fraction of a second; drawn flags
# come later on the command line and win.
BASE = {"admm": ["--iters", "2", "--inner", "3"], "sweep": ["--t-grid", "0.5,1"]}

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("props")
    model, calib, pruned = (str(root / name) for name in ("model", "calib", "pruned"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--d", "8", "--layers", "2", "--heads", "2", "--seed", "7",
                     "--out", model]) == 0
        assert main(["calibrate", "--model", model, "--n", "4", "--seq-len", "8", "--seed", "8",
                     "--out", calib]) == 0
        assert main(["prune", "--model", model, "--calib", calib, "--method", "magnitude",
                     "--out", pruned]) == 0
    return str(root), model, calib, pruned


def flags(command):
    """Up to three distinct flags of `command`, each with a drawn value."""
    values = FLAG_VALUES[command]
    return st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True).flatmap(
        lambda names: st.tuples(*(st.tuples(st.just(n), values[n]) for n in names))
    )


def check_artifact(path):
    name = os.path.basename(path)
    if name.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            json.loads(fh.read(), parse_constant=lambda c: pytest.fail(f"{name} holds {c}"))
    elif name.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows and all(len(r) == len(rows[0]) for r in rows), name
        for row in rows[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), f"{name} holds {cell}"
    else:
        assert name.endswith(".bin"), name
        assert np.isfinite(np.fromfile(path, dtype="<f4")).all(), name


def run_contract(dirs, command, argv):
    root, model, calib, pruned = dirs
    out = tempfile.mkdtemp(dir=root)
    shutil.rmtree(out)
    paths = ["--model", pruned, "--dense", model] if command == "eval" else ["--model", model]
    full = [command, *paths, "--calib", calib, *BASE.get(command, []), *argv, "--out", out]
    err = io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(full)
        stderr = err.getvalue()
        event(f"exit {code}")
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 1, 2), full
        assert "Traceback" not in stderr and "Warning" not in stderr, stderr
        lines = stderr.splitlines()
        if code == 0:
            assert not lines, stderr
            for dirpath, _, names in os.walk(out):
                for name in names:
                    check_artifact(os.path.join(dirpath, name))
        else:
            prefix = "error:" if code == 1 else "solver error:"
            assert len(lines) == 1 and lines[0].startswith(prefix), (full, stderr)
        return code, stderr
    finally:
        shutil.rmtree(out, ignore_errors=True)


def pairs(*items):
    return tuple(zip(items[::2], items[1::2]))


@SETTINGS
@given(method=st.sampled_from(METHODS), drawn=flags("plan"))
@example(method="softmax", drawn=pairs("--temperature", "1e-310"))
@example(method="inverse-weight", drawn=pairs("--temperature", "1e-310", "--rho", "1e308"))
def test_plan_contract(dirs, method, drawn):
    run_contract(dirs, "plan", ["--method", method, *sum(drawn, ())])


@SETTINGS
@given(method=st.sampled_from(METHODS), drawn=flags("prune"))
@example(method="softmax", drawn=pairs("--temperature", "1e-310"))
@example(method="closed-form", drawn=pairs("--sparsity", "5e-324"))
def test_prune_contract(dirs, method, drawn):
    run_contract(dirs, "prune", ["--method", method, *sum(drawn, ())])


@settings(SETTINGS, max_examples=100)
@given(method=st.sampled_from(METHODS), drawn=flags("admm"))
@example(method="softmax", drawn=pairs("--temperature", "1e-310"))
@example(method="softmax", drawn=pairs("--beta", "1e-17"))
@example(method="softmax", drawn=pairs("--alpha", "1e308"))
@example(method="softmax", drawn=pairs("--beta", "1e308"))
@example(method="softmax", drawn=pairs("--lr", "1e308"))
@example(method="closed-form", drawn=pairs("--eps", "0"))
@example(method="magnitude", drawn=pairs("--iters", "0"))
def test_admm_contract(dirs, method, drawn):
    run_contract(dirs, "admm", ["--method", method, *sum(drawn, ())])


@SETTINGS
@given(allocator=st.sampled_from(["softmax", "inverse-weight"]), drawn=flags("sweep"))
@example(allocator="softmax", drawn=pairs("--t-grid", "1e-310"))
@example(allocator="softmax", drawn=pairs("--t-grid", "1", "--alpha", "1e308"))
def test_sweep_contract(dirs, allocator, drawn):
    run_contract(dirs, "sweep", ["--allocator", allocator, *sum(drawn, ())])


@SETTINGS
@given(drawn=flags("eval"))
@example(drawn=pairs("--alpha", "1e308"))
def test_eval_contract(dirs, drawn):
    run_contract(dirs, "eval", list(sum(drawn, ())))


DROP = "<drop>"
FIELD_VALUES = st.sampled_from([DROP, None, True, 1.5, "8", -1, 0, 10**6, [], {}])


@settings(SETTINGS, max_examples=40)
@given(data=st.data())
def test_manifest_mutation_contract(dirs, data):
    """One field of the manifest (top level, arch.*, or one matrices[i].*)
    dropped or given another type or value; `plan` reads the result."""
    _, model, _, _ = dirs
    with open(os.path.join(model, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    fields = [(key,) for key in manifest] + [("arch", key) for key in manifest["arch"]] + [
        ("matrices", i, key) for i, entry in enumerate(manifest["matrices"]) for key in entry
    ]
    *parents, key = data.draw(st.sampled_from(fields), label="field")
    value = data.draw(FIELD_VALUES, label="value")
    target = manifest
    for parent in parents:
        target = target[parent]
    if value == DROP:
        del target[key]
    else:
        target[key] = value
    run_mutated(dirs, model, "--model", write_json("manifest.json", manifest))


CALIB_FIELDS = ("N", "seq_len", "d", "kind")  # the dense fixture's sidecar has no kind
KIND_VALUES = st.sampled_from(["tokens", "tokenz", ["tokens"]])


@settings(SETTINGS, max_examples=30)
@given(key=st.sampled_from(CALIB_FIELDS), value=st.one_of(FIELD_VALUES, KIND_VALUES))
def test_calibration_mutation_contract(dirs, key, value):
    """One calib.json field dropped or given another type or value; `plan`
    reads the result."""
    _, _, calib, _ = dirs
    with open(os.path.join(calib, "calib.json"), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    if value == DROP:
        sidecar.pop(key, None)
    else:
        sidecar[key] = value
    run_mutated(dirs, calib, "--calib", write_json("calib.json", sidecar))


@settings(SETTINGS, max_examples=30)
@given(data=st.data())
def test_blob_mutation_contract(dirs, data):
    """One model blob or calib.bin truncated or extended by a drawn byte
    count; `plan` reads the result and exits 1 with one `error:` line."""
    _, model, calib, _ = dirs
    blobs = [("--model", model, name) for name in sorted(os.listdir(model)) if name.endswith(".bin")]
    # calib.bin in about half the examples, one of the model blobs otherwise
    blob = st.one_of(st.just(("--calib", calib, "calib.bin")), st.sampled_from(blobs))
    flag, source, name = data.draw(blob, label="blob")
    size = os.path.getsize(os.path.join(source, name))
    delta = data.draw(st.integers(-size, 64).filter(bool), label="byte delta")

    def resize(directory):
        with open(os.path.join(directory, name), "r+b") as fh:
            fh.truncate(size + delta)  # extending pads with zero bytes

    code, stderr = run_mutated(dirs, source, flag, resize)
    assert code == 1, stderr
    if name == "calib.bin":
        assert "calib.bin" in stderr, stderr


def write_json(name, data):
    """A mutation that overwrites file `name` of a directory with data."""

    def write(directory):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    return write


def run_mutated(dirs, source, flag, mutate):
    """Run the contract of `plan` with `flag` naming a copy of directory
    source that mutate(copy) has changed; the later flag wins."""
    mutated = tempfile.mkdtemp(dir=dirs[0])
    try:
        shutil.copytree(source, mutated, dirs_exist_ok=True)
        mutate(mutated)
        return run_contract(dirs, "plan", [flag, mutated])
    finally:
        shutil.rmtree(mutated, ignore_errors=True)


@settings(SETTINGS, max_examples=25)
@given(method=st.sampled_from(METHODS), fail_at=st.integers(0, 12))
def test_interrupted_save_never_loads_a_mix(dirs, method, fail_at):
    """`prune` over an existing model directory stops when write_atomic
    raises at a drawn file of the save (12 blobs, then the manifest). The
    directory then loads as the old model, or `plan` on it exits 1 naming
    the missing manifest."""
    root, model, calib, _ = dirs
    out = tempfile.mkdtemp(dir=root)
    write = model_io.write_atomic
    calls = []

    def failing_write(path, data):
        if len(calls) == fail_at:
            raise OSError(f"interrupted writing {os.path.basename(path)}")
        calls.append(path)
        write(path, data)

    try:
        shutil.copytree(model, out, dirs_exist_ok=True)
        with mock.patch.object(model_io, "write_atomic", failing_write), \
                contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            assert main(["prune", "--model", model, "--calib", calib, "--method", method,
                         "--sparsity", "0.5", "--out", out]) == 1
        assert len(calls) == fail_at
        code, stderr = run_contract(dirs, "plan", ["--model", out])
        if code == 0:
            old, got = model_io.load_model(model), model_io.load_model(out)
            assert all(np.array_equal(w, v) for (_, w), (_, v) in
                       zip(old.named_matrices(), got.named_matrices(), strict=True))
        else:
            assert code == 1 and "manifest.json" in stderr, stderr
    finally:
        shutil.rmtree(out, ignore_errors=True)
