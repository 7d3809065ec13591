"""Property tests of the exit-code contract over numeric flag values.

Whatever value a float or int flag of plan, prune, admm, sweep or eval
takes, the CLI exits 0, 1 or 2 and prints no traceback and no warning;
exit 1 prints one `error:` line and exit 2 one `solver error:` line; and
a run that exits 0 writes only artifacts that parse as strict JSON or CSV
and hold no NaN or inf.
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

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

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
