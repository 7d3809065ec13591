"""scipy loads on the first Cholesky factorization, not with struprune:
the commands that never factor never import it. Each check runs in a
fresh interpreter, because this suite imports scipy itself."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

SETUP = """
import contextlib, io, os, sys
from struprune.cli import main

root = sys.argv[1]
model, calib = os.path.join(root, "model"), os.path.join(root, "calib")

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    assert code == 0, (argv, code)

run("gen", "--d", "16", "--layers", "2", "--heads", "2", "--seed", "101", "--out", model)
run("calibrate", "--model", model, "--n", "8", "--seq-len", "16", "--seed", "202", "--out", calib)
"""


def run_fresh(tmp_path, body):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    script = SETUP + textwrap.dedent(body)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_one_shot_commands_never_import_scipy(tmp_path):
    run_fresh(tmp_path, """
        data = ["--model", model, "--calib", calib, "--sparsity", "0.3"]
        run("plan", *data, "--method", "softmax", "--out", os.path.join(root, "plan"))
        run("prune", *data, "--method", "softmax", "--out", os.path.join(root, "soft"))
        run("prune", *data, "--method", "closed-form", "--out", os.path.join(root, "cf"))
        run("sweep", *data, "--t-grid", "0.5,1", "--out", os.path.join(root, "sweep"))
        run("eval", "--model", os.path.join(root, "soft"), "--dense", model, "--calib", calib,
            "--out", os.path.join(root, "eval"))
        run("memory", "--out", os.path.join(root, "mem"))
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
    """)


def test_admm_and_verify_import_scipy_at_first_factorization(tmp_path):
    # With --threads 2 the first factorization, and so the import, runs
    # on a pool worker.
    run_fresh(tmp_path, """
        assert "scipy" not in sys.modules
        run("admm", "--model", model, "--calib", calib, "--iters", "2", "--inner", "3",
            "--threads", "2", "--out", os.path.join(root, "admm"))
        assert "scipy.linalg" in sys.modules
        run("verify")
    """)
