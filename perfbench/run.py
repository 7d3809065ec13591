"""struprune benchmark: runs the CLI pipeline of one workload in fresh
child processes, checks every artifact, and prints each metric by name
with its unit. The last line of standard output is one JSON object.

    python3 perfbench/run.py --workload admm-decoder --seed 0 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of untraced reps (every CLI
subcommand gets --threads 2). --trace 1 runs one untraced rep at
--threads 2 and alternates traced and untraced reps at --threads 1; it
reports per-layer span metrics, checks that call counts repeat exactly
and match their closed forms, and that every rep wrote identical bytes.
Run it from the root of a source checkout: it imports struprune from
src/ and writes only under .perfbench_work/, which it removes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

# Pinned before numpy loads here and in every child.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    AUTO_GRID,
    EXTRA_METRICS,
    LAYER_METRICS,
    REQUIRED_BINDINGS,
    SOLVE_STAGES,
    TRACED_MODULES,
    WORKLOADS,
    Workload,
    expected_counts,
)

DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_PROBES = 3  # setup-only children per untraced run, besides each rep's own setup
DIGESTED = ("trace.csv", "report.json", "plan.csv", "sweep.csv")

# End-to-end metrics (untraced reps) and per-layer metrics (traced reps).
E2E = {"setup_s": "s", "solve_s": "s", "total_s": "s", "peak_rss_mb": "MB", "recon_loss": "loss"}
PER_LAYER = {m: u for m, u, _, _ in LAYER_METRICS} | dict(EXTRA_METRICS)


class BenchError(Exception):
    """A fault in the benchmark or its environment: no result is printed."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def blas_runtime_config() -> str:
    """The OpenBLAS configuration string numpy loaded at run time (it names
    the CPU kernel set), or the build-time string if it cannot be read."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode().strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')} (build config)"
    except (TypeError, KeyError):
        return "unknown"


def environment(args, threads: int, w: Workload) -> dict:
    import platform

    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_runtime_config(),
        "blas_env": dict(BLAS_ENV),
        "threads": threads,
        "seed": args.seed,
        "derived_seeds": w.seeds(args.seed),
    }


def digest_key(env: dict) -> dict:
    """Artifacts are compared across machines only when these agree."""
    return {k: env[k] for k in ("numpy", "scipy", "blas")}


# ---------------------------------------------------------------------------
# Child reps
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    """One child process: its stage timings, checks and artifact digests."""

    label: str
    stages: list[dict]
    setup_s: float | None
    maxrss_kb: int | None
    trace: dict | None
    failures: list[str]
    attempted: int
    failed: int
    digest: str = ""  # combined sha256 of the DIGESTED artifacts
    all_digest: str = ""  # combined sha256 of every file the rep wrote
    files: dict[str, str] = field(default_factory=dict)
    recon_loss: float | None = None

    def stage_seconds(self, name: str) -> float:
        return next(s["seconds"] for s in self.stages if s["name"] == name)


def run_child(work: str, label: str, w: Workload, seed: int, threads: int, trace: bool,
              with_stages: bool, deadline: float) -> Rep:
    rep_dir = os.path.join(work, label)
    os.makedirs(rep_dir)
    setup = w.setup_argv(seed, threads)
    stages = w.stage_argv(seed, threads) if with_stages else []
    spec = {
        "src": SRC,
        "workdir": rep_dir,
        "setup": setup,
        "stages": stages,
        "trace": trace,
        "required_functions": sorted({f for _, _, _, fs in LAYER_METRICS for f in fs}),
        "required_bindings": list(REQUIRED_BINDINGS),
        "result": os.path.join(work, f"{label}.result.json"),
    }
    spec_path = os.path.join(work, f"{label}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise BenchError("no time left for another rep")
    log_path = os.path.join(work, f"{label}.log")
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                stdout=log, stderr=subprocess.STDOUT, env=env, timeout=timeout,
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
    names = [a[0] for a in setup] + [n for n, _ in stages]
    result = None
    if os.path.exists(spec["result"]):
        with open(spec["result"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
    if result is not None and result.get("fatal"):
        raise BenchError(result["fatal"])
    if result is None or code != 0:
        with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        why = "timed out" if code is None else f"exited with code {code}"
        return Rep(label, [], None, None, None, [f"{label}: child {why}\n{tail}"], len(names), len(names))
    failures: list[str] = []
    failed = 0
    for stage in result["stages"]:
        problems = [stage["error"]] if stage["error"] else check_stage(stage["name"], rep_dir, w)
        if problems:
            failed += 1
            failures.extend(f"{label}: {stage['name']}: {p}" for p in problems)
    # Stages after a failed one are not run but still count as attempted.
    attempted = len(names)
    failed += attempted - len(result["stages"])
    setup_s = result["setup_done"] - spawned if len(result["stages"]) >= len(setup) else None
    files = artifact_digests(rep_dir)
    report = os.path.join(rep_dir, "report", "report.json")
    recon = strict_json(report)["total_loss"] if with_stages and os.path.exists(report) and failed == 0 else None
    picked = {k: v for k, v in files.items() if os.path.basename(k) in DIGESTED}
    rep = Rep(label, result["stages"][len(setup):], setup_s, result["maxrss_kb"], result.get("trace"),
              failures, attempted, failed, combined(picked), combined(files), picked, recon)
    shutil.rmtree(rep_dir)
    return rep


def artifact_digests(rep_dir: str) -> dict[str, str]:
    out = {}
    for dirpath, _, filenames in os.walk(rep_dir):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, rep_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def combined(files: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k}\0{v}\n" for k, v in files.items()).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Artifact checks
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path: str):
    """Parse JSON rejecting NaN and +-Infinity."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)


def read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def blob_sparsity(model_dir: str, w: Workload) -> list[float]:
    """Per block: share of all-zero rows of the mask-bearing matrices (w1,
    or wq/wk/wv), read straight from the blobs."""
    import numpy as np

    manifest = strict_json(os.path.join(model_dir, "manifest.json"))
    mats = {e["name"]: e for e in manifest["matrices"]}
    out = []
    for i in range(w.blocks):
        names = [f"layer{i}.ffn.w1"] if f"layer{i}.ffn.w1" in mats else [
            f"layer{i}.mha.{m}" for m in ("wq", "wk", "wv")]
        fracs = []
        for name in names:
            e = mats[name]
            blob = np.fromfile(os.path.join(model_dir, e["file"]), dtype="<f4").reshape(e["rows"], e["cols"])
            fracs.append(float(np.mean(~np.any(blob != 0.0, axis=1))))
        out.append(float(np.mean(fracs)))
    return out


def check_plan(path: str, w: Workload, sparsity: list[float] | None = None) -> list[str]:
    rows = read_csv(path)
    if len(rows) != w.blocks:
        return [f"{path}: {len(rows)} plan rows, expected {w.blocks}"]
    problems = []
    for row in rows:
        s = float(row["sparsity"])
        if not (math.isfinite(s) and 0.0 <= s <= 1.0):
            problems.append(f"{path}: layer {row['layer']} sparsity {s} outside [0, 1]")
    if sparsity is not None:
        for row, got in zip(rows, sparsity):
            # Budgets round to whole units: at most half a unit off the plan.
            tol = 0.5 / w.units[row["block_kind"]] + 1e-9
            if abs(got - float(row["sparsity"])) > tol:
                problems.append(
                    f"layer {row['layer']}: achieved sparsity {got} outside plan {row['sparsity']} +- {tol:.4g}"
                )
    return problems


def check_stage(name: str, rep: str, w: Workload) -> list[str]:
    """Artifact checks of one successful stage; each message is a failure."""
    try:
        return _check_stage(name, rep, w)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def _check_stage(name: str, rep: str, w: Workload) -> list[str]:
    j = os.path.join
    if name == "gen":
        arch = strict_json(j(rep, "model", "manifest.json"))["arch"]
        return [] if (arch["d"], arch["L"]) == (w.d, w.layers) else [f"manifest arch {arch}"]
    if name == "calibrate":
        meta = strict_json(j(rep, "calib", "calib.json"))
        return [] if (meta["N"], meta["seq_len"]) == (w.n, w.seq_len) else [f"calib.json {meta}"]
    if name == "plan":
        return check_plan(j(rep, "planned", "plan.csv"), w)
    if name.startswith("prune."):
        out = j(rep, "pruned-cf" if name == "prune.closed-form" else "pruned-sm")
        return check_plan(j(out, "plan.csv"), w, blob_sparsity(out, w))
    if name == "admm":
        out = j(rep, "solved")
        rows = read_csv(j(out, "trace.csv"))
        want = [(it, layer) for it in range(1, w.iters + 1) for layer in range(w.blocks)]
        got = [(int(r["iteration"]), int(r["layer"])) for r in rows]
        problems = [] if got == want else [f"trace.csv has {len(rows)} rows, expected {len(want)} (blocks x iterations)"]
        problems += [f"trace.csv objective {r['objective']} at {r['iteration']},{r['layer']}"
                     for r in rows if not math.isfinite(float(r["objective"]))]
        return problems + check_plan(j(out, "plan.csv"), w, blob_sparsity(out, w))
    if name == "sweep":
        rows = read_csv(j(rep, "swept", "sweep.csv"))
        problems = [] if len(rows) == AUTO_GRID else [f"sweep.csv has {len(rows)} rows, expected {AUTO_GRID}"]
        problems += [f"sweep.csv loss {r['total_loss']}" for r in rows if not math.isfinite(float(r["total_loss"]))]
        return problems + check_plan(j(rep, "swept", "plan.csv"), w)
    if name == "eval":
        report = strict_json(j(rep, "report", "report.json"))
        problems = []
        if not (finite(report["total_loss"]) and report["total_loss"] >= 0):
            problems.append(f"total_loss {report['total_loss']}")
        losses = [e["loss"] for e in report["per_layer_loss"]]
        if len(losses) != w.blocks or not all(finite(v) for v in losses):
            problems.append(f"per-layer losses {losses}")
        ppl = report["pseudo_perplexity"]
        if (w.kind == "tokens") != (ppl is not None) or (ppl is not None and not finite(ppl)):
            problems.append(f"pseudo_perplexity {ppl}")
        achieved = [e["sparsity"] for e in report["sparsity_per_layer"]]
        return problems + check_plan(j(rep, w.evaluated, "plan.csv"), w, achieved)
    raise ValueError(f"no checks for stage {name!r}")


# ---------------------------------------------------------------------------
# Statistics and traced metrics
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> str:
    """Median, plus the highest percentile that has at least ten samples
    beyond it, with the sample count."""
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median {statistics.median(values):.6g}"
    if n >= 11:
        p = math.floor(100.0 * (1.0 - 10.0 / n))
        text += f", p{p} {sorted(values)[max(0, math.ceil(p / 100.0 * n) - 1)]:.6g}"
    else:
        text += ", no percentile has ten samples beyond it"
    return f"{text} (n={n})"


def merged(trace: dict, table: str) -> dict:
    """One aggregate table of a traced rep, summed over its stages."""
    out: dict = {}
    for agg in trace["per_stage"]:
        for k, v in agg[table].items():
            out[k] = out.get(k, 0) + v
    return out


def layer_metrics(trace: dict, stage_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one traced rep, summed over its timed stages."""
    tables = {kind: merged(trace, kind) for kind in ("incl", "self", "calls")}
    out: dict[str, float] = {
        metric: sum(tables[kind].get(f, 0) for f in funcs) for metric, _, kind, funcs in LAYER_METRICS
    }
    out["linalg.ridge_solve.flops_computed"] = trace["flops"]
    out["model.bytes_read"] = trace["bytes_read"]
    out["cli.self_s"] = stage_seconds - sum(agg["top_s"] for agg in trace["per_stage"])
    for module in TRACED_MODULES:
        out[f"{module}.self_s"] = sum(v for k, v in tables["self"].items() if k.split(".")[0] == module)
    return out


def call_counts(trace: dict) -> dict[str, int]:
    return merged(trace, "calls") | merged(trace, "sites")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def load_baseline() -> dict:
    with open(os.path.join(HERE, "baseline.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def window(seconds: float, deadline: float, minimum: int):
    """Yield rep indices for a run of `seconds`: at least `minimum`, then
    only reps expected (from the median rep so far) to end within the
    window, and none that could run past the hard deadline."""
    start = time.monotonic()
    durations: list[float] = []
    while True:
        now = time.monotonic()
        if len(durations) >= minimum and (
            now - start + statistics.median(durations) > seconds or now + 1.5 * max(durations) > deadline
        ):
            return
        yield len(durations)
        durations.append(time.monotonic() - now)


def measure_untraced(work, w, args, threads, deadline):
    """Setup-only probes, then full reps, all inside the --seconds window."""
    probes: list[Rep] = []
    reps: list[Rep] = []
    start = time.monotonic()
    for i in range(SETUP_PROBES):
        probes.append(run_child(work, f"setup{i}", w, args.seed, threads, False, False, deadline))
    for i in window(args.seconds - (time.monotonic() - start), deadline, 1):
        reps.append(run_child(work, f"rep{i}", w, args.seed, threads, False, True, deadline))
    setup = [r.setup_s for r in probes + reps if r.failed == 0]
    return probes, reps, setup


def measure_traced(work, w, args, threads, deadline):
    """One untraced rep at the benchmark's thread count, then traced and
    untraced reps at --threads 1, alternating, at least two of each."""
    start = time.monotonic()
    reps = [run_child(work, f"untraced-t{threads}", w, args.seed, threads, False, True, deadline)]
    traced: list[Rep] = []
    plain: list[Rep] = []
    for i in window(args.seconds - (time.monotonic() - start), deadline, 2):
        traced.append(run_child(work, f"traced{i}", w, args.seed, 1, True, True, deadline))
        plain.append(run_child(work, f"untraced-t1-{i}", w, args.seed, 1, False, True, deadline))
    return reps + traced + plain, traced, plain


def total_seconds(rep: Rep) -> float:
    return sum(s["seconds"] for s in rep.stages)


def check_declared():
    """BENCHMARK.json, when present, must declare exactly the workloads
    and metrics this benchmark reports, with the same units."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    for key, have in (("workloads", dict.fromkeys(WORKLOADS)), ("end_to_end", E2E), ("per_layer", PER_LAYER)):
        names = [m["name"] for m in declared[key]]
        if sorted(names) != sorted(have):
            raise BenchError(f"BENCHMARK.json {key} {names} do not match the benchmark's {sorted(have)}")
        for m in declared[key]:
            if "unit" in m and m["unit"] != have[m["name"]]:
                raise BenchError(f"BENCHMARK.json unit of {m['name']} is {m['unit']}, not {have[m['name']]}")


def check_digest(seed: int, env: dict, w: Workload, rep: Rep) -> list[str]:
    """Compare the default seed's combined digest with the recorded one."""
    print(f"artifact sha256 ({', '.join(DIGESTED)}):")
    for path, sha in rep.files.items():
        print(f"  {sha}  {path}")
    print(f"  {rep.digest}  (combined)")
    baseline = load_baseline()
    recorded = baseline["digests"].get(w.name)
    if seed != baseline["default_seed"]:
        print("digest check: not the default seed")
    elif digest_key(env) != baseline["digest_environment"]:
        print("digest check: skipped, numpy/scipy/BLAS differ from the recorded environment")
    elif recorded != rep.digest:
        return [f"combined digest {rep.digest} differs from the recorded {recorded} for the default seed"]
    else:
        print("digest check: matches the recorded default-seed digest")
    return []


def untraced_metrics(w: Workload, measured: list[Rep], setup: list[float]) -> dict[str, float]:
    names = list(w.stages)
    for name in names:
        print(f"stage {name.replace('.', '_')}_s: {summary([r.stage_seconds(name) for r in measured])} s")
    if "prune.softmax" in names:
        prune = [r.stage_seconds("prune.closed-form") + r.stage_seconds("prune.softmax") for r in measured]
        print(f"stage prune_s: {summary(prune)} s")
    samples = {
        "setup_s": setup,
        "solve_s": [sum(r.stage_seconds(n) for n in names if n in SOLVE_STAGES) for r in measured],
        "total_s": [total_seconds(r) for r in measured],
        "peak_rss_mb": [r.maxrss_kb / 1024.0 for r in measured],
        "recon_loss": [r.recon_loss for r in measured],
    }
    for name in ("setup_s", "solve_s", "total_s", "peak_rss_mb"):
        print(f"{name} samples: {summary(samples[name])}")
    return {k: statistics.median(v) if v else math.nan for k, v in samples.items()}


def traced_metrics(w: Workload, traced: list[Rep], plain: list[Rep], failures: list[str]) -> dict[str, float]:
    ok = [r for r in traced if r.failed == 0]
    per_rep = [layer_metrics(r.trace, total_seconds(r)) for r in ok]
    counts = [call_counts(r.trace) for r in ok]
    if len(ok) < 2:
        failures.append("fewer than two traced reps completed")
        return {name: math.nan for name in PER_LAYER}
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for c in counts[1:] for k in set(c) | set(counts[0]) if c.get(k) != counts[0].get(k))
        failures.append(f"call counts differ between traced reps: {diff[:10]}")
    for key, want in sorted(expected_counts(w).items()):
        got = counts[0].get(key, 0)
        print(f"count {key}: {got} (closed form {want}) {'ok' if got == want else 'MISMATCH'}")
        if got != want:
            failures.append(f"count {key} = {got}, closed form {want}")
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            plain_ok = [total_seconds(r) for r in plain if r.failed == 0]
            out[name] = (statistics.median(total_seconds(r) for r in ok) / statistics.median(plain_ok) - 1.0
                         if plain_ok else math.nan)
        elif unit == "s":
            out[name] = statistics.median(m[name] for m in per_rep)
        else:
            out[name] = per_rep[0][name]  # exact, and equal in every rep
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "struprune", "cli.py")):
        print(f"error: no struprune source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    w = WORKLOADS[args.workload]
    threads = min(2, os.cpu_count() or 1)
    scratch = os.path.join(ROOT, ".perfbench_work")
    try:
        check_declared()
        env = environment(args, threads, w)
        print(f"workload {w.name}: {json.dumps(w.shape())}")
        print(f"environment: {json.dumps(env)}")
        os.makedirs(scratch, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch)
        try:
            if args.trace:
                reps, traced, plain = measure_traced(work, w, args, threads, deadline)
                probes, setup = [], []
            else:
                probes, reps, setup = measure_untraced(work, w, args, threads, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if not os.listdir(scratch):
                os.rmdir(scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    everything = probes + reps
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    failures = [f for r in everything for f in r.failures]
    measured = [r for r in reps if r.failed == 0]
    # Every rep of one seed must write the same bytes, traced or not and
    # at any --threads: the determinism contract, checked from outside.
    if len({r.all_digest for r in measured}) > 1:
        failures.append("reps wrote different artifact bytes: " +
                        ", ".join(f"{r.label}={r.all_digest[:12]}" for r in measured))
    if measured:
        failures += check_digest(args.seed, env, w, measured[0])
    if args.trace:
        values = traced_metrics(w, traced, plain, failures)
        units = PER_LAYER
    else:
        values = untraced_metrics(w, measured, setup)
        units = E2E
    for name, value in values.items():
        print(f"metric {name}: {value!r} {units[name]}")
    print(f"fail_frac: {failed / attempted!r} ({failed} of {attempted} stages failed)")
    for f in failures:
        print(f"FAIL {f}")
    correct = not failures and failed == 0 and all(math.isfinite(v) for v in values.values())
    metrics = {k: {"value": v if math.isfinite(v) else None, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
