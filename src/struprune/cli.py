"""Command-line pipeline: gen, calibrate, plan, prune, admm, eval, sweep,
memory, verify.

Artifacts are written atomically under --out only; identical flags and
seed reproduce identical bytes at BLAS thread count 1, for any --threads.
Exit codes: 0 success, 1 validation error, 2 solver error. STRUPRUNE_LOG
in {error, info, debug} controls logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import allocation, evaluation
from .admm import SolverConfig, export_trace_csv, run_outer_loop
from .errors import SingularSystemError, SolverError
from .importance import layer_importance
from .linalg import make_rng
from .model import (
    ModelArch,
    capture_reference_activations,
    generate_toy_model,
    load_calibration,
    load_model,
    make_calibration,
    save_calibration,
    save_model,
    write_atomic,
)

log = logging.getLogger("struprune")

METHODS = ("closed-form", "softmax", "inverse-weight", "magnitude", "snip", "l0", "wanda-local")

MASK_CRITERION_FOR_METHOD = {
    "closed-form": "closed-form",
    "softmax": "wanda",
    "inverse-weight": "wanda",
    "wanda-local": "wanda",
    "magnitude": "magnitude",
    "snip": "snip",
    "l0": "l0",
}


class CliValidationError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the pipeline contract
    reserves 2 for solver failures, so flag errors raise instead."""

    def error(self, message):
        raise CliValidationError(message)


def _setup_logging():
    level_name = os.environ.get("STRUPRUNE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise CliValidationError(f"STRUPRUNE_LOG must be one of {sorted(levels)}, got {level_name!r}")
    logging.basicConfig(level=levels[level_name], format="%(levelname)s %(name)s: %(message)s")


def _int_at_least(low: int):
    """argparse type of an int flag: an integer >= low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


POSITIVE_INT = _int_at_least(1)
NONNEGATIVE_INT = _int_at_least(0)


def _real(rule: str = "", ok=lambda v: True):
    """argparse type of a float flag: a finite number that satisfies ok."""

    def real(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be a finite number{rule}, got {text!r}")
        return value

    return real


POSITIVE = _real(" > 0", lambda v: v > 0)
GAMMA = _real(" in (0, 1]", lambda v: 0 < v <= 1)
NONNEGATIVE = _real(" >= 0", lambda v: v >= 0)
FRACTION = _real(" in (0, 1)", lambda v: 0 < v < 1)


def _t_grid(text: str) -> list[float] | None:
    """Comma-separated temperatures, each > 0; empty (None) selects the
    auto grid."""
    if not text:
        return None
    grid = [POSITIVE(tok) for tok in text.split(",") if tok.strip()]
    if not grid:
        raise argparse.ArgumentTypeError(f"holds no temperature, got {text!r}")
    return grid


def build_parser() -> Parser:
    parser = Parser(prog="struprune", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False, calib=False, method=False, out=True, seed=True, threads=True):
        p.add_argument("--config", help="JSON file with flag defaults; explicit flags win")
        if seed:
            p.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
        if threads:
            p.add_argument("--threads", type=POSITIVE_INT, default=1)
        if model:
            p.add_argument("--model", required=True, help="model directory")
        if calib:
            p.add_argument("--calib", required=True, help="calibration directory")
        if method:
            p.add_argument("--method", choices=METHODS, default="softmax")
            p.add_argument("--sparsity", type=FRACTION, default=0.3, help="fraction of units to prune, in (0, 1)")
            p.add_argument("--temperature", type=POSITIVE, default=None)
            p.add_argument("--gamma", type=GAMMA, default=1.0, help="depth decay factor")
            p.add_argument("--rho", type=POSITIVE, default=1.0, help="attention/MLP importance ratio")
        if out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen", help="generate a seeded toy model")
    common(p)
    p.add_argument("--d", type=POSITIVE_INT, default=16)
    p.add_argument("--layers", type=POSITIVE_INT, default=2)
    p.add_argument("--heads", type=POSITIVE_INT, default=2)
    p.add_argument("--ffn-dim", type=NONNEGATIVE_INT, default=0, help="0 selects the 4*d default")
    p.add_argument("--vocab", type=NONNEGATIVE_INT, default=0)
    p.add_argument("--layout", choices=("decoder", "ffn", "mha"), default="decoder")

    p = sub.add_parser("calibrate", help="generate a seeded calibration set")
    common(p, model=True)
    p.add_argument("--n", type=POSITIVE_INT, default=8)
    p.add_argument("--seq-len", type=POSITIVE_INT, default=16)
    p.add_argument("--kind", choices=("dense", "tokens"), default="dense")

    p = sub.add_parser("plan", help="compute a sparsity plan")
    common(p, model=True, calib=True, method=True)

    p = sub.add_parser("prune", help="one-shot structured prune")
    common(p, model=True, calib=True, method=True)

    p = sub.add_parser("admm", help="alternating-solver prune")
    common(p, model=True, calib=True, method=True)
    p.add_argument("--alpha", type=POSITIVE, default=1.0)
    p.add_argument("--beta", type=POSITIVE, default=1.0)
    p.add_argument("--iters", type=POSITIVE_INT, default=8, help="outer iterations")
    p.add_argument("--inner", type=NONNEGATIVE_INT, default=30, help="gradient steps per MHA sub-solve")
    p.add_argument("--lr", type=POSITIVE, default=0.01)
    p.add_argument("--eps", type=NONNEGATIVE, default=1e-6, help="ridge regularization")

    p = sub.add_parser("eval", help="measure a pruned model against its dense reference")
    common(p, model=True, calib=True)
    p.add_argument("--dense", required=True, help="dense reference model directory")
    p.add_argument("--alpha", type=POSITIVE, default=1.0)

    p = sub.add_parser("sweep", help="temperature grid search")
    common(p, model=True, calib=True)
    p.add_argument("--allocator", choices=("softmax", "inverse-weight"), default="softmax")
    p.add_argument("--sparsity", type=FRACTION, default=0.3)
    p.add_argument("--t-grid", type=_t_grid, default="",
                   help="comma-separated temperatures; empty = auto grid")
    p.add_argument("--alpha", type=POSITIVE, default=1.0)
    p.add_argument("--gamma", type=GAMMA, default=1.0)
    p.add_argument("--rho", type=POSITIVE, default=1.0)

    p = sub.add_parser("memory", help="emit the analytic parameter/memory tables")
    common(p, seed=False, threads=False)

    p = sub.add_parser("verify", help="run the oracle cross-checks")
    common(p, out=False, threads=False)
    return parser


def _parse_args(parser: Parser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with the JSON --config values as flag defaults. The
    config entries go in as flags ahead of the command line's own, so they
    pass the same type and choices checks, and explicit flags win."""
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise CliValidationError("config file must hold a JSON object")
    flags = []
    for key, value in data.items():
        if not hasattr(args, key.replace("-", "_")):
            raise CliValidationError(f"config key {key!r} is not a flag of this command")
        text = value if isinstance(value, str) else json.dumps(value)
        flags.append(f"--{key.replace('_', '-')}={text}")
    cut = argv.index(args.command) + 1
    try:
        return parser.parse_args(argv[:cut] + flags + argv[cut:])
    except CliValidationError as exc:
        raise CliValidationError(f"config {args.config}: {exc}") from None


def _wanda_importances(model, cache) -> list[float]:
    return [li.value for li in layer_importance(model, cache, "wanda-sum")]


def _default_temperature(model, cache) -> float:
    return allocation.importance_scale(_wanda_importances(model, cache))


def _load_inputs(args):
    model = load_model(args.model)
    calib = load_calibration(args.calib)
    cache = capture_reference_activations(model, calib, threads=args.threads)
    return model, calib, cache


def cmd_gen(args) -> int:
    arch = ModelArch(args.d, args.layers, args.heads, args.ffn_dim, args.vocab)
    model = generate_toy_model(arch, make_rng(args.seed), layout=args.layout)
    save_model(model, args.out)
    log.info("wrote model with %d blocks to %s", len(model.blocks), args.out)
    print(args.out)
    return 0


def cmd_calibrate(args) -> int:
    model = load_model(args.model)
    calib = make_calibration(model.arch, args.n, args.seq_len, make_rng(args.seed), args.kind)
    save_calibration(calib, args.out, model.arch.d)
    print(args.out)
    return 0


def _make_plan(args, model, cache):
    temperature = args.temperature
    if temperature is None:
        temperature = _default_temperature(model, cache)
    return allocation.allocate_plan(
        model, cache, args.method, args.sparsity, temperature, args.gamma, args.rho
    )


def cmd_plan(args) -> int:
    from .importance import block_unit_scores, export_scores_csv

    model, _, cache = _load_inputs(args)
    plan = _make_plan(args, model, cache)
    write_atomic(os.path.join(args.out, "plan.csv"), allocation.export_plan_csv(plan).encode())
    criterion = MASK_CRITERION_FOR_METHOD[args.method]
    if criterion != "closed-form":
        rng = make_rng(args.seed)
        scores = {
            i: block_unit_scores(model, cache, i, criterion, rng) for i in range(len(model.blocks))
        }
        write_atomic(
            os.path.join(args.out, "scores.csv"),
            export_scores_csv(scores, criterion, model).encode(),
        )
    print(os.path.join(args.out, "plan.csv"))
    return 0


def cmd_prune(args) -> int:
    model, _, cache = _load_inputs(args)
    if args.method == "closed-form":
        masks, plan = allocation.global_closed_form_masks(model, cache, args.sparsity)
    else:
        plan = _make_plan(args, model, cache)
        masks = allocation.build_masks(
            model, cache, plan, MASK_CRITERION_FOR_METHOD[args.method], make_rng(args.seed)
        )
    pruned = allocation.apply_masks(model, masks)
    save_model(pruned, args.out)
    write_atomic(os.path.join(args.out, "plan.csv"), allocation.export_plan_csv(plan).encode())
    print(args.out)
    return 0


def cmd_admm(args) -> int:
    model, _, cache = _load_inputs(args)
    plan = _make_plan(args, model, cache)
    cfg = SolverConfig(
        alpha=args.alpha,
        beta=args.beta,
        outer_iters=args.iters,
        inner_steps=args.inner,
        learning_rate=args.lr,
        ridge_eps=args.eps,
        seed=args.seed,
        mask_criterion=MASK_CRITERION_FOR_METHOD[args.method],
    )
    result = run_outer_loop(model, cache, plan, cfg, threads=args.threads)
    save_model(result.model, args.out)
    write_atomic(os.path.join(args.out, "trace.csv"), export_trace_csv(result.trace).encode())
    write_atomic(os.path.join(args.out, "plan.csv"), allocation.export_plan_csv(plan).encode())
    log.info(
        "post-prune loss %.6g -> final loss %.6g", result.initial_post_prune_loss, result.final_loss
    )
    print(args.out)
    return 0


def cmd_eval(args) -> int:
    import time

    started = time.perf_counter()
    pruned = load_model(args.model)
    dense = load_model(args.dense)
    calib = load_calibration(args.calib)
    cache = capture_reference_activations(dense, calib, threads=args.threads)
    loss = evaluation.total_reconstruction_loss(
        pruned, cache, alpha=args.alpha, threads=args.threads
    )
    del cache  # the reference is not needed by pseudo-perplexity
    ppl = None
    if calib.is_tokens and pruned.head is not None:
        ppl = evaluation.pseudo_perplexity(pruned, calib, threads=args.threads)
    report = evaluation.EvalReport(
        per_layer_loss=loss.per_layer,
        total_loss=loss.total,
        sparsity_per_layer=evaluation.achieved_sparsity(pruned),
        pseudo_perplexity=ppl,
        config={
            "alpha": args.alpha,
            "model": os.path.basename(os.path.normpath(args.model)),
            "dense": os.path.basename(os.path.normpath(args.dense)),
            "seed": args.seed,
        },
        wall_time_s=time.perf_counter() - started,
    )
    write_atomic(os.path.join(args.out, "report.json"), report.to_json().encode())
    rows = evaluation.memory_report()
    write_atomic(os.path.join(args.out, "memory.csv"), evaluation.export_memory_csv(rows).encode())
    log.info("eval wall time %.3fs", report.wall_time_s)
    print(os.path.join(args.out, "report.json"))
    return 0


def cmd_sweep(args) -> int:
    model, _, cache = _load_inputs(args)
    grid = args.t_grid
    if grid is None:
        grid = allocation.default_temperature_grid(_wanda_importances(model, cache))
    best_t, plan, table = allocation.temperature_sweep(
        model,
        cache,
        grid,
        args.allocator,
        args.sparsity,
        gamma=args.gamma,
        rho=args.rho,
        alpha=args.alpha,
        threads=args.threads,
    )
    write_atomic(os.path.join(args.out, "sweep.csv"), allocation.export_sweep_csv(table).encode())
    write_atomic(os.path.join(args.out, "plan.csv"), allocation.export_plan_csv(plan).encode())
    print(repr(best_t))
    return 0


def cmd_memory(args) -> int:
    rows = evaluation.memory_report()
    write_atomic(os.path.join(args.out, "memory.csv"), evaluation.export_memory_csv(rows).encode())
    write_atomic(
        os.path.join(args.out, "module_split.csv"),
        evaluation.export_module_split_csv(rows).encode(),
    )
    print(os.path.join(args.out, "memory.csv"))
    return 0


def cmd_verify(args) -> int:
    # Oracle machinery is test-path only; import it here, not at module load.
    import scipy.linalg

    from . import oracle
    from .allocation import ClosedFormContext, binarize_by_threshold, unit_scores_closed_form
    from .linalg import cho_solve, softmax_vec

    rng = make_rng(args.seed)
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail and not ok else ''}")
        if not ok:
            failures += 1

    for trial in range(5):
        n = int(rng.integers(4, 9))
        scale = float(rng.uniform(0.5, 2.0))
        c = scale * rng.choice([-1.0, 1.0], size=n)
        b = rng.normal(size=n)
        ctx = ClosedFormContext(b, c, np.zeros(n), np.zeros(n))
        k = int(rng.integers(0, n + 1))
        mask = binarize_by_threshold(unit_scores_closed_form(ctx), k)
        enum = oracle.enumerate_masks(ctx, k)
        check(
            f"top-k matches enumeration (trial {trial}, n={n}, k={k})",
            abs(ctx.mask_loss(mask) - enum.best_loss) < 1e-9,
            f"gap={ctx.mask_loss(mask) - enum.best_loss:.3e}",
        )
    for trial in range(3):
        n_layers = int(rng.integers(2, 7))
        imps = rng.normal(size=n_layers)
        temp = float(np.mean(np.abs(imps))) + 0.5
        r_bar = 0.5
        closed = r_bar * n_layers * softmax_vec(imps, temp)
        if closed.max() >= 1.0 or closed.min() <= 1e-5:
            continue
        solved = oracle.energy_minimize_projected(imps, r_bar, temp, n_layers)
        check(
            f"energy solver matches softmax allocation (trial {trial})",
            float(np.max(np.abs(closed - solved))) < 1e-4,
            f"gap={float(np.max(np.abs(closed - solved))):.3e}",
        )
    # Tiled forward against the single-pass one on this machine's BLAS:
    # T = 2560 makes two token tiles of unequal width.
    arch = ModelArch(d=16, num_layers=2, num_heads=2, vocab=32)
    model = generate_toy_model(arch, rng)
    calib = make_calibration(arch, 160, 16, rng, kind="tokens")
    cache = capture_reference_activations(model, calib, threads=2)
    tiled = [rec.frozen_arrays() for rec in cache.blocks]
    single = oracle.dense_forward_reference(model, calib)
    same = all(
        (a is None and b is None) or np.array_equal(a, b)
        for rec_t, rec_s in zip(tiled, single)
        for a, b in zip(rec_t, rec_s)
    )
    ppl = evaluation.pseudo_perplexity(model, calib, threads=2)
    ppl_ref = oracle.pseudo_perplexity_reference(model, calib)
    check(
        "tiled forward matches single-pass forward (T=2560, 2 token tiles)",
        same and ppl == ppl_ref,
        f"arrays equal={same}, ppl {ppl!r} vs {ppl_ref!r}",
    )
    # The GIL-free Cholesky solve against scipy's on this machine's LAPACK,
    # at the shape of one FFN activation solve (512 x 2048).
    w = rng.normal(size=(512, 512))
    factor = scipy.linalg.cho_factor(w.T @ w + np.eye(512), lower=True, check_finite=False)
    rhs = rng.normal(size=(512, 2048))
    same = np.array_equal(cho_solve(factor, rhs), oracle.cho_solve_reference(factor, rhs))
    check("GIL-free Cholesky solve matches scipy's (512 x 2048)", same, "solutions differ")
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)")
    return 0 if failures == 0 else 1


COMMANDS = {
    "gen": cmd_gen,
    "calibrate": cmd_calibrate,
    "plan": cmd_plan,
    "prune": cmd_prune,
    "admm": cmd_admm,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "memory": cmd_memory,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _setup_logging()
        args = _parse_args(build_parser(), argv)
        return COMMANDS[args.command](args)
    except (CliValidationError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, SingularSystemError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
