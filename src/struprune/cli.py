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
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import allocation, evaluation
from .admm import SolverConfig, export_trace_csv, run_outer_loop
from .errors import SingularSystemError, SolverError
from .importance import layer_importance
from .linalg import make_rng
from .model import (
    FFN,
    FULL,
    LOSS_TERMS,
    MASK_BEARING,
    MATRIX_IO,
    MHA,
    SUB_TILE_TOKENS,
    TILE_TOKENS,
    CapturePolicy,
    ModelArch,
    _malloc_policy,
    _masked_rows,
    _sub_tiles,
    _token_tiles,
    _worker_pool,
    capture_reference_activations,
    generate_toy_model,
    load_calibration,
    load_model,
    make_calibration,
    read_json,
    save_calibration,
    save_model,
    write_atomic,
)

log = logging.getLogger("struprune")

METHODS = ("closed-form", "softmax", "inverse-weight", "magnitude", "snip", "l0", "wanda-local")

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
    # basicConfig adds the stderr handler only while the root logger has
    # none, so the level goes on struprune's logger, set anew by each call.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(levels[level_name])


@contextmanager
def _resource_log(command: str):
    """At debug level, log what the command cost the process: wall, user
    and system seconds, minor page faults and the rise of the peak RSS
    (ru_maxrss, kB on Linux), as getrusage deltas."""
    if not log.isEnabledFor(logging.DEBUG):
        yield
        return
    wall, before = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    try:
        yield
    finally:
        after = resource.getrusage(resource.RUSAGE_SELF)
        log.debug("%s resources: wall %.3f s, user %.3f s, sys %.3f s, minflt %d, maxrss +%d kB (%d kB)",
                  command, time.perf_counter() - wall, after.ru_utime - before.ru_utime,
                  after.ru_stime - before.ru_stime, after.ru_minflt - before.ru_minflt,
                  after.ru_maxrss - before.ru_maxrss, after.ru_maxrss)


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
    data = read_json(args.config)
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


def _check_out(args) -> None:
    """--out may not be an input directory (--model, --dense, --calib) or
    lie inside one, after resolving links: writing there would overwrite
    or mix into the inputs."""
    out = getattr(args, "out", None)
    if out is None:
        return
    real_out = os.path.realpath(out)
    for flag in ("model", "dense", "calib"):
        src = getattr(args, flag, None)
        if src is None:
            continue
        real_src = os.path.realpath(src)
        if os.path.commonpath([real_out, real_src]) == real_src:
            raise CliValidationError(
                f"--out {out} is or lies inside --{flag} {src}; write the outputs elsewhere"
            )


def _wanda_importances(model, cache) -> list[float]:
    return [li.value for li in layer_importance(model, cache, "wanda-sum")]


def _load_inputs(args, policy: CapturePolicy = FULL):
    """The model and its frozen reference on the calibration set, as
    `policy` keeps it; only capture reads the calibration set, so it is
    freed when capture ends."""
    model = load_model(args.model)
    cache = capture_reference_activations(model, load_calibration(args.calib), threads=args.threads,
                                          policy=policy)
    return model, cache


# The unit criteria that read a record only through statistics: wanda the
# col_l1 of the inputs; closed-form, whose one-shot masks come from the
# closed-form context, the row means of the products; magnitude reads the
# weights alone.
STATISTICS_CRITERIA = ("wanda", "magnitude", "closed-form")


def _plan_statistics(method: str) -> tuple[str, ...]:
    """The record statistics that _make_plan and the unit criterion read
    under `method`: col_l1 (the wanda importances and criterion) and, for
    a closed-form plan, the row means of the products."""
    return ("col_l1",) + ("row_means",) * (method == "closed-form")


def _one_shot_policy(method: str) -> CapturePolicy:
    """What plan and prune capture: lean records with the statistics of
    _plan_statistics when the unit criterion of `method` reads nothing
    else, else every array (snip and l0 read the products)."""
    if allocation.unit_criterion(method) in STATISTICS_CRITERIA:
        return CapturePolicy("lean", _plan_statistics(method))
    return FULL


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
        temperature = allocation.importance_scale(_wanda_importances(model, cache))
    return allocation.allocate_plan(
        model, cache, args.method, args.sparsity, temperature, args.gamma, args.rho
    )


def cmd_plan(args) -> int:
    from .importance import block_unit_scores, export_scores_csv

    model, cache = _load_inputs(args, _one_shot_policy(args.method))
    plan = _make_plan(args, model, cache)
    write_atomic(os.path.join(args.out, "plan.csv"), allocation.export_plan_csv(plan).encode())
    criterion = allocation.unit_criterion(args.method)
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
    if args.method == "closed-form":
        # The global masks read the row means alone.
        model, cache = _load_inputs(args, CapturePolicy("lean", ("row_means",)))
        masks, plan = allocation.global_closed_form_masks(model, cache, args.sparsity)
    else:
        model, cache = _load_inputs(args, _one_shot_policy(args.method))
        plan = _make_plan(args, model, cache)
        masks = allocation.build_masks(
            model, cache, plan, allocation.unit_criterion(args.method), make_rng(args.seed)
        )
    pruned = allocation.apply_masks(model, masks)
    save_model(pruned, args.out)
    write_atomic(os.path.join(args.out, "plan.csv"), allocation.export_plan_csv(plan).encode())
    print(args.out)
    return 0


def cmd_admm(args) -> int:
    # Lean records: a block's products are alive only while the forward
    # or the block's outer iteration 1 reads them.
    model, cache = _load_inputs(args, CapturePolicy("lean", _plan_statistics(args.method)))
    plan = _make_plan(args, model, cache)
    cfg = SolverConfig(
        alpha=args.alpha,
        beta=args.beta,
        outer_iters=args.iters,
        inner_steps=args.inner,
        learning_rate=args.lr,
        ridge_eps=args.eps,
        seed=args.seed,
        mask_criterion=allocation.unit_criterion(args.method),
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


def _row_masked(pruned, dense) -> bool:
    """Whether each mask-bearing matrix of pruned keeps every row of the
    dense model's or zeroes it, block for block: then the loss reads its
    row-unit terms from statistics (evaluation._term)."""
    return [b.kind for b in pruned.blocks] == [b.kind for b in dense.blocks] and all(
        _masked_rows(p.matrices[m], d.matrices[m]) is not None
        for p, d in zip(pruned.blocks, dense.blocks) for m in MASK_BEARING[d.kind])


def cmd_eval(args) -> int:
    started = time.perf_counter()
    pruned = load_model(args.model)
    dense = load_model(args.dense)
    calib = load_calibration(args.calib)
    policy = CapturePolicy("loss") if _row_masked(pruned, dense) else FULL
    cache = capture_reference_activations(dense, calib, threads=args.threads, policy=policy)
    loss = evaluation.total_reconstruction_loss(
        pruned, cache, alpha=args.alpha, threads=args.threads
    )
    del cache  # the reference is not needed by pseudo-perplexity
    for (layer, kind, value), terms in zip(loss.per_layer, loss.terms):
        split = " ".join(f"{name}={term!r}" for name, term in zip(LOSS_TERMS[kind], terms))
        log.debug("layer %d %s loss %r, unscaled terms %s", layer, kind, value, split)
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
    log.info("eval wall time %.3fs", report.wall_time_s)
    print(os.path.join(args.out, "report.json"))
    return 0


def cmd_sweep(args) -> int:
    model, cache = _load_inputs(args, CapturePolicy("loss", ("col_l1",)))
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
    from . import oracle
    from .allocation import ClosedFormContext, binarize_by_threshold, unit_scores_closed_form
    from .linalg import cho_solve, cholesky, row_softmax, softmax_vec

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
    # T = 3040 makes two 1520-token tiles, the nodes of numpy's pairwise
    # tree over a row, each cut into relu sub-tiles of 376 and 384
    # tokens. Every array of the forward is compared, the stored ones and
    # those derived from them.
    arch = ModelArch(d=16, num_layers=2, num_heads=2, vocab=32)
    model = generate_toy_model(arch, rng)
    calib = make_calibration(arch, 190, 16, rng, kind="tokens")
    cache = capture_reference_activations(model, calib, threads=2)
    single = oracle.dense_forward_reference(model, calib)
    same = all(
        np.array_equal(rec.array(name), want)
        for rec, arrays in zip(cache.blocks, single)
        for name, want in arrays.items()
    )
    ppl = evaluation.pseudo_perplexity(model, calib, threads=2)
    ppl_ref = oracle.pseudo_perplexity_reference(model, calib)
    check(
        "tiled forward matches single-pass forward (T=3040, 2 token tiles)",
        same and ppl == ppl_ref,
        f"arrays equal={same}, ppl {ppl!r} vs {ppl_ref!r}",
    )
    # Lean records (admm's) form those products one tile after another in
    # one thread, for a read while absent (here with zero rows) and for a
    # block's outer iteration 1.
    lean = capture_reference_activations(model, calib, threads=2, policy=CapturePolicy("lean", ("col_l1",)))
    same = True
    for block, rec, full in zip(model.blocks, lean.blocks, cache.blocks):
        for m in MASK_BEARING[rec.kind]:
            w = block.matrices[m] * (rng.random(block.matrices[m].shape[0]) < 0.7)[:, None]
            same &= np.array_equal(rec.product(m, w), full.product(m, w))
        rec.rebuild_products()
        same &= all(np.array_equal(getattr(rec, MATRIX_IO[m][1]), getattr(full, MATRIX_IO[m][1]))
                    for m in MASK_BEARING[rec.kind])
    check("lean records rebuild the captured products (T=3040)", same, "products differ")
    # The loss's w2 product over relu sub-tiles against the whole GEMM,
    # at the oneshot-wide FFN shape (k = 512) and on this fixture.
    wide = generate_toy_model(ModelArch(d=128, num_layers=1, num_heads=1), rng, layout="ffn")
    wide_cache = capture_reference_activations(wide, make_calibration(wide.arch, 40, 64, rng))
    same = True
    for m, c in ((wide, wide_cache), (model, cache)):
        for block, rec in zip(m.blocks, c.blocks):
            if block.kind == FFN:
                w2 = block.w2 * (rng.random(block.w2.shape[1]) < 0.7)
                same &= np.array_equal(rec.product("w2", w2), w2 @ rec.array("a_pre"))
    check(f"sub-tiled w2 product matches the whole GEMM ({SUB_TILE_TOKENS}-token relu tiles)",
          same, "products differ")
    # The GIL-free Cholesky factor and solve against scipy's on this
    # machine's LAPACK, at the shape of one FFN activation solve (512 x 2048):
    # the factor in values, both triangles and memory order.
    w = rng.normal(size=(512, 512))
    gram = w.T @ w + np.eye(512)
    factor = oracle.cholesky_reference(gram)
    c, lower = cholesky(gram, "verify's Gram matrix not positive definite")
    same = lower == factor[1] and c.strides == factor[0].strides and np.array_equal(c, factor[0])
    check("linalg.cholesky matches scipy.linalg.cho_factor (512 x 512)", same, "factors differ")
    rhs = rng.normal(size=(512, 2048))
    same = np.array_equal(cho_solve(factor, rhs), oracle.cho_solve_reference(factor, rhs))
    check("GIL-free Cholesky solve matches scipy's (512 x 2048)", same, "solutions differ")
    # The loss's leaf-by-leaf squared residual sums against np.sum of the
    # plain expression on this machine's numpy, at sizes that are not
    # multiples of 8 and span several pairwise leaves.
    same = True
    for rows, cols in ((37, 4099), (301, 1001)):
        target, q, k = (rng.normal(size=(rows, cols)) for _ in range(3))
        zq, zk = rng.random(rows) < 0.3, rng.random(rows) < 0.3
        for products in (((q, zq),), ((k, None),), ((q, zq), (k, zk))):
            got = evaluation._sq_residual(target, *products)
            same &= got == oracle.sq_residual_reference(target, *products)
    check("blockwise loss sums match np.sum (37 x 4099, 301 x 1001)", same, "sums differ")
    # The row-unit loss terms of a row-masked model summed from one sum
    # per row against np.sum of the plain expressions, on the T = 3040
    # fixture, whose pairwise tree splits at row boundaries.
    masks = {i: {m: rng.random(block.matrices[m].shape[0]) < 0.6 for m in MASK_BEARING[block.kind]}
             for i, block in enumerate(model.blocks)}
    pruned = allocation.apply_masks(model, masks)
    got = evaluation.total_reconstruction_loss(pruned, cache).per_layer
    want = oracle.total_reconstruction_loss_reference(pruned, cache).per_layer
    check("row-unit loss terms from row sums match np.sum (T=3040)", got == want, "sums differ")
    # A "loss" capture (eval's) holds FFN relu(z) as its nonzeros, whose
    # zeros read +0.0: the loss of a softmax prune on it against the loss
    # on every array held, on this machine's BLAS.
    plan = allocation.allocate_plan(model, cache, "softmax", 0.5)
    pruned = allocation.apply_masks(model, allocation.build_masks(model, cache, plan, "wanda"))
    loss_cache = capture_reference_activations(model, calib, threads=2, policy=CapturePolicy("loss"))
    got = evaluation.total_reconstruction_loss(pruned, loss_cache, threads=2)
    want = evaluation.total_reconstruction_loss(pruned, cache)
    check("loss on a \"loss\" capture (relu nonzeros) matches every array held (T=3040)",
          (got.per_layer, got.total) == (want.per_layer, want.total), "losses differ")
    # Such a capture holds no MHA out_pre: the loss forms it again as
    # wo @ a_attn_pre, over each token tile (1520 tokens) or whole, with
    # the bits of the captured one.
    same = True
    for rec, full in zip(loss_cache.blocks, cache.blocks):
        if rec.kind == MHA:
            wo = rec.dense["wo"]
            same &= rec.out_pre is None and np.array_equal(rec.product("wo", wo), full.out_pre)
            for t in _token_tiles(rec.tokens):
                same &= np.array_equal(rec._gemm("wo", wo, t), full.out_pre[:, t])
    check("MHA out_pre formed again on a \"loss\" record matches the captured one (T=3040)",
          same, "products differ")
    # Every GEMM over a record's tokens runs over SUB_TILE_TOKENS column
    # sub-tiles (model._tile_product): each block matrix on its captured
    # input over the sub-tiles of a 2048-token tile against the tile's
    # one GEMM, on this fixture and at the oneshot-wide FFN shape.
    same = True
    tile = slice(0, TILE_TOKENS)
    for m, c in ((wide, wide_cache), (model, cache)):
        for block, rec in zip(m.blocks, c.blocks):
            for name, w in block.matrices.items():
                x = rec.array(MATRIX_IO[name][0])
                subs = np.concatenate([w @ x[:, s] for s in _sub_tiles(tile)], axis=1)
                same &= np.array_equal(subs, w @ x[:, tile])
    check(f"{SUB_TILE_TOKENS}-token sub-tile GEMMs match the {TILE_TOKENS}-token tile's GEMM (d=16, 128)",
          same, "products differ")
    # The loss terms whose products are formed by GEMM (the column-masked
    # w2 and wo, refit w1, wq and wv rows), summed a token tile at a time,
    # against np.sum of the plain expressions: four tiles of 1536 and of
    # 2048 tokens.
    tiled = ModelArch(d=16, num_layers=2, num_heads=2, ffn_dim=64)
    tiled_model = generate_toy_model(tiled, rng)
    same = True
    for n_samples in (96, 128):
        tiled_cache = capture_reference_activations(tiled_model, make_calibration(tiled, n_samples, 64, rng))
        masks = {i: {m: rng.random(block.matrices[m].shape[0]) < 0.6 for m in MASK_BEARING[block.kind]}
                 for i, block in enumerate(tiled_model.blocks)}
        pruned = allocation.apply_masks(tiled_model, masks)
        for block in pruned.blocks:
            for m in ("w1", "wq", "wv"):
                if m in block.matrices:
                    block.matrices[m][...] *= 1 + 1e-3
        got = evaluation.total_reconstruction_loss(pruned, tiled_cache).per_layer
        same &= got == oracle.total_reconstruction_loss_reference(pruned, tiled_cache).per_layer
    check("tile-wise loss row sums match np.sum (T=6144, 8192)", same, "sums differ")
    # The dense forward's row_softmax, a block of rows per pool job,
    # against the whole-array call: seven row blocks at T = 6144.
    z = rng.normal(size=(128, 6144))
    with _worker_pool(range(3), 3) as pool:
        same = all(np.array_equal(row_softmax(z, 4.0, seg, run=pool), row_softmax(z, 4.0, seg)) for seg in (64, 96))
    check("pooled row_softmax equals the whole-array row_softmax (seg 64, 96)", same, "rows differ")
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
        # The CLI owns its process, so freed memory stays resident for
        # the next temporary instead of going back to the OS.
        _malloc_policy(True)
        args = _parse_args(build_parser(), argv)
        _check_out(args)
        with _resource_log(args.command):
            return COMMANDS[args.command](args)
    except (CliValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, SingularSystemError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
