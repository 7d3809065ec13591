"""Workload definitions, traced-layer metric groups and closed-form call
counts for the struprune benchmark.

Every workload is a closed loop with one client: the CLI stages run one
after another in one fresh child process. The benchmark seed is the only
input; model, calibration and solver seeds are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass

# Stages whose wall time is "solve_s"; "total_s" adds "eval".
SOLVE_STAGES = ("admm", "plan", "prune.closed-form", "prune.softmax", "sweep")

# Number of temperatures in the sweep's automatic grid
# (allocation.default_temperature_grid: 0.25, 0.5, 1, 2, 4 times the scale).
AUTO_GRID = 5


@dataclass(frozen=True)
class Workload:
    name: str
    layout: str
    d: int
    layers: int
    heads: int
    ffn_dim: int
    vocab: int
    n: int
    seq_len: int
    kind: str
    stages: tuple[str, ...]
    sparsity: float
    iters: int = 0
    inner: int = 30
    admm_method: str = "softmax"

    @property
    def mha_blocks(self) -> int:
        return self.layers if self.layout == "decoder" else 0

    @property
    def ffn_blocks(self) -> int:
        return self.layers

    @property
    def blocks(self) -> int:
        return self.mha_blocks + self.ffn_blocks

    @property
    def units(self) -> dict[str, int]:
        """Structured units per mask-bearing matrix, by block kind."""
        return {"mha": self.d, "ffn": self.ffn_dim}

    @property
    def evaluated(self) -> str:
        """Output directory of the model the eval stage measures."""
        return "solved" if "admm" in self.stages else "pruned-sm"

    def seeds(self, seed: int) -> dict[str, int]:
        return {"model": 3 * seed + 1, "calib": 3 * seed + 2, "solver": 3 * seed + 3}

    def setup_argv(self, seed: int, threads: int) -> list[list[str]]:
        s = self.seeds(seed)
        gen = ["gen", "--d", str(self.d), "--layers", str(self.layers), "--heads", str(self.heads),
               "--layout", self.layout, "--ffn-dim", str(self.ffn_dim), "--vocab", str(self.vocab),
               "--seed", str(s["model"]), "--threads", str(threads), "--out", "model"]
        calib = ["calibrate", "--model", "model", "--n", str(self.n), "--seq-len", str(self.seq_len),
                 "--kind", self.kind, "--seed", str(s["calib"]), "--threads", str(threads),
                 "--out", "calib"]
        return [gen, calib]

    def stage_argv(self, seed: int, threads: int) -> list[tuple[str, list[str]]]:
        """(stage name, CLI argv) in run order; paths are relative to the
        rep directory the child runs in."""
        solver_seed = str(self.seeds(seed)["solver"])
        common = ["--model", "model", "--calib", "calib", "--seed", solver_seed,
                  "--threads", str(threads)]
        sp = ["--sparsity", str(self.sparsity)]
        table = {
            "admm": ["admm", *common, "--method", self.admm_method,
                     *sp, "--iters", str(self.iters), "--inner", str(self.inner), "--out", "solved"],
            "plan": ["plan", *common, "--method", "softmax", *sp, "--out", "planned"],
            "prune.closed-form": ["prune", *common, "--method", "closed-form", *sp,
                                  "--out", "pruned-cf"],
            "prune.softmax": ["prune", *common, "--method", "softmax", *sp, "--out", "pruned-sm"],
            "sweep": ["sweep", *common, *sp, "--out", "swept"],
        }
        table["eval"] = ["eval", "--model", self.evaluated, "--dense", "model", "--calib", "calib",
                         "--seed", solver_seed, "--threads", str(threads), "--out", "report"]
        return [(name, table[name]) for name in self.stages]

    def shape(self) -> dict:
        return {
            "layout": self.layout, "d": self.d, "layers": self.layers, "heads": self.heads,
            "ffn_dim": self.ffn_dim, "vocab": self.vocab, "N": self.n,
            "seq_len": self.seq_len, "tokens": self.n * self.seq_len, "calib_kind": self.kind,
            "sparsity": self.sparsity, "admm_method": self.admm_method if self.iters else None,
            "outer_iters": self.iters or None,
            "inner_steps": self.inner if self.mha_blocks and self.iters else None,
            "stages": list(self.stages),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="admm-decoder",
            layout="decoder", d=128, layers=4, heads=4, ffn_dim=512, vocab=0,
            n=32, seq_len=64, kind="dense", stages=("admm", "eval"), sparsity=0.5,
            iters=1, inner=30,
        ),
        Workload(
            name="admm-ffn",
            layout="ffn", d=128, layers=4, heads=4, ffn_dim=512, vocab=0,
            n=32, seq_len=64, kind="dense", stages=("admm", "eval"), sparsity=0.5,
            iters=4, admm_method="closed-form",
        ),
        Workload(
            name="oneshot-wide",
            layout="decoder", d=128, layers=4, heads=4, ffn_dim=512, vocab=512,
            n=128, seq_len=64, kind="tokens",
            stages=("plan", "prune.closed-form", "prune.softmax", "sweep", "eval"), sparsity=0.3,
        ),
    )
}


# Traced per-layer metrics. "incl" sums the inclusive durations of the
# outermost spans of the listed functions, "calls" counts every call
# (self-recursion included), "self" sums exclusive durations (span minus
# the spans of wrapped callees).
LAYER_METRICS: list[tuple[str, str, str, tuple[str, ...]]] = [
    # (metric, unit, kind, functions)
    ("admm.mha.sub_a_s", "s", "incl", ("admm.mha_obj_a", "admm.mha_grad_a")),
    ("admm.mha.sub_attn_s", "s", "incl", ("admm.mha_obj_attn", "admm.mha_grad_attn")),
    ("admm.mha.sub_z_s", "s", "incl", ("admm.mha_obj_z", "admm.mha_grad_z")),
    ("admm.mha.update_s", "s", "incl", ("admm.mha_update",)),
    ("admm.mha.prune_s", "s", "incl", ("admm.mha_prune_step",)),
    ("admm.mha.obj_evals", "count", "calls", ("admm.mha_obj_a", "admm.mha_obj_attn", "admm.mha_obj_z")),
    ("admm.mha.grad_evals", "count", "calls", ("admm.mha_grad_a", "admm.mha_grad_attn", "admm.mha_grad_z")),
    ("admm.ffn.prune_s", "s", "incl", ("admm.ffn_prune_step",)),
    ("admm.ffn.activation_s", "s", "incl", ("admm.ffn_update_activation",)),
    ("admm.ffn.output_s", "s", "incl", ("admm.ffn_update_output",)),
    ("admm.recover_s", "s", "incl", ("admm.recover_weights",)),
    ("admm.recover.calls", "count", "calls", ("admm.recover_weights",)),
    ("admm.objective_s", "s", "incl", ("admm.ffn_objective", "admm.mha_objective")),
    ("admm.run_s", "s", "incl", ("admm.run_outer_loop",)),
    ("linalg.row_softmax_s", "s", "incl", ("linalg.row_softmax",)),
    ("linalg.row_softmax.calls", "count", "calls", ("linalg.row_softmax",)),
    ("linalg.ridge_solve_s", "s", "incl", ("linalg.ridge_solve",)),
    ("linalg.ridge_solve.calls", "count", "calls", ("linalg.ridge_solve",)),
    ("linalg.cholesky_s", "s", "incl", ("linalg.cholesky",)),
    ("linalg.cholesky.calls", "count", "calls", ("linalg.cholesky",)),
    ("evaluation.recon_loss_s", "s", "incl", ("evaluation.total_reconstruction_loss",)),
    ("evaluation.recon_loss.calls", "count", "calls", ("evaluation.total_reconstruction_loss",)),
    ("evaluation.ppl_s", "s", "incl", ("evaluation.pseudo_perplexity",)),
    ("allocation.allocate_plan_s", "s", "incl", ("allocation.allocate_plan",)),
    ("allocation.allocate_plan.calls", "count", "calls", ("allocation.allocate_plan",)),
    ("allocation.build_masks_s", "s", "incl", ("allocation.build_masks",)),
    ("allocation.global_masks_s", "s", "incl", ("allocation.global_closed_form_masks",)),
    ("allocation.sweep_self_s", "s", "self", ("allocation.temperature_sweep",)),
    ("importance.layer_importance_s", "s", "incl", ("importance.layer_importance",)),
    ("importance.layer_importance.calls", "count", "calls", ("importance.layer_importance",)),
    ("importance.block_unit_scores_s", "s", "incl", ("importance.block_unit_scores",)),
    ("model.capture_s", "s", "incl", ("model.capture_reference_activations",)),
    ("model.capture.calls", "count", "calls", ("model.capture_reference_activations",)),
    ("model.load_s", "s", "incl", ("model.load_model", "model.load_calibration")),
    ("model.save_s", "s", "incl", ("model.save_model", "model.save_calibration")),
]

# Modules whose public functions the traced run wraps; each gets a
# "<module>.self_s" metric (exclusive time of all its wrapped functions).
TRACED_MODULES = ("model", "importance", "allocation", "evaluation", "admm", "linalg")

# Further per-layer metrics computed outside LAYER_METRICS.
EXTRA_METRICS: list[tuple[str, str]] = [
    ("linalg.ridge_solve.flops_computed", "flop"),
    ("model.bytes_read", "B"),
    ("cli.self_s", "s"),
    *[(f"{m}.self_s", "s") for m in TRACED_MODULES],
    ("trace.overhead_frac", "ratio"),
]

# Bindings made with `from x import y` that the layer map names; the
# traced run must find each one, or it errors instead of reporting 0.
REQUIRED_BINDINGS = (
    "admm.row_softmax",
    "admm.ridge_solve",
    "allocation.total_reconstruction_loss",
    "cli.run_outer_loop",
    "cli.capture_reference_activations",
)

def expected_counts(w: Workload) -> dict[str, int]:
    """Closed-form call counts of the traced stages. Keys are "module.func"
    for all calls, or "site>module.func" for calls through the binding
    in module "site"."""
    K, inner, H, F = w.iters, w.inner, w.mha_blocks, w.ffn_blocks
    stages = set(w.stages)
    admm = int("admm" in stages)
    grid = AUTO_GRID if "sweep" in stages else 0
    # admm, plan and a non-closed-form prune build a plan at the default
    # temperature (one layer_importance call), the sweep derives its grid
    # from one more, and every softmax allocation makes another.
    make_plan = admm + int("plan" in stages) + int("prune.softmax" in stages)
    allocations = make_plan + grid
    softmax_allocations = allocations - (admm if w.admm_method == "closed-form" else 0)
    captures = len(w.stages)
    ppl = int(w.kind == "tokens")
    # Per MHA block and outer iteration the a and z sub-solves each
    # evaluate inner + 1 objectives and inner gradients, each calling
    # row_softmax once, plus one mha_objective; iteration 1 adds the
    # post-prune objective.
    admm_softmax = admm * (H * K * (4 * inner + 3) + H)
    counts = {
        "model.capture_reference_activations": captures,
        "model.load_model": captures + 1,
        "model.save_model": admm + int("prune.closed-form" in stages) + int("prune.softmax" in stages),
        "evaluation.total_reconstruction_loss": 1 + grid,
        "evaluation.pseudo_perplexity": ppl,
        "allocation.allocate_plan": allocations,
        "allocation.build_masks": int("prune.softmax" in stages) + grid,
        "allocation.global_closed_form_masks": int("prune.closed-form" in stages),
        "allocation.temperature_sweep": int("sweep" in stages),
        "importance.layer_importance": make_plan + int("sweep" in stages) + softmax_allocations,
        "importance.block_unit_scores": w.blocks * (int("plan" in stages) + int("prune.softmax" in stages) + grid),
        "admm.run_outer_loop": admm,
        "admm>linalg.row_softmax": admm_softmax,
        # Segmented row_softmax calls itself once per call; the dense
        # forward of each capture, and of pseudo-perplexity, makes one
        # top-level call per MHA block.
        "linalg.row_softmax": 2 * (admm_softmax + H * (captures + ppl)),
        "admm.mha_obj_a": admm * H * K * (inner + 1),
        "admm.mha_obj_attn": admm * H * K * (inner + 1),
        "admm.mha_obj_z": admm * H * K * (inner + 1),
        "admm.mha_grad_a": admm * H * K * inner,
        "admm.mha_grad_attn": admm * H * K * inner,
        "admm.mha_grad_z": admm * H * K * inner,
        "admm.mha_update": admm * H * K,
        "admm.mha_prune_step": admm * H * K,
        "admm.ffn_prune_step": admm * F * K,
        "admm.ffn_update_activation": admm * F * K,
        "admm.ffn_update_output": admm * F * K,
        "admm.recover_weights": admm * K * (2 * F + 3 * H),
        "admm.ffn_objective": admm * F * (K + 1),
        "admm.mha_objective": admm * H * (K + 1),
        # recover_weights, plus the row/column refits of the prune steps
        # (2 per FFN block, 4 per MHA block).
        "linalg.ridge_solve": admm * K * (4 * F + 7 * H),
        # One factorization per ridge solve plus one per FFN activation update.
        "linalg.cholesky": admm * K * (5 * F + 7 * H),
    }
    return counts
