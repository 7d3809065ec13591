"""Structured pruning toolkit for toy transformer models: closed-form
layer masks (a mask is a bool array over a matrix's units),
temperature-controlled softmax sparsity allocation, and an alternating
divide-and-conquer weight/activation solver, backed by exhaustive and
constrained-solver oracles (struprune.oracle, with the Lagrangian
relaxed mask) in the test suite."""

from .admm import AdmmResult, SolverConfig, recover_weights, run_outer_loop
from .allocation import (
    ClosedFormContext,
    PlanEntry,
    SparsityPlan,
    allocate_plan,
    apply_masks,
    binarize_by_threshold,
    build_masks,
    closed_form_context,
    closed_form_retention,
    inverse_weight_allocate,
    post_correct,
    softmax_allocate,
    temperature_sweep,
    unit_scores_closed_form,
)
from .errors import (
    CapabilityError,
    DimensionError,
    FormatError,
    ParameterError,
    SingularSystemError,
    SizeError,
    SolverError,
)
from .evaluation import (
    EvalReport,
    MemoryConfig,
    OPT_CONFIGS,
    memory_report,
    pseudo_perplexity,
    total_reconstruction_loss,
)
from .importance import (
    LayerImportance,
    layer_importance,
    magnitude_unit,
    module_importance,
    wanda_unit,
)
from .linalg import make_rng, relu, ridge_solve, row_softmax, softmax_vec
from .model import (
    ActivationCache,
    CalibrationSet,
    FfnBlock,
    MhaBlock,
    ModelArch,
    ToyModel,
    capture_reference_activations,
    generate_toy_model,
    load_calibration,
    load_model,
    make_calibration,
    save_calibration,
    save_model,
)

__version__ = "0.1.0"
