"""Toy decoder models, their on-disk format, calibration data, and the
dense-reference activation capture that every downstream solver consumes.

Activations are stored as (dim, tokens) float64 matrices with the token
columns of all calibration samples concatenated. Residual connections and
normalization layers are intentionally absent; blocks compose by feeding
each block's output straight into the next.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import io
import json
import logging
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapabilityError, DimensionError, FormatError, ParameterError, SolverError
from .linalg import relu, row_softmax, rows_per_block

log = logging.getLogger(__name__)

FORMAT_VERSION = 1

FFN = "ffn"
MHA = "mha"

# Frozen (input, dense product) of each block matrix: capture forms the
# product as matrix @ input from exactly these arrays.
MATRIX_IO = {
    "w1": ("input_pre", "z_pre"),
    "w2": ("a_pre", "out_pre"),
    "wq": ("input_pre", "q_pre"),
    "wk": ("input_pre", "k_pre"),
    "wv": ("a_pre", "a_attn_pre"),
    "wo": ("a_attn_pre", "out_pre"),
}


def _consensus(q, k, out=None):
    total = np.add(q, k, out=out)
    return np.multiply(0.5, total, out=total)


# The record arrays capture stores for each block kind, and the arrays it
# derives instead, each as (sources, fn): the array is fn(*sources), an
# elementwise op of the dense forward on stored arrays of its shape (FFN
# a = relu(z), MHA z = 0.5 * (q + k)). Any part of it is fn of the same
# part of its sources, bit for bit, so a reader rebuilds only the part it
# needs (BlockActivations.derive).
STORED = {
    FFN: ("input_pre", "z_pre", "out_pre"),
    MHA: ("input_pre", "q_pre", "k_pre", "a_pre", "a_attn_pre", "out_pre"),
}
DERIVED = {
    FFN: {"a_pre": (("z_pre",), relu)},
    MHA: {"z_pre": (("q_pre", "k_pre"), _consensus)},
}

# The terms of each block kind's reconstruction loss, in the order they
# are summed (evaluation), each as (target, matrices): the squared
# residual of the stored or derived dense array `target` against the
# pruned product of its matrices (MATRIX_IO), or the consensus of two.
LOSS_TERMS = {
    FFN: {"up": ("z_pre", ("w1",)), "down": ("out_pre", ("w2",))},
    MHA: {"qk": ("z_pre", ("wq", "wk")), "val": ("a_attn_pre", ("wv",)), "out": ("out_pre", ("wo",))},
}

# The arrays a "loss" capture keeps (CapturePolicy): the inputs of the
# column-unit loss terms (w2, wo), whose products the loss forms by GEMM,
# and the targets that cost more to form again than to hold. FFN out_pre
# is an ffn_dim-deep GEMM and stays; MHA out_pre is wo @ a_attn_pre, one
# d-deep GEMM, which the loss forms again from the held input with
# capture's bits (evaluation._sq_term) instead of holding it. A derived
# input (FFN a_pre = relu(z_pre)) is kept as its nonzeros (_Nonzeros),
# about half of its source's bytes, and its source goes.
LOSS_HELD = {FFN: ("a_pre", "out_pre"), MHA: ("a_attn_pre",)}

ROW = "row"
COL = "col"

# Axis of each matrix's structured units.
DEFAULT_AXES = {"w1": ROW, "w2": COL, "wq": ROW, "wk": ROW, "wv": ROW, "wo": COL}

# Matrices whose unit masks are chosen directly. In a loss term of these
# (a row-unit term) a pruned row's residual is a function of the dense
# products alone and a kept row's is +0.0 (BlockActivations.row_energies).
# Their products are every stored one but out_pre, the next block's
# input, and their inputs are stored: a lean record holds the products
# only at its block's outer iteration 1 (rebuild_products).
MASK_BEARING = {FFN: ("w1",), MHA: ("wq", "wk", "wv")}

# The mask-bearing matrix whose mask zeroes each matrix's units: removing
# an FFN hidden unit removes a w1 row and the matching w2 column, and
# removing an attention channel's wv row removes the matching wo column.
UNIT_OWNER = {"w1": "w1", "w2": "w1", "wq": "wq", "wk": "wk", "wv": "wv", "wo": "wv"}


def unit_mask(name: str, masks: dict) -> np.ndarray:
    """The 0/1 factor that zeroes the pruned units of matrix `name`, from
    its owner's bits in `masks` (matrix name -> bool array): a column for
    a row-unit matrix, a row for w2/wo."""
    bits = masks[UNIT_OWNER[name]].astype(np.float64)
    return bits[:, None] if DEFAULT_AXES[name] == ROW else bits[None, :]


# Manifest "arch" key -> (ModelArch field, the least value it takes).
ARCH_KEYS = {
    "d": ("d", 1),
    "L": ("num_layers", 1),
    "h": ("num_heads", 1),
    "ffn_dim": ("ffn_dim", 1),
    "vocab": ("vocab", 0),
}


@dataclass(frozen=True)
class ModelArch:
    d: int
    num_layers: int
    num_heads: int
    ffn_dim: int = 0  # 0 means the 4*d default
    vocab: int = 0

    def __post_init__(self):
        if self.ffn_dim == 0:
            object.__setattr__(self, "ffn_dim", 4 * self.d)
        for attr, least in ARCH_KEYS.values():
            if getattr(self, attr) < least:
                raise ParameterError(f"{attr} must be >= {least}, got {getattr(self, attr)}")
        if self.d % self.num_heads != 0:
            raise ParameterError(
                f"hidden dim {self.d} not divisible by num_heads {self.num_heads}"
            )


class _Matrices:
    """A block's matrices, in the order of its class's `names`."""

    @property
    def matrices(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.names}

    def copy(self):
        return replace(self, **{name: getattr(self, name).copy() for name in self.names})


@dataclass
class FfnBlock(_Matrices):
    w1: np.ndarray  # (ffn_dim, d) up projection
    w2: np.ndarray  # (d, ffn_dim) down projection

    kind = FFN
    names = ("w1", "w2")


@dataclass
class MhaBlock(_Matrices):
    wq: np.ndarray  # (d, d)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    num_heads: int

    kind = MHA
    names = ("wq", "wk", "wv", "wo")

    @property
    def d_head(self) -> int:
        return self.wq.shape[0] // self.num_heads

    @property
    def head_scale(self) -> float:
        """sqrt(d_head): the attention logit scale of the dense forward
        and of the solver."""
        return float(np.sqrt(self.d_head))

    def head_slices(self) -> list[slice]:
        return [slice(i * self.d_head, (i + 1) * self.d_head) for i in range(self.num_heads)]


Block = FfnBlock | MhaBlock


def block_shapes(arch: ModelArch, kind: str) -> dict[str, tuple[int, int]]:
    """(rows, cols) of each matrix of a `kind` block under `arch`, in the
    block's name order: the one shape rule of generation and load."""
    if kind == FFN:
        return {"w1": (arch.ffn_dim, arch.d), "w2": (arch.d, arch.ffn_dim)}
    return dict.fromkeys(MhaBlock.names, (arch.d, arch.d))


def vocab_shapes(arch: ModelArch) -> dict[str, tuple[int, int]]:
    """(rows, cols) of the token embedding and the output head, which a
    model has when arch.vocab > 0, in draw order."""
    return {"embed": (arch.d, arch.vocab), "head": (arch.vocab, arch.d)}


def _make_block(cls, arch: ModelArch, matrix) -> Block:
    """A `cls` block under `arch` whose matrices come from
    matrix(name, shape), called in the block's name order."""
    mats = {name: matrix(name, shape) for name, shape in block_shapes(arch, cls.kind).items()}
    return cls(**mats, num_heads=arch.num_heads) if cls is MhaBlock else cls(**mats)


@dataclass
class ToyModel:
    arch: ModelArch
    blocks: list[Block]
    embed: np.ndarray | None = None  # (d, vocab)
    head: np.ndarray | None = None  # (vocab, d)

    def copy(self) -> "ToyModel":
        return ToyModel(
            self.arch,
            [b.copy() for b in self.blocks],
            None if self.embed is None else self.embed.copy(),
            None if self.head is None else self.head.copy(),
        )

    def named_matrices(self) -> list[tuple[str, np.ndarray]]:
        out = []
        if self.embed is not None:
            out.append(("embed", self.embed))
        for i, block in enumerate(self.blocks):
            for name, mat in block.matrices.items():
                out.append((f"layer{i}.{block.kind}.{name}", mat))
        if self.head is not None:
            out.append(("head", self.head))
        return out


@dataclass
class CalibrationSet:
    """N samples of seq_len tokens each: dense activations (N, seq_len, d)
    or integer token ids (N, seq_len) when a vocab head exists."""

    inputs: np.ndarray | None = None
    tokens: np.ndarray | None = None

    def __post_init__(self):
        if (self.inputs is None) == (self.tokens is None):
            raise ParameterError("calibration carries either dense inputs or tokens")
        if self.inputs is not None:
            self.inputs = np.asarray(self.inputs, dtype=np.float64)
            if self.inputs.ndim != 3 or min(self.inputs.shape[:2]) < 1:
                raise ParameterError("dense calibration must have shape (N, seq_len, d), N and seq_len >= 1")
        else:
            self.tokens = np.asarray(self.tokens, dtype=np.int64)
            if self.tokens.ndim != 2 or min(self.tokens.shape) < 1:
                raise ParameterError("token calibration must have shape (N, seq_len), N and seq_len >= 1")

    @property
    def n_samples(self) -> int:
        src = self.inputs if self.inputs is not None else self.tokens
        return src.shape[0]

    @property
    def seq_len(self) -> int:
        src = self.inputs if self.inputs is not None else self.tokens
        return src.shape[1]

    @property
    def is_tokens(self) -> bool:
        return self.tokens is not None


def generate_toy_model(arch: ModelArch, rng: np.random.Generator, layout: str = "decoder") -> ToyModel:
    """Draw a seeded toy model. Weights are zero-mean normal scaled by
    1/sqrt(fan_in); layout picks the block sequence per layer:
    "decoder" = MHA then FFN, "ffn" = FFN only, "mha" = MHA only."""

    def draw(rows: int, cols: int) -> np.ndarray:
        return rng.normal(0.0, 1.0, size=(rows, cols)) / np.sqrt(cols)

    layers = {"decoder": (MhaBlock, FfnBlock), "ffn": (FfnBlock,), "mha": (MhaBlock,)}
    if layout not in layers:
        raise ParameterError(f"unknown layout {layout!r}")
    blocks = [
        _make_block(cls, arch, lambda _, shape: draw(*shape))
        for _ in range(arch.num_layers)
        for cls in layers[layout]
    ]
    embed = head = None
    if arch.vocab > 0:
        embed, head = (draw(*shape) for shape in vocab_shapes(arch).values())
    return ToyModel(arch, blocks, embed, head)


def make_calibration(
    arch: ModelArch, n_samples: int, seq_len: int, rng: np.random.Generator, kind: str = "dense"
) -> CalibrationSet:
    if n_samples < 1 or seq_len < 1:
        raise ParameterError("n_samples and seq_len must be >= 1")
    if kind == "dense":
        return CalibrationSet(inputs=rng.normal(0.0, 1.0, size=(n_samples, seq_len, arch.d)))
    if kind == "tokens":
        if arch.vocab < 2:
            raise CapabilityError("token calibration needs a vocab head (vocab >= 2)")
        return CalibrationSet(tokens=rng.integers(0, arch.vocab, size=(n_samples, seq_len)))
    raise ParameterError(f"unknown calibration kind {kind!r}")


def calibration_input(model: ToyModel, calib: CalibrationSet) -> np.ndarray:
    """First-block input as a (d, N*seq_len) column-per-token matrix."""
    if calib.is_tokens:
        if model.embed is None:
            raise CapabilityError("model has no embedding for token calibration")
        flat = calib.tokens.reshape(-1)
        if flat.min() < 0 or flat.max() >= model.arch.vocab:
            raise ParameterError("token ids outside vocab range")
        return np.take(model.embed, flat, axis=1)
    if calib.inputs.shape[2] != model.arch.d:
        raise DimensionError(
            f"calibration dim {calib.inputs.shape[2]} != model hidden dim {model.arch.d}"
        )
    return np.ascontiguousarray(calib.inputs.reshape(-1, model.arch.d).T)


# ---------------------------------------------------------------------------
# Forward pass and activation capture
# ---------------------------------------------------------------------------


# Token tiles of the dense forward: column-tiled DGEMM on OpenBLAS matched
# the single GEMM bit for bit in every shape tried with T % 8 == 0, and
# about one random shape in five differed by an ulp otherwise.
TILE_TOKENS = 2048

# Token sub-tiles of a GEMM on a derived input (_tile_product with read),
# and of the dense forward's jobs where T is one tile (_forward_jobs). On
# OpenBLAS a (128 x 512) @ (512 x T) product over 16- to 2048-token
# column tiles matched the whole GEMM bit for bit, and over 8-token tiles
# it did not; w1 @ x over 16- to 1024-token column sub-tiles of a
# 2048-token tile matched the tile's GEMM, d = 16 to 128 (`struprune
# verify` checks both on the running BLAS). A 512-token GEMM runs 8-25 %
# slower per flop than a 2048-token one there, so a GEMM spans a whole
# tile wherever the job does.
SUB_TILE_TOKENS = 512


def _token_tiles(n_tokens: int, width: int = TILE_TOKENS) -> list[slice]:
    """The column slices a tiled GEMM runs over: the nodes of at most
    `width` tokens of numpy's pairwise tree over a row (_pairwise_node),
    so a row's np.sum is its tiles' sums added over that tree; one slice
    when T % 8 != 0. They depend on the token count alone, never on the
    pool size, so every pool size writes the same bits."""
    if n_tokens % 8:
        return [slice(0, n_tokens)]
    return _pairwise_node(0, n_tokens, width, lambda lo, hi: [slice(lo, hi)])


# Rows per block of _row_blocks, and of the buffers that hold one block.
ROW_BLOCK = 64


def _row_blocks(n: int, height: int = ROW_BLOCK):
    """Slices of `height` consecutive rows covering range(n). A per-row
    sum (or an elementwise op) taken a block at a time gives the bits of
    the whole-array one, without a full-size temporary."""
    return (slice(i, i + height) for i in range(0, n, height))


# np.sum over a C-contiguous float64 array adds its flat elements
# pairwise: a range of n > 128 elements splits at n//2 rounded down to a
# multiple of 8, and a range of at most 128 is one unrolled loop.
# _pairwise_sum walks that tree and sums each node of at most
# PAIRWISE_LEAF elements (512 KiB) with np.sum.
PAIRWISE_LEAF = 1 << 16


def _pairwise_sum(n: int, fill, buffers: int = 1) -> float:
    """np.sum of an n-element C-contiguous array, bit for bit, without
    building it: fill(lo, hi, *out) writes the array's flat range [lo, hi)
    into out[0], using `buffers` leaf-sized arrays out as scratch."""
    width = max(PAIRWISE_LEAF, 128)
    scratch = [np.empty(min(n, width)) for _ in range(buffers)]

    def leaf(lo, hi):
        out = [buf[:hi - lo] for buf in scratch]
        fill(lo, hi, *out)
        return np.sum(out[0])

    return float(_pairwise_node(0, n, width, leaf))


def _pairwise_node(lo: int, size: int, width: int, leaf):
    """The sum over the node [lo, lo + size) of numpy's pairwise tree:
    leaf(lo, hi) for a node of at most `width` (>= 128) elements, else
    its two children's sums added. leaf may return an array of per-row
    sums, added elementwise."""
    # A module-level function, not a closure: a closure that calls itself
    # is a reference cycle, which would keep leaf's arrays alive until
    # the garbage collector runs.
    if size <= width:
        return leaf(lo, lo + size)
    half = size // 2
    half -= half % 8
    return (_pairwise_node(lo, half, width, leaf)
            + _pairwise_node(lo + half, size - half, width, leaf))


def _tree_add(tiles: list[slice], values: list):
    """values[i], a value of the token columns tiles[i], added over
    numpy's pairwise tree over a row, whose nodes the tiles are
    (_token_tiles): a row's np.sum from its tiles' np.sum, bit for bit.
    The values may be arrays of per-row sums, added elementwise."""
    by_start = {t.start: value for t, value in zip(tiles, values)}
    # The tree cut at its widest tile has these tiles as its leaves.
    width = max(t.stop - t.start for t in tiles)
    return _pairwise_node(0, tiles[-1].stop, width, lambda lo, hi: by_start[lo])


def _row_pairwise_sum(row_sums: np.ndarray, cols: int) -> float:
    """np.sum of a C-contiguous (len(row_sums), cols) float64 array, bit
    for bit, from row_sums[i], the np.sum of its row i, alone, where
    _whole_row_tree(len(row_sums), cols) holds."""
    return float(_pairwise_node(0, row_sums.size * cols, max(cols, 128),
                                lambda lo, hi: row_sums[lo // cols]))


@functools.cache
def _whole_row_tree(rows: int, cols: int) -> bool:
    """Whether _row_pairwise_sum sums a (rows, cols) array: every node of
    at most max(cols, 128) elements of numpy's pairwise tree over it
    (_pairwise_sum) is one whole row, whose sum is that row's np.sum, so
    no node holds part of a row, or several rows in one unrolled loop of
    at most 128 elements. The walk counts the nodes that are not."""
    return not _pairwise_node(0, rows * cols, max(cols, 128),
                              lambda lo, hi: lo % cols != 0 or hi - lo != cols)


# glibc's mallopt parameters: the trim threshold, the most chunks served
# by mmap, and the most malloc arenas the process makes.
M_TRIM_THRESHOLD = -1
M_MMAP_MAX = -4
M_ARENA_MAX = -8
# Free memory at the top of the heap that glibc keeps before it returns
# any to the OS; mallopt takes a C int, so this must stay below 2**31.
KEEP_FREED_BYTES = 1 << 30


def _glibc_function(name: str):
    """The C function `name` of the process's C library as a ctypes
    function, or None when that library is not glibc or lacks it."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (AttributeError, ValueError, OSError):
        return None
    return getattr(ctypes.CDLL(None), name, None)


@functools.cache
def _malloc_policy(keep_freed: bool) -> None:
    """Set glibc's allocator policy for the rest of the process, once per
    value of keep_freed; a no-op on any other C library.

    Always: serve every later thread's allocations from the main arena
    (M_ARENA_MAX = 1). By default each pool thread gets an arena of its
    own, and a chunk freed there stays resident where no other thread
    reuses it, so peak RSS climbs above live memory. _worker_pool sets
    this before its first thread starts.

    keep_freed: also serve large chunks from the heap, not from a fresh
    mmap each (M_MMAP_MAX = 0), and keep up to KEEP_FREED_BYTES of free
    heap top resident (M_TRIM_THRESHOLD), so a freed temporary's pages
    serve the next one instead of being unmapped and faulted in zeroed
    again. cli.main sets this for the process it runs in."""
    mallopt = _glibc_function("mallopt")
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    settings = [(M_ARENA_MAX, 1)]
    if keep_freed:
        settings += [(M_MMAP_MAX, 0), (M_TRIM_THRESHOLD, KEEP_FREED_BYTES)]
    for param, value in settings:
        if mallopt(param, value) == 0:
            log.debug("glibc mallopt rejected parameter %d = %d", param, value)


@contextmanager
def _worker_pool(items, threads: int):
    """A runner: run(fn) calls fn on every item, on up to `threads`
    workers, and returns the results in item order once all have
    finished; run(fn, other) does the same over the sequence `other`, on
    the same workers. The first exception in item order propagates. At
    one thread, or over one item, fn runs in the calling thread."""
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        yield lambda fn, over=items: _serial(fn, over)
        return
    _malloc_policy(False)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield lambda fn, over=items: list(pool.map(fn, over)) if len(over) > 1 else _serial(fn, over)


def _serial(fn, over):
    """The runner of _worker_pool's signature that calls fn on each item
    of `over` in the calling thread."""
    return [fn(item) for item in over]


def _sub_tiles(t: slice) -> list[slice]:
    """The SUB_TILE_TOKENS nodes of the token tile t that a GEMM on a
    derived input runs over (_tile_product): _token_tiles(T,
    SUB_TILE_TOKENS), as a node's nodes are the tree's."""
    return [slice(t.start + s.start, t.start + s.stop)
            for s in _token_tiles(t.stop - t.start, SUB_TILE_TOKENS)]


def _forward_jobs(n_tokens: int) -> list[slice]:
    """The token columns of the dense forward's jobs over n_tokens tokens
    (_forward_block): the token tiles, or the sub-tiles of the one tile
    where T is one tile (T <= TILE_TOKENS, or T % 8 != 0), so a one-tile
    forward spreads over the workers too."""
    tiles = _token_tiles(n_tokens)
    return _sub_tiles(tiles[0]) if len(tiles) == 1 else tiles


def _tile_product(w: np.ndarray, x, prod: np.ndarray, t: slice, read=None) -> None:
    """prod[:, t] = w @ x[:, t]; or, for a derived input of x's shape (FFN
    relu(z), DERIVED), w @ its columns t, which read(s, out) writes into
    out and returns a sub-tile s of t (_sub_tiles) at a time, into one
    buffer, each sub-tile's GEMM writing its slice, so the derived input
    is never whole. With read, x is an array or a _Nonzeros store and
    only its shape is read here. The buffer holds the widest sub-tile,
    which need not be the first (376 tokens, then 384)."""
    if read is None:
        np.matmul(w, x[:, t], out=prod[:, t])
        return
    subs = _sub_tiles(t)
    buf = np.empty(x.shape[0] * max(s.stop - s.start for s in subs))
    for s in subs:
        part = buf[:x.shape[0] * (s.stop - s.start)].reshape(x.shape[0], -1)
        np.matmul(w, read(s, part), out=prod[:, s])


def _tiled_product(w: np.ndarray, x, run=None, read=None) -> np.ndarray:
    """w @ x, or w @ the derived input that read gives (_tile_product),
    each _token_tiles(T) column tile's GEMM writing its slice of a fresh
    array, on the workers of `run` (a _worker_pool runner over those
    tiles) or, when run is None, in the calling thread. Every GEMM over a
    record's tokens is a _tile_product: the dense forward's (over its
    jobs' columns, _forward_jobs), every product a record forms
    (BlockActivations._gemm) and a lean record's rebuild, so they have
    capture's bits: by construction where T spans several tiles, and
    where it is one tile by the sub-tile GEMM's bits (SUB_TILE_TOKENS)."""
    prod = np.empty((w.shape[0], x.shape[1]))

    def tile(t):
        _tile_product(w, x, prod, t, read)

    if run is None:
        run = functools.partial(_serial, over=_token_tiles(x.shape[1]))
    run(tile)
    return prod


def _forward_block(block, x: np.ndarray, seq_len: int, run) -> "BlockActivations":
    """The BlockActivations of one block of the dense forward from input x,
    every step on the workers of `run` (a _worker_pool runner over
    _token_tiles(T)), with the bits of each GEMM's _tiled_product. A job
    spans the token columns j of _forward_jobs(T): a tile, or a sub-tile
    of the one tile.

    FFN: one job per j forms z[:, j] and then out[:, j] from its relu
    sub-tiles (DERIVED). MHA: one job per (matrix, j) forms those columns
    of q and k, and one job per tile writes their consensus z;
    row_softmax runs once on the whole z, since it normalizes across the
    tokens of a sample, a block of rows per job, and z is dropped after
    it (DERIVED); then one job per j forms those columns of v and then
    of o."""
    jobs = _forward_jobs(x.shape[1])
    if block.kind == FFN:
        z = np.empty((block.w1.shape[0], x.shape[1]))
        out = np.empty((block.w2.shape[0], x.shape[1]))

        def ffn_job(j):
            _tile_product(block.w1, x, z, j)
            _tile_product(block.w2, z, out, j, lambda s, part: relu(z[:, s], out=part))

        run(ffn_job, jobs)
        return BlockActivations(FFN, x, z, None, out, None)
    q, k = (np.empty((w.shape[0], x.shape[1])) for w in (block.wq, block.wk))
    run(lambda job: _tile_product(*job), [(w, x, p, j) for j in jobs for w, p in ((block.wq, q), (block.wk, k))])
    z = np.empty_like(q)
    run(lambda t: _consensus(q[:, t], k[:, t], out=z[:, t]))
    a = row_softmax(z, scale=block.head_scale, seg_len=seq_len, run=run)
    del z
    a_attn = np.empty((block.wv.shape[0], x.shape[1]))
    out = np.empty((block.wo.shape[0], x.shape[1]))

    def vo_job(j):
        _tile_product(block.wv, a, a_attn, j)
        _tile_product(block.wo, a_attn, out, j)

    run(vo_job, jobs)
    return BlockActivations(MHA, x, None, a, out, a_attn, q, k)


def _forward_ffn_nonzeros(block, x: np.ndarray, run, stats: tuple) -> "BlockActivations":
    """The record of an FFN block of the dense forward under a "loss"
    policy that never holds its z_pre whole: it holds a_pre = relu(z_pre)
    as its nonzeros (_Nonzeros) and the statistics of z_pre that
    BlockActivations.keep takes, row_energies("up") and, when `stats`
    (CapturePolicy) names it, col_l1("a_pre").

    One job per relu sub-tile (_token_tiles(T, SUB_TILE_TOKENS)) forms
    its z columns by one GEMM, their w2 product, its chunk of the store,
    and the per-row sums of a record of its z columns alone (the code of
    the whole record's). So a worker holds one sub-tile of z, not a
    tile; where T spans several sub-tiles its w1 GEMM has the tile GEMM's
    bits by the sub-tile GEMM's (SUB_TILE_TOKENS). The sub-tiles are the
    nodes of numpy's pairwise tree over a row, so their sums added over
    that tree (_tree_add) are the whole rows' np.sum, bit for bit.
    Capture runs it where the tree over z_pre splits no row
    (_whole_row_tree); keep forms z_pre again when the energies turn out
    not to give the up term all the same."""
    jobs = _token_tiles(x.shape[1], SUB_TILE_TOKENS)
    out = np.empty((block.w2.shape[0], x.shape[1]))

    def job(t):
        z = block.w1 @ x[:, t]
        part = relu(z)
        chunk = _pack_chunk(part, t)
        np.matmul(block.w2, part, out=out[:, t])
        del part  # before the statistics' temporaries, so a worker holds one of them
        job_rec = BlockActivations(FFN, None, z, None, None, None)
        job_rec._energies("up")
        if "col_l1" in stats:
            job_rec.col_l1("a_pre")
        return chunk, job_rec.stats

    done = run(job, jobs)
    store = _Nonzeros((block.w1.shape[0], x.shape[1]), tuple(chunk for chunk, _ in done))
    rec = BlockActivations(FFN, x, None, None, out, None, nonzeros={"a_pre": store})
    for key in done[0][1]:
        stat = _tree_add(jobs, [job_stats[key] for _, job_stats in done])
        stat.setflags(write=False)
        rec.stats[key] = stat
    return rec


def _masked_rows(w: np.ndarray, dense: np.ndarray) -> np.ndarray | None:
    """Flags of the all-zero rows of w when every other row of w is the
    row of `dense`, bit for bit, in an array of dense's dtype, shape and
    layout; None for any other w."""
    if w.dtype != dense.dtype or w.shape != dense.shape or w.strides != dense.strides:
        return None
    zero = ~np.any(w, axis=1)
    return zero if np.all(zero | np.all(w == dense, axis=1)) else None


@dataclass(frozen=True)
class _Nonzeros:
    """A read-only (rows, T) float64 array held as its nonzeros, cut into
    column chunks: each chunk keeps, for its columns [lo, hi), the values
    of `a != 0` in C order and that mask's bits (np.packbits, C order),
    so NaN and +-inf are kept and a zero reads back as +0.0. A view
    (columns) selects the columns [start, start + shape[1]) of it."""

    shape: tuple[int, int]
    chunks: tuple  # ((lo, hi), values, bits), in column order
    start: int = 0

    def columns(self, cols: slice) -> "_Nonzeros":
        """The view of the columns `cols` of this one."""
        lo, hi, _ = cols.indices(self.shape[1])
        return replace(self, shape=(self.shape[0], hi - lo), start=self.start + lo)

    def fill(self, cols: slice, out: np.ndarray) -> np.ndarray:
        """Write the columns `cols`, those of exactly one chunk, into the
        C-contiguous `out` and return it."""
        span = (self.start + cols.start, self.start + cols.stop)
        return _unpack(*next((values, bits) for lo_hi, values, bits in self.chunks if lo_hi == span), out)

    def finite(self) -> bool:
        return all(np.isfinite(values).all() for _, values, _ in self.chunks)


def _pack_chunk(a: np.ndarray, cols: slice) -> tuple:
    """The chunk of a _Nonzeros for its columns `cols`, whose values are
    the C-contiguous array a: its nonzeros and their bits, read-only."""
    flat = a.reshape(-1)
    mask = np.not_equal(flat, 0.0)
    values, bits = flat.take(np.flatnonzero(mask)), np.packbits(mask)
    values.setflags(write=False)
    bits.setflags(write=False)
    return (cols.start, cols.stop), values, bits


def _unpack(values: np.ndarray, bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the chunk (values, bits) of a _Nonzeros into the C-contiguous
    `out` of its shape, zeros as +0.0, and return out. The nonzeros go to
    the flat positions of the set bits, which np.flatnonzero finds
    branch-free on a bool array (on the uint8 that np.unpackbits gives,
    and by a boolean-mask assignment, each took 4-8 times as long on
    half-set random bits)."""
    flat = out.reshape(-1)
    flat.fill(0.0)
    flat[np.flatnonzero(np.unpackbits(bits, count=flat.size).view(bool))] = values
    return out


@dataclass
class BlockActivations:
    """Per-block record of the frozen dense reference: the arrays of
    STORED[kind], read-only after capture, and None for the rest. The
    arrays of DERIVED[kind] are rebuilt from the stored ones by whoever
    reads them, in the part they read.

    Capture drops some stored arrays under its CapturePolicy, after it
    has taken the statistics their readers need. A lean record holds the
    products of MASK_BEARING[kind] only between rebuild_products and
    release_products. A product read while it is absent is formed like
    any other that the record does not hold (product), which needs the
    product's input stored. A "loss" record may hold a derived array as
    its nonzeros (`nonzeros`, name -> _Nonzeros) in place of its source:
    its products (_gemm) and finiteness are read from there, and any
    other read of it (a whole array too) raises CapabilityError, as a
    read of a dropped array does. A "loss" MHA record holds no out_pre:
    the loss forms it again as wo @ a_attn_pre (LOSS_HELD).

    `dense` holds the block's dense matrices that formed the frozen
    products (read-only references, not copies). Statistics of the
    record's arrays (col_l1, row means, row_energies) are computed on
    first use or by capture, once per record, also when pool threads ask
    for them at the same time."""

    kind: str
    input_pre: np.ndarray | None
    z_pre: np.ndarray | None
    a_pre: np.ndarray | None
    out_pre: np.ndarray | None
    a_attn_pre: np.ndarray | None
    q_pre: np.ndarray | None = None
    k_pre: np.ndarray | None = None
    dense: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    lean: bool = field(default=False, compare=False)
    nonzeros: dict = field(default_factory=dict, repr=False, compare=False)
    stats: dict = field(default_factory=dict, repr=False, compare=False)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def frozen_arrays(self) -> dict[str, np.ndarray]:
        """The stored arrays the record holds, by name in STORED[kind]
        order."""
        arrays = {name: getattr(self, name) for name in STORED[self.kind]}
        return {name: arr for name, arr in arrays.items() if arr is not None}

    @property
    def tokens(self) -> int:
        """The record's token count, read from the first stored array it
        holds: every policy keeps one (CapturePolicy)."""
        return next(iter(self.frozen_arrays().values())).shape[1]

    def rebuild_products(self) -> None:
        """On a lean record, store its MASK_BEARING products again,
        read-only, with capture's bits; a full record holds them already."""
        if self.lean:
            self._form_products()

    def _form_products(self, run=None) -> None:
        for matrix in MASK_BEARING[self.kind]:
            dense, x = self.dense[matrix], getattr(self, MATRIX_IO[matrix][0])
            prod = _tiled_product(dense, x, run)
            prod.setflags(write=False)
            setattr(self, MATRIX_IO[matrix][1], prod)

    def release_products(self) -> None:
        """On a lean record, drop its MASK_BEARING products; a full record
        keeps them."""
        if self.lean:
            for matrix in MASK_BEARING[self.kind]:
                setattr(self, MATRIX_IO[matrix][1], None)

    def keep(self, policy: "CapturePolicy", run=_serial) -> None:
        """Take the statistics of `policy` on the workers of `run` (a
        _worker_pool runner), then drop the stored arrays it lets go."""
        if "col_l1" in policy.stats:
            for x_name in dict.fromkeys(MATRIX_IO[m][0] for m in self.dense):
                self.col_l1(x_name, run)
        if "row_means" in policy.stats:
            for matrix in MASK_BEARING[self.kind]:
                self._dense_means(matrix, run)
        # A block whose row-unit terms its energies give bit for bit
        # (row_energies) no longer needs the arrays of their products; an
        # FFN block's relu store was formed in the forward.
        exact = policy.held == "loss" and all([
            self.row_energies(term, run) is not None
            for term, (_, matrices) in LOSS_TERMS[self.kind].items() if matrices[0] in MASK_BEARING[self.kind]])
        if policy.held == "lean":
            self.lean = True
            self.release_products()
        elif exact:
            for name in STORED[self.kind]:
                if name not in LOSS_HELD[self.kind]:
                    setattr(self, name, None)
        elif self.nonzeros:
            # Formed without z_pre (_forward_ffn_nonzeros), which the up
            # term's residual sums read: form it again, with capture's bits.
            self.nonzeros.clear()
            self._form_products(run)

    def derive(self, name: str, part=None, out=None) -> np.ndarray:
        """The derived array `name` (DERIVED[kind]), or the part of it that
        part(array) selects of each source array; written into out, or
        into a fresh array when out is None."""
        sources, fn = DERIVED[self.kind][name]
        arrays = [getattr(self, s) for s in sources]
        return fn(*(arrays if part is None else map(part, arrays)), out=out)

    def array(self, name: str) -> np.ndarray | None:
        """Array `name` whole and read-only, for a caller that needs all of
        it: a stored array itself, or a derived one built here."""
        if name not in DERIVED[self.kind]:
            return getattr(self, name)
        self.like(name)  # CapabilityError when capture dropped the sources
        arr = self.derive(name)
        arr.setflags(write=False)
        return arr

    def like(self, name: str) -> np.ndarray:
        """A stored array of the shape of array `name`: the array itself,
        or the first source of a derived one. Raises CapabilityError when
        capture has dropped it (CapturePolicy)."""
        derived = DERIVED[self.kind].get(name)
        arr = getattr(self, name if derived is None else derived[0][0])
        if arr is None:
            raise CapabilityError(f"this {self.kind} record no longer holds what {name} is read from; "
                                  "its capture policy dropped it")
        return arr

    def _rows(self, name: str, r: slice) -> np.ndarray:
        """Rows r of array `name`: a view of a stored array, or a derived
        one derived into a fresh array."""
        x = self.like(name)
        return self.derive(name, lambda a: a[r]) if name in DERIVED[self.kind] else x[r]

    def product(self, matrix: str, w: np.ndarray) -> np.ndarray:
        """w @ x whole for the frozen input x of `matrix` (MATRIX_IO): read
        from the record where frozen_rows reads it (the frozen product
        itself, read-only, or a copy of it with the zero rows set to
        +0.0), else the GEMM (_gemm), a fresh array."""
        frozen = self.frozen_rows(matrix, w)
        if frozen is None:
            return self._gemm(matrix, w)
        prod, zero = frozen
        if zero is not None:
            prod = prod.copy()
            prod[zero] = 0.0
        return prod

    def _gemm(self, matrix: str, w: np.ndarray, cols: slice = slice(None)) -> np.ndarray:
        """w @ x for the token columns `cols` of the input x of `matrix`, a
        fresh array, as capture forms it (_tiled_product): a derived x (FFN
        a_pre, of one source) is derived, or filled from its nonzeros, a
        sub-tile at a time, never whole. A filled sub-tile is the derived
        one but that a zero may read +0.0 where relu gave -0.0: the sign
        of a zero changes no nonzero GEMM sum and no squared residual, so
        the loss has the same bits."""
        x_name = MATRIX_IO[matrix][0]
        if x_name in self.nonzeros:
            x = self.nonzeros[x_name].columns(cols)
            return _tiled_product(w, x, read=x.fill)
        x = self.like(x_name)[:, cols]
        if x_name not in DERIVED[self.kind]:
            return _tiled_product(w, x)
        fn = DERIVED[self.kind][x_name][1]
        return _tiled_product(w, x, read=lambda s, out: fn(x[:, s], out=out))

    def _memo(self, key, compute):
        value = self.stats.get(key)
        if value is None:
            with self.lock:
                value = self.stats.get(key)
                if value is None:
                    value = self.stats[key] = compute()
        return value

    def _row_stat(self, key, source: str, fill, run=_serial, cases: tuple = ()) -> np.ndarray:
        """Statistic `key`, memoised and read-only: an array of shape
        (*cases, rows of array `source`) whose columns r fill(r, out)
        writes, out being those columns, for each row block r of
        _stat_blocks, on the workers of `run` (a _worker_pool runner). A
        per-row sum taken a block at a time has the bits of the
        whole-array one."""

        def compute():
            stat = np.empty((*cases, self.like(source).shape[0]))
            run(lambda r: fill(r, stat[..., r]), self._stat_blocks(source))
            stat.setflags(write=False)
            return stat

        return self._memo(key, compute)

    def _stat_blocks(self, name: str) -> list[slice]:
        """The row blocks of array `name` that its statistics are taken
        over, linalg.BLOCK_BYTES each, and so each temporary that one of
        their jobs holds."""
        rows, cols = self.like(name).shape
        return list(_row_blocks(rows, rows_per_block(8 * cols)))

    def col_l1(self, name: str, run=_serial) -> np.ndarray:
        """Per-feature sum_t |x_jt| of the record's array `name` (e.g.
        "input_pre"), the wanda input statistic; read-only."""
        derived = name in DERIVED[self.kind]

        def fill(r, out):
            x = self._rows(name, r)
            np.sum(np.abs(x, out=x if derived else None), axis=1, out=out)

        return self._row_stat(("col_l1", name), name, fill, run)

    def _finite(self, name: str, run=_serial) -> bool:
        if name in self.nonzeros:
            return self._memo(("finite", name), self.nonzeros[name].finite)
        return self._memo(("finite", name), lambda: all(run(
            lambda r: bool(np.isfinite(self._rows(name, r)).all()), self._stat_blocks(name))))

    def _dense_means(self, matrix: str, run=_serial) -> np.ndarray:
        """Row means over the tokens of the frozen dense product of
        `matrix` (MATRIX_IO), the closed-form context's statistic."""
        prod_name = MATRIX_IO[matrix][1]
        return self._row_stat(("row_means", matrix), prod_name,
                              lambda r, out: np.mean(self._rows(prod_name, r), axis=1, out=out), run)

    def masked_rows(self, matrix: str, w: np.ndarray) -> np.ndarray | None:
        """_masked_rows of w against the captured dense `matrix`."""
        dense = self.dense.get(matrix)
        return None if dense is None else _masked_rows(w, dense)

    def row_means(self, matrix: str, w: np.ndarray) -> np.ndarray:
        """(w @ x).mean(axis=1) for the frozen input x of `matrix`, bit for
        bit, a fresh array: where frozen_rows reads the frozen product,
        the dense product's row means (a statistic, which capture may
        take before it drops the product) with the zero rows of w read as
        +0.0; else the mean of the product."""
        zero = self.masked_rows(matrix, w)
        known = ("row_means", matrix) in self.stats or getattr(self, MATRIX_IO[matrix][1]) is not None
        if zero is None or not known or (zero.any() and not self._finite(MATRIX_IO[matrix][0])):
            return self.product(matrix, w).mean(axis=1)
        return np.where(zero, 0.0, self._dense_means(matrix))

    def row_energies(self, term: str, run=_serial) -> np.ndarray | None:
        """Per-row sums over the tokens of the squared residual of the
        row-unit loss term `term` (LOSS_TERMS), for each pattern of pruned
        rows whose other rows are dense: row c - 1 holds pattern c, which
        has bit i set when the row of the term's matrix i is zero.

        A pruned row's residual is the target row minus +0.0, or minus
        half the other matrix's product row for a consensus row pruned in
        one matrix (0.5 * (+0.0 + p) and 0.5 * p differ only in the sign
        of a zero, which squaring drops); a kept row's is +0.0. So, summed
        as np.sum(r * r, axis=1) is, these give the term's sum bit for bit
        (evaluation) through _row_pairwise_sum. None when they cannot: the
        tree splits a row, an input of the products is not finite (a zero
        row would give NaN), or a sum is not finite (a kept row's residual
        would be NaN)."""
        matrix = LOSS_TERMS[self.kind][term][1][0]
        rows = self.dense[matrix].shape[0]
        if not _whole_row_tree(rows, self.tokens) or not self._finite(MATRIX_IO[matrix][0], run):
            return None
        sums = self._energies(term, run)
        return sums if np.isfinite(sums).all() else None

    def _energies(self, term: str, run=_serial) -> np.ndarray:
        """row_energies' per-row sums, memoised, whether or not they give
        the term's sum."""
        names = [MATRIX_IO[m][1] for m in LOSS_TERMS[self.kind][term][1]]

        def fill(r, out):
            prods = [self._rows(name, r) for name in names]
            if len(prods) == 1:
                np.sum(np.square(prods[0]), axis=1, out=out[0])
                return
            t, resid = _consensus(*prods), np.empty_like(prods[0])
            for c, other in ((0, prods[1]), (1, prods[0])):
                np.multiply(0.5, other, out=resid)
                np.subtract(t, resid, out=resid)
                np.sum(np.multiply(resid, resid, out=resid), axis=1, out=out[c])
            np.sum(np.multiply(t, t, out=t), axis=1, out=out[2])

        return self._row_stat(("energies", term), names[0], fill, run, cases=(2 ** len(names) - 1,))

    def frozen_rows(self, matrix: str, w: np.ndarray) -> tuple[np.ndarray, np.ndarray | None] | None:
        """w @ x for the frozen input x of `matrix` (MATRIX_IO) read from
        the record as a pair (array, zero): w @ x is `array` with the rows
        flagged in `zero` read as +0.0, or `array` itself when `zero` is
        None; None when the record must form it by GEMM.

        When every row of w equals the captured dense row or is all zero
        (masked_rows), the array is the frozen dense product (read-only)
        and `zero` flags the zero rows of w, if there are any; this is bit
        for bit w @ x: a GEMM row of a same-shaped, same-layout product
        depends only on its own row of w, and an all-zero row on a finite
        input gives +0.0. Any other w, and any w while the record does not
        hold the product (a lean one), gives None."""
        x_name, prod_name = MATRIX_IO[matrix]
        frozen = getattr(self, prod_name)
        zero = None
        if frozen is not None and frozen.flags.c_contiguous:
            zero = self.masked_rows(matrix, w)
        if zero is None or (zero.any() and not self._finite(x_name)):
            return None
        return frozen, (zero if zero.any() else None)


@dataclass
class ActivationCache:
    blocks: list[BlockActivations]
    n_samples: int
    seq_len: int


@dataclass(frozen=True)
class CapturePolicy:
    """What capture_reference_activations keeps of each record once the
    dense forward has passed its block, and the statistics it takes
    first, while the block's arrays are all alive (BlockActivations.keep).

    held:
    - "all": every stored array; a statistic is taken when first read.
    - "lean": the records `admm` solves on (BlockActivations.lean): the
      products of MASK_BEARING go, to be rebuilt for the block's outer
      iteration 1.
    - "loss": what the loss of a row-masked model reads besides
      statistics, LOSS_HELD: the energies of every row-unit loss term are
      taken, and the other stored arrays of each block whose row-unit
      terms they give bit for bit (row_energies) go (MHA q_pre, k_pre,
      a_pre and out_pre, which the loss forms again from a_attn_pre; FFN
      z_pre; every block's input_pre, so the model input too). Such an
      FFN block keeps a_pre = relu(z_pre) as its nonzeros
      (BlockActivations.nonzeros), formed in the forward a relu sub-tile
      per chunk (_forward_ffn_nonzeros); any other block keeps every
      array for the residual sums (evaluation._sq_term). A product of a
      row-unit matrix other than its dense rows or zero can no longer be
      formed there.
    stats: any of "col_l1" (of every matrix input) and "row_means" (of
    every mask-bearing product; not under "loss", without FFN z_pre)."""

    held: str = "all"
    stats: tuple[str, ...] = ()

    def __post_init__(self):
        if self.held not in ("all", "lean", "loss"):
            raise ParameterError(f"unknown capture policy {self.held!r}")
        unknown = set(self.stats) - {"col_l1", "row_means"}
        if unknown:
            raise ParameterError(f"unknown capture statistics {sorted(unknown)}")
        if self.held == "loss" and "row_means" in self.stats:
            raise ParameterError("a \"loss\" capture takes no row means")


FULL = CapturePolicy()


def capture_reference_activations(
    model: ToyModel, calib: CalibrationSet, threads: int = 1, policy: CapturePolicy = FULL
) -> ActivationCache:
    """Dense forward pass on a pool of `threads` workers (_forward_block:
    token tiles, and blocks of rows for row_softmax); freezes the
    reference values of STORED and the dense block matrices that formed
    them (marked read-only in place, not copied). The bytes are the same
    for every `threads`.

    Once the forward has passed a block, the record keeps what `policy`
    says (CapturePolicy): its statistics are taken on the same workers,
    a block of rows per job, and then the arrays it lets go are dropped,
    so no two blocks' dropped arrays are alive at once. Under a "loss"
    policy an FFN block whose row energies can give the up term, where
    the tree over z_pre splits no row, never holds its z_pre whole
    (_forward_ffn_nonzeros)."""
    n_tokens = calib.n_samples * calib.seq_len
    records: list[BlockActivations] = []
    with _worker_pool(_token_tiles(n_tokens), threads) as run:
        x = calibration_input(model, calib)
        for block in model.blocks:
            if block.kind == FFN and policy.held == "loss" and _whole_row_tree(block.w1.shape[0], n_tokens):
                rec = _forward_ffn_nonzeros(block, x, run, policy.stats)
            else:
                rec = _forward_block(block, x, calib.seq_len, run)
            # Only the first record holds the model input, so it can go.
            x = rec.out_pre
            rec.dense = dict(block.matrices)
            for arr in (*rec.frozen_arrays().values(), *rec.dense.values()):
                arr.setflags(write=False)
            rec.keep(policy, run)
            records.append(rec)
    return ActivationCache(records, calib.n_samples, calib.seq_len)


# ---------------------------------------------------------------------------
# On-disk format: manifest.json + raw little-endian float32 blobs
# ---------------------------------------------------------------------------


def write_atomic(path: str, data: bytes):
    """Write data to a new file beside path, then rename it to path. The
    file is made with mode 0o666 less the umask, as open(path, "wb")
    makes it."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: list[str], rows) -> str:
    """The CSV artifact format: one header line, "\n" line ends, every
    float written as repr(float(v)). A NaN or inf raises SolverError
    naming its column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = []
        for name, v in zip(header, row):
            if isinstance(v, (float, np.floating)):
                if not math.isfinite(v):
                    raise SolverError(f"CSV artifact column {name!r} holds {float(v)!r}")
                v = repr(float(v))
            cells.append(v)
        writer.writerow(cells)
    return buf.getvalue()


def json_text(obj) -> str:
    """The JSON artifact format: sorted keys, two-space indent, a final
    newline. A NaN or inf raises SolverError naming its field."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    for line in text.splitlines():  # every number sits on a line of its own
        if line.rstrip(",").endswith(("NaN", "Infinity")):
            raise SolverError(f"JSON artifact holds a non-finite value: {line.strip().rstrip(',')}")
    return text


def write_json_atomic(path: str, obj):
    write_atomic(path, json_text(obj).encode("utf-8"))


def read_json(path: str):
    """Parse the JSON file at path. A file that does not decode as UTF-8
    JSON, or nests too deep to parse, raises FormatError naming path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path} is not valid JSON: {exc}") from None


def _blob_bytes(mat: np.ndarray) -> bytes:
    return np.ascontiguousarray(mat, dtype="<f4").tobytes()


def _read_blob(path: str, rows: int, cols: int, name: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    expected = rows * cols * 4
    if len(raw) != expected:
        raise FormatError(
            f"blob for matrix {name!r} has {len(raw)} bytes, expected {expected}"
        )
    mat = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(rows, cols)
    _check_finite(mat, f"matrix {name!r} ({os.path.basename(path)})")
    return mat


def _check_finite(arr: np.ndarray, what: str) -> None:
    bad = int(np.count_nonzero(~np.isfinite(arr)))
    if bad:
        raise FormatError(f"{what} holds {bad} non-finite value(s) (NaN or Inf)")


def _is_int_at_least(value, least: int = 1) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _check_manifest_entry(index: int, entry) -> None:
    """Each matrices[] entry names a matrix, its positive shape, and a blob
    that is a plain file name inside the model directory."""
    if not isinstance(entry, dict):
        raise FormatError(f"manifest matrices[{index}] must be an object")
    for key in ("name", "rows", "cols", "file"):
        if key not in entry:
            raise FormatError(f"manifest matrices[{index}] missing field {key!r}")
    if not isinstance(entry["name"], str):
        raise FormatError(f"manifest matrices[{index}]: name must be a string, got {entry['name']!r}")
    for key in ("rows", "cols"):
        if not _is_int_at_least(entry[key]):
            raise FormatError(
                f"manifest matrix {entry['name']!r}: {key} must be a positive int, got {entry[key]!r}"
            )
    fname = entry["file"]
    if not isinstance(fname, str) or fname in ("", ".", "..") or os.path.basename(fname) != fname:
        raise FormatError(
            f"manifest matrix {entry['name']!r}: file must be a plain file name, got {fname!r}"
        )


def _begin_save(path: str, manifest: str):
    """Make the directory path and remove its old manifest, so that a save
    interrupted before it writes the new manifest (always last) leaves no
    manifest: loading then fails naming it, instead of reading old and new
    blobs together."""
    os.makedirs(path, exist_ok=True)
    with suppress(FileNotFoundError):
        os.unlink(os.path.join(path, manifest))


def save_model(model: ToyModel, path: str):
    _begin_save(path, "manifest.json")
    entries = []
    for name, mat in model.named_matrices():
        fname = name.replace(".", "_") + ".bin"
        entries.append(
            {"name": name, "rows": int(mat.shape[0]), "cols": int(mat.shape[1]), "file": fname}
        )
        write_atomic(os.path.join(path, fname), _blob_bytes(mat))
    manifest = {
        "format_version": FORMAT_VERSION,
        "arch": {key: getattr(model.arch, attr) for key, (attr, _) in ARCH_KEYS.items()},
        "matrices": entries,
    }
    write_json_atomic(os.path.join(path, "manifest.json"), manifest)


def load_model(path: str) -> ToyModel:
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FormatError(f"missing manifest.json under {path}")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise FormatError("manifest.json must hold a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"bad magic: format_version={version!r}, expected {FORMAT_VERSION}")
    arch_raw = manifest.get("arch", {})
    if not isinstance(arch_raw, dict):
        raise FormatError(f"manifest arch must be an object, got {arch_raw!r}")
    for key, (_, least) in ARCH_KEYS.items():
        if key not in arch_raw:
            raise FormatError(f"manifest arch missing field {key!r}")
        if not _is_int_at_least(arch_raw[key], least):
            raise FormatError(
                f"manifest arch field {key!r} must be an int >= {least}, got {arch_raw[key]!r}"
            )
    arch = ModelArch(**{attr: arch_raw[key] for key, (attr, _) in ARCH_KEYS.items()})
    entries = manifest.get("matrices", [])
    if not isinstance(entries, list):
        raise FormatError(f"manifest matrices must be a list, got {entries!r}")
    # Validate the whole manifest against the directory before any blob read.
    seen = {"name": set(), "file": set()}
    for index, entry in enumerate(entries):
        _check_manifest_entry(index, entry)
        for key, values in seen.items():
            if entry[key] in values:
                raise FormatError(f"manifest matrices[{index}] repeats {key} {entry[key]!r}")
            values.add(entry[key])
        blob = os.path.join(path, entry["file"])
        if not os.path.exists(blob):
            raise FormatError(f"manifest lists matrix {entry['name']!r} but {entry['file']} is missing")
        size = os.path.getsize(blob)
        expected = entry["rows"] * entry["cols"] * 4
        if size != expected:
            raise FormatError(
                f"blob for matrix {entry['name']!r} has {size} bytes, expected {expected}"
            )
    mats = {
        e["name"]: _read_blob(os.path.join(path, e["file"]), e["rows"], e["cols"], e["name"])
        for e in entries
    }

    # Models store one block per "layer{i}" slot, found by its first matrix
    # (MHA before FFN); decoder layouts save MHA and FFN under separate
    # consecutive indices.
    blocks: list[Block] = []
    while True:
        prefix = f"layer{len(blocks)}"
        cls = next((c for c in (MhaBlock, FfnBlock) if f"{prefix}.{c.kind}.{c.names[0]}" in mats), None)
        if cls is None:
            break
        blocks.append(_make_block(cls, arch, lambda name, want: _pop(mats, f"{prefix}.{cls.kind}.{name}", want)))
    embed, head = (_pop(mats, name, want) if name in mats else None for name, want in vocab_shapes(arch).items())
    if mats:
        raise FormatError(f"manifest lists unplaceable matrices: {sorted(mats)}")
    if not blocks:
        raise FormatError("manifest contains no decoder blocks")
    return ToyModel(arch, blocks, embed, head)


def _pop(mats: dict, key: str, want: tuple[int, int]) -> np.ndarray:
    """Take matrix `key` out of mats; its shape must be `want`, the
    shape the manifest arch implies."""
    if key not in mats:
        raise FormatError(f"manifest incomplete: matrix {key!r} missing")
    mat = mats.pop(key)
    if mat.shape != want:
        raise FormatError(f"matrix {key} has shape {mat.shape}, manifest arch implies {want}")
    return mat


def save_calibration(calib: CalibrationSet, path: str, d: int):
    _begin_save(path, "calib.json")
    sidecar = {"N": calib.n_samples, "seq_len": calib.seq_len, "d": d}
    if calib.is_tokens:
        blob = np.ascontiguousarray(calib.tokens, dtype="<u4").tobytes()
        sidecar["kind"] = "tokens"
    else:
        blob = _blob_bytes(calib.inputs.reshape(-1, calib.inputs.shape[2]))
    write_atomic(os.path.join(path, "calib.bin"), blob)
    write_json_atomic(os.path.join(path, "calib.json"), sidecar)


def load_calibration(path: str) -> CalibrationSet:
    sidecar_path = os.path.join(path, "calib.json")
    if not os.path.exists(sidecar_path):
        raise FormatError(f"missing calib.json under {path}")
    sidecar = read_json(sidecar_path)
    if not isinstance(sidecar, dict):
        raise FormatError("calib.json must hold a JSON object")
    for key in ("N", "seq_len", "d"):
        if key not in sidecar:
            raise FormatError(f"calibration sidecar missing field {key!r}")
        if not _is_int_at_least(sidecar[key]):
            raise FormatError(
                f"calibration sidecar field {key!r} must be a positive int, got {sidecar[key]!r}"
            )
    is_tokens = "kind" in sidecar  # a dense sidecar carries no kind
    if is_tokens and sidecar["kind"] != "tokens":
        raise FormatError(
            f"calibration sidecar field 'kind' must be 'tokens' or absent, got {sidecar['kind']!r}"
        )
    n, seq, d = sidecar["N"], sidecar["seq_len"], sidecar["d"]
    blob_path = os.path.join(path, "calib.bin")
    if not os.path.exists(blob_path):
        raise FormatError("calibration blob calib.bin is missing")
    with open(blob_path, "rb") as fh:
        raw = fh.read()
    if is_tokens:
        expected = n * seq * 4
        if len(raw) != expected:
            raise FormatError(f"token blob {blob_path} has {len(raw)} bytes, expected {expected}")
        tokens = np.frombuffer(raw, dtype="<u4").astype(np.int64).reshape(n, seq)
        return CalibrationSet(tokens=tokens)
    expected = n * seq * d * 4
    if len(raw) != expected:
        raise FormatError(f"calibration blob {blob_path} has {len(raw)} bytes, expected {expected}")
    inputs = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(n, seq, d)
    _check_finite(inputs, f"calibration blob {blob_path}")
    return CalibrationSet(inputs=inputs)
