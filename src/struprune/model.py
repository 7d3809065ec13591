"""Toy decoder models, their on-disk format, calibration data, and the
dense-reference activation capture that every downstream solver consumes.

Activations are stored as (dim, tokens) float64 matrices with the token
columns of all calibration samples concatenated. Residual connections and
normalization layers are intentionally absent; blocks compose by feeding
each block's output straight into the next.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DimensionError, FormatError, ParameterError, SolverError
from .linalg import row_softmax

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


@dataclass(frozen=True)
class ModelArch:
    d: int
    num_layers: int
    num_heads: int
    ffn_dim: int = 0  # 0 means the 4*d default
    vocab: int = 0

    def __post_init__(self):
        if self.d < 1 or self.num_layers < 1 or self.num_heads < 1:
            raise ParameterError("d, num_layers and num_heads must be >= 1")
        if self.d % self.num_heads != 0:
            raise ParameterError(
                f"hidden dim {self.d} not divisible by num_heads {self.num_heads}"
            )
        if self.ffn_dim == 0:
            object.__setattr__(self, "ffn_dim", 4 * self.d)
        if self.ffn_dim < 1:
            raise ParameterError("ffn_dim must be >= 1")
        if self.vocab < 0:
            raise ParameterError("vocab must be >= 0")


@dataclass
class FfnBlock:
    w1: np.ndarray  # (ffn_dim, d) up projection
    w2: np.ndarray  # (d, ffn_dim) down projection

    kind = FFN

    @property
    def matrices(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "w2": self.w2}

    def copy(self) -> "FfnBlock":
        return FfnBlock(self.w1.copy(), self.w2.copy())


@dataclass
class MhaBlock:
    wq: np.ndarray  # (d, d)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    num_heads: int

    kind = MHA

    @property
    def matrices(self) -> dict[str, np.ndarray]:
        return {"wq": self.wq, "wk": self.wk, "wv": self.wv, "wo": self.wo}

    def copy(self) -> "MhaBlock":
        return MhaBlock(
            self.wq.copy(), self.wk.copy(), self.wv.copy(), self.wo.copy(), self.num_heads
        )

    def head_slices(self) -> list[slice]:
        d_head = self.wq.shape[0] // self.num_heads
        return [slice(i * d_head, (i + 1) * d_head) for i in range(self.num_heads)]


Block = FfnBlock | MhaBlock


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
            if self.inputs.ndim != 3 or self.inputs.shape[0] < 1:
                raise ParameterError("dense calibration must have shape (N, seq_len, d)")
        else:
            self.tokens = np.asarray(self.tokens, dtype=np.int64)
            if self.tokens.ndim != 2 or self.tokens.shape[0] < 1:
                raise ParameterError("token calibration must have shape (N, seq_len)")

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

    blocks: list[Block] = []
    for _ in range(arch.num_layers):
        if layout in ("decoder", "mha"):
            blocks.append(
                MhaBlock(
                    draw(arch.d, arch.d),
                    draw(arch.d, arch.d),
                    draw(arch.d, arch.d),
                    draw(arch.d, arch.d),
                    arch.num_heads,
                )
            )
        if layout in ("decoder", "ffn"):
            blocks.append(FfnBlock(draw(arch.ffn_dim, arch.d), draw(arch.d, arch.ffn_dim)))
    if layout not in ("decoder", "ffn", "mha"):
        raise ParameterError(f"unknown layout {layout!r}")
    embed = head = None
    if arch.vocab > 0:
        embed = draw(arch.d, arch.vocab)
        head = draw(arch.vocab, arch.d)
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
        return model.embed[:, flat].copy()
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


def _token_tiles(n_tokens: int) -> list[slice]:
    """The column slices the dense forward runs over. They depend on the
    token count alone, never on the pool size, so every pool size writes
    the same bits."""
    if n_tokens % 8:
        return [slice(0, n_tokens)]
    return [slice(s, min(s + TILE_TOKENS, n_tokens)) for s in range(0, n_tokens, TILE_TOKENS)]


@contextmanager
def _worker_pool(items, threads: int):
    """A runner: run(fn) calls fn on every item, on up to `threads`
    workers (in the calling thread when that is one), and returns the
    results in item order once all have finished. The first exception in
    item order propagates."""
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    workers = min(threads, len(items))
    if workers <= 1:
        yield lambda fn: [fn(item) for item in items]
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield lambda fn: list(pool.map(fn, items))


def _dense_forward(blocks, x: np.ndarray, seq_len: int, run):
    """Yield each block's BlockActivations of the dense forward from input
    x (d, T), block after block; `run` is a _worker_pool runner over
    _token_tiles(T).

    A block's arrays are allocated when the block is reached. Its GEMMs
    and the exact elementwise ops (relu, the q/k consensus) run per token
    tile, each writing its column slice; row_softmax runs once on the
    whole z, since it normalizes across the tokens of a sample. The bits
    are those of oracle.dense_forward_reference."""
    n_tokens = x.shape[1]
    for block in blocks:
        if block.kind == FFN:
            z = np.empty((block.w1.shape[0], n_tokens))
            a = np.empty_like(z)
            out = np.empty((block.w2.shape[0], n_tokens))

            def ffn_tile(t):
                np.matmul(block.w1, x[:, t], out=z[:, t])
                np.maximum(z[:, t], 0.0, out=a[:, t])  # relu
                np.matmul(block.w2, a[:, t], out=out[:, t])

            run(ffn_tile)
            rec = BlockActivations(FFN, x, z, a, out, None)
        else:
            q = np.empty((block.wq.shape[0], n_tokens))
            k = np.empty_like(q)
            z = np.empty_like(q)

            def qk_tile(t):
                np.matmul(block.wq, x[:, t], out=q[:, t])
                np.matmul(block.wk, x[:, t], out=k[:, t])
                np.add(q[:, t], k[:, t], out=z[:, t])
                np.multiply(0.5, z[:, t], out=z[:, t])

            run(qk_tile)
            d_head = block.wq.shape[0] // block.num_heads
            a = row_softmax(z, scale=float(np.sqrt(d_head)), seg_len=seq_len)
            a_attn = np.empty((block.wv.shape[0], n_tokens))
            out = np.empty((block.wo.shape[0], n_tokens))

            def vo_tile(t):
                np.matmul(block.wv, a[:, t], out=a_attn[:, t])
                np.matmul(block.wo, a_attn[:, t], out=out[:, t])

            run(vo_tile)
            rec = BlockActivations(MHA, x, z, a, out, a_attn, q, k)
        yield rec
        x = out


@dataclass
class BlockActivations:
    """Per-block record of frozen dense-reference values; the *_pre
    arrays are read-only after capture.

    `dense` holds the block's dense matrices that formed the frozen
    products (read-only references, not copies). Input statistics of the
    frozen arrays (col_l1) are computed on first use, once per record,
    also when pool threads ask for them at the same time."""

    kind: str
    input_pre: np.ndarray
    z_pre: np.ndarray
    a_pre: np.ndarray
    out_pre: np.ndarray
    a_attn_pre: np.ndarray | None
    q_pre: np.ndarray | None = None
    k_pre: np.ndarray | None = None
    dense: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    stats: dict = field(default_factory=dict, repr=False, compare=False)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def frozen_arrays(self):
        return (
            self.input_pre, self.z_pre, self.a_pre, self.out_pre,
            self.a_attn_pre, self.q_pre, self.k_pre,
        )

    def _memo(self, key, compute):
        value = self.stats.get(key)
        if value is None:
            with self.lock:
                value = self.stats.get(key)
                if value is None:
                    value = self.stats[key] = compute()
        return value

    def col_l1(self, name: str) -> np.ndarray:
        """Per-feature sum_t |x_jt| of the frozen array `name` (e.g.
        "input_pre"), the wanda input statistic; read-only."""

        def compute():
            sums = np.sum(np.abs(getattr(self, name)), axis=1)
            sums.setflags(write=False)
            return sums

        return self._memo(("col_l1", name), compute)

    def _finite(self, name: str) -> bool:
        return self._memo(("finite", name), lambda: bool(np.isfinite(getattr(self, name)).all()))

    def product_rows(self, matrix: str, w: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """w @ x for the frozen input x of `matrix` (MATRIX_IO), as a pair
        (array, zero): w @ x is `array` with the rows flagged in `zero`
        read as +0.0, or `array` itself when `zero` is None.

        When every row of w equals the captured dense row or is all zero,
        `array` is the frozen dense product (read-only) and `zero` flags
        the zero rows of w, if there are any; this is bit for bit w @ x: a
        GEMM row of a same-shaped, same-layout product depends only on its
        own row of w, and an all-zero row on a finite input gives +0.0.
        Any other w takes the GEMM, a fresh array with `zero` None."""
        x_name, prod_name = MATRIX_IO[matrix]
        x = getattr(self, x_name)
        frozen = getattr(self, prod_name)
        dense = self.dense.get(matrix)
        if (
            dense is None
            or not frozen.flags.c_contiguous
            or w.dtype != dense.dtype
            or w.shape != dense.shape
            or w.strides != dense.strides
        ):
            return w @ x, None
        zero = ~np.any(w, axis=1)
        if not np.all(zero | np.all(w == dense, axis=1)):
            return w @ x, None
        if not zero.any():
            return frozen, None
        if not self._finite(x_name):
            return w @ x, None
        return frozen, zero


@dataclass
class ActivationCache:
    blocks: list[BlockActivations]
    n_samples: int
    seq_len: int


def capture_reference_activations(
    model: ToyModel, calib: CalibrationSet, threads: int = 1
) -> ActivationCache:
    """Dense forward pass, its token tiles on a pool of `threads`
    workers; freezes the reference values and the dense block matrices
    that formed them (marked read-only in place, not copied). The bytes
    are the same for every `threads`."""
    x = calibration_input(model, calib)
    records: list[BlockActivations] = []
    with _worker_pool(_token_tiles(x.shape[1]), threads) as run:
        for block, rec in zip(model.blocks, _dense_forward(model.blocks, x, calib.seq_len, run)):
            rec.dense = dict(block.matrices)
            for arr in (*rec.frozen_arrays(), *rec.dense.values()):
                if arr is not None:
                    arr.setflags(write=False)
            records.append(rec)
    return ActivationCache(records, calib.n_samples, calib.seq_len)


# ---------------------------------------------------------------------------
# On-disk format: manifest.json + raw little-endian float32 blobs
# ---------------------------------------------------------------------------


def write_atomic(path: str, data: bytes):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
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


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _check_manifest_entry(index: int, entry) -> None:
    """Each matrices[] entry names a matrix, its positive shape, and a blob
    that is a plain file name inside the model directory."""
    if not isinstance(entry, dict):
        raise FormatError(f"manifest matrices[{index}] must be an object")
    for key in ("name", "rows", "cols", "file"):
        if key not in entry:
            raise FormatError(f"manifest matrices[{index}] missing field {key!r}")
    for key in ("rows", "cols"):
        if not _is_positive_int(entry[key]):
            raise FormatError(
                f"manifest matrix {entry['name']!r}: {key} must be a positive int, got {entry[key]!r}"
            )
    fname = entry["file"]
    if not isinstance(fname, str) or fname in ("", ".", "..") or os.path.basename(fname) != fname:
        raise FormatError(
            f"manifest matrix {entry['name']!r}: file must be a plain file name, got {fname!r}"
        )


def save_model(model: ToyModel, path: str):
    os.makedirs(path, exist_ok=True)
    entries = []
    for name, mat in model.named_matrices():
        fname = name.replace(".", "_") + ".bin"
        entries.append(
            {"name": name, "rows": int(mat.shape[0]), "cols": int(mat.shape[1]), "file": fname}
        )
        write_atomic(os.path.join(path, fname), _blob_bytes(mat))
    manifest = {
        "format_version": FORMAT_VERSION,
        "arch": {
            "d": model.arch.d,
            "L": model.arch.num_layers,
            "h": model.arch.num_heads,
            "ffn_dim": model.arch.ffn_dim,
            "vocab": model.arch.vocab,
        },
        "matrices": entries,
    }
    write_json_atomic(os.path.join(path, "manifest.json"), manifest)


def load_model(path: str) -> ToyModel:
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FormatError(f"missing manifest.json under {path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise FormatError(
            f"bad magic: format_version={manifest.get('format_version')!r}, expected {FORMAT_VERSION}"
        )
    arch_raw = manifest.get("arch", {})
    for key in ("d", "L", "h", "ffn_dim", "vocab"):
        if key not in arch_raw:
            raise FormatError(f"manifest arch missing field {key!r}")
    arch = ModelArch(
        d=arch_raw["d"],
        num_layers=arch_raw["L"],
        num_heads=arch_raw["h"],
        ffn_dim=arch_raw["ffn_dim"],
        vocab=arch_raw["vocab"],
    )
    entries = manifest.get("matrices", [])
    # Validate the whole manifest against the directory before any blob read.
    for index, entry in enumerate(entries):
        _check_manifest_entry(index, entry)
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

    blocks: list[Block] = []
    idx = 0
    while True:
        ffn_key = f"layer{idx}.{FFN}.w1"
        mha_key = f"layer{idx}.{MHA}.wq"
        if mha_key in mats:
            blocks.append(
                MhaBlock(
                    _pop(mats, f"layer{idx}.{MHA}.wq"),
                    _pop(mats, f"layer{idx}.{MHA}.wk"),
                    _pop(mats, f"layer{idx}.{MHA}.wv"),
                    _pop(mats, f"layer{idx}.{MHA}.wo"),
                    arch.num_heads,
                )
            )
        elif ffn_key in mats:
            blocks.append(
                FfnBlock(_pop(mats, f"layer{idx}.{FFN}.w1"), _pop(mats, f"layer{idx}.{FFN}.w2"))
            )
        else:
            break
        idx += 1
    # Models store one block per "layer{i}" slot; decoder layouts save MHA
    # and FFN under separate consecutive indices.
    embed = mats.pop("embed", None)
    head = mats.pop("head", None)
    if mats:
        raise FormatError(f"manifest lists unplaceable matrices: {sorted(mats)}")
    if not blocks:
        raise FormatError("manifest contains no decoder blocks")
    for i, block in enumerate(blocks):
        for name, mat in block.matrices.items():
            _check_block_shape(arch, block, name, mat, i)
    return ToyModel(arch, blocks, embed, head)


def _pop(mats: dict, key: str) -> np.ndarray:
    if key not in mats:
        raise FormatError(f"manifest incomplete: matrix {key!r} missing")
    return mats.pop(key)


def _check_block_shape(arch: ModelArch, block: Block, name: str, mat: np.ndarray, idx: int):
    if block.kind == FFN:
        want = (arch.ffn_dim, arch.d) if name == "w1" else (arch.d, arch.ffn_dim)
    else:
        want = (arch.d, arch.d)
    if mat.shape != want:
        raise FormatError(
            f"matrix layer{idx}.{block.kind}.{name} has shape {mat.shape}, manifest arch implies {want}"
        )


def save_calibration(calib: CalibrationSet, path: str, d: int):
    os.makedirs(path, exist_ok=True)
    if calib.is_tokens:
        blob = np.ascontiguousarray(calib.tokens, dtype="<u4").tobytes()
        sidecar = {
            "N": calib.n_samples,
            "seq_len": calib.seq_len,
            "d": d,
            "kind": "tokens",
        }
    else:
        blob = _blob_bytes(calib.inputs.reshape(-1, calib.inputs.shape[2]))
        sidecar = {"N": calib.n_samples, "seq_len": calib.seq_len, "d": d}
    write_atomic(os.path.join(path, "calib.bin"), blob)
    write_json_atomic(os.path.join(path, "calib.json"), sidecar)


def load_calibration(path: str) -> CalibrationSet:
    sidecar_path = os.path.join(path, "calib.json")
    if not os.path.exists(sidecar_path):
        raise FormatError(f"missing calib.json under {path}")
    with open(sidecar_path, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    for key in ("N", "seq_len", "d"):
        if key not in sidecar:
            raise FormatError(f"calibration sidecar missing field {key!r}")
        if not _is_positive_int(sidecar[key]):
            raise FormatError(
                f"calibration sidecar field {key!r} must be a positive int, got {sidecar[key]!r}"
            )
    n, seq, d = sidecar["N"], sidecar["seq_len"], sidecar["d"]
    blob_path = os.path.join(path, "calib.bin")
    if not os.path.exists(blob_path):
        raise FormatError("calibration blob calib.bin is missing")
    with open(blob_path, "rb") as fh:
        raw = fh.read()
    if sidecar.get("kind") == "tokens":
        expected = n * seq * 4
        if len(raw) != expected:
            raise FormatError(f"token blob has {len(raw)} bytes, expected {expected}")
        tokens = np.frombuffer(raw, dtype="<u4").astype(np.int64).reshape(n, seq)
        return CalibrationSet(tokens=tokens)
    expected = n * seq * d * 4
    if len(raw) != expected:
        raise FormatError(f"calibration blob has {len(raw)} bytes, expected {expected}")
    inputs = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(n, seq, d)
    _check_finite(inputs, f"calibration blob {blob_path}")
    return CalibrationSet(inputs=inputs)
