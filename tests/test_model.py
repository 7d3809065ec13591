import json
import os

import numpy as np
import pytest

from struprune import model as model_module
from struprune.errors import CapabilityError, FormatError, ParameterError
from struprune.linalg import make_rng, row_softmax
from struprune.model import (
    COL,
    DEFAULT_AXES,
    DERIVED,
    FFN,
    LOSS_HELD,
    LOSS_TERMS,
    MASK_BEARING,
    MATRIX_IO,
    MHA,
    ROW,
    UNIT_OWNER,
    CalibrationSet,
    FfnBlock,
    MhaBlock,
    ModelArch,
    block_shapes,
    calibration_input,
    capture_reference_activations,
    generate_toy_model,
    load_calibration,
    load_model,
    make_calibration,
    save_calibration,
    save_model,
)
from struprune.oracle import cache_checksum

from conftest import assert_close


class TestArchAndGeneration:
    def test_param_counts_small(self):
        arch = ModelArch(d=8, num_layers=2, num_heads=2)
        model = generate_toy_model(arch, make_rng(0))
        ffn_blocks = [b for b in model.blocks if b.kind == "ffn"]
        mha_blocks = [b for b in model.blocks if b.kind == "mha"]
        assert all(sum(w.size for w in b.matrices.values()) == 8 * 8 * 8 for b in ffn_blocks)
        assert all(sum(w.size for w in b.matrices.values()) == 4 * 8 * 8 for b in mha_blocks)

    def test_param_counts_reference_width(self):
        arch = ModelArch(d=768, num_layers=1, num_heads=12)
        model = generate_toy_model(arch, make_rng(0))
        sizes = {b.kind: sum(w.size for w in b.matrices.values()) for b in model.blocks}
        assert sizes == {"ffn": 4_718_592, "mha": 2_359_296}

    def test_ffn_mha_ratio_exactly_two(self):
        for d, h in ((8, 2), (12, 3), (32, 4)):
            model = generate_toy_model(ModelArch(d, 2, h), make_rng(1))
            ffn = sum(w.size for b in model.blocks if b.kind == "ffn" for w in b.matrices.values())
            mha = sum(w.size for b in model.blocks if b.kind == "mha" for w in b.matrices.values())
            assert ffn / mha == 2.0

    def test_same_seed_identical(self):
        arch = ModelArch(d=8, num_layers=2, num_heads=2)
        m1 = generate_toy_model(arch, make_rng(5))
        m2 = generate_toy_model(arch, make_rng(5))
        for (n1, a), (n2, b) in zip(m1.named_matrices(), m2.named_matrices()):
            assert n1 == n2 and np.array_equal(a, b)

    def test_divisibility_enforced(self):
        with pytest.raises(ParameterError):
            ModelArch(d=10, num_layers=1, num_heads=3)

    def test_ffn_dim_default(self):
        assert ModelArch(d=8, num_layers=1, num_heads=2).ffn_dim == 32
        assert ModelArch(d=8, num_layers=1, num_heads=2, ffn_dim=8).ffn_dim == 8


class TestLossTermLayout:
    @pytest.mark.parametrize("cls", [FfnBlock, MhaBlock])
    def test_each_matrix_in_one_term_of_one_axis(self, cls):
        terms = LOSS_TERMS[cls.kind]
        assert sorted(m for _, matrices in terms.values() for m in matrices) == sorted(cls.names)
        for target, matrices in terms.values():
            assert len({DEFAULT_AXES[m] for m in matrices}) == 1, matrices
            # The target is the dense product of the term's matrices, or
            # the consensus derived from their two products.
            products = tuple(MATRIX_IO[m][1] for m in matrices)
            assert (target,) == products or DERIVED[cls.kind][target][0] == products

    @pytest.mark.parametrize("kind", [FFN, MHA])
    def test_row_unit_terms_are_the_mask_bearing_matrices(self, kind):
        row_terms = [matrices for _, matrices in LOSS_TERMS[kind].values() if DEFAULT_AXES[matrices[0]] == ROW]
        assert [m for matrices in row_terms for m in matrices] == list(MASK_BEARING[kind])
        for m in DEFAULT_AXES:
            assert (UNIT_OWNER[m] == m) == (DEFAULT_AXES[m] == ROW), m

    @pytest.mark.parametrize("kind", [FFN, MHA])
    def test_loss_held_is_the_column_terms_targets_and_inputs(self, kind):
        # Every input of a column-unit term is held; a derived one (FFN
        # a_pre) is held itself, as its nonzeros. Of their targets, the one
        # that is a d-deep GEMM on a held input (MHA out_pre = wo @
        # a_attn_pre) is formed again by the loss, and the ffn_dim-deep one
        # (FFN out_pre = w2 @ a_pre) is held.
        arch = ModelArch(d=16, num_layers=1, num_heads=2)
        shapes = block_shapes(arch, kind)
        held = set()
        for target, matrices in LOSS_TERMS[kind].values():
            if DEFAULT_AXES[matrices[0]] == COL:
                held.add(MATRIX_IO[matrices[0]][0])
                if shapes[matrices[0]][1] > arch.d:
                    held.add(target)
        assert set(LOSS_HELD[kind]) == held and len(LOSS_HELD[kind]) == len(held)
        assert held == {FFN: {"a_pre", "out_pre"}, MHA: {"a_attn_pre"}}[kind]


class TestCapture:
    def test_identity_ffn_z_pre_is_input(self):
        arch = ModelArch(d=4, num_layers=1, num_heads=1, ffn_dim=4)
        model = generate_toy_model(arch, make_rng(0), layout="ffn")
        model.blocks[0].w1 = np.eye(4)
        calib = make_calibration(arch, 2, 3, make_rng(1))
        cache = capture_reference_activations(model, calib)
        assert_close(cache.blocks[0].z_pre, calibration_input(model, calib), 0.0)

    def test_token_input_gathers_embedding_columns(self):
        arch = ModelArch(d=6, num_layers=1, num_heads=2, vocab=11)
        model = generate_toy_model(arch, make_rng(4))
        calib = make_calibration(arch, 3, 9, make_rng(5), kind="tokens")
        x = calibration_input(model, calib)
        assert x.flags.c_contiguous
        assert x.tobytes() == model.embed[:, calib.tokens.reshape(-1)].copy().tobytes()

    def test_recapture_idempotent(self, decoder_toy):
        model, calib, cache = decoder_toy
        cache2 = capture_reference_activations(model, calib)
        assert cache_checksum(cache) == cache_checksum(cache2)
        for r1, r2 in zip(cache.blocks, cache2.blocks):
            assert r1.array("z_pre").tobytes() == r2.array("z_pre").tobytes()

    def test_matches_straight_line_forward_oracle(self, decoder_toy):
        model, calib, cache = decoder_toy
        # Independent per-sample reimplementation of the whole forward pass.
        d_head = model.arch.d // model.arch.num_heads
        for s in range(calib.n_samples):
            x = calib.inputs[s].T  # (d, seq)
            col = slice(s * calib.seq_len, (s + 1) * calib.seq_len)
            for block, rec in zip(model.blocks, cache.blocks):
                if block.kind == "ffn":
                    z = block.w1 @ x
                    a = np.maximum(z, 0.0)
                    out = block.w2 @ a
                else:
                    z = (block.wq @ x + block.wk @ x) / 2.0
                    a = row_softmax(z, np.sqrt(d_head))
                    a_attn = block.wv @ a
                    out = block.wo @ a_attn
                    assert_close(rec.a_attn_pre[:, col], a_attn, 1e-12)
                assert_close(rec.array("z_pre")[:, col], z, 1e-12)
                assert_close(rec.array("a_pre")[:, col], a, 1e-12)
                assert_close(rec.out_pre[:, col], out, 1e-12)
                x = out

    def test_one_projection_and_softmax_per_mha_block(self, decoder_toy, monkeypatch):
        model, calib, _ = decoder_toy
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return row_softmax(*args, **kwargs)

        monkeypatch.setattr(model_module, "row_softmax", counted)
        cache = capture_reference_activations(model, calib)
        mha = [(b, r) for b, r in zip(model.blocks, cache.blocks) if b.kind == "mha"]
        assert len(calls) == len(mha)
        for block, rec in mha:
            assert np.array_equal(rec.q_pre, block.wq @ rec.input_pre)
            assert np.array_equal(rec.k_pre, block.wk @ rec.input_pre)
            assert rec.array("z_pre").tobytes() == (0.5 * (rec.q_pre + rec.k_pre)).tobytes()

    def test_frozen_references_read_only(self, decoder_toy):
        _, _, cache = decoder_toy
        rec = cache.blocks[0]
        for arr in (rec.q_pre, rec.array("z_pre")):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_dimension_mismatch(self):
        model = generate_toy_model(ModelArch(4, 1, 1), make_rng(0))
        bad = CalibrationSet(inputs=np.zeros((2, 3, 5)))
        with pytest.raises(Exception):
            capture_reference_activations(model, bad)


class TestModelIO:
    def test_round_trip_f32_exact(self, tmp_path, decoder_toy):
        model, _, _ = decoder_toy
        save_model(model, str(tmp_path / "m"))
        loaded = load_model(str(tmp_path / "m"))
        for (n1, a), (n2, b) in zip(model.named_matrices(), loaded.named_matrices()):
            assert n1 == n2
            assert np.array_equal(a.astype(np.float32), b.astype(np.float32))

    def test_save_load_save_byte_identical(self, tmp_path):
        for layout, vocab in [("decoder", 32), ("ffn", 0), ("mha", 0)]:
            arch = ModelArch(d=16, num_layers=2, num_heads=2, vocab=vocab)
            model = generate_toy_model(arch, make_rng(101), layout=layout)
            p1, p2 = str(tmp_path / layout / "m1"), str(tmp_path / layout / "m2")
            save_model(model, p1)
            save_model(load_model(p1), p2)
            assert sorted(os.listdir(p1)) == sorted(os.listdir(p2)), layout
            for name in sorted(os.listdir(p1)):
                with open(os.path.join(p1, name), "rb") as f1, open(os.path.join(p2, name), "rb") as f2:
                    assert f1.read() == f2.read(), (layout, name)

    def test_truncated_blob(self, tmp_path, decoder_toy):
        model, _, _ = decoder_toy
        path = str(tmp_path / "m")
        save_model(model, path)
        blob = os.path.join(path, "layer0_mha_wq.bin")
        with open(blob, "r+b") as fh:
            fh.truncate(10)
        with pytest.raises(FormatError, match="wq"):
            load_model(path)

    def test_missing_matrix_named(self, tmp_path, decoder_toy):
        model, _, _ = decoder_toy
        path = str(tmp_path / "m")
        save_model(model, path)
        os.unlink(os.path.join(path, "layer1_ffn_w2.bin"))
        with pytest.raises(FormatError, match="w2"):
            load_model(path)

    def test_bad_magic(self, tmp_path, decoder_toy):
        model, _, _ = decoder_toy
        path = str(tmp_path / "m")
        save_model(model, path)
        with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["format_version"] = 99
        with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    # The embedding and head follow the manifest's vocab like the block
    # matrices follow d and ffn_dim; a token id past the embedding would
    # otherwise index out of range.
    def test_vocab_disagrees_with_blobs(self, tmp_path):
        model = generate_toy_model(ModelArch(d=4, num_layers=1, num_heads=1, vocab=6), make_rng(3))
        path = str(tmp_path / "m")
        save_model(model, path)
        with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["arch"]["vocab"] = 9
        with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(FormatError, match=r"embed has shape \(4, 6\), manifest arch implies \(4, 9\)"):
            load_model(path)

    # A block matrix whose rows, cols and blob agree with each other but
    # not with the arch: ffn_dim edited in the manifest.
    def test_block_matrix_disagrees_with_arch(self, tmp_path):
        model = generate_toy_model(ModelArch(d=4, num_layers=1, num_heads=1), make_rng(3))
        path = str(tmp_path / "m")
        save_model(model, path)
        with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["arch"]["ffn_dim"] = 12
        with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(FormatError,
                           match=r"layer1\.ffn\.w1 has shape \(16, 4\), manifest arch implies \(12, 4\)"):
            load_model(path)

    def test_vocab_head_round_trip(self, tmp_path):
        arch = ModelArch(d=4, num_layers=1, num_heads=1, vocab=6)
        model = generate_toy_model(arch, make_rng(3))
        save_model(model, str(tmp_path / "m"))
        loaded = load_model(str(tmp_path / "m"))
        assert loaded.embed is not None and loaded.head is not None
        assert loaded.embed.shape == (4, 6) and loaded.head.shape == (6, 4)


class TestCalibrationIO:
    def test_dense_round_trip(self, tmp_path):
        arch = ModelArch(8, 1, 2)
        calib = make_calibration(arch, 3, 5, make_rng(0))
        save_calibration(calib, str(tmp_path / "c"), arch.d)
        loaded = load_calibration(str(tmp_path / "c"))
        assert np.array_equal(
            calib.inputs.astype(np.float32), loaded.inputs.astype(np.float32)
        )

    def test_token_round_trip(self, tmp_path):
        arch = ModelArch(8, 1, 2, vocab=10)
        calib = make_calibration(arch, 3, 5, make_rng(0), kind="tokens")
        save_calibration(calib, str(tmp_path / "c"), arch.d)
        loaded = load_calibration(str(tmp_path / "c"))
        assert np.array_equal(calib.tokens, loaded.tokens)

    def test_tokens_need_vocab(self):
        with pytest.raises(CapabilityError):
            make_calibration(ModelArch(8, 1, 2), 2, 4, make_rng(0), kind="tokens")

    def test_empty_calibration_rejected(self):
        # Zero tokens per sample are rejected where the token count lives,
        # before any statistic of the activations is taken.
        with pytest.raises(ParameterError, match="seq_len >= 1"):
            CalibrationSet(inputs=np.ones((2, 0, 3)))
        with pytest.raises(ParameterError, match="seq_len >= 1"):
            CalibrationSet(tokens=np.ones((2, 0), dtype=np.int64))

    def test_sidecar_fields(self, tmp_path):
        arch = ModelArch(8, 1, 2)
        calib = make_calibration(arch, 3, 5, make_rng(0))
        save_calibration(calib, str(tmp_path / "c"), arch.d)
        with open(tmp_path / "c" / "calib.json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        assert sidecar == {"N": 3, "seq_len": 5, "d": 8}

    def test_truncated_calibration(self, tmp_path):
        arch = ModelArch(8, 1, 2)
        calib = make_calibration(arch, 3, 5, make_rng(0))
        save_calibration(calib, str(tmp_path / "c"), arch.d)
        with open(tmp_path / "c" / "calib.bin", "r+b") as fh:
            fh.truncate(4)
        with pytest.raises(FormatError):
            load_calibration(str(tmp_path / "c"))

