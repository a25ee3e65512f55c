import dataclasses
import hashlib
import json
import math
import re
import struct
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY, make_latents, traced_peak
from splitfwi.errors import (
    ConfigError,
    CorruptFileError,
    EmptySupportError,
    InputValidationError,
    PartitionError,
    ShapeError,
    SplitFwiError,
)
from splitfwi.model import (
    LatentSet,
    LatentVector,
    WEIGHTS_MAGIC,
    ModelConfig,
    cross_attention,
    decode,
    decode_without_attention,
    decoder_flops,
    encode,
    encoder_flops,
    forward_full,
    fuse,
    init_weights,
    load_weights,
    plain_decoder_flops,
    save_weights,
    weights_from_bytes,
    weights_to_bytes,
)
from splitfwi.numerics import bilinear_resize, leaky_relu, linear, conv2d, global_avg_pool
from splitfwi.tensorio import tensor_from_bytes, tensor_to_bytes


def f32(x):
    return np.asarray(x, dtype=np.float32)


def lin_f32(x, lp):
    """Scalar-staged affine map: float64 accumulate, float32 store."""
    return (
        np.asarray(x, np.float64) @ np.asarray(lp.weight, np.float64).T
        + np.asarray(lp.bias, np.float64)
    ).astype(np.float32)


def attention_oracle(queries, tokens, params, d_k):
    """Brute-force single-head attention over float32-staged projections.

    queries: [n_q, q_in]; tokens: [k, D]. Returns the [n_q, C] projected
    outputs, computed with scalar-style loops.
    """
    q = lin_f32(queries, params.query)
    keys = lin_f32(tokens, params.key)
    vals = lin_f32(tokens, params.value)
    outs = []
    for row in range(q.shape[0]):
        scores = np.array(
            [float(np.dot(q[row].astype(np.float64), keys[i].astype(np.float64)))
             for i in range(keys.shape[0])]
        ) / math.sqrt(d_k)
        scores = scores.astype(np.float32).astype(np.float64)
        e = np.exp(scores - scores.max())
        alpha = (e / e.sum()).astype(np.float32).astype(np.float64)
        mixed = np.zeros(vals.shape[1], dtype=np.float64)
        for i in range(vals.shape[0]):
            mixed += alpha[i] * vals[i].astype(np.float64)
        outs.append(mixed.astype(np.float32))
    merged = np.stack(outs)
    return lin_f32(merged, params.out)


class TestInitWeights:
    def test_deterministic(self, tiny_config):
        a = init_weights(tiny_config, 9)
        b = init_weights(tiny_config, 9)
        for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta, tb)

    def test_seed_sensitivity(self, tiny_config):
        a = init_weights(tiny_config, 1)
        b = init_weights(tiny_config, 2)
        diffs = [
            not np.array_equal(ta, tb)
            for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors())
        ]
        assert any(diffs)

    def test_structure_follows_config(self):
        cfg = ModelConfig(n_devices=5)
        w = init_weights(cfg, 3)
        assert len(w.encoders) == 5
        assert w.position_embeddings.shape == (cfg.d_pos, 70, 70)
        assert w.encoders[0][0].kernel.shape == (32, 5, 3, 3)

    def test_negative_seed_rejected_typed(self, tiny_config):
        with pytest.raises(ConfigError, match="unsigned 64-bit integer, got -1"):
            init_weights(tiny_config, -1)

    def test_bounds(self, tiny_weights, tiny_config):
        fan_in = tiny_config.latent_dim
        bound = math.sqrt(1.0 / fan_in)
        wq = tiny_weights.fusion.query.weight
        assert float(np.abs(wq).max()) <= bound


class TestEncode:
    def test_latent_length_full_size(self):
        cfg = ModelConfig(n_devices=5)
        w = init_weights(cfg, 1)
        rng = np.random.default_rng(0)
        wave = rng.normal(size=(5, 1000, 14)).astype(np.float32)
        latent = encode(wave, w.encoders[0], device_id=0)
        assert latent.values.shape == (512,)
        assert np.isfinite(latent.values).all()

    def test_zero_input_bias_driven_and_stable(self, tiny_weights):
        zero = np.zeros((5, 40, 10), np.float32)
        a = encode(zero, tiny_weights.encoders[0])
        b = encode(zero, tiny_weights.encoders[0])
        np.testing.assert_array_equal(a.values, b.values)
        assert float(np.abs(a.values).max()) > 0.0  # biases leak through

    def test_matches_explicit_kernel_chain(self, tiny_weights):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 40, 9)).astype(np.float32)
        got = encode(x, tiny_weights.encoders[1], device_id=1)
        h = x
        for conv in tiny_weights.encoders[1]:
            sw = 2 if h.shape[2] > 4 else 1
            h = conv2d(h, conv.kernel, conv.bias, stride=(2, sw), padding=(1, 1))
            h = leaky_relu(h)
        want = global_avg_pool(h).reshape(-1)
        np.testing.assert_array_equal(got.values, want)

    def test_narrow_slice(self, tiny_weights):
        latent = encode(np.ones((5, 32, 1), np.float32), tiny_weights.encoders[0])
        assert latent.values.shape == (16,)

    def test_non_finite_rejected(self, tiny_weights):
        bad = np.full((5, 16, 4), np.nan, np.float32)
        with pytest.raises(InputValidationError):
            encode(bad, tiny_weights.encoders[0])


class TestFuse:
    def test_single_latent_is_pool_of_one(self, tiny_config, tiny_weights):
        lset = make_latents(tiny_config, device_ids=[1])
        gl = fuse(lset, tiny_weights.fusion)
        toks = lset.stacked()
        want = attention_oracle(toks, toks, tiny_weights.fusion, tiny_config.d_k)[0]
        np.testing.assert_array_equal(gl, want)

    def test_insertion_order_invariant(self, tiny_config, tiny_weights):
        rng = np.random.default_rng(3)
        latents = [
            LatentVector(values=rng.normal(size=tiny_config.latent_dim).astype(np.float32), device_id=d)
            for d in range(tiny_config.n_devices)
        ]
        fwd = LatentSet.from_latents(latents, tiny_config.n_devices)
        rev = LatentSet.from_latents(latents[::-1], tiny_config.n_devices)
        np.testing.assert_array_equal(
            fuse(fwd, tiny_weights.fusion), fuse(rev, tiny_weights.fusion)
        )

    def test_matches_attention_oracle(self, tiny_config, tiny_weights):
        lset = make_latents(tiny_config, seed=21)
        gl = fuse(lset, tiny_weights.fusion)
        toks = lset.stacked()
        token_out = attention_oracle(toks, toks, tiny_weights.fusion, tiny_config.d_k)
        want = token_out.astype(np.float64).mean(axis=0).astype(np.float32)
        np.testing.assert_allclose(gl, want, rtol=1e-6, atol=1e-6)

    def test_empty_rejected(self, tiny_config, tiny_weights):
        with pytest.raises(EmptySupportError):
            fuse(LatentSet(tiny_config.n_devices), tiny_weights.fusion)


class TestCrossAttention:
    def _block(self, weights):
        return weights.blocks[0]

    def test_single_latent_residual(self, tiny_config, tiny_weights):
        block = self._block(tiny_weights)
        rng = np.random.default_rng(4)
        c = tiny_config.decoder_channels[1]
        feats = rng.normal(size=(c, 9, 9)).astype(np.float32)
        lset = make_latents(tiny_config, device_ids=[2])
        grid = bilinear_resize(tiny_weights.position_embeddings, (9, 9))
        got = cross_attention(feats, grid, lset, block.attention)
        vals = lin_f32(lset.stacked(), block.attention.value)
        proj = lin_f32(vals, block.attention.out)[0]
        want = feats + proj[:, None, None]
        np.testing.assert_array_equal(got, want)

    def test_identical_latents_split_half(self, tiny_config, tiny_weights):
        block = self._block(tiny_weights)
        rng = np.random.default_rng(5)
        c = tiny_config.decoder_channels[1]
        feats = rng.normal(size=(c, 5, 5)).astype(np.float32)
        vals = rng.normal(size=tiny_config.latent_dim).astype(np.float32)
        lset = LatentSet(tiny_config.n_devices)
        lset.add(LatentVector(values=vals, device_id=0))
        lset.add(LatentVector(values=vals.copy(), device_id=2))
        weights_out = []
        cross_attention(
            feats, bilinear_resize(tiny_weights.position_embeddings, (5, 5)), lset,
            block.attention, attention_out=weights_out,
        )
        alpha = weights_out[0]
        assert (alpha[0] == 0.5).all()
        assert (alpha[2] == 0.5).all()
        assert (alpha[1] == 0.0).all()

    def test_matches_attention_oracle(self, tiny_weights):
        # four devices to match the derived example shape
        cfg = ModelConfig(
            n_devices=4, latent_dim=16, d_k=8, d_pos=6,
            encoder_channels=(5, 6, 8, 16), decoder_channels=(12, 10, 8, 8, 6),
        )
        w = init_weights(cfg, 13)
        block = w.blocks[2]  # 8-channel block at 35x35; evaluate on a 9x9 crop
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(8, 9, 9)).astype(np.float32)
        lset = make_latents(cfg, seed=31)
        weights_out = []
        ep = bilinear_resize(w.position_embeddings, (9, 9))
        got = cross_attention(feats, ep, lset, block.attention, attention_out=weights_out)
        queries = np.concatenate([feats, ep], axis=0).reshape(8 + cfg.d_pos, 81).T
        proj = attention_oracle(queries, lset.stacked(), block.attention, cfg.d_k)
        want = feats + proj.T.reshape(8, 9, 9)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)
        sums = weights_out[0].sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_all_masked_rejected(self, tiny_config, tiny_weights):
        feats = np.zeros((tiny_config.decoder_channels[1], 5, 5), np.float32)
        with pytest.raises(EmptySupportError):
            cross_attention(
                feats, bilinear_resize(tiny_weights.position_embeddings, (5, 5)),
                LatentSet(tiny_config.n_devices), tiny_weights.blocks[0].attention,
            )

    def test_grid_of_another_size_rejected(self, tiny_config, tiny_weights):
        feats = np.zeros((tiny_config.decoder_channels[1], 5, 5), np.float32)
        lset = make_latents(tiny_config)
        for grid in (tiny_weights.position_embeddings, np.zeros((5, 5), np.float32)):
            with pytest.raises(ShapeError, match="position grid"):
                cross_attention(feats, grid, lset, tiny_weights.blocks[0].attention)


class TestDecode:
    def test_output_dims_and_range(self, tiny_config, tiny_weights, tiny_latents):
        gl = fuse(tiny_latents, tiny_weights.fusion)
        vmap = decode(gl, tiny_latents, tiny_weights)
        assert vmap.values.shape == (70, 70)
        lo, hi = tiny_config.velocity_range
        assert float(vmap.values.min()) >= lo
        assert float(vmap.values.max()) <= hi

    def test_arrival_shuffle_bit_identical(self, tiny_config, tiny_weights):
        rng = np.random.default_rng(7)
        latents = [
            LatentVector(values=rng.normal(size=tiny_config.latent_dim).astype(np.float32), device_id=d)
            for d in range(tiny_config.n_devices)
        ]
        a = LatentSet.from_latents(latents, tiny_config.n_devices)
        b = LatentSet.from_latents([latents[2], latents[0], latents[1]], tiny_config.n_devices)
        gl_a = fuse(a, tiny_weights.fusion)
        gl_b = fuse(b, tiny_weights.fusion)
        np.testing.assert_array_equal(gl_a, gl_b)
        np.testing.assert_array_equal(
            decode(gl_a, a, tiny_weights).values, decode(gl_b, b, tiny_weights).values
        )

    def test_mask_equals_removal(self, tiny_config, tiny_weights, tiny_latents):
        reduced = LatentSet.from_latents(tiny_latents.entries.values(), tiny_config.n_devices)
        del reduced.entries[1]
        rebuilt = LatentSet.from_latents(
            [tiny_latents.entries[d] for d in (0, 2)], tiny_config.n_devices
        )
        gl_r = fuse(reduced, tiny_weights.fusion)
        gl_b = fuse(rebuilt, tiny_weights.fusion)
        np.testing.assert_array_equal(
            decode(gl_r, reduced, tiny_weights).values,
            decode(gl_b, rebuilt, tiny_weights).values,
        )

    def test_attention_sums_collected(self, tiny_config, tiny_weights, tiny_latents):
        gl = fuse(tiny_latents, tiny_weights.fusion)
        collected = []
        decode(gl, tiny_latents, tiny_weights, attention_out=collected)
        assert len(collected) == tiny_config.n_decoder_blocks
        for alpha in collected:
            np.testing.assert_allclose(alpha.sum(axis=0), 1.0, atol=1e-6)

    def test_plain_decoder_ignores_latents(self, tiny_config, tiny_weights, tiny_latents):
        gl = fuse(tiny_latents, tiny_weights.fusion)
        vmap = decode_without_attention(gl, tiny_weights)
        assert vmap.values.shape == (70, 70)


class TestForwardFull:
    def test_single_device_partition(self, tiny_weights):
        cfg = ModelConfig(
            n_devices=1, latent_dim=16, d_k=8, d_pos=6,
            encoder_channels=(5, 6, 8, 16), decoder_channels=(12, 10, 8, 8, 6),
        )
        w = init_weights(cfg, 2)
        rng = np.random.default_rng(9)
        wave = rng.normal(size=(5, 40, 70)).astype(np.float32)
        vmap = forward_full(wave, w, ((0, 70),))
        assert vmap.values.shape == (70, 70)

    def test_deterministic(self, tiny_config, tiny_weights):
        rng = np.random.default_rng(10)
        wave = rng.normal(size=(5, 40, 70)).astype(np.float32)
        part = ((0, 24), (24, 48), (48, 70))
        a = forward_full(wave, tiny_weights, part)
        b = forward_full(wave, tiny_weights, part)
        np.testing.assert_array_equal(a.values, b.values)

    def test_invalid_partition(self, tiny_weights, rng):
        wave = rng.normal(size=(5, 40, 70)).astype(np.float32)
        with pytest.raises(PartitionError):
            forward_full(wave, tiny_weights, ((0, 24), (30, 48), (48, 70)))
        with pytest.raises(PartitionError):
            forward_full(wave, tiny_weights, ((0, 35), (35, 70)))


class TestWeightFiles:
    def test_round_trip_bit_exact(self, tiny_weights, tmp_path):
        path = tmp_path / "w.bin"
        save_weights(tiny_weights, path)
        loaded = load_weights(path)
        assert loaded.config == tiny_weights.config
        for (na, ta), (nb, tb) in zip(tiny_weights.named_tensors(), loaded.named_tensors()):
            assert na == nb
            np.testing.assert_array_equal(ta, tb)

    # sha256 and length of weights_to_bytes(init_weights(ModelConfig(n_devices=n), 1)):
    # pins every full-size tensor's name, shape, order and seeded values
    FULL_SIZE = {
        1: ("8fa0e23d13a296a7538ddd4eecb226f35556a082b2854d94dd4bf3efa863e72e", 16699504),
        5: ("bd1da4205e277425a5213558d918148b7f8faafc46cf67922af77c79c69f8a40", 41807816),
    }

    @pytest.mark.parametrize("n_devices", sorted(FULL_SIZE))
    def test_full_size_bytes_pinned(self, n_devices):
        blob = weights_to_bytes(init_weights(ModelConfig(n_devices=n_devices), 1))
        assert (hashlib.sha256(blob).hexdigest(), len(blob)) == self.FULL_SIZE[n_devices]

    def test_truncated_rejected(self, tiny_weights, tmp_path):
        blob = weights_to_bytes(tiny_weights)
        path = tmp_path / "w.bin"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptFileError):
            load_weights(path)

    @staticmethod
    def _sealed(body):
        return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)

    def test_end_after_config_names_tensor_count(self, tiny_weights):
        blob = weights_to_bytes(tiny_weights)
        (cfg_len,) = struct.unpack_from("<I", blob, 8)
        with pytest.raises(CorruptFileError, match="truncated inside tensor count"):
            weights_from_bytes(self._sealed(blob[: 12 + cfg_len]))

    def test_unlisted_tensor_rejected(self, tiny_weights):
        blob = weights_to_bytes(tiny_weights)
        (cfg_len,) = struct.unpack_from("<I", blob, 8)
        at = 12 + cfg_len
        (count,) = struct.unpack_from("<I", blob, at)
        name = b"decoder.extra.weight"
        body = (blob[:at] + struct.pack("<I", count + 1) + blob[at + 4 : -4]
                + struct.pack("<H", len(name)) + name + tensor_to_bytes(np.zeros(2, np.float32)))
        with pytest.raises(CorruptFileError, match="decoder.extra.weight"):
            weights_from_bytes(self._sealed(body))

    @staticmethod
    def _records(blob):
        """The config JSON and the (name, tensor record) pairs of a file."""
        (cfg_len,) = struct.unpack_from("<I", blob, 8)
        pos = 12 + cfg_len
        (count,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        records = []
        for _ in range(count):
            (n,) = struct.unpack_from("<H", blob, pos)
            _, end = tensor_from_bytes(blob, pos + 2 + n)
            records.append((blob[pos + 2 : pos + 2 + n], blob[pos + 2 + n : end]))
            pos = end
        return blob[12 : 12 + cfg_len], records

    @classmethod
    def _rebuilt(cls, cfg, records, name_len=None):
        """A CRC-valid file of these parts; name_len overrides the last
        record's declared name length."""
        lens = [len(n) for n, _ in records[:-1]] + [name_len or len(records[-1][0])]
        body = (WEIGHTS_MAGIC + struct.pack("<I", len(cfg)) + cfg
                + struct.pack("<I", len(records))
                + b"".join(struct.pack("<H", k) + n + r for k, (n, r) in zip(lens, records)))
        return cls._sealed(body)

    @staticmethod
    def _config_edit(cfg, **fields):
        raw = json.loads(cfg)
        for key, value in fields.items():
            if value is None:
                del raw[key]
            else:
                raw[key] = value
        return json.dumps(raw).encode()

    GARBAGE = [
        ("not json", "config at byte 12 is invalid"),
        ("missing key", "config at byte 12 is invalid.*n_heads"),
        ("channels abc", "config at byte 12 is invalid"),
        ("config not utf-8", "config at byte 12 is invalid"),
        ("config not a mapping", "config at byte 12 is invalid"),
        ("bad config values", "config at byte 12 is invalid"),
        ("name not utf-8", "record name at byte .* is invalid"),
        ("name past the body", "record name of 65535 bytes at byte .* runs past the body"),
        ("non-finite encoder", "encoder0.conv0.kernel at byte .* is not finite"),
        ("non-finite head", "decoder.head.kernel at byte .* is not finite"),
        ("config not canonical", "config at byte 12 is not in canonical form"),
        ("float device count", "config at byte 12 is invalid: n_devices must be an integer, got 3.0"),
        ("infinite velocity range", "config at byte 12 is invalid: velocity range must be finite"),
        ("one-entry resolution", "config at byte 12 is invalid: decoder_resolutions must hold 2"),
        ("records swapped", "record at byte .* is 'encoder1.conv0.kernel', "
                            "expected tensor encoder0.conv0.kernel"),
    ]

    @pytest.mark.parametrize("case, match", GARBAGE, ids=[case for case, _ in GARBAGE])
    def test_crc_valid_garbage_raises_corrupt_file(self, tiny_weights, tmp_path, case, match):
        cfg, records = self._records(weights_to_bytes(tiny_weights))
        name_len = None
        if case == "not json":
            cfg = b"{not json"
        elif case == "missing key":
            cfg = self._config_edit(cfg, n_heads=None)
        elif case == "channels abc":
            cfg = self._config_edit(cfg, encoder_channels="abc")
        elif case == "config not utf-8":
            cfg = b"\xff\xfe" + cfg
        elif case == "config not a mapping":
            cfg = b"[1, 2]"
        elif case == "bad config values":
            cfg = self._config_edit(cfg, decoder_resolutions=[5, 9], n_devices=0)
        elif case == "name not utf-8":
            records[0] = (b"\xff" * len(records[0][0]), records[0][1])
        elif case == "name past the body":
            name_len = 0xFFFF
        elif case == "config not canonical":
            # a valid config that reads back equal, but writes 1500.0 where this has 1500
            lo, hi = json.loads(cfg)["velocity_range"]
            cfg = self._config_edit(cfg, velocity_range=[int(lo), int(hi)])
        elif case == "float device count":
            cfg = self._config_edit(cfg, n_devices=3.0)
        elif case == "infinite velocity range":
            # canonical: json writes the float as Infinity, and reads it back
            cfg = self._config_edit(cfg, velocity_range=[1500.0, math.inf])
        elif case == "one-entry resolution":
            res = json.loads(cfg)["decoder_resolutions"]
            cfg = self._config_edit(cfg, decoder_resolutions=[res[0][:1]] + res[1:])
        elif case == "records swapped":
            # two kernels of one shape: every record parses, in the wrong order
            i = [n.decode() for n, _ in records].index("encoder1.conv0.kernel")
            records[0], records[i] = records[i], records[0]
        else:
            wanted = "encoder0.conv0.kernel" if "encoder" in case else "decoder.head.kernel"
            i = [n.decode() for n, _ in records].index(wanted)
            record = bytearray(records[i][1][:-4])
            record[-4:] = struct.pack("<f", float("nan"))
            records[i] = (records[i][0], self._sealed(bytes(record)))
        blob = self._rebuilt(cfg, records, name_len)
        with pytest.raises(CorruptFileError, match=match):
            weights_from_bytes(blob)
        path = tmp_path / "w.bin"
        path.write_bytes(blob)
        with pytest.raises(CorruptFileError, match=f"^{re.escape(str(path))}: .*{match}"):
            load_weights(path)

    def test_rebuilt_file_loads(self, tiny_weights):
        # the test's own rebuild of an unedited file is the writer's bytes
        blob = weights_to_bytes(tiny_weights)
        assert self._rebuilt(*self._records(blob)) == blob

    def test_tensor_error_names_its_offset(self, tiny_weights):
        cfg, records = self._records(weights_to_bytes(tiny_weights))
        records[1] = (records[1][0], records[1][1][:8] + b"\x09" + records[1][1][9:])
        at = 12 + len(cfg) + 4 + 2 + len(records[0][0]) + len(records[0][1]) + 2 + len(records[1][0])
        with pytest.raises(CorruptFileError, match=f"tensor {records[1][0].decode()} at byte "
                                                   f"{at} is invalid: unsupported tensor format"):
            weights_from_bytes(self._rebuilt(cfg, records))

    def test_declared_tensors_beyond_the_file_rejected_fast(self):
        # a few hundred bytes that declare a million encoders and hold no record
        cfg = dataclasses.replace(TINY, n_devices=10**6).to_json().encode()
        blob = self._sealed(WEIGHTS_MAGIC + struct.pack("<I", len(cfg)) + cfg
                            + struct.pack("<I", 0))
        t0 = time.perf_counter()
        with pytest.raises(CorruptFileError, match="missing tensor encoder0.conv0.kernel"):
            weights_from_bytes(blob)
        assert time.perf_counter() - t0 < 0.1

    @classmethod
    def _mutated(cls, data, blob):
        """blob with one drawn edit, CRC re-sealed: byte flips, a
        truncation, a config field, the record count or a name length."""
        cfg, records = cls._records(blob)
        body = bytearray(blob[:-4])
        count_at = 12 + len(cfg)
        kind = data.draw(st.sampled_from(["flip", "truncate", "config", "count", "name length"]))
        if kind == "flip":
            for _ in range(data.draw(st.integers(1, 3))):
                body[data.draw(st.integers(0, len(body) - 1))] ^= data.draw(st.integers(1, 255))
        elif kind == "truncate":
            del body[data.draw(st.integers(0, len(body) - 1)):]
        elif kind == "config":
            values = {
                "n_devices": st.one_of(st.integers(-1, 10**6), st.just(3.0), st.booleans(),
                                       st.just("3")),
                "encoder_channels": st.lists(st.integers(0, 10**6), max_size=5),
            }
            key = data.draw(st.sampled_from(sorted(values)))
            raw = json.loads(cfg)
            raw[key] = data.draw(values[key])
            edited = json.dumps(raw, sort_keys=True).encode()
            body[8:count_at] = struct.pack("<I", len(edited)) + edited
        elif kind == "count":
            struct.pack_into("<I", body, count_at, data.draw(st.integers(0, 2**32 - 1)))
        else:
            at = count_at + 4
            for name, record in records[: data.draw(st.integers(0, len(records) - 1))]:
                at += 2 + len(name) + len(record)
            struct.pack_into("<H", body, at, data.draw(st.integers(0, 2**16 - 1)))
        return cls._sealed(bytes(body))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_resealed_mutations_load_exactly_or_fail_typed(self, tiny_weights, data):
        blob = self._mutated(data, weights_to_bytes(tiny_weights))
        t0 = time.perf_counter()
        try:
            loaded = weights_from_bytes(blob)
        except SplitFwiError:
            pass
        else:
            assert weights_to_bytes(loaded) == blob
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_flips_rejected(self, tiny_weights, tmp_path, seed):
        blob = bytearray(weights_to_bytes(tiny_weights))
        rng = np.random.default_rng(seed)
        bit = int(rng.integers(0, len(blob) * 8))
        blob[bit // 8] ^= 1 << (bit % 8)
        path = tmp_path / "w.bin"
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFileError):
            load_weights(path)

    def test_save_and_load_hold_at_most_the_file(self, tmp_path):
        # full-size tensors (the largest is 6.5 MB); 4 position channels keep
        # the derived position grids, which __post_init__ builds in float64,
        # far below the 1 MiB slack
        weights = init_weights(ModelConfig(n_devices=5, d_pos=4), 1)
        path = tmp_path / "w.bin"
        assert traced_peak(lambda: save_weights(weights, path)) <= 1 << 20
        assert path.read_bytes() == weights_to_bytes(weights)
        # the loaded tensors are views of the file's bytes, not copies
        assert traced_peak(lambda: load_weights(path)) <= path.stat().st_size + (1 << 20)

    def test_position_grids_built_without_whole_grid_temporaries(self):
        # the default 64 position channels, resized to 9, 18, 35 and 70 pixels
        weights = init_weights(ModelConfig(n_devices=1), 1)
        emb = weights.position_embeddings
        for grid, res in zip(weights.position_grids, weights.config.decoder_resolutions[1:]):
            assert grid.dtype == np.float32 and grid.flags.c_contiguous
            assert grid.tobytes() == bilinear_resize(emb, res).tobytes()
        # rebuilding holds the grids and one channel block's temporaries,
        # not float64 copies of all 64 channels (about 6 MB)
        kept = sum(grid.nbytes for grid in weights.position_grids)
        assert traced_peak(lambda: dataclasses.replace(weights)) <= kept + (1 << 18)


class TestConfigValidation:
    def test_resolutions_must_increase(self):
        with pytest.raises(ShapeError):
            ModelConfig(decoder_resolutions=((5, 5), (5, 5), (18, 18), (35, 35), (70, 70)))

    def test_last_resolution_is_output(self):
        with pytest.raises(ShapeError):
            ModelConfig(decoder_resolutions=((5, 5), (9, 9), (18, 18), (35, 35), (60, 60)))

    def test_heads_divide_dk(self):
        with pytest.raises(ShapeError):
            ModelConfig(n_heads=3)

    @pytest.mark.parametrize("n_devices", [2.5, True])
    def test_non_integer_device_count_rejected_typed(self, n_devices):
        with pytest.raises(ShapeError, match="n_devices must be an integer"):
            ModelConfig(n_devices=n_devices)

    @pytest.mark.parametrize("field, value", [
        ("encoder_channels", ()),
        ("encoder_channels", (512,)),
        ("decoder_channels", 5),
        ("decoder_resolutions", ((5,), (9, 9), (18, 18), (35, 35), (70, 70))),
        ("decoder_resolutions", 5),
        ("decoder_resolutions", ()),
        ("output_dims", (70,)),
        ("velocity_range", (1500.0, 3000.0, 4500.0)),
        ("velocity_range", 4500.0),
    ])
    def test_badly_shaped_tuple_rejected_typed(self, field, value):
        with pytest.raises(ShapeError, match=f"{field} must hold"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("value", [("1500", "4500"), (True, 4500.0), (math.nan, 4500.0),
                                       (1500.0, 10**400)])
    def test_mistyped_or_non_finite_velocity_range_rejected_typed(self, value):
        # strings leaked a bare TypeError, and True was stored and written as `true`
        with pytest.raises(ShapeError, match="velocity range must be"):
            ModelConfig(velocity_range=value)

    def test_velocity_range_stored_as_floats(self):
        # equal configs must write equal weight-file bytes
        cfg = ModelConfig(velocity_range=(1500, 4500))
        assert all(type(v) is float for v in cfg.velocity_range)
        assert cfg.to_json() == ModelConfig().to_json()

    def test_multi_head_runs(self):
        cfg = ModelConfig(
            n_devices=2, latent_dim=16, d_k=8, d_pos=6, n_heads=2,
            encoder_channels=(5, 6, 8, 16), decoder_channels=(12, 10, 8, 8, 6),
        )
        w = init_weights(cfg, 4)
        lset = make_latents(cfg, seed=17)
        gl = fuse(lset, w.fusion, cfg.n_heads)
        vmap = decode(gl, lset, w)
        assert vmap.values.shape == (70, 70)


@pytest.mark.parametrize("field, value", [
    ("device_id", 1.5), ("device_id", "1"), ("device_id", True),
    ("sample_id", 2.5), ("sample_id", "0"),
])
def test_mistyped_latent_id_rejected_typed(field, value):
    # 1.5 was accepted as a device id, and "1" leaked a bare TypeError
    ids = dict({"device_id": 0, "sample_id": 0}, **{field: value})
    with pytest.raises(ShapeError, match=f"{field} must be an integer"):
        LatentVector(values=np.zeros(4, np.float32), **ids)


def test_latent_ids_stored_as_ints():
    latent = LatentVector(values=np.zeros(4, np.float32), device_id=np.int64(2),
                          sample_id=np.uint8(3))
    assert (type(latent.device_id), type(latent.sample_id)) == (int, int)


class TestDeclaredCosts:
    """Full-size flop counts; they set every simulated L_edge and L_central
    of a default-config run, and the golden hashes cover TINY only."""

    def test_encoder_flops(self):
        got = {w: encoder_flops(ModelConfig(), 1000, w) for w in (7, 10, 14, 35, 70)}
        assert got == {7: 567043072, 10: 428162304, 14: 571363072,
                       35: 539042304, 70: 794512128}

    def test_decoder_flops(self):
        got = [decoder_flops(ModelConfig(), k) for k in range(1, 6)]
        assert got == [378995712, 381454592, 383913984, 386373888, 388834304]

    def test_plain_decoder_flops(self):
        assert plain_decoder_flops(ModelConfig()) == 260550912

    def test_decoder_cost_needs_a_latent(self):
        with pytest.raises(ConfigError, match="k >= 1"):
            decoder_flops(ModelConfig(), 0)
