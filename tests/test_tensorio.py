import re
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import resealed_tensor_edit, sealed
from splitfwi.errors import CorruptFileError, ShapeError
from splitfwi.tensorio import (
    MAGIC,
    load_tensor,
    save_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
)


def test_round_trip(tmp_path, rng):
    x = rng.normal(size=(3, 4, 5)).astype(np.float32)
    path = tmp_path / "t.tnsr"
    save_tensor(x, path)
    got = load_tensor(path)
    np.testing.assert_array_equal(got, x)


def test_record_layout_size(rng):
    x = rng.normal(size=(2, 3)).astype(np.float32)
    blob = tensor_to_bytes(x)
    # magic 8 + version/dtype/ndim 3 + extents 8 + payload 24 + crc 4
    assert len(blob) == 8 + 3 + 2 * 4 + 6 * 4 + 4


def test_truncated_rejected(rng):
    blob = tensor_to_bytes(rng.normal(size=(4,)).astype(np.float32))
    with pytest.raises(CorruptFileError, match="truncated"):
        tensor_from_bytes(blob[:10])
    with pytest.raises(CorruptFileError):
        tensor_from_bytes(blob[:-1])


def test_bad_magic_rejected():
    blob = bytearray(tensor_to_bytes(np.zeros(2, np.float32)))
    blob[0] ^= 0xFF
    with pytest.raises(CorruptFileError, match="magic"):
        tensor_from_bytes(bytes(blob))


def test_scalar_rejected():
    with pytest.raises(ShapeError):
        tensor_to_bytes(np.float32(1.0))


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_single_bit_flip_detected(flip_seed):
    rng = np.random.default_rng(flip_seed)
    x = rng.normal(size=(5, 7)).astype(np.float32)
    blob = bytearray(tensor_to_bytes(x))
    bit = int(rng.integers(0, len(blob) * 8))
    blob[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(CorruptFileError):
        tensor_from_bytes(bytes(blob))


def test_trailing_bytes_rejected(tmp_path, rng):
    x = rng.normal(size=(2, 2)).astype(np.float32)
    path = tmp_path / "t.tnsr"
    path.write_bytes(tensor_to_bytes(x) + b"\x00")
    with pytest.raises(CorruptFileError, match="trailing"):
        load_tensor(path)


def test_load_tensor_errors_name_the_path(tmp_path, rng):
    blob = tensor_to_bytes(rng.normal(size=(3, 4)).astype(np.float32))
    path = tmp_path / "t.tnsr"
    for bad in (blob[:-5], blob[:10], blob + b"\x00"):
        path.write_bytes(bad)
        with pytest.raises(CorruptFileError, match=f"^{re.escape(str(path))}: "):
            load_tensor(path)


def test_non_finite_payload_round_trips(tmp_path):
    x = np.array([np.nan, np.inf, -np.inf, -0.0], dtype=np.float32)
    path = tmp_path / "t.tnsr"
    save_tensor(x, path)
    np.testing.assert_array_equal(load_tensor(path), x)


@st.composite
def _resealed_records(draw):
    """A record of a drawn shape with one drawn edit, CRC re-sealed."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    x = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
    return resealed_tensor_edit(draw, tensor_to_bytes(x))


# a CRC-valid rank-0 record: one float32 and no extents
RANK_0 = sealed(MAGIC + bytes([1, 0, 0]) + struct.pack("<f", 1.0))


@given(blob=_resealed_records())
@example(blob=RANK_0)
@settings(max_examples=200, deadline=None)
def test_resealed_edits_load_exactly_or_fail_typed(blob):
    t0 = time.perf_counter()
    try:
        arr, _ = tensor_from_bytes(blob)
    except CorruptFileError:
        pass
    else:
        assert tensor_to_bytes(arr) == blob
    assert time.perf_counter() - t0 < 1.0
