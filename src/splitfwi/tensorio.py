"""Binary tensor serialization.

File layout (little-endian throughout): 8-byte magic ``EPICTNSR``, version
u8 (=1), dtype code u8 (0 = float32), ndim u8 (at least 1), one u32
extent per dimension, the raw float32 payload in row-major order, and a
trailing u32 CRC32 over all preceding bytes.

One writer, `write_tensor`, streams a record to a binary file object:
the header, then the array's own buffer, with the CRC computed as the
bytes go out. A float32 C-order array is written without a copy, so
`save_tensor` allocates only the header, whatever the payload size.
`tensor_to_bytes` runs the same writer into a BytesIO.
"""

from __future__ import annotations

import io
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CorruptFileError, ShapeError

MAGIC = b"EPICTNSR"
VERSION = 1
DTYPE_F32 = 0

_HEAD = struct.Struct("<BBB")
_CRC = struct.Struct("<I")


class Crc32Writer:
    """Pass writes through to a binary file object, keeping the CRC32 of
    every byte written; `seal` appends that CRC as a u32."""

    def __init__(self, f):
        self.f = f
        self.crc = 0

    def write(self, data) -> None:
        self.f.write(data)
        self.crc = zlib.crc32(data, self.crc)

    def seal(self) -> None:
        self.write(_CRC.pack(self.crc))


def record_array(x) -> np.ndarray:
    """x as the little-endian float32 C-order array a record holds, or
    ShapeError if no record can hold it. Makes no copy of a float32
    C-order array."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim < 1:
        raise ShapeError("tensor records need at least one dimension")
    if x.ndim > 255:
        raise ShapeError(f"tensor rank {x.ndim} exceeds the format limit of 255")
    if any(d < 1 for d in x.shape):
        raise ShapeError(f"tensor extents must be positive, got {x.shape}")
    return np.ascontiguousarray(x, "<f4")


def write_tensor(f, x) -> None:
    """Stream one tensor record of x to the binary file object f."""
    x = record_array(x)
    out = Crc32Writer(f)
    out.write(MAGIC + _HEAD.pack(VERSION, DTYPE_F32, x.ndim)
              + struct.pack(f"<{x.ndim}I", *x.shape))
    out.write(x.data)
    out.seal()


def tensor_to_bytes(x: np.ndarray) -> bytes:
    """Serialize a float32 array to the binary record format."""
    buf = io.BytesIO()
    write_tensor(buf, x)
    return buf.getvalue()


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Parse one tensor record; returns (array, offset past the record)."""
    view = memoryview(buf)
    n = len(view)
    if n - offset < len(MAGIC) + _HEAD.size + _CRC.size:
        raise CorruptFileError("tensor record truncated: header does not fit")
    if bytes(view[offset : offset + 8]) != MAGIC:
        raise CorruptFileError("bad tensor magic")
    version, dtype, ndim = _HEAD.unpack_from(view, offset + 8)
    if version != VERSION:
        raise CorruptFileError(f"unsupported tensor format version {version}")
    if dtype != DTYPE_F32:
        raise CorruptFileError(f"unsupported tensor dtype code {dtype}")
    if ndim == 0:
        raise CorruptFileError("tensor record has rank 0; records need at least one dimension")
    pos = offset + 8 + _HEAD.size
    if n - pos < 4 * ndim:
        raise CorruptFileError("tensor record truncated: extents do not fit")
    dims = struct.unpack_from(f"<{ndim}I", view, pos)
    pos += 4 * ndim
    if any(d < 1 for d in dims):
        raise CorruptFileError(f"invalid tensor extents {dims}")
    count = 1
    for d in dims:
        count *= d
    payload_end = pos + 4 * count
    if n - payload_end < _CRC.size:
        raise CorruptFileError("tensor record truncated: payload does not fit")
    (stored_crc,) = _CRC.unpack_from(view, payload_end)
    actual_crc = zlib.crc32(view[offset:payload_end]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CorruptFileError(
            f"tensor CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )
    data = np.frombuffer(view[pos:payload_end], dtype="<f4").reshape(dims)
    return np.ascontiguousarray(data, dtype=np.float32), payload_end + _CRC.size


def save_tensor(x: np.ndarray, path) -> None:
    """Write one tensor record to path. x is checked before the file is
    opened, so an array that no record can hold leaves no file."""
    x = record_array(x)
    with open(path, "wb") as f:
        write_tensor(f, x)


def load_tensor(path) -> np.ndarray:
    """Read a file of one tensor record; every CorruptFileError names the path.

    The format checks structure, not values: a NaN or infinite payload
    round-trips as written. Readers that need finite values check them;
    weights_from_bytes and load_dataset reject non-finite ones.
    """
    buf = Path(path).read_bytes()
    try:
        arr, end = tensor_from_bytes(buf)
        if end != len(buf):
            raise CorruptFileError("trailing bytes after tensor record")
    except CorruptFileError as exc:
        raise CorruptFileError(f"{path}: {exc}") from exc
    return arr
