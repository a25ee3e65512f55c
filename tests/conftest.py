import copy
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import strategies as st

from splitfwi.errors import SplitFwiError
from splitfwi.model import LatentSet, LatentVector, ModelConfig, init_weights
from splitfwi.tensorio import MAGIC

# Small architecture for unit tests; full defaults are exercised in
# test_acceptance.py.
TINY = ModelConfig(
    n_devices=3,
    latent_dim=16,
    d_k=8,
    d_pos=6,
    n_heads=1,
    encoder_channels=(5, 6, 8, 16),
    decoder_channels=(12, 10, 8, 8, 6),
)


@pytest.fixture(scope="session")
def tiny_config():
    return TINY


@pytest.fixture(scope="session")
def tiny_weights():
    return init_weights(TINY, seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_latents(config, seed=5, device_ids=None, sample_id=0):
    """Seeded random LatentSet over the given devices."""
    if device_ids is None:
        device_ids = range(config.n_devices)
    rng = np.random.default_rng(seed)
    lset = LatentSet(config.n_devices)
    for d in device_ids:
        vals = rng.normal(size=config.latent_dim).astype(np.float32)
        lset.add(LatentVector(values=vals, device_id=d, sample_id=sample_id))
    return lset


@pytest.fixture
def tiny_latents(tiny_config):
    return make_latents(tiny_config)


# Any JSON value, for fuzzing the documents splitfwi reads: each is
# placed at one site of a valid document with put().
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def put(doc, site, value):
    """A copy of doc with value at site, a path of keys and list indices."""
    doc = copy.deepcopy(doc)
    target = doc
    for step in site[:-1]:
        target = target[step]
    target[site[-1]] = value
    return doc


def reads_or_points(read, error, doc, prefix=""):
    """read(doc) either returns, or raises exactly error with a message
    that names a JSON pointer after prefix."""
    try:
        read(doc)
    except SplitFwiError as exc:
        assert type(exc) is error, repr(exc)
        assert str(exc).startswith(prefix + "/"), str(exc)


def sealed(body):
    """body followed by its CRC32, as every binary record ends."""
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def resealed_tensor_edit(draw, record):
    """A tensor record with one drawn edit, CRC re-sealed: byte flips, a
    truncation, or the version, dtype, ndim or one extent field."""
    body = bytearray(record[:-4])
    head = len(MAGIC)  # version, dtype and ndim bytes follow the magic
    kind = draw(st.sampled_from(["flip", "truncate", "version", "dtype", "ndim", "extent"]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            body[draw(st.integers(0, len(body) - 1))] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del body[draw(st.integers(0, len(body) - 1)):]
    elif kind == "extent":
        at = head + 3 + 4 * draw(st.integers(0, body[head + 2] - 1))
        struct.pack_into("<I", body, at, draw(st.integers(0, 2**32 - 1)))
    else:
        body[head + ("version", "dtype", "ndim").index(kind)] = draw(st.integers(0, 255))
    return sealed(bytes(body))


def traced_peak(fn) -> int:
    """The most bytes that fn()'s own allocations held at once, after a
    warm-up call; what was allocated before the call does not count."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
