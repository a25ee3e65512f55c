"""Desk-scale 2D acoustic forward modeling.

Second-order leapfrog time stepping with a 5-point Laplacian on a uniform
grid. A 10-cell sponge collar with exponential damping surrounds the
interior and soaks up outgoing waves. Sources and receivers sit on the
surface row; each source fires a Ricker wavelet and every receiver samples
the pressure field once per timestep.

Shots are independent, so `simulate` advances all of them together: the
fields of every shot sit in one flat float64 buffer laid out as
[shot, row, col], a cell's stencil neighbours are the same buffer shifted
by 1 and by the row width, and each step is a fixed series of long
contiguous passes into buffers allocated once. Sources are injected and
receivers gathered through precomputed flat indices. A record is
bit-identical to stepping each shot alone: every cell is computed from
the same operands in the same order, (up + down) + left + right - 4 *
centre, then 2 * cur - prev + coef * lap, then the source, then damping.
The shifted passes also fill the Laplacian on each shot's border ring,
across row and shot boundaries, but that ring has a zero coefficient and
is never a source, so its field stays +0: (2 * +0 - +0) + 0 * lap is +0
for any finite lap, and damping keeps it so.

The module also hosts the root-cause analysis tools built on wave
superposition: differential records that isolate a region of interest by
subtracting a background simulation, and receiver energy distributions
over arbitrary receiver groups. A small seeded generator produces layered
and faulted velocity models paired with their simulated records, which
`save_dataset` stores as tensor files listed in a JSON manifest. The
manifest is read by `jsondoc`, the reader of every JSON document, so a
malformed one raises DatasetError naming its JSON pointer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (
    DatasetError,
    InputValidationError,
    ShapeError,
    SplitFwiError,
    StabilityError,
    ZeroEnergyError,
    int_field,
    real_field,
)
from .jsondoc import fail, fields, get, load, positive, reading, typed
from .model import validate_partition
from .numerics import as_f32
from .tensorio import load_tensor, save_tensor

SPONGE_CELLS = 10
SPONGE_STRENGTH = 0.015
CFL_FACTOR = 0.5
DEFAULT_DT_FACTOR = 0.4
# default_geometry's source count and wavelet peak frequency (Hz)
DEFAULT_SOURCES = 5
DEFAULT_F0 = 15.0
# generate_dataset's velocity range (m/s); its top sets default_geometry's dt
VELOCITY_RANGE = (1500.0, 4500.0)
# the Ricker pulse's delay, in periods of its peak frequency
RICKER_DELAY_PERIODS = 1.5


@dataclass(frozen=True)
class VelocityModel:
    """Subsurface velocity grid in m/s with its cell size in meters."""

    grid: np.ndarray  # [rows, cols] float32
    dx: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "grid", as_f32(self.grid))
        if self.grid.ndim != 2:
            raise ShapeError(f"velocity grid must be 2-D, got {self.grid.shape}")
        real_field("dx", self.dx, InputValidationError, above=0)
        if not np.isfinite(self.grid).all() or (self.grid <= 0).any():
            raise InputValidationError("velocity grid must be finite and positive")


@dataclass(frozen=True)
class AcquisitionGeometry:
    """Surface acquisition: source columns, receiver columns, time sampling."""

    source_cols: tuple[int, ...]
    receiver_cols: tuple[int, ...]
    n_t: int
    dt: float
    f0: float = 15.0
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_t", int_field("n_t", self.n_t, InputValidationError))
        if self.n_t < 1:
            raise InputValidationError(f"n_t must be >= 1, got {self.n_t}")
        for name in ("source_cols", "receiver_cols"):
            object.__setattr__(self, name, tuple(
                int_field(f"{name} entry", c, InputValidationError) for c in getattr(self, name)))
        for name in ("dt", "f0"):
            real_field(name, getattr(self, name), InputValidationError, above=0)
        real_field("amplitude", self.amplitude, InputValidationError)
        if len(self.source_cols) < 1 or len(self.receiver_cols) < 1:
            raise InputValidationError("need at least one source and one receiver")


@dataclass(frozen=True)
class WaveformRecord:
    """Recorded pressure amplitudes [n_src, n_t, n_rcv]."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", as_f32(self.data))
        if self.data.ndim != 3:
            raise ShapeError(f"waveform record must be [n_src, n_t, n_rcv], got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise InputValidationError("waveform record contains non-finite values")


@dataclass(frozen=True)
class EnergyDistribution:
    per_receiver: np.ndarray  # [n_rcv] float64, non-negative
    group_fractions: tuple[float, ...]


def default_geometry(n_receivers: int = 70, n_t: int = 1000, dx: float = 10.0) -> AcquisitionGeometry:
    """DEFAULT_SOURCES sources spread evenly over the surface; one receiver
    per column; a DEFAULT_F0 wavelet.

    dt is tied to the global velocity ceiling (not the per-sample maximum)
    so every generated sample shares one time axis.
    """
    cols = np.round(np.linspace(0, n_receivers - 1, DEFAULT_SOURCES)).astype(int)
    return AcquisitionGeometry(
        source_cols=cols,
        receiver_cols=range(n_receivers),
        n_t=n_t,
        dt=DEFAULT_DT_FACTOR * dx / VELOCITY_RANGE[1],
        f0=DEFAULT_F0,
    )


def ricker_wavelet(f0: float, n_t: int, dt: float) -> np.ndarray:
    """Ricker pulse with peak frequency f0, delayed by RICKER_DELAY_PERIODS
    periods so the onset is ~0."""
    t = np.arange(n_t) * dt - RICKER_DELAY_PERIODS / f0
    a = (np.pi * f0 * t) ** 2
    return ((1.0 - 2.0 * a) * np.exp(-a)).astype(np.float64)


def _sponge_taper(n_padded: int, pad: int) -> np.ndarray:
    taper = np.ones(n_padded, dtype=np.float64)
    ramp = np.exp(-((SPONGE_STRENGTH * np.arange(pad, 0, -1)) ** 2))
    taper[:pad] = ramp
    taper[-pad:] = ramp[::-1]
    return taper


def simulate(vm: VelocityModel, geom: AcquisitionGeometry) -> WaveformRecord:
    """Propagate every source through the model and record the surface row."""
    grid = vm.grid.astype(np.float64)
    rows, cols = grid.shape
    v_max = float(grid.max())
    bound = CFL_FACTOR * vm.dx / v_max
    if geom.dt > bound:
        raise StabilityError(
            f"dt={geom.dt:.6g}s violates the stability bound for v_max={v_max:.6g} m/s; "
            f"require dt <= {bound:.6g}s"
        )
    for c in geom.source_cols + geom.receiver_cols:
        if not 0 <= c < cols:
            raise InputValidationError(f"surface column {c} outside [0, {cols})")

    pad = SPONGE_CELLS
    vp = np.pad(grid, pad, mode="edge")
    coef = (vp * geom.dt / vm.dx) ** 2
    # the border ring's field stays zero (see the module docstring)
    coef[[0, -1]] = coef[:, [0, -1]] = 0.0
    damp = np.outer(_sponge_taper(rows + 2 * pad, pad), _sponge_taper(cols + 2 * pad, pad))
    wavelet = geom.amplitude * ricker_wavelet(geom.f0, geom.n_t, geom.dt) * geom.dt**2

    # one flat [shot, row, col] buffer: stencil neighbours are shifts by 1 and width
    n_src = len(geom.source_cols)
    height, width = vp.shape
    plane = height * width
    size = n_src * plane
    inner = slice(width + 1, size - width - 1)
    up = slice(1, size - 2 * width - 1)
    down = slice(2 * width + 1, size - 1)
    left = slice(width, size - width - 2)
    right = slice(width + 2, size - width)
    shot_base = np.arange(n_src, dtype=np.intp)[:, None] * plane + pad * width + pad
    src_idx = shot_base[:, 0] + np.asarray(geom.source_cols, dtype=np.intp)
    rcv_idx = shot_base + np.asarray(geom.receiver_cols, dtype=np.intp)
    # coef and damp stay one shot's plane, broadcast over the shots, which
    # keeps the step's working set small enough to stay in cache
    shots = (n_src, plane)
    coef, damp = coef.ravel(), damp.ravel()

    prev, cur, lap = np.zeros((3, size))
    nxt = np.empty(size)
    records = np.empty((n_src, geom.n_t, len(geom.receiver_cols)), dtype=np.float32)
    lap_shots = lap.reshape(shots)
    for t in range(geom.n_t):
        # lap = (up + down) + left + right - 4 * centre, staging 4 * centre in nxt
        np.add(cur[up], cur[down], out=lap[inner])
        np.add(lap[inner], cur[left], out=lap[inner])
        np.add(lap[inner], cur[right], out=lap[inner])
        np.multiply(cur[inner], 4.0, out=nxt[inner])
        np.subtract(lap[inner], nxt[inner], out=lap[inner])
        # nxt = 2 * cur - prev + coef * lap, then the sources, then damping
        np.multiply(cur, 2.0, out=nxt)
        np.subtract(nxt, prev, out=nxt)
        np.multiply(coef, lap_shots, out=lap_shots)
        np.add(nxt, lap, out=nxt)
        nxt[src_idx] += wavelet[t]  # one source per shot: distinct indices
        np.multiply(nxt.reshape(shots), damp, out=nxt.reshape(shots))
        np.multiply(cur.reshape(shots), damp, out=cur.reshape(shots))
        records[:, t] = nxt[rcv_idx]
        prev, cur, nxt = cur, nxt, prev
    return WaveformRecord(data=records)


def differential_waveform(
    vm_with_roi: VelocityModel, vm_background: VelocityModel, geom: AcquisitionGeometry
) -> WaveformRecord:
    """Isolate a region's response by superposition: record(roi) - record(bg)."""
    if vm_with_roi.grid.shape != vm_background.grid.shape:
        raise ShapeError(
            f"velocity models differ: {vm_with_roi.grid.shape} vs {vm_background.grid.shape}"
        )
    if vm_with_roi.dx != vm_background.dx:
        raise ShapeError(
            f"grid spacing differs: {vm_with_roi.dx} vs {vm_background.dx}"
        )
    a = simulate(vm_with_roi, geom)
    b = simulate(vm_background, geom)
    return WaveformRecord(data=a.data - b.data)


# rows of the [n_src * n_t, n_rcv] record that energy_distribution squares at a time
_ENERGY_ROWS = 256


def energy_distribution(rec: WaveformRecord, groups) -> EnergyDistribution:
    """Sum squared amplitudes per receiver and fraction them over groups.

    ``groups`` is a sequence of (start, stop) receiver ranges that must
    partition the receiver line, as validate_partition checks.

    The sums run over the [n_src * n_t, n_rcv] rows in blocks of
    _ENERGY_ROWS: each block's rows are squared in float64 below a first
    row that holds the running total, and the block is summed down its
    columns into that row. numpy adds the rows of such a sum one after
    another, as it did over the whole float64 record, so every bit is the
    same and the work memory is one block, whatever n_t is.
    """
    groups = tuple(groups)
    n_rcv = rec.data.shape[2]
    ranges = validate_partition(groups, n_rcv, len(groups))
    rows = rec.data.reshape(-1, n_rcv)
    if n_rcv == 1:
        # one column is one contiguous reduction, which numpy sums
        # pairwise over the whole column, not row after row
        per_receiver = (rows.astype(np.float64) ** 2).sum(axis=0)
    else:
        block = np.zeros((_ENERGY_ROWS + 1, n_rcv))
        for at in range(0, len(rows), _ENERGY_ROWS):
            chunk = rows[at : at + _ENERGY_ROWS]
            part = block[: 1 + len(chunk)]
            part[1:] = chunk
            np.square(part[1:], out=part[1:])
            part.sum(axis=0, out=block[0])
        per_receiver = block[0].copy()
    total = per_receiver.sum()
    if total == 0.0:
        raise ZeroEnergyError("all-zero record: energy fractions are undefined")
    fractions = tuple(float(per_receiver[a:b].sum() / total) for a, b in ranges)
    return EnergyDistribution(per_receiver=per_receiver, group_fractions=fractions)


# ---------------------------------------------------------------------------
# synthetic model families


def _layered_profile(rng: np.random.Generator, rows: int, v_lo: float, v_hi: float) -> np.ndarray:
    n_layers = int(rng.integers(2, 6))
    cuts = np.sort(rng.choice(np.arange(4, rows - 4), size=n_layers - 1, replace=False))
    velocities = rng.uniform(v_lo, v_hi, size=n_layers)
    profile = np.empty(rows, dtype=np.float64)
    start = 0
    for i, edge in enumerate(list(cuts) + [rows]):
        profile[start:edge] = velocities[i]
        start = edge
    return profile


def _make_model(rng: np.random.Generator, family: str, rows: int, cols: int,
                v_lo: float, v_hi: float, dx: float) -> VelocityModel:
    profile = _layered_profile(rng, rows, v_lo, v_hi)
    grid = np.tile(profile[:, None], (1, cols))
    if family == "faulted":
        fault_col = int(rng.integers(cols // 4, 3 * cols // 4))
        drift = float(rng.uniform(-1.5, 1.5))
        throw = int(rng.integers(3, 10))
        rr = np.arange(rows)[:, None]
        cc = np.arange(cols)[None, :]
        displaced = cc > fault_col + drift * rr
        shifted_profile = profile[np.clip(np.arange(rows) - throw, 0, rows - 1)]
        grid = np.where(displaced, shifted_profile[:, None], grid)
    return VelocityModel(grid=grid.astype(np.float32), dx=dx)


def generate_dataset(
    seed: int,
    n_samples: int,
    family: str = "layered",
    rows: int = 70,
    cols: int = 70,
    geometry: AcquisitionGeometry | None = None,
    dx: float = 10.0,
) -> list[tuple[VelocityModel, WaveformRecord]]:
    """Seeded synthetic (velocity model, record) pairs.

    ``layered`` draws 2-5 horizontal layers with random velocities;
    ``faulted`` adds one dipping displacement. The same seed always yields
    bit-identical samples.
    """
    if seed < 0:
        raise InputValidationError(f"seed must be >= 0, got {seed}")
    if n_samples < 1:
        raise InputValidationError(f"n_samples must be >= 1, got {n_samples}")
    if family not in ("layered", "faulted"):
        raise InputValidationError(f"unknown family {family!r}")
    if geometry is None:
        geometry = default_geometry(n_receivers=cols, dx=dx)
    samples = []
    for idx in range(n_samples):
        rng = np.random.default_rng([seed, idx])
        vm = _make_model(rng, family, rows, cols, *VELOCITY_RANGE, dx)
        samples.append((vm, simulate(vm, geometry)))
    return samples


# ---------------------------------------------------------------------------
# dataset files


def save_dataset(samples, out_dir, *, seed: int, family: str, geometry: AcquisitionGeometry) -> Path:
    """Write one tensor file per velocity map and per record, plus a
    manifest that records the grid spacing the velocity maps share."""
    spacings = sorted({vm.dx for vm, _ in samples})
    if len(spacings) != 1:
        raise InputValidationError(f"samples must share one grid spacing dx, got {spacings}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for i, (vm, rec) in enumerate(samples):
        v_name = f"sample_{i:04d}_velocity.tnsr"
        w_name = f"sample_{i:04d}_waveform.tnsr"
        save_tensor(vm.grid, out / v_name)
        save_tensor(rec.data, out / w_name)
        files.append({"velocity": v_name, "waveform": w_name})
    manifest = {
        "seed": seed,
        "family": family,
        "n_samples": len(samples),
        "dx": spacings[0],
        "geometry": {
            "source_cols": list(geometry.source_cols),
            "receiver_cols": list(geometry.receiver_cols),
            "n_t": geometry.n_t,
            "dt": geometry.dt,
            "f0": geometry.f0,
            "amplitude": geometry.amplitude,
        },
        "files": files,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out / "manifest.json"


def load_dataset(in_dir) -> tuple[list[tuple[VelocityModel, WaveformRecord]], dict]:
    """Read a dataset written by save_dataset.

    The whole manifest is checked before any tensor file is read. A
    malformed manifest, or a tensor file that does not load as its sample,
    raises DatasetError naming the manifest and the JSON pointer of the
    offending field; a missing file raises OSError.
    """
    root = Path(in_dir)
    path = root / "manifest.json"

    def tensor(pointer: str, name: str, build):
        try:
            return build(load_tensor(root / name))
        # a name holding a NUL byte raises ValueError, not OSError
        except (SplitFwiError, ValueError) as exc:
            fail(pointer, f"{name}: {exc}")

    with reading(DatasetError):
        manifest = load(path, "manifest")
    with reading(DatasetError, f"manifest {path}: "):
        typed("", manifest, dict)
        dx = positive("/dx", get(manifest, "", "dx", float, 10.0))
        files = [fields(typed(f"/files/{i}", entry, dict), f"/files/{i}",
                        {"velocity": str, "waveform": str}, {})
                 for i, entry in enumerate(get(manifest, "", "files", list))]
        n_samples = get(manifest, "", "n_samples", int)
        if n_samples != len(files):
            fail("/n_samples", f"says {n_samples} samples, but files lists {len(files)}")
        samples = []
        for i, entry in enumerate(files):
            vm = tensor(f"/files/{i}/velocity", entry["velocity"], partial(VelocityModel, dx=dx))
            rec = tensor(f"/files/{i}/waveform", entry["waveform"], WaveformRecord)
            samples.append((vm, rec))
    return samples, manifest
