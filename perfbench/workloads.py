"""The three benchmark workloads: seeded inputs, timed batches, checks.

Each workload runs in batches. `inputs` builds a batch from the seed
(untimed), `run` executes it through the public splitfwi API (timed), and
`check` verifies every output against a reference (untimed). Calls go
through module attributes (``runtime.run_robustness_sweep``), so the
tracer's wrappers see them.

sweep-sim and stream-socket get seeded noise of the paper's shape
[5 shots, 1000 steps, 70 receivers] and seeded truth maps, never physics
output, so a change to physics cannot move their numbers. Why each
workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from splitfwi import model, netem, physics, reporting, runtime, transport
from splitfwi.physics import WaveformRecord
from splitfwi.runtime import PipelineMode

from tracer import Instrumentation, encode_key

WEIGHTS_SEED = 1
WARMUP_SEED = 2**31 - 1  # inputs for warm-up units; no run draws this seed
SHAPE = (5, 1000, 70)  # shots, time steps, receivers


def _rng(seed: int, stream: int, idx: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, idx])


def wave_input(seed: int, idx: int) -> WaveformRecord:
    return WaveformRecord(_rng(seed, 11, idx).standard_normal(SHAPE, dtype=np.float32))


def truth_map(seed: int, idx: int) -> np.ndarray:
    return _rng(seed, 13, idx).uniform(1500.0, 4500.0, size=(SHAPE[2], SHAPE[2])).astype(np.float32)


@dataclass
class Batch:
    """One timed batch and what its checks found."""

    units: int
    seconds: float
    cpu: float  # CPU seconds of this process while the batch ran
    latencies: list[float]
    rows: list = field(default_factory=list)  # SampleResult rows, where the batch has them
    failed: int = 0


class EncodeKeys:
    """Counts distinct encode inputs (`tracer.encode_key`): the share a
    latent cache could reuse.

    Wraps ``encode`` at every splitfwi name bound to it. It records only
    while `recording` is set, so reference checks do not count.
    """

    def __init__(self, inst: Instrumentation):
        self.keys: list[tuple] = []
        self.recording = False
        original = model.encode

        def counted(wave_slice, encoder, *args, **kwargs):
            if self.recording:
                self.keys.append(encode_key(wave_slice, encoder))
            return original(wave_slice, encoder, *args, **kwargs)

        inst.rebind(original, lambda site: counted)

    def distinct_share(self) -> float:
        return len(set(self.keys)) / len(self.keys) if self.keys else 0.0


class Workload:
    name = ""
    unit = ""
    tail_pct = 90.0
    min_units = 100  # so that tail_pct has at least ten units beyond it
    trace_batches = 1  # traced batches (and as many untraced) in a traced run
    calibration = None  # (ModelConfig, ComputeModel, n_t, slice width) or None

    def __init__(self, tmp):
        self.tmp = tmp
        self.probes = Instrumentation()
        self.encodes = EncodeKeys(self.probes)

    def setup(self) -> float:
        """Build weights and run one warm-up batch; return the seconds it
        took, not counting the generation of the warm-up inputs."""
        t0 = time.perf_counter()
        self.build()
        built = time.perf_counter() - t0
        warm = self.inputs(WARMUP_SEED, 0, warmup=True)
        t1 = time.perf_counter()
        self.run(warm)
        return built + time.perf_counter() - t1

    def close(self) -> None:
        self.probes.restore()

    def build(self) -> None:
        pass

    def inputs(self, seed: int, batch: int, warmup: bool = False):
        raise NotImplementedError

    def run(self, inputs) -> tuple[list[float] | None, list, object]:
        """Returns per-unit latencies (None: the batch is one unit), the
        report rows, and the outputs `check` needs."""
        raise NotImplementedError

    def check(self, inputs, outputs) -> int:
        """Number of units whose outputs are wrong."""
        raise NotImplementedError

    def units(self, inputs) -> int:
        """Units a batch of these inputs attempts."""
        return 1


# ---------------------------------------------------------------------------


class SweepSim(Workload):
    """run_robustness_sweep on the simulated clock, one sample per batch."""

    name = "sweep-sim"
    unit = "row"
    modes = (PipelineMode.EPIC, PipelineMode.SLA, PipelineMode.CENTRALIZED, PipelineMode.FLA)
    drop_counts = (0, 1, 2)
    trace_batches = 6

    def build(self):
        cfg = model.ModelConfig(n_devices=5)
        self.weights = model.init_weights(cfg, WEIGHTS_SEED)
        self.fla_weights = model.init_weights(dataclasses.replace(cfg, n_devices=1), WEIGHTS_SEED)
        self.infra = runtime.InfraConfig(
            n_devices=5,
            network=dataclasses.replace(netem.FOUR_G, medium="shared"),
            deadline_s=0.5,
            netem_mode="stochastic",
        )
        self.calibration = (cfg, self.infra.compute, SHAPE[1], SHAPE[2] // 5)
        # The sweep returns reports only; this probe keeps each
        # run_baseline call's maps, row and wall time for the checks.
        self.captured = []
        original = runtime.run_baseline

        def captured(mode, samples, weights, infra, drop_devices=None, ground_truth=None):
            t0 = time.perf_counter()
            maps, report = original(mode, samples, weights, infra,
                                    drop_devices=drop_devices, ground_truth=ground_truth)
            dt = time.perf_counter() - t0
            self.captured.append((mode, len(drop_devices[0]), maps[0], report.rows[0], dt))
            return maps, report

        self.probes.replace(runtime, "run_baseline", captured)

    def inputs(self, seed, batch, warmup=False):
        run_seed = int(np.random.SeedSequence([seed, 17, batch]).generate_state(1)[0])
        infra = dataclasses.replace(self.infra, seed=run_seed)
        drop_counts = (0,) if warmup else self.drop_counts
        return wave_input(seed, batch), truth_map(seed, batch), infra, drop_counts

    def units(self, inputs):
        return len(self.modes) * len(inputs[3])

    def run(self, inputs):
        wave, truth, infra, drop_counts = inputs
        self.captured = []
        reports = runtime.run_robustness_sweep(
            [wave], self.weights, infra, drop_counts, modes=self.modes,
            ground_truth=[truth], fla_weights=self.fla_weights,
        )
        ordered = list(reports.values())
        reporting.write_per_sample_csv(ordered, self.tmp / "bench_samples.csv")
        reporting.write_summary_csv(ordered, self.tmp / "bench_summary.csv")
        reporting.write_report_json(ordered, self.tmp / "bench_report.json")
        captured = self.captured
        return [c[4] for c in captured], [c[3] for c in captured], captured

    def check(self, inputs, outputs):
        wave = inputs[0].data
        w, cfg, part = self.weights, self.weights.config, self.infra.partition
        full = model.forward_full(wave, w, part).values
        latents = [model.encode(wave[:, :, a:b], w.encoders[d], device_id=d)
                   for d, (a, b) in enumerate(part)]
        failed = max(0, self.units(inputs) - len(outputs))
        for mode, k, vmap, row, _ in outputs:
            ok = row.status == "ok" and vmap is not None and np.isfinite(vmap.values).all()
            if ok and k == 0 and mode in (PipelineMode.EPIC, PipelineMode.CENTRALIZED):
                if all(row.mask):
                    ok = np.array_equal(vmap.values, full)
                else:
                    # Retransmissions can push a k = 0 uplink past T - T_d:
                    # the timeout releases the sample and the frame is late.
                    ok = mode == PipelineMode.EPIC and row.deadline_fired and row.late_frames > 0
            if ok and mode == PipelineMode.EPIC:
                lset = model.LatentSet.from_latents(
                    [latents[d] for d, present in enumerate(row.mask) if present], cfg.n_devices)
                ref = model.decode(model.fuse(lset, w.fusion, cfg.n_heads), lset, w).values
                ok = np.array_equal(vmap.values, ref)
            failed += not ok
        with open(self.tmp / "bench_samples.csv") as fh:
            if sum(1 for _ in fh) != 1 + len(outputs):
                failed = len(outputs)
        return failed


class StreamSocket(Workload):
    """run_epic_socket over loopback TCP, closed loop, 25 samples per call.

    Every map is checked against forward_full, which costs more than the
    pipeline itself, so two worker interpreters share the checks. They
    are idle while batches are timed.
    """

    name = "stream-socket"
    unit = "sample"
    batch_size = 25
    tail_pct = 95.0
    min_units = 200
    trace_batches = 6
    check_workers = 2

    def build(self):
        cfg = model.ModelConfig(n_devices=2)
        self.weights = model.init_weights(cfg, WEIGHTS_SEED)
        # T is generous so that no sample times out
        self.infra = runtime.InfraConfig(n_devices=2, deadline_s=30.0, transport="socket")
        self.calibration = (cfg, self.infra.compute, SHAPE[1], SHAPE[2] // 2)
        self.workers = []

    def inputs(self, seed, batch, warmup=False):
        first = batch * self.batch_size
        n = 2 if warmup else self.batch_size
        return seed, first, [wave_input(seed, first + i) for i in range(n)]

    def units(self, inputs):
        return len(inputs[2])

    def run(self, inputs):
        maps, report = transport.run_epic_socket(inputs[2], self.weights, self.infra)
        return [r.l_total_s for r in report.rows], report.rows, list(zip(maps, report.rows))

    def check(self, inputs, outputs):
        if not self.workers:
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--workload", self.name, "--check-worker"]
            self.workers = [subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                             text=True) for _ in range(self.check_workers)]
        seed, first, _ = inputs
        failed = max(0, self.units(inputs) - len(outputs))
        wanted = {}
        for i, (vmap, row) in enumerate(outputs):
            if row.status == "ok" and all(row.mask) and vmap is not None:
                wanted[first + i] = _digest(vmap.values)
            else:
                failed += 1
        jobs = [sorted(wanted)[k::len(self.workers)] for k in range(len(self.workers))]
        for proc, job in zip(self.workers, jobs):
            proc.stdin.write(json.dumps([seed, job]) + "\n")
            proc.stdin.flush()
        for proc, job in zip(self.workers, jobs):
            digests = json.loads(proc.stdout.readline())
            failed += sum(wanted[idx] != d for idx, d in zip(job, digests))
            failed += len(job) - len(digests)
        return failed

    def close(self):
        for proc in getattr(self, "workers", []):
            proc.stdin.close()
        for proc in getattr(self, "workers", []):
            proc.wait(timeout=60)
        super().close()


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def socket_check_worker(lines, out) -> None:
    """Serve StreamSocket.check: for each line ``[seed, [idx, ...]]``,
    write the digests of forward_full's maps for those inputs."""
    cfg = model.ModelConfig(n_devices=2)
    weights = model.init_weights(cfg, WEIGHTS_SEED)
    partition = runtime.partition_receivers(SHAPE[2], cfg.n_devices)
    for line in lines:
        seed, indices = json.loads(line)
        digests = [_digest(model.forward_full(wave_input(seed, i).data, weights, partition).values)
                   for i in indices]
        out.write(json.dumps(digests) + "\n")
        out.flush()


class GenPhysics(Workload):
    """One generated sample per batch, alternating the layered and faulted
    families, then a tensor-file round trip and the energy distribution."""

    name = "gen-physics"
    unit = "sample"
    tail_pct = 80.0
    min_units = 50
    trace_batches = 16
    families = ("layered", "faulted")

    def build(self):
        self.geometry = physics.default_geometry()
        self.groups = runtime.partition_receivers(SHAPE[2], 5)
        self.shots_checked = False

    def inputs(self, seed, batch, warmup=False):
        data_seed = int(np.random.SeedSequence([seed, 19, batch]).generate_state(1)[0])
        return data_seed, self.families[batch % 2]

    def run(self, inputs):
        data_seed, family = inputs
        samples = physics.generate_dataset(data_seed, 1, family, geometry=self.geometry)
        out = self.tmp / "dataset"
        physics.save_dataset(samples, out, seed=data_seed, family=family, geometry=self.geometry)
        loaded, _ = physics.load_dataset(out)
        energy = physics.energy_distribution(loaded[0][1], self.groups)
        return None, [], (samples, loaded, energy)

    def check(self, inputs, outputs):
        samples, loaded, energy = outputs
        (vm, rec), (lvm, lrec) = samples[0], loaded[0]
        ok = (
            len(loaded) == 1
            and np.array_equal(vm.grid, lvm.grid)
            and np.array_equal(rec.data, lrec.data)
            and rec.data.shape == SHAPE
            and np.isfinite(rec.data).all()
            and abs(sum(energy.group_fractions) - 1.0) < 1e-9
        )
        if ok and not self.shots_checked:
            # shots are independent: each equals a one-source simulation
            self.shots_checked = True
            for s, col in enumerate(self.geometry.source_cols):
                one = dataclasses.replace(self.geometry, source_cols=(col,))
                ok = ok and np.array_equal(physics.simulate(vm, one).data[0], rec.data[s])
        return int(not ok)


WORKLOADS = {w.name: w for w in (SweepSim, StreamSocket, GenPhysics)}
