"""Check the tracemalloc peaks of fixed stages against scripts/traced_peaks.json.

    python3 scripts/check_peaks.py
    python3 scripts/check_peaks.py --record "why the peaks moved"

Each stage runs once to warm up, then once under tracemalloc, with BLAS
at one thread. Its peak is the most bytes that the stage's own Python
and numpy allocations held at once, its result included; memory that
was allocated before the stage, such as its inputs, does not count. The
model stages and one simulated EPIC sample (every device's encode, then
fuse and decode) also list their declared flops, so work and memory move
together in one file. One sweep-sim batch, a robustness sweep of the
same sample over every mode and k in {0, 1, 2}, pins what the sweep's
shared results (latents, map spans, central maps and the SSIM reference)
hold at once.

The check compares every peak with the file's last entry and exits 1,
naming each stage, if one rose by more than SLACK_BYTES, or if a stage or
a flop count differs. A change that raises a peak records a new entry
with ``--record`` and gives the reason in CHANGES.md; a peak that falls
only prints a note. Peaks include numpy's own temporaries, so they are
compared only under the Python and numpy versions that the last entry
was recorded with; under others the check prints that it was skipped and
exits 0.
"""

from __future__ import annotations

import os

# before numpy loads BLAS: a BLAS thread pool allocates per thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from splitfwi import model, netem, physics, runtime, tensorio  # noqa: E402

PEAKS = Path(__file__).resolve().parent / "traced_peaks.json"
SLACK_BYTES = 4096  # a peak may rise this much above its entry
SHAPE = (5, 1000, 70)  # one full-size record: [n_src, n_t, n_rcv]
N_DEVICES = 5


def traced_peak(stage) -> int:
    """Bytes that stage() held at most, counted after one warm-up call."""
    stage()
    tracemalloc.start()
    try:
        stage()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(tmp: Path) -> dict[str, dict[str, int]]:
    cfg = model.ModelConfig(n_devices=N_DEVICES)
    weights = model.init_weights(cfg, 1)
    partition = runtime.partition_receivers(SHAPE[2], N_DEVICES)
    wave = np.random.default_rng(7).normal(size=SHAPE).astype(np.float32)
    a, b = partition[0]
    slice0 = np.ascontiguousarray(wave[:, :, a:b])
    latents = [model.encode(wave[:, :, lo:hi], weights.encoders[d], device_id=d)
               for d, (lo, hi) in enumerate(partition)]
    # velocity rising with depth; simulate's cost does not depend on the values
    vm = physics.VelocityModel(np.linspace(1500, 4500, 70, dtype=np.float32)[:, None].repeat(70, 1))
    geom = physics.default_geometry()
    record = physics.WaveformRecord(wave)
    infra = runtime.InfraConfig(n_devices=N_DEVICES)
    # perfbench's sweep-sim batch: stochastic 4G on a shared medium
    fla_weights = model.init_weights(dataclasses.replace(cfg, n_devices=1), 1)
    sweep_infra = runtime.InfraConfig(
        n_devices=N_DEVICES, network=dataclasses.replace(netem.FOUR_G, medium="shared"),
        netem_mode="stochastic")
    tensor_file, weight_file = tmp / "record.tnsr", tmp / "weights.bin"
    model.save_weights(weights, weight_file)

    def fuse_decode():
        lset = model.LatentSet.from_latents(latents, N_DEVICES)
        return model.decode(model.fuse(lset, weights.fusion, cfg.n_heads), lset, weights)

    def round_trip():
        tensorio.save_tensor(wave, tensor_file)
        return tensorio.load_tensor(tensor_file)

    stages = {
        "model.encode": (lambda: model.encode(slice0, weights.encoders[0]),
                         model.encoder_flops(cfg, SHAPE[1], b - a)),
        "model.fuse_decode": (fuse_decode, model.decoder_flops(cfg, N_DEVICES)),
        "runtime.epic_sample": (
            lambda: runtime.run_epic([wave], weights, infra),
            N_DEVICES * model.encoder_flops(cfg, SHAPE[1], b - a)
            + model.decoder_flops(cfg, N_DEVICES)),
        "runtime.sweep_batch": (
            lambda: runtime.run_robustness_sweep(
                [wave], weights, sweep_infra, (0, 1, 2), modes=tuple(runtime.PipelineMode),
                ground_truth=[vm.grid], fla_weights=fla_weights), None),
        "physics.simulate": (lambda: physics.simulate(vm, geom), None),
        "tensorio.save_load": (round_trip, None),
        "physics.energy_distribution": (
            lambda: physics.energy_distribution(record, partition), None),
        "model.init_weights": (lambda: model.init_weights(cfg, 1), None),
        "model.save_weights": (lambda: model.save_weights(weights, weight_file), None),
        "model.load_weights": (lambda: model.load_weights(weight_file), None),
    }
    out = {}
    for name, (stage, flops) in stages.items():
        out[name] = {"peak_bytes": traced_peak(stage)}
        if flops is not None:
            out[name]["flops"] = flops
    return out


def differences(got: dict, want: dict) -> tuple[list[str], list[str]]:
    """(failures, notes) of measured stages against a recorded entry."""
    bad, notes = [], []
    for name in sorted(want.keys() | got.keys()):
        if name not in got or name not in want:
            bad.append(f"{name}: recorded in only one of the file and this run")
            continue
        g, w = got[name], want[name]
        if g.get("flops") != w.get("flops"):
            bad.append(f"{name}: declared flops {g.get('flops')}, recorded {w.get('flops')}")
        rise = g["peak_bytes"] - w["peak_bytes"]
        if rise > SLACK_BYTES:
            bad.append(f"{name}: peak {g['peak_bytes']} B rose {rise} B above the recorded "
                       f"{w['peak_bytes']} B (slack {SLACK_BYTES} B)")
        elif rise < -SLACK_BYTES:
            notes.append(f"{name}: peak {g['peak_bytes']} B fell {-rise} B below the recorded "
                         f"{w['peak_bytes']} B")
    return bad, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--record", metavar="REASON",
                   help="append this run's peaks to the file as a new entry, with its reason")
    args = p.parse_args(argv)
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    # only --record may start a file; a check needs the committed one
    entries = json.loads(PEAKS.read_text())["entries"] if PEAKS.exists() or not args.record else []
    if not args.record:
        if not entries:
            print(f"{PEAKS.name} has no entry; record one with --record", file=sys.stderr)
            return 1
        recorded = {key: entries[-1][key] for key in versions}
        if recorded != versions:
            print(f"skipped: the last entry was recorded with Python {recorded['python']}, "
                  f"numpy {recorded['numpy']}; this is Python {versions['python']}, "
                  f"numpy {versions['numpy']}")
            return 0
    with tempfile.TemporaryDirectory() as tmp:
        got = measure(Path(tmp))
    for name, stage in got.items():
        print(f"{name}: {stage}")
    if args.record:
        entries.append({"reason": args.record, **versions, "stages": got})
        PEAKS.write_text(json.dumps({"entries": entries}, indent=2) + "\n")
        print(f"recorded a new entry in {PEAKS.name}")
        return 0
    bad, notes = differences(got, entries[-1]["stages"])
    for line in notes:
        print(f"note: {line}")
    for line in bad:
        print(line, file=sys.stderr)
    if not bad:
        print(f"every peak is within {SLACK_BYTES} B of {PEAKS.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
