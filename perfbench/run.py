"""splitfwi benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload sweep-sim --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it runs timed batches until ``--seconds`` of timed work
and the workload's minimum unit count are both reached, checks every
output, and prints the end-to-end metrics. With ``--trace 1`` it runs a
fixed number of batches untraced, then as many again with every splitfwi
layer wrapped (see tracer.py), and prints the per-layer metrics, the
tracing overhead and the simulated-clock calibration; the spans are
written as Chrome Trace Event JSON under ``.perfbench-out/``.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and the workload's property shares.
"""

import os
import sys

# Pin BLAS before numpy is first imported here or in any child process:
# default OpenBLAS threading spreads sweep throughput ~25% run to run, and
# two edge threads with two BLAS threads each oversubscribe two cores.
BLAS_THREADS = "1"
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
    # Fixed glibc malloc: by default the mmap threshold adapts as large
    # temporaries are freed, so socket throughput climbs ~30% over the
    # first hundred samples, and each thread's arena keeps a different
    # amount, so socket peak RSS spreads ~20% run to run. One arena with
    # fixed thresholds holds both steady (RSS within 1%).
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": str(64 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(128 << 20),
}
if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()) and __name__ == "__main__":
    # glibc reads its malloc settings at start-up, so start again with them
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("sweep-sim", "stream-socket", "gen-physics")
SETUP_REPEATS = 5  # this process plus four fresh interpreters
WALL_CAP_S = 100.0  # stop adding batches after this long, whatever the counts


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the seconds it took, and exit")
    p.add_argument("--check-worker", action="store_true",
                   help="serve stream-socket reference checks on stdin/stdout")
    return p.parse_args(argv)


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _setup_probe(workload: str) -> float:
    """Set-up time of a fresh interpreter, for the setup_s median."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(wl, seed, first_batch, enough, tracer=None):
    """Run batches from `first_batch` until enough(batches) is true."""
    from tracer import instrument
    from workloads import Batch

    batches = []
    b = first_batch
    while not enough(batches):
        inputs = wl.inputs(seed, b)
        inst = instrument(tracer) if tracer is not None else None
        wl.encodes.recording = True
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            if tracer is not None:
                result = tracer.call("bench.batch", "perfbench", wl.run, (inputs,), {}, None)
            else:
                result = wl.run(inputs)
        except Exception as exc:  # a batch that raises counts as failed units
            result = exc
        seconds = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        wl.encodes.recording = False
        if inst is not None:
            inst.restore()
        if isinstance(result, Exception):
            print(f"batch {b} raised {result!r}", file=sys.stderr)
            units = wl.units(inputs)
            batches.append(Batch(units, seconds, cpu, [], failed=units))
        else:
            latencies, rows, outputs = result
            batch = Batch(len(latencies) if latencies is not None else 1, seconds, cpu,
                          latencies if latencies is not None else [seconds], rows)
            batch.failed = wl.check(inputs, outputs)
            batches.append(batch)
        del inputs, result  # keep one batch of inputs alive at a time
        b += 1
    return batches


def _throughput(batches) -> float:
    """Median of the batches' rates: a burst of interference from outside
    the process slows a few batches, not the figure."""
    return statistics.median(b.units / b.seconds for b in batches)


def _percentile(values, pct: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "machine": platform.machine(),
        "socket_link": "loopback TCP on 127.0.0.1 only; no real network link is crossed",
    }


def _properties(wl, batches):
    rows = [r for b in batches for r in b.rows]
    return {
        "model.encode.distinct_share": wl.encodes.distinct_share(),
        "deadline_fired_share": sum(r.deadline_fired for r in rows) / len(rows) if rows else 0.0,
        "late_frames": sum(r.late_frames for r in rows),
        "rows": len(rows),
    }


def _result(batches, metrics):
    attempted = sum(b.units for b in batches)
    failed = sum(b.failed for b in batches)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _untraced(wl, args, setup_s, setup_samples):
    start = time.perf_counter()

    def enough(batches):
        timed = sum(b.seconds for b in batches)
        units = sum(b.units for b in batches)
        if time.perf_counter() - start > WALL_CAP_S:
            return True
        return timed >= args.seconds and units >= wl.min_units

    batches = _measure(wl, args.seed, 0, enough)
    latencies = [x for b in batches for x in b.latencies]
    metrics = {
        "throughput_sps": (_throughput(batches), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (_percentile(latencies, wl.tail_pct), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    result = _result(batches, metrics)
    info = {
        "workload": wl.name, "seed": args.seed, "trace": 0, "unit": wl.unit,
        "latency_samples": len(latencies),
        "tail_percentile": wl.tail_pct,
        "timed_s": sum(b.seconds for b in batches),
        "error_share": result["failed"] / result["attempted"],
        "setup_samples_s": setup_samples,
        "properties": _properties(wl, batches),
        "environment": _environment(),
    }
    return info, result


def _traced(wl, args):
    from layers import per_layer
    from tracer import Tracer

    # Untraced and traced batches alternate, so drift in the machine's
    # speed during the run falls on both sides of the overhead figure.
    tracer = Tracer()
    plain, traced = [], []
    for i in range(wl.trace_batches):
        plain += _measure(wl, args.seed, 2 * i, lambda bs: len(bs) >= 1)
        traced += _measure(wl, args.seed, 2 * i + 1, lambda bs: len(bs) >= 1, tracer=tracer)
    rows = [r for b in traced for r in b.rows]
    cpu_util = sum(b.cpu for b in plain) / sum(b.seconds for b in plain)

    metrics = per_layer(tracer, rows, wl.calibration)
    untraced_sps, traced_sps = _throughput(plain), _throughput(traced)
    metrics["process.cpu_util"] = (cpu_util, "cpu_s/s")
    metrics["trace.untraced_throughput_sps"] = (untraced_sps, "1/s")
    metrics["trace.throughput_sps"] = (traced_sps, "1/s")
    metrics["trace.overhead_share"] = (1.0 - traced_sps / untraced_sps, "share")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    tracer.write_chrome_trace(trace_path)

    for part in ("encode", "central"):
        declared = metrics[f"calib.{part}.declared_ms"][0]
        measured = metrics[f"calib.{part}.measured_ms"][0]
        print(f"calibration {part:8s} declared {declared:9.3f} ms   measured {measured:9.3f} ms")
    result = _result(plain + traced, metrics)
    info = {
        "workload": wl.name, "seed": args.seed, "trace": 1, "unit": wl.unit,
        "units_per_pass": sum(b.units for b in traced),
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "error_share": result["failed"] / result["attempted"],
        "properties": _properties(wl, plain + traced),
        "environment": _environment(),
    }
    return info, result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "splitfwi" / "__init__.py").is_file():
        print(f"perfbench: no splitfwi sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import splitfwi
    import splitfwi.transport  # noqa: F401  (not imported by the package)
    imported = time.perf_counter() - t0
    if Path(splitfwi.__file__).resolve().parent != SRC / "splitfwi":
        print(f"perfbench: imported splitfwi from {splitfwi.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.check_worker:
        workloads.socket_check_worker(sys.stdin, sys.stdout)
        return 0
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    wl = workloads.WORKLOADS[args.workload](tmp)
    try:
        own_setup = imported + wl.setup()
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            info, result = _traced(wl, args)
        else:
            samples = [own_setup] + [_setup_probe(args.workload) for _ in range(SETUP_REPEATS - 1)]
            info, result = _untraced(wl, args, statistics.median(samples), samples)
    finally:
        wl.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
