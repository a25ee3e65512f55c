"""Per-layer metrics derived from the spans of a traced pass.

Totals (`*.self_s`, `*.calls`, counts) cover the traced pass's fixed
units, so two traced runs of one seed do the same work and their counts
must agree exactly. Every metric is reported on every workload; a layer
the workload does not touch reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from splitfwi import runtime

TRANSPORT = "splitfwi.transport"


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _merge(intervals):
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _overlap(a, b) -> float:
    """Length of time covered by both interval sets."""
    a, b = _merge(a), _merge(b)
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        total += max(0.0, hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def per_layer(tracer, rows, calibration) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for one traced pass."""
    selfs = tracer.self_times()
    spans = defaultdict(list)
    for s in tracer.spans:
        spans[s.name].append(s)

    def self_s(name):
        return sum(selfs[s.span_id] for s in spans[name])

    def total(name, key):
        return sum(s.args[key] for s in spans[name])

    def durations(name, site=None):
        return [s.dur for s in spans[name] if site is None or s.site == site]

    m: dict[str, tuple[float, str]] = {}

    conv_self = self_s("numerics.conv2d")
    conv_flops = total("numerics.conv2d", "flops")
    m["numerics.conv2d.calls"] = (len(spans["numerics.conv2d"]), "count")
    m["numerics.conv2d.self_s"] = (conv_self, "s")
    m["numerics.conv2d.gflops"] = (conv_flops / 1e9, "GFLOP")
    m["numerics.conv2d.gflop_per_s"] = (conv_flops / 1e9 / conv_self if conv_self else 0.0, "GFLOP/s")
    m["numerics.conv2d.im2col_mb"] = (total("numerics.conv2d", "im2col_bytes") / 1e6, "MB")
    m["numerics.linear.self_s"] = (self_s("numerics.linear"), "s")
    m["numerics.softmax.self_s"] = (self_s("numerics.softmax"), "s")
    m["numerics.resize.self_s"] = (self_s("numerics.resize"), "s")

    m["model.encode.calls"] = (len(spans["model.encode"]), "count")
    m["model.encode.p50_ms"] = (_p50(durations("model.encode")) * 1e3, "ms")
    keys = [s.args["key"] for s in spans["model.encode"]]
    m["model.encode.distinct_share"] = (len(set(keys)) / len(keys) if keys else 0.0, "share")
    m["model.forward_full.calls"] = (len(spans["model.forward_full"]), "count")
    m["model.fuse.p50_ms"] = (_p50(durations("model.fuse")) * 1e3, "ms")
    m["model.decode.p50_ms"] = (_p50(durations("model.decode")) * 1e3, "ms")
    m["model.cross_attention.self_s"] = (self_s("model.cross_attention"), "s")

    m["netem.transmit_group.calls"] = (len(spans["netem.transmit_group"]), "count")
    m["netem.transmit_group.self_s"] = (self_s("netem.transmit_group"), "s")
    m["netem.retransmissions"] = (total("netem.transmit_group", "retransmissions"), "count")
    m["netem.frame_codec.self_s"] = (self_s("netem.frame_codec"), "s")

    outcomes = [s.args["outcome"] for s in spans["runtime.buffer.insert"]]
    for outcome in ("inserted", "duplicate", "stale"):
        m[f"runtime.buffer.{outcome}"] = (outcomes.count(outcome), "count")
    closes = spans["runtime.buffer.finalize"] + spans["runtime.buffer.collect"]
    m["runtime.timeouts_fired"] = (sum(s.args["released"] for s in closes), "count")
    m["runtime.late_frames"] = (sum(r.late_frames for r in rows), "count")
    m["runtime.deadline_fired_share"] = (
        sum(r.deadline_fired for r in rows) / len(rows) if rows else 0.0, "share")
    m["runtime.pipeline.self_s"] = (self_s("runtime.pipeline"), "s")
    m["runtime.collect_wait_s"] = (_p50(durations("runtime.buffer.collect")), "s")

    edge = [(s.start, s.end) for s in spans["model.encode"] if s.site == TRANSPORT]
    central = [(f.start, d.end) for f, d in zip(
        [s for s in spans["model.fuse"] if s.site == TRANSPORT],
        [s for s in spans["model.decode"] if s.site == TRANSPORT])]
    socket_wall = sum(durations("runtime.pipeline", TRANSPORT))
    m["transport.edge_encode_p50_ms"] = (_p50([e - s for s, e in edge]) * 1e3, "ms")
    m["transport.central_decode_p50_ms"] = (_p50([e - s for s, e in central]) * 1e3, "ms")
    m["transport.read_frame.calls"] = (len(spans["transport.read_frame"]), "count")
    m["transport.wire_bytes"] = (total("transport.read_frame", "wire_bytes"), "bytes")
    m["transport.profile_decoder_s"] = (_p50(durations("runtime.profile_decoder", TRANSPORT)), "s")
    m["transport.overlap_share"] = (
        _overlap(edge, central) / socket_wall if socket_wall else 0.0, "share")

    sim = spans["physics.simulate"]
    sim_time = sum(s.dur for s in sim)
    m["physics.simulate.calls"] = (len(sim), "count")
    m["physics.simulate.p50_s"] = (_p50([s.dur for s in sim]), "s")
    m["physics.cell_updates_per_s"] = (
        total("physics.simulate", "cell_updates") / sim_time if sim_time else 0.0, "1/s")

    for name, metric in (("tensorio.write", "write"), ("tensorio.read", "read")):
        t = sum(durations(name))
        m[f"tensorio.{metric}_mb_per_s"] = (total(name, "bytes") / 1e6 / t if t else 0.0, "MB/s")

    m["metrics.ssim.self_s"] = (self_s("metrics.ssim"), "s")
    m["reporting.write_s"] = (sum(durations("reporting.write")), "s")

    # Declared ComputeModel seconds beside the measured ones (simulated
    # clock calibration): the encode of one slice, and fuse + decode over
    # every device's latent.
    declared_enc = declared_central = measured_enc = measured_central = 0.0
    if calibration is not None:
        cfg, compute, n_t, width = calibration
        n = cfg.n_devices
        declared_enc = runtime.encoder_flops(cfg, n_t, width) / compute.edge_flops_per_s
        declared_central = runtime.decoder_flops(cfg, n) / compute.central_flops_per_s
        measured_enc = _p50([s.dur for s in spans["model.encode"] if s.args["width"] == width])
        measured_central = (
            _p50([s.dur for s in spans["model.fuse"] if s.args["k"] == n])
            + _p50([s.dur for s in spans["model.decode"] if s.args["k"] == n])
        )
    m["calib.encode.declared_ms"] = (declared_enc * 1e3, "ms")
    m["calib.encode.measured_ms"] = (measured_enc * 1e3, "ms")
    m["calib.central.declared_ms"] = (declared_central * 1e3, "ms")
    m["calib.central.measured_ms"] = (measured_central * 1e3, "ms")
    return m
