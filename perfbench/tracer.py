"""In-memory span recorder and the wrappers that feed it.

A span is (name, site, start, end, thread, span id, parent id, sample id,
args). The parent comes from a thread-local stack, so spans opened in the
edge and reader threads of the socket transport nest under their own
thread's spans, never under the dispatcher's. Spans stay in memory until
the run ends and are then written as Chrome Trace Event JSON.

`instrument` wraps the public functions of splitfwi at every name a
module has bound them under (``splitfwi.model.conv2d`` as well as
``splitfwi.numerics.conv2d``), so each call is recorded with the module
that made it. No file of the program changes; `Instrumentation.restore`
puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

from splitfwi.netem import FRAME_OVERHEAD
from splitfwi.physics import SPONGE_CELLS


@dataclass
class Span:
    name: str
    site: str
    start: float
    end: float
    tid: int
    span_id: int
    parent_id: int | None
    sample_id: int | None
    args: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; `self_times` subtracts direct children."""

    def __init__(self):
        self.spans: list[Span] = []
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, site: str, fn, args, kwargs, describe):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        sample_id, extra = describe(args, kwargs, result) if describe else (None, {})
        self.spans.append(
            Span(name, site, start, end, threading.get_ident(), span_id, parent, sample_id, extra)
        )
        return result

    def self_times(self) -> dict[int, float]:
        """span_id -> duration minus the durations of its direct children."""
        child_total: dict[int, float] = {}
        for s in self.spans:
            if s.parent_id is not None:
                child_total[s.parent_id] = child_total.get(s.parent_id, 0.0) + s.dur
        return {s.span_id: s.dur - child_total.get(s.span_id, 0.0) for s in self.spans}

    def write_chrome_trace(self, path) -> None:
        """Chrome Trace Event JSON ("X" complete events, microseconds)."""
        tids: dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(s.tid, len(tids) + 1)
            args = {"span_id": s.span_id, "parent_id": s.parent_id, "site": s.site}
            if s.sample_id is not None:
                args["sample_id"] = s.sample_id
            args.update({k: v for k, v in s.args.items() if isinstance(v, (int, float, str, bool))})
            events.append({
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((s.start - self.origin) * 1e6, 3),
                "dur": round(s.dur * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# ---------------------------------------------------------------------------
# what each wrapped call records besides its timing


def _kw(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _conv2d(args, kwargs, result):
    x, kernel = args[0], args[1]
    stride = _kw(args, kwargs, 3, "stride", (1, 1))
    padding = _kw(args, kwargs, 4, "padding", (0, 0))
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    out_h = (h + 2 * padding[0] - kh) // stride[0] + 1
    out_w = (w + 2 * padding[1] - kw) // stride[1] + 1
    k = c_in * kh * kw
    return None, {
        "flops": 2 * out_h * out_w * c_out * k,
        "im2col_bytes": out_h * out_w * k * 8,  # float64 window matrix
    }


def encode_key(wave_slice, encoder) -> tuple:
    """Identity of an encode input: the encoder's weights plus a digest of
    every 16th time step of the slice. Seeded noise never agrees on all
    sampled entries, and equal slices (the zero-filled columns of a
    dropped device) always do."""
    x = wave_slice
    return id(encoder[0].kernel), x.shape, hash(x[:, ::16, :].tobytes())


def _encode(args, kwargs, result):
    x, encoder = args[0], _kw(args, kwargs, 1, "encoder")
    return _kw(args, kwargs, 3, "sample_id", 0), {
        "width": int(x.shape[2]), "key": encode_key(x, encoder)}


def _fuse(args, kwargs, result):
    return None, {"k": len(args[0])}


def _decode(args, kwargs, result):
    return None, {"k": len(args[1])}


def _sample_arg(pos):
    def describe(args, kwargs, result):
        return _kw(args, kwargs, pos, "sample_id"), {}
    return describe


def _insert(args, kwargs, result):
    return args[1], {"outcome": result.value}


def _released(args, kwargs, result):
    return args[1], {"released": bool(result[-1])}


def _transmit_group(args, kwargs, result):
    return None, {"retransmissions": sum(u.retransmissions for u in result)}


def _read_frame(args, kwargs, result):
    if result is None:
        return None, {"wire_bytes": 0}
    return result.sample_id, {"wire_bytes": len(result.payload) + FRAME_OVERHEAD}


def _latent_arg(args, kwargs, result):
    return args[0].sample_id, {}


def _simulate(args, kwargs, result):
    vm, geom = args[0], args[1]
    rows, cols = vm.grid.shape
    cells = (rows + 2 * SPONGE_CELLS) * (cols + 2 * SPONGE_CELLS)
    return None, {"cell_updates": cells * geom.n_t * len(geom.source_cols)}


def _tensor_file(pos):
    def describe(args, kwargs, result):
        return None, {"bytes": os.path.getsize(args[pos])}
    return describe


# (module, attribute, span name, describe). Names are the layer and the
# function; the binding module that made the call is the span's site.
TARGETS = [
    ("splitfwi.numerics", "conv2d", "numerics.conv2d", _conv2d),
    ("splitfwi.numerics", "linear", "numerics.linear", None),
    ("splitfwi.numerics", "softmax", "numerics.softmax", None),
    ("splitfwi.numerics", "bilinear_resize", "numerics.resize", None),
    ("splitfwi.numerics", "nearest_resize", "numerics.resize", None),
    ("splitfwi.model", "encode", "model.encode", _encode),
    ("splitfwi.model", "fuse", "model.fuse", _fuse),
    ("splitfwi.model", "decode", "model.decode", _decode),
    ("splitfwi.model", "decode_without_attention", "model.decode_plain", None),
    ("splitfwi.model", "cross_attention", "model.cross_attention", None),
    ("splitfwi.model", "forward_full", "model.forward_full", None),
    ("splitfwi.netem", "transmit_group", "netem.transmit_group", _transmit_group),
    ("splitfwi.netem", "frame_encode", "netem.frame_codec", _sample_arg(1)),
    ("splitfwi.netem", "frame_decode", "netem.frame_codec", None),
    ("splitfwi.transport", "latent_to_frame", "netem.frame_codec", _latent_arg),
    ("splitfwi.transport", "latent_from_frame", "netem.frame_codec", _latent_arg),
    ("splitfwi.transport", "read_frame", "transport.read_frame", _read_frame),
    ("splitfwi.transport", "send_frame", "transport.send_frame", None),
    ("splitfwi.transport", "run_epic_socket", "runtime.pipeline", None),
    ("splitfwi.runtime", "run_robustness_sweep", "runtime.pipeline", None),
    ("splitfwi.runtime", "run_baseline", "runtime.pipeline", None),
    ("splitfwi.runtime", "run_epic", "runtime.pipeline", None),
    ("splitfwi.runtime", "profile_decoder", "runtime.profile_decoder", None),
    ("splitfwi.runtime", "HashBuffer.insert", "runtime.buffer.insert", _insert),
    ("splitfwi.runtime", "HashBuffer.finalize", "runtime.buffer.finalize", _released),
    ("splitfwi.runtime", "HashBuffer.collect_blocking", "runtime.buffer.collect", _released),
    ("splitfwi.physics", "simulate", "physics.simulate", _simulate),
    ("splitfwi.physics", "generate_dataset", "physics.generate_dataset", None),
    ("splitfwi.physics", "save_dataset", "physics.save_dataset", None),
    ("splitfwi.physics", "load_dataset", "physics.load_dataset", None),
    ("splitfwi.physics", "energy_distribution", "physics.energy_distribution", None),
    ("splitfwi.tensorio", "save_tensor", "tensorio.write", _tensor_file(1)),
    ("splitfwi.tensorio", "load_tensor", "tensorio.read", _tensor_file(0)),
    ("splitfwi.metrics", "ssim", "metrics.ssim", None),
    ("splitfwi.reporting", "write_per_sample_csv", "reporting.write", None),
    ("splitfwi.reporting", "write_summary_csv", "reporting.write", None),
    ("splitfwi.reporting", "write_report_json", "reporting.write", None),
]


def _wrap(tracer: Tracer, fn, name: str, site: str, describe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, site, fn, args, kwargs, describe)
    return wrapper


def _wrap_method(tracer: Tracer, fn, name: str, site: str, describe):
    # describe() sees the arguments without self, like a plain function
    def strip_self(args, kwargs, result):
        return describe(args, kwargs, result) if describe else (None, {})

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        return tracer.call(name, site, lambda *a, **k: fn(self, *a, **k), args, kwargs, strip_self)
    return wrapper


class Instrumentation:
    """Every binding replaced by `instrument`, so it can be put back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def rebind(self, fn, make) -> None:
        """Replace every splitfwi module attribute bound to `fn` with
        make(name of the module that binds it)."""
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == "splitfwi" or name.startswith("splitfwi.")):
                continue
            for bound, value in list(vars(mod).items()):
                if value is fn:
                    self.replace(mod, bound, make(name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every TARGETS function at each splitfwi name bound to it."""
    inst = Instrumentation()
    for mod_name, attr, span_name, describe in TARGETS:
        home = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            fn = cls.__dict__[meth]
            inst.replace(cls, meth, _wrap_method(tracer, fn, span_name, mod_name, describe))
            continue
        fn = getattr(home, attr)
        inst.rebind(fn, lambda site, fn=fn, name=span_name, d=describe: _wrap(tracer, fn, name, site, d))
    return inst
