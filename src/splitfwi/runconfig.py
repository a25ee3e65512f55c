"""Config documents: the run config and the bench spec.

Both are JSON objects read by one typed reader, so every validation
failure names the offending field with a JSON pointer. A run config
(`splitfwi run`) describes one deployment:

    {
      "n_devices": 5,
      "partition": [[0, 14], [14, 28], ...],          // optional
      "network": {"b": 15e6, "l": 0.05, "p": 0.005,
                  "medium": "shared", "mtu": 1500},
      "T": 0.5,
      "transport": "simulated",                        // or "socket"
      "netem_mode": "expected",                        // or "stochastic"
      "seeds": {"run": 3},
      "compute": {"edge_flops_per_s": 2e9,
                  "central_flops_per_s": 1e10},        // optional
      "energy": {"tx_power_w": 0.8, "per_byte_j": 0},  // optional
      "paths": {"weights": "w.bin", "data": "data/", "out": "out/"},
      "socket": {"central_addr": "127.0.0.1", "port": 7301}   // socket mode
    }

The environment variable EPIC_SEED, when set, overrides seeds/run. A
bench spec (`splitfwi bench`) describes a sweep of modes x device counts
x network profiles; README.md lists its fields and defaults. Each entry
of its `profiles` is read like the run config's `network`, except that
every key defaults to `NetworkProfile()`.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ConfigError
from .netem import EnergyModel, NetworkProfile
from .reporting import BenchmarkSpec
from .runtime import ComputeModel, InfraConfig, PipelineMode

ENV_SEED = "EPIC_SEED"
_REQUIRED = object()

# key of a network section -> (NetworkProfile field, type)
_NETWORK_KEYS = {
    "b": ("bandwidth_bps", float),
    "l": ("base_latency_s", float),
    "p": ("loss_rate", float),
    "medium": ("medium", str),
    "mtu": ("mtu_bytes", int),
}
# a run config's network needs b and l; a bench profile defaults every key
_RUN_NETWORK_DEFAULTS = {"p": 0.0, "medium": "dedicated", "mtu": 1500}
_PROFILE_DEFAULTS = {key: getattr(NetworkProfile, f) for key, (f, _) in _NETWORK_KEYS.items()}


@dataclass(frozen=True)
class RunConfig:
    infra: InfraConfig
    paths: dict[str, str]


def _fail(pointer: str, why: str):
    raise ConfigError(f"{pointer}: {why}")


def _typed(pointer: str, val, kind):
    """val as kind: ints widen to float, integral floats narrow to int,
    bools are never numbers, and floats must be finite."""
    if kind is float and type(val) is int:
        val = float(val) if abs(val) <= sys.float_info.max else math.inf
    if kind is int and isinstance(val, float) and val.is_integer():
        val = int(val)
    if not isinstance(val, kind) or isinstance(val, bool):
        _fail(pointer, f"expected {kind.__name__}, got {type(val).__name__}")
    if kind is float and not math.isfinite(val):
        _fail(pointer, f"must be finite, got {val}")
    return val


def _get(doc: dict, pointer: str, key: str, kind, default=_REQUIRED):
    here = f"{pointer}/{key}"
    if key not in doc:
        if default is _REQUIRED:
            _fail(here, "missing required field")
        return default
    return _typed(here, doc[key], kind)


def _fields(doc: dict, pointer: str, kinds: dict, defaults: dict) -> dict:
    """Each key of kinds, read from the object doc at pointer; a key that
    defaults does not name is required."""
    return {key: _get(doc, pointer, key, kind, defaults.get(key, _REQUIRED))
            for key, kind in kinds.items()}


def _positive(pointer: str, val):
    if val <= 0:
        _fail(pointer, f"must be positive, got {val}")
    return val


def _choice(pointer: str, val, choices):
    if val not in choices:
        _fail(pointer, f"must be one of {', '.join(map(repr, choices))}, got {val!r}")
    return val


def _items(doc: dict, key: str, kind, default) -> list:
    """The entries of the non-empty list at /key, each read as kind."""
    items = _get(doc, "", key, list, default)
    if not items:
        _fail(f"/{key}", "must not be empty")
    return [_typed(f"/{key}/{i}", item, kind) for i, item in enumerate(items)]


def _build(pointer: str, cls, **fields):
    """cls(**fields), with pointer in front of any ConfigError it raises."""
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{pointer}: {exc}") from exc


def _network(doc: dict, pointer: str, defaults: dict) -> NetworkProfile:
    vals = _fields(doc, pointer, {k: kind for k, (_, kind) in _NETWORK_KEYS.items()}, defaults)
    return _build(pointer, NetworkProfile, **{f: vals[k] for k, (f, _) in _NETWORK_KEYS.items()})


def _section(doc: dict, key: str, cls):
    """cls from the optional object at /key, whose keys are cls's float
    fields, each defaulting to cls()."""
    defaults = asdict(cls())
    section = _get(doc, "", key, dict, {})
    vals = _fields(section, f"/{key}", dict.fromkeys(defaults, float), defaults)
    return _build(f"/{key}", cls, **vals)


def _seeds(doc: dict, defaults: dict) -> dict:
    """The seeds that defaults names, read from /seeds; each is an int >= 0."""
    section = _get(doc, "", "seeds", dict, {})
    seeds = _fields(section, "/seeds", dict.fromkeys(defaults, int), defaults)
    for key, seed in seeds.items():
        if seed < 0:
            _fail(f"/seeds/{key}", f"must be >= 0, got {seed}")
    return seeds


def parse_run_config(doc: dict) -> RunConfig:
    _typed("/", doc, dict)
    n_devices = _positive("/n_devices", _get(doc, "", "n_devices", int))
    deadline = _positive("/T", _get(doc, "", "T", float))
    transport = _choice("/transport", _get(doc, "", "transport", str, "simulated"),
                        ("simulated", "socket"))
    netem_mode = _choice("/netem_mode", _get(doc, "", "netem_mode", str, "expected"),
                         ("expected", "stochastic"))
    network = _network(_get(doc, "", "network", dict), "/network", _RUN_NETWORK_DEFAULTS)

    slices = []
    for i, pair in enumerate(_get(doc, "", "partition", list, [])):
        if not (isinstance(pair, list) and len(pair) == 2):
            _fail(f"/partition/{i}", "expected a [start, stop] pair")
        slices.append(tuple(_typed(f"/partition/{i}/{j}", v, int) for j, v in enumerate(pair)))

    run_seed = _seeds(doc, {"run": 0})["run"]
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        if not env_seed.strip().isdecimal():
            _fail("/seeds/run", f"{ENV_SEED} must be an integer >= 0, got {env_seed!r}")
        run_seed = int(env_seed)

    paths = _fields(_get(doc, "", "paths", dict), "/paths",
                    {"weights": str, "data": str, "out": str}, {"out": "."})

    socket_defaults = {"central_addr": InfraConfig.socket_host, "port": InfraConfig.socket_port}
    socket = _fields(_get(doc, "", "socket", dict, {}), "/socket",
                     {"central_addr": str, "port": int},
                     {} if transport == "socket" else socket_defaults)
    if not 0 <= socket["port"] <= 65535:
        _fail("/socket/port", f"must be in [0, 65535], got {socket['port']}")

    # every other field is checked above: InfraConfig can only reject the partition
    # it is given, or the default one it derives from n_devices
    infra = _build(
        "/partition" if slices else "/n_devices",
        InfraConfig,
        n_devices=n_devices,
        partition=tuple(slices),
        network=network,
        deadline_s=deadline,
        transport=transport,
        compute=_section(doc, "compute", ComputeModel),
        energy=_section(doc, "energy", EnergyModel),
        netem_mode=netem_mode,
        seed=run_seed,
        socket_host=socket["central_addr"],
        socket_port=socket["port"],
    )
    return RunConfig(infra=infra, paths=paths)


def parse_bench_spec(doc: dict) -> BenchmarkSpec:
    _typed("/", doc, dict)
    modes = _items(doc, "modes", str, [m.value for m in BenchmarkSpec.modes])
    counts = _items(doc, "device_counts", int, BenchmarkSpec.device_counts)
    profiles = _items(doc, "profiles", dict, [{}])
    seeds = _seeds(doc, {k: getattr(BenchmarkSpec, f"{k}_seed")
                         for k in ("weights", "data", "run")})
    return BenchmarkSpec(
        modes=tuple(PipelineMode(_choice(f"/modes/{i}", m, [p.value for p in PipelineMode]))
                    for i, m in enumerate(modes)),
        device_counts=tuple(_positive(f"/device_counts/{i}", n) for i, n in enumerate(counts)),
        profiles=tuple(_network(p, f"/profiles/{i}", _PROFILE_DEFAULTS)
                       for i, p in enumerate(profiles)),
        n_samples=_positive("/n_samples",
                            _get(doc, "", "n_samples", int, BenchmarkSpec.n_samples)),
        family=_choice("/family", _get(doc, "", "family", str, BenchmarkSpec.family),
                       ("layered", "faulted")),
        weights_seed=seeds["weights"],
        data_seed=seeds["data"],
        run_seed=seeds["run"],
        deadline_s=_positive("/T", _get(doc, "", "T", float, BenchmarkSpec.deadline_s)),
        compute=_section(doc, "compute", ComputeModel),
    )


def _load(path, what: str):
    p = Path(path)
    try:
        return json.loads(p.read_text())
    except ValueError as exc:
        raise ConfigError(f"{what} {p} is not valid JSON: {exc}") from exc


def load_run_config(path) -> RunConfig:
    return parse_run_config(_load(path, "run config"))


def load_bench_spec(path) -> BenchmarkSpec:
    return parse_bench_spec(_load(path, "bench spec"))
