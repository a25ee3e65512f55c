"""Config documents: the run config and the bench spec.

Both are JSON objects read by `jsondoc`, the reader of every JSON
document, so every validation failure is a ConfigError naming the
offending field with a JSON pointer. This module keeps only the rules
particular to configs: partition pairs, choices, ranges and EPIC_SEED.
A run config
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

import os
from dataclasses import asdict, dataclass

from .errors import ConfigError
from .jsondoc import choice, fail, fields, get, load, positive, reading, typed
from .model import ModelConfig
from .netem import EnergyModel, NetworkProfile
from .reporting import BenchmarkSpec
from .runtime import ComputeModel, InfraConfig, PipelineMode

ENV_SEED = "EPIC_SEED"

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

    @reading(ConfigError)
    def check_receivers(self, waves) -> None:
        """Fail at /partition unless the partition covers every wave's
        receivers; the config alone cannot tell how many a dataset has."""
        covered = self.infra.partition[-1][1]
        for i, wave in enumerate(waves):
            n_receivers = wave.data.shape[-1]
            if n_receivers != covered:
                fail("/partition", f"covers receivers [0, {covered}), but sample {i} of the "
                                   f"dataset has {n_receivers}")


def _items(doc: dict, key: str, kind, default) -> list:
    """The entries of the non-empty list at /key, each read as kind."""
    items = get(doc, "", key, list, default)
    if not items:
        fail(f"/{key}", "must not be empty")
    return [typed(f"/{key}/{i}", item, kind) for i, item in enumerate(items)]


def _build(pointer: str, cls, **kwargs):
    """cls(**kwargs), failing at pointer with any ConfigError it raises."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        fail(pointer, str(exc))


def _network(doc: dict, pointer: str, defaults: dict) -> NetworkProfile:
    vals = fields(doc, pointer, {k: kind for k, (_, kind) in _NETWORK_KEYS.items()}, defaults)
    return _build(pointer, NetworkProfile, **{f: vals[k] for k, (f, _) in _NETWORK_KEYS.items()})


def _section(doc: dict, key: str, cls):
    """cls from the optional object at /key, whose keys are cls's float
    fields, each defaulting to cls()."""
    defaults = asdict(cls())
    section = get(doc, "", key, dict, {})
    vals = fields(section, f"/{key}", dict.fromkeys(defaults, float), defaults)
    return _build(f"/{key}", cls, **vals)


def _seeds(doc: dict, defaults: dict) -> dict:
    """The seeds that defaults names, read from /seeds; each is an int >= 0."""
    section = get(doc, "", "seeds", dict, {})
    seeds = fields(section, "/seeds", dict.fromkeys(defaults, int), defaults)
    for key, seed in seeds.items():
        if seed < 0:
            fail(f"/seeds/{key}", f"must be >= 0, got {seed}")
    return seeds


@reading(ConfigError)
def parse_run_config(doc: dict) -> RunConfig:
    typed("", doc, dict)
    n_devices = positive("/n_devices", get(doc, "", "n_devices", int))
    deadline = positive("/T", get(doc, "", "T", float))
    transport = choice("/transport", get(doc, "", "transport", str, "simulated"),
                       ("simulated", "socket"))
    netem_mode = choice("/netem_mode", get(doc, "", "netem_mode", str, "expected"),
                        ("expected", "stochastic"))
    network = _network(get(doc, "", "network", dict), "/network", _RUN_NETWORK_DEFAULTS)

    slices = []
    for i, pair in enumerate(get(doc, "", "partition", list, [])):
        if not (isinstance(pair, list) and len(pair) == 2):
            fail(f"/partition/{i}", "expected a [start, stop] pair")
        slices.append(tuple(typed(f"/partition/{i}/{j}", v, int) for j, v in enumerate(pair)))

    run_seed = _seeds(doc, {"run": 0})["run"]
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        if not env_seed.strip().isdecimal():
            fail("/seeds/run", f"{ENV_SEED} must be an integer >= 0, got {env_seed!r}")
        run_seed = int(env_seed)

    paths = fields(get(doc, "", "paths", dict), "/paths",
                   {"weights": str, "data": str, "out": str}, {"out": "."})

    socket_defaults = {"central_addr": InfraConfig.socket_host, "port": InfraConfig.socket_port}
    socket = fields(get(doc, "", "socket", dict, {}), "/socket",
                    {"central_addr": str, "port": int},
                    {} if transport == "socket" else socket_defaults)
    if not 0 <= socket["port"] <= 65535:
        fail("/socket/port", f"must be in [0, 65535], got {socket['port']}")

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


@reading(ConfigError)
def parse_bench_spec(doc: dict) -> BenchmarkSpec:
    typed("", doc, dict)
    modes = _items(doc, "modes", str, [m.value for m in BenchmarkSpec.modes])
    counts = _items(doc, "device_counts", int, BenchmarkSpec.device_counts)
    profiles = _items(doc, "profiles", dict, [{}])
    seeds = _seeds(doc, {k: getattr(BenchmarkSpec, f"{k}_seed")
                         for k in ("weights", "data", "run")})
    # a bench spec cannot set the model, so its receiver count is the default's
    n_receivers = ModelConfig().output_dims[1]
    for i, n in enumerate(counts):
        if not 1 <= n <= n_receivers:
            fail(f"/device_counts/{i}", f"must be in [1, {n_receivers}], the model's "
                                         f"receiver count, got {n}")
    return BenchmarkSpec(
        modes=tuple(PipelineMode(choice(f"/modes/{i}", m, [p.value for p in PipelineMode]))
                    for i, m in enumerate(modes)),
        device_counts=tuple(counts),
        profiles=tuple(_network(p, f"/profiles/{i}", _PROFILE_DEFAULTS)
                       for i, p in enumerate(profiles)),
        n_samples=positive("/n_samples",
                           get(doc, "", "n_samples", int, BenchmarkSpec.n_samples)),
        family=choice("/family", get(doc, "", "family", str, BenchmarkSpec.family),
                      ("layered", "faulted")),
        weights_seed=seeds["weights"],
        data_seed=seeds["data"],
        run_seed=seeds["run"],
        deadline_s=positive("/T", get(doc, "", "T", float, BenchmarkSpec.deadline_s)),
        compute=_section(doc, "compute", ComputeModel),
    )


@reading(ConfigError)
def load_run_config(path) -> RunConfig:
    return parse_run_config(load(path, "run config"))


@reading(ConfigError)
def load_bench_spec(path) -> BenchmarkSpec:
    return parse_bench_spec(load(path, "bench spec"))
