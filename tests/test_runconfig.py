import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JSON, put, reads_or_points
from splitfwi.errors import ConfigError
from splitfwi.netem import NetworkProfile
from splitfwi.reporting import BenchmarkSpec
from splitfwi.runconfig import parse_bench_spec, parse_run_config

RUN = {
    "n_devices": 2,
    "partition": [[0, 30], [30, 70]],
    "network": {"b": 15e6, "l": 0.05, "p": 0.005, "medium": "shared", "mtu": 1500},
    "T": 0.5,
    "transport": "socket",
    "netem_mode": "stochastic",
    "seeds": {"run": 3},
    "compute": {"edge_flops_per_s": 2e9, "central_flops_per_s": 1e10},
    "energy": {"tx_power_w": 0.8, "per_byte_j": 0.0},
    "paths": {"weights": "w.bin", "data": "data/", "out": "out/"},
    "socket": {"central_addr": "10.0.0.2", "port": 7301},
}

BENCH = {
    "modes": ["epic", "centralized"],
    "device_counts": [2, 3],
    "profiles": [{"b": 15e6, "l": 0.05, "p": 0.0, "medium": "dedicated", "mtu": 1500}],
    "n_samples": 1,
    "family": "layered",
    "T": 5.0,
    "seeds": {"weights": 1, "data": 7, "run": 3},
    "compute": {"edge_flops_per_s": 2e9, "central_flops_per_s": 1e10},
}

# Where a fuzzed value goes: every top-level key, every key inside the
# sections, and list entries and their elements.
RUN_SITES = (
    [(k,) for k in RUN]
    + [(s, k) for s in ("network", "seeds", "compute", "energy", "paths", "socket") for k in RUN[s]]
    + [("partition", 0), ("partition", 1), ("partition", 0, 0), ("partition", 1, 1)]
)
BENCH_SITES = (
    [(k,) for k in BENCH]
    + [("profiles", 0, k) for k in BENCH["profiles"][0]]
    + [(s, k) for s in ("seeds", "compute") for k in BENCH[s]]
    + [("profiles", 0), ("modes", 0), ("device_counts", 1)]
)

@given(site=st.sampled_from(RUN_SITES), value=JSON)
@settings(max_examples=300, deadline=None)
def test_any_value_in_run_config_parses_or_names_pointer(site, value):
    reads_or_points(parse_run_config, ConfigError, put(RUN, site, value))


@given(site=st.sampled_from(BENCH_SITES), value=JSON)
@settings(max_examples=300, deadline=None)
def test_any_value_in_bench_spec_parses_or_names_pointer(site, value):
    reads_or_points(parse_bench_spec, ConfigError, put(BENCH, site, value))


def test_socket_addresses_reach_infra():
    infra = parse_run_config(RUN).infra
    assert (infra.socket_host, infra.socket_port) == ("10.0.0.2", 7301)
    simulated = parse_run_config({k: v for k, v in RUN.items() if k not in ("transport", "socket")})
    assert (simulated.infra.socket_host, simulated.infra.socket_port) == ("127.0.0.1", 0)


@pytest.mark.parametrize("site, value, pointer", [
    (("socket", "port"), -1, "/socket/port"),
    (("socket", "port"), 65536, "/socket/port"),
    (("partition", 0, 1), "a", "/partition/0/1"),
    (("partition", 0, 1), 14.5, "/partition/0/1"),
    (("partition", 1, 1), 70.9, "/partition/1/1"),
    (("partition", 1, 0), 31, "/partition"),
    (("partition",), [[0, 70]], "/partition"),
    (("netem_mode",), "exact", "/netem_mode"),
    (("T",), float("nan"), "/T"),
    (("T",), 10**400, "/T"),
    (("network", "b"), float("inf"), "/network/b"),
    (("network", "l"), float("nan"), "/network/l"),
    (("network", "p"), 1.5, "/network"),
    (("compute", "edge_flops_per_s"), 0, "/compute"),
    (("seeds", "run"), -1, "/seeds/run"),
    (("paths", "data"), 5, "/paths/data"),
])
def test_run_config_errors_name_pointer(site, value, pointer):
    with pytest.raises(ConfigError) as info:
        parse_run_config(put(RUN, site, value))
    assert str(info.value).startswith(pointer + ":")


def test_run_config_errors_without_partition():
    doc = {k: v for k, v in RUN.items() if k != "partition"}
    with pytest.raises(ConfigError, match="^/n_devices:"):
        parse_run_config(dict(doc, n_devices=71))
    for key in ("weights", "data"):
        paths = {k: v for k, v in RUN["paths"].items() if k != key}
        with pytest.raises(ConfigError, match=f"^/paths/{key}: missing"):
            parse_run_config(dict(doc, paths=paths))


def test_non_finite_json_is_rejected():
    text = json.dumps(dict(RUN, T=0.5)).replace('"T": 0.5', '"T": NaN')
    with pytest.raises(ConfigError, match="^/T: must be finite"):
        parse_run_config(json.loads(text))
    text = json.dumps(BENCH).replace('"b": 15000000.0', '"b": Infinity')
    with pytest.raises(ConfigError, match="^/profiles/0/b: must be finite"):
        parse_bench_spec(json.loads(text))


@pytest.mark.parametrize("env", ["-1", "x", "1.5", ""])
def test_env_seed_must_be_non_negative_int(monkeypatch, env):
    monkeypatch.setenv("EPIC_SEED", env)
    with pytest.raises(ConfigError, match="^/seeds/run: EPIC_SEED"):
        parse_run_config(RUN)


def test_bench_defaults():
    assert parse_bench_spec({}) == BenchmarkSpec()
    assert parse_bench_spec({"profiles": [{}]}).profiles == (NetworkProfile(),)
    spec = parse_bench_spec(BENCH)
    assert spec.device_counts == (2, 3)
    assert spec.profiles == (NetworkProfile(loss_rate=0.0),)


@pytest.mark.parametrize("key, value, pointer", [
    ("modes", ["epic", "warp"], "/modes/1"),
    ("modes", [], "/modes"),
    ("device_counts", [2, 0], "/device_counts/1"),
    ("n_samples", 2.9, "/n_samples"),
    ("family", "folded", "/family"),
    ("seeds", {"weights": -1}, "/seeds/weights"),
    ("profiles", [{}, {"medium": "air"}], "/profiles/1"),
    ("device_counts", [70, 71], "/device_counts/1"),
])
def test_bench_spec_errors_name_pointer(key, value, pointer):
    with pytest.raises(ConfigError) as info:
        parse_bench_spec(dict(BENCH, **{key: value}))
    assert str(info.value).startswith(pointer + ":")
