import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitfwi
from splitfwi.cli import main
from splitfwi.model import load_weights
from splitfwi.physics import load_dataset
from splitfwi.runconfig import load_run_config
from splitfwi.errors import ConfigError
from splitfwi.runtime import PipelineMode, run_robustness_sweep


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset + weights generated once for the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run_cli("gen-data", "--seed", "7", "--n", "2", "--family", "layered",
                   "--n-t", "80", "--out", str(root / "data")) == 0
    assert run_cli("gen-weights", "--devices", "3", "--seed", "1",
                   "--out", str(root / "weights.bin")) == 0
    config = {
        "n_devices": 3,
        "network": {"b": 15e6, "l": 0.05, "p": 0.005, "medium": "dedicated", "mtu": 1500},
        "T": 5.0,
        "transport": "simulated",
        "seeds": {"weights": 1, "data": 7, "run": 3},
        "paths": {
            "weights": str(root / "weights.bin"),
            "data": str(root / "data"),
            "out": str(root / "out"),
        },
    }
    (root / "run.json").write_text(json.dumps(config))
    return root


def test_gen_data_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run_cli("gen-data", "--seed", "9", "--n", "2", "--family", "faulted",
                       "--n-t", "60", "--out", str(tmp_path / sub)) == 0
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_weights_loadable(workspace):
    weights = load_weights(workspace / "weights.bin")
    assert weights.config.n_devices == 3
    assert weights.config.latent_dim == 512


def test_run_epic_writes_reports(workspace):
    assert run_cli("run", "--config", str(workspace / "run.json"), "--mode", "epic") == 0
    out = workspace / "out"
    assert (out / "run_samples.csv").exists()
    assert (out / "run_summary.csv").exists()
    report = json.loads((out / "run_report.json").read_text())
    assert report[0]["mode"] == "epic"
    assert all(row["status"] == "ok" for row in report[0]["rows"])


def test_run_with_drop_masks_one_device(workspace):
    assert run_cli("run", "--config", str(workspace / "run.json"), "--mode", "epic",
                   "--drop", "1", "--out", str(workspace / "out_drop")) == 0
    report = json.loads((workspace / "out_drop" / "run_report.json").read_text())
    for row in report[0]["rows"]:
        assert row["mask"].count("1") == 2


def test_drop_masks_match_robustness_sweep(workspace, tmp_path):
    assert run_cli("run", "--config", str(workspace / "run.json"), "--mode", "sla",
                   "--drop", "2", "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "run_report.json").read_text())
    cfg = load_run_config(workspace / "run.json")
    samples, _ = load_dataset(workspace / "data")
    sweep = run_robustness_sweep([rec for _, rec in samples], load_weights(workspace / "weights.bin"),
                                 cfg.infra, drop_counts=[2], modes=(PipelineMode.SLA,))
    swept = ["".join("1" if m else "0" for m in row.mask) for row in sweep[("sla", 2)].rows]
    assert [row["mask"] for row in report[0]["rows"]] == swept
    assert all(mask.count("1") == 1 for mask in swept)


def test_bench_rows(workspace, tmp_path):
    spec = {
        "modes": ["epic", "centralized"],
        "device_counts": [2, 3],
        "profiles": [{"b": 15e6, "l": 0.05, "p": 0.0}],
        "n_samples": 1,
        "T": 5.0,
        "seeds": {"weights": 1, "data": 7, "run": 3},
    }
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(spec))
    assert run_cli("bench", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    lines = (tmp_path / "out" / "bench_summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # header + modes x device counts


def test_report_merges_runs(workspace, tmp_path):
    run_cli("run", "--config", str(workspace / "run.json"), "--mode", "sla",
            "--out", str(tmp_path / "sla_out"))
    merged = tmp_path / "merged.csv"
    assert run_cli("report", "--inputs",
                   str(workspace / "out" / "run_report.json"),
                   str(tmp_path / "sla_out" / "run_report.json"),
                   "--out", str(merged)) == 0
    lines = merged.read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("edit, expected", [
    (lambda doc: "{not json", "is not valid JSON"),
    (lambda doc: {"mode": "epic"}, "/: expected a list"),
    (lambda doc: [dict(doc[0], mode=1)], "/0/mode: expected str"),
    (lambda doc: [dict(doc[0], mode="warp")], "/0/mode: must be one of"),
    (lambda doc: [7], "/0: expected an object"),
    (lambda doc: [{k: v for k, v in doc[0].items() if k != "rows"}], "/0/rows: missing"),
    (lambda doc: [dict(doc[0], rows=[dict(doc[0]["rows"][0], mask="10")])], "/0/rows/0/mask"),
    (lambda doc: [dict(doc[0], rows=[dict(doc[0]["rows"][0], deadline_met=1)])],
     "/0/rows/0/deadline_met: expected bool"),
    (lambda doc: [dict(doc[0], rows=[dict(doc[0]["rows"][0], ssim="high")])],
     "/0/rows/0/ssim: expected float"),
    (lambda doc: [dict(doc[0], rows=[dict(doc[0]["rows"][0], status="fine")])],
     "/0/rows/0/status"),
    (lambda doc: json.dumps([dict(doc[0], deadline_s=10**400)]), "/0/deadline_s: must be finite"),
    (lambda doc: json.dumps([dict(doc[0], deadline_s=float("nan"))]),
     "/0/deadline_s: must be finite"),
])
def test_bad_report_exits_2(workspace, tmp_path, capsys, edit, expected):
    assert run_cli("run", "--config", str(workspace / "run.json")) == 0
    doc = json.loads((workspace / "out" / "run_report.json").read_text())
    bad = edit(doc)
    path = tmp_path / "bad_report.json"
    path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
    assert run_cli("report", "--inputs", str(path), "--out", str(tmp_path / "m.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad_report.json" in err and expected in err
    assert not (tmp_path / "m.csv").exists()


def test_partition_must_cover_the_dataset(workspace, tmp_path, capsys):
    doc = json.loads((workspace / "run.json").read_text())
    doc["partition"] = [[0, 20], [20, 40], [40, 69]]
    doc["paths"]["out"] = str(tmp_path / "out")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /partition:") and "69" in err and "70" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["sla", "centralized", "fla"])
def test_socket_run_of_another_mode_than_epic_exits_2(workspace, tmp_path, capsys, mode):
    doc = json.loads((workspace / "run.json").read_text())
    doc["transport"] = "socket"
    doc["socket"] = {"central_addr": "127.0.0.1", "port": 0}
    doc["paths"]["out"] = str(tmp_path / "out")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(cfg), "--mode", mode) == 2
    assert f"runs EPIC only, not {mode}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_config_points_at_field(workspace, tmp_path, capsys):
    bad = dict(json.loads((workspace / "run.json").read_text()))
    bad["network"] = {"l": 0.05}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    assert run_cli("run", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "/network/b" in err


@pytest.mark.parametrize("text, expected", [
    (None, "bench.json"),
    ("{not json", "bench.json"),
    ("[1, 2]", "/: expected an object"),
    ('{"profiles": [{"b": "fast"}]}', "/profiles/0/b"),
    ('{"n_samples": 2.9}', "/n_samples"),
    pytest.param("[" * 100000, "is not valid JSON", id="nested-too-deeply"),
])
def test_bad_bench_spec_exits_2(tmp_path, capsys, text, expected):
    cfg = tmp_path / "bench.json"
    if text is not None:
        cfg.write_text(text)
    assert run_cli("bench", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_samples_below_one_exits_2(workspace, tmp_path, capsys, samples):
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(workspace / "run.json"), "--samples", samples,
                   "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: --samples must be >= 1")
    assert not out.exists()


@pytest.mark.parametrize("key", ["weights", "data"])
def test_missing_input_file_exits_2(workspace, tmp_path, capsys, key):
    doc = json.loads((workspace / "run.json").read_text())
    doc["paths"][key] = str(tmp_path / "missing")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err


def test_env_seed_overrides_run_seed(workspace, monkeypatch):
    monkeypatch.setenv("EPIC_SEED", "99")
    cfg = load_run_config(workspace / "run.json")
    assert cfg.infra.seed == 99
    monkeypatch.delenv("EPIC_SEED")
    cfg = load_run_config(workspace / "run.json")
    assert cfg.infra.seed == 3


def test_config_pointer_errors(workspace):
    with pytest.raises(ConfigError, match="/T"):
        from splitfwi.runconfig import parse_run_config

        parse_run_config({"n_devices": 3, "network": {"b": 1e6, "l": 0.0}})


def test_console_entry_point(workspace):
    # the child imports the same splitfwi as this test, installed or not
    src_root = Path(splitfwi.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "splitfwi", "gen-weights", "--devices", "1",
         "--seed", "2", "--out", str(workspace / "w1.bin")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src_root)},
    )
    assert proc.returncode == 0
    assert Path(workspace / "w1.bin").exists()


@pytest.mark.parametrize("text, expected", [
    ("{not json", "is not valid JSON"),
    ("[]", "/: expected an object"),
    ('{"dx": 10.0}', "/files: missing"),
    ('{"dx": "ten", "files": []}', "/dx: expected float, got str"),
    ('{"files": [{"velocity": "v.tnsr"}]}', "/files/0/waveform: missing"),
])
def test_malformed_manifest_exits_2(workspace, tmp_path, capsys, text, expected):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "manifest.json").write_text(text)
    doc = json.loads((workspace / "run.json").read_text())
    doc["paths"].update(data=str(tmp_path / "data"), out=str(tmp_path / "out"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("run", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest ") and "manifest.json" in err and expected in err
    assert not (tmp_path / "out").exists()
