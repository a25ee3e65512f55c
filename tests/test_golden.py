"""Pinned report bytes across every pipeline mode.

The simulated clock makes every latency, energy and byte count a pure
function of the configuration, so the per-sample and summary CSVs of a
fixed sweep are pinned by digest. Ground truth is left out: SSIM goes
through BLAS and could differ in its last bits between machines.
"""

import dataclasses
import hashlib

import numpy as np

from conftest import TINY
from splitfwi.model import init_weights
from splitfwi.netem import NetworkProfile
from splitfwi.reporting import write_per_sample_csv, write_summary_csv
from splitfwi.runtime import InfraConfig, PipelineMode, run_epic, run_robustness_sweep

SAMPLES_SHA256 = "70a343de934f069a69e67a3887996f18dd8b2d690d6f5f27a4158635f73063ef"
SUMMARY_SHA256 = "242d602fbebb14f2d7814c90c3a362a8b977317cad6a6bf51982a056802a26a0"

# lossy and slow enough that retransmissions push some latents past T - T_d
LOSSY = NetworkProfile(bandwidth_bps=2e6, base_latency_s=0.02, loss_rate=0.3, mtu_bytes=32)


def _golden_reports():
    weights = init_weights(TINY, seed=11)
    fla_weights = init_weights(dataclasses.replace(TINY, n_devices=1), seed=11)
    rng = np.random.default_rng(42)
    waves = [rng.normal(size=(5, 40, 70)).astype(np.float32) for _ in range(3)]
    reports = []
    for medium in ("shared", "dedicated"):
        infra = InfraConfig(
            n_devices=TINY.n_devices,
            network=dataclasses.replace(LOSSY, medium=medium),
            deadline_s=0.09,
            netem_mode="stochastic",
            seed=5,
        )
        sweep = run_robustness_sweep(
            waves, weights, infra, drop_counts=range(TINY.n_devices + 1),
            modes=tuple(PipelineMode), fla_weights=fla_weights,
        )
        reports.extend(sweep.values())
        _, delayed = run_epic(waves, weights, infra, extra_delay_s={1: 0.03})
        reports.append(delayed)
    return reports


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_report_bytes_pinned(tmp_path):
    reports = _golden_reports()
    epic_rows = [r for rep in reports if rep.mode == PipelineMode.EPIC for r in rep.rows]
    # the sweep exercises both collection outcomes and failed rows
    assert any(r.deadline_fired and r.status == "ok" for r in epic_rows)
    assert any(not r.deadline_fired for r in epic_rows)
    assert any(r.status == "failed" for r in epic_rows)
    assert any(r.late_frames for r in epic_rows)
    samples = write_per_sample_csv(reports, tmp_path / "samples.csv")
    summary = write_summary_csv(reports, tmp_path / "summary.csv")
    assert _sha256(samples) == SAMPLES_SHA256
    assert _sha256(summary) == SUMMARY_SHA256
