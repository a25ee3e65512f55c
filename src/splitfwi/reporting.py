"""Report tables and the benchmark sweep.

Reports come out as RFC-4180 CSV (one per-sample table, one per-run
summary table) and as JSON. Field order and float formatting are fixed so
that two runs with the same configuration produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, ReportError
from .model import ModelConfig, init_weights
from .netem import NetworkProfile
from .physics import default_geometry, generate_dataset
from .runtime import (
    ComputeModel,
    InfraConfig,
    PipelineMode,
    RunReport,
    SampleResult,
    _reuse_edge_outputs,
    partition_receivers,
    run_baseline,
)

PER_SAMPLE_HEADER = [
    "mode",
    "n_devices",
    "profile",
    "sample_id",
    "status",
    "mask",
    "l_edge_s",
    "l_comm_s",
    "l_central_s",
    "l_total_s",
    "energy_j",
    "comm_bytes",
    "comm_fraction_pct",
    "deadline_fired",
    "deadline_met",
    "late_frames",
    "ssim",
]

SUMMARY_HEADER = [
    "mode",
    "n_devices",
    "profile",
    "samples",
    "failures",
    "mean_l_edge_s",
    "mean_l_comm_s",
    "mean_l_central_s",
    "mean_l_total_s",
    "total_energy_j",
    "total_comm_bytes",
    "comm_fraction_pct",
    "mean_ssim",
    "deadline_met_pct",
]


def _num(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".9g")


def _mask_str(mask) -> str:
    return "".join("1" if m else "0" for m in mask)


def per_sample_rows(report: RunReport) -> list[list[str]]:
    rows = []
    for r in report.rows:
        rows.append(
            [
                report.mode.value,
                str(report.n_devices),
                report.profile_label,
                str(r.sample_id),
                r.status,
                _mask_str(r.mask),
                _num(r.l_edge_s),
                _num(r.l_comm_s),
                _num(r.l_central_s),
                _num(r.l_total_s),
                _num(r.energy_j),
                str(r.comm_bytes),
                _num(r.comm_fraction_pct),
                str(int(r.deadline_fired)),
                str(int(r.deadline_met)),
                str(r.late_frames),
                _num(r.ssim),
            ]
        )
    return rows


def summary_row(report: RunReport) -> list[str]:
    rows = report.rows
    ok = report.ok_rows
    mean_total = report.mean("l_total_s")
    mean_comm = report.mean("l_comm_s")
    met = sum(1 for r in rows if r.deadline_met)
    return [
        report.mode.value,
        str(report.n_devices),
        report.profile_label,
        str(len(rows)),
        str(len(rows) - len(ok)),
        _num(report.mean("l_edge_s")),
        _num(mean_comm),
        _num(report.mean("l_central_s")),
        _num(mean_total),
        _num(report.total_energy_j),
        str(report.total_comm_bytes),
        _num(100.0 * mean_comm / mean_total if mean_total > 0 else 0.0),
        _num(report.mean_ssim()),
        _num(100.0 * met / len(rows) if rows else 0.0),
    ]


def write_per_sample_csv(reports, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PER_SAMPLE_HEADER)
        for report in reports:
            writer.writerows(per_sample_rows(report))
    return path


def write_summary_csv(reports, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for report in reports:
            writer.writerow(summary_row(report))
    return path


def report_to_dict(report: RunReport) -> dict:
    return {
        "mode": report.mode.value,
        "n_devices": report.n_devices,
        "profile": report.profile_label,
        "deadline_s": report.deadline_s,
        "decode_budget_s": report.decode_budget_s,
        "rows": [
            {
                "sample_id": r.sample_id,
                "status": r.status,
                "mask": _mask_str(r.mask),
                "l_edge_s": r.l_edge_s,
                "l_comm_s": r.l_comm_s,
                "l_central_s": r.l_central_s,
                "l_total_s": r.l_total_s,
                "energy_j": r.energy_j,
                "comm_bytes": r.comm_bytes,
                "comm_fraction_pct": r.comm_fraction_pct,
                "deadline_fired": r.deadline_fired,
                "deadline_met": r.deadline_met,
                "late_frames": r.late_frames,
                "ssim": r.ssim,
            }
            for r in report.rows
        ],
    }


# key of a stored report or row -> its JSON type; a float may be stored as an int
_REPORT_KEYS = {"mode": str, "n_devices": int, "profile": str, "deadline_s": float,
                "decode_budget_s": float, "rows": list}
_ROW_KEYS = {"sample_id": int, "status": str, "mask": str, "l_edge_s": float,
             "l_comm_s": float, "l_central_s": float, "l_total_s": float, "energy_j": float,
             "comm_bytes": int, "deadline_fired": bool, "deadline_met": bool,
             "late_frames": int, "ssim": float}


def _stored(doc, pointer: str, kinds: dict) -> dict:
    """The keys of kinds, read from the object doc at pointer; null is
    allowed only for ssim."""
    if not isinstance(doc, dict):
        raise ReportError(f"{pointer or '/'}: expected an object, got {type(doc).__name__}")
    vals = {}
    for key, kind in kinds.items():
        if key not in doc:
            raise ReportError(f"{pointer}/{key}: missing")
        val = doc[key]
        ok = isinstance(val, (int, float) if kind is float else kind) and (
            kind is bool or not isinstance(val, bool))
        if not ok and not (key == "ssim" and val is None):
            raise ReportError(f"{pointer}/{key}: expected {kind.__name__}, got {type(val).__name__}")
        vals[key] = float(val) if kind is float and val is not None else val
    return vals


def _report_from(entry, pointer: str) -> RunReport:
    doc = _stored(entry, pointer, _REPORT_KEYS)
    modes = [m.value for m in PipelineMode]
    if doc["mode"] not in modes:
        raise ReportError(f"{pointer}/mode: must be one of {', '.join(modes)}, got {doc['mode']!r}")
    report = RunReport(
        mode=PipelineMode(doc["mode"]),
        n_devices=doc["n_devices"],
        profile_label=doc["profile"],
        deadline_s=doc["deadline_s"],
        decode_budget_s=doc["decode_budget_s"],
    )
    for i, row in enumerate(doc["rows"]):
        here = f"{pointer}/rows/{i}"
        vals = _stored(row, here, _ROW_KEYS)
        if vals["status"] not in ("ok", "failed"):
            raise ReportError(f"{here}/status: must be 'ok' or 'failed', got {vals['status']!r}")
        if len(vals["mask"]) != report.n_devices or set(vals["mask"]) - {"0", "1"}:
            raise ReportError(f"{here}/mask: expected {report.n_devices} digits 0 or 1, "
                              f"got {vals['mask']!r}")
        vals["mask"] = tuple(c == "1" for c in vals["mask"])
        report.rows.append(SampleResult(**vals))
    return report


def report_from_dict(entry: dict) -> RunReport:
    """Inverse of report_to_dict; a malformed entry raises ReportError
    naming the JSON pointer of the offending field."""
    return _report_from(entry, "")


def read_report_json(path) -> list[RunReport]:
    """Inverse of write_report_json; errors name the file and the JSON
    pointer of the offending field."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise ReportError(f"report {path} is not valid JSON: {exc}") from exc
    try:
        if not isinstance(doc, list):
            raise ReportError(f"/: expected a list of reports, got {type(doc).__name__}")
        return [_report_from(entry, f"/{i}") for i, entry in enumerate(doc)]
    except ReportError as exc:
        raise ReportError(f"report {path}: {exc}") from exc


def write_report_json(reports, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps([report_to_dict(r) for r in reports], indent=2, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# benchmark sweep


@dataclass(frozen=True)
class BenchmarkSpec:
    """What to sweep: pipeline modes x device counts x network profiles."""

    modes: tuple[PipelineMode, ...] = (PipelineMode.EPIC, PipelineMode.CENTRALIZED)
    device_counts: tuple[int, ...] = (2, 5, 7, 10)
    profiles: tuple[NetworkProfile, ...] = (NetworkProfile(),)
    n_samples: int = 4
    family: str = "layered"
    weights_seed: int = 1
    data_seed: int = 7
    run_seed: int = 3
    deadline_s: float = 0.5
    compute: ComputeModel = ComputeModel()
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if not self.modes:
            raise ConfigError("benchmark needs at least one mode")
        if not self.device_counts or not self.profiles:
            raise ConfigError("benchmark needs device counts and profiles")
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")


def run_benchmark(spec: BenchmarkSpec, out_dir=None) -> list[RunReport]:
    """Execute the sweep; optionally write the three report files.

    Simulated clock throughout, so repeated runs with the same spec give
    byte-identical CSVs. Each edge output is computed once for the whole
    sweep: profiles and modes that share a device count share latents,
    and FLA's map spans serve every profile.
    """
    n_receivers = spec.model.output_dims[1]
    geometry = default_geometry(n_receivers=n_receivers)
    dataset = generate_dataset(spec.data_seed, spec.n_samples, spec.family,
                               rows=spec.model.output_dims[0], cols=n_receivers,
                               geometry=geometry)
    truths = [vm for vm, _ in dataset]
    waves = [rec for _, rec in dataset]

    weights_by_n = {
        n: init_weights(replace(spec.model, n_devices=n), spec.weights_seed)
        for n in spec.device_counts
    }
    single = None
    if PipelineMode.FLA in spec.modes:
        single = init_weights(replace(spec.model, n_devices=1), spec.weights_seed)

    reports = []
    with _reuse_edge_outputs(waves, single, *weights_by_n.values()):
        for profile in spec.profiles:
            for n in spec.device_counts:
                infra = InfraConfig(
                    n_devices=n,
                    partition=partition_receivers(n_receivers, n),
                    network=profile,
                    deadline_s=spec.deadline_s,
                    compute=spec.compute,
                    seed=spec.run_seed,
                )
                for mode in spec.modes:
                    w = single if mode == PipelineMode.FLA else weights_by_n[n]
                    _, report = run_baseline(mode, waves, w, infra, ground_truth=truths)
                    reports.append(report)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_per_sample_csv(reports, out / "bench_samples.csv")
        write_summary_csv(reports, out / "bench_summary.csv")
        write_report_json(reports, out / "bench_report.json")
    return reports
