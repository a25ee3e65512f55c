"""Report tables and the benchmark sweep.

Reports come out as RFC-4180 CSV (one per-sample table, one per-run
summary table) and as JSON. Field order and float formatting are fixed so
that two runs with the same configuration produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

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
    _Shared,
    partition_receivers,
    run_baseline,
)


def _row_columns() -> dict[str, tuple[type, bool]]:
    """A report row's columns -> (type, nullable): SampleResult's fields
    in order, read off their type hints, and the derived
    comm_fraction_pct after comm_bytes. float | None reads as
    (float, True) and tuple[bool, ...] as (tuple, False)."""
    hints = get_type_hints(SampleResult)
    columns = {}
    for f in fields(SampleResult):
        hint = hints[f.name]
        nullable = type(None) in get_args(hint)
        if nullable:
            (hint,) = [a for a in get_args(hint) if a is not type(None)]
        columns[f.name] = (get_origin(hint) or hint, nullable)
        if f.name == "comm_bytes":
            columns["comm_fraction_pct"] = (float, False)
    return columns


_ROW_COLUMNS = _row_columns()

PER_SAMPLE_HEADER = ["mode", "n_devices", "profile", *_ROW_COLUMNS]

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


# CSV cell of a column value by column type; None is an empty cell
_CELL = {bool: lambda v: str(int(v)), int: str, str: str, tuple: _mask_str, float: _num}


def _row_values(r: SampleResult) -> list[tuple[str, type, object]]:
    return [(name, kind, getattr(r, name)) for name, (kind, _) in _ROW_COLUMNS.items()]


def per_sample_rows(report: RunReport) -> list[list[str]]:
    head = [report.mode.value, str(report.n_devices), report.profile_label]
    return [head + ["" if v is None else _CELL[kind](v) for _, kind, v in _row_values(r)]
            for r in report.rows]


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
            {name: _mask_str(v) if kind is tuple else v for name, kind, v in _row_values(r)}
            for r in report.rows
        ],
    }


# key of a stored report or row -> (type, nullable)
_REPORT_KEYS = {key: (kind, False) for key, kind in (
    ("mode", str), ("n_devices", int), ("profile", str), ("deadline_s", float),
    ("decode_budget_s", float), ("rows", list))}
_ROW_KEYS = {f.name: _ROW_COLUMNS[f.name] for f in fields(SampleResult)}


def _stored(doc, pointer: str, kinds: dict) -> dict:
    """The keys of kinds, read from the object doc at pointer. A float may
    be stored as an int and a tuple of flags as a digit string; null is
    allowed only for a nullable key."""
    if not isinstance(doc, dict):
        raise ReportError(f"{pointer or '/'}: expected an object, got {type(doc).__name__}")
    vals = {}
    for key, (kind, nullable) in kinds.items():
        if key not in doc:
            raise ReportError(f"{pointer}/{key}: missing")
        val = doc[key]
        kind = str if kind is tuple else kind
        ok = isinstance(val, (int, float) if kind is float else kind) and (
            kind is bool or not isinstance(val, bool))
        if not ok and not (nullable and val is None):
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
    waves = _Shared(rec for _, rec in dataset)

    weights_by_n = {
        n: init_weights(replace(spec.model, n_devices=n), spec.weights_seed)
        for n in spec.device_counts
    }
    single = None
    if PipelineMode.FLA in spec.modes:
        single = init_weights(replace(spec.model, n_devices=1), spec.weights_seed)

    reports = []
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
