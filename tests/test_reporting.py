import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JSON, TINY, put, reads_or_points
from splitfwi import reporting, runtime
from splitfwi.errors import ConfigError, ReportError
from splitfwi.model import ModelConfig, decoder_flops, init_weights
from splitfwi.netem import FOUR_G, NetworkProfile
from splitfwi.reporting import (
    PER_SAMPLE_HEADER,
    SUMMARY_HEADER,
    BenchmarkSpec,
    read_report_json,
    report_from_dict,
    report_to_dict,
    run_benchmark,
    write_per_sample_csv,
    write_report_json,
    write_summary_csv,
)
from splitfwi.runtime import (
    ComputeModel,
    InfraConfig,
    PipelineMode,
    RunReport,
    SampleResult,
    run_baseline,
    run_epic,
)

PERFECT = NetworkProfile(bandwidth_bps=1e12, base_latency_s=0.0, loss_rate=0.0)


def _reports():
    weights = init_weights(TINY, seed=11)
    rng = np.random.default_rng(0)
    waves = [rng.normal(size=(5, 40, 70)).astype(np.float32) for _ in range(2)]
    infra = InfraConfig(n_devices=TINY.n_devices, network=FOUR_G, deadline_s=5.0)
    _, epic = run_epic(waves, weights, infra)
    _, central = run_baseline(PipelineMode.CENTRALIZED, waves, weights, infra)
    return [epic, central]


def _row(sample_id, status, mask, ssim):
    return SampleResult(sample_id=sample_id, status=status, mask=mask, l_edge_s=0.01,
                        l_comm_s=0.02, l_central_s=0.03, l_total_s=0.06, energy_j=0.5,
                        comm_bytes=2048, deadline_fired=False, deadline_met=True,
                        late_frames=0, ssim=ssim)


# a stored 2-row report: one ok row, and one failed row with a null SSIM
REPORT = report_to_dict(RunReport(
    mode=PipelineMode.EPIC, n_devices=2, profile_label="4g", deadline_s=0.5,
    decode_budget_s=0.1,
    rows=[_row(0, "ok", (True, False), 0.75), _row(1, "failed", (False, False), None)],
))
# every report key and every row key of both rows
REPORT_SITES = [(k,) for k in REPORT] + [
    ("rows", i, k) for i, row in enumerate(REPORT["rows"]) for k in row]


@given(site=st.sampled_from(REPORT_SITES), value=JSON)
@example(site=("deadline_s",), value=10**400)
@example(site=("rows", 0, "l_total_s"), value=float("nan"))
@settings(max_examples=300, deadline=None)
def test_any_value_in_report_parses_or_names_pointer(site, value):
    reads_or_points(report_from_dict, ReportError, put(REPORT, site, value))


class TestCsv:
    def test_headers_are_stable(self, tmp_path):
        reports = _reports()
        sample_path = write_per_sample_csv(reports, tmp_path / "s.csv")
        summary_path = write_summary_csv(reports, tmp_path / "m.csv")
        assert sample_path.read_text().splitlines()[0] == ",".join(PER_SAMPLE_HEADER)
        assert summary_path.read_text().splitlines()[0] == ",".join(SUMMARY_HEADER)

    def test_row_counts(self, tmp_path):
        reports = _reports()
        path = write_per_sample_csv(reports, tmp_path / "s.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + sum(len(r.rows) for r in reports)
        summary = write_summary_csv(reports, tmp_path / "m.csv").read_text().splitlines()
        assert len(summary) == 1 + len(reports)

    def test_centralized_comm_fraction_dominates_on_shared_4g(self, tmp_path):
        weights = init_weights(ModelConfig(n_devices=5), seed=1)
        rng = np.random.default_rng(1)
        waves = [rng.normal(size=(5, 1000, 70)).astype(np.float32)]
        shared = NetworkProfile(15e6, 0.05, 0.005, medium="shared")
        infra = InfraConfig(n_devices=5, network=shared, deadline_s=5.0)
        _, central = run_baseline(PipelineMode.CENTRALIZED, waves, weights, infra)
        assert central.rows[0].comm_fraction_pct > 50.0
        _, epic = run_epic(waves, weights, infra)
        assert epic.total_comm_bytes < central.total_comm_bytes

    def test_failures_marked_but_totals_stable(self, tmp_path):
        weights = init_weights(TINY, seed=11)
        rng = np.random.default_rng(2)
        waves = [rng.normal(size=(5, 40, 70)).astype(np.float32) for _ in range(2)]
        infra = InfraConfig(n_devices=TINY.n_devices, network=FOUR_G, deadline_s=0.5)
        _, report = run_epic(waves, weights, infra, drop_devices=range(TINY.n_devices))
        path = write_per_sample_csv([report], tmp_path / "f.csv")
        rows = path.read_text().splitlines()[1:]
        assert all(",failed," in row for row in rows)
        summary = write_summary_csv([report], tmp_path / "fs.csv").read_text().splitlines()[1]
        assert summary.split(",")[4] == "2"  # failure count

    def test_json_round_trip_fields(self, tmp_path):
        reports = _reports()
        path = write_report_json(reports, tmp_path / "r.json")
        import json

        data = json.loads(path.read_text())
        assert data[0]["mode"] == "epic"
        assert len(data[0]["rows"]) == 2
        assert set(data[0]["rows"][0]) >= {"l_edge_s", "l_comm_s", "l_central_s", "l_total_s"}

    def test_json_reports_rebuild_identical_csvs(self, tmp_path):
        reports = _reports()
        path = write_report_json(reports, tmp_path / "r.json")
        restored = [report_from_dict(entry) for entry in json.loads(path.read_text())]
        for writer, name in ((write_summary_csv, "m.csv"), (write_per_sample_csv, "s.csv")):
            want = writer(reports, tmp_path / f"want_{name}").read_bytes()
            assert writer(restored, tmp_path / name).read_bytes() == want

    def test_read_report_json_round_trip(self, tmp_path):
        path = write_report_json(_reports(), tmp_path / "r.json")
        again = write_report_json(read_report_json(path), tmp_path / "again.json")
        assert again.read_bytes() == path.read_bytes()

    def test_stored_ints_read_as_floats(self, tmp_path):
        entry = report_to_dict(_reports()[0])
        entry["rows"][0]["energy_j"] = 0
        assert type(report_from_dict(entry).rows[0].energy_j) is float

    def test_malformed_entry_names_pointer(self):
        entry = dict(report_to_dict(_reports()[0]), mode=1)
        with pytest.raises(ReportError, match="^/mode: expected str, got int$"):
            report_from_dict(entry)

    @pytest.mark.parametrize("mode", list(PipelineMode))
    def test_all_dropped_energy_is_float(self, mode):
        weights = init_weights(TINY, seed=11)
        if mode == PipelineMode.FLA:
            weights = init_weights(dataclasses.replace(TINY, n_devices=1), seed=11)
        rng = np.random.default_rng(2)
        waves = [rng.normal(size=(5, 40, 70)).astype(np.float32)]
        infra = InfraConfig(n_devices=TINY.n_devices, network=FOUR_G, deadline_s=0.5)
        _, report = run_baseline(mode, waves, weights, infra,
                                 drop_devices=range(TINY.n_devices))
        energy = report_to_dict(report)["rows"][0]["energy_j"]
        assert type(energy) is float and energy == 0.0


class TestBenchmark:
    def _tiny_spec(self):
        return BenchmarkSpec(
            modes=(PipelineMode.EPIC, PipelineMode.SLA),
            device_counts=(2, 3),
            profiles=(FOUR_G,),
            n_samples=2,
            deadline_s=5.0,
            model=TINY,
        )

    def test_one_summary_row_per_mode_and_count(self, tmp_path):
        reports = run_benchmark(self._tiny_spec(), tmp_path)
        assert len(reports) == 4  # 2 modes x 2 device counts x 1 profile
        keys = {(r.mode.value, r.n_devices) for r in reports}
        assert keys == {("epic", 2), ("epic", 3), ("sla", 2), ("sla", 3)}
        assert (tmp_path / "bench_summary.csv").exists()

    def test_repeat_runs_byte_identical(self, tmp_path):
        spec = self._tiny_spec()
        run_benchmark(spec, tmp_path / "a")
        run_benchmark(spec, tmp_path / "b")
        for name in ("bench_samples.csv", "bench_summary.csv", "bench_report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_ssim_recorded_against_ground_truth(self, tmp_path):
        reports = run_benchmark(self._tiny_spec(), None)
        for report in reports:
            for row in report.rows:
                assert row.ssim is not None
                assert -1.0 <= row.ssim <= 1.0

    @pytest.mark.parametrize("change, match", [
        ({"device_counts": (2, 71)}, r"n_devices must be in \[1, 70\], got 71"),
        ({"deadline_s": -1.0}, "deadline_s must be finite and > 0, got -1.0"),
    ], ids=["device-count-71", "negative-deadline"])
    def test_invalid_run_rejected_before_any_work(self, monkeypatch, change, match):
        # every run is built before the weights and the dataset, so no run
        # of a valid device count goes first
        def work_started(*args, **kwargs):
            raise AssertionError("work started before every run was built")

        monkeypatch.setattr(reporting, "generate_dataset", work_started)
        monkeypatch.setattr(reporting, "init_weights", work_started)
        with pytest.raises(ConfigError, match=match):
            run_benchmark(dataclasses.replace(self._tiny_spec(), **change))

    def test_deadline_below_decode_budget_rejected_before_the_dataset(self, monkeypatch):
        # CENTRALIZED, which has no timeout, must not run before EPIC fails
        def work_started(*args, **kwargs):
            raise AssertionError("work started before every run was checked")

        monkeypatch.setattr(reporting, "generate_dataset", work_started)
        monkeypatch.setattr(runtime, "encode", work_started)
        slow = ComputeModel(central_flops_per_s=1e3)
        t_d = decoder_flops(TINY, TINY.n_devices) / slow.central_flops_per_s
        spec = dataclasses.replace(self._tiny_spec(), device_counts=(TINY.n_devices,),
                                   modes=(PipelineMode.CENTRALIZED, PipelineMode.EPIC),
                                   compute=slow, deadline_s=0.9 * t_d)
        with pytest.raises(ConfigError, match="decode budget"):
            run_benchmark(spec)
