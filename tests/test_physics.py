import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JSON, put, reads_or_points, resealed_tensor_edit, traced_peak
from splitfwi import physics
from splitfwi.errors import (
    DatasetError,
    InputValidationError,
    PartitionError,
    ShapeError,
    StabilityError,
    ZeroEnergyError,
)
from splitfwi.physics import (
    SPONGE_CELLS,
    AcquisitionGeometry,
    VelocityModel,
    WaveformRecord,
    _sponge_taper,
    default_geometry,
    differential_waveform,
    energy_distribution,
    generate_dataset,
    load_dataset,
    ricker_wavelet,
    save_dataset,
    simulate,
)
from splitfwi.runtime import partition_receivers
from splitfwi.tensorio import tensor_to_bytes

DT_FAST = 0.4 * 10.0 / 4500.0


def homogeneous(v=3000.0):
    return VelocityModel(grid=np.full((70, 70), v, np.float32), dx=10.0)


def test_default_geometry_shapes():
    geom = default_geometry()
    assert len(geom.source_cols) == 5
    assert len(geom.receiver_cols) == 70
    assert geom.n_t == 1000
    rec = simulate(homogeneous(), AcquisitionGeometry(
        source_cols=geom.source_cols, receiver_cols=geom.receiver_cols,
        n_t=40, dt=geom.dt, f0=geom.f0))
    assert rec.data.shape == (5, 40, 70)


def test_cfl_violation_names_admissible_dt():
    vm = homogeneous(4000.0)
    bad = AcquisitionGeometry(source_cols=(10,), receiver_cols=(0,), n_t=10, dt=0.01)
    with pytest.raises(StabilityError, match="require dt <="):
        simulate(vm, bad)


@pytest.mark.parametrize("field, value", [
    ("n_t", True), ("n_t", 2.5), ("n_t", "10"), ("n_t", 0),
    ("dt", float("nan")), ("dt", float("inf")), ("dt", 0.0),
    ("f0", float("inf")), ("f0", float("nan")), ("f0", -15.0),
    ("amplitude", float("inf")), ("amplitude", float("nan")),
    ("dt", "0.001"), ("f0", "15"), ("amplitude", None), ("dt", True),
    ("source_cols", (10.7,)), ("receiver_cols", (3.2, 5)), ("source_cols", ("10",)),
])
def test_invalid_geometry_field_rejected_typed(field, value):
    good = dict(source_cols=(10,), receiver_cols=(0,), n_t=10, dt=1e-3, f0=15.0, amplitude=1.0)
    with pytest.raises(InputValidationError, match=field):
        AcquisitionGeometry(**dict(good, **{field: value}))


def test_geometry_stores_n_t_as_int():
    geom = AcquisitionGeometry(source_cols=(10,), receiver_cols=(0,), n_t=np.int64(10), dt=1e-3)
    assert type(geom.n_t) is int


def test_geometry_stores_columns_as_int_tuples():
    geom = AcquisitionGeometry(source_cols=np.array([3, 10]), receiver_cols=range(4), n_t=10,
                               dt=1e-3)
    assert geom.source_cols == (3, 10) and geom.receiver_cols == (0, 1, 2, 3)
    assert all(type(c) is int for c in geom.source_cols + geom.receiver_cols)


@pytest.mark.parametrize("dx", ["10", True, float("inf"), float("nan"), 0.0, -10.0])
def test_invalid_cell_size_rejected_typed(dx):
    # "10" leaked a bare TypeError, True was read as 1 m, inf gave an
    # all-zero record and nan failed only after every time step
    with pytest.raises(InputValidationError, match="dx must be"):
        VelocityModel(grid=np.full((20, 20), 2000.0, np.float32), dx=dx)


def test_zero_amplitude_source_gives_zero_record():
    geom = AcquisitionGeometry(
        source_cols=(10, 30), receiver_cols=tuple(range(70)),
        n_t=100, dt=DT_FAST, amplitude=0.0,
    )
    rec = simulate(homogeneous(), geom)
    np.testing.assert_array_equal(rec.data, np.zeros_like(rec.data))


def test_first_arrival_matches_travel_time():
    # source col 20, receiver col 40: 200 m at 3000 m/s -> 66.7 ms
    vm = homogeneous(3000.0)
    dt = 0.4 * 10.0 / 3000.0
    n_t = 300
    geom = AcquisitionGeometry(
        source_cols=(20,), receiver_cols=tuple(range(70)), n_t=n_t, dt=dt, f0=25.0
    )
    rec = simulate(vm, geom)
    trace = np.abs(rec.data[0, :, 40].astype(np.float64))
    src = np.abs(ricker_wavelet(25.0, n_t, dt))
    t = np.arange(n_t) * dt

    def onset(x):
        return t[np.argmax(x >= 0.1 * x.max())]

    estimated = onset(trace) - onset(src)
    expected = 200.0 / 3000.0
    assert abs(estimated - expected) / expected <= 0.05


def test_source_linearity():
    vm = homogeneous()
    base = AcquisitionGeometry(source_cols=(34,), receiver_cols=tuple(range(70)),
                               n_t=150, dt=DT_FAST, amplitude=1.0)
    scaled = AcquisitionGeometry(source_cols=(34,), receiver_cols=tuple(range(70)),
                                 n_t=150, dt=DT_FAST, amplitude=3.0)
    a = simulate(vm, base).data.astype(np.float64)
    b = simulate(vm, scaled).data.astype(np.float64)
    scale = np.abs(b).max()
    assert scale > 0
    assert np.abs(b - 3.0 * a).max() / scale <= 1e-6


def test_stability_no_nans_on_generated_models():
    for vm, rec in generate_dataset(3, 2, "faulted", geometry=default_geometry(n_t=200)):
        assert np.isfinite(rec.data).all()


class TestDifferential:
    def _geom(self, n_t=300, sources=(34,)):
        return AcquisitionGeometry(source_cols=sources, receiver_cols=tuple(range(70)),
                                   n_t=n_t, dt=DT_FAST, f0=15.0)

    def _pair(self):
        bg = np.full((70, 70), 3000.0, np.float32)
        bg[40:, :] = 3600.0
        roi = bg.copy()
        roi[25:45, 5:25] = 1800.0
        return VelocityModel(grid=roi), VelocityModel(grid=bg)

    def test_zero_contrast_is_zero(self):
        vm = homogeneous()
        rec = differential_waveform(vm, vm, self._geom(n_t=80))
        np.testing.assert_array_equal(rec.data, np.zeros_like(rec.data))

    def test_mirrored_roi_mirrors_record(self):
        roi, bg = self._pair()
        geom = self._geom()
        diff = differential_waveform(roi, bg, geom)
        roi_m = VelocityModel(grid=roi.grid[:, ::-1].copy())
        bg_m = VelocityModel(grid=bg.grid[:, ::-1].copy())
        geom_m = self._geom(sources=(69 - 34,))
        diff_m = differential_waveform(roi_m, bg_m, geom_m)
        scale = float(np.abs(diff.data).max())
        assert scale > 0
        assert np.abs(diff_m.data - diff.data[:, :, ::-1]).max() <= 1e-5 * scale

    def test_left_roi_reaches_right_receivers(self):
        roi, bg = self._pair()
        diff = differential_waveform(roi, bg, self._geom(n_t=1000))
        right_energy = float((diff.data[:, :, 35:].astype(np.float64) ** 2).sum())
        total = float((diff.data.astype(np.float64) ** 2).sum())
        assert right_energy / total > 0.02

    def test_geometry_mismatch(self):
        small = VelocityModel(grid=np.full((60, 60), 2000.0, np.float32))
        with pytest.raises(ShapeError):
            differential_waveform(homogeneous(), small, self._geom())


class TestEnergyDistribution:
    def test_point_mass(self):
        data = np.zeros((1, 4, 70), np.float32)
        data[0, 1, 3] = 2.0
        ed = energy_distribution(WaveformRecord(data=data), [(0, 35), (35, 70)])
        assert ed.group_fractions == (1.0, 0.0)
        ed_single = energy_distribution(
            WaveformRecord(data=data), [(i, i + 1) for i in range(70)]
        )
        assert ed_single.group_fractions[3] == 1.0

    def test_mirror_symmetric_split(self):
        geom = AcquisitionGeometry(source_cols=(15, 54), receiver_cols=tuple(range(70)),
                                   n_t=400, dt=DT_FAST, f0=15.0)
        rec = simulate(homogeneous(), geom)
        ed = energy_distribution(rec, [(0, 35), (35, 70)])
        assert abs(ed.group_fractions[0] - 0.5) <= 1e-6
        assert abs(sum(ed.group_fractions) - 1.0) <= 1e-9

    def test_left_roi_left_fraction_dominates(self):
        bg = np.full((70, 70), 3000.0, np.float32)
        bg[40:, :] = 3600.0
        roi = bg.copy()
        roi[25:45, 5:25] = 1800.0
        geom = AcquisitionGeometry(source_cols=(34,), receiver_cols=tuple(range(70)),
                                   n_t=1000, dt=DT_FAST, f0=15.0)
        diff = differential_waveform(VelocityModel(grid=roi), VelocityModel(grid=bg), geom)
        ed = energy_distribution(diff, [(0, 35), (35, 70)])
        assert ed.group_fractions[0] > 0.5

    def test_zero_record_rejected(self):
        rec = WaveformRecord(data=np.zeros((1, 4, 70), np.float32))
        with pytest.raises(ZeroEnergyError):
            energy_distribution(rec, [(0, 70)])

    def test_bad_partition_rejected(self):
        rec = WaveformRecord(data=np.ones((1, 2, 70), np.float32))
        with pytest.raises(PartitionError):
            energy_distribution(rec, [(0, 30), (40, 70)])

    @pytest.mark.parametrize("groups", [[(0, 30), (30, 60)], [(0, 35), (35, 35), (35, 70)]])
    def test_short_or_empty_group_rejected(self, groups):
        rec = WaveformRecord(data=np.ones((1, 2, 70), np.float32))
        with pytest.raises(PartitionError):
            energy_distribution(rec, groups)

    def test_groups_may_be_any_iterable(self):
        rec = WaveformRecord(data=np.ones((1, 2, 70), np.float32))
        ed = energy_distribution(rec, ((a, a + 35) for a in (0, 35)))
        assert ed.group_fractions == (0.5, 0.5)

    @staticmethod
    def _whole_record(data, ranges):
        """The sums over one float64 copy of the whole record, as
        energy_distribution computed them before it summed in blocks."""
        per_receiver = (data.astype(np.float64) ** 2).sum(axis=(0, 1))
        total = per_receiver.sum()
        return per_receiver, tuple(float(per_receiver[a:b].sum() / total) for a, b in ranges)

    @given(n_src=st.integers(1, 5),
           n_t=st.integers(1, 3 * physics._ENERGY_ROWS + 7) | st.sampled_from([256, 1000]),
           n_rcv=st.integers(1, 80), n_groups=st.integers(1, 5),
           log_scale=st.floats(-8, 8), seed=st.integers(0, 2**32 - 1))
    # a single receiver, whose one column numpy sums pairwise
    @example(n_src=3, n_t=700, n_rcv=1, n_groups=1, log_scale=0.0, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_block_sums_equal_whole_record_sums(self, n_src, n_t, n_rcv, n_groups, log_scale,
                                                seed):
        # rows = n_src * n_t, which is rarely a multiple of the block
        rng = np.random.default_rng(seed)
        data = (rng.normal(size=(n_src, n_t, n_rcv)) * 10.0**log_scale).astype(np.float32)
        groups = partition_receivers(n_rcv, min(n_groups, n_rcv))
        ed = energy_distribution(WaveformRecord(data=data), groups)
        per_receiver, fractions = self._whole_record(data, groups)
        assert ed.per_receiver.tobytes() == per_receiver.tobytes()
        assert np.array(ed.group_fractions).tobytes() == np.array(fractions).tobytes()

    @pytest.mark.parametrize("n_t", [1000, 4000])
    def test_work_memory_is_one_block(self, n_t):
        data = np.random.default_rng(3).normal(size=(5, n_t, 70)).astype(np.float32)
        rec = WaveformRecord(data=data)
        groups = partition_receivers(70, 5)
        assert traced_peak(lambda: energy_distribution(rec, groups)) <= (1 << 20) // 4


class TestGenerateDataset:
    def test_deterministic(self):
        geom = default_geometry(n_t=60)
        a = generate_dataset(5, 2, "layered", geometry=geom)
        b = generate_dataset(5, 2, "layered", geometry=geom)
        for (vma, reca), (vmb, recb) in zip(a, b):
            np.testing.assert_array_equal(vma.grid, vmb.grid)
            np.testing.assert_array_equal(reca.data, recb.data)

    def test_negative_seed_rejected_before_any_simulation(self, monkeypatch):
        def simulated(*args):
            raise AssertionError("a sample was simulated")

        monkeypatch.setattr(physics, "simulate", simulated)
        with pytest.raises(InputValidationError, match="seed must be >= 0, got -1"):
            generate_dataset(-1, 1, geometry=default_geometry(n_t=20))

    def test_velocities_in_range(self):
        geom = default_geometry(n_t=40)
        for family in ("layered", "faulted"):
            for vm, _ in generate_dataset(11, 3, family, geometry=geom):
                assert float(vm.grid.min()) >= 1500.0
                assert float(vm.grid.max()) <= 4500.0

    def test_layered_columns_constant(self):
        geom = default_geometry(n_t=40)
        for vm, _ in generate_dataset(2, 2, "layered", geometry=geom):
            np.testing.assert_array_equal(vm.grid, np.tile(vm.grid[:, :1], (1, 70)))

    def test_faulted_has_lateral_variation(self):
        geom = default_geometry(n_t=40)
        varied = [
            bool((vm.grid != np.tile(vm.grid[:, :1], (1, 70))).any())
            for vm, _ in generate_dataset(4, 3, "faulted", geometry=geom)
        ]
        assert any(varied)

    def test_unknown_family(self):
        with pytest.raises(InputValidationError):
            generate_dataset(1, 1, "swirly")

    def test_dataset_files_round_trip(self, tmp_path):
        geom = default_geometry(n_t=50)
        samples = generate_dataset(9, 2, "layered", geometry=geom)
        save_dataset(samples, tmp_path / "ds", seed=9, family="layered", geometry=geom)
        loaded, manifest = load_dataset(tmp_path / "ds")
        assert manifest["seed"] == 9
        assert manifest["geometry"]["n_t"] == 50
        for (vma, reca), (vmb, recb) in zip(samples, loaded):
            np.testing.assert_array_equal(vma.grid, vmb.grid)
            np.testing.assert_array_equal(reca.data, recb.data)

    def test_dataset_keeps_the_samples_dx(self, tmp_path):
        geom = default_geometry(n_receivers=20, n_t=20, dx=5.0)
        samples = generate_dataset(9, 1, "layered", rows=20, cols=20, geometry=geom, dx=5.0)
        save_dataset(samples, tmp_path / "ds", seed=9, family="layered", geometry=geom)
        loaded, manifest = load_dataset(tmp_path / "ds")
        assert manifest["dx"] == 5.0
        assert [vm.dx for vm, _ in loaded] == [5.0]

    def test_mixed_dx_rejected(self, tmp_path):
        geom = default_geometry(n_receivers=20, n_t=20)
        (vm, rec), = generate_dataset(9, 1, "layered", rows=20, cols=20, geometry=geom)
        samples = [(vm, rec), (dataclasses.replace(vm, dx=5.0), rec)]
        with pytest.raises(InputValidationError, match=r"one grid spacing dx, got \[5.0, 10.0\]"):
            save_dataset(samples, tmp_path / "ds", seed=9, family="layered", geometry=geom)
        assert not (tmp_path / "ds").exists()


def _per_shot_reference(vm, geom):
    """The leapfrog loop stepping one shot at a time on 2-D slices."""
    pad = SPONGE_CELLS
    vp = np.pad(vm.grid.astype(np.float64), pad, mode="edge")
    coef = (vp * geom.dt / vm.dx) ** 2
    damp = np.outer(_sponge_taper(vp.shape[0], pad), _sponge_taper(vp.shape[1], pad))
    wavelet = geom.amplitude * ricker_wavelet(geom.f0, geom.n_t, geom.dt) * geom.dt**2
    rcv_cols = np.asarray(geom.receiver_cols) + pad
    records = np.empty((len(geom.source_cols), geom.n_t, len(rcv_cols)), dtype=np.float32)
    for s, src_col in enumerate(geom.source_cols):
        cur, prev, lap = np.zeros(vp.shape), np.zeros(vp.shape), np.zeros(vp.shape)
        for t in range(geom.n_t):
            lap[1:-1, 1:-1] = (cur[:-2, 1:-1] + cur[2:, 1:-1] + cur[1:-1, :-2] + cur[1:-1, 2:]
                               - 4.0 * cur[1:-1, 1:-1])
            nxt = 2.0 * cur - prev + coef * lap
            nxt[pad, pad + src_col] += wavelet[t]
            nxt *= damp
            cur *= damp
            records[s, t] = nxt[pad, rcv_cols].astype(np.float32)
            prev, cur = cur, nxt
    return records


class TestSimulateBits:
    """Pinned record bytes: a rewrite of the time stepping must keep every bit.

    The digests were taken from the one-shot-at-a-time leapfrog loop. The
    stepping is plain IEEE float64 arithmetic (no BLAS, no reductions), so
    the bytes do not depend on the machine.
    """

    DT_ODD = 0.4 * 10.0 / 3000.0
    DIGESTS = {
        "layered": "3c7f766a37a8ac9da8832934841537b1c79037c85dd7af6683e71361a0b22e0c",
        "faulted": "3e5300e3f4dec1e867fdfcc39c1cd7307d6c62690596055b27f0fbe0925708aa",
        "one_shot": "8863ee03f66faeee1bb43d49c97b1b7710d04186d84311f100058ce60635c24a",
        "repeated": "08a19242179d23b64dcfbb8cc169c43cb54034d7265015ea1198269f99b966fa",
    }

    @staticmethod
    def _odd_model():
        rng = np.random.default_rng(17)
        grid = rng.uniform(1500.0, 3000.0, size=(17, 33)).astype(np.float32)
        return VelocityModel(grid=grid, dx=10.0)

    def _record(self, case):
        if case in ("layered", "faulted"):
            seed = 21 if case == "layered" else 22
            return generate_dataset(seed, 1, case, geometry=default_geometry())[0][1]
        # non-square grid; unsorted receivers with repeats, edge columns included
        receivers = (30, 2, 2, 17, 0, 32)
        if case == "one_shot":
            geom = AcquisitionGeometry(source_cols=(7,), receiver_cols=receivers,
                                       n_t=300, dt=self.DT_ODD, f0=20.0)
        else:
            geom = AcquisitionGeometry(source_cols=(4, 4, 0, 32, 4), receiver_cols=receivers + (4,),
                                       n_t=300, dt=self.DT_ODD, f0=20.0, amplitude=2.5)
        return simulate(self._odd_model(), geom)

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_record_digest(self, case):
        data = self._record(case).data
        assert np.abs(data).max() > 0
        assert hashlib.sha256(data.tobytes()).hexdigest() == self.DIGESTS[case]

    @given(rows=st.integers(1, 12), cols=st.integers(1, 12), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_shot_loop(self, rows, cols, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        grid = np.random.default_rng(seed).uniform(1500.0, 4500.0, (rows, cols)).astype(np.float32)
        col = st.integers(0, cols - 1)
        geom = AcquisitionGeometry(
            source_cols=tuple(data.draw(st.lists(col, min_size=1, max_size=4))),
            receiver_cols=tuple(data.draw(st.lists(col, min_size=1, max_size=6))),
            n_t=data.draw(st.integers(1, 60)), dt=0.45 * 10.0 / 4500.0,
            amplitude=data.draw(st.sampled_from([1.0, -2.5, 0.0])),
        )
        vm = VelocityModel(grid=grid, dx=10.0)
        expected = _per_shot_reference(vm, geom)
        assert simulate(vm, geom).data.tobytes() == expected.tobytes()

    def test_each_shot_equals_one_source_run(self):
        vm = generate_dataset(23, 1, "faulted", geometry=default_geometry(n_t=120))[0][0]
        geom = default_geometry(n_t=120)
        rec = simulate(vm, geom)
        for s, col in enumerate(geom.source_cols):
            one = dataclasses.replace(geom, source_cols=(col,))
            np.testing.assert_array_equal(simulate(vm, one).data[0], rec.data[s])

    def test_repeated_sources_give_repeated_shots(self):
        rec = self._record("repeated").data
        np.testing.assert_array_equal(rec[0], rec[1])
        np.testing.assert_array_equal(rec[0], rec[4])
        np.testing.assert_array_equal(rec[:, :, 1], rec[:, :, 2])


class TestManifestErrors:
    """A malformed dataset manifest, or a tensor file that does not load
    as its sample, raises DatasetError naming the manifest and pointer."""

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("manifest")
        geom = default_geometry(n_t=20)
        samples = generate_dataset(4, 2, "layered", geometry=geom)
        save_dataset(samples, root, seed=4, family="layered", geometry=geom)
        return root

    def _broken(self, dataset, tmp_path, edit):
        for f in dataset.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        doc = json.loads((dataset / "manifest.json").read_text())
        bad = edit(doc)
        if not isinstance(bad, (str, bytes)):
            bad = json.dumps(bad)
        if isinstance(bad, str):
            bad = bad.encode()
        (tmp_path / "manifest.json").write_bytes(bad)
        return tmp_path

    @pytest.mark.parametrize("edit, pointer", [
        (lambda doc: "{not json", "is not valid JSON"),
        (lambda doc: b"\xff\xfe{}", "is not valid JSON"),
        (lambda doc: [doc], "/: expected an object, got list"),
        (lambda doc: {k: v for k, v in doc.items() if k != "files"}, "/files: missing"),
        (lambda doc: dict(doc, files={"0": doc["files"][0]}), "/files: expected a list, got dict"),
        (lambda doc: dict(doc, dx="ten"), "/dx: expected float, got str"),
        (lambda doc: dict(doc, dx=0), "/dx: must be positive, got 0.0"),
        (lambda doc: dict(doc, dx=True), "/dx: expected float, got bool"),
        (lambda doc: json.dumps(dict(doc, dx=10 ** 400)), "/dx: must be finite, got inf"),
        (lambda doc: json.dumps(dict(doc, dx=float("nan"))), "/dx: must be finite, got nan"),
        (lambda doc: dict(doc, files=[doc["files"][0], 3]), "/files/1: expected an object, got int"),
        (lambda doc: dict(doc, files=doc["files"][:1]), "/n_samples: says 2 samples, but files lists 1"),
        (lambda doc: {k: v for k, v in doc.items() if k != "n_samples"}, "/n_samples: missing"),
        (lambda doc: dict(doc, files=[{"velocity": doc["files"][0]["velocity"]}]),
         "/files/0/waveform: missing"),
        (lambda doc: dict(doc, files=[dict(doc["files"][0], velocity=7)]),
         "/files/0/velocity: expected str, got int"),
        (lambda doc: dict(doc, n_samples=1,
                          files=[dict(doc["files"][0], velocity=doc["files"][0]["waveform"])]),
         "/files/0/velocity: sample_0000_waveform.tnsr: velocity grid must be 2-D"),
        (lambda doc: dict(doc, n_samples=1, files=[dict(doc["files"][0], waveform="manifest.json")]),
         "/files/0/waveform: manifest.json: "),
    ])
    def test_pointer_names_the_field(self, dataset, tmp_path, edit, pointer):
        root = self._broken(dataset, tmp_path, edit)
        with pytest.raises(DatasetError) as info:
            load_dataset(root)
        message = str(info.value)
        assert message.startswith(f"manifest {root / 'manifest.json'}")
        assert pointer in message

    # every manifest key, and each file entry and its keys
    SITES = ([(k,) for k in ("dx", "family", "files", "geometry", "n_samples", "seed")]
             + [("files", i) for i in range(2)]
             + [("files", i, k) for i in range(2) for k in ("velocity", "waveform")])

    @pytest.fixture(scope="class")
    def fuzzed(self, dataset, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzzed")
        for f in dataset.iterdir():
            (root / f.name).write_bytes(f.read_bytes())
        return root

    @given(site=st.sampled_from(SITES), value=JSON)
    @example(site=("files", 0, "velocity"), value="v\x00.tnsr")
    @settings(max_examples=200, deadline=None)
    def test_any_value_loads_or_names_pointer(self, dataset, fuzzed, site, value):
        def read(doc):
            (fuzzed / "manifest.json").write_text(json.dumps(doc))
            try:
                load_dataset(fuzzed)
            except OSError:
                # a file name that names no file, as in test_missing_files_raise_os_error
                assert site[-1] in ("velocity", "waveform") and isinstance(value, str)

        doc = json.loads((dataset / "manifest.json").read_text())
        reads_or_points(read, DatasetError, put(doc, site, value),
                        f"manifest {fuzzed / 'manifest.json'}: ")

    def test_missing_files_raise_os_error(self, dataset, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path)
        root = self._broken(dataset, tmp_path, lambda doc: doc)
        (root / "sample_0001_waveform.tnsr").unlink()
        with pytest.raises(OSError, match="sample_0001_waveform"):
            load_dataset(root)

    def test_integral_dx_reads_as_float(self, dataset, tmp_path):
        root = self._broken(dataset, tmp_path, lambda doc: dict(doc, dx=10))
        samples, _ = load_dataset(root)
        assert len(samples) == 2 and samples[0][0].dx == 10.0

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_resealed_tensor_edits_load_exactly_or_name_pointer(self, dataset, fuzzed, data):
        i = data.draw(st.integers(0, 1))
        key = data.draw(st.sampled_from(["velocity", "waveform"]))
        name = f"sample_{i:04d}_{key}.tnsr"
        blob = resealed_tensor_edit(data.draw, (dataset / name).read_bytes())
        for f in dataset.iterdir():
            (fuzzed / f.name).write_bytes(blob if f.name == name else f.read_bytes())
        t0 = time.perf_counter()
        try:
            samples, _ = load_dataset(fuzzed)
        except DatasetError as exc:
            assert f"/files/{i}/{key}: " in str(exc)
        else:
            vm, rec = samples[i]
            assert tensor_to_bytes(vm.grid if key == "velocity" else rec.data) == blob
        finally:  # leave the shared copy whole for the manifest fuzz
            (fuzzed / name).write_bytes((dataset / name).read_bytes())
        assert time.perf_counter() - t0 < 1.0
