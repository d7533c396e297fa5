import hashlib
import math
import random
import re
import tracemalloc

import pytest

from vbrsim import scenarios
from vbrsim.engine import download_time, load_log_jsonl, run_session, save_log_jsonl
from vbrsim.metrics import compute_stats
from vbrsim.model import ClientConfig, VideoManifest, save_manifest
from vbrsim.scenarios import (
    BURST_PERIOD,
    LADDER_PRESETS,
    MODEL_ERROR,
    LadderSpec,
    gen_rect_bandwidth,
    gen_vbr_ladder,
    ladder_preset,
)


def small_spec(**overrides):
    values = dict(
        qps=(42, 34, 28),
        target_avg_bitrates=(400e3, 1000e3, 2200e3),
        segment_count=50,
        segment_duration=2.0,
        burstiness=0.3,
        seed=123,
    )
    values.update(overrides)
    return LadderSpec(**values)


class TestRectBandwidth:
    def test_alternating_breakpoints(self):
        trace = gen_rect_bandwidth(2.5e6, 0.5e6, 100, 100, 400)
        assert trace.breakpoints == (
            (0.0, 2.5e6),
            (100.0, 0.5e6),
            (200.0, 2.5e6),
            (300.0, 0.5e6),
        )

    def test_low_period_covering_rest(self):
        trace = gen_rect_bandwidth(2.5e6, 0.5e6, 100, 400, 400)
        assert trace.breakpoints == ((0.0, 2.5e6), (100.0, 0.5e6))
        assert download_time(trace, 10_000, 0.5e6 * 0.5, 0.0) == 0.5

    def test_equal_levels_is_constant(self):
        trace = gen_rect_bandwidth(1e6, 1e6, 50, 50, 200)
        for t in (0, 49, 50, 120, 500):
            assert download_time(trace, t, 1e6 * 0.5, 0.0) == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="^high must be a finite number > 0, got 0$"):
            gen_rect_bandwidth(0, 1e6, 10, 10, 100)
        with pytest.raises(ValueError, match="^total must be a finite number > 0, got 0$"):
            gen_rect_bandwidth(1e6, 1e6, 10, 10, 0)

    def test_rejects_an_int_too_large_for_a_float(self):
        # 10**400 is finite as an int but overflows once made a float
        with pytest.raises(ValueError, match="high must be a finite number > 0"):
            gen_rect_bandwidth(10**400, 1e5, 10, 10, 100)


class TestVbrLadder:
    def test_zero_burstiness_is_cbr_at_targets(self):
        m = gen_vbr_ladder(small_spec(burstiness=0.0))
        for k, target in enumerate(small_spec().target_avg_bitrates, start=1):
            sizes = set(m.segment_sizes[k - 1])
            assert len(sizes) == 1
            assert sizes.pop() == round(target * 2.0)

    def test_deterministic_for_seed(self):
        assert gen_vbr_ladder(small_spec()) == gen_vbr_ladder(small_spec())
        assert gen_vbr_ladder(small_spec()) != gen_vbr_ladder(small_spec(seed=124))

    def test_empirical_means_hit_targets(self):
        spec = ladder_preset("sony-like", seed=7)
        m = gen_vbr_ladder(spec)
        for k, target in enumerate(spec.target_avg_bitrates, start=1):
            mean = sum(m.segment_sizes[k - 1]) / spec.segment_count / 2.0
            assert mean == pytest.approx(target, rel=0.01)

    def test_versions_share_one_shape(self, monkeypatch):
        # without the per-version noise every version is the top version's
        # shape scaled to its own target mean
        monkeypatch.setattr(scenarios, "MODEL_ERROR", 0.0)
        spec = small_spec()
        m = gen_vbr_ladder(spec)
        top_sizes = m.segment_sizes[-1]
        top_target = spec.target_avg_bitrates[-1]
        for sizes, target in zip(m.segment_sizes, spec.target_avg_bitrates):
            for size, top_size in zip(sizes, top_sizes):
                assert size == pytest.approx(top_size * target / top_target, rel=1e-5)

    def test_burst_segments_stand_out(self):
        m = gen_vbr_ladder(small_spec(burstiness=0.2, segment_count=100))
        sizes = m.segment_sizes[2]
        non_burst = [s for i, s in enumerate(sizes) if i % BURST_PERIOD != 0]
        burst = [s for i, s in enumerate(sizes) if i % BURST_PERIOD == 0]
        assert min(burst) > sum(non_burst) / len(non_burst)

    def test_presets_have_six_versions_and_qp_ladder(self):
        for name in LADDER_PRESETS:
            spec = ladder_preset(name)
            assert spec.qps == (48, 42, 38, 34, 28, 22)
            m = gen_vbr_ladder(spec, title=name)
            assert m.num_versions == 6
            assert m.num_segments == 300

    def test_preset_overrides(self):
        spec = ladder_preset("sony-like", segment_count=40, seed=9)
        assert spec.segment_count == 40
        assert spec.seed == 9

    def test_unknown_preset(self):
        message = "preset must be one of ['sony-like', 'terminator-like'], got 'mystery'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ladder_preset("mystery")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"qps": (), "target_avg_bitrates": ()},
            {"qps": (42, 34)},
            {"qps": (28, 34, 42)},
            {"target_avg_bitrates": (2200e3, 1000e3, 400e3)},
            {"segment_count": 0},
            {"burstiness": -0.1},
            {"burstiness": float("nan")},
            {"segment_duration": 0},
            {"burstiness": float("inf")},
            {"burstiness": 1e200},  # its square overflows the log-normal variance
            {"segment_duration": float("nan")},
            {"target_avg_bitrates": (400e3, 1000e3, float("inf"))},
            {"segment_count": scenarios.MAX_LADDER_SEGMENTS + 1},
            {"burstiness": "x"},
            {"burstiness": None},
            {"burstiness": True},  # not taken as a cv of 1.0
            {"qps": ("a", 34, 28)},
            {"qps": (), "target_avg_bitrates": (400e3, 1000e3, 2200e3)},
        ],
    )
    def test_invalid_specs(self, overrides):
        # LadderSpec, or the VideoManifest that gen_vbr_ladder builds from it,
        # refuses each, naming a field
        with pytest.raises(ValueError) as info:
            gen_vbr_ladder(small_spec(**overrides))
        named = ("qp", "target bitrate", "segment_count", "segment_duration", "burstiness")
        assert any(field in str(info.value) for field in named), info.value

    @pytest.mark.parametrize(
        "qps, message",
        [
            (("a", 34, 28), "version 1: qp must be an int in 0..63, got 'a'"),
            ((42, 34, 64), "version 3: qp must be an int in 0..63, got 64"),
            (
                (28, 34, 42),
                "qp must strictly decrease with version index (version 1 qp=28, version 2 qp=34)",
            ),
        ],
    )
    def test_qps_are_refused_at_construction(self, qps, message):
        # before any segment is generated, in VideoManifest's wording
        with pytest.raises(ValueError) as info:
            small_spec(qps=qps)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "bitrates, version",
        [((1e5, math.nan, 3e5), 2), ((1e5, 2e5, 10**400), 3)],
        ids=["nan", "huge-int"],
    )
    def test_a_target_bitrate_is_refused_by_its_version(self, bitrates, version):
        # named like a bad QP or segment size
        with pytest.raises(ValueError) as info:
            small_spec(target_avg_bitrates=bitrates)
        bad = bitrates[version - 1]
        message = f"version {version}: target bitrate must be a finite number > 0, got {bad!r}"
        assert str(info.value) == message

    @pytest.mark.parametrize("qps", [(), (42,)])
    def test_a_spec_and_a_manifest_refuse_too_few_versions_alike(self, qps):
        # model.check_qps owns the version count, so both raise its one message
        with pytest.raises(ValueError) as spec_info:
            small_spec(qps=qps, target_avg_bitrates=(400e3,) * len(qps))
        with pytest.raises(ValueError) as manifest_info:
            VideoManifest("few", 2.0, qps, ((100,),) * len(qps))
        message = f"qps must name at least 2 versions, got {len(qps)}"
        assert str(spec_info.value) == str(manifest_info.value) == message

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"target_avg_bitrates": (400e3, 1000e3, 10**400)}, "target bitrate"),
            ({"segment_duration": 10**400}, "segment_duration"),
        ],
    )
    def test_rejects_an_int_too_large_for_a_float(self, overrides, field):
        # accepted before, then an OverflowError in gen_vbr_ladder
        with pytest.raises(ValueError, match=f"{field} must be a finite number > 0"):
            small_spec(**overrides)

    @pytest.mark.parametrize("burstiness", [0.3, 0.0])
    def test_size_overflow_names_segment_duration(self, burstiness):
        # a finite duration whose product with a bitrate is not a finite float
        spec = ladder_preset(
            "sony-like", segment_duration=1e304, segment_count=10, burstiness=burstiness
        )
        with pytest.raises(ValueError, match="segment_duration 1e\\+304 s"):
            gen_vbr_ladder(spec)


@pytest.mark.parametrize(
    "cv", [0.3, 1.0, MODEL_ERROR, 1e100], ids=["cv0.3", "cv1", "model-error", "large-sigma"]
)
def test_lognormals_are_the_stdlib_draws(cv):
    # the same values bit for bit, and the generator left in the same state
    mu, sigma = scenarios._lognormal_params(cv)
    for seed in (0, 7, 123):
        ours, ref = random.Random(seed), random.Random(seed)
        assert scenarios._lognormals(ours, mu, sigma, 0) == []
        assert ours.getstate() == ref.getstate()
        got = scenarios._lognormals(ours, mu, sigma, 2000)
        assert got == [ref.lognormvariate(mu, sigma) for _ in range(2000)]
        assert ours.getstate() == ref.getstate()


def test_save_manifest_peak_memory_is_below_the_file_size(tmp_path):
    # written one version at a time: rendering the whole document first
    # peaks at several times the file size
    manifest = gen_vbr_ladder(ladder_preset("sony-like", segment_count=20_000))
    path = tmp_path / "m.json"
    tracemalloc.start()
    try:
        save_manifest(manifest, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


@pytest.fixture(scope="module")
def long_log_path(tmp_path_factory):
    """A 20 000-segment sony-like AVG-30 log on a 1200/600 s rectangular trace."""
    manifest = gen_vbr_ladder(ladder_preset("sony-like", segment_count=20_000))
    trace = gen_rect_bandwidth(2500e3, 500e3, 1200.0, 600.0, 42_000.0)
    path = tmp_path_factory.mktemp("long") / "avg-30.jsonl"
    save_log_jsonl(run_session(manifest, trace, ClientConfig(window_n=30)), path)
    return path


def test_load_log_jsonl_peaks_less_than_2_mib_above_the_log(long_log_path):
    # the records are built once from the checked columns, so only the ten
    # column lists, about 1.6 MiB here, are held beside the log
    tracemalloc.start()
    try:
        log = load_log_jsonl(long_log_path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log.records) == 20_000
    assert peak - held < 2 * 2**20, (peak, held)


def test_compute_stats_peaks_less_than_0_6_mib_above_its_input(long_log_path):
    # the records are read in place, one column list at a time, and the
    # scaled ints of a standard deviation are summed as they are made
    log = load_log_jsonl(long_log_path)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        compute_stats(log, warmup_exclude=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 0.6 * 2**20, (peak, start)


def test_gen_vbr_ladder_holds_one_version_of_floats_at_a_time():
    # each version's bitrates become its sizes before the next version is
    # drawn, so no more than one version's floats are held beside the manifest
    spec = ladder_preset("sony-like", segment_count=20_000)
    tracemalloc.start()
    try:
        manifest = gen_vbr_ladder(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert manifest.num_segments == 20_000
    assert peak < 1.5 * held, (peak, held)


# sha256 of the manifest file each preset writes at 300 segments, by
# (preset, seed, burstiness): the generator is deterministic, so any change
# here changes every run built on a generated ladder.
MANIFEST_SHA256 = {
    ("sony-like", 0, 0.0): "40d460fdb29e02fc16df821ef3c28b229fb7cae76812eeaa771f48efe87f02c7",
    ("sony-like", 0, 0.3): "fbcbb99aacac10142881309c09c7d88acef755f6dfbbfc1ffaac66673948bb93",
    ("sony-like", 0, 1.0): "640f6c8d40a528a7e5ee0aeb9c8c89967584aba4c8faea110e9c943153e109ff",
    ("sony-like", 7, 0.0): "40d460fdb29e02fc16df821ef3c28b229fb7cae76812eeaa771f48efe87f02c7",
    ("sony-like", 7, 0.3): "3b22a773e62dd4187e6f96cd714da486e157cb92e17807c1f30885451767edfa",
    ("sony-like", 7, 1.0): "777efc22033e04f956a9244a4601cbf18aa7b627ec78e91ffec2cc4df14b4320",
    ("terminator-like", 0, 0.0): "a7c6ccedd0e9dad59e16c997e7dd5c77ccea9005948e1728bd11681b0ea16583",
    ("terminator-like", 0, 0.3): "a3a7487ca0696e9f5903be75a11d98e3b130503579039916417e31528f8fcb7a",
    ("terminator-like", 0, 1.0): "75a42ec92c908dc5000496c8392db10239f05e9b650658fbccbef0bad7e5758d",
    ("terminator-like", 7, 0.0): "a7c6ccedd0e9dad59e16c997e7dd5c77ccea9005948e1728bd11681b0ea16583",
    ("terminator-like", 7, 0.3): "168fd40beef9b00f1fe0f3332dc8022c6f5a4ab1cf78956d8d52c2c3d4c0a736",
    ("terminator-like", 7, 1.0): "aac9088c653c542b51e23ca5893b5207f6b56a987f53e3d176fb7b187465e401",
}


def test_preset_manifests_write_recorded_bytes(tmp_path):
    written = {}
    for preset, seed, burstiness in MANIFEST_SHA256:
        path = tmp_path / f"{preset}-{seed}-{burstiness}.json"
        spec = ladder_preset(preset, seed=seed, burstiness=burstiness)
        save_manifest(gen_vbr_ladder(spec, title=preset), path)
        written[preset, seed, burstiness] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert written == MANIFEST_SHA256
