import hashlib

import pytest

from vbrsim import scenarios
from vbrsim.model import bandwidth_at, save_manifest
from vbrsim.scenarios import (
    BURST_PERIOD,
    LADDER_PRESETS,
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
        assert bandwidth_at(trace, 10_000) == 0.5e6

    def test_equal_levels_is_constant(self):
        trace = gen_rect_bandwidth(1e6, 1e6, 50, 50, 200)
        for t in (0, 49, 50, 120, 500):
            assert bandwidth_at(trace, t) == 1e6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gen_rect_bandwidth(0, 1e6, 10, 10, 100)
        with pytest.raises(ValueError):
            gen_rect_bandwidth(1e6, 1e6, 10, 10, 0)


class TestVbrLadder:
    def test_zero_burstiness_is_cbr_at_targets(self):
        m = gen_vbr_ladder(small_spec(burstiness=0.0))
        for k, target in enumerate(small_spec().target_avg_bitrates, start=1):
            sizes = set(m.versions[k - 1].segment_sizes)
            assert len(sizes) == 1
            assert sizes.pop() == round(target * 2.0)

    def test_deterministic_for_seed(self):
        assert gen_vbr_ladder(small_spec()) == gen_vbr_ladder(small_spec())
        assert gen_vbr_ladder(small_spec()) != gen_vbr_ladder(small_spec(seed=124))

    def test_empirical_means_hit_targets(self):
        spec = ladder_preset("sony-like", seed=7)
        m = gen_vbr_ladder(spec)
        for k, target in enumerate(spec.target_avg_bitrates, start=1):
            mean = sum(m.versions[k - 1].segment_sizes) / spec.segment_count / 2.0
            assert mean == pytest.approx(target, rel=0.01)

    def test_versions_share_one_shape(self, monkeypatch):
        # without the per-version noise every version is the top version's
        # shape scaled to its own target mean
        monkeypatch.setattr(scenarios, "MODEL_ERROR", 0.0)
        spec = small_spec()
        m = gen_vbr_ladder(spec)
        top_sizes = m.versions[-1].segment_sizes
        top_target = spec.target_avg_bitrates[-1]
        for version, target in zip(m.versions, spec.target_avg_bitrates):
            for size, top_size in zip(version.segment_sizes, top_sizes):
                assert size == pytest.approx(top_size * target / top_target, rel=1e-5)

    def test_burst_segments_stand_out(self):
        m = gen_vbr_ladder(small_spec(burstiness=0.2, segment_count=100))
        sizes = m.versions[2].segment_sizes
        non_burst = [s for i, s in enumerate(sizes) if i % BURST_PERIOD != 0]
        burst = [s for i, s in enumerate(sizes) if i % BURST_PERIOD == 0]
        assert min(burst) > sum(non_burst) / len(non_burst)

    def test_presets_have_six_versions_and_qp_ladder(self):
        for name in LADDER_PRESETS:
            spec = ladder_preset(name)
            assert spec.num_versions == 6
            assert spec.qps == (48, 42, 38, 34, 28, 22)
            m = gen_vbr_ladder(spec, title=name)
            assert m.num_versions == 6
            assert m.num_segments == 300

    def test_preset_overrides(self):
        spec = ladder_preset("sony-like", segment_count=40, seed=9)
        assert spec.segment_count == 40
        assert spec.seed == 9

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
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
        ],
    )
    def test_invalid_specs(self, overrides):
        with pytest.raises(ValueError):
            small_spec(**overrides)


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
