import csv
import json
import math
import random
import re
import sys

import pytest
from tests_support import synthetic_log

from vbrsim.engine import download_time, load_log_jsonl, save_logs
from vbrsim.model import (
    POSITIVE,
    BandwidthTrace,
    ClientConfig,
    VideoManifest,
    load_manifest,
    load_trace,
    manifest_from_dict,
    save_manifest,
    save_trace,
    segment_size,
)
from vbrsim.scenarios import LadderSpec, gen_rect_bandwidth


def make_manifest(sizes_by_version=None, duration=2.0):
    if sizes_by_version is None:
        sizes_by_version = [(407540, 407540), (4000000, 4000000)]
    qps = tuple(range(48, 48 - 6 * len(sizes_by_version), -6))
    return VideoManifest(
        title="test", segment_duration=duration, qps=qps, segment_sizes=sizes_by_version
    )


class TestSegmentBitrate:
    def test_direct_division(self):
        m = make_manifest()
        assert m.segment_sizes[1][0] / m.segment_duration == 2_000_000.0

    def test_low_version_average_scale(self):
        # 407,540 bits over 2 s lands on the ~204 kbps ladder rung
        m = make_manifest()
        assert m.segment_sizes[0][1] / m.segment_duration == pytest.approx(203_770.0)

    def test_zero_size_rejected_at_construction(self):
        for bad in (0, math.nan, math.inf, -math.inf, "100", None):
            with pytest.raises(ValueError, match="size"):
                make_manifest([(bad, 100), (200, 200)])


class TestManifestInvariants:
    def test_needs_two_versions(self):
        for sizes in ([], [(100, 100)]):
            with pytest.raises(ValueError, match="^qps must name at least 2 versions, got"):
                make_manifest(sizes)

    def test_segment_counts_must_match(self):
        message = "all versions must have the same segment count, got {2, 3}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_manifest([(100, 100), (200, 200, 200)])
        with pytest.raises(ValueError, match="need one segment_sizes list per qp: 3 qps, 2 lists"):
            VideoManifest("bad", 2.0, qps=(48, 42, 38), segment_sizes=((100,), (200,)))

    def test_qp_must_decrease_with_index(self):
        message = "qp must strictly decrease with version index (version 1 qp=30, version 2 qp=30)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            VideoManifest("bad", 2.0, qps=(30, 30), segment_sizes=((100,), (200,)))
        for bad in ("30", 30.0, True, -1, 64, 2**70):
            with pytest.raises(ValueError, match="qp must be an int"):
                VideoManifest("bad", 2.0, qps=(bad, 22), segment_sizes=((100,), (200,)))

    def test_qps_are_checked_before_the_sizes(self):
        # the QPs are refused for their order, though version 1 also holds a nan size
        with pytest.raises(ValueError, match="^qp must strictly decrease with version index"):
            VideoManifest("bad", 2.0, qps=(30, 30), segment_sizes=((math.nan,), (200,)))

    def test_indices_contiguous(self):
        # the version index exists only in the file format
        data = {
            "title": "bad",
            "segment_duration_s": 2.0,
            "size_unit": "bits",
            "versions": [
                {"index": 1, "qp": 48, "segment_sizes": [100]},
                {"index": 3, "qp": 42, "segment_sizes": [200]},
            ],
        }
        with pytest.raises(ValueError, match="contiguous indices"):
            manifest_from_dict(data)

    def test_duration_positive(self):
        for bad in (0, math.nan, math.inf, "2.0"):
            with pytest.raises(ValueError, match="segment_duration"):
                make_manifest(duration=bad)


class TestTracePieces:
    # How a trace is built into pieces, and which piece download_time reads.
    # With no RTT, half a second's worth of bits at bandwidth bw takes exactly
    # 0.5 s when the download starts and ends in a piece of bandwidth bw: this
    # checks download_time's right-continuous piece lookup.
    trace = BandwidthTrace(((0, 2.5e6), (100, 0.5e6)))

    def test_first_piece(self):
        assert download_time(self.trace, 50, 2.5e6 * 0.5, 0.0) == 0.5

    def test_boundary_belongs_to_new_piece(self):
        assert download_time(self.trace, 100, 0.5e6, 0.0) == 1.0

    def test_last_piece_extends_forever(self):
        assert download_time(self.trace, 250, 0.5e6 * 0.5, 0.0) == 0.5

    def test_before_time_0_the_first_piece_applies(self):
        # run_session never passes a time before 0
        assert download_time(self.trace, -1.0, 2.5e6 * 0.5, 0.0) == 0.5

    def test_ends_built_once_and_not_part_of_the_value(self):
        trace = BandwidthTrace(((0, 2.5e6), (100, 0.5e6)))
        assert trace.ends == (100.0, math.inf)
        assert trace.ends is trace.ends
        twin = BandwidthTrace(((0, 2.5e6), (100, 0.5e6)))
        assert trace == twin and hash(trace) == hash(twin) and repr(trace) == repr(twin)

    def test_right_continuous_at_every_breakpoint(self):
        rng = random.Random(4)
        starts = sorted(rng.sample(range(1, 1000), 20))
        trace = BandwidthTrace(
            tuple([(0.0, 1e6)] + [(float(s), rng.uniform(1e5, 1e7)) for s in starts])
        )
        for t, bw in trace.breakpoints:
            assert download_time(trace, t, bw * 0.5, 0.0) == 0.5

    def test_invalid_traces(self):
        with pytest.raises(ValueError, match="^breakpoint 0: time must be 0, got 1.0$"):
            BandwidthTrace(((1.0, 1e6),))
        with pytest.raises(ValueError, match="^breakpoint 2: time must be > 5.0, got 5.0$"):
            BandwidthTrace(((0.0, 1e6), (5.0, 2e6), (5.0, 3e6)))
        with pytest.raises(ValueError, match="^breakpoint 2: time must be > 5, got 3$"):
            BandwidthTrace(((0, 1e6), (5, 2e6), (3, 3e6)))
        with pytest.raises(ValueError, match="^trace needs at least one breakpoint$"):
            BandwidthTrace(())
        # the time rule, NUMBER; the bandwidth rule, POSITIVE, is in the grid below
        for bad in (math.nan, math.inf, 10**400, None, True, "1"):
            with pytest.raises(ValueError, match="^breakpoint 1: time must be a finite number, got"):
                BandwidthTrace(((0.0, 1e6), (bad, 2e6)))
        with pytest.raises(ValueError, match="^breakpoint 0: bandwidth must be"):
            BandwidthTrace(((0, None),))

    def test_values_are_stored_as_floats(self):
        trace = BandwidthTrace([[0, 2_500_000], [100, 5e5]])
        assert trace.breakpoints == ((0.0, 2.5e6), (100.0, 5e5)) == tuple(trace.breakpoints)
        assert {type(v) for pair in trace.breakpoints for v in pair} == {float}
        assert type(trace.breakpoints[0]) is tuple and type(trace.ends[0]) is float


# each ClientConfig that is refused, and its full message
_INVALID_CONFIGS = [
    ({"beta_min": 50, "beta_max": 50}, "beta_min must be < beta_max 50, got 50"),
    ({"beta_min": 60, "beta_max": 50}, "beta_min must be < beta_max 50, got 60"),
    ({"beta_min": 0}, "beta_min must be a finite number > 0, got 0"),
    ({"window_n": 0}, f"window_n must be an int in 1..{sys.maxsize}, got 0"),
    ({"delta": 0}, "delta must be a finite number > 0, got 0"),
    ({"delta": 1.5}, "delta must be in (0, 1], got 1.5"),
    ({"theta": 0}, "theta must be a finite number > 0, got 0"),
    ({"rtt": -1}, "rtt must be a finite number >= 0, got -1"),
    ({"policy": "tbb"}, "policy must be one of ['avg', 'itb'], got 'tbb'"),
    ({"uptrend_gate": "other"}, "uptrend_gate must be one of ['prose', 'pseudocode'], got 'other'"),
    ({"theta": math.nan}, "theta must be a finite number > 0, got nan"),
    ({"theta": math.inf}, "theta must be a finite number > 0, got inf"),
    ({"rtt": math.nan}, "rtt must be a finite number >= 0, got nan"),
    ({"rtt": math.inf}, "rtt must be a finite number >= 0, got inf"),
    ({"beta_max": math.inf}, "beta_max must be a finite number > 0, got inf"),
    ({"beta_max": math.nan}, "beta_max must be a finite number > 0, got nan"),
    ({"beta_min": math.nan}, "beta_min must be a finite number > 0, got nan"),
    ({"window_n": 2.5}, f"window_n must be an int in 1..{sys.maxsize}, got 2.5"),
    ({"theta": "0.9"}, "theta must be a finite number > 0, got '0.9'"),
    ({"theta": 10**400}, f"theta must be a finite number > 0, got {10**400}"),
    ({"rtt": 10**400}, f"rtt must be a finite number >= 0, got {10**400}"),
    ({"beta_max": 10**400}, f"beta_max must be a finite number > 0, got {10**400}"),
]


class TestClientConfig:
    def test_defaults(self):
        cfg = ClientConfig()
        assert cfg.beta_min == 10.0
        assert cfg.beta_max == 50.0
        assert cfg.delta == 0.1
        assert cfg.theta == 1.05
        assert cfg.rtt == 0.040

    @pytest.mark.parametrize(
        "kwargs, message",
        _INVALID_CONFIGS,
        ids=[f"kwargs{i}" for i in range(len(_INVALID_CONFIGS))],
    )
    def test_invalid(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClientConfig(**kwargs)

    def test_wrong_types_name_the_field(self):
        bad = {
            "window_n": (2.5, True, "30"),
            "start_version": (1.0, False),
            "beta_min": ("10", True, None),
            "beta_max": ("50",),
            "delta": (True,),
            "theta": ("0.9", [1.05]),
            "rtt": (False,),
            "policy": (1, None),
            "uptrend_gate": (True,),
        }
        out_of_range = {
            "beta_min": 60.0,  # not below beta_max
            "window_n": sys.maxsize + 1,
            "rtt": -1.0,
            "delta": 2.0,
            "policy": "bogus",
            "uptrend_gate": "x",
        }
        for name, value in out_of_range.items():
            bad[name] += (value,)
        for name, values in bad.items():
            for value in values:
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    ClientConfig(**{name: value})
        assert ClientConfig(beta_min=5, beta_max=60, delta=1, theta=1, rtt=0) == ClientConfig(
            beta_min=5.0, beta_max=60.0, delta=1.0, theta=1.0, rtt=0.0
        )


class TestFileFormats:
    def test_manifest_round_trip(self, tmp_path):
        m = make_manifest([(407540, 500000, 380000), (4000000, 4400000, 3900000)])
        path = tmp_path / "m.json"
        save_manifest(m, path)
        assert load_manifest(path) == m

    def test_manifest_bytes_unit_converts(self):
        data = {
            "title": "b",
            "segment_duration_s": 2.0,
            "size_unit": "bytes",
            "versions": [
                {"index": 1, "qp": 48, "segment_sizes": [100]},
                {"index": 2, "qp": 42, "segment_sizes": [200]},
            ],
        }
        m = manifest_from_dict(data)
        assert m.segment_sizes == ((800,), (1600,))

    def test_manifest_missing_field_names_it(self):
        with pytest.raises(ValueError, match="missing field 'qp'"):
            manifest_from_dict(
                {
                    "title": "b",
                    "segment_duration_s": 2.0,
                    "size_unit": "bits",
                    "versions": [{"index": 1, "segment_sizes": [100]}],
                }
            )

    def test_manifest_bad_unit(self):
        with pytest.raises(ValueError, match="size_unit"):
            manifest_from_dict(
                {"title": "b", "segment_duration_s": 2.0, "size_unit": "kb", "versions": []}
            )

    def test_trace_round_trip(self, tmp_path):
        trace = BandwidthTrace(((0.0, 2.5e6), (100.0, 0.5e6), (200.0, 1.25e6)))
        path = tmp_path / "t.csv"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_trace_kbps_scaling(self, tmp_path):
        # a blank line in a trace is skipped
        path = tmp_path / "t.csv"
        path.write_text("time_s,bandwidth_kbps\n0,2500\n\n100,500\n\n")
        trace = load_trace(path)
        assert trace.breakpoints == ((0.0, 2_500_000.0), (100.0, 500_000.0))

    def test_trace_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,bw\n0,2500\n")
        with pytest.raises(ValueError, match="expected header 'time_s,bandwidth_kbps', got"):
            load_trace(path)

    def test_trace_bad_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,bandwidth_kbps\n0,abc\n")
        with pytest.raises(ValueError, match="line 2: could not convert string to float: 'abc'"):
            load_trace(path)

    def test_trace_lone_cr_refused_without_the_csv_hint(self, tmp_path):
        # csv's hint after its message is about opening a file in Python,
        # which the user of a trace file cannot act on
        path = tmp_path / "t.csv"
        path.write_bytes(b"time_s,bandwidth_kbps\r0,2500\r120,500\r")
        with pytest.raises(ValueError, match="^line 1: new-line character seen") as refusal:
            load_trace(path)
        assert "open the file" not in str(refusal.value)


@pytest.mark.parametrize(
    "load, text, place",
    [
        pytest.param(load_manifest, "{", "not valid JSON (", id="manifest-json"),
        pytest.param(load_manifest, "{}", "missing field 'title'", id="manifest-key"),
        pytest.param(
            load_manifest,
            '{"title": "b", "segment_duration_s": 2, "size_unit": "bits", "versions": [1]}',
            "versions[0]: expected a JSON object, got int", id="manifest-version",
        ),
        pytest.param(load_trace, "t,bw\n", "expected header", id="trace-header"),
        pytest.param(
            load_trace, "time_s,bandwidth_kbps\n0,x\n", "line 2: could not convert",
            id="trace-line",
        ),
        pytest.param(
            load_trace, "time_s,bandwidth_kbps\n5,2500\n", "breakpoint 0: time must be 0",
            id="trace-breakpoint",
        ),
        pytest.param(load_log_jsonl, "", "empty log file", id="log-empty"),
        pytest.param(
            load_log_jsonl, "[]\n", "header: expected a JSON object, got list", id="log-header"
        ),
        pytest.param(load_log_jsonl, "{\n", "line 1: malformed log (", id="log-line"),
    ],
)
def test_a_loader_names_the_place_in_the_file_not_the_file(tmp_path, load, text, place):
    # the CLI adds the file's name, as the command line gives it
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(ValueError) as refusal:
        load(path)
    assert str(refusal.value).startswith(place)


def _json_dump_manifest(manifest: VideoManifest, path) -> None:
    # the stdlib reference that save_manifest's bytes must equal
    data = {
        "title": manifest.title,
        "segment_duration_s": manifest.segment_duration,
        "size_unit": "bits",
        "versions": [
            {"index": k, "qp": qp, "segment_sizes": list(sizes)}
            for k, (qp, sizes) in enumerate(zip(manifest.qps, manifest.segment_sizes), start=1)
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _csv_writer_trace(trace: BandwidthTrace, path) -> None:
    # the stdlib reference that save_trace's bytes must equal
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "bandwidth_kbps"])
        for t, bw in trace.breakpoints:
            writer.writerow([t, bw / 1000.0])


_TITLES = (
    "sony-like",
    'a "quoted" title',
    "back\\slash",
    "tab\tnew\nline\x00\x1f\x7f",
    "caf\u00e9 \u2615 \u65e5\u672c \U0001f3ac",
    "lone \ud800 surrogate",
    "",
)
_SIZES = (1, 10**16 + 1, 2**53 + 1, 5e-324, 1e-05, 0.1, 1 / 3, 1e16, 1e300, 407540.0)
_DURATIONS = (2, 2.0, 0.5, 1 / 3, 5e-324, 10**15)


class TestWritersMatchTheStdlib:
    """save_manifest and save_trace write what json.dump and csv.writer do."""

    def test_manifest_bytes(self, tmp_path):
        def fits(size, duration):
            # the size rule: a bitrate, size / duration, finite and > 0
            return 0.0 < size / duration < math.inf

        # a size whose bitrate over its duration is not finite and > 0 is refused
        for duration in _DURATIONS:
            for size in _SIZES:
                if not fits(size, duration):
                    with pytest.raises(ValueError, match="^version 1 segment 0: size must be"):
                        VideoManifest("t", duration, (48, 42), ((size,), (1,)))

        rng = random.Random(15)

        def draw(duration):
            # a special size or a common one; where its bitrate is not finite
            # and > 0, a special size whose bitrate is
            if rng.random() < 0.3:
                size = rng.choice(_SIZES)
            else:
                size = rng.choice((rng.randint(1, 10**7), rng.uniform(1.0, 1e7)))
            if fits(size, duration):
                return size
            return rng.choice([size for size in _SIZES if fits(size, duration)])

        got, want = tmp_path / "got.json", tmp_path / "want.json"
        written = set()
        for case in range(60):
            versions = 2 + case % 7
            segments = 1 if case % 4 == 0 else rng.randint(2, 30)
            qps = sorted(rng.sample(range(64), versions), reverse=True)
            duration = _DURATIONS[case % len(_DURATIONS)]
            sizes = [[draw(duration) for _ in range(segments)] for _ in range(versions)]
            title = _TITLES[case % len(_TITLES)]
            m = VideoManifest(title, duration, qps, sizes)
            save_manifest(m, got)
            _json_dump_manifest(m, want)
            assert got.read_bytes() == want.read_bytes(), (title, qps, sizes)
            written.update(size for row in sizes for size in row)
        assert written.issuperset(_SIZES)

    def test_trace_bytes(self, tmp_path):
        rng = random.Random(15)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        special = BandwidthTrace(
            ((0.0, 1e-02), (1e-05, 100.0), (0.1, 1000 / 3), (1 / 3, 1e19), (1e16, 2.5e6))
        )
        traces = [special, BandwidthTrace(((0.0, 1.0),))]
        for _ in range(20):
            t, breakpoints = 0.0, []
            for _ in range(rng.randint(1, 50)):
                breakpoints.append((t, rng.lognormvariate(13.0, 2.0)))
                t += rng.expovariate(0.1)
            traces.append(BandwidthTrace(tuple(breakpoints)))
        for trace in traces:
            save_trace(trace, got)
            _csv_writer_trace(trace, want)
            assert got.read_bytes() == want.read_bytes(), trace


def _load_manifest_with(tmp_path, edit):
    data = {
        "title": "b",
        "segment_duration_s": 2.0,
        "size_unit": "bits",
        "versions": [
            {"index": 1, "qp": 48, "segment_sizes": [100, 100]},
            {"index": 2, "qp": 42, "segment_sizes": [200, 200]},
        ],
    }
    edit(data)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    return load_manifest(path)


def _load_log_with(tmp_path, edit):
    # a two-record log of 2 s segments; edit(header, records) changes it
    path = tmp_path / "log.jsonl"
    save_logs(synthetic_log([1, 2]), path, tmp_path / "log.csv")
    header, *records = map(json.loads, path.read_text().splitlines())
    edit(header, records)
    path.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *records]))
    return load_log_jsonl(path)


# The wording of the size rule of a 2 s segment, which the size readers use
SIZE = segment_size(2.0)[2]

# Every reader of the POSITIVE rule, and of the size rule built on it: how it
# reads a value, the field its message names and the rule's wording
POSITIVE_READERS = {
    "manifest-size": (
        lambda tmp, v: _load_manifest_with(
            tmp, lambda m: m["versions"][1]["segment_sizes"].__setitem__(1, v)
        ),
        "version 2 segment 1: size",
        SIZE,
    ),
    "log-size": (
        lambda tmp, v: _load_log_with(tmp, lambda h, r: r[1].update(size_bits=v)),
        "line 3: field 'size_bits'",
        SIZE,
    ),
    "manifest-duration": (
        lambda tmp, v: _load_manifest_with(tmp, lambda m: m.update(segment_duration_s=v)),
        "segment_duration",
        POSITIVE[2],
    ),
    "beta_min": (lambda tmp, v: ClientConfig(beta_min=v), "beta_min", POSITIVE[2]),
    "beta_max": (lambda tmp, v: ClientConfig(beta_max=v), "beta_max", POSITIVE[2]),
    "delta": (lambda tmp, v: ClientConfig(delta=v), "delta", POSITIVE[2]),
    "theta": (lambda tmp, v: ClientConfig(theta=v), "theta", POSITIVE[2]),
    "log-duration": (
        lambda tmp, v: _load_log_with(tmp, lambda h, r: h.update(segment_duration_s=v)),
        "line 1: field 'segment_duration_s'",
        POSITIVE[2],
    ),
    "trace-bandwidth": (
        lambda tmp, v: BandwidthTrace(((0.0, 1e6), (10.0, v))),
        "breakpoint 1: bandwidth",
        POSITIVE[2],
    ),
    "rect-high": (lambda tmp, v: gen_rect_bandwidth(v, 1e5, 10, 10, 100), "high", POSITIVE[2]),
    "ladder-target": (
        lambda tmp, v: LadderSpec((48, 42), (v, 1e6), 10, 2.0, 0.3, 0),
        "version 1: target bitrate",
        POSITIVE[2],
    ),
}


@pytest.mark.parametrize(
    "value",
    [True, "1", math.nan, math.inf, 10**400, 0, -1],
    ids=["true", "string", "nan", "inf", "huge-int", "zero", "negative"],
)
@pytest.mark.parametrize("reader", sorted(POSITIVE_READERS))
def test_every_positive_reader_refuses_the_same_values(tmp_path, reader, value):
    read, field, wording = POSITIVE_READERS[reader]
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {wording}, got {value!r}")):
        read(tmp_path, value)
