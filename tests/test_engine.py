import csv
import hashlib
import io
import json
import math
import random
import re
from bisect import bisect_right
from dataclasses import asdict, replace
from types import SimpleNamespace

import pytest

from tests_support import load_perfbench, synthetic_log
from vbrsim import policies
from vbrsim.engine import (
    _BLOCK,
    LOG_COLUMNS,
    SegmentRecord,
    download_time,
    load_log_jsonl,
    run_session,
    save_log_csv,
    save_log_jsonl,
    save_logs,
)
from vbrsim.estimators import EstimatorState
from vbrsim.metrics import compute_stats
from vbrsim.model import BandwidthTrace, ClientConfig, VideoManifest
from vbrsim.policies import decide
from vbrsim.scenarios import gen_rect_bandwidth, gen_vbr_ladder, ladder_preset

QPS6 = (48, 42, 38, 34, 28, 22)


def cbr_manifest(bitrates_kbps=(200, 400, 600, 1000, 2200, 5200), segments=60, duration=2.0):
    sizes = [(int(kbps * 1000 * duration),) * segments for kbps in bitrates_kbps]
    return VideoManifest("cbr", duration, QPS6[: len(bitrates_kbps)], sizes)


def constant_trace(bps):
    return BandwidthTrace(((0.0, bps),))


class TestDownloadTime:
    def test_constant_bandwidth(self):
        assert download_time(constant_trace(2.5e6), 0.0, 5e6, 0.0) == pytest.approx(2.0)

    def test_piecewise_integration(self):
        trace = BandwidthTrace(((0.0, 2e6), (1.0, 1e6)))
        assert download_time(trace, 0.0, 3e6, 0.0) == pytest.approx(2.0)

    def test_rtt_included(self):
        total = download_time(constant_trace(1e6), 0.0, 1e6, 0.04)
        assert total == pytest.approx(1.04)
        assert 1e6 / total == pytest.approx(961_538.46, abs=1)

    def test_rtt_spans_piece_boundary(self):
        # transfer only starts after the drop at t=1
        trace = BandwidthTrace(((0.0, 9e9), (1.0, 1e6)))
        assert download_time(trace, 0.9, 1e6, 0.1) == pytest.approx(1.1)

    def test_matches_numeric_integration(self):
        rng = random.Random(5)
        for _ in range(50):
            starts = [0.0] + sorted(rng.uniform(0.1, 60) for _ in range(rng.randint(1, 6)))
            trace = BandwidthTrace(tuple((s, rng.uniform(2e5, 8e6)) for s in starts))
            start = rng.uniform(0, 70)
            size = rng.uniform(1e5, 2e7)
            total = download_time(trace, start, size, 0.0)
            # crude Riemann check on a fine grid
            step = total / 20000
            acc = 0.0
            t = start
            for _ in range(20000):
                idx = max(i for i, s in enumerate(starts) if s <= t)
                acc += trace.breakpoints[idx][1] * step
                t += step
            assert acc == pytest.approx(size, rel=2e-3)

    def test_long_downloads_on_dense_trace_in_any_order(self):
        # thousands of ~1 s pieces, as in a measured mobile trace; every
        # download crosses over 100 of them, and the calls go back in time
        rng = random.Random(11)
        starts = [0.0]
        for _ in range(4999):
            starts.append(starts[-1] + rng.uniform(0.5, 1.5))
        trace = BandwidthTrace(tuple((s, rng.uniform(2e5, 4e6)) for s in starts))
        ends = starts[1:] + [math.inf]
        begins = sorted((rng.uniform(0, starts[-1] - 500) for _ in range(20)), reverse=True)
        for start in begins:
            rtt = rng.choice((0.0, 0.04))
            size = rng.uniform(3e8, 5e8)
            total = download_time(trace, start, size, rtt)
            assert total == download_time(BandwidthTrace(trace.breakpoints), start, size, rtt)
            # bits delivered, summed piece by piece over [start + rtt, start + total]
            t0, t1 = start + rtt, start + total
            overlaps = [
                (bw, min(end, t1) - max(s, t0))
                for (s, bw), end in zip(trace.breakpoints, ends)
                if min(end, t1) > max(s, t0)
            ]
            assert len(overlaps) >= 100
            assert sum(bw * dt for bw, dt in overlaps) == pytest.approx(size, rel=1e-9)

    def test_bit_for_bit_equal_to_the_max_loop(self):
        # the piece loop as it was written with max() and a len() per piece,
        # kept verbatim as the oracle: every float operation of download_time
        # must be the same, in the same order, so every value is the same bits
        def oracle(trace, start, size, rtt):
            t = start + rtt
            starts = trace.starts
            breakpoints = trace.breakpoints
            piece = bisect_right(starts, t) - 1
            remaining = size
            while True:
                bw = breakpoints[piece][1]
                finish = t + remaining / bw
                if piece + 1 >= len(breakpoints) or finish <= starts[piece + 1]:
                    return finish - start
                piece_end = starts[piece + 1]
                remaining = max(remaining - bw * (piece_end - t), 0.0)
                t = piece_end
                piece += 1

        rng = random.Random(29)
        rtts = (0.0, 0.04, 0.5)
        calls = []

        def any_size():
            return rng.choice((0.0, 5e-324, rng.lognormvariate(14.0, 1.5)))

        # the dense_trace workload's 20 000-piece Markov trace: starts anywhere,
        # on a breakpoint, and past the last one
        dense = load_perfbench("workloads").markov_trace(0)
        end = dense.starts[-1]
        for _ in range(40_000):
            start = rng.choice((rng.uniform(0.0, end + 50.0), rng.choice(dense.starts)))
            calls.append((dense, start, any_size(), rng.choice(rtts)))
        for _ in range(400):
            # random traces of 1 to 40 pieces, with integer or float starts
            t, breakpoints = 0, []
            integral = rng.random() < 0.5
            for _ in range(rng.randint(1, 40)):
                breakpoints.append((t, rng.lognormvariate(13.0, 1.5)))
                t += rng.randint(1, 20) if integral else rng.expovariate(0.2)
            trace = BandwidthTrace(tuple(breakpoints))
            starts, bws = trace.starts, [bw for _, bw in trace.breakpoints]
            for _ in range(75):
                start = rng.choice((rng.uniform(0.0, t + 5.0), rng.choice(starts)))
                calls.append((trace, start, any_size(), rng.choice(rtts)))
            # downloads sized to end at a piece end: the exact float product of
            # the pieces they cross, and a few ulps either side of it
            for _ in range(75):
                first = rng.randrange(len(starts))
                last = rng.randrange(first, len(starts))
                start = rng.choice((starts[first], rng.uniform(starts[first], t)))
                rtt = rng.choice(rtts)
                size, at = 0.0, start + rtt
                for k in range(bisect_right(starts, at) - 1, min(last + 1, len(starts) - 1)):
                    size += bws[k] * (starts[k + 1] - max(at, starts[k]))
                steps = rng.randint(-2, 2)
                for _ in range(abs(steps)):
                    size = math.nextafter(size, math.inf if steps > 0 else 0.0)
                calls.append((trace, start, max(size, 0.0), rtt))
        # integer starts and bandwidths: the download ends exactly on a
        # piece end, with no rounding anywhere
        trace = BandwidthTrace(tuple((t, 2 ** (t % 7 + 10)) for t in range(0, 60, 3)))
        for _ in range(5_000):
            first = rng.randrange(19)
            last = rng.randrange(first, 19)
            size = sum(trace.breakpoints[k][1] * 3 for k in range(first, last + 1))
            calls.append((trace, first * 3.0, float(size), 0.0))

        assert len(calls) >= 100_000
        wrong = [
            call
            for call in calls
            if repr(download_time(*call)) != repr(oracle(*call))
        ]
        assert not wrong, wrong[:3]


class TestRunSessionSteadyState:
    def test_reaches_top_version_and_saturates(self):
        m = cbr_manifest(segments=120)
        trace = constant_trace(12e6)  # above the top rung
        log = run_session(m, trace, ClientConfig(window_n=10))
        versions = [r.version_requested for r in log.records]
        assert versions[-40:] == [6] * 40
        assert sum(r.stall_time for r in log.records) == 0.0
        assert max(r.buffer_after for r in log.records) <= 50.0 + 2.0
        assert min(r.buffer_after for r in log.records[-40:]) >= 49.0

    def test_record_identities(self):
        m = cbr_manifest()
        log = run_session(m, constant_trace(3e6), ClientConfig(window_n=10))
        for r in log.records:
            assert r.completion_time > r.request_time
            assert r.instant_throughput == r.size_bits / (r.completion_time - r.request_time)
            drained = max(r.buffer_before - (r.completion_time - r.request_time) + r.stall_time, 0.0)
            assert r.buffer_after == pytest.approx(drained + m.segment_duration, abs=1e-9)

    def test_media_conservation(self):
        # media downloaded = media played + final buffer, where playback runs
        # from the first completion to the last except while stalled; so the
        # stall total derived from the records must match the clock
        rng = random.Random(31)
        sessions = [(cbr_manifest(segments=80), constant_trace(3e6))]
        for seed in range(20):
            m = gen_vbr_ladder(ladder_preset("sony-like", segment_count=60, seed=seed))
            starts = [0.0] + sorted(rng.uniform(1, 200) for _ in range(rng.randint(2, 15)))
            trace = BandwidthTrace(tuple((t, rng.uniform(5e4, 6e6)) for t in starts))
            sessions.append((m, trace))
        # heavy stalls: the bandwidth falls far below the lowest rung for good
        heavy = cbr_manifest(bitrates_kbps=(500, 1000), segments=40)
        sessions.append((heavy, BandwidthTrace(((0.0, 5e6), (2.0, 100e3)))))
        for m, trace in sessions:
            for rtt in (0.0, 0.04):
                for policy in ("avg", "itb"):
                    log = run_session(m, trace, ClientConfig(window_n=10, rtt=rtt, policy=policy))
                    last = log.records[-1]
                    wall = last.completion_time - log.playback_start
                    downloaded = m.num_segments * m.segment_duration
                    expected = wall + last.buffer_after - downloaded
                    stall = sum(r.stall_time for r in log.records)
                    assert stall == pytest.approx(expected, abs=1e-6)
                    if m is heavy:
                        assert stall > 200.0

    def test_stall_accounting(self):
        # bandwidth collapses mid-session far below the lowest rung
        m = cbr_manifest(bitrates_kbps=(500, 1000), segments=40)
        trace = BandwidthTrace(((0.0, 5e6), (2.0, 100e3)))
        log = run_session(m, trace, ClientConfig(window_n=10, rtt=0.0))
        assert sum(r.stall_time for r in log.records) > 0
        for r in log.records:
            assert r.stall_time >= 0
            if r.stall_time > 0:
                # a stalled download drained the whole buffer
                assert r.buffer_after == pytest.approx(m.segment_duration)
        assert compute_stats(log).total_stall == pytest.approx(
            sum(r.stall_time for r in log.records)
        )

    def test_buffer_never_negative_never_above_cap(self):
        rng = random.Random(77)
        for _ in range(10):
            m = cbr_manifest(segments=50)
            trace = BandwidthTrace(
                ((0.0, rng.uniform(3e5, 8e6)), (rng.uniform(5, 40), rng.uniform(1e5, 8e6)))
            )
            cfg = ClientConfig(window_n=10, policy=rng.choice(["avg", "itb"]))
            log = run_session(m, trace, cfg)
            for r in log.records:
                assert 0.0 <= r.buffer_after <= cfg.beta_max + m.segment_duration + 1e-9
                assert r.buffer_before >= 0.0

    def test_determinism_byte_identical(self, tmp_path):
        m = gen_vbr_ladder(ladder_preset("sony-like", segment_count=80))
        trace = gen_rect_bandwidth(2.5e6, 0.5e6, 60, 40, 200)
        for run in ("a", "b"):
            log = run_session(m, trace, ClientConfig(), trace_label="t")
            save_logs(log, tmp_path / f"{run}.jsonl", tmp_path / f"{run}.csv")
        for ext in ("jsonl", "csv"):
            assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()

    def test_playback_starts_at_first_completion(self):
        m = cbr_manifest()
        log = run_session(m, constant_trace(3e6), ClientConfig(window_n=10))
        first = log.records[0]
        assert log.playback_start == first.completion_time
        assert first.buffer_before == 0.0
        assert first.buffer_after == m.segment_duration
        assert first.stall_time == 0.0

    def test_start_version_out_of_range(self):
        m = cbr_manifest()
        with pytest.raises(ValueError):
            run_session(m, constant_trace(3e6), ClientConfig(start_version=7))

    @pytest.mark.parametrize("policy", ["avg", "itb"])
    def test_projections_are_checked_before_the_first_segment(self, policy):
        # no session on a 500 kbps link requests version 6, yet one segment of it
        # whose projection onto version 1 underflows refuses the session at its start
        m, trace, cfg = cbr_manifest(), constant_trace(500e3), ClientConfig(policy=policy)
        assert max(r.version_requested for r in run_session(m, trace, cfg).records) < 6
        top = m.segment_sizes[5]
        m = replace(m, segment_sizes=(*m.segment_sizes[:5], (*top[:30], 4e-323, *top[31:])))
        message = (
            "theta 1.05 projects version 6's bitrate 2e-323 onto version 1 as 0.0, "
            "not a finite number > 0"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_session(m, trace, cfg)

    @pytest.mark.parametrize("policy", ["avg", "itb"])
    def test_a_window_that_can_sum_to_inf_is_refused_at_session_start(self, policy):
        # every bitrate is finite, and theta 0.04 keeps every projection below
        # it, but 17 of them sum past the largest float: a representative
        # bitrate, the mean of a window, would be inf
        m, trace = VideoManifest("huge", 0.9, QPS6[:3], ((1e307,) * 40,) * 3), constant_trace(3e6)
        cfg = ClientConfig(theta=0.04, policy=policy)
        message = "window_n 17 sums 17 bitrates of up to 1.1111111111111111e+307 to inf"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_session(m, trace, replace(cfg, window_n=17))
        # 16 of them sum to a finite float, and a 16-segment session never
        # fills a longer window
        assert len(run_session(m, trace, replace(cfg, window_n=16)).records) == 40
        short = replace(m, segment_sizes=tuple(sizes[:16] for sizes in m.segment_sizes))
        assert len(run_session(short, trace, cfg).records) == 16

    def test_each_versions_bitrate_range_is_taken_once_per_manifest(self):
        # building a manifest takes none; every session on it shares one
        m = gen_vbr_ladder(ladder_preset("sony-like", segment_count=60))
        assert "bitrate_range" not in vars(m)
        run_session(m, constant_trace(3e6), ClientConfig(policy="itb"))
        taken = vars(m)["bitrate_range"]
        d = m.segment_duration
        assert taken == tuple((min(s) / d, max(s) / d) for s in m.segment_sizes)
        run_session(m, constant_trace(3e6), ClientConfig())
        assert vars(m)["bitrate_range"] is taken

    def test_policy_version_out_of_range_names_the_segment(self, monkeypatch):
        # version 0 would otherwise read the last version's sizes, and V + 1 past the end
        m = cbr_manifest()
        for chosen in (0, m.num_versions + 1):
            choice = policies.Decision(chosen, "stable")
            monkeypatch.setattr(policies, "decide", lambda view, est, cfg: choice)
            message = f"segment 0: the policy chose version {chosen}, out of range 1..6"
            with pytest.raises(ValueError, match=re.escape(message)):
                run_session(m, constant_trace(3e6), ClientConfig(window_n=10))

    def test_policy_consulted_every_segment(self, monkeypatch):
        m = cbr_manifest(segments=25)
        calls = []
        ingest = EstimatorState.ingest_segment

        def recording_ingest(est, version, b_actual):
            calls.append("ingest")
            ingest(est, version, b_actual)

        def probe(view, est, cfg):
            calls.append("decide")
            return decide(view, est, cfg)

        monkeypatch.setattr(EstimatorState, "ingest_segment", recording_ingest)
        monkeypatch.setattr(policies, "decide", probe)
        log = run_session(m, constant_trace(3e6), ClientConfig(window_n=10))
        # each segment is ingested, then decided on
        assert calls == ["ingest", "decide"] * 25
        assert all(r.case_label for r in log.records)


class TestInformationBarrier:
    def test_decisions_unchanged_when_unrequested_sizes_perturbed(self):
        m = gen_vbr_ladder(ladder_preset("sony-like", segment_count=60))
        trace = gen_rect_bandwidth(2.5e6, 0.5e6, 40, 30, 130)
        cfg = ClientConfig(window_n=10)
        log = run_session(m, trace, cfg)
        requested = {(r.version_requested, r.index) for r in log.records}

        perturbed_sizes = [
            [
                size if (version, i) in requested else size * 3 + 17
                for i, size in enumerate(sizes)
            ]
            for version, sizes in enumerate(m.segment_sizes, start=1)
        ]
        m2 = VideoManifest(m.title, m.segment_duration, m.qps, perturbed_sizes)

        log2 = run_session(m2, trace, cfg)
        assert [r.version_requested for r in log2.records] == [
            r.version_requested for r in log.records
        ]
        assert [r.case_label for r in log2.records] == [r.case_label for r in log.records]

    def test_engine_reads_only_requested_sizes(self):
        inner = gen_vbr_ladder(ladder_preset("sony-like", segment_count=60))
        accessed = set()

        class RecordingRow(tuple):
            """One version's sizes, recording each index read."""

            def __getitem__(self, index):
                accessed.add((self.version, index))
                return tuple.__getitem__(self, index)

        rows = []
        for version, sizes in enumerate(inner.segment_sizes, start=1):
            row = RecordingRow(sizes)
            row.version = version
            rows.append(row)
        wrapped = SimpleNamespace(
            title=inner.title,
            segment_duration=inner.segment_duration,
            num_versions=inner.num_versions,
            num_segments=inner.num_segments,
            qps=inner.qps,
            segment_sizes=tuple(rows),
            bitrate_range=inner.bitrate_range,
        )
        trace = gen_rect_bandwidth(2.5e6, 0.5e6, 40, 30, 130)
        log = run_session(wrapped, trace, ClientConfig(window_n=10))
        requested = {(r.version_requested, r.index) for r in log.records}
        assert accessed == requested
        assert log == run_session(inner, trace, ClientConfig(window_n=10))


def _dumps_jsonl(log):
    """The JSONL log built with json.dumps, as it was written before the record template."""
    header = {
        "manifest_title": log.manifest_title,
        "trace_label": log.trace_label,
        "segment_duration_s": log.segment_duration,
        "num_versions": log.num_versions,
        "playback_start_s": log.playback_start,
        "config": asdict(log.config),
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(dict(zip(LOG_COLUMNS, rec))) for rec in log.records]
    return "\n".join(lines) + "\n"


def _csv_writer_bytes(log):
    """The CSV log as csv.writer writes it."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(LOG_COLUMNS)
    writer.writerows(log.records)
    return text.getvalue().encode()


class TestLogSerialization:
    def test_jsonl_round_trip(self, tmp_path):
        m = cbr_manifest(segments=20)
        log = run_session(m, constant_trace(3e6), ClientConfig(window_n=10), trace_label="ct")
        path = tmp_path / "log.jsonl"
        save_log_jsonl(log, path)
        assert load_log_jsonl(path) == log

    def test_csv_columns(self, tmp_path):
        m = cbr_manifest(segments=5)
        log = run_session(m, constant_trace(3e6), ClientConfig(window_n=10))
        path = tmp_path / "log.csv"
        save_log_csv(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "index,version,size_bits,request_time_s,completion_time_s,"
            "throughput_bps,buffer_before_s,buffer_after_s,case,stall_s"
        )
        assert len(lines) == 6

    def test_csv_and_jsonl_share_one_schema(self, tmp_path):
        m = cbr_manifest(bitrates_kbps=(500, 1000), segments=12)
        trace = BandwidthTrace(((0.0, 5e6), (2.0, 100e3)))  # the drop causes stalls
        log = run_session(m, trace, ClientConfig(window_n=10), trace_label="drop")
        save_log_csv(log, tmp_path / "log.csv")
        save_log_jsonl(log, tmp_path / "log.jsonl")
        with open(tmp_path / "log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        lines = (tmp_path / "log.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
        names = list(LOG_COLUMNS)
        # the SegmentRecord field each column holds, in column order
        field_of = {
            "index": "index",
            "version": "version_requested",
            "size_bits": "size_bits",
            "request_time_s": "request_time",
            "completion_time_s": "completion_time",
            "throughput_bps": "instant_throughput",
            "buffer_before_s": "buffer_before",
            "buffer_after_s": "buffer_after",
            "case": "case_label",
            "stall_s": "stall_time",
        }
        assert list(field_of) == names
        assert list(field_of.values()) == list(SegmentRecord._fields)
        assert "total_stall_s" not in header
        assert len(rows) == len(records) == 12
        assert any(rec["stall_s"] > 0 for rec in records)
        for row, rec, record in zip(rows, records, log.records):
            assert list(row) == names
            assert list(rec) == names
            assert row == {name: str(value) for name, value in rec.items()}
            assert {field_of[name]: value for name, value in rec.items()} == record._asdict()

    def test_record_lines_match_json_dumps(self, tmp_path):
        rng = random.Random(11)
        numbers = (
            lambda: rng.randint(-10**6, 10**6),
            lambda: rng.randint(2**53, 2**90),  # beyond exact float range
            lambda: float(rng.randint(-10**9, 10**9)),  # integral floats print as 5.0
            lambda: -0.0,
            lambda: 1e-7,
            lambda: 1e16,
            lambda: rng.uniform(-1e6, 1e6),
            lambda: rng.random() * 10.0 ** rng.randint(-300, 300),
        )
        log = synthetic_log([1, 2])
        records = tuple(
            SegmentRecord(
                rng.choice((rng.randint(0, 10**4), 2**70)),
                rng.randint(1, 6),
                *(rng.choice(numbers)() for _ in range(6)),
                rng.choice(policies.CASES[log.config.policy]),
                rng.choice(numbers)(),
            )
            for _ in range(2000)
        )
        log = replace(log, records=records)
        save_log_jsonl(log, tmp_path / "log.jsonl")
        lines = (tmp_path / "log.jsonl").read_text().split("\n")
        assert lines[-1] == "" and len(lines) == len(records) + 2
        for line, rec in zip(lines[1:], records):
            assert line == json.dumps(dict(zip(LOG_COLUMNS, rec)))

    def test_jsonl_log_matches_json_dumps_on_sessions(self, tmp_path):
        vbr = gen_vbr_ladder(ladder_preset("sony-like"))
        rect = gen_rect_bandwidth(2.5e6, 0.5e6, 120, 60, 600)
        drop = BandwidthTrace(((0.0, 5e6), (2.0, 100e3)))
        sessions = [
            run_session(vbr, rect, ClientConfig(policy="itb"), trace_label="rect"),
            run_session(vbr, rect, ClientConfig(policy="avg", window_n=30), trace_label="rect"),
            run_session(cbr_manifest(segments=40), drop, ClientConfig(window_n=10)),
        ]
        assert sum(r.stall_time for r in sessions[-1].records) > 0
        assert {"itb", "stable"} <= {r.case_label for log in sessions for r in log.records}
        for log in sessions:
            save_logs(log, tmp_path / "log.jsonl", tmp_path / "log.csv")
            assert (tmp_path / "log.jsonl").read_text() == _dumps_jsonl(log)

    def test_save_logs_matches_one_file_writers(self, tmp_path):
        vbr = gen_vbr_ladder(ladder_preset("sony-like"))
        rect = gen_rect_bandwidth(2.5e6, 0.5e6, 120, 60, 600)
        drop = BandwidthTrace(((0.0, 5e6), (2.0, 100e3)))
        sessions = [
            run_session(vbr, rect, ClientConfig(policy="itb"), trace_label="rect"),
            run_session(vbr, rect, ClientConfig(policy="avg", window_n=30), trace_label="rect"),
            run_session(cbr_manifest(segments=40), drop, ClientConfig(window_n=10)),
        ]
        assert sum(r.stall_time for r in sessions[-1].records) > 0
        for n, log in enumerate(sessions):
            jsonl, csv_path = tmp_path / f"{n}.jsonl", tmp_path / f"{n}.csv"
            save_logs(log, jsonl, csv_path)
            save_log_jsonl(log, tmp_path / "one.jsonl")
            save_log_csv(log, tmp_path / "one.csv")
            with open(tmp_path / "oracle.csv", "w", newline="") as fh:  # the old CSV writer
                writer = csv.writer(fh)
                writer.writerow(LOG_COLUMNS)
                writer.writerows(log.records)
            oracle = (tmp_path / "oracle.csv").read_bytes()
            assert oracle.count(b"\r\n") == len(log.records) + 1
            assert csv_path.read_bytes() == (tmp_path / "one.csv").read_bytes() == oracle
            assert jsonl.read_bytes() == (tmp_path / "one.jsonl").read_bytes()
            assert jsonl.read_text() == _dumps_jsonl(log)

    def test_reused_text_matches_the_stdlib_writers(self, tmp_path):
        # a record's request time is the previous completion time object, and
        # its buffer_before the previous buffer_after object, unless the client
        # idled; then both are new objects
        m = cbr_manifest(bitrates_kbps=(500, 1000), segments=80)
        trace = BandwidthTrace(((0.0, 5e6), (40.0, 100e3), (150.0, 5e6)))
        log = run_session(m, trace, ClientConfig(window_n=10, beta_min=5.0, beta_max=20.0))
        pairs = list(zip(log.records, log.records[1:]))
        reused = [b.request_time is a.completion_time for a, b in pairs]
        assert reused == [b.buffer_before is a.buffer_after for a, b in pairs]
        assert any(reused) and not all(reused)
        assert any(r.stall_time > 0 for r in log.records)
        save_logs(log, tmp_path / "log.jsonl", tmp_path / "log.csv")
        assert (tmp_path / "log.jsonl").read_text() == _dumps_jsonl(log)
        assert (tmp_path / "log.csv").read_bytes() == _csv_writer_bytes(log)

    def test_text_is_reused_by_identity_not_equality(self, tmp_path):
        # 0.0 == -0.0, but json.dumps and csv.writer write them differently
        first, second, third = synthetic_log([1, 2, 1]).records
        first = first._replace(completion_time=0.0, buffer_after=0.0)
        second = second._replace(request_time=-0.0, buffer_before=-0.0, completion_time=1.5)
        third = third._replace(request_time=second.completion_time)
        log = replace(synthetic_log([1, 2, 1]), records=(first, second, third))
        save_logs(log, tmp_path / "log.jsonl", tmp_path / "log.csv")
        text = (tmp_path / "log.jsonl").read_text()
        assert text == _dumps_jsonl(log)
        assert '"request_time_s": -0.0' in text and '"buffer_before_s": -0.0' in text
        assert (tmp_path / "log.csv").read_bytes() == _csv_writer_bytes(log)

    def test_save_logs_writes_recorded_bytes(self, tmp_path):
        # sha256 of (.jsonl, .csv) for sessions the README quick start does not
        # run: the pseudocode gate, another theta, a trace below the lowest
        # version, which reaches panic and stalls, and the dense_trace
        # workload's Markov trace, where a download crosses many pieces. Any
        # change is a change of behaviour or format.
        recorded = {
            "itb-pseudocode": (
                "a18c083f87dce954923b38fdbe80b664d002e475c573b4fc6b78a2247f6a0b3c",
                "04857056fe1ca016b98dd6287e1ace8d4c41e0fc9da359888196c9f96b2361f6",
            ),
            "avg-10-pseudocode": (
                "acdd5c7a0ef1520173b8e42e3b87da74f8e66b02349fe886e8906c0b2699208f",
                "fca7eb271c6c1a2574888f950f424ef8a8ebf9ffbeaecd7c0375d884a499e6e4",
            ),
            "avg-30-theta-0.9": (
                "b5c79f187a71c4793d414a7bd89f024f8f9737399bb72981246cc259935fab3b",
                "7dd97d742289ea11861e19cbe93e76902cc2c0d3f3ee5558adf6b089a796820b",
            ),
            "avg-30-starved": (
                "cf958705bf6327b8df2ede67d695e3f3cf223aa441c469c8101532f4e3405b9c",
                "f9bfc1b516ac2652a4e9945812c360331c1442bb850ec7d2d0ce14dbde3e1450",
            ),
            "markov": (
                "7299daf88bf8c9a806da993cffbc4bbe254b7962b5fe13bfeb1b2dbabb9fe4a9",
                "3fbc2c6031d11a900cbad64f39e8c5031216a18064706f40f44268c89ef08b72",
            ),
        }
        vbr = gen_vbr_ladder(ladder_preset("sony-like"))
        rect = gen_rect_bandwidth(2.5e6, 0.5e6, 120, 60, 600)
        starved = gen_rect_bandwidth(2.5e6, 150e3, 60, 60, 600)
        assert starved.breakpoints[1][1] < ladder_preset("sony-like").target_avg_bitrates[0]
        sessions = {
            "itb-pseudocode": (rect, ClientConfig(policy="itb", uptrend_gate="pseudocode")),
            "avg-10-pseudocode": (rect, ClientConfig(window_n=10, uptrend_gate="pseudocode")),
            "avg-30-theta-0.9": (rect, ClientConfig(theta=0.9)),
            "avg-30-starved": (starved, ClientConfig()),
            "markov": (load_perfbench("workloads").markov_trace(0), ClientConfig()),
        }
        written = {}
        for name, (trace, cfg) in sessions.items():
            log = run_session(vbr, trace, cfg, trace_label=name)
            if name == "avg-30-starved":
                assert sum(r.stall_time for r in log.records) > 0
                assert "panic" in {r.case_label for r in log.records}
            save_logs(log, tmp_path / "log.jsonl", tmp_path / "log.csv")
            written[name] = tuple(
                hashlib.sha256((tmp_path / f"log.{ext}").read_bytes()).hexdigest()
                for ext in ("jsonl", "csv")
            )
        assert written == recorded

    def test_writers_refuse_a_case_label_outside_the_policy(self, tmp_path):
        avg = synthetic_log([1, 2, 1])
        itb = replace(avg, config=ClientConfig(policy="itb"))
        itb = replace(itb, records=tuple(r._replace(case_label="itb") for r in itb.records))
        writers = (
            lambda log: save_logs(log, tmp_path / "log.jsonl", tmp_path / "log.csv"),
            lambda log: save_log_jsonl(log, tmp_path / "log.jsonl"),
            lambda log: save_log_csv(log, tmp_path / "log.csv"),
        )
        for log, label in ((avg, 'odd,"label"'), (avg, "itb"), (itb, "stable")):
            # one foreign label, after two the policy writes
            odd = log.records[2]._replace(case_label=label)
            bad = replace(log, records=log.records[:2] + (odd,))
            for write in writers:
                with pytest.raises(ValueError, match=re.escape(f"case label {label!r}")):
                    write(bad)
                assert list(tmp_path.iterdir()) == []
        # the same logs without the foreign label are written
        for write in writers:
            write(avg)
            write(itb)

    def _long_log_lines(self, tmp_path):
        """A written log of more than two parse blocks, as a list of lines."""
        log = synthetic_log([1, 2] * (_BLOCK * 3 // 2 + 5))
        path = tmp_path / "log.jsonl"
        save_log_jsonl(log, path)
        assert load_log_jsonl(path) == log
        return path, path.read_text().splitlines(keepends=True)

    # the header is line 1, so parse block k starts at line 2 + k * _BLOCK

    def test_malformed_line_past_first_block_named(self, tmp_path):
        path, lines = self._long_log_lines(tmp_path)
        n = 2 + 2 * _BLOCK + 5
        lines[n - 1] = lines[n - 1][:40] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"line {n}: malformed log"):
            load_log_jsonl(path)

    def test_two_records_on_one_line_rejected(self, tmp_path):
        path, lines = self._long_log_lines(tmp_path)
        # line n holds its own record and the next line's
        n = 2 + _BLOCK + 10
        lines[n - 1 : n + 1] = [lines[n - 1].rstrip("\n") + ", " + lines[n]]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"line {n}: malformed log"):
            load_log_jsonl(path)
        # a record split over lines m and m + 1 of the same block makes the
        # block hold as many records as lines again
        m = 2 + _BLOCK + 3
        head, tail = lines[m - 1].split(", ", 1)
        lines[m - 1 : m] = [head + "\n", tail]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"line {m}: malformed log"):
            load_log_jsonl(path)

    def test_blank_line_is_malformed_and_named(self, tmp_path):
        path, lines = self._long_log_lines(tmp_path)
        n = 2 + _BLOCK + 5
        lines.insert(n - 1, "\n")
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"line {n}: malformed log"):
            load_log_jsonl(path)

    def test_bad_value_past_first_block_named(self, tmp_path):
        path, lines = self._long_log_lines(tmp_path)
        n = 2 + 2 * _BLOCK + 7
        lines[n - 1] = lines[n - 1].replace('"stall_s": 0.0', '"stall_s": "0.0"')
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"line {n}: field 'stall_s'"):
            load_log_jsonl(path)

    def test_empty_log_file_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_log_jsonl(path)
