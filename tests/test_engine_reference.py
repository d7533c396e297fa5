"""An independent, event-stepped reference for run_session's clock, buffer and stall.

The reference replays the versions the engine chose. It moves the clock from
one event to the next: the end of the RTT, a trace breakpoint, the buffer
running empty, and the download's completion. Between events the bandwidth is
constant, the transfer delivers bandwidth x time, and playback drains the
buffer one second per second or, once it is empty, counts stall. Before each
request the client idles, playing, until the buffer is down to ``beta_max``.
None of run_session's closed forms (download_time's piece loop, its stall and
drain update) is used.
"""

import math
import random
from bisect import bisect_right

from vbrsim.engine import run_session
from vbrsim.model import BandwidthTrace, ClientConfig, VideoManifest
from vbrsim.scenarios import gen_vbr_ladder, ladder_preset

# relative bound on the clock; buffer and stall are bounded relative to the clock
REL = 1e-9


def replay(manifest, trace, cfg, versions):
    """(request, completion, buffer_before, buffer_after, stall) of each segment."""
    starts = [t for t, _ in trace.breakpoints]
    t = buffer = 0.0
    rows = []
    for index, version in enumerate(versions):
        if buffer > cfg.beta_max:
            # idle: the buffer plays down to beta_max before the request
            t += buffer - cfg.beta_max
            buffer = cfg.beta_max
        request, before, stall = t, buffer, 0.0
        remaining = manifest.segment_sizes[version - 1][index]
        rtt_end = t + cfg.rtt
        playing = index > 0  # playback starts at the first completion
        while True:
            piece = bisect_right(starts, t) - 1
            bandwidth = trace.breakpoints[piece][1]
            next_break = starts[piece + 1] if piece + 1 < len(starts) else math.inf
            transferring = t >= rtt_end
            arrival = t + remaining / bandwidth if transferring else rtt_end
            empty = t + buffer if playing and buffer > 0 else math.inf
            step_end = min(next_break, arrival, empty)
            dt = step_end - t
            if playing:
                if buffer > 0:
                    # empty exactly at its event: a buffer left below one ulp
                    # of the clock, where t + buffer == t, would never run out
                    buffer = 0.0 if step_end == empty else buffer - dt
                else:
                    stall += dt
            t = step_end
            if transferring:
                if step_end == arrival:
                    break
                remaining = max(remaining - bandwidth * dt, 0.0)
        buffer += manifest.segment_duration
        rows.append((request, t, before, buffer, stall))
    return rows


def random_trace(rng, pieces, mean_gap):
    starts = [0.0]
    for _ in range(pieces - 1):
        starts.append(starts[-1] + rng.expovariate(1 / mean_gap))
    return BandwidthTrace(tuple((s, rng.lognormvariate(math.log(1.2e6), 1.2)) for s in starts))


def sessions():
    """(name, manifest, trace, cfg): 26 seeded sessions with idles, stalls and
    downloads that cross many breakpoints."""
    rng = random.Random(2015)
    out = []
    for n in range(24):
        pieces = (5, 50, 600)[n % 3]
        preset = ("sony-like", "terminator-like")[n % 2]
        spec = ladder_preset(
            preset,
            seed=rng.randint(0, 10_000),
            burstiness=rng.choice([0.0, 0.3, 1.0]),
            segment_count=rng.randint(40, 120),
        )
        cfg = ClientConfig(
            window_n=rng.choice([10, 30]),
            rtt=(0.0, 0.04, 0.5)[n % 3 if n < 12 else (n + 1) % 3],
            policy=("avg", "itb")[(n // 3) % 2],
        )
        trace = random_trace(rng, pieces, mean_gap=rng.choice([0.5, 4.0, 60.0]))
        out.append((f"random-{n}", gen_vbr_ladder(spec), trace, cfg))
    # the bandwidth falls far below the lowest version for good: about 2000 s
    # of stall
    heavy = VideoManifest("heavy", 2.0, (48, 42), [(1_000_000,) * 40, (2_000_000,) * 40])
    out.append(
        ("heavy-stall", heavy, BandwidthTrace(((0.0, 5e6), (2.0, 20e3))), ClientConfig(rtt=0.04))
    )
    # segments nearly as long as beta_max, so the buffer overshoots it by up to 49 s
    spec = ladder_preset("sony-like", segment_duration=49.0, segment_count=30)
    long_segments = gen_vbr_ladder(spec)
    out.append(
        ("49-s-segments", long_segments, random_trace(rng, 50, 20.0), ClientConfig(window_n=10))
    )
    return out


def test_engine_matches_event_stepped_reference():
    idled = stalled = crossed = 0
    for name, manifest, trace, cfg in sessions():
        log = run_session(manifest, trace, cfg)
        versions = [r.version for r in log.records]
        starts = [t for t, _ in trace.breakpoints]
        for record, (request, completion, before, after, stall) in zip(
            log.records, replay(manifest, trace, cfg, versions)
        ):
            where = (name, record.index)
            clock = completion
            assert math.isclose(record.request_time_s, request, rel_tol=REL), where
            assert math.isclose(record.completion_time_s, completion, rel_tol=REL), where
            for got, want in ((record.buffer_before_s, before), (record.buffer_after_s, after)):
                assert math.isclose(got, want, rel_tol=REL, abs_tol=REL * clock), where
            assert math.isclose(record.stall_time, stall, rel_tol=REL, abs_tol=REL * clock), where
            stalled += record.stall_time > 0
            crossed += bisect_right(starts, completion) > bisect_right(starts, request)
        pairs = zip(log.records, log.records[1:])
        idled += sum(b.request_time_s > a.completion_time_s for a, b in pairs)
    # the sessions reach every event kind
    assert idled > 100 and stalled > 100 and crossed > 100, (idled, stalled, crossed)
