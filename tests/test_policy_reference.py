"""An independent reference for the policies' decisions.

The reference reads only a session log and the ladder's QPs. Each version keeps
its whole bitrate history in a plain list: the received segment's bitrate (its
size over the segment duration), and for every other version that bitrate
projected through the QP model, ``theta * b * 2 ** (dQP / 6)``. A
representative bitrate is the mean of the last N. The four regimes, the
flexible threshold and the panic rule are written from the policy description
in ``vbrsim.policies``' docstring; no ``EstimatorState``, ``ClientView`` or
``policies`` code is used. Its float operations run in the code's order, so
each logged ``case`` and next version must agree exactly. Its replay also pins
why AVG-30's ``downtrend`` keeps the version through the grid's outages.
"""

import math

import pytest
from test_stability import PINNED, grid_sessions

from vbrsim import ClientConfig, gen_rect_bandwidth, gen_vbr_ladder, ladder_preset, run_session
from vbrsim.model import BandwidthTrace, VideoManifest


def reference(log, qps) -> list:
    """The (case, next version, smoothed throughput, representative bitrates)
    that each record of ``log`` should lead to and was decided from."""
    cfg = log.config
    history = [[] for _ in qps]
    smoothed = None
    decisions = []
    for r in log.records:
        current, buffer, t = r.version, r.buffer_after_s, r.throughput_bps
        b = r.size_bits / log.segment_duration_s
        latest = [cfg.theta * b * 2.0 ** ((qps[current - 1] - qp) / 6) for qp in qps]
        latest[current - 1] = b
        for h, rate in zip(history, latest):
            h.append(rate)
        smoothed = t if smoothed is None else (1.0 - cfg.delta) * smoothed + cfg.delta * t
        reps = [sum(h[-cfg.window_n :]) / len(h[-cfg.window_n :]) for h in history]
        # the highest rate below the instant throughput, ties to the higher
        # version; version 1 if none is below it
        feasible = [(rate, k) for k, rate in enumerate(latest, 1) if rate < t]
        highest_feasible = max(feasible)[1] if feasible else 1
        threshold = cfg.beta_max - (cfg.beta_max - cfg.beta_min) / (1.0 + math.exp(1.0 - t / b))
        if cfg.policy == "itb":
            case, version = "itb", highest_feasible
        elif buffer > cfg.beta_max:
            gated = current + 1 if cfg.uptrend_gate == "prose" else current
            up = current < len(qps) and reps[gated - 1] < smoothed
            case, version = "uptrend", current + up
        elif buffer >= threshold:
            case, version = "stable", current
        elif buffer >= cfg.beta_min:
            target = max((rep for rep in reps if rep < smoothed), default=None)
            keep = target is not None and b <= target and reps[current - 1] <= target
            case, version = "downtrend", current if keep else max(current - 1, 1)
        else:
            case, version = "panic", min(highest_feasible, current)
        decisions.append((case, version, smoothed, reps))
    return decisions


def _mismatches(log, qps) -> list:
    """Each segment whose logged case or next version differs from the reference's."""
    records = log.records
    out = []
    for i, (case, version, *_) in enumerate(reference(log, qps)):
        # the last decision requests no segment, so only its case is logged
        next_version = records[i + 1].version if i + 1 < len(records) else version
        logged = (records[i].case, next_version)
        if logged != (case, version):
            out.append(f"segment {i}: logged {logged}, reference ({case!r}, {version})")
    return out


def test_decisions_agree_with_the_reference_on_the_stability_grid():
    mismatches = [
        f"{case} {label}: {m}"
        for case, (manifest, logs) in grid_sessions().items()
        for label, log in logs.items()
        for m in _mismatches(log, manifest.qps)
    ]
    assert not mismatches, mismatches[:5]


# (burstiness, ladder seed) of each Markov grid case where ITB stalls least ->
# over AVG-30's downtrend decisions that keep the current version, how many saw
# instant throughput < the kept version's representative bitrate < smoothed
# throughput, how many there were, and the least and greatest ratio of smoothed
# throughput to that representative bitrate, to 2 places
LAGGING_KEEPS = {
    (0.0, 0): (16, 16, 1.53, 6.99),
    (0.0, 1): (3, 3, 1.61, 1.78),
    (0.0, 3): (8, 8, 1.5, 1.89),
    (0.3, 1): (3, 4, 1.31, 5.8),
    (0.3, 3): (7, 9, 1.4, 3.83),
}


def test_downtrend_keeps_the_version_on_a_smoothed_throughput_that_lags_outages():
    stalls_least = {
        (burstiness, seed)
        for (trace, burstiness, seed), (*_, stall) in PINNED.items()
        if trace == "markov" and stall.startswith("ITB <")
    }
    assert stalls_least == LAGGING_KEEPS.keys()
    out = {}
    for burstiness, seed in LAGGING_KEEPS:
        manifest, logs = grid_sessions()[("markov", burstiness, seed)]
        log = logs["AVG-30"]
        lagging, ratios = 0, []
        for r, (case, version, smoothed, reps) in zip(log.records, reference(log, manifest.qps)):
            if case == "downtrend" and version == r.version:
                rep = reps[version - 1]
                lagging += r.throughput_bps < rep < smoothed
                ratios.append(smoothed / rep)
        low, high = round(min(ratios), 2), round(max(ratios), 2)
        out[(burstiness, seed)] = (lagging, len(ratios), low, high)
    assert out == LAGGING_KEEPS


def _powers_of_two(*bitrates):
    """A ladder at QPs 36, 30 and 24, each version's segments at one bitrate.

    On ``_LINK``, with no RTT, every size, download time and throughput is a
    power of two, so bitrates, projections and throughputs tie exactly.
    """
    sizes = tuple((2.0 * rate,) * 200 for rate in bitrates)
    return VideoManifest("powers-of-two", 2.0, (36, 30, 24), sizes)


_LINK = BandwidthTrace(((0.0, 2.0**20),))


def _drop_at(time):
    """A link at 2 ** 21 bits/s that drops to 2 ** 20 at ``time``."""
    return BandwidthTrace(((0.0, 2.0**21), (time, 2.0**20)))


_EXACT = {"rtt": 0.0, "delta": 1.0, "window_n": 1}
_README = gen_vbr_ladder(ladder_preset("sony-like", segment_count=300))
_RECT = gen_rect_bandwidth(2500e3, 500e3, 120.0, 60.0, 600.0)


@pytest.mark.parametrize("policy", ["avg", "itb"])
@pytest.mark.parametrize(
    "manifest, trace, fields",
    [
        # theta 0.5 and 6 QP steps project a version's bitrate onto the next
        # version unchanged, so the panic rule meets a tie on every segment
        pytest.param(
            _powers_of_two(2.0**19, 2.0**19, 2.0**21), _LINK, dict(_EXACT, theta=0.5),
            id="tied-versions",
        ),
        # at version 2, version 3's projected bitrate equals the throughput, so
        # the uptrend gate meets a tie
        pytest.param(
            _powers_of_two(2.0**18, 2.0**19, 2.0**20), _LINK, dict(_EXACT, theta=1.0),
            id="bitrate-tied-with-throughput",
        ),
        # from 24 s on, version 2's bitrate and version 3's projection both equal
        # the throughput, with the buffer at 25 s, below the threshold of 30 s:
        # the downtrend target meets a tie
        pytest.param(
            _powers_of_two(2.0**19, 2.0**20, 2.0**21), _drop_at(24.0),
            dict(_EXACT, theta=0.5, start_version=2), id="downtrend-target-tied-with-throughput",
        ),
        # the same drop at 29 s leaves the buffer exactly at the threshold
        pytest.param(
            _powers_of_two(2.0**19, 2.0**20, 2.0**21), _drop_at(29.0),
            dict(_EXACT, theta=0.5, start_version=2), id="buffer-at-the-threshold",
        ),
        # the top version fits the link, so AVG reaches uptrend at the top
        pytest.param(
            _powers_of_two(2.0**18, 2.0**19, 2.0**19), _LINK, {"start_version": 3},
            id="start-at-the-top",
        ),
        # the buffer never falls below one segment, so AVG never enters panic
        pytest.param(_README, _RECT, {"beta_min": 1.0}, id="beta-min-below-one-segment"),
    ],
)
def test_decisions_agree_with_the_reference_on_edges(manifest, trace, fields, policy):
    log = run_session(manifest, trace, ClientConfig(policy=policy, **fields))
    assert not _mismatches(log, manifest.qps)
