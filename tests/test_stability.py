"""Where the paper's stability claim holds, on a seeded grid fixed in advance.

The abstract claims "quality stability as well as buffer stability even under
very strong variations of bandwidth and video bitrates". The README scenario
tests that on one ladder and one trace. This grid runs ITB, AVG-30 and AVG-10
on 600-segment sony-like ladders (seeds 0..3, burstiness 0, 0.3 and 1.0) over
two traces: the README rect trace, and the benchmark's two-state Markov
outage trace, drawn from the ladder's seed as the dense_trace workload does.
For each case it pins how the three policies rank by number of switches, by
switch-degree STD and by total stall, whether the ranking favours AVG-N or
not. Changing a pinned ranking needs a CHANGES.md line that says why. A last
test pins how much more the pseudocode uptrend gate switches on the README
scenario.
"""

import functools

from tests_support import load_perfbench

from vbrsim import ClientConfig, compute_stats, gen_rect_bandwidth, gen_vbr_ladder
from vbrsim import ladder_preset, run_session, warmup_segments

POLICIES = {
    "ITB": ClientConfig(policy="itb"),
    "AVG-30": ClientConfig(window_n=30),
    "AVG-10": ClientConfig(window_n=10),
}
BURSTINESS = (0.0, 0.3, 1.0)
SEEDS = range(4)
SEGMENTS = 600


def _ranking(values: dict) -> str:
    """The labels of ``values`` from lowest to highest value; "=" joins ties."""
    ranked = sorted(values, key=values.get)
    text = ranked[0]
    for lower, label in zip(ranked, ranked[1:]):
        text += (" = " if values[label] == values[lower] else " < ") + label
    return text


@functools.cache
def grid_sessions() -> dict:
    """(trace, burstiness, ladder seed) -> (manifest, {policy label: log}) for
    every grid case, run once per test process and read by every test of the grid."""
    workloads = load_perfbench("workloads")
    rect = gen_rect_bandwidth(2500e3, 500e3, 120.0, 60.0, 600.0)
    out = {}
    for burstiness in BURSTINESS:
        for seed in SEEDS:
            spec = ladder_preset(
                "sony-like", segment_count=SEGMENTS, seed=seed, burstiness=burstiness
            )
            manifest = gen_vbr_ladder(spec)
            for name, trace in (("rect", rect), ("markov", workloads.markov_trace(seed))):
                logs = {label: run_session(manifest, trace, cfg) for label, cfg in POLICIES.items()}
                out[(name, burstiness, seed)] = (manifest, logs)
    return out


def _orderings() -> dict:
    out = {}
    for case, (_, logs) in grid_sessions().items():
        stats = {label: compute_stats(log) for label, log in logs.items()}
        out[case] = tuple(
            _ranking({label: getattr(s, metric) for label, s in stats.items()})
            for metric in ("num_switches", "std_switch_degrees", "total_stall")
        )
    return out


# (trace, burstiness, ladder seed): the policies ranked, lowest first, by
# number of switches, by switch-degree STD and by total stall
PINNED = {
    ("rect", 0.0, 0): (
        "ITB = AVG-10 < AVG-30", "AVG-10 < AVG-30 < ITB", "ITB = AVG-30 = AVG-10"
    ),
    ("rect", 0.0, 1): (
        "ITB = AVG-10 < AVG-30", "AVG-10 < AVG-30 < ITB", "ITB = AVG-30 = AVG-10"
    ),
    ("rect", 0.0, 2): (
        "ITB = AVG-10 < AVG-30", "AVG-10 < AVG-30 < ITB", "ITB = AVG-30 = AVG-10"
    ),
    ("rect", 0.0, 3): (
        "ITB = AVG-10 < AVG-30", "AVG-10 < AVG-30 < ITB", "ITB = AVG-30 = AVG-10"
    ),
    ("rect", 0.3, 0): (
        "AVG-30 = AVG-10 < ITB", "AVG-30 = AVG-10 < ITB", "ITB = AVG-30 = AVG-10"
    ),
    ("rect", 0.3, 1): (
        "AVG-30 = AVG-10 < ITB", "AVG-30 = AVG-10 < ITB", "ITB = AVG-30 = AVG-10"
    ),
    ("rect", 0.3, 2): (
        "AVG-30 = AVG-10 < ITB", "AVG-30 = AVG-10 < ITB", "ITB = AVG-30 = AVG-10"
    ),
    ("rect", 0.3, 3): (
        "AVG-30 = AVG-10 < ITB", "AVG-30 = AVG-10 < ITB", "ITB = AVG-30 = AVG-10"
    ),
    ("rect", 1.0, 0): (
        "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB", "AVG-30 = AVG-10 < ITB"
    ),
    ("rect", 1.0, 1): (
        "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB"
    ),
    ("rect", 1.0, 2): (
        "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB", "AVG-30 = AVG-10 < ITB"
    ),
    ("rect", 1.0, 3): (
        "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB", "AVG-30 = AVG-10 < ITB"
    ),
    ("markov", 0.0, 0): (
        "AVG-30 = AVG-10 < ITB", "AVG-30 = AVG-10 < ITB", "ITB < AVG-30 = AVG-10"
    ),
    ("markov", 0.0, 1): (
        "AVG-30 = AVG-10 < ITB", "AVG-30 = AVG-10 < ITB", "ITB < AVG-30 = AVG-10"
    ),
    ("markov", 0.0, 2): (
        "AVG-30 = AVG-10 < ITB", "AVG-30 = AVG-10 < ITB", "AVG-30 = AVG-10 < ITB"
    ),
    ("markov", 0.0, 3): (
        "AVG-30 = AVG-10 < ITB", "AVG-30 = AVG-10 < ITB", "ITB < AVG-30 = AVG-10"
    ),
    ("markov", 0.3, 0): (
        "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB", "AVG-10 < AVG-30 < ITB"
    ),
    ("markov", 0.3, 1): (
        "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB", "ITB < AVG-30 = AVG-10"
    ),
    ("markov", 0.3, 2): (
        "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB", "AVG-10 < AVG-30 < ITB"
    ),
    ("markov", 0.3, 3): (
        "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB", "ITB < AVG-10 < AVG-30"
    ),
    ("markov", 1.0, 0): (
        "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB", "AVG-30 = AVG-10 < ITB"
    ),
    ("markov", 1.0, 1): (
        "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB", "AVG-30 = AVG-10 < ITB"
    ),
    ("markov", 1.0, 2): (
        "AVG-30 < AVG-10 < ITB", "AVG-10 < AVG-30 < ITB", "AVG-30 < AVG-10 < ITB"
    ),
    ("markov", 1.0, 3): (
        "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB", "AVG-30 < AVG-10 < ITB"
    ),
}


def test_policy_rankings_on_the_grid_are_pinned():
    assert _orderings() == PINNED


def test_the_pseudocode_gate_switches_more_on_the_quick_start_inputs():
    # README's Design notes call the pseudocode uptrend gate measurably more
    # oscillatory: AVG-10, AVG-30 and AVG-50's number of switches and
    # switch-degree STD (to 3 places) with --warmup auto, under each gate
    manifest = gen_vbr_ladder(ladder_preset("sony-like"))
    rect = gen_rect_bandwidth(2500e3, 500e3, 120.0, 60.0, 600.0)
    out = {}
    for gate in ("pseudocode", "prose"):
        logs = [
            run_session(manifest, rect, ClientConfig(window_n=n, uptrend_gate=gate))
            for n in (10, 30, 50)
        ]
        stats = [compute_stats(log, warmup_exclude=warmup_segments(log)) for log in logs]
        out[gate] = (
            tuple(s.num_switches for s in stats),
            tuple(round(s.std_switch_degrees, 3) for s in stats),
        )
    assert out == {
        "pseudocode": ((37, 35, 35), (0.343, 0.335, 0.335)),
        "prose": ((20, 21, 20), (0.261, 0.267, 0.261)),
    }
