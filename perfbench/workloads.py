"""Benchmark workloads: inputs made from a seed, and what each one must show.

Every input is generated here and written to disk; vbrsim itself only ever
sees the generated files. Each workload stresses a different part of the
simulator:

* ``paper``: the README reproduction. Fixed per-invocation costs (argument
  parsing, statistics, 21 small output files) dominate, so it is the
  workload on which segment-loop optimisations should show no change.
* ``long_session``: 20 000 segments on a coarse rectangular trace. Costs
  that grow with session length (per-segment copies of the history,
  estimator and policy work, log writing and reading) dominate.
* ``dense_trace``: 3 000 segments on a 20 000-breakpoint two-state Markov
  trace. Trace lookup and trace loading dominate, and long outages reach
  the panic regime and stalls, which no other workload does.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from vbrsim import model, scenarios

HERE = Path(__file__).resolve().parent

# Golden statistics were recorded at this seed; other seeds are checked for
# determinism and read/write agreement instead.
DEFAULT_SEED = 0

# Dense trace: 20 000 pieces of about 0.33 s (6 600 s, longer than the
# 6 000 s of media, so the trace spans the session). The link alternates
# between a good state around 2 Mbps and a bad state around 120 kbps, below
# the lowest version's bitrate. Spells are geometric, averaging 200 s good
# and 75 s bad; many bad spells outlast a 50 s buffer, so both policies stall
# and AVG reaches panic at every seed tried.
DENSE_PIECES = 20_000
DENSE_PIECE_S = 0.33
DENSE_GOOD_BPS = 2.0e6
DENSE_BAD_BPS = 120e3
DENSE_MEAN_GOOD_S = 200.0
DENSE_MEAN_BAD_S = 75.0
DENSE_JITTER_CV = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    policies: str
    segments: int  # per policy

    @property
    def labels(self) -> tuple:
        """Output file stems, one per policy, as `vbrsim run` names them."""
        return tuple(
            "itb" if p == "itb" else "avg-" + p.split(":")[1] for p in self.policies.split(",")
        )

    @property
    def simulated_segments(self) -> int:
        return self.segments * len(self.labels)


# Why each workload was chosen is recorded in BENCHMARK.json and above.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", "itb,avg:10,avg:30,avg:50", 300),
        Workload("long_session", "itb,avg:30", 20_000),
        Workload("dense_trace", "itb,avg:30", 3_000),
    )
}


def _lognormal(rng: random.Random, cv: float) -> float:
    sigma2 = math.log(1.0 + cv * cv)
    return rng.lognormvariate(-sigma2 / 2.0, math.sqrt(sigma2))


def markov_trace(seed: int) -> model.BandwidthTrace:
    """Two-state (good/bad) Markov bandwidth trace with log-normal jitter."""
    rng = random.Random(f"dense_trace/{seed}")
    leave = {True: DENSE_PIECE_S / DENSE_MEAN_GOOD_S, False: DENSE_PIECE_S / DENSE_MEAN_BAD_S}
    good = True
    breakpoints = []
    for i in range(DENSE_PIECES):
        level = DENSE_GOOD_BPS if good else DENSE_BAD_BPS
        breakpoints.append((round(i * DENSE_PIECE_S, 2), level * _lognormal(rng, DENSE_JITTER_CV)))
        if rng.random() < leave[good]:
            good = not good
    return model.BandwidthTrace(tuple(breakpoints))


def make_inputs(workload: Workload, seed: int, out: Path) -> tuple:
    """Generate and save the workload's manifest and trace; return their paths."""
    if workload.name == "paper":
        # the README scenario is fixed; the seed does not change it
        ladder = scenarios.ladder_preset("sony-like")
        trace = scenarios.gen_rect_bandwidth(2500e3, 500e3, 120.0, 60.0, 600.0)
        names = ("sony.json", "rect.csv")
    elif workload.name == "long_session":
        ladder = scenarios.ladder_preset("sony-like", segment_count=workload.segments, seed=seed)
        trace = scenarios.gen_rect_bandwidth(2500e3, 500e3, 1200.0, 600.0, 42_000.0)
        names = ("sony-long.json", "rect-long.csv")
    else:
        ladder = scenarios.ladder_preset("sony-like", segment_count=workload.segments, seed=seed)
        trace = markov_trace(seed)
        names = ("sony-dense.json", "markov.csv")
    manifest = scenarios.gen_vbr_ladder(ladder, title="sony-like")
    manifest_path, trace_path = out / names[0], out / names[1]
    model.save_manifest(manifest, manifest_path)
    model.save_trace(trace, trace_path)
    return manifest_path, trace_path


def paper_table() -> str:
    """The README comparison table, as kept by the benchmark."""
    return (HERE / "paper_table.txt").read_text()


def golden_stats(workload: Workload, seed: int):
    """Recorded per-policy statistics, or None where none were recorded."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "golden.json").read_text()).get(workload.name)
