"""Correctness checks on one benchmark sample's outputs.

A sample's operations are its `vbrsim run` and each `vbrsim stats`. An
operation fails when it exits nonzero or raises, or when its outputs are
wrong:

* `run` on ``paper`` must print the README comparison table byte for byte
  and write it to comparison.txt;
* `run` at the default seed must reproduce the recorded per-policy
  statistics (``golden.json``) field by field, so fields added later do not
  fail; integers exactly, floats to a relative 1e-9, so a speed-up that only
  reorders floating-point arithmetic still passes;
* `run` must write byte-identical files in every sample of a benchmark run,
  traced or not;
* `stats` must recompute, from the log, the same .stats.json that `run`
  wrote.

Separately, ``coverage_problems`` checks that the inputs still reach the
behaviour the workload was chosen for.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import workloads


def digests(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
    }


def read_stats(directory: Path, labels) -> dict:
    out = {}
    for stem in labels:
        path = Path(directory) / f"{stem}.stats.json"
        out[stem] = json.loads(path.read_text()) if path.exists() else None
    return out


def coverage(directory: Path, labels) -> dict:
    """Per policy: how many decisions fell in each regime, and stalled segments."""
    out = {}
    for stem in labels:
        path = Path(directory) / f"{stem}.csv"
        if not path.exists():
            continue
        cases, stalled = Counter(), 0
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                cases[row["case"]] += 1
                stalled += float(row["stall_s"]) > 0
        out[stem] = {"cases": dict(sorted(cases.items())), "stalled": stalled}
    return out


def _golden_mismatches(golden: dict, stats: dict) -> list:
    problems = []
    for stem, expected in golden.items():
        got = stats.get(stem) or {}
        for field, want in expected.items():
            have = got.get(field)
            if isinstance(want, float):
                same = isinstance(have, (int, float)) and math.isclose(have, want, rel_tol=1e-9)
            else:
                same = have == want
            if not same:
                problems.append(f"{stem}.{field} = {have!r}, golden {want!r}")
    return problems


def failures(workload, seed: int, sample: dict, reference: dict) -> list:
    """(operation index, reason) for every failed operation of one sample.

    Operation 0 is `run`; the rest are `stats`. ``reference`` is the first
    sample of the same benchmark run.
    """
    ops = sample["ops"]
    out = [(i, f"{op['op']}: exit {op['exit']}") for i, op in enumerate(ops) if op["exit"] != 0]
    if workload.name == "paper":
        table = workloads.paper_table()
        if sample["table"] != table:
            out.append((0, "run: comparison table differs from the README table"))
        if sample["digests"].get("comparison.txt") != hashlib.sha256(table.encode()).hexdigest():
            out.append((0, "run: comparison.txt differs from the README table"))
    golden = workloads.golden_stats(workload, seed)
    if golden is not None:
        out += [(0, f"run: {problem}") for problem in _golden_mismatches(golden, sample["stats"])]
    if sample["digests"] != reference["digests"]:
        changed = sorted(
            name
            for name in set(sample["digests"]) | set(reference["digests"])
            if sample["digests"].get(name) != reference["digests"].get(name)
        )
        out.append((0, f"run: outputs differ from the first sample: {', '.join(changed)}"))
    for stem in workload.labels:
        name = f"{stem}.stats.json"
        if sample["reread_digests"].get(name) != sample["digests"].get(name):
            last = max(i for i, op in enumerate(ops) if op["op"] == f"stats {stem}")
            out.append((last, f"stats {stem}: recomputed {name} differs from run's"))
    return out


def coverage_problems(workload, cov: dict) -> list:
    """dense_trace must reach panic under AVG and stall under both policies."""
    if workload.name != "dense_trace":
        return []
    problems = [
        f"{stem}: no stalled segments"
        for stem in workload.labels
        if cov.get(stem, {}).get("stalled", 0) == 0
    ]
    if cov.get("avg-30", {}).get("cases", {}).get("panic", 0) == 0:
        problems.append("avg-30: no panic decisions")
    return problems
