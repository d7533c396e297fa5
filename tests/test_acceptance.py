"""Acceptance suite.

One test per acceptance criterion; each enforces its tolerance and runtime
budget and prints a single PASS line (visible with ``pytest -s``). The module
is also runnable directly: ``python tests/test_acceptance.py``.
"""

import math
import random
import sys
import tempfile
import time
from pathlib import Path

from tests_support import synthetic_log
from vbrsim.engine import run_session, save_logs
from vbrsim.estimators import EstimatorState, estimate_cross_version_bitrate
from vbrsim.metrics import compute_stats, warmup_segments
from vbrsim.model import ClientConfig
from vbrsim.policies import flexible_threshold, select_panic_version
from vbrsim.scenarios import gen_rect_bandwidth, gen_vbr_ladder, ladder_preset

QPS6 = (48, 42, 38, 34, 28, 22)


def _report(num, name, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.2f}s)"
    print(f"criterion {num} ({name}): PASS ({elapsed:.3f}s)")


def test_criterion_1_threshold_formula_suite():
    started = time.perf_counter()
    # hand-derived from the logistic threshold: mismatch = 1 - T/B
    assert abs(flexible_threshold(1e6, 1e6, 10, 50) - 30.0) < 1e-6
    at_zero = 50 - 40 / (1 + math.exp(1.0))  # = 39.242343145200195
    assert abs(flexible_threshold(0.0, 1e6, 10, 50) - at_zero) < 1e-6
    at_triple = 50 - 40 / (1 + math.exp(-2.0))  # = 14.768116880884705
    assert abs(flexible_threshold(3e6, 1e6, 10, 50) - at_triple) < 1e-6
    _report(1, "threshold formula suite", started, 1.0)


def test_criterion_2_estimator_oracle():
    started = time.perf_counter()
    rng = random.Random(20240)
    for trial in range(1000):
        window_n = rng.choice([1, 10, 30, 50])
        est = EstimatorState(QPS6, ClientConfig(window_n=window_n))
        histories = [[] for _ in range(6)]
        for _ in range(rng.randint(1, 80)):
            version = rng.randint(1, 6)
            b = rng.uniform(5e4, 8e6)
            est.ingest_segment(version, b)
            qp_from = QPS6[version - 1]
            for k in range(6):
                if k == version - 1:
                    histories[k].append(b)
                else:
                    histories[k].append(
                        estimate_cross_version_bitrate(b, qp_from, QPS6[k], 1.05)
                    )
        for k in range(6):
            tail = histories[k][-window_n:]
            expected = sum(tail) / len(tail)
            got = est.rep_bitrate(k + 1)
            assert abs(got - expected) <= 1e-9 * abs(expected), (trial, k, got, expected)
    _report(2, "estimator vs brute-force windows", started, 10.0)


def test_criterion_3_qp_model_exactness():
    started = time.perf_counter()
    rng = random.Random(30303)
    theta = 1.05
    for _ in range(2000):
        b = rng.uniform(1e2, 1e9)
        assert estimate_cross_version_bitrate(b, 34, 34, theta) == theta * b
        assert estimate_cross_version_bitrate(b, 34, 40, theta) == theta * b * 0.5
        assert estimate_cross_version_bitrate(b, 40, 34, theta) == theta * b * 2.0
    _report(3, "QP model exactness", started, 1.0)


def test_criterion_4_simple_scenario_behavior():
    started = time.perf_counter()
    manifest = gen_vbr_ladder(ladder_preset("sony-like"), title="sony-like")
    trace = gen_rect_bandwidth(2.5e6, 0.5e6, 120, 60, 600)

    avg_buffer_stds = []
    for window_n in (10, 30, 50):
        cfg = ClientConfig(window_n=window_n, policy="avg")
        log = run_session(manifest, trace, cfg, trace_label="rect-2500-500")
        stats = compute_stats(log, warmup_exclude=warmup_segments(log))
        assert stats.max_switch_degree == 1, f"AVG-{window_n} degree {stats.max_switch_degree}"
        assert stats.min_version >= 2, f"AVG-{window_n} min version {stats.min_version}"
        stall = sum(r.stall_time for r in log.records)
        assert stall == 0.0, f"AVG-{window_n} stalled {stall}s"
        avg_buffer_stds.append(stats.std_buffer)

    itb_log = run_session(manifest, trace, ClientConfig(policy="itb"), trace_label="rect-2500-500")
    itb_stats = compute_stats(itb_log, warmup_exclude=warmup_segments(itb_log))
    assert itb_stats.min_version == 1, "ITB never dropped to version 1"
    assert all(
        itb_stats.std_buffer < std for std in avg_buffer_stds
    ), f"ITB buffer STD {itb_stats.std_buffer} not below AVG's {avg_buffer_stds}"
    _report(4, "simple-scenario behavior", started, 5.0)


def test_criterion_5_switch_std_cross_check():
    started = time.perf_counter()
    rng = random.Random(5555)
    flips = set(rng.sample(range(1, 300), 17))
    versions = []
    cur = 4
    for i in range(300):
        if i in flips:
            cur = 4 if cur == 5 else 5
        versions.append(cur)
    degrees = [abs(b - a) for a, b in zip(versions, versions[1:])]
    assert sum(1 for d in degrees if d > 0) == 17
    mean = sum(degrees) / len(degrees)
    std = math.sqrt(sum((d - mean) ** 2 for d in degrees) / len(degrees))

    # same series through the metrics pipeline
    stats = compute_stats(synthetic_log(versions))
    assert abs(stats.std_switch_degrees - std) < 1e-12
    assert abs(stats.std_switch_degrees - 0.2316) <= 0.005
    _report(5, "switch-degree STD cross-check", started, 1.0)


def test_criterion_6_structural_invariants():
    started = time.perf_counter()
    rng = random.Random(505)
    presets = ("sony-like", "terminator-like")
    policies = ("avg:10", "avg:30", "avg:50", "itb")
    for combo in range(100):
        preset = presets[combo % 2]
        spec = ladder_preset(
            preset,
            seed=rng.randint(0, 10_000),
            burstiness=rng.choice([0.15, 0.3, 0.45]),
            segment_count=150,
        )
        manifest = gen_vbr_ladder(spec, title=preset)
        high = rng.uniform(1.5e6, 6e6)
        low = rng.uniform(2e5, 1.2e6)
        trace = gen_rect_bandwidth(high, low, rng.uniform(30, 120), rng.uniform(20, 120), 600)
        token = policies[combo % 4]
        policy = "itb" if token == "itb" else "avg"
        window = 30 if token == "itb" else int(token.split(":")[1])
        cfg = ClientConfig(window_n=window, policy=policy)

        log = run_session(manifest, trace, cfg, trace_label=f"combo-{combo}")
        cap = cfg.beta_max + manifest.segment_duration
        for rec in log.records:
            assert 0.0 <= rec.buffer_after_s <= cap, (combo, rec.index, rec.buffer_after_s)
        if policy == "avg":
            for rec, nxt in zip(log.records, log.records[1:]):
                if nxt.version > rec.version:
                    assert rec.buffer_after_s > cfg.beta_max, (combo, rec.index)
                if rec.case != "panic":
                    assert abs(nxt.version - rec.version) <= 1, (
                        combo,
                        rec.index,
                    )
                # a stable buffer keeps the version, and panic never raises it
                if rec.case == "stable":
                    assert nxt.version == rec.version, (combo, rec.index)
                if rec.case == "panic":
                    assert nxt.version <= rec.version, (combo, rec.index)
            for rec in log.records:
                # exactly one regime label per decision, consistent with the
                # buffer ranges that do not depend on the flexible threshold
                assert rec.case in ("uptrend", "stable", "downtrend", "panic")
                if rec.buffer_after_s > cfg.beta_max:
                    assert rec.case == "uptrend", (combo, rec.index)
                elif rec.buffer_after_s < cfg.beta_min:
                    assert rec.case == "panic", (combo, rec.index)
                else:
                    assert rec.case in ("stable", "downtrend"), (combo, rec.index)
        else:
            assert all(rec.case == "itb" for rec in log.records)

        rerun = run_session(manifest, trace, cfg, trace_label=f"combo-{combo}")
        with tempfile.TemporaryDirectory() as tmp:
            written = []
            for n, session in enumerate((log, rerun)):
                paths = (Path(tmp) / f"{n}.jsonl", Path(tmp) / f"{n}.csv")
                save_logs(session, *paths)
                written.append([path.read_bytes() for path in paths])
        assert written[0] == written[1], f"combo {combo} not deterministic"
    _report(6, "structural invariants over 100 seeded runs", started, 60.0)


def test_criterion_7_panic_rule_oracle():
    started = time.perf_counter()
    rng = random.Random(707)
    for trial in range(10_000):
        n = rng.randint(1, 8)
        rates = [rng.uniform(1e4, 1e7) for _ in range(n)]
        if trial % 3 == 0:
            t = rng.uniform(1e2, min(rates))  # force the empty feasible set
        else:
            t = rng.uniform(1e4, 1.5e7)
        feasible = [(rate, k) for k, rate in enumerate(rates, start=1) if rate < t]
        expected = max(feasible)[1] if feasible else 1
        assert select_panic_version(rates, t) == expected, (trial, rates, t)
    _report(7, "panic-rule brute force", started, 5.0)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                num = name.split("_")[2]
                print(f"criterion {num}: FAIL - {exc}")
                failures += 1
    sys.exit(1 if failures else 0)
