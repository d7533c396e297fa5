"""Per-layer tracing of vbrsim from outside the package.

``install`` replaces module and class attributes of vbrsim with wrappers that
record one span per call: span id, parent span id, name, start, end, and the
id of the operation (set-up, `run`, or one `stats`) it belongs to. Spans stay
in memory until ``write_spans``; ``layer_metrics`` turns them into call
counts, self times (span time not covered by child spans) and per-call times
(whole span, callees included). A few exact counts are taken at the
same boundaries: trace pieces crossed per download, policy regimes, and
stalled segments.
"""

from __future__ import annotations

import importlib
import itertools
import time
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict

# Traced public functions, by the name they are reported under. Each is
# patched where its callers look it up: module attributes for functions,
# class attributes for methods, and engine's own name for ClientView.
FUNCTIONS = (
    "scenarios.gen_vbr_ladder",
    "scenarios.gen_rect_bandwidth",
    "model.save_manifest",
    "model.save_trace",
    "model.load_manifest",
    "model.load_trace",
    "model.ClientView",
    "engine.run_session",
    "engine.download_time",
    "engine.save_log_jsonl",
    "engine.save_log_csv",
    "engine.load_log_jsonl",
    "estimators.EstimatorState.ingest_segment",
    "estimators.EstimatorState.update_smoothed_throughput",
    "policies.decide",
    "policies.avg_decide",
    "policies.itb_decide",
    "policies.select_panic_version",
    "metrics.compute_stats",
    "metrics.buffer_cdf",
    "metrics.warmup_segments",
    "metrics.stats_table",
    "cli.main",
)
PATCH_SITES = {"model.ClientView": "engine.ClientView"}

CASES = ("uptrend", "stable", "downtrend", "panic", "itb")

# Unit of every per-layer metric, in report order.
METRICS = {}
for _name in FUNCTIONS:
    METRICS[f"{_name}.calls"] = "count"
    METRICS[f"{_name}.self_s"] = "s"
    METRICS[f"{_name}.us_per_call"] = "us"
METRICS["engine.download_time.pieces_per_call"] = "pieces"
for _case in CASES:
    METRICS[f"policies.case.{_case}_frac"] = "ratio"
METRICS["engine.stalled_segments"] = "count"
METRICS["trace.overhead_frac"] = "ratio"

# The end-to-end metric and workload that each layer should move.
TARGETS = {
    "scenarios": "setup_s on long_session",
    "model.save_manifest": "setup_s on long_session",
    "model.save_trace": "setup_s on long_session",
    "model.load_manifest": "run_s on long_session",
    "model.load_trace": "run_s on dense_trace",
    "model.ClientView": "run_s on long_session",
    "engine.run_session": "run_s on long_session",
    "engine.download_time": "run_s on dense_trace; no change on paper",
    "engine.save_log": "run_s and peak_rss_mb on long_session",
    "engine.load_log_jsonl": "stats_s on long_session",
    "engine.stalled_segments": "none: exact coverage count",
    "estimators": "us_per_segment on all three, most on long_session",
    "policies.select_panic_version": "us_per_segment on all three, most on dense_trace",
    "policies.case": "none: exact coverage count",
    "policies": "us_per_segment on all three, most on long_session",
    "metrics.compute_stats": "stats_s on long_session",
    "metrics": "run_s on paper",
    "cli.main": "run_s on paper",
    "trace": "none: tracing cost",
}


def target(metric: str) -> str:
    """Longest TARGETS prefix of a metric name."""
    best = max((k for k in TARGETS if metric.startswith(k)), key=len)
    return TARGETS[best]


class Tracer:
    """Collects spans and counts in memory for one process."""

    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end, op id)
        self.op = 0
        self.counts = Counter()
        self.downloads = []  # (trace, transfer start, finish) per download_time call
        self._stack = [-1]
        self._ids = itertools.count()

    def wrap(self, name, fn, observe=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op))
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_download(self, args, duration):
        trace, start, _size, rtt = args
        self.downloads.append((trace, start + rtt, start + duration))

    def _observe_decision(self, args, decision):
        self.counts[decision.case_label] += 1

    def _observe_session(self, args, log):
        self.counts["stalled"] += sum(1 for r in log.records if r.stall_time > 0)

    def install(self):
        """Patch vbrsim for the rest of this process."""
        observers = {
            "engine.download_time": self._observe_download,
            "policies.decide": self._observe_decision,
            "engine.run_session": self._observe_session,
        }
        for name in FUNCTIONS:
            site = PATCH_SITES.get(name, name)
            module, *path, attr = site.split(".")
            owner = importlib.import_module(f"vbrsim.{module}")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), observers.get(name)))

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_s,end_s,op\n")
            for sid, parent, name, start, end, op in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},{op}\n")

    def layer_metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_frac."""
        covered = defaultdict(float)  # span id -> time covered by its children
        for sid, parent, name, start, end, op in self.spans:
            covered[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for sid, parent, name, start, end, op in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - covered[sid]
        out = {}
        for name in FUNCTIONS:
            n = calls[name]
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.us_per_call"] = total[name] / n * 1e6 if n else 0.0
        out["engine.download_time.pieces_per_call"] = self._pieces() / max(len(self.downloads), 1)
        decisions = sum(self.counts[c] for c in CASES)
        for case in CASES:
            out[f"policies.case.{case}_frac"] = self.counts[case] / max(decisions, 1)
        out["engine.stalled_segments"] = self.counts["stalled"]
        return out

    def _pieces(self) -> int:
        """Trace pieces crossed by all downloads, counted after the fact."""
        starts = {}
        pieces = 0
        for trace, begin, finish in self.downloads:
            key = id(trace)
            if key not in starts:
                starts[key] = tuple(t for t, _ in trace.breakpoints)
            s = starts[key]
            first = bisect_right(s, begin) - 1
            pieces += max(bisect_left(s, finish) - 1, first) - first + 1
        return pieces
