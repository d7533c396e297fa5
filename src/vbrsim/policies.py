"""Version-selection policies.

Two policies share one decision interface.

``avg_decide`` is buffer-based adaptation over representative (moving
average) bitrates. The buffer range is split into four regimes by
``beta_min``, a per-decision flexible threshold, and ``beta_max``:

    - uptrend  (buffer > beta_max): step up one version if the candidate
      version's representative bitrate fits under the smoothed throughput;
    - stable   (threshold <= buffer <= beta_max): keep the current version;
    - downtrend(beta_min <= buffer < threshold): keep the current version only
      while both its instant and representative bitrate fit under the highest
      representative bitrate that the smoothed throughput can sustain,
      otherwise step down one;
    - panic    (buffer < beta_min): fall back to instant values, choosing the
      version with the highest instant bitrate still below the instant
      throughput, capped at the current version since quality increases are
      reserved for a full buffer.

``itb_decide`` is the instant-throughput/instant-bitrate reference: it applies
the panic selection rule on every segment, ignoring the buffer entirely.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .estimators import EstimatorState
from .model import ClientConfig, ClientView

# The case labels each policy writes to a log. Each is lowercase letters only,
# so both log formats write it as it is: unquoted in CSV, in plain quotes in JSONL.
CASES = {"avg": ("uptrend", "stable", "downtrend", "panic"), "itb": ("itb",)}


class Decision(NamedTuple):
    """Outcome of one per-segment policy invocation."""

    next_version: int
    case_label: str


def flexible_threshold(
    t_instant: float, b_instant: float, beta_min: float, beta_max: float
) -> float:
    """Buffer threshold separating the stable and downtrend regimes.

    A logistic function of the throughput/bitrate mismatch: the further the
    instant throughput falls below the instant bitrate, the higher the
    threshold climbs, so the downtrend regime activates earlier. Always lies
    strictly between beta_min and beta_max (up to float underflow for extreme
    throughput surplus, where it saturates at beta_min).
    """
    mismatch = 1.0 - t_instant / b_instant
    return beta_max - (beta_max - beta_min) / (1.0 + math.exp(mismatch))


def select_panic_version(instant_bitrates, t_instant: float) -> int:
    """Highest-bitrate version whose instant bitrate stays below the instant
    throughput; version 1 if none qualifies. Ties go to the higher index.
    Every rate must be > 0, as ``run_session`` checks once per session."""
    best, best_rate = 1, 0.0
    for k, rate in enumerate(instant_bitrates, start=1):
        if best_rate <= rate < t_instant:
            best, best_rate = k, rate
    return best


def avg_decide(view: ClientView, est: EstimatorState, cfg: ClientConfig) -> Decision:
    """Pick the next version from the buffer regime and the estimator state."""
    current = view.last_version
    t_instant = view.last_throughput
    b_instant = est.latest_bitrates[current - 1]
    t_est = est.smoothed_throughput
    buffer = view.buffer_level

    if buffer > cfg.beta_max:
        nxt = current
        if current < est.num_versions:
            # only the gated version's column is summed: the next-higher
            # version under "prose", the current one under "pseudocode"
            gated = current + 1 if cfg.uptrend_gate == "prose" else current
            if est.rep_bitrate(gated) < t_est:
                nxt = current + 1
        return Decision(nxt, "uptrend")

    # computed only at or below beta_max, where it is read. Stable is tested
    # before panic, as in the paper: where the threshold rounds below
    # beta_min, a buffer between the two is stable
    threshold = flexible_threshold(t_instant, b_instant, cfg.beta_min, cfg.beta_max)
    if buffer >= threshold:
        # includes buffer == beta_max: a full buffer is no reason to switch
        return Decision(current, "stable")

    if buffer >= cfg.beta_min:
        reps = [est.rep_bitrate(k) for k in range(1, est.num_versions + 1)]
        target = max((r for r in reps if r < t_est), default=None)
        if target is not None and b_instant <= target and reps[current - 1] <= target:
            nxt = current
        else:
            nxt = max(current - 1, 1)
        return Decision(nxt, "downtrend")

    # quality increases are reserved for the uptrend regime, so the panic
    # choice never exceeds the current version
    nxt = min(select_panic_version(est.latest_bitrates, t_instant), current)
    return Decision(nxt, "panic")


def itb_decide(view: ClientView, est: EstimatorState) -> Decision:
    """Reference policy: instant-feasibility selection on every segment."""
    return Decision(select_panic_version(est.latest_bitrates, view.last_throughput), "itb")


def decide(view: ClientView, est: EstimatorState, cfg: ClientConfig) -> Decision:
    """Dispatch on cfg.policy ("avg" or "itb")."""
    if cfg.policy == "avg":
        return avg_decide(view, est, cfg)
    return itb_decide(view, est)
