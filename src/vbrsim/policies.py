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
from .model import ClientConfig, ClientView, StateError

CASE_UPTREND = "uptrend"
CASE_STABLE = "stable"
CASE_DOWNTREND = "downtrend"
CASE_PANIC = "panic"
CASE_ITB = "itb"

AVG_CASES = (CASE_UPTREND, CASE_STABLE, CASE_DOWNTREND, CASE_PANIC)


class Decision(NamedTuple):
    """Outcome of one per-segment policy invocation."""

    next_version: int
    case_label: str
    flexible_threshold: float | None = None
    target_bitrate: float | None = None


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
    if b_instant <= 0:
        raise ValueError(f"bitrate must be > 0, got {b_instant}")
    if t_instant < 0:
        raise ValueError(f"throughput must be >= 0, got {t_instant}")
    if not beta_min < beta_max:
        raise ValueError(f"need beta_min < beta_max, got ({beta_min}, {beta_max})")
    mismatch = 1.0 - t_instant / b_instant
    return beta_max - (beta_max - beta_min) / (1.0 + math.exp(mismatch))


def select_panic_version(instant_bitrates, t_instant: float) -> int:
    """Highest-bitrate version whose instant bitrate stays below the instant
    throughput; version 1 if none qualifies. Ties go to the higher index."""
    if not instant_bitrates:
        raise ValueError("need at least one version")
    best = None
    best_rate = None
    for k, rate in enumerate(instant_bitrates, start=1):
        if rate <= 0:
            raise ValueError(f"bitrate must be > 0, got {rate} for version {k}")
        if rate < t_instant and (best is None or rate >= best_rate):
            best, best_rate = k, rate
    return best if best is not None else 1


def avg_decide(view: ClientView, est: EstimatorState, cfg: ClientConfig) -> Decision:
    """Pick the next version from the buffer regime and the estimator state."""
    if est.segments_seen < 1 or est.smoothed_throughput is None:
        raise StateError("policy called before any segment was received")
    current = view.last_version
    t_instant = view.last_throughput
    b_instant = est.latest_bitrates[current - 1]
    t_est = est.smoothed_throughput
    buffer = view.buffer_level

    threshold = flexible_threshold(t_instant, b_instant, cfg.beta_min, cfg.beta_max)

    if buffer > cfg.beta_max:
        nxt = current
        if current < est.num_versions:
            # representative bitrates are summed only in the regimes that read them
            reps = est.rep_bitrates
            if cfg.uptrend_gate == "prose":
                gate_rep = reps[current]  # next-higher version
            else:
                gate_rep = reps[current - 1]  # current version
            if gate_rep < t_est:
                nxt = current + 1
        return Decision(nxt, CASE_UPTREND, flexible_threshold=threshold)

    if buffer >= threshold:
        # includes buffer == beta_max: a full buffer is no reason to switch
        return Decision(current, CASE_STABLE, flexible_threshold=threshold)

    if buffer >= cfg.beta_min:
        reps = est.rep_bitrates
        candidates = [r for r in reps if r < t_est]
        if candidates:
            target = max(candidates)
            if b_instant <= target and reps[current - 1] <= target:
                nxt = current
            else:
                nxt = max(current - 1, 1)
        else:
            target = None
            nxt = max(current - 1, 1)
        return Decision(nxt, CASE_DOWNTREND, flexible_threshold=threshold, target_bitrate=target)

    # quality increases are reserved for the uptrend regime, so the panic
    # choice never exceeds the current version
    nxt = min(select_panic_version(est.latest_bitrates, t_instant), current)
    return Decision(nxt, CASE_PANIC, flexible_threshold=threshold)


def itb_decide(view: ClientView, est: EstimatorState) -> Decision:
    """Reference policy: instant-feasibility selection on every segment."""
    if est.segments_seen < 1:
        raise StateError("policy called before any segment was received")
    return Decision(select_panic_version(est.latest_bitrates, view.last_throughput), CASE_ITB)


def decide(view: ClientView, est: EstimatorState, cfg: ClientConfig) -> Decision:
    """Dispatch on cfg.policy ("avg" or "itb")."""
    if cfg.policy == "avg":
        return avg_decide(view, est, cfg)
    if cfg.policy == "itb":
        return itb_decide(view, est)
    raise ValueError(f"unknown policy {cfg.policy!r}")
