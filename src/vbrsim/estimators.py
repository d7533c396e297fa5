"""Client-side estimators.

Three pieces of per-session state evolve as segments arrive:

* a smoothed throughput estimate (exponentially weighted average of the
  per-segment instant throughputs), used as the throughput forecast for the
  next segment;
* per-version instant bitrates for the current segment index: the measured
  value for the version actually received, and values projected onto every
  other version through the QP model;
* per-version representative bitrates: the mean of the last N per-segment
  bitrates of each version, computed from the window when read.

During warm-up (fewer than N segments seen) the window holds everything seen
so far, so the representative bitrate is the mean of all of it.
"""

from __future__ import annotations

from collections import deque

from .model import StateError


def estimate_cross_version_bitrate(
    b_actual: float, qp_from: int, qp_to: int, theta: float
) -> float:
    """Project a measured segment bitrate onto another version.

    The QP model assumes bitrate doubles for every 6 QP steps down; ``theta``
    compensates for the model's systematic error and is applied in every
    direction. Note the round trip a->b->a therefore multiplies by theta**2.
    """
    if b_actual <= 0:
        raise ValueError(f"bitrate must be > 0, got {b_actual}")
    return theta * b_actual * 2.0 ** ((qp_from - qp_to) / 6)


class EstimatorState:
    """Single-writer estimator state for one streaming session."""

    def __init__(self, num_versions: int, window_n: int):
        if num_versions < 1:
            raise ValueError(f"num_versions must be >= 1, got {num_versions}")
        if window_n < 1:
            raise ValueError(f"window_n must be >= 1, got {window_n}")
        self.num_versions = num_versions
        self.segments_seen = 0
        self._smoothed = None
        self._windows = [deque(maxlen=window_n) for _ in range(num_versions)]

    @property
    def smoothed_throughput(self):
        """Throughput estimate for the next segment, or None before any sample."""
        return self._smoothed

    @property
    def rep_bitrates(self) -> tuple:
        """Representative bitrate per version (index 0 = version 1)."""
        return tuple(sum(w) / len(w) for w in self._windows)

    @property
    def latest_bitrates(self) -> tuple:
        """Per-version bitrate of the most recent segment (actual or projected)."""
        return tuple(w[-1] for w in self._windows)

    def update_smoothed_throughput(self, t_instant: float, delta: float) -> float:
        """Fold one instant throughput sample into the smoothed estimate."""
        if t_instant <= 0:
            raise ValueError(f"throughput must be > 0, got {t_instant}")
        if not 0 < delta <= 1:
            raise ValueError(f"delta must be in (0, 1], got {delta}")
        if self._smoothed is None:
            self._smoothed = t_instant
        else:
            self._smoothed = (1.0 - delta) * self._smoothed + delta * t_instant
        return self._smoothed

    def ingest_segment(
        self,
        index: int,
        received_version: int,
        b_actual: float,
        qps,
        theta: float,
    ) -> None:
        """Record segment ``index`` received at ``received_version``.

        ``b_actual`` is the measured bitrate of that segment; every other
        version's bitrate for the same index is projected through the QP
        model. Each value enters its version's window, dropping the oldest
        once the window holds N.
        """
        if index != self.segments_seen:
            raise StateError(
                f"segments must be ingested in order: expected {self.segments_seen}, got {index}"
            )
        if not 1 <= received_version <= self.num_versions:
            raise ValueError(
                f"received_version {received_version} out of range 1..{self.num_versions}"
            )
        if b_actual <= 0:
            raise ValueError(f"bitrate must be > 0, got {b_actual}")
        if len(qps) != self.num_versions:
            raise ValueError(f"expected {self.num_versions} qps, got {len(qps)}")

        qp_from = qps[received_version - 1]
        for k in range(1, self.num_versions + 1):
            if k == received_version:
                b = b_actual
            else:
                b = estimate_cross_version_bitrate(b_actual, qp_from, qps[k - 1], theta)
            self._windows[k - 1].append(b)
        self.segments_seen += 1
