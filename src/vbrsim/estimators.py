"""Client-side estimators.

Three pieces of per-session state evolve as segments arrive:

* a smoothed throughput estimate (exponentially weighted average of the
  per-segment instant throughputs), used as the throughput forecast for the
  next segment;
* per-version instant bitrates for the current segment index: the measured
  value for the version actually received, and values projected onto every
  other version through the QP model;
* per-version representative bitrates: the mean of one version's column in
  a window of the last N rows of those bitrates, computed when read.

During warm-up (fewer than N segments seen) the window holds every row seen
so far, so the representative bitrate is the mean of all of them.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter

from .model import ClientConfig


def estimate_cross_version_bitrate(
    b_actual: float, qp_from: int, qp_to: int, theta: float
) -> float:
    """Project a measured segment bitrate onto another version.

    The QP model assumes bitrate doubles for every 6 QP steps down; ``theta``
    compensates for the model's systematic error and is applied in every
    direction. Note the round trip a->b->a therefore multiplies by theta**2.
    """
    return theta * b_actual * 2.0 ** ((qp_from - qp_to) / 6)


class EstimatorState:
    """Single-writer estimator state for one streaming session.

    ``qps`` holds each version's QP (index 0 = version 1); the window N, theta
    and delta come from ``cfg``. All are fixed for the session. One window
    keeps the last N rows; each version's bitrates are a column of it.
    """

    def __init__(self, qps, cfg: ClientConfig):
        self.num_versions = len(qps)
        self.theta = cfg.theta
        self.delta = cfg.delta
        # throughput estimate for the next segment, or None before any sample
        self.smoothed_throughput = None
        self._rows = deque(maxlen=cfg.window_n)
        self._columns = [itemgetter(k) for k in range(len(qps))]
        # per received version, the QP model's factor onto every version:
        # theta * b * gain is the projection, bit for bit
        self._gains = [
            tuple(estimate_cross_version_bitrate(1.0, qp_from, qp, 1.0) for qp in qps)
            for qp_from in qps
        ]
        # per-version bitrate of the most recent segment (actual or projected)
        self.latest_bitrates = ()

    def rep_bitrate(self, version: int) -> float:
        """Representative bitrate of ``version``: the mean of its column."""
        rows = self._rows
        return sum(map(self._columns[version - 1], rows)) / len(rows)

    def update_smoothed_throughput(self, t_instant: float) -> None:
        """Fold one instant throughput sample into the smoothed estimate."""
        smoothed = self.smoothed_throughput
        if smoothed is None:
            smoothed = t_instant
        else:
            delta = self.delta
            smoothed = (1.0 - delta) * smoothed + delta * t_instant
        self.smoothed_throughput = smoothed

    def ingest_segment(self, received_version: int, b_actual: float) -> None:
        """Record the next segment, received at ``received_version``.

        ``b_actual`` is the measured bitrate of that segment; every other
        version's bitrate for the same index is projected through the QP
        model. The row enters the window, dropping the oldest once the window
        holds N, and becomes ``latest_bitrates``.
        """
        scaled = self.theta * b_actual
        row = [scaled * gain for gain in self._gains[received_version - 1]]
        row[received_version - 1] = b_actual
        self.latest_bitrates = row = tuple(row)
        self._rows.append(row)
