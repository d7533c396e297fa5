"""Session statistics and buffer-level distribution.

Switch-degree statistics are taken over ALL consecutive version transitions,
zero-degree transitions included, with the population standard deviation.
Buffer statistics use the per-segment buffer level sampled after each
completion (buffer_after), not a time-weighted integral.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from statistics import fmean, pstdev
from typing import NamedTuple

from .engine import SessionLog


class SessionStats(NamedTuple):
    average_bitrate: float
    average_version: float
    max_version: int
    min_version: int
    num_switches: int
    max_switch_degree: int
    std_switch_degrees: float
    min_buffer: float
    std_buffer: float
    total_stall: float


def compute_stats(log: SessionLog, warmup_exclude: int = 0) -> SessionStats:
    """Summarize a session, optionally dropping the first segments."""
    if not log.records:
        raise ValueError("empty session log")
    if warmup_exclude < 0:
        raise ValueError(f"warmup_exclude must be >= 0, got {warmup_exclude}")
    if warmup_exclude >= len(log.records):
        raise ValueError(
            f"warmup_exclude {warmup_exclude} >= record count {len(log.records)}"
        )
    records = log.records[warmup_exclude:]
    versions = [r.version_requested for r in records]
    bitrates = [r.size_bits / log.segment_duration for r in records]
    buffers = [r.buffer_after for r in records]
    degrees = [abs(b - a) for a, b in zip(versions, versions[1:])]
    try:
        average_bitrate = fmean(bitrates)
    except OverflowError:  # fsum's exact sum of finite bitrates passed the float range
        average_bitrate = math.inf
    # the other statistics are versions, their steps and buffer levels, or
    # their spread, all within the range of finite inputs
    return SessionStats(
        average_bitrate=_finite(average_bitrate, "average_bitrate", "size_bits"),
        average_version=fmean(versions),
        max_version=max(versions),
        min_version=min(versions),
        num_switches=sum(1 for d in degrees if d > 0),
        max_switch_degree=max(degrees, default=0),
        std_switch_degrees=pstdev(degrees) if degrees else 0.0,
        min_buffer=min(buffers),
        std_buffer=pstdev(buffers) if len(buffers) > 1 else 0.0,
        total_stall=_finite(sum(r.stall_time for r in records), "total_stall", "stall_s"),
    )


def _finite(value: float, name: str, column: str) -> float:
    if not math.isfinite(value):
        raise ValueError(
            f"{name} is {value}, not a finite float: the {column} values are too large"
        )
    return value


def buffer_cdf(log: SessionLog, grid) -> list:
    """Empirical CDF of buffer_after, evaluated at each grid level."""
    samples = sorted(r.buffer_after for r in log.records)
    n = len(samples)
    return [(level, bisect_right(samples, level) / n) for level in grid]


def warmup_segments(log: SessionLog) -> int:
    """Number of leading segments before the buffer first reaches its target.

    Returns 0 when the buffer never fills, or first fills on the last segment
    (which would leave nothing), so stats fall back to the whole session.
    """
    last = len(log.records) - 1
    for i, rec in enumerate(log.records):
        if rec.buffer_after >= log.config.beta_max:
            return i + 1 if i < last else 0
    return 0


# Row labels for the human-readable table; values are (label, formatter).
_TABLE_ROWS = (
    ("Average bitrate (kbps)", lambda s: f"{s.average_bitrate / 1000.0:.1f}"),
    ("Average version", lambda s: f"{s.average_version:.2f}"),
    ("Maximum version", lambda s: f"{s.max_version}"),
    ("Minimum version", lambda s: f"{s.min_version}"),
    ("Number of switches", lambda s: f"{s.num_switches}"),
    ("Maximum switch degree", lambda s: f"{s.max_switch_degree}"),
    ("STD of switch degrees", lambda s: f"{s.std_switch_degrees:.2f}"),
    ("Minimum buffer level (s)", lambda s: f"{s.min_buffer:.1f}"),
    ("STD of buffer levels (s)", lambda s: f"{s.std_buffer:.2f}"),
    ("Total stall (s)", lambda s: f"{s.total_stall:.2f}"),
)


def stats_table(stats_by_label: dict) -> str:
    """Aligned text table; one column per (policy) label."""
    labels = list(stats_by_label)
    header = ["Statistics"] + labels
    rows = [header]
    for name, fmt in _TABLE_ROWS:
        rows.append([name] + [fmt(stats_by_label[lab]) for lab in labels])
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    out = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:])]
        out.append("  ".join(cells).rstrip())
    return "\n".join(out) + "\n"
