"""Session statistics and buffer-level distribution.

Switch-degree statistics are taken over ALL consecutive version transitions,
zero-degree transitions included, with the population standard deviation.
Buffer statistics use the per-segment buffer level sampled after each
completion (buffer_after_s), not a time-weighted integral. Means are
``math.fsum(values) / n``, and each standard deviation is the correctly
rounded square root of the variance formed from exact integer sums, so both
equal what ``statistics.fmean`` and ``statistics.pstdev`` return on every
supported Python without importing that module.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import islice, repeat
from operator import itemgetter, sub, truediv
from typing import NamedTuple

from .engine import LOG_COLUMNS, SessionLog

CDF_MAX_POINTS = 1000


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


# the columns that the statistics read, each taken from a record at C speed
_VERSION, _SIZE, _BUFFER_AFTER, _STALL = (
    itemgetter(LOG_COLUMNS.index(name))
    for name in ("version", "size_bits", "buffer_after_s", "stall_s")
)


def compute_stats(log: SessionLog, warmup_exclude: int = 0) -> SessionStats:
    """Summarize a session, optionally dropping the first segments."""
    if warmup_exclude < 0:
        raise ValueError(f"warmup_exclude must be >= 0, got {warmup_exclude}")
    if warmup_exclude >= len(log.records):
        raise ValueError(
            f"warmup_exclude {warmup_exclude} >= record count {len(log.records)}"
        )
    n = len(log.records) - warmup_exclude
    bitrates = map(truediv, _column(log, _SIZE, warmup_exclude), repeat(log.segment_duration_s))
    try:
        average_bitrate = math.fsum(bitrates) / n
    except OverflowError:  # fsum's exact sum of finite bitrates passed the float range
        average_bitrate = math.inf
    total_stall = sum(_column(log, _STALL, warmup_exclude))
    # one column list at a time: the buffer levels, then the versions and their steps
    buffers = list(_column(log, _BUFFER_AFTER, warmup_exclude))
    min_buffer, std_buffer = min(buffers), _pstdev(buffers)
    del buffers
    versions = list(_column(log, _VERSION, warmup_exclude))
    degrees = list(map(abs, map(sub, islice(versions, 1, None), versions)))
    # the other statistics are versions (ints no larger than the QP count),
    # their steps and buffer levels, or their spread, all finite
    return SessionStats(
        average_bitrate=_finite(average_bitrate, "average_bitrate", "size_bits"),
        average_version=math.fsum(versions) / n,
        max_version=max(versions),
        min_version=min(versions),
        num_switches=len(degrees) - degrees.count(0),
        max_switch_degree=max(degrees, default=0),
        std_switch_degrees=_pstdev(degrees) if degrees else 0.0,
        min_buffer=min_buffer,
        std_buffer=std_buffer,
        total_stall=_finite(total_stall, "total_stall", "stall_s"),
    )


def _column(log: SessionLog, get, start: int):
    """The values that ``get`` takes from the records from ``start`` on, read
    without a copy of the records."""
    return map(get, islice(log.records, start, None))


def _pstdev(values: list) -> float:
    """Population standard deviation of ``values``, correctly rounded.

    The values become exact ints at one power-of-two scale, so the sum and
    the sum of squares are exact; the square root of the exact variance is
    then rounded once, by the method of ``statistics.pstdev`` since 3.11.
    """
    n = len(values)
    scaled, scale = _exact_ints(values)
    # one pass sums the scaled ints and their squares, so none is held
    total = squares = 0
    for x in scaled:
        total += x
        squares += x * x
    # variance = (n * sum(x*x) - sum(x)**2) / (n * scale)**2, exactly
    num = n * squares - total * total
    den = (n * scale) ** 2
    # a root of at least 55 bits, 2 beyond a double's 53, rounded to odd; then
    # its one rounding to a float is correct
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return (root << q) / 1 if q >= 0 else root / (1 << -q)


def _exact_ints(values: list) -> tuple:
    """An iterable of ints ``scaled`` and a power of two ``scale`` with each
    value == its scaled int / scale, in order."""
    if all(map(isinstance, values, repeat(int))):  # such as version steps
        return values, 1
    biggest = max(map(abs, values))
    if biggest < 2**53:  # so every int among the values is also a float
        smallest = min(filter(None, map(abs, values)), default=1)
        # the ulp of the smallest nonzero magnitude divides every value
        shift = max(math.frexp(smallest)[1] - 53, -1074)
        if math.frexp(biggest)[1] - shift <= 1024:  # and scaling overflows none
            return map(int, map(math.ldexp, values, repeat(-shift))), 1 << -shift
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(den for _, den in ratios)
    return (num * (scale // den) for num, den in ratios), scale


def _finite(value: float, name: str, column: str) -> float:
    if not math.isfinite(value):
        raise ValueError(
            f"{name} is {value}, not a finite float: the {column} values are too large"
        )
    return value


def buffer_cdf(log: SessionLog) -> list:
    """Empirical CDF of buffer_after_s, as (level, fraction) pairs.

    The buffer never holds more than beta_max + one segment, nor more media
    than the session has. The levels are one per second up to CDF_MAX_POINTS
    seconds, a wider whole-second step beyond, and the last at or above the top.
    """
    duration = log.segment_duration_s
    top = min(log.config.beta_max + duration, len(log.records) * duration)
    step = max(1, math.ceil(top / CDF_MAX_POINTS))
    levels = map(float, range(0, math.ceil(top) + step, step))
    samples = sorted(map(_BUFFER_AFTER, log.records))
    n = len(samples)
    return [(level, bisect_right(samples, level) / n) for level in levels]


def warmup_segments(log: SessionLog) -> int:
    """Number of leading segments before the buffer first reaches its target.

    Returns 0 when the buffer never fills, or first fills on the last segment
    (which would leave nothing), so stats fall back to the whole session.
    """
    last = len(log.records) - 1
    for i, rec in enumerate(log.records):
        if rec.buffer_after_s >= log.config.beta_max:
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
