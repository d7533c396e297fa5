"""Core data model: version ladders, bandwidth traces, client configuration.

All types are immutable value objects, validated at construction. Segment
sizes are kept in bits throughout so that bitrate is simply size divided by
segment duration; the manifest file format may declare sizes in bytes, in
which case ingestion converts once.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import operator
import sys
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple


def _finite(values) -> bool:
    """True when every value converts to a finite float."""
    try:
        # a float sum is finite only if every value is, and is cheaper to test
        return math.isfinite(sum(values, 0.0)) or all(map(math.isfinite, values))
    except OverflowError:  # an int too large for a float
        return False


# What a value read from a manifest, a session log, a ClientConfig or a
# generator's parameters must be: (exact types allowed, test on all values,
# wording). Types are exact, as JSON true/false are bools and bool is an int;
# _finite refuses an int too large for a float, on which a session's
# arithmetic would overflow.
STRING = (frozenset({str}), None, "a string")
INTEGER = (frozenset({int}), None, "an integer")
NUMBER = (frozenset({int, float}), _finite, "a finite number")
POSITIVE = (frozenset({int, float}), lambda v: _finite(v) and min(v) > 0, "a finite number > 0")
NONNEGATIVE = (
    frozenset({int, float}), lambda v: _finite(v) and min(v) >= 0, "a finite number >= 0"
)
COUNT = (frozenset({int}), lambda v: min(v) >= 1, "an integer >= 1")


def int_range(lo: int, hi: int) -> tuple:
    """The rule of an int in ``lo..hi``."""
    return (frozenset({int}), lambda v: min(v) >= lo and max(v) <= hi, f"an int in {lo}..{hi}")


def one_of(names) -> tuple:
    """The rule of a string that is one of ``names``."""
    return (frozenset({str}), frozenset(names).issuperset, f"one of {sorted(names)}")


def segment_size(duration) -> tuple:
    """The rule of a segment's size in bits: it and its bitrate, size / ``duration``,
    are finite and > 0. Only the smallest and largest sizes are divided, as
    the bitrate is monotone in the size."""
    return (
        frozenset({int, float}),
        lambda v: _finite(v) and min(v) / duration > 0.0 and max(v) / duration < math.inf,
        f"a finite number > 0 whose bitrate over {duration!r} s is finite and > 0",
    )


# The codec QP range (H.264/HEVC use 0..51); it keeps every QP-model
# projection, 2 ** (QP gap / 6), finite.
QP_MIN, QP_MAX = 0, 63
QP = int_range(QP_MIN, QP_MAX)


def valid(values, rule) -> bool:
    """True when every one of ``values``, a non-empty sequence, meets ``rule``."""
    types, test, _ = rule
    return set(map(type, values)) <= types and (test is None or test(values))


def check(value, rule, name: str) -> None:
    """Raise ValueError, starting with ``name``, unless ``value`` meets ``rule``."""
    if not valid((value,), rule):
        raise ValueError(f"{name} must be {rule[2]}, got {value!r}")


def check_each(values, rule, name_of) -> None:
    """Raise ``check``'s ValueError for the first of ``values``, a non-empty
    sequence, that does not meet ``rule``; ``name_of(i)`` names ``values[i]``.

    The rule is tested on all of ``values`` at once, which is far cheaper than
    a test per value; only values that fail are searched one by one.
    """
    if not valid(values, rule):
        i = next(i for i, value in enumerate(values) if not valid((value,), rule))
        check(values[i], rule, name_of(i))


def check_qps(qps: tuple) -> None:
    """Raise ValueError unless ``qps`` names at least 2 versions, each a ``QP``,
    and strictly decreases with version index (a higher version has higher quality)."""
    if len(qps) < 2:
        raise ValueError(f"qps must name at least 2 versions, got {len(qps)}")
    check_each(qps, QP, lambda i: f"version {i + 1}: qp")
    for k, (lo, hi) in enumerate(zip(qps, qps[1:]), start=1):
        if lo <= hi:
            raise ValueError(
                f"qp must strictly decrease with version index "
                f"(version {k} qp={lo}, version {k + 1} qp={hi})"
            )


@dataclass(frozen=True)
class VideoManifest:
    """The full version ladder plus segment timing for one video.

    Version k (1-based) is encoded at QP ``qps[k - 1]`` and has one size in
    bits per segment in ``segment_sizes[k - 1]``. A higher version means
    higher quality and therefore a lower QP.
    """

    title: str
    segment_duration: float
    qps: tuple
    segment_sizes: tuple

    def __post_init__(self):
        check(self.title, STRING, "title")
        check(self.segment_duration, POSITIVE, "segment_duration")
        qps = tuple(self.qps)
        check_qps(qps)
        if len(self.segment_sizes) != len(qps):
            raise ValueError(
                f"need one segment_sizes list per qp: {len(qps)} qps, "
                f"{len(self.segment_sizes)} lists"
            )
        size = segment_size(self.segment_duration)
        rows = []
        for k, sizes in enumerate(self.segment_sizes, start=1):
            if not isinstance(sizes, (list, tuple)):
                raise ValueError(
                    f"version {k}: segment_sizes must be a list, got {type(sizes).__name__}"
                )
            if not sizes:
                raise ValueError(f"version {k} has no segments")
            check_each(sizes, size, lambda i: f"version {k} segment {i}: size")
            rows.append(tuple(sizes))
        counts = {len(sizes) for sizes in rows}
        if len(counts) != 1:
            raise ValueError(f"all versions must have the same segment count, got {counts}")
        object.__setattr__(self, "qps", qps)
        object.__setattr__(self, "segment_sizes", tuple(rows))

    @property
    def num_versions(self) -> int:
        return len(self.qps)

    @property
    def num_segments(self) -> int:
        return len(self.segment_sizes[0])

    @functools.cached_property
    def bitrate_range(self) -> tuple:
        """Each version's (smallest, largest) segment bitrate, in bits/s; taken
        on first use, so that every session on this manifest shares it."""
        duration = self.segment_duration
        return tuple((min(sizes) / duration, max(sizes) / duration) for sizes in self.segment_sizes)


@dataclass(frozen=True)
class BandwidthTrace:
    """Piecewise-constant available bandwidth.

    ``breakpoints`` is a sequence of (start_time_s, bandwidth_bps) pairs with
    strictly increasing start times beginning at 0. Times and bandwidths are
    stored as floats. ``ends`` holds each piece's end, for lookups: the last
    piece's is ``inf``, as it extends forever so a session can always finish.
    """

    breakpoints: tuple
    ends: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.breakpoints:
            raise ValueError("trace needs at least one breakpoint")
        times = [t for t, _ in self.breakpoints]
        bandwidths = [bw for _, bw in self.breakpoints]
        check_each(times, NUMBER, lambda i: f"breakpoint {i}: time")
        check_each(bandwidths, POSITIVE, lambda i: f"breakpoint {i}: bandwidth")
        if times[0] != 0:
            raise ValueError(f"breakpoint 0: time must be 0, got {times[0]!r}")
        if not all(map(operator.lt, times, times[1:])):
            i = next(i for i in range(1, len(times)) if not times[i - 1] < times[i])
            raise ValueError(f"breakpoint {i}: time must be > {times[i - 1]!r}, got {times[i]!r}")
        starts = tuple(map(float, times))
        object.__setattr__(self, "ends", starts[1:] + (math.inf,))
        object.__setattr__(self, "breakpoints", tuple(zip(starts, map(float, bandwidths))))


# The rule each ClientConfig field must meet; the estimator's deque window
# takes at most sys.maxsize items
_CONFIG_RULES = {
    "beta_min": POSITIVE, "beta_max": POSITIVE, "window_n": int_range(1, sys.maxsize),
    "delta": POSITIVE, "theta": POSITIVE, "rtt": NONNEGATIVE, "start_version": COUNT,
    "policy": one_of(("avg", "itb")), "uptrend_gate": one_of(("prose", "pseudocode")),
}


@dataclass(frozen=True)
class ClientConfig:
    """Client-side adaptation parameters.

    ``beta_min``/``beta_max`` bound the buffer regimes in seconds, ``window_n``
    is the moving-average length for representative bitrates, ``delta`` the
    throughput smoothing weight, and ``theta`` the compensation factor applied
    when translating a measured bitrate to another version via the QP model.
    ``uptrend_gate`` selects which version's representative bitrate gates an
    up-switch: "prose" checks the next-higher version (default), "pseudocode"
    checks the current one.
    """

    beta_min: float = 10.0
    beta_max: float = 50.0
    window_n: int = 30
    delta: float = 0.1
    theta: float = 1.05
    rtt: float = 0.040
    start_version: int = 1
    policy: str = "avg"
    uptrend_gate: str = "prose"

    def __post_init__(self):
        for f in fields(self):
            check(getattr(self, f.name), _CONFIG_RULES[f.name], f.name)
        if not self.beta_min < self.beta_max:
            raise ValueError(f"beta_min must be < beta_max {self.beta_max}, got {self.beta_min}")
        if self.delta > 1:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")


class ClientView(NamedTuple):
    """What a policy is allowed to observe.

    This is the information barrier: the buffer level, plus the version and
    instant throughput of the segment just received. Everything else a policy
    reads is estimator state, built from received segments only.
    """

    buffer_level: float
    last_version: int
    last_throughput: float


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
# Manifest (JSON):
#   { "title": str, "segment_duration_s": number, "size_unit": "bits"|"bytes",
#     "versions": [ { "index": int, "qp": int, "segment_sizes": [int, ...] } ] }
#
# Bandwidth trace (CSV): header "time_s,bandwidth_kbps", one row per
# breakpoint; kbps means 1000 bit/s.
#
# Both are UTF-8 text. The trace is read as bytes, each line decoded as the
# reader takes it, so a line ends at LF (CRLF too) but not at a lone CR.


def check_keys(obj, keys, where: str) -> None:
    """Raise ValueError naming the first missing or unknown key of ``obj``;
    the message starts with ``where``, the object's place in its file."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where}missing field {key!r}")
    for key in obj:
        if key not in keys:
            raise ValueError(f"{where}unknown field {key!r}")


def manifest_from_dict(data: dict) -> VideoManifest:
    check_keys(data, ("title", "segment_duration_s", "size_unit", "versions"), "")
    unit = data["size_unit"]
    check(unit, one_of(("bits", "bytes")), "size_unit")
    raw_versions = data["versions"]
    if not isinstance(raw_versions, list):
        raise ValueError(f"versions must be a list, got {type(raw_versions).__name__}")
    qps, sizes = [], []
    for pos, v in enumerate(raw_versions, start=1):
        check_keys(v, ("index", "qp", "segment_sizes"), f"versions[{pos - 1}]: ")
        index = v["index"]
        # the index exists only in the file: it must be the position
        if type(index) is not int or index != pos:
            raise ValueError(
                f"versions must be sorted with contiguous indices 1..V; "
                f"position {pos} has index {index!r}"
            )
        qps.append(v["qp"])
        sizes.append(v["segment_sizes"])
    manifest = VideoManifest(data["title"], data["segment_duration_s"], qps, sizes)
    if unit == "bytes":
        # only after validation, so that a JSON true never becomes 8
        bits = [[s * 8 for s in row] for row in manifest.segment_sizes]
        manifest = replace(manifest, segment_sizes=bits)
    return manifest


def load_manifest(path) -> VideoManifest:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: too deeply nested
            raise ValueError(f"not valid JSON ({exc})") from exc
    return manifest_from_dict(data)


def save_manifest(manifest: VideoManifest, path) -> None:
    """Write ``manifest`` as ``json.dump(..., indent=2)`` does, plus a newline.

    The bytes are written one version at a time, so the whole document is
    never held as text. Sizes and QPs are exact ints or finite floats, which
    JSON writes as their ``repr``.
    """
    with open(path, "w") as fh:
        fh.write(
            f'{{\n  "title": {json.dumps(manifest.title)},\n'
            f'  "segment_duration_s": {json.dumps(manifest.segment_duration)},\n'
            '  "size_unit": "bits",\n  "versions": ['
        )
        separator = "\n"
        for k, (qp, sizes) in enumerate(zip(manifest.qps, manifest.segment_sizes), start=1):
            fh.write(
                f'{separator}    {{\n      "index": {k},\n      "qp": {qp!r},\n'
                '      "segment_sizes": [\n        '
            )
            fh.write(",\n        ".join(map(repr, sizes)))
            fh.write("\n      ]\n    }")
            separator = ",\n"
        fh.write("\n  ]\n}\n")


def load_trace(path) -> BandwidthTrace:
    breakpoints = []
    with open(path, "rb") as fh:
        reader = csv.reader(map(bytes.decode, fh))
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["time_s", "bandwidth_kbps"]:
                raise ValueError(f"expected header 'time_s,bandwidth_kbps', got {header}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError(f"line {lineno}: expected 2 columns, got {len(row)}")
                try:
                    t, kbps = float(row[0]), float(row[1])
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from exc
                breakpoints.append((t, kbps * 1000.0))
        except UnicodeDecodeError as exc:  # the reader has not counted the line
            raise ValueError(f"line {reader.line_num + 1}: {exc}") from exc
        except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
            # the hint that csv puts after " - " is about opening a file in Python
            raise ValueError(f"line {reader.line_num}: {str(exc).partition(' - ')[0]}") from exc
    return BandwidthTrace(tuple(breakpoints))


def save_trace(trace: BandwidthTrace, path) -> None:
    """Write ``trace`` as ``csv.writer`` does; its finite floats need no quoting."""
    with open(path, "w", newline="") as fh:
        fh.write("time_s,bandwidth_kbps\r\n")
        fh.writelines("%r,%r\r\n" % (t, bw / 1000.0) for t, bw in trace.breakpoints)
