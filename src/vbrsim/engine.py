"""Deterministic per-segment download and playback simulator.

The client requests segments back to back. Each download transfers one
segment across the piecewise-constant bandwidth trace (one RTT up front),
playback drains the buffer at one second of media per wall-clock second once
the first segment has completed, and each completed segment adds one segment
duration of media. When the buffer exceeds ``beta_max`` after a completion,
the client idles (playback keeps draining) until the buffer is back at
``beta_max`` before issuing the next request, so the buffer never exceeds
``beta_max`` plus one segment duration.

The policy is consulted once per completed segment. Stall time (playback
paused on an empty buffer mid-download) is accounted per segment and never
dropped silently.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple

from . import policies
from .estimators import EstimatorState
from .model import BandwidthTrace, ClientConfig, ClientView, VideoManifest


class SegmentRecord(NamedTuple):
    """One log line: a plain tuple whose fields are the ``LOG_COLUMNS``, in order."""

    index: int
    version_requested: int
    size_bits: float
    request_time: float
    completion_time: float
    instant_throughput: float
    buffer_before: float
    buffer_after: float
    case_label: str
    stall_time: float


@dataclass(frozen=True)
class SessionLog:
    """Per-segment records plus the inputs needed to interpret them."""

    records: tuple
    config: ClientConfig
    manifest_title: str
    trace_label: str
    segment_duration: float
    num_versions: int
    playback_start: float

    @property
    def total_stall(self) -> float:
        return sum(r.stall_time for r in self.records)


def download_time(trace: BandwidthTrace, start: float, size: float, rtt: float = 0.0) -> float:
    """Wall-clock time to fetch ``size`` bits starting at ``start``.

    One RTT elapses before the first bit arrives, then the transfer proceeds
    at the trace's bandwidth, integrated exactly across pieces. The returned
    duration includes the RTT.
    """
    if size <= 0:
        raise ValueError(f"size must be > 0, got {size}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if rtt < 0:
        raise ValueError(f"rtt must be >= 0, got {rtt}")
    t = start + rtt
    starts = trace.starts
    breakpoints = trace.breakpoints
    piece = bisect_right(starts, t) - 1
    remaining = size
    while True:
        bw = breakpoints[piece][1]
        finish = t + remaining / bw
        if piece + 1 >= len(breakpoints) or finish <= starts[piece + 1]:
            return finish - start
        piece_end = starts[piece + 1]
        remaining = max(remaining - bw * (piece_end - t), 0.0)
        t = piece_end
        piece += 1


def run_session(
    manifest: VideoManifest,
    trace: BandwidthTrace,
    cfg: ClientConfig,
    trace_label: str = "",
) -> SessionLog:
    """Simulate a full streaming session under ``cfg.policy`` and return its log."""
    num_versions = manifest.num_versions
    if not 1 <= cfg.start_version <= num_versions:
        raise ValueError(f"start_version {cfg.start_version} out of range 1..{num_versions}")
    duration = manifest.segment_duration
    est = EstimatorState(manifest.qps, cfg)

    clock = 0.0
    buffer = 0.0
    playing = False
    playback_start = 0.0
    version = cfg.start_version
    records = []

    for index in range(manifest.num_segments):
        if buffer > cfg.beta_max:
            # idle until the buffer has played down to the target level
            clock += buffer - cfg.beta_max
            buffer = cfg.beta_max

        size = manifest.segment_size(version, index)
        completion = clock + download_time(trace, clock, size, cfg.rtt)
        elapsed = completion - clock
        if elapsed <= 0:
            # the download is shorter than one ulp of the clock
            raise ValueError(
                f"segment {index}: a download of size_bits {size} requested at "
                f"request_time_s {clock} takes no time at this clock's resolution"
            )

        buffer_before = buffer
        if playing:
            stall = max(0.0, elapsed - buffer)
            buffer = max(buffer - elapsed, 0.0)
        else:
            stall = 0.0
        buffer += duration
        if not playing:
            playing = True
            playback_start = completion

        t_instant = size / elapsed
        est.ingest_segment(index, version, size / duration)
        est.update_smoothed_throughput(t_instant)

        view = ClientView(buffer_level=buffer, last_version=version, last_throughput=t_instant)
        decision = policies.decide(view, est, cfg)

        records.append(
            SegmentRecord(
                index, version, size, clock, completion, t_instant,
                buffer_before, buffer, decision.case_label, stall,
            )
        )
        version = decision.next_version
        clock = completion

    return SessionLog(
        records=tuple(records),
        config=cfg,
        manifest_title=manifest.title,
        trace_label=trace_label,
        segment_duration=duration,
        num_versions=num_versions,
        playback_start=playback_start,
    )


# ---------------------------------------------------------------------------
# Serialization: JSON lines (header line, then one record per line) and CSV.
# ---------------------------------------------------------------------------

# (column name, SegmentRecord field), in field order: a record is a tuple in
# column order, which both writers and load_log_jsonl rely on
LOG_COLUMNS = (
    ("index", "index"),
    ("version", "version_requested"),
    ("size_bits", "size_bits"),
    ("request_time_s", "request_time"),
    ("completion_time_s", "completion_time"),
    ("throughput_bps", "instant_throughput"),
    ("buffer_before_s", "buffer_before"),
    ("buffer_after_s", "buffer_after"),
    ("case", "case_label"),
    ("stall_s", "stall_time"),
)
_COLUMNS = tuple(column for column, _ in LOG_COLUMNS)
_COLUMN_SET = frozenset(_COLUMNS)
_column_values = itemgetter(*_COLUMNS)
# One JSONL record line, filled with value text. json.dumps writes an int or a
# finite float as its repr, and a str through encode_basestring_ascii, so the
# line has the same bytes as json.dumps(dict(zip(_COLUMNS, record))) for a
# valid record.
_RECORD_LINE = "{%s}\n" % ", ".join(f"{json.dumps(column)}: %s" for column in _COLUMNS)
_CSV_HEADER = ",".join(_COLUMNS) + "\r\n"
# The policies' case labels. None holds a comma, a quote or a line break, so
# the CSV log is written unquoted, byte for byte as csv.writer would write it.
_CASES = frozenset(policies.AVG_CASES + (policies.CASE_ITB,))
_case_label = itemgetter(_COLUMNS.index("case"))
# Records formatted and written, or log lines parsed, at a time. A block's
# text and parsed objects take a few tens of kB, so peak memory does not grow
# with the log; larger blocks were no faster and raised peak memory.
_BLOCK = 64


def _finite(values) -> bool:
    """True when every value converts to a finite float."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int too large for a float
        return False


# What a logged value must be: (exact types allowed, test on all values, wording)
_STRING = (frozenset({str}), None, "a string")
_INTEGER = (frozenset({int}), None, "an integer")
_NUMBER = (frozenset({int, float}), _finite, "a finite number")
_POSITIVE = (frozenset({int, float}), lambda v: _finite(v) and min(v) > 0, "a finite number > 0")
_COUNT = (frozenset({int}), lambda v: min(v) >= 1, "an integer >= 1")
_COLUMN_RULES = tuple(
    {"index": _INTEGER, "version": _INTEGER, "case": _STRING}.get(column, _NUMBER)
    for column in _COLUMNS
)
# (header key, SessionLog field, rule); the header also holds "config"
_HEADER_FIELDS = (
    ("manifest_title", "manifest_title", _STRING),
    ("trace_label", "trace_label", _STRING),
    ("segment_duration_s", "segment_duration", _POSITIVE),
    ("num_versions", "num_versions", _COUNT),
    ("playback_start_s", "playback_start", _NUMBER),
)
_HEADER_KEYS = tuple(key for key, _, _ in _HEADER_FIELDS) + ("config",)
_CONFIG_KEYS = tuple(f.name for f in fields(ClientConfig))


def _value_text(records):
    """Yield each block of records as value text, which both writers share.

    A record's text is the repr of its nine numbers and its raw ``case`` label.
    """
    r = repr
    for start in range(0, len(records), _BLOCK):
        block = records[start : start + _BLOCK]
        yield [
            (r(i), r(v), r(size), r(req), r(done), r(tput), r(before), r(after), case, r(stall))
            for i, v, size, req, done, tput, before, after, case, stall in block
        ]


def _jsonl_lines(block) -> str:
    enc = encode_basestring_ascii
    return "".join(
        [
            _RECORD_LINE % (i, v, size, req, done, tput, before, after, enc(case), stall)
            for i, v, size, req, done, tput, before, after, case, stall in block
        ]
    )


def _csv_lines(block) -> str:
    return "\r\n".join(map(",".join, block)) + "\r\n"


def _jsonl_header(log: SessionLog) -> str:
    header = {key: getattr(log, field) for key, field, _ in _HEADER_FIELDS}
    header["config"] = log.config.as_dict()
    return json.dumps(header, sort_keys=True) + "\n"


def _check_cases(records) -> None:
    unknown = set(map(_case_label, records)) - _CASES
    if unknown:
        raise ValueError(
            f"case label {min(unknown)!r} is not one of {sorted(_CASES)}, "
            f"so it cannot be written to an unquoted CSV log"
        )


def log_to_jsonl(log: SessionLog) -> str:
    return _jsonl_header(log) + "".join(map(_jsonl_lines, _value_text(log.records)))


def save_log_jsonl(log: SessionLog, path) -> None:
    with open(path, "w") as fh:
        fh.write(_jsonl_header(log))
        fh.writelines(map(_jsonl_lines, _value_text(log.records)))


def save_log_csv(log: SessionLog, path) -> None:
    _check_cases(log.records)
    with open(path, "w", newline="") as fh:
        fh.write(_CSV_HEADER)
        fh.writelines(map(_csv_lines, _value_text(log.records)))


def save_logs(log: SessionLog, jsonl_path, csv_path) -> None:
    """Write both logs of ``log`` from one formatting pass, block by block."""
    _check_cases(log.records)
    with open(jsonl_path, "w") as jsonl_file, open(csv_path, "w", newline="") as csv_file:
        jsonl_file.write(_jsonl_header(log))
        csv_file.write(_CSV_HEADER)
        for block in _value_text(log.records):
            jsonl_file.write(_jsonl_lines(block))
            csv_file.write(_csv_lines(block))


def _check_keys(obj, keys, where: str) -> None:
    """Raise ValueError naming the first missing or unknown key of ``obj``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
    for key in obj:
        if key not in keys:
            raise ValueError(f"{where}: unknown field {key!r}")


def _valid(values, rule) -> bool:
    types, test, _ = rule
    return set(map(type, values)) <= types and (test is None or test(values))


def _value_error(path, lineno: int, name: str, value, rule) -> ValueError:
    return ValueError(f"{path}: line {lineno}: field {name!r} must be {rule[2]}, got {value!r}")


def _nonblank_lines(fh):
    return ((n, line) for n, line in enumerate(fh, 1) if line.strip())


def _record_lineno(path, i: int) -> int:
    """Line number of record ``i``: the header is the first non-blank line."""
    with open(path) as fh:
        return next(itertools.islice(_nonblank_lines(fh), i + 1, None))[0]


def _json_line(path, lineno: int, line: str):
    try:
        return json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ValueError(f"{path}: line {lineno}: malformed log ({exc})") from exc


def _block_values(path, block) -> list:
    """The JSON values of a block of (line number, line) pairs.

    One ``json.loads`` parses the whole block. Each line must start an
    object, so that as many values as lines means one value per line; if
    not, or if the block does not parse, it is parsed line by line, and the
    first bad line is named.
    """
    texts = [line for _, line in block]
    if all(map(str.startswith, texts, itertools.repeat("{"))):
        try:
            rows = json.loads("[" + ",".join(texts) + "]")
        except (json.JSONDecodeError, RecursionError):
            rows = None
        if rows is not None and len(rows) == len(texts):
            return rows
    return [_json_line(path, lineno, line) for lineno, line in block]


def load_log_jsonl(path) -> SessionLog:
    records = []
    make_record = SegmentRecord._make
    with open(path) as fh:
        lines = _nonblank_lines(fh)
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: empty log file")
        header = _json_line(path, *first)
        _check_keys(header, _HEADER_KEYS, f"{path}: header")
        _check_keys(header["config"], _CONFIG_KEYS, f"{path}: header config")
        for key, _, rule in _HEADER_FIELDS:
            if not _valid((header[key],), rule):
                raise _value_error(path, first[0], key, header[key], rule)
        try:
            config = ClientConfig(**header["config"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: header config: {exc}") from exc
        while block := list(itertools.islice(lines, _BLOCK)):
            rows = _block_values(path, block)
            for (lineno, _), row in zip(block, rows):
                if not (isinstance(row, dict) and row.keys() == _COLUMN_SET):
                    _check_keys(row, _COLUMNS, f"{path}: line {lineno}")
            records.extend(map(make_record, map(_column_values, rows)))
    # whole columns at a time, which is far cheaper than a check per value
    for name, rule, column in zip(_COLUMNS, _COLUMN_RULES, zip(*records)):
        if not _valid(column, rule):
            i = next(i for i, value in enumerate(column) if not _valid((value,), rule))
            raise _value_error(path, _record_lineno(path, i), name, column[i], rule)
    return SessionLog(
        records=tuple(records),
        config=config,
        **{field: header[key] for key, field, _ in _HEADER_FIELDS},
    )
