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
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
from math import inf
from operator import gt, itemgetter
from typing import NamedTuple

from . import policies
from .estimators import EstimatorState, estimate_cross_version_bitrate
from .model import BandwidthTrace, ClientConfig, ClientView, VideoManifest
from .model import INTEGER, NONNEGATIVE, NUMBER, POSITIVE, QP_MAX, QP_MIN, STRING
from .model import check, check_each, check_keys, int_range, one_of, segment_size


class SegmentRecord(NamedTuple):
    """One log line: a plain tuple whose fields declare the ``LOG_COLUMNS``, in order."""

    index: int
    version: int
    size_bits: float
    request_time_s: float
    completion_time_s: float
    throughput_bps: float
    buffer_before_s: float
    buffer_after_s: float
    case: str
    stall_time: float  # the stall_s column; perfbench/tracer.py reads this name


@dataclass(frozen=True)
class SessionLog:
    """Per-segment records plus the inputs needed to interpret them."""

    records: tuple
    config: ClientConfig
    manifest_title: str
    trace_label: str
    segment_duration_s: float
    num_versions: int
    playback_start_s: float


def download_time(trace: BandwidthTrace, start: float, size: float, rtt: float) -> float:
    """Wall-clock time to fetch ``size`` bits starting at ``start``.

    One RTT elapses before the first bit arrives, then the transfer proceeds
    at the trace's bandwidth, integrated exactly across pieces. The returned
    duration includes the RTT.

    Each piece costs one division, one exit test and no builtin call. Before time 0
    the first piece applies, at an inf or NaN ``t`` the last, and a NaN ``finish``
    ends the walk. The ``if`` below keeps what ``max(remaining, 0.0)`` returns,
    ``-0.0`` and NaN included. It fires when ``piece_end - t`` and ``remaining / bw``
    round up to one value and ``t`` plus it rounds past ``piece_end``.
    """
    t = start + rtt
    ends = trace.ends
    breakpoints = trace.breakpoints
    piece = bisect_right(ends, t, 0, len(ends) - 1)
    remaining = size
    while True:
        bw = breakpoints[piece][1]
        finish = t + remaining / bw
        piece_end = ends[piece]
        if not finish > piece_end:
            return finish - start
        remaining -= bw * (piece_end - t)
        if remaining < 0.0:
            remaining = 0.0
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
    check(cfg.start_version, int_range(1, num_versions), "start_version")
    duration = manifest.segment_duration
    sizes = manifest.segment_sizes
    # each rounding step of a projection theta * b * 2 ** (dQP / 6) is monotone in
    # b, so a version's smallest and largest bitrate bound all its projections
    top = 0.0  # the largest bitrate, actual or projected, that a window can hold
    for k, (qp_from, bitrates) in enumerate(zip(manifest.qps, manifest.bitrate_range), 1):
        for b in bitrates:
            for j, qp_to in enumerate(manifest.qps, 1):
                projected = estimate_cross_version_bitrate(b, qp_from, qp_to, cfg.theta)
                if j != k and not 0.0 < projected < inf:
                    raise ValueError(
                        f"theta {cfg.theta} projects version {k}'s bitrate {b} "
                        f"onto version {j} as {projected}, not a finite number > 0"
                    )
                top = max(top, b if j == k else projected)  # what enters version j's window
    # float addition of values >= 0 is monotone, so no window's sum exceeds this one
    n = min(cfg.window_n, manifest.num_segments)
    if sum(itertools.repeat(top, n)) == inf:
        raise ValueError(f"window_n {cfg.window_n} sums {n} bitrates of up to {top} to inf")
    est = EstimatorState(manifest.qps, cfg)
    # looked up once per session, not per segment; bound here rather than at
    # import, so that a patched policies.decide or method is still called
    beta_max, rtt = cfg.beta_max, cfg.rtt
    ingest = est.ingest_segment
    update_throughput = est.update_smoothed_throughput
    decide = policies.decide
    records = []
    append = records.append
    # a record is built as the plain tuple it is, without the named-tuple
    # constructor's argument handling
    new_record = tuple.__new__

    clock = 0.0
    buffer = 0.0
    version = cfg.start_version

    # every failure in the loop is one segment's, and names it
    try:
        for index in range(manifest.num_segments):
            if buffer > beta_max:
                # idle until the buffer has played down to the target level
                clock += buffer - beta_max
                buffer = beta_max

            size = sizes[version - 1][index]
            completion = clock + download_time(trace, clock, size, rtt)
            elapsed = completion - clock

            buffer_before = buffer
            # playback runs from the first completion on: the buffer drains by
            # elapsed, and any shortfall, -drained (== elapsed - buffer exactly),
            # is stall
            drained = buffer - elapsed if index else 0.0
            stall = -drained if drained < 0.0 else 0.0
            buffer = (drained if drained > 0.0 else 0.0) + duration

            # the size rule keeps size / duration finite and > 0, but size / elapsed
            # can round to 0.0 or inf, and is inf if the download takes no time
            t_instant = size / elapsed if elapsed else inf
            if not 0.0 < t_instant < inf:
                raise ValueError(
                    f"a download of size_bits {size} requested at request_time_s {clock} "
                    f"has throughput {t_instant}, not a finite number > 0, over {elapsed} s"
                )
            ingest(version, size / duration)
            update_throughput(t_instant)

            # ClientView(buffer_level, last_version, last_throughput)
            next_version, case_label = decide(ClientView(buffer, version, t_instant), est, cfg)

            append(
                new_record(
                    SegmentRecord,
                    (
                        index, version, size, clock, completion, t_instant,
                        buffer_before, buffer, case_label, stall,
                    ),
                )
            )
            if not 1 <= next_version <= num_versions:
                # version 0 would read the last version's sizes
                raise ValueError(
                    f"the policy chose version {next_version!r}, out of range 1..{num_versions}"
                )
            version = next_version
            clock = completion
    except ValueError as exc:
        raise ValueError(f"segment {index}: {exc}") from exc

    return SessionLog(
        records=tuple(records),
        config=cfg,
        manifest_title=manifest.title,
        trace_label=trace_label,
        segment_duration_s=duration,
        num_versions=num_versions,
        playback_start_s=records[0].completion_time_s,
    )


# ---------------------------------------------------------------------------
# Serialization: JSON lines (header line, then one record per line) and CSV.
# ---------------------------------------------------------------------------

# The SegmentRecord fields, with stall_time written as stall_s: a record is a
# tuple in column order, which both writers and load_log_jsonl rely on
LOG_COLUMNS = SegmentRecord._fields[:-1] + ("stall_s",)
_COLUMN_SET = frozenset(LOG_COLUMNS)
_column_values = itemgetter(*LOG_COLUMNS)
# One JSONL record line, filled with value text. json.dumps writes an int or a
# finite float as its repr, and a policy's case label in plain quotes, so the
# line has the same bytes as json.dumps(dict(zip(LOG_COLUMNS, record))) for a
# valid record.
_RECORD_LINE = "{%s}\n" % ", ".join(
    f'"{column}": ' + ('"%s"' if column == "case" else "%s") for column in LOG_COLUMNS
)
_CSV_HEADER = ",".join(LOG_COLUMNS) + "\r\n"
_case_label = itemgetter(LOG_COLUMNS.index("case"))
# Records formatted and written, or log lines parsed, at a time. A block's
# text and parsed objects take a few tens of kB, so peak memory does not grow
# with the log; larger blocks were no faster and raised peak memory.
_BLOCK = 64


# (header key and SessionLog field, rule); the header also holds "config". A
# manifest's QPs are distinct, so it has at most one version per QP
_HEADER_FIELDS = (
    ("manifest_title", STRING),
    ("trace_label", STRING),
    ("segment_duration_s", POSITIVE),
    ("num_versions", int_range(1, QP_MAX - QP_MIN + 1)),
    ("playback_start_s", POSITIVE),
)
_HEADER_KEYS = tuple(key for key, _ in _HEADER_FIELDS) + ("config",)
_CONFIG_KEYS = tuple(f.name for f in fields(ClientConfig))


def _value_text(records):
    """Yield each block of records as value text, which both writers share.

    A record's text is the repr of its nine numbers and its raw ``case`` label.
    A request time that is the previous record's completion time object, and a
    buffer_before_s that is its buffer_after_s object, as ``run_session`` logs them
    unless the client idled, reuse that text. Identity, not equality, decides,
    since 0.0 == -0.0.
    """
    r = repr
    prev_done = prev_after = object()  # no record holds this object
    done_text = after_text = ""
    for start in range(0, len(records), _BLOCK):
        block = records[start : start + _BLOCK]
        rows = []
        add = rows.append
        for i, v, size, req, done, tput, before, after, case, stall in block:
            req_text = done_text if req is prev_done else r(req)
            before_text = after_text if before is prev_after else r(before)
            prev_done, prev_after = done, after
            done_text, after_text = r(done), r(after)
            add(
                (
                    r(i), r(v), r(size), req_text, done_text, r(tput),
                    before_text, after_text, case, r(stall),
                )
            )
        yield rows


def _jsonl_lines(block) -> str:
    return "".join(map(_RECORD_LINE.__mod__, block))


def _csv_lines(block) -> str:
    return "\r\n".join(map(",".join, block)) + "\r\n"


def _jsonl_header(log: SessionLog) -> str:
    header = {key: getattr(log, key) for key, _ in _HEADER_FIELDS}
    header["config"] = asdict(log.config)
    return json.dumps(header, sort_keys=True) + "\n"


def _check_cases(log: SessionLog) -> None:
    cases = policies.CASES[log.config.policy]
    unknown = set(map(_case_label, log.records)).difference(cases)
    if unknown:
        raise ValueError(
            f"case label {min(unknown)!r} is not one of {sorted(cases)}, "
            f"the labels of policy {log.config.policy!r}"
        )


def save_log_jsonl(log: SessionLog, path) -> None:
    _check_cases(log)
    with open(path, "w") as fh:
        fh.write(_jsonl_header(log))
        fh.writelines(map(_jsonl_lines, _value_text(log.records)))


def save_log_csv(log: SessionLog, path) -> None:
    _check_cases(log)
    with open(path, "w", newline="") as fh:
        fh.write(_CSV_HEADER)
        fh.writelines(map(_csv_lines, _value_text(log.records)))


def save_logs(log: SessionLog, jsonl_path, csv_path) -> None:
    """Write both logs of ``log`` from one formatting pass, block by block."""
    _check_cases(log)
    with open(jsonl_path, "w") as jsonl_file, open(csv_path, "w", newline="") as csv_file:
        jsonl_file.write(_jsonl_header(log))
        csv_file.write(_CSV_HEADER)
        for block in _value_text(log.records):
            jsonl_file.write(_jsonl_lines(block))
            csv_file.write(_csv_lines(block))


def _value_error(lineno: int, name: str, value, wording: str) -> ValueError:
    return ValueError(f"line {lineno}: field {name!r} must be {wording}, got {value!r}")


def _json_line(lineno: int, line: bytes):
    try:
        return json.loads(line.decode())
    except UnicodeDecodeError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: too deeply nested
        raise ValueError(f"line {lineno}: malformed log ({exc})") from exc


def _block_values(block) -> list:
    """The JSON values of a block of (line number, line bytes) pairs.

    One ``json.loads`` parses the whole block. Each line must start an
    object, so that as many values as lines means one value per line; if
    not, or if the block does not decode or parse, it is parsed line by
    line, and the first bad line is named.
    """
    texts = [line for _, line in block]
    if all(map(bytes.startswith, texts, itertools.repeat(b"{"))):
        try:
            rows = json.loads((b"[" + b",".join(texts) + b"]").decode())
        except (ValueError, RecursionError):
            rows = None
        if rows is not None and len(rows) == len(texts):
            return rows
    return [_json_line(lineno, line) for lineno, line in block]


def load_log_jsonl(path) -> SessionLog:
    records = []
    with open(path, "rb") as fh:
        # the header is line 1 and record i is line i + 2
        lines = enumerate(fh, 1)
        first = next(lines, None)
        if first is None:
            raise ValueError("empty log file")
        header = _json_line(*first)
        check_keys(header, _HEADER_KEYS, "header: ")
        check_keys(header["config"], _CONFIG_KEYS, "header config: ")
        for key, rule in _HEADER_FIELDS:
            check(header[key], rule, f"line 1: field {key!r}")
        try:
            config = ClientConfig(**header["config"])
        except ValueError as exc:
            raise ValueError(f"header config: {exc}") from exc
        while block := list(itertools.islice(lines, _BLOCK)):
            rows = _block_values(block)
            for (lineno, _), row in zip(block, rows):
                if not (isinstance(row, dict) and row.keys() == _COLUMN_SET):
                    check_keys(row, LOG_COLUMNS, f"line {lineno}: ")
            # each record is built as the plain tuple it is, as in run_session
            records.extend(
                map(tuple.__new__, itertools.repeat(SegmentRecord), map(_column_values, rows))
            )
    if not records:  # run never writes one: the file was cut short
        raise ValueError("log has no records")
    # one rule per column, in LOG_COLUMNS order, each tested on a whole column
    rules = (
        INTEGER, int_range(1, header["num_versions"]), segment_size(header["segment_duration_s"]),
        NONNEGATIVE, NUMBER, POSITIVE, NONNEGATIVE, NONNEGATIVE,
        one_of(policies.CASES[config.policy]), NONNEGATIVE,
    )
    columns = tuple(zip(*records))
    for name, rule, column in zip(LOG_COLUMNS, rules, columns):
        check_each(column, rule, lambda i: f"line {i + 2}: field {name!r}")
    # the checks that read more than one value
    index, _, _, request, completion = columns[:5]
    if index != tuple(range(len(index))):
        i = next(i for i, value in enumerate(index) if value != i)
        raise _value_error(i + 2, "index", index[i], "the record's position")
    if not all(map(gt, completion, request)):
        i = next(i for i, (done, req) in enumerate(zip(completion, request)) if not done > req)
        raise _value_error(i + 2, "completion_time_s", completion[i], "> request_time_s")
    if header["playback_start_s"] != completion[0]:
        wording = f"line 2's completion_time_s {completion[0]!r}"
        raise _value_error(1, "playback_start_s", header["playback_start_s"], wording)
    return SessionLog(
        records=tuple(records),
        config=config,
        **{key: header[key] for key, _ in _HEADER_FIELDS},
    )
