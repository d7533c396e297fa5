"""Shared helpers for building synthetic session logs in tests."""

from vbrsim.engine import SegmentRecord, SessionLog
from vbrsim.model import ClientConfig


def synthetic_log(versions, buffers=None, stalls=None, duration=2.0, bitrate=1e6):
    """A log with prescribed per-segment version/buffer/stall series."""
    n = len(versions)
    buffers = buffers if buffers is not None else [20.0] * n
    stalls = stalls if stalls is not None else [0.0] * n
    records = []
    t = 0.0
    for i, v in enumerate(versions):
        size = bitrate * duration
        records.append(
            SegmentRecord(
                index=i,
                version_requested=v,
                size_bits=size,
                request_time=t,
                completion_time=t + 1.0,
                instant_throughput=size / 1.0,
                buffer_before=buffers[i],
                buffer_after=buffers[i],
                case_label="stable",
                stall_time=stalls[i],
            )
        )
        t += 1.0
    return SessionLog(
        records=tuple(records),
        config=ClientConfig(),
        manifest_title="synthetic",
        trace_label="synthetic",
        segment_duration=duration,
        num_versions=max(versions),
        playback_start=1.0,
    )
