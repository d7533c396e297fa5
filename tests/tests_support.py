"""Shared test helpers: the CLI in process, the README's inputs, synthetic
session logs and the benchmark's modules."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from vbrsim.cli import main
from vbrsim.engine import SegmentRecord, SessionLog
from vbrsim.model import ClientConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def call_main(argv):
    """``cli.main(argv)``'s exit code and stderr; stdout is discarded and
    anything that escapes ``main`` reaches the caller."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def readme_inputs(directory: Path):
    """The README's sony-like manifest and rect trace, written into ``directory``."""
    manifest, trace = directory / "sony.json", directory / "rect.csv"
    assert main(["gen", "ladder", "--preset", "sony-like", "--out", str(manifest)]) == 0
    rect = ["gen", "bandwidth", "rect", "2500", "500", "120", "60", "600", "--out", str(trace)]
    assert main(rect) == 0
    return manifest, trace


def load_perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path.

    Loading defines its names and runs nothing else.
    """
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses look up its annotations
    spec.loader.exec_module(module)
    return module


def load_tracer():
    """The benchmark's tracer; its install() is never called."""
    return load_perfbench("tracer")


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
                version=v,
                size_bits=size,
                request_time_s=t,
                completion_time_s=t + 1.0,
                throughput_bps=size / 1.0,
                buffer_before_s=buffers[i],
                buffer_after_s=buffers[i],
                case="stable",
                stall_time=stalls[i],
            )
        )
        t += 1.0
    return SessionLog(
        records=tuple(records),
        config=ClientConfig(),
        manifest_title="synthetic",
        trace_label="synthetic",
        segment_duration_s=duration,
        num_versions=max(versions),
        playback_start_s=1.0,
    )
