"""The benchmark's tracer patches vbrsim by name: every name must resolve, and
every per-segment call must reach the patched name."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from tests_support import TRACER, load_tracer

import vbrsim
from vbrsim.cli import main

def test_tracer_patch_names_resolve():
    tracer = load_tracer()
    assert tracer.FUNCTIONS
    for name in tracer.FUNCTIONS:
        for site in {name, tracer.PATCH_SITES.get(name, name)}:
            module, *path = site.split(".")
            owner = importlib.import_module(f"vbrsim.{module}")
            for attr in path:
                owner = getattr(owner, attr)
            assert callable(owner), site


# Installs the tracer, then runs `vbrsim run` in-process; argv: perfbench dir,
# metrics output path, then the run arguments
_TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
t = tracer.Tracer()
t.install()
from vbrsim import cli
assert cli.main(["run", *sys.argv[3:]]) == 0
with open(sys.argv[2], "w") as fh:
    json.dump(t.layer_metrics(), fh)
"""

PER_SEGMENT_CALLS = (
    "engine.download_time",
    "model.ClientView",
    "estimators.EstimatorState.ingest_segment",
    "estimators.EstimatorState.update_smoothed_throughput",
    "policies.decide",
)


def test_tracer_sees_every_per_segment_call(tmp_path):
    # a name bound where the tracer cannot patch it (at import, say) would
    # show here as fewer calls than segments
    segments = 80
    manifest, trace = tmp_path / "m.json", tmp_path / "t.csv"
    gen_ladder = ["gen", "ladder", "--preset", "sony-like", "--segments", str(segments)]
    assert main([*gen_ladder, "--seed", "3", "--out", str(manifest)]) == 0
    gen_trace = ["gen", "bandwidth", "rect", "2500", "300", "40", "30", "400"]
    assert main([*gen_trace, "--out", str(trace)]) == 0

    metrics_path = tmp_path / "metrics.json"
    run_args = ["--manifest", str(manifest), "--bandwidth", str(trace)]
    run_args += ["--policy", "itb,avg:10", "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(vbrsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(TRACER.parent), str(metrics_path), *run_args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(metrics_path.read_text())

    assert metrics["engine.run_session.calls"] == 2
    for name in PER_SEGMENT_CALLS:
        assert metrics[f"{name}.calls"] == 2 * segments, name
    fractions = [metrics[f"policies.case.{case}_frac"] for case in load_tracer().CASES]
    assert sum(fractions) == pytest.approx(1.0, abs=1e-12)
    assert metrics["policies.case.itb_frac"] == 0.5
