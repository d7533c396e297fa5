"""The benchmark's tracer patches vbrsim by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_patch_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # loads the names; install() is never called
    assert tracer.FUNCTIONS
    for name in tracer.FUNCTIONS:
        for site in {name, tracer.PATCH_SITES.get(name, name)}:
            module, *path = site.split(".")
            owner = importlib.import_module(f"vbrsim.{module}")
            for attr in path:
                owner = getattr(owner, attr)
            assert callable(owner), site
