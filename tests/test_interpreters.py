"""The CLI writes the same bytes under every Python that requires-python admits.

The other interpreters are found as ``python3.N`` on ``PATH`` and as
``~/.pyenv/versions/*/bin/python3``, and each is kept only if it answers a
``-c`` probe with a version that ``requires-python`` admits. They need not
have pytest, so they are driven only through ``python -m vbrsim.cli`` with
``PYTHONPATH`` set to ``src``.

When this test was written it ran, beside CPython 3.11.7, under CPython
3.12.1 and 3.13.0 (pyenv) and 3.13.13 (Anaconda); a ``python3.12`` shim with
no interpreter behind it failed the probe. The session is the README
scenario on the seed-7 ladder: its ITB ``std_buffer`` differed in the last
digit under 3.10, whose ``statistics.pstdev`` is not correctly rounded, when
``metrics`` still called it. ``metrics`` now rounds each standard deviation
once from exact integer sums, so this test guards the other sources of
drift: float summation, ``repr`` and the JSON and CSV writers.
"""

import glob
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = "import os, sys; print(*sys.version_info[:2], os.path.realpath(sys.executable))"

SESSION = (
    ("gen", "ladder", "--preset", "sony-like", "--seed", "7", "--out", "m.json"),
    ("gen", "bandwidth", "rect", "2500", "500", "120", "60", "600", "--out", "t.csv"),
    ("run", "--manifest", "m.json", "--bandwidth", "t.csv", "--policy", "itb,avg:30",
     "--warmup", "auto", "--out", "out"),
)


def _minimum_version() -> tuple:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["requires-python"]
    major, minor = re.fullmatch(r">=\s*(\d+)\.(\d+)", spec).groups()
    return int(major), int(minor)


def _other_interpreters() -> list:
    """Working interpreters that requires-python admits, other than this one."""
    minimum = _minimum_version()
    candidates = [shutil.which(f"python3.{n}") for n in range(minimum[1], 30)]
    candidates += sorted(glob.glob(str(Path.home() / ".pyenv/versions/*/bin/python3")))
    own = os.path.realpath(sys.executable)
    found = {}
    for exe in filter(None, candidates):
        try:
            probe = subprocess.run([exe, "-c", PROBE], capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode != 0:
            continue
        major, minor, real = probe.stdout.strip().split(" ", 2)
        if (int(major), int(minor)) >= minimum and real != own:
            found.setdefault(real, exe)
    return sorted(found.values())


def _session_digests(python: str, workdir: Path) -> dict:
    """sha256 of every file the session writes, and of what it prints."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    printed = []
    for args in SESSION:
        done = subprocess.run(
            [python, "-m", "vbrsim.cli", *args],
            cwd=workdir, env=env, capture_output=True, timeout=60,
        )
        assert done.returncode == 0, (python, args, done.stderr)
        printed.append(done.stdout)
    digests = {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in workdir.rglob("*")
        if path.is_file()
    }
    digests["stdout"] = hashlib.sha256(b"".join(printed)).hexdigest()
    return digests


def test_cli_writes_the_same_bytes_under_every_supported_python(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other interpreter that requires-python admits was found")
    want = _session_digests(sys.executable, tmp_path / "this")
    assert len(want) == 14  # the two inputs, eleven run outputs and stdout
    for i, python in enumerate(others):
        assert _session_digests(python, tmp_path / f"other-{i}") == want, python
