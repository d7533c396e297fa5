"""Mutation check: does the test suite fail when one operator of the core is swapped?

Run as ``python tests/mutants.py``. It takes several minutes, so it is not a
test that pytest collects.

Each mutant swaps one operator token (``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``+``/``-``, ``*``/``/`` or ``+=``/``-=``) in one of
FUNCTIONS. The mutants follow from the source in file order, so two runs on
the same code try the same mutants. Each one is written into a temporary copy
of the repository, where ``python -m pytest -x -q -p no:cacheprovider`` runs;
a failing suite kills the mutant. The files under ``src/`` are never written.

The script exits 0 only if every surviving mutant is listed in EQUIVALENT,
every entry there matches a survivor, and the files under ``src/`` hash the
same at exit as at the start.
"""

import ast
import contextlib
import hashlib
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "vbrsim")
PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider")
# suites run at a time
JOBS = 2

# (module, qualified name) of each function whose operators are swapped
FUNCTIONS = (
    ("engine", "download_time"),
    ("engine", "run_session"),
    ("policies", "flexible_threshold"),
    ("policies", "select_panic_version"),
    ("policies", "avg_decide"),
    ("policies", "decide"),
    ("estimators", "estimate_cross_version_bitrate"),
    ("estimators", "EstimatorState.rep_bitrate"),
    ("estimators", "EstimatorState.update_smoothed_throughput"),
    ("estimators", "EstimatorState.ingest_segment"),
    ("metrics", "compute_stats"),
    ("metrics", "_pstdev"),
    ("metrics", "buffer_cdf"),
    ("metrics", "warmup_segments"),
)

SWAPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "*": "/", "/": "*", "+=": "-=", "-=": "+=",
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}

# Survivors that no test can kill, by (function, mutated line, stripped), with
# the reason each gives the same bytes as the source on every input
EQUIVALENT = {
    ("download_time", "if remaining <= 0.0:"): (
        "it also sets 0.0 and -0.0 to 0.0, and t + 0.0 / bw equals t + -0.0 / bw"
    ),
    ("run_session", "if buffer >= beta_max:"): (
        "at buffer == beta_max it idles by 0.0 and sets buffer to the value it has"
    ),
    ("run_session", "buffer = (drained if drained >= 0.0 else 0.0) + duration"): (
        "at drained == 0.0 both branches add 0.0 + duration"
    ),
    ("_pstdev", "if q > 0:"): "at q == 0 both branches shift by 0",
    ("_pstdev", "return (root << q) / 1 if q > 0 else root / (1 << -q)"): (
        "at q == 0 both branches divide root by 1"
    ),
}


class Mutant(NamedTuple):
    module: str
    function: str
    lineno: int
    col: int
    old: str
    new: str

    def where(self) -> str:
        return f"{self.module}.py:{self.lineno} {self.function}"


def _functions(tree, names):
    """The definition node of each qualified name in ``names``."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    found[f"{node.name}.{sub.name}"] = sub
    return [found[name] for name in names]


def _operators(function):
    """(left operand, operator text) of each swappable operator in ``function``;
    the operator is the first token after the left operand ends."""
    for node in ast.walk(function):
        if isinstance(node, ast.BinOp):
            pairs = [(node.left, SYMBOLS.get(type(node.op)))]
        elif isinstance(node, ast.AugAssign):
            pairs = [(node.target, SYMBOLS.get(type(node.op), "") + "=")]
        elif isinstance(node, ast.Compare):
            pairs = zip([node.left, *node.comparators], map(SYMBOLS.get, map(type, node.ops)))
        else:
            continue
        yield from ((left, text) for left, text in pairs if text in SWAPS)


def mutants(root: Path) -> list:
    """Every mutant of FUNCTIONS in the package under ``root``, in file order."""
    found = []
    for module in dict.fromkeys(module for module, _ in FUNCTIONS):
        start = len(found)
        path = root / PACKAGE / f"{module}.py"
        source = path.read_text(encoding="utf-8")
        with open(path, "rb") as fh:
            tokens = [
                tok for tok in tokenize.tokenize(fh.readline)
                if tok.type == tokenize.OP and tok.string != ")"
            ]
        names = [name for owner, name in FUNCTIONS if owner == module]
        for name, function in zip(names, _functions(ast.parse(source), names)):
            for left, old in _operators(function):
                end = (left.end_lineno, left.end_col_offset)
                token = next(tok for tok in tokens if tok.start >= end)
                assert token.string == old, (path, token)
                found.append(Mutant(module, name.rpartition(".")[2], *token.start, old, SWAPS[old]))
        found[start:] = sorted(found[start:], key=lambda mutant: (mutant.lineno, mutant.col))
    return found


def _mutated(source: str, mutant: Mutant) -> tuple:
    """``source`` with ``mutant`` applied, and its mutated line."""
    lines = source.splitlines(keepends=True)
    line = lines[mutant.lineno - 1]
    assert line[mutant.col:].startswith(mutant.old)
    lines[mutant.lineno - 1] = line[:mutant.col] + mutant.new + line[mutant.col + len(mutant.old):]
    return "".join(lines), lines[mutant.lineno - 1].strip()


def _suite_passes(copy: Path, timeout: float) -> bool:
    """Whether the test suite passes in ``copy`` within ``timeout`` seconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode of a mutant
    proc = subprocess.Popen(
        PYTEST, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        return False
    finally:
        # also ends any process the suite started and left behind
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def _src_hashes() -> dict:
    return {
        path: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((ROOT / "src").rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    }


def main() -> int:
    started = time.monotonic()
    hashes = _src_hashes()
    todo = mutants(ROOT)
    print(f"{len(todo)} mutants of {len(FUNCTIONS)} functions, {JOBS} at a time", flush=True)
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")
    with tempfile.TemporaryDirectory(prefix="vbrsim-mutants-") as scratch:
        copies = queue.Queue()
        for job in range(JOBS):
            copies.put(shutil.copytree(ROOT, Path(scratch, str(job)), ignore=ignore))
        copy = copies.get()
        clean_start = time.monotonic()
        if not _suite_passes(copy, timeout=3600):
            print("the test suite fails on the unmutated code")
            return 1
        # a mutant can loop forever; a suite that runs this long kills it
        timeout = max(60.0, 4 * (time.monotonic() - clean_start))
        copies.put(copy)

        def run(mutant: Mutant) -> tuple:
            copy = copies.get()
            path = copy / PACKAGE / f"{mutant.module}.py"
            source = path.read_text(encoding="utf-8")
            text, line = _mutated(source, mutant)
            try:
                path.write_text(text, encoding="utf-8")
                survived = _suite_passes(copy, timeout)
            finally:
                path.write_text(source, encoding="utf-8")
                copies.put(copy)
            print(f"{'SURVIVED' if survived else 'killed  '} {mutant.where()}: {line}", flush=True)
            return survived, (mutant.function, line)

        with ThreadPoolExecutor(JOBS) as pool:
            results = list(pool.map(run, todo))

    survivors = [key for survived, key in results if survived]
    equivalent = [key for key in survivors if key in EQUIVALENT]
    real = [key for key in survivors if key not in EQUIVALENT]
    stale = sorted(set(EQUIVALENT) - set(survivors))
    print(
        f"{len(todo)} mutants: {len(todo) - len(survivors)} killed, {len(equivalent)} "
        f"equivalent, {len(real)} other survivors; {time.monotonic() - started:.0f} s"
    )
    for key in equivalent:
        print(f"equivalent {key[0]}: {key[1]} ({EQUIVALENT[key]})")
    for key in real:
        print(f"SURVIVOR   {key[0]}: {key[1]}")
    for key in stale:
        print(f"STALE      {key[0]}: {key[1]} is listed as equivalent but was killed or not made")
    unchanged = _src_hashes() == hashes
    if not unchanged:
        print("the files under src/ changed during the run")
    return 0 if unchanged and not real and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
