"""Seeded mutation test of every file vbrsim reads.

Each case corrupts one thing in the README manifest, the README rect trace or
a session log that ``run`` wrote, then runs ``cli.main`` on it in-process. Any
bad input must end in exit 0, 2 or 3, never escape ``main``, and an exit-2
message must name the corrupted file. The seed and the case count are fixed.
"""

import json
import math
import random

from tests_support import call_main, readme_inputs

SEED = 2026
CASES = 400

# What a mutation writes in place of a value
VALUES = (math.nan, math.inf, -math.inf, 1e308, 10**400, -(10**400), "2", "x", True, False, None)
# "value" writes one of VALUES, "negate", "times8" and "div8" rescale a number
# (a bits/bytes or bits/kbit unit swap), "drop" removes it and "truncate" cuts
# the text short
KINDS = ("value", "value", "negate", "times8", "div8", "drop", "truncate")


def _scaled(kind, number):
    return {"negate": -number, "times8": number * 8, "div8": number / 8}[kind]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _mutate_json(text: str, rng: random.Random) -> str:
    """``text``, one JSON document, with one value or key corrupted."""
    kind = rng.choice(KINDS)
    if kind == "truncate":
        return text[: rng.randrange(len(text))]
    doc = json.loads(text)
    # walk down at random; stop at a leaf, or at a container one time in four
    parent, key = doc, rng.choice(list(doc))
    while isinstance(parent[key], (dict, list)) and parent[key] and rng.random() >= 0.25:
        parent = parent[key]
        key = rng.choice(list(parent)) if isinstance(parent, dict) else rng.randrange(len(parent))
    if kind == "drop":
        del parent[key]
    elif kind != "value" and _is_number(parent[key]):
        parent[key] = _scaled(kind, parent[key])
    else:
        parent[key] = rng.choice(VALUES)
    return json.dumps(doc)


def _mutate_log(text: str, rng: random.Random) -> str:
    """``text``, a JSONL log, with one value, key or line corrupted."""
    lines = text.splitlines()
    # the header one time in five, otherwise a record
    i = 0 if rng.random() < 0.2 else rng.randrange(1, len(lines))
    lines[i] = _mutate_json(lines[i], rng)
    return "\n".join(lines) + "\n"


def _field_text(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def _mutate_trace(text: str, rng: random.Random) -> str:
    """``text``, a CSV trace, with one field or line corrupted."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    fields = lines[i].split(",")
    column = rng.randrange(len(fields))
    kind = rng.choice(KINDS)
    if kind == "truncate":
        lines[i] = lines[i][: rng.randrange(len(lines[i]))]
    elif kind == "drop":
        del fields[column]
        lines[i] = ",".join(fields)
    else:
        try:
            number = float(fields[column])
        except ValueError:  # the header
            kind = "value"
        value = rng.choice(VALUES) if kind == "value" else _scaled(kind, number)
        fields[column] = _field_text(value)
        lines[i] = ",".join(fields)
    return "\r\n".join(lines) + "\r\n"


def test_every_mutated_input_exits_0_2_or_3_naming_the_file(tmp_path):
    manifest, trace = readme_inputs(tmp_path)
    out = tmp_path / "out"
    run = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(out)]
    assert call_main([*run, "--policy", "itb,avg:30"])[0] == 0

    def run_on(bad_manifest, bad_trace):
        return ["run", "--manifest", str(bad_manifest), "--bandwidth", str(bad_trace),
                "--out", str(tmp_path / "mutated-out")]

    def stats_on(bad_log):
        return ["stats", "--log", str(bad_log)]

    bad = {
        "manifest": tmp_path / "bad.json",
        "trace": tmp_path / "bad.csv",
        "itb-log": tmp_path / "bad-itb.jsonl",
        "avg-log": tmp_path / "bad-avg.jsonl",
    }
    # target: (its text, mutation, argv on the corrupted copy)
    targets = {
        "manifest": (manifest.read_text(), _mutate_json, run_on(bad["manifest"], trace)),
        "trace": (trace.read_text(), _mutate_trace, run_on(manifest, bad["trace"])),
        "itb-log": ((out / "itb.jsonl").read_text(), _mutate_log, stats_on(bad["itb-log"])),
        "avg-log": ((out / "avg-30.jsonl").read_text(), _mutate_log, stats_on(bad["avg-log"])),
    }

    rng = random.Random(SEED)
    failures, exits = [], {target: set() for target in targets}
    for case in range(CASES):
        target = rng.choice(sorted(targets))
        text, mutate, argv = targets[target]
        bad[target].write_text(mutate(text, rng))
        try:
            code, err = call_main(argv)
        except BaseException as exc:  # anything that escapes main
            failures.append(f"case {case} ({target}): {type(exc).__name__}: {exc}")
            continue
        exits[target].add(code)
        if code not in (0, 2, 3) or (code == 2 and str(bad[target]) not in err):
            failures.append(f"case {case} ({target}): exit {code}: {err.strip()[:300]}")
    assert not failures, "\n".join(failures)
    # every file was corrupted in ways that are refused and in ways that are not
    assert all(codes >= {0, 2} for codes in exits.values()), exits
