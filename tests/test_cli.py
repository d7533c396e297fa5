import argparse
import ast
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import asdict
from pathlib import Path
from types import MappingProxyType

import pytest
from tests_support import call_main, readme_inputs

import vbrsim
from vbrsim.cli import build_parser, main
from vbrsim.engine import load_log_jsonl
from vbrsim.metrics import CDF_MAX_POINTS
from vbrsim.model import ClientConfig, load_manifest, load_trace


@pytest.fixture
def inputs(tmp_path):
    return readme_inputs(tmp_path)


@pytest.fixture(scope="module")
def run_logs(tmp_path_factory):
    """The text of the ITB and AVG-30 logs that ``run`` writes on the README
    inputs, by file name; one run serves every test that corrupts a log."""
    directory = tmp_path_factory.mktemp("run-logs")
    manifest, trace = readme_inputs(directory)
    out = directory / "out"
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(out)]
    assert call_main([*args, "--policy", "itb,avg"])[0] == 0
    return MappingProxyType({log: (out / log).read_text() for log in ("itb.jsonl", "avg-30.jsonl")})


def _refused(argv, *named):
    """Run ``argv`` in process: it must exit 2 with no traceback, name each of
    ``named`` in stderr and leave its ``--out``, if any, unwritten. Returns stderr."""
    code, err = call_main(argv)
    assert code == 2, err
    assert "Traceback" not in err
    for text in named:
        assert text in err
    if "--out" in argv:
        assert not Path(argv[argv.index("--out") + 1]).exists()
    return err


@pytest.mark.parametrize("command", ["run", "stats"])
def test_python_m_entry_point_exits_2_as_main_does(inputs, tmp_path, command):
    # one of the two tests that start the entry point, whose sys.exit(main())
    # sets the exit code; every other refusal runs main in process through _refused
    _, trace = inputs
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    argv = {
        "run": ["run", "--manifest", str(bad), "--bandwidth", str(trace)],
        "stats": ["stats", "--log", str(bad)],
    }[command] + ["--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(vbrsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "vbrsim.cli", *argv], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stderr) == (2, _refused(argv, str(bad)))


def test_python_m_entry_point_reads_its_arguments_from_sys_argv(run_logs, tmp_path, capsys):
    # main(None) takes sys.argv[1:], whose first token names the subcommand
    # that it declares
    log = tmp_path / "avg-30.jsonl"
    log.write_text(run_logs["avg-30.jsonl"])
    argv = ["stats", "--log", str(log), "--warmup", "auto"]
    assert main(argv) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(vbrsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "vbrsim.cli", *argv], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


# argv lists that argparse ends: help, usage errors and option types
_PARSER_EXITS = {
    "no-args": [],
    "help": ["-h"],
    "run-help": ["run", "-h"],
    "gen-help": ["gen", "-h"],
    "gen-ladder-help": ["gen", "ladder", "-h"],
    "gen-bandwidth-help": ["gen", "bandwidth", "-h"],
    "stats-help": ["stats", "-h"],
    "unknown-command": ["bogus", "--log", "x"],
    "run-no-out": ["run", "--manifest", "m.json", "--bandwidth", "t.csv"],
    "gen-no-kind": ["gen"],
    "gen-unknown-kind": ["gen", "bogus"],
    "gen-bandwidth-no-out": ["gen", "bandwidth", "rect", "1", "2", "3", "4", "5"],
    "gen-ladder-no-preset": ["gen", "ladder", "--out", "m.json"],
    "stats-no-log": ["stats", "--warmup", "auto"],
    "run-unknown-option": ["run", "--manifest", "m", "--bandwidth", "t", "--out", "o", "--bogus"],
    "stats-unknown-option": ["stats", "--log", "x", "--bogus"],
    "stats-extra-positional": ["stats", "--log", "x", "extra"],
    "run-beta-min-not-float": [
        "run", "--manifest", "m", "--bandwidth", "t", "--out", "o", "--beta-min", "abc",
    ],
}


def _parser_exit(call, argv):
    """The SystemExit code, stdout and stderr of ``call(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            call(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _PARSER_EXITS.values(), ids=_PARSER_EXITS)
def test_main_exits_as_the_parser_with_every_subcommand_declared(argv, monkeypatch):
    # main declares only the subcommand named by argv[0], which neither its
    # output nor its exit code may show
    monkeypatch.setenv("COLUMNS", "80")
    assert _parser_exit(main, argv) == _parser_exit(build_parser().parse_args, argv)


def test_a_named_subcommand_leaves_the_others_undeclared():
    # run's required options are not declared, so a bare run parses
    assert build_parser("stats").parse_args(["run"]) == argparse.Namespace(command="run")


class TestGen:
    def test_bandwidth_breakpoint_count(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["gen", "bandwidth", "rect", "2500", "500", "100", "100", "600", "--out", str(out)])
        assert code == 0
        trace = load_trace(out)
        assert len(trace.breakpoints) == 6
        assert trace.breakpoints[0] == (0.0, 2_500_000.0)
        assert trace.breakpoints[1] == (100.0, 500_000.0)

    def test_ladder_preset_round_trips(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["gen", "ladder", "--preset", "sony-like", "--out", str(out)]) == 0
        m = load_manifest(out)
        assert m.num_versions == 6
        assert m.qps == (48, 42, 38, 34, 28, 22)
        assert m.num_segments == 300

    def test_bad_shape_is_config_error(self, tmp_path):
        args = ["gen", "bandwidth", "tri", "1", "2", "3", "4", "5"]
        message = "unknown bandwidth shape 'tri' (expected rect)"
        _refused([*args, "--out", str(tmp_path / "t.csv")], message)

    @pytest.mark.parametrize(
        "args, field",
        [
            pytest.param(
                ["bandwidth", "rect", "2500", "500", "120", "60", "inf"],
                "total must be a finite number > 0, got inf", id="args0-total",
            ),
            # 5e299 breakpoints: must fail before building any of them
            pytest.param(
                ["bandwidth", "rect", "2500", "500", "1", "1", "1e300"],
                "total 1e+300 s with period_high 1.0 s and period_low 1.0 s needs more than "
                "1000000 breakpoints",
                id="args1-total",
            ),
            pytest.param(
                ["bandwidth", "rect", "2500", "500", "nan", "60", "600"], "period_high",
                id="args2-period_high",
            ),
            pytest.param(
                ["bandwidth", "rect", "2500", "500", "120", "nan", "600"], "period_low",
                id="args3-period_low",
            ),
            pytest.param(
                ["ladder", "--preset", "sony-like", "--burstiness", "nan"],
                "burstiness must be a finite number >= 0, got nan", id="args4-burstiness",
            ),
            pytest.param(
                ["ladder", "--preset", "sony-like", "--burstiness", "inf"],
                "burstiness must be a finite number >= 0, got inf", id="args5-burstiness",
            ),
            pytest.param(
                ["ladder", "--preset", "sony-like", "--burstiness", "1e200"],
                "burstiness must have a finite square, got 1e+200", id="args6-burstiness",
            ),
            # 1e8 segments: must fail before generating any of them
            pytest.param(
                ["ladder", "--preset", "sony-like", "--segments", "100000000"],
                "segment_count must be an int in 1..200000, got 100000000",
                id="args7-segment_count",
            ),
        ],
    )
    def test_bad_generator_params_exit_2(self, tmp_path, args, field):
        _refused(["gen", *args, "--out", str(tmp_path / "out")], field)


class TestRun:
    def test_single_policy_outputs(self, inputs, tmp_path, capsys):
        manifest, trace = inputs
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--manifest", str(manifest),
                "--bandwidth", str(trace),
                "--policy", "avg:30",
                "--warmup", "auto",
                "--out", str(out),
            ]
        )
        assert code == 0
        stats = json.loads((out / "avg-30.stats.json").read_text())
        assert stats["max_switch_degree"] == 1
        assert stats["min_version"] >= 2
        assert (out / "avg-30.jsonl").exists()
        assert (out / "avg-30.csv").exists()
        assert (out / "avg-30.stats.txt").exists()
        cdf_lines = (out / "avg-30.cdf.csv").read_text().splitlines()
        assert cdf_lines[0] == "level_s,fraction"
        assert "Maximum switch degree" in capsys.readouterr().out

    def test_comparison_set(self, inputs, tmp_path):
        manifest, trace = inputs
        out = tmp_path / "cmp"
        code = main(
            [
                "run",
                "--manifest", str(manifest),
                "--bandwidth", str(trace),
                "--policy", "itb,avg:30",
                "--warmup", "auto",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "itb.jsonl").exists()
        assert (out / "avg-30.jsonl").exists()
        table = (out / "comparison.txt").read_text()
        assert "ITB" in table and "AVG-30" in table
        assert "STD of buffer levels (s)" in table

    def test_reruns_byte_identical(self, inputs, tmp_path):
        manifest, trace = inputs
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--policy", "avg"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "avg-30.jsonl").read_bytes() == (out_b / "avg-30.jsonl").read_bytes()
        assert (out_a / "avg-30.csv").read_bytes() == (out_b / "avg-30.csv").read_bytes()

    def test_cdf_grid_ends_at_media_length(self, inputs, tmp_path):
        # 300 segments of 2 s: no buffer level can exceed 600 s
        manifest, trace = inputs
        out = tmp_path / "out"
        args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(out)]
        assert main(args + ["--beta-max", "100000"]) == 0
        assert len((out / "avg-30.cdf.csv").read_text().splitlines()) <= 602

    def test_cdf_grid_step_widens_past_max_points(self, inputs, tmp_path):
        # 100 000 s segments: one point per second would write 100 052 lines;
        # 2.5 s segments: the buffer passes 52 s, below its 52.5 s bound
        manifest, trace = inputs
        data = json.loads(manifest.read_text())
        for duration in (100000.0, 2.5):
            data["segment_duration_s"] = duration
            manifest.write_text(json.dumps(data))
            out = tmp_path / f"out-{duration}"
            args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace)]
            assert main([*args, "--out", str(out)]) == 0
            header, *rows = (out / "avg-30.cdf.csv").read_text().splitlines()
            levels = [float(row.split(",")[0]) for row in rows]
            assert header == "level_s,fraction"
            assert 2 < len(levels) <= CDF_MAX_POINTS + 1
            assert levels[0] == 0.0 and levels[1].is_integer()
            assert len({b - a for a, b in zip(levels, levels[1:])}) == 1
            assert rows[-1].endswith(",1.0")  # the grid reaches the largest buffer level

    def test_invalid_thresholds_exit_2(self, inputs, tmp_path):
        manifest, trace = inputs
        args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--beta-min", "50"]
        out = ["--out", str(tmp_path / "x")]
        _refused([*args, "--beta-max", "50", *out], "beta_min must be < beta_max 50.0, got 50.0")

    def test_missing_manifest_exit_3(self, inputs, tmp_path):
        _, trace = inputs
        code, err = call_main(
            [
                "run",
                "--manifest", str(tmp_path / "nope.json"),
                "--bandwidth", str(trace),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert err.startswith("io error: [Errno 2] No such file or directory"), err

    def test_malformed_manifest_exit_2(self, inputs, tmp_path):
        _, trace = inputs
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        args = ["run", "--manifest", str(bad), "--bandwidth", str(trace)]
        _refused([*args, "--out", str(tmp_path / "x")], str(bad))

    def test_bad_policy_spec_exit_2(self, inputs, tmp_path):
        manifest, trace = inputs
        args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace)]
        message = "unknown policy 'tbb' (expected itb, avg, or avg:N)"
        _refused([*args, "--policy", "tbb", "--out", str(tmp_path / "x")], message)


@pytest.mark.parametrize("command", ["run", "stats"])
def test_non_integer_warmup_names_the_option(inputs, tmp_path, monkeypatch, command):
    def unreached(*args, **kwargs):
        pytest.fail("a session was simulated or a log read before --warmup was checked")

    for name in ("run_session", "load_log_jsonl"):
        monkeypatch.setattr(f"vbrsim.engine.{name}", unreached)
    manifest, trace = inputs
    args = {
        "run": ["run", "--manifest", str(manifest), "--bandwidth", str(trace)],
        "stats": ["stats", "--log", str(tmp_path / "avg-30.jsonl")],
    }[command]
    out = ["--out", str(tmp_path / "o")]
    for warmup in ("abc", "-1"):
        message = f"--warmup must be an integer >= 0 or 'auto', got {warmup!r}"
        _refused([*args, *out, "--warmup", warmup], message)


@pytest.mark.parametrize("spelling", ["same-path", "dot-dot", "symlink", "hard-link"])
def test_stats_refuses_an_out_that_is_the_log(run_logs, tmp_path, spelling):
    # writing the stats over the log would leave a file that stats refuses
    log = tmp_path / "avg-30.jsonl"
    log.write_text(run_logs["avg-30.jsonl"])
    (tmp_path / "d").mkdir()
    out = {
        "same-path": log,
        "dot-dot": tmp_path / "d" / ".." / log.name,
        "symlink": tmp_path / "symlink.jsonl",
        "hard-link": tmp_path / "hard-link.jsonl",
    }[spelling]
    if spelling == "symlink":
        out.symlink_to(log)
    elif spelling == "hard-link":
        out.hardlink_to(log)
    code, err = call_main(["stats", "--log", str(log), "--out", str(out)])
    assert (code, err) == (2, f"error: {log}: --out must not be the --log file, got {out}\n")
    assert log.read_text() == run_logs["avg-30.jsonl"]


# a value other than ClientConfig's default for each client option of run
_CLIENT_OPTIONS = {
    "beta_min": 12.0, "beta_max": 45.0, "delta": 0.2, "theta": 1.1, "rtt": 0.05,
    "start_version": 2, "uptrend_gate": "pseudocode",
}


def test_every_client_option_reaches_the_log_header(inputs, run_logs, tmp_path):
    manifest, trace = inputs
    out = tmp_path / "out"
    options = [f"--{name.replace('_', '-')}={value}" for name, value in _CLIENT_OPTIONS.items()]
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(out)]
    assert call_main([*args, *options])[0] == 0
    default = asdict(ClientConfig())
    assert set(default) - set(_CLIENT_OPTIONS) == {"window_n", "policy"}  # --policy sets these
    config = json.loads((out / "avg-30.jsonl").read_text().partition("\n")[0])["config"]
    assert config == {**default, **_CLIENT_OPTIONS}
    # with no option given, run_logs's AVG-30 header holds the defaults
    assert json.loads(run_logs["avg-30.jsonl"].partition("\n")[0])["config"] == default


def test_run_holds_one_session_log_at_a_time(inputs, tmp_path, monkeypatch):
    # each policy's log is dropped before the next session fills its own
    logs = []

    def run_session(*args, **kwargs):
        assert [ref() for ref in logs] == [None] * len(logs), "an earlier log is still held"
        log = real(*args, **kwargs)
        logs.append(weakref.ref(log))
        return log

    real = vbrsim.engine.run_session
    monkeypatch.setattr(vbrsim.engine, "run_session", run_session)
    manifest, trace = inputs
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace)]
    assert call_main([*args, "--policy", "itb,avg:10,avg:30", "--out", str(tmp_path)]) == (0, "")
    assert len(logs) == 3


@pytest.fixture
def gc_enabled():
    """The cyclic collector on for the test, and as the test found it after."""
    was = gc.isenabled()
    gc.enable()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize(
    "extra, code",
    [
        pytest.param(lambda tmp: [], 0, id="exit-0"),
        pytest.param(lambda tmp: ["--rtt", "nan"], 2, id="exit-2"),
        pytest.param(lambda tmp: ["--manifest", str(tmp / "nope.json")], 3, id="exit-3"),
    ],
)
def test_main_restores_the_collector_on_every_exit(inputs, tmp_path, gc_enabled, extra, code):
    manifest, trace = inputs
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace)]
    assert call_main([*args, "--out", str(tmp_path / "out"), *extra(tmp_path)])[0] == code
    assert gc.isenabled()


def test_main_restores_the_collector_when_an_error_escapes(
    inputs, tmp_path, gc_enabled, monkeypatch
):
    def run_session(*args, **kwargs):
        raise RuntimeError("escapes main")

    monkeypatch.setattr(vbrsim.engine, "run_session", run_session)
    manifest, trace = inputs
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace)]
    with pytest.raises(RuntimeError, match="^escapes main$"):
        call_main([*args, "--out", str(tmp_path / "out")])
    assert gc.isenabled()


def test_main_leaves_a_disabled_collector_disabled(inputs, tmp_path, gc_enabled):
    manifest, trace = inputs
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace)]
    gc.disable()
    assert call_main([*args, "--out", str(tmp_path / "out")]) == (0, "")
    assert not gc.isenabled()


def test_the_collector_is_paused_while_a_session_runs(inputs, tmp_path, gc_enabled, monkeypatch):
    seen = []

    def run_session(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    real = vbrsim.engine.run_session
    monkeypatch.setattr(vbrsim.engine, "run_session", run_session)
    manifest, trace = inputs
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace)]
    assert call_main([*args, "--policy", "itb,avg", "--out", str(tmp_path / "out")]) == (0, "")
    assert seen == [False, False]


def test_run_leaves_the_same_cyclic_garbage_at_any_session_length(inputs, tmp_path, gc_enabled):
    # pausing the collector is safe only because a command makes no cycles per
    # segment: what one collection finds after run does not grow with the ladder
    _, trace = inputs
    found = {}
    for segments in (300, 300, 3000):
        manifest = tmp_path / f"ladder-{segments}.json"
        ladder = ["gen", "ladder", "--preset", "sony-like", "--segments", str(segments)]
        assert call_main([*ladder, "--out", str(manifest)]) == (0, "")
        args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace)]
        gc.disable()
        gc.collect()
        assert call_main([*args, "--out", str(tmp_path / "out")]) == (0, "")
        found[segments] = gc.collect()
        gc.enable()
    assert found[300] == found[3000] > 0


def test_readme_quick_start_prints_readme_table(inputs, tmp_path, capsys):
    manifest, trace = inputs
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = next(block[1:] for block in readme.split("```") if block.startswith("\nStatistics"))
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(tmp_path)]
    assert main(args + ["--policy", "itb,avg:10,avg:30,avg:50", "--warmup", "auto"]) == 0
    assert capsys.readouterr().out == table


# sha256 of every file the README quick start writes. The simulator is
# deterministic, so any change here is a change of behaviour or format.
README_RUN_SHA256 = {
    "avg-10.cdf.csv": "acf4ef4cba0d9af887dbebae1b2ead7350752061a94581a0b94e17f1afeab3a8",
    "avg-10.csv": "b76c71900c7843a5284206b8f0fd0f2bef6fb5c0f552847bd4e25b9dbc0a0fd0",
    "avg-10.jsonl": "62f0a4571b334184b7bf4c3ac054f696593b2dc8bcddf9e00c0481027d4a5d03",
    "avg-10.stats.json": "f6190cc2b2def13e457d9c83235720a4a2beb19ecf464d6218c619baf675e6fe",
    "avg-10.stats.txt": "83d04a7ed94443da3913649c0195ca6117dc9f7c1896e6447d322aa8e4cb1b02",
    "avg-30.cdf.csv": "cfe3145f50a0ac36665381acb5cfcfaa5ec124e995fbcbca32945817ca631332",
    "avg-30.csv": "093ca11d67cdb15fffe255c6f8f39ff6100cf3b0e6b25a59ce615057a1fbc0f9",
    "avg-30.jsonl": "511f37ba88e2b8b7296b2a47f91d06e264f14f3c17aeddf0a5cae9b22f40bddb",
    "avg-30.stats.json": "f9c751a0d41bfceda6b376d6fe3b7a2efd6f7a3c88a4919b68eaac741eff082b",
    "avg-30.stats.txt": "4fcb29579f2f42857832bb54db7bd2a1ad0c667a224558bc00780041a20dd6a4",
    "avg-50.cdf.csv": "93f2f83cdba8c9eb3f524946641ae4fb53098d17e15cfabf17f24a373d1b2f0b",
    "avg-50.csv": "72210326cbfc059154de716dd152b894b135e5a9682b7300362091d2080990ad",
    "avg-50.jsonl": "18b48d55873b121045c9f0a29b8920edeb8b32315b2e021a284755954a9f5881",
    "avg-50.stats.json": "456608efd3f50334e1107d1ed3b0767cd8ebf261ecc0e44614a92d2726082f6d",
    "avg-50.stats.txt": "100dbd8ae12363fa08bdaa51f35576142bc9fd4dd5c1dcec98d4c20132644c2f",
    "comparison.txt": "48eb1a1b1fa63d4c65d63d7f7364e4f84defbffa34c33f85187c03d21e5cf4a6",
    "itb.cdf.csv": "27d4cce1cf19eebbc0dcd979e906659decaad81f42e9df8926b20d3ccf00b73c",
    "itb.csv": "04857056fe1ca016b98dd6287e1ace8d4c41e0fc9da359888196c9f96b2361f6",
    "itb.jsonl": "c62c2f7b15e599ed6c24345f0ffda3ecec9364371e65a31f0738add1a25091af",
    "itb.stats.json": "504e92ec0aa2093f412d406ef2b054f97fa289220867c4819ca6819748f93497",
    "itb.stats.txt": "0e5c829fccc90f8f7192c563a76e2b56965d31d73a3f0d6e8f93e9670e70fb94",
}


def test_readme_quick_start_writes_recorded_bytes(inputs, tmp_path):
    manifest, trace = inputs
    out = tmp_path / "out"
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(out)]
    assert main(args + ["--policy", "itb,avg:10,avg:30,avg:50", "--warmup", "auto"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == README_RUN_SHA256


def test_readme_library_block_runs_and_is_the_public_surface():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "vbrsim"
        for alias in node.names
    ]
    namespace = {}
    exec(block, namespace)
    # the README table's AVG-30 column: one version at a time, never below 2
    assert namespace["stats"].max_switch_degree == 1
    assert namespace["stats"].min_version == 2
    assert sorted(vbrsim.__all__) == sorted(imported)
    for name in vbrsim.__all__:
        assert getattr(vbrsim, name) is namespace[name]


_REFUSAL_TABLE = (
    "| command | input | exit | message starts with | pinned by |\n|---|---|---|---|---|\n"
)


def _pinned_texts(test) -> dict:
    """The strings each case of ``test`` pins, by case id: the string values of
    its parameters, and the string constants of the test function's own code."""
    constants = [c for c in test.__code__.co_consts if isinstance(c, str)]
    cases = {(): constants}
    # pytestmark lists the marks bottom decorator first, the order of the ids
    for mark in getattr(test, "pytestmark", []):
        if mark.name != "parametrize":
            continue
        level = []
        for value in mark.args[1]:
            if isinstance(value, type(pytest.param())):
                level.append((value.id, value.values))
            else:  # a lone string, which pytest takes as its id
                level.append((value, (value,)))
        cases = {
            (*key, case_id): [*texts, *(v for v in values if isinstance(v, str))]
            for key, texts in cases.items()
            for case_id, values in level
        }
    return {"-".join(key): texts for key, texts in cases.items()}


def test_readme_refusal_table_names_the_cases_that_pin_its_messages():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert _REFUSAL_TABLE in readme, "README has no refusal table"
    lines = readme.split(_REFUSAL_TABLE, 1)[1].split("\n\n", 1)[0].splitlines()
    assert lines
    named = []
    for line in lines:
        cells = [cell.strip() for cell in line.split("|")]
        assert len(cells) == 7 and cells[0] == cells[-1] == "", line
        _, command, _, exit_code, message, pin, _ = cells
        assert exit_code in ("2", "3"), line
        assert message[0] == message[-1] == pin[0] == pin[-1] == "`", line
        message, pin = message[1:-1], pin[1:-1]
        function, _, case_ids = pin.partition("[")
        module, *path = function.split("::")
        test = importlib.import_module(module.removesuffix(".py"))
        for name in path:
            test = getattr(test, name)
        cases = _pinned_texts(test)
        for case_id in case_ids.removesuffix("]").split(", "):
            named.append(f"{function}[{case_id}]" if case_id else function)
            assert case_id in cases, f"{named[-1]} does not exist"
            assert any(message in text for text in cases[case_id]), (
                f"{named[-1]} does not pin {message!r}"
            )
    assert len(named) == len(set(named)), "a case is named twice"


class TestStats:
    def test_recompute_from_log(self, inputs, tmp_path, capsys):
        manifest, trace = inputs
        out = tmp_path / "out"
        main(
            [
                "run",
                "--manifest", str(manifest),
                "--bandwidth", str(trace),
                "--policy", "avg:10",
                "--out", str(out),
            ]
        )
        log_path = out / "avg-10.jsonl"
        stats_path = tmp_path / "re.json"
        code = main(["stats", "--log", str(log_path), "--warmup", "auto", "--out", str(stats_path)])
        assert code == 0
        recomputed = json.loads(stats_path.read_text())
        assert recomputed["max_switch_degree"] == 1
        assert "Average bitrate (kbps)" in capsys.readouterr().out
        # log parses back into the same session
        log = load_log_jsonl(log_path)
        assert log.config.window_n == 10

    def test_crlf_log_gives_the_same_stats(self, run_logs, tmp_path, capsys):
        # a line ends at LF, so a CR before it is JSON whitespace
        log_path = tmp_path / "avg-30.jsonl"
        outputs = []
        for line_end in (b"\n", b"\r\n"):
            log_path.write_bytes(run_logs["avg-30.jsonl"].encode().replace(b"\n", line_end))
            stats_path = tmp_path / f"{len(line_end)}.stats.json"
            assert main(["stats", "--log", str(log_path), "--out", str(stats_path)]) == 0
            outputs.append((capsys.readouterr().out, stats_path.read_bytes()))
        assert b"\r\n" in log_path.read_bytes()
        assert outputs[0] == outputs[1]


def _rename_version_column(records):
    for rec in records:
        rec["version_requested"] = rec.pop("version")


# A file that does not decode as UTF-8
_NOT_UTF8 = b"\xff\xfe"


def _bad_byte_on_line_101(lines):
    # far enough into the file that the decoder's chunk position is not the line's
    lines = [line.encode() for line in lines]
    lines[100] = lines[100][:5] + b"\xff" + lines[100][5:]
    return b"\n".join(lines) + b"\n"


# the position counts from the start of the line
_LINE_1 = "line 1: 'utf-8' codec can't decode byte 0xff in position 0"
_LINE_101 = "line 101: 'utf-8' codec can't decode byte 0xff in position 5"


def _jsonl(header, records) -> str:
    return "".join(json.dumps(obj) + "\n" for obj in [header, *records])


def _huge_index(header, records):
    # json.dumps cannot write an int of more than 4300 digits, so the text is edited
    records[5]["index"] = "HUGE"
    return _jsonl(header, records).replace('"HUGE"', "1" + "0" * 5000).encode()


@pytest.mark.parametrize(
    "mutate, field",
    [
        pytest.param(lambda h, r: h.pop("num_versions"), "num_versions", id="missing-header-key"),
        pytest.param(lambda h, r: h.pop("config"), "config", id="missing-config"),
        pytest.param(
            lambda h, r: h["config"].pop("theta"), "header config: missing field 'theta'",
            id="missing-config-key",
        ),
        pytest.param(
            lambda h, r: h["config"].update(bogus=1), "header config: unknown field 'bogus'",
            id="unknown-config-key",
        ),
        pytest.param(
            lambda h, r: h["config"].update(beta_min=99.0), "beta_min", id="invalid-config-value"
        ),
        pytest.param(lambda h, r: h.update(total_stall_s=0.0), "total_stall_s", id="old-header"),
        pytest.param(lambda h, r: r[3].pop("stall_s"), "stall_s", id="missing-record-column"),
        pytest.param(lambda h, r: _rename_version_column(r), "'version'", id="old-record-schema"),
        pytest.param(
            lambda h, r: r.__setitem__(0, [1, 2, 3]), "line 2: expected a JSON object, got list",
            id="record-not-object",
        ),
        pytest.param(
            lambda h, r: r[250].update(stall_s="0.0"),
            "line 252: field 'stall_s' must be a finite number >= 0, got '0.0'",
            id="string-stall-late",
        ),
        pytest.param(
            lambda h, r: r[10].update(buffer_after_s=math.nan),
            "line 12: field 'buffer_after_s' must be a finite number >= 0, got nan",
            id="nan-buffer-after",
        ),
        pytest.param(
            lambda h, r: r[5].update(version=True),
            "line 7: field 'version' must be an int in 1..6, got True", id="bool-version",
        ),
        pytest.param(
            lambda h, r: r[3].update(index=2.5),
            "line 5: field 'index' must be an integer, got 2.5", id="float-index",
        ),
        pytest.param(
            lambda h, r: h.update(segment_duration_s="2.0"),
            "line 1: field 'segment_duration_s' must be a finite number > 0, got '2.0'",
            id="string-segment-duration",
        ),
        pytest.param(
            lambda h, r: h.update(trace_label=5),
            "line 1: field 'trace_label' must be a string, got 5", id="trace-label-not-string",
        ),
        pytest.param(
            lambda h, r: h["config"].update(window_n=2.5), "header config: window_n",
            id="float-window-n",
        ),
        pytest.param(
            lambda h, r: h["config"].update(theta="0.9"),
            "header config: theta must be a finite number > 0, got '0.9'",
            id="string-theta",
        ),
        pytest.param(
            lambda h, r: r[7].update(case="bogus"),
            "line 9: field 'case' must be one of ['downtrend', 'panic', 'stable', 'uptrend'], "
            "got 'bogus'",
            id="unknown-case",
        ),
        pytest.param(lambda h, r: r.clear(), "log has no records", id="header-only"),
        pytest.param(
            lambda h, r: h["config"].update(theta=10**400),
            "header config: theta must be a finite number > 0, got 1000",
            id="huge-int-theta",
        ),
        pytest.param(_huge_index, "line 7: malformed log (", id="huge-digits-index"),
        # values of the right type that no session logs; fmean once overflowed on the first
        pytest.param(
            lambda h, r: r[250].update(version=10**400),
            "line 252: field 'version' must be an int in 1..6, got 1000",
            id="huge-int-version",
        ),
        pytest.param(
            lambda h, r: r[100].update(version=7),
            "line 102: field 'version' must be an int in 1..6, got 7",
            id="version-above-count",
        ),
        pytest.param(
            lambda h, r: [h.update(num_versions=10**400), *(x.update(version=10**400) for x in r)],
            "line 1: field 'num_versions' must be an int in 1..64, got 1000",
            id="huge-num-versions",
        ),
        pytest.param(
            lambda h, r: r[100].update(version=-5),
            "line 102: field 'version' must be an int in 1..6, got -5",
            id="negative-version",
        ),
        pytest.param(
            lambda h, r: r[5].update(index=7),
            "line 7: field 'index' must be the record's position, got 7",
            id="index-not-position",
        ),
        pytest.param(
            lambda h, r: r[9].update(size_bits=-1),
            "line 11: field 'size_bits' must be a finite number > 0 whose bitrate over 2.0 s "
            "is finite and > 0, got -1",
            id="negative-size",
        ),
        # every bitrate overflows, so the first line names it
        pytest.param(
            lambda h, r: h.update(segment_duration_s=1e-305),
            "line 2: field 'size_bits' must be a finite number > 0 whose bitrate over 1e-305 s "
            "is finite and > 0",
            id="bitrate-overflow",
        ),
        pytest.param(
            lambda h, r: r[9].update(size_bits=5e-324),
            "line 11: field 'size_bits' must be a finite number > 0 whose bitrate over 2.0 s "
            "is finite and > 0, got 5e-324",
            id="bitrate-underflow",
        ),
        pytest.param(
            lambda h, r: (h.update(segment_duration_s=0.5), r[9].update(size_bits=1e308)),
            "line 11: field 'size_bits' must be a finite number > 0 whose bitrate over 0.5 s "
            "is finite and > 0, got 1e+308",
            id="bitrate-overflow-on-one-line",
        ),
        pytest.param(
            lambda h, r: r[30].update(buffer_before_s=-1.5),
            "line 32: field 'buffer_before_s' must be a finite number >= 0, got -1.5",
            id="negative-buffer-before",
        ),
        pytest.param(
            lambda h, r: r[30].update(buffer_after_s=-3.0),
            "line 32: field 'buffer_after_s' must be a finite number >= 0, got -3.0",
            id="negative-buffer-after",
        ),
        pytest.param(
            lambda h, r: r[30].update(stall_s=-0.5),
            "line 32: field 'stall_s' must be a finite number >= 0, got -0.5",
            id="negative-stall",
        ),
        pytest.param(
            lambda h, r: r[40].update(throughput_bps=-2416365.4),
            "line 42: field 'throughput_bps' must be a finite number > 0, got -2416365.4",
            id="negative-throughput",
        ),
        pytest.param(
            lambda h, r: r[60].update(request_time_s=-168.3),
            "line 62: field 'request_time_s' must be a finite number >= 0, got -168.3",
            id="negative-request-time",
        ),
        pytest.param(
            lambda h, r: h.update(playback_start_s=-0.33),
            "line 1: field 'playback_start_s' must be a finite number > 0, got -0.33",
            id="negative-playback-start",
        ),
        pytest.param(
            lambda h, r: h.update(playback_start_s=5.0),
            "line 1: field 'playback_start_s' must be line 2's completion_time_s",
            id="playback-start-not-first-completion",
        ),
        pytest.param(
            lambda h, r: r[20].update(completion_time_s=r[20]["request_time_s"]),
            "line 22: field 'completion_time_s' must be > request_time_s",
            id="completion-not-after-request",
        ),
        # each value is finite, but a statistic over them is not
        pytest.param(
            lambda h, r: [h.update(segment_duration_s=0.9), *(x.update(size_bits=1e308) for x in r)],
            "average_bitrate is inf, not a finite float: the size_bits values are too large",
            id="average-bitrate-overflow",
        ),
        pytest.param(
            lambda h, r: [r[10].update(stall_s=1e308), r[20].update(stall_s=1e308)],
            "total_stall is inf, not a finite float: the stall_s values are too large",
            id="total-stall-overflow",
        ),
        pytest.param(lambda h, r: _NOT_UTF8, _LINE_1, id="non-utf8-log"),
        # a lone CR does not end a line, so the header line runs on into the records
        pytest.param(
            lambda h, r: _jsonl(h, r).replace("\n", "\r").encode(), "line 1: malformed log (",
            id="lone-cr-log",
        ),
        pytest.param(
            lambda h, r: _bad_byte_on_line_101(_jsonl(h, r).splitlines()), _LINE_101,
            id="non-utf8-log-line-101",
        ),
    ],
)
def test_stats_rejects_bad_log(run_logs, tmp_path, mutate, field):
    header, *records = map(json.loads, run_logs["avg-30.jsonl"].splitlines())
    # a mutation returns bytes when it writes the whole file itself
    raw = mutate(header, records)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(raw if isinstance(raw, bytes) else _jsonl(header, records).encode())
    stats = ["stats", "--log", str(bad), "--out", str(tmp_path / "bad.stats.json")]
    _refused(stats, str(bad), field)


@pytest.mark.parametrize(
    "log, label, allowed",
    [
        ("avg-30.jsonl", "itb", "['downtrend', 'panic', 'stable', 'uptrend']"),
        ("itb.jsonl", "panic", "['itb']"),
    ],
    ids=["itb-in-avg-log", "panic-in-itb-log"],
)
def test_stats_rejects_a_case_outside_the_policy(run_logs, tmp_path, log, label, allowed):
    # a label that some policy logs, but not the one the header names
    header, *records = map(json.loads, run_logs[log].splitlines())
    records[99]["case"] = label
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_jsonl(header, records))
    stats = ["stats", "--log", str(bad), "--out", str(tmp_path / "bad.stats.json")]
    _refused(stats, str(bad), f"line 101: field 'case' must be one of {allowed}, got {label!r}")


def _set_size(value):
    return lambda m: m["versions"][2]["segment_sizes"].__setitem__(7, value)


def _set_bytes_size(value):
    # sizes are checked before the bytes-to-bits conversion turns true into 8
    def edit(m):
        m["size_unit"] = "bytes"
        _set_size(value)(m)

    return edit


def _sizes(size_bits, **fields):
    """A manifest edit: every segment of every version is ``size_bits`` bits,
    and ``fields`` replace top-level fields."""

    def edit(m):
        m.update(fields)
        for version in m["versions"]:
            version["segment_sizes"] = [size_bits] * len(version["segment_sizes"])

    return edit


def _set_trace_row(row):
    return lambda lines: lines.__setitem__(2, row)  # replaces "120.0,500.0"


# 150 breakpoints, 60 s apart, alternating 2500 and 500 kbps
_RECT_ROWS = [f"{60.0 * i},{(2500.0, 500.0)[i % 2]}" for i in range(150)]


def _huge_digits_duration(m):
    # json.dumps cannot write an int of more than 4300 digits, so the text is edited
    m["segment_duration_s"] = "HUGE"
    return json.dumps(m).replace('"HUGE"', "1" + "0" * 5000).encode()


# what ``run`` says of a segment size that breaks the size rule
_SIZE_RULE = "size must be a finite number > 0 whose bitrate over 2.0 s is finite and > 0"


@pytest.mark.parametrize(
    "where, edit, field",
    [
        pytest.param(
            "manifest", lambda m: m.update(segment_duration_s=math.nan),
            "segment_duration must be a finite number > 0, got nan", id="nan-duration",
        ),
        pytest.param(
            "manifest", _set_size(math.nan), f"version 3 segment 7: {_SIZE_RULE}, got nan",
            id="nan-size",
        ),
        pytest.param("manifest", _set_size(math.inf), "size", id="inf-size"),
        pytest.param("manifest", _set_size(-1), "size", id="negative-size"),
        pytest.param("manifest", _set_size(10**400), "size", id="huge-int-size"),
        pytest.param(
            "manifest", lambda m: m.update(segment_duration_s=10**400),
            "segment_duration must be a finite number > 0, got 1000", id="huge-int-duration",
        ),
        pytest.param("manifest", _set_size("abc"), "size", id="string-size"),
        pytest.param(
            "manifest", lambda m: m["versions"][2].update(qp="38"),
            "version 3: qp must be an int in 0..63, got '38'", id="string-qp",
        ),
        pytest.param(
            "manifest", lambda m: m.update(versions=5), "versions must be a list, got int",
            id="versions-not-list",
        ),
        pytest.param(
            "manifest", lambda m: m["versions"].__setitem__(2, 5),
            "versions[2]: expected a JSON object, got int", id="version-not-object",
        ),
        pytest.param(
            "manifest", lambda m: m["versions"][2].update(segment_sizes=5),
            "version 3: segment_sizes must be a list, got int", id="sizes-not-list",
        ),
        pytest.param("manifest", _set_size(True), "size", id="bool-size"),
        pytest.param(
            "manifest", _set_bytes_size(True), f"version 3 segment 7: {_SIZE_RULE}, got True",
            id="bytes-bool-size",
        ),
        pytest.param(
            "manifest", lambda m: m["versions"][0].update(index=True),
            "versions must be sorted with contiguous indices 1..V; position 1 has index True",
            id="bool-index",
        ),
        pytest.param(
            "manifest", lambda m: m.update(title=5), "title must be a string, got 5",
            id="title-not-string",
        ),
        pytest.param(
            "manifest", _huge_digits_duration, "not valid JSON (", id="huge-digits-duration"
        ),
        pytest.param(
            "manifest", lambda m: _NOT_UTF8,
            "not valid JSON ('utf-8' codec can't decode byte 0xff in position 0",
            id="non-utf8-manifest",
        ),
        pytest.param(
            "manifest", lambda m: m.update(segment_duration_s=True),
            "segment_duration must be a finite number > 0, got True", id="bool-duration",
        ),
        pytest.param(
            "manifest", lambda m: m["versions"][0].update(qp=2**70),
            "version 1: qp must be an int in 0..63, got 1180591620717411303424", id="qp-huge",
        ),
        pytest.param(
            "manifest", lambda m: m["versions"][5].update(qp=-1),
            "version 6: qp must be an int in 0..63, got -1", id="qp-negative",
        ),
        pytest.param(
            "manifest", lambda m: m["versions"][2].update(segment_sizes=[]),
            "version 3 has no segments", id="empty-sizes",
        ),
        pytest.param(
            "manifest", lambda m: m["versions"][2]["segment_sizes"].pop(),
            "all versions must have the same segment count, got {299, 300}",
            id="unequal-segment-counts",
        ),
        pytest.param(
            "manifest", lambda m: m.update(size_unit="kb"),
            "size_unit must be one of ['bits', 'bytes'], got 'kb'", id="unknown-size-unit",
        ),
        pytest.param(
            "manifest", lambda m: m.update(bogus=1), "unknown field 'bogus'",
            id="unknown-manifest-key",
        ),
        pytest.param(
            "manifest", lambda m: m["versions"][2].update(bogus=1),
            "versions[2]: unknown field 'bogus'", id="unknown-version-key",
        ),
        # size_bits / 2 s rounds to 0.0, and size_bits / 1e-305 s overflows to inf
        pytest.param(
            "manifest", _sizes(5e-324),
            "version 1 segment 0: size must be a finite number > 0 whose bitrate over 2.0 s "
            "is finite and > 0, got 5e-324",
            id="bitrate-underflow",
        ),
        pytest.param(
            "manifest", _sizes(1e6, segment_duration_s=1e-305),
            "version 1 segment 0: size must be a finite number > 0 whose bitrate over 1e-305 s "
            "is finite and > 0, got 1000000.0",
            id="bitrate-overflow",
        ),
        pytest.param(
            "trace", _set_trace_row("120.0,nan"),
            "breakpoint 1: bandwidth must be a finite number > 0, got nan", id="nan-bandwidth",
        ),
        pytest.param(
            "trace", _set_trace_row("120.0,inf"),
            "breakpoint 1: bandwidth must be a finite number > 0, got inf", id="inf-bandwidth",
        ),
        pytest.param(
            "trace", _set_trace_row("nan,500.0"),
            "breakpoint 1: time must be a finite number, got nan", id="nan-time",
        ),
        pytest.param(
            "trace", _set_trace_row("120.0," + "5" * 200_000),
            "line 3: field larger than field limit (131072)", id="oversized-trace-field",
        ),
        pytest.param("trace", lambda lines: _NOT_UTF8, _LINE_1, id="non-utf8-trace"),
        # a lone CR does not end a line, so line 1 runs on into the rows
        pytest.param(
            "trace", lambda lines: "\r".join(lines).encode(),
            "line 1: new-line character seen in unquoted field", id="lone-cr-trace",
        ),
        pytest.param(
            "trace", lambda lines: lines.__delitem__(slice(1, None)),
            "trace needs at least one breakpoint", id="header-only-trace",
        ),
        pytest.param(
            "trace", lambda lines: _bad_byte_on_line_101([*lines[:1], *_RECT_ROWS]), _LINE_101,
            id="non-utf8-trace-line-101",
        ),
        pytest.param(
            "args", ["--theta", "nan"], "theta must be a finite number > 0, got nan", id="nan-theta"
        ),
        pytest.param(
            "args", ["--delta", "1.5"], "delta must be in (0, 1], got 1.5", id="delta-above-1"
        ),
        pytest.param(
            "args", ["--rtt", "inf"], "rtt must be a finite number >= 0, got inf", id="inf-rtt"
        ),
        pytest.param(
            "args", ["--rtt", "nan"], "rtt must be a finite number >= 0, got nan", id="nan-rtt"
        ),
        pytest.param("args", ["--beta-max", "inf"], "beta_max", id="inf-beta-max"),
        pytest.param(
            "args", ["--start-version", "7"], "start_version must be an int in 1..6, got 7",
            id="start-version-7",
        ),
        pytest.param(
            "args", ["--uptrend-gate", "bogus"],
            "error: uptrend_gate must be one of ['prose', 'pseudocode'], got 'bogus'",
            id="unknown-uptrend-gate",
        ),
        pytest.param(
            "args", ["--policy", "avg:0"], f"window_n must be an int in 1..{sys.maxsize}, got 0",
            id="avg-window-0",
        ),
        pytest.param(
            "args", ["--policy", "avg:x"], "bad policy spec 'avg:x': window must be an integer",
            id="avg-window-not-integer",
        ),
        pytest.param("args", ["--policy", ","], "no policies given", id="no-policies"),
        pytest.param(
            "args", ["--policy", f"avg:{10**23}"],
            f"window_n must be an int in 1..{sys.maxsize}, got {10**23}", id="avg-window-huge",
        ),
        pytest.param(
            "args", ["--warmup", "400"], "warmup_exclude 400 >= record count 300", id="warmup-400"
        ),
        pytest.param(
            "args", ["--policy", "avg:30,avg"], "policy AVG-30 is given more than once in --policy",
            id="repeated-avg",
        ),
        pytest.param("args", ["--policy", "itb, ITB"], "ITB", id="repeated-itb"),
    ],
)
def test_run_rejects_non_finite_input(inputs, tmp_path, where, edit, field):
    manifest, trace = inputs
    # an edit returns bytes when it writes the whole file itself
    extra, named = [], [field]
    if where == "manifest":
        data = json.loads(manifest.read_text())
        raw = edit(data)
        manifest = tmp_path / "bad.json"
        manifest.write_bytes(raw if isinstance(raw, bytes) else json.dumps(data).encode())
        named.append(str(manifest))
    elif where == "trace":
        lines = trace.read_text().splitlines()
        raw = edit(lines)
        trace = tmp_path / "bad.csv"
        trace.write_bytes(raw if isinstance(raw, bytes) else ("\n".join(lines) + "\n").encode())
        named.append(str(trace))
    else:
        extra = edit
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace)]
    _refused([*args, "--out", str(tmp_path / "o"), *extra], *named)


_NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, text, message",
    [
        pytest.param("stats", _NESTED, "line 4: malformed log", id="nested-log-line"),
        pytest.param(
            "stats", '{"index": %s}' % _NESTED, "line 4: malformed log", id="nested-log-value"
        ),
        pytest.param("run", _NESTED, "not valid JSON", id="nested-manifest"),
    ],
)
def test_deeply_nested_json_exits_2(inputs, run_logs, tmp_path, command, text, message):
    # json.dumps would itself recurse on this value, so the text is written directly
    _, trace = inputs
    if command == "stats":
        lines = run_logs["avg-30.jsonl"].splitlines(keepends=True)
        lines[3] = text + "\n"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines))
        args = ["--log", str(bad)]
    else:
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        args = ["--manifest", str(bad), "--bandwidth", str(trace), "--out", str(tmp_path / "o")]
    _refused([command, *args], f"{bad}: {message}")


def _refused_run(inputs, tmp_path, edit, trace_rows, extra):
    """Run on an edited manifest (and optional trace rows), which must be
    refused; return both input paths and stderr."""
    manifest, trace = inputs
    data = json.loads(manifest.read_text())
    edit(data)
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps(data))
    if trace_rows is not None:
        trace = tmp_path / "fast.csv"
        trace.write_text("\n".join(["time_s,bandwidth_kbps", *trace_rows]) + "\n")
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace)]
    return manifest, trace, _refused([*args, "--out", str(tmp_path / "o"), *extra])


@pytest.mark.parametrize(
    "edit, trace_rows, extra, message",
    [
        pytest.param(
            lambda m: m.update(segment_duration_s=1e20), None, [],
            "segment 1: a download of size_bits 695781 requested at request_time_s 1e+20",
            id="huge-duration",
        ),
        pytest.param(
            _sizes(1), ["0.0,1e12"], ["--rtt", "0"],
            "segment 33: a download of size_bits 1 requested at request_time_s 16.00000000000002",
            id="one-bit-segments",
        ),
    ],
)
def test_run_rejects_zero_length_download(inputs, tmp_path, edit, trace_rows, extra, message):
    # a download shorter than one ulp of the clock takes no time at all, which
    # the throughput guard refuses as an infinite throughput
    manifest, trace, stderr = _refused_run(inputs, tmp_path, edit, trace_rows, extra)
    assert stderr == (
        f"error: {manifest}, {trace}: {message} "
        "has throughput inf, not a finite number > 0, over 0.0 s\n"
    )


def _projection(theta, bitrate, projected):
    """The refusal of version 1's ``bitrate``, which ``theta`` projects onto
    version 2 as ``projected``."""
    return (
        f"theta {theta} projects version 1's bitrate {bitrate} onto version 2 as {projected}, "
        "not a finite number > 0"
    )


@pytest.mark.parametrize("policy", ["avg", "itb"])
@pytest.mark.parametrize(
    "edit, extra, message",
    [
        # theta * bitrate * 2 projects version 1's bitrate onto 0.0 for version 2
        pytest.param(
            _sizes(1e-310), ["--theta", "1e-20"], _projection("1e-20", "5e-311", "0.0"),
            id="projected-bitrate",
        ),
        # above a beta_min of 1 s, under one 2 s segment, AVG never enters panic
        pytest.param(
            _sizes(1e-310), ["--theta", "1e-20", "--beta-min", "1"],
            _projection("1e-20", "5e-311", "0.0"), id="projected-bitrate-no-panic",
        ),
        # every projection of the README's bitrates overflows
        pytest.param(
            lambda m: None, ["--theta", "1e305"], _projection("1e+305", "97005.0", "inf"),
            id="theta-overflow",
        ),
        # 1e308 bits over 0.9 s is a finite bitrate, and theta 1.05 projects it past
        # the largest float
        pytest.param(
            _sizes(1e308, segment_duration_s=0.9), [],
            _projection("1.05", "1.1111111111111112e+308", "inf"), id="projected-bitrate-overflow",
        ),
        # theta 0.04 keeps every projection finite, but 30 of these bitrates sum to inf
        pytest.param(
            _sizes(1e308, segment_duration_s=0.9), ["--theta", "0.04"],
            "window_n 30 sums 30 bitrates of up to 1.1111111111111112e+308 to inf",
            id="window-sum-overflow",
        ),
    ],
)
def test_run_refuses_a_projected_bitrate_at_session_start(
    inputs, tmp_path, edit, extra, message, policy
):
    # checked once, before the first segment, for every policy: the refusal
    # names no segment
    manifest, trace, stderr = _refused_run(
        inputs, tmp_path, edit, None, [*extra, "--policy", policy]
    )
    assert stderr == f"error: {manifest}, {trace}: {message}\n"


def test_a_refused_later_session_keeps_the_earlier_sessions_files(tmp_path):
    # 50 of version 2's 5e306 bit/s sum to inf, 2 do not: avg:2 runs and
    # writes its files, then avg:50 is refused at its session start
    manifest, trace, out = tmp_path / "m.json", tmp_path / "t.csv", tmp_path / "out"
    versions = [
        {"index": k, "qp": qp, "segment_sizes": [size] * 100}
        for k, qp, size in ((1, 30, 1e6), (2, 24, 5e306))
    ]
    manifest.write_text(json.dumps({
        "title": "t", "segment_duration_s": 1.0, "size_unit": "bits", "versions": versions,
    }))
    trace.write_text("time_s,bandwidth_kbps\n0,1e6\n")
    argv = [
        "run", "--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(out),
        "--policy", "avg:2,avg:50", "--theta", "1.0", "--beta-min", "1", "--beta-max", "1000",
    ]
    assert call_main(argv) == (
        2, f"error: {manifest}, {trace}: window_n 50 sums 50 bitrates of up to 5e+306 to inf\n"
    )
    assert sorted(p.name for p in out.iterdir()) == [
        f"avg-2.{suffix}" for suffix in ("cdf.csv", "csv", "jsonl", "stats.json", "stats.txt")
    ]


@pytest.mark.parametrize(
    "edit, trace_rows, extra, message",
    [
        # size_bits / (1e10 s of RTT) rounds to 0.0
        pytest.param(
            _sizes(1e-320), None, ["--rtt", "1e10"],
            "a download of size_bits 1e-320 requested at request_time_s 0.0 "
            "has throughput 0.0, not a finite number > 0",
            id="throughput",
        ),
        # on a link at the largest float bandwidth, size / (size / bandwidth)
        # rounds past the largest float when the download time is subnormal
        pytest.param(
            _sizes(1.4144245188391054), ["0.0,1.7976931348623157e305"], ["--rtt", "0"],
            "a download of size_bits 1.4144245188391054 requested at request_time_s 0.0 "
            "has throughput inf, not a finite number > 0",
            id="throughput-overflow",
        ),
    ],
)
def test_run_rejects_a_value_that_underflows_to_zero(
    inputs, tmp_path, edit, trace_rows, extra, message
):
    # the session loop's own guard: every input, and every segment's bitrate
    # size / segment_duration_s, is finite and > 0 when the manifest loads, every
    # projected bitrate is checked at session start, and only a throughput
    # can still round to zero or inf in the loop
    manifest, trace, stderr = _refused_run(inputs, tmp_path, edit, trace_rows, extra)
    assert f"{manifest}, {trace}: segment 0: " in stderr
    assert message in stderr


def test_run_refuses_a_download_requested_past_the_float_range(inputs, tmp_path):
    # segment 0 completes after 1e308 s of RTT; segment 1's first bit is due
    # at inf, where the trace's last piece applies, so its throughput is 0.0
    manifest, trace, stderr = _refused_run(
        inputs, tmp_path, lambda m: None, None, ["--rtt", "1e308"]
    )
    assert stderr == (
        f"error: {manifest}, {trace}: segment 1: a download of size_bits 384579 "
        "requested at request_time_s 1e+308 has throughput 0.0, not a finite number > 0, "
        "over inf s\n"
    )


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(
            ["run", "--manifest", "./bad.json", "--bandwidth", "./rect.csv"], "./bad.json",
            id="manifest",
        ),
        pytest.param(
            ["run", "--manifest", "./sony.json", "--bandwidth", "./bad.csv"], "./bad.csv",
            id="trace",
        ),
        pytest.param(
            ["run", "--manifest", "./sony.json", "--bandwidth", "./rect.csv", "--rtt", "1e308"],
            "./sony.json, ./rect.csv", id="session",
        ),
        pytest.param(["stats", "--log", "./empty.jsonl"], "./empty.jsonl", id="log"),
    ],
)
def test_a_refusal_names_each_file_as_the_command_line_gives_it(
    inputs, tmp_path, monkeypatch, argv, named
):
    # the loaders name only the place in a file, and the CLI the file, as typed
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text("{")
    Path("bad.csv").write_text("t,bw\n")
    Path("empty.jsonl").write_text("")
    assert _refused([*argv, "--out", "./out"]).startswith(f"error: {named}: ")


def test_run_rejects_an_average_bitrate_past_the_float_range(inputs, tmp_path):
    # each 1e308-bit segment's bitrate is finite, but their exact sum is not;
    # theta 0.04 keeps every projection of it finite, and a one-segment window
    # keeps every representative bitrate finite
    extra = ["--theta", "0.04", "--policy", "avg:1"]
    manifest, trace, stderr = _refused_run(
        inputs, tmp_path, _sizes(1e308, segment_duration_s=0.9), None, extra
    )
    assert stderr == (
        f"error: {manifest}, {trace}: average_bitrate is inf, not a finite float: "
        "the size_bits values are too large\n"
    )


@pytest.mark.parametrize("command", ["run", "stats"])
def test_warmup_auto_keeps_every_segment_when_the_buffer_fills_on_the_last(
    inputs, tmp_path, command
):
    # the README's inputs cut to 28 segments: the buffer first reaches
    # beta_max on segment 28, so auto falls back to the whole session
    manifest, trace = inputs
    data = json.loads(manifest.read_text())
    for version in data["versions"]:
        version["segment_sizes"] = version["segment_sizes"][:28]
    manifest = tmp_path / "short.json"
    manifest.write_text(json.dumps(data))
    run = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--policy", "avg"]
    assert main([*run, "--warmup", "0", "--out", str(tmp_path / "zero")]) == 0
    log = tmp_path / "zero" / "avg-30.jsonl"
    buffers = [r.buffer_after_s for r in load_log_jsonl(log).records]
    assert max(buffers[:-1]) < 50.0 <= buffers[-1]
    if command == "run":
        assert main([*run, "--warmup", "auto", "--out", str(tmp_path / "auto")]) == 0
        got = tmp_path / "auto" / "avg-30.stats.json"
    else:
        got = tmp_path / "auto.stats.json"
        assert main(["stats", "--log", str(log), "--warmup", "auto", "--out", str(got)]) == 0
    assert got.read_bytes() == (tmp_path / "zero" / "avg-30.stats.json").read_bytes()
