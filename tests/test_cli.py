import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vbrsim
from vbrsim.cli import CDF_MAX_POINTS, main
from vbrsim.engine import load_log_jsonl
from vbrsim.model import load_manifest, load_trace


@pytest.fixture
def inputs(tmp_path):
    manifest = tmp_path / "sony.json"
    trace = tmp_path / "rect.csv"
    assert main(["gen", "ladder", "--preset", "sony-like", "--out", str(manifest)]) == 0
    assert (
        main(["gen", "bandwidth", "rect", "2500", "500", "120", "60", "600", "--out", str(trace)])
        == 0
    )
    return manifest, trace


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
        code = main(["gen", "bandwidth", "tri", "1", "2", "3", "4", "5", "--out", str(tmp_path / "t.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "args, field",
        [
            (["bandwidth", "rect", "2500", "500", "120", "60", "inf"], "total"),
            # 5e299 breakpoints: must fail before building any of them
            (["bandwidth", "rect", "2500", "500", "1", "1", "1e300"], "total"),
            (["bandwidth", "rect", "2500", "500", "nan", "60", "600"], "period_high"),
            (["bandwidth", "rect", "2500", "500", "120", "nan", "600"], "period_low"),
            (["ladder", "--preset", "sony-like", "--burstiness", "nan"], "burstiness"),
            (["ladder", "--preset", "sony-like", "--burstiness", "inf"], "burstiness"),
            (["ladder", "--preset", "sony-like", "--burstiness", "1e200"], "burstiness"),
            # 1e8 segments: must fail before generating any of them
            (["ladder", "--preset", "sony-like", "--segments", "100000000"], "segment_count"),
        ],
    )
    def test_bad_generator_params_exit_2(self, tmp_path, capsys, args, field):
        out = tmp_path / "out"
        assert main(["gen", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err
        assert not out.exists()


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
        # 100 000 s segments: one point per second would write 100 052 lines
        manifest, trace = inputs
        data = json.loads(manifest.read_text())
        data["segment_duration_s"] = 100000.0
        manifest.write_text(json.dumps(data))
        out = tmp_path / "out"
        args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(out)]
        assert main(args) == 0
        header, *rows = (out / "avg-30.cdf.csv").read_text().splitlines()
        levels = [float(row.split(",")[0]) for row in rows]
        assert header == "level_s,fraction"
        assert 2 < len(levels) <= CDF_MAX_POINTS + 1
        assert levels[0] == 0.0 and levels[1].is_integer()
        assert len({b - a for a, b in zip(levels, levels[1:])}) == 1
        assert rows[-1].endswith(",1.0")  # the grid reaches the largest buffer level

    def test_invalid_thresholds_exit_2(self, inputs, tmp_path):
        manifest, trace = inputs
        code = main(
            [
                "run",
                "--manifest", str(manifest),
                "--bandwidth", str(trace),
                "--beta-min", "50",
                "--beta-max", "50",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_missing_manifest_exit_3(self, inputs, tmp_path):
        _, trace = inputs
        code = main(
            [
                "run",
                "--manifest", str(tmp_path / "nope.json"),
                "--bandwidth", str(trace),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 3

    def test_malformed_manifest_exit_2(self, inputs, tmp_path):
        _, trace = inputs
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(
            ["run", "--manifest", str(bad), "--bandwidth", str(trace), "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_bad_policy_spec_exit_2(self, inputs, tmp_path):
        manifest, trace = inputs
        code = main(
            [
                "run",
                "--manifest", str(manifest),
                "--bandwidth", str(trace),
                "--policy", "tbb",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2


@pytest.mark.parametrize("command", ["run", "stats"])
def test_non_integer_warmup_names_the_option(inputs, tmp_path, capsys, command):
    manifest, trace = inputs
    run = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(tmp_path)]
    if command == "run":
        args = run
    else:
        assert main(run) == 0
        args = ["stats", "--log", str(tmp_path / "avg-30.jsonl")]
    capsys.readouterr()
    assert main(args + ["--warmup", "abc"]) == 2
    assert "--warmup must be an integer or 'auto'" in capsys.readouterr().err


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


def _rename_version_column(records):
    for rec in records:
        rec["version_requested"] = rec.pop("version")


@pytest.mark.parametrize(
    "mutate, field",
    [
        pytest.param(lambda h, r: h.pop("num_versions"), "num_versions", id="missing-header-key"),
        pytest.param(lambda h, r: h.pop("config"), "config", id="missing-config"),
        pytest.param(lambda h, r: h["config"].pop("theta"), "theta", id="missing-config-key"),
        pytest.param(lambda h, r: h["config"].update(bogus=1), "bogus", id="unknown-config-key"),
        pytest.param(
            lambda h, r: h["config"].update(beta_min=99.0), "beta_min", id="invalid-config-value"
        ),
        pytest.param(lambda h, r: h.update(total_stall_s=0.0), "total_stall_s", id="old-header"),
        pytest.param(lambda h, r: r[3].pop("stall_s"), "stall_s", id="missing-record-column"),
        pytest.param(lambda h, r: _rename_version_column(r), "'version'", id="old-record-schema"),
        pytest.param(lambda h, r: r.__setitem__(0, [1, 2, 3]), "line 2", id="record-not-object"),
        pytest.param(
            lambda h, r: r[250].update(stall_s="0.0"), "line 252: field 'stall_s'",
            id="string-stall-late",
        ),
        pytest.param(
            lambda h, r: r[10].update(buffer_after_s=math.nan), "line 12: field 'buffer_after_s'",
            id="nan-buffer-after",
        ),
        pytest.param(
            lambda h, r: r[5].update(version=True), "line 7: field 'version'", id="bool-version"
        ),
        pytest.param(lambda h, r: r[3].update(index=2.5), "line 5: field 'index'", id="float-index"),
        pytest.param(
            lambda h, r: h.update(segment_duration_s="2.0"), "line 1: field 'segment_duration_s'",
            id="string-segment-duration",
        ),
        pytest.param(
            lambda h, r: h.update(trace_label=5), "line 1: field 'trace_label'",
            id="trace-label-not-string",
        ),
        pytest.param(
            lambda h, r: h["config"].update(window_n=2.5), "header config: window_n",
            id="float-window-n",
        ),
        pytest.param(
            lambda h, r: h["config"].update(theta="0.9"), "header config: theta",
            id="string-theta",
        ),
    ],
)
def test_stats_rejects_bad_log(inputs, tmp_path, mutate, field):
    manifest, trace = inputs
    out = tmp_path / "out"
    args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(out)]
    assert main(args) == 0
    header, *records = (json.loads(line) for line in (out / "avg-30.jsonl").read_text().splitlines())
    mutate(header, records)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *records]))

    env = dict(os.environ, PYTHONPATH=str(Path(vbrsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "vbrsim.cli", "stats", "--log", str(bad)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert str(bad) in proc.stderr
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


def _set_size(value):
    return lambda m: m["versions"][2]["segment_sizes"].__setitem__(7, value)


def _set_trace_row(row):
    return lambda lines: lines.__setitem__(2, row)  # replaces "120.0,500.0"


@pytest.mark.parametrize(
    "where, edit, field",
    [
        pytest.param(
            "manifest", lambda m: m.update(segment_duration_s=math.nan), "segment_duration",
            id="nan-duration",
        ),
        pytest.param("manifest", _set_size(math.nan), "size", id="nan-size"),
        pytest.param("manifest", _set_size(math.inf), "size", id="inf-size"),
        pytest.param("manifest", _set_size(-1), "size", id="negative-size"),
        pytest.param("manifest", _set_size("abc"), "size", id="string-size"),
        pytest.param("manifest", lambda m: m["versions"][2].update(qp="38"), "qp", id="string-qp"),
        pytest.param("manifest", lambda m: m.update(versions=5), "versions", id="versions-not-list"),
        pytest.param(
            "manifest", lambda m: m["versions"].__setitem__(2, 5), "versions[2]",
            id="version-not-object",
        ),
        pytest.param(
            "manifest", lambda m: m["versions"][2].update(segment_sizes=5), "segment_sizes",
            id="sizes-not-list",
        ),
        pytest.param("manifest", _set_size(True), "size", id="bool-size"),
        pytest.param(
            "manifest", lambda m: m["versions"][0].update(index=True), "index", id="bool-index"
        ),
        pytest.param("manifest", lambda m: m.update(title=5), "title", id="title-not-string"),
        pytest.param(
            "manifest", lambda m: m.update(segment_duration_s=True), "segment_duration",
            id="bool-duration",
        ),
        pytest.param(
            "manifest", lambda m: m["versions"][0].update(qp=2**70), "qp", id="qp-huge"
        ),
        pytest.param(
            "manifest", lambda m: m["versions"][5].update(qp=-1), "qp", id="qp-negative"
        ),
        pytest.param("trace", _set_trace_row("120.0,nan"), "bandwidth", id="nan-bandwidth"),
        pytest.param("trace", _set_trace_row("120.0,inf"), "bandwidth", id="inf-bandwidth"),
        pytest.param("trace", _set_trace_row("nan,500.0"), "breakpoint", id="nan-time"),
        pytest.param("args", ["--theta", "nan"], "theta", id="nan-theta"),
        pytest.param("args", ["--rtt", "inf"], "rtt", id="inf-rtt"),
        pytest.param("args", ["--rtt", "nan"], "rtt", id="nan-rtt"),
        pytest.param("args", ["--beta-max", "inf"], "beta_max", id="inf-beta-max"),
    ],
)
def test_run_rejects_non_finite_input(inputs, tmp_path, where, edit, field):
    manifest, trace = inputs
    extra, bad = [], None
    if where == "manifest":
        data = json.loads(manifest.read_text())
        edit(data)
        bad = manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps(data))
    elif where == "trace":
        lines = trace.read_text().splitlines()
        edit(lines)
        bad = trace = tmp_path / "bad.csv"
        trace.write_text("\n".join(lines) + "\n")
    else:
        extra = edit

    env = dict(os.environ, PYTHONPATH=str(Path(vbrsim.__file__).parents[1]))
    args = ["--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(tmp_path / "o")]
    proc = subprocess.run(
        [sys.executable, "-m", "vbrsim.cli", "run", *args, *extra],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr
    if bad is not None:
        assert str(bad) in proc.stderr


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
def test_deeply_nested_json_exits_2(inputs, tmp_path, command, text, message):
    # json.dumps would itself recurse on this value, so the text is written directly
    manifest, trace = inputs
    if command == "stats":
        out = tmp_path / "out"
        args = ["run", "--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(out)]
        assert main(args) == 0
        lines = (out / "avg-30.jsonl").read_text().splitlines(keepends=True)
        lines[3] = text + "\n"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines))
        args = ["--log", str(bad)]
    else:
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        args = ["--manifest", str(bad), "--bandwidth", str(trace), "--out", str(tmp_path / "o")]

    env = dict(os.environ, PYTHONPATH=str(Path(vbrsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "vbrsim.cli", command, *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{bad}: {message}" in proc.stderr


def _one_bit_segments(m):
    for version in m["versions"]:
        version["segment_sizes"] = [1] * len(version["segment_sizes"])


@pytest.mark.parametrize(
    "edit, trace_rows, extra",
    [
        pytest.param(lambda m: m.update(segment_duration_s=1e20), None, [], id="huge-duration"),
        pytest.param(_one_bit_segments, ["0.0,1e12"], ["--rtt", "0"], id="one-bit-segments"),
    ],
)
def test_run_rejects_zero_length_download(inputs, tmp_path, edit, trace_rows, extra):
    # a download shorter than one ulp of the clock takes no time at all
    manifest, trace = inputs
    data = json.loads(manifest.read_text())
    edit(data)
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps(data))
    if trace_rows is not None:
        trace = tmp_path / "fast.csv"
        trace.write_text("\n".join(["time_s,bandwidth_kbps", *trace_rows]) + "\n")

    env = dict(os.environ, PYTHONPATH=str(Path(vbrsim.__file__).parents[1]))
    args = ["--manifest", str(manifest), "--bandwidth", str(trace), "--out", str(tmp_path / "o")]
    proc = subprocess.run(
        [sys.executable, "-m", "vbrsim.cli", "run", *args, *extra],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    for named in (str(manifest), str(trace), "segment ", "size_bits", "request_time_s"):
        assert named in proc.stderr
