"""One benchmark sample, in a fresh interpreter.

Generates the workload's inputs (set-up), runs `vbrsim run --warmup auto`
once, then `vbrsim stats --warmup auto` on every log the run wrote, in
repeated passes, each through ``vbrsim.cli.main`` in this process. Prints one
JSON object with the timings, peak RSS, and what run.py needs to check the
outputs.

    python3 perfbench/child.py --root . --workload paper --seed 0 --trace 0 --work DIR
"""

import time


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python kernel, in seconds.

    The host's speed drifts by up to 2x over minutes; run.py scales each
    timing by the kernel time measured around it.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rows, total = [], 0.0
        for i in range(20_000):
            row = (i, i * 0.5, i % 7)
            rows.append(row)
            total += row[1] / (i + 1.0)
        index = {row[0] & 1023: row for row in rows}
        total += len(tuple(rows)) + len(index)
        best = min(best, time.perf_counter() - start)
    return best


CAL_START = calibrate()
T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

STATS_BUDGET_S = 0.15
MIN_STATS_PASSES = 2


def invoke(cli, argv):
    """Call the CLI in-process; return (exit code or None, seconds, stdout)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start, buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import vbrsim
    from vbrsim import cli

    if Path(vbrsim.__file__).resolve().parent != src / "vbrsim":
        print(f"vbrsim imported from {vbrsim.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    work = Path(args.work)
    inputs, out, check = work / "inputs", work / "out", work / "check"
    for d in (inputs, out, check):
        d.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload]
    manifest, trace = workloads.make_inputs(workload, args.seed, inputs)
    setup_s = time.perf_counter() - T0

    ops = []
    if tracer:
        tracer.op = 1
    code, run_s, table = invoke(
        cli,
        ["run", "--manifest", str(manifest), "--bandwidth", str(trace),
         "--policy", workload.policies, "--warmup", "auto", "--out", str(out)],
    )
    ops.append({"op": "run", "exit": code})
    cal_mid = calibrate()
    # One stats pass reads every log once. Untraced, passes repeat until at
    # least MIN_STATS_PASSES ran and STATS_BUDGET_S is spent, so stats_s gets
    # enough samples for a steady median; traced, one pass keeps call counts
    # exact.
    stats_s = []
    while not stats_s or (
        not tracer and (len(stats_s) < MIN_STATS_PASSES or sum(stats_s) < STATS_BUDGET_S)
    ):
        pass_s = 0.0
        for stem in workload.labels:
            if tracer:
                tracer.op += 1
            code, seconds, _ = invoke(
                cli,
                ["stats", "--log", str(out / f"{stem}.jsonl"), "--warmup", "auto",
                 "--out", str(check / f"{stem}.stats.json")],
            )
            pass_s += seconds
            ops.append({"op": f"stats {stem}", "exit": code})
        stats_s.append(pass_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_end = calibrate()

    # Everything below is checking, outside the measured region.
    import check as checks

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "stats_s": stats_s,
        "peak_rss_mb": peak_rss_mb,
        "cal_s": [CAL_START, cal_mid, cal_end],
        "ops": ops,
        "table": table,
        "digests": checks.digests(out),
        "reread_digests": checks.digests(check),
        "stats": checks.read_stats(out, workload.labels),
        "coverage": checks.coverage(out, workload.labels),
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(work.parent / f"spans-seed{args.seed}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
