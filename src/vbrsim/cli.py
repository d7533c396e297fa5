"""Command-line interface.

Subcommands:
  run    simulate one or more policies over a manifest + bandwidth trace
  gen    generate synthetic inputs (bandwidth traces, version ladders)
  stats  recompute statistics from an existing session log

Exit codes: 0 success, 2 configuration/validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import engine, metrics, model, scenarios

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

# run takes one option per ClientConfig field, except those --policy sets
_CLIENT_OPTIONS = tuple(
    f for f in fields(model.ClientConfig) if f.name not in ("window_n", "policy")
)
_CLIENT_HELP = {
    "delta": "throughput smoothing weight",
    "theta": "QP-model compensation factor",
    "rtt": "round-trip time in seconds",
    "uptrend_gate": "which version's representative bitrate gates an up-switch: "
    "prose or pseudocode",
}


def _policy_configs(args) -> dict:
    """The ClientConfig of each policy in ``--policy``, keyed by its label.

    ``--policy`` is a comma-separated list of "itb", "avg" (AVG-30) and
    "avg:N", each at most once; every other parameter comes from the options.
    """
    base = model.ClientConfig(**{f.name: getattr(args, f.name) for f in _CLIENT_OPTIONS})
    out = {}
    for part in args.policy.split(","):
        token = part.strip().lower()
        if not token:
            continue
        if token == "itb":
            label, cfg = "ITB", replace(base, policy="itb")
        elif token == "avg":
            label, cfg = f"AVG-{base.window_n}", base
        elif token.startswith("avg:"):
            try:
                window = int(token.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad policy spec {part!r}: window must be an integer")
            label, cfg = f"AVG-{window}", replace(base, window_n=window)
        else:
            raise ValueError(f"unknown policy {part!r} (expected itb, avg, or avg:N)")
        if label in out:
            raise ValueError(f"policy {label} is given more than once in --policy")
        out[label] = cfg
    if not out:
        raise ValueError("no policies given")
    return out


def _warmup(arg: str) -> int | None:
    """``--warmup`` as a segment count, or None for 'auto'."""
    if arg == "auto":
        return None
    try:
        warmup = int(arg)
    except ValueError:
        warmup = -1  # refused below, as a negative count is
    if warmup < 0:
        raise ValueError(f"--warmup must be an integer >= 0 or 'auto', got {arg!r}")
    return warmup


def _session_stats(log: engine.SessionLog, warmup: int | None):
    """``log``'s statistics after ``warmup`` segments (None: auto)."""
    exclude = metrics.warmup_segments(log) if warmup is None else warmup
    return metrics.compute_stats(log, warmup_exclude=exclude)


def _named(source: str, call, *args):
    """``call(*args)``, whose refusal starts with ``source``: the input file or
    files that it concerns, as the command line gives them."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def _save_stats(stats: metrics.SessionStats, path) -> None:
    with open(path, "w") as fh:
        json.dump(stats._asdict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(args) -> int:
    manifest = _named(args.manifest, model.load_manifest, args.manifest)
    trace = _named(args.bandwidth, model.load_trace, args.bandwidth)
    configs = _policy_configs(args)
    warmup = _warmup(args.warmup)
    out_dir = Path(args.out)
    sources = f"{args.manifest}, {args.bandwidth}"
    stats_by_label = {}
    for label, cfg in configs.items():
        log = _named(sources, engine.run_session, manifest, trace, cfg, Path(args.bandwidth).stem)
        stats = _named(sources, _session_stats, log, warmup)
        stats_by_label[label] = stats

        # made only now, so that a rejected run leaves nothing behind
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = label.lower()
        engine.save_logs(log, out_dir / f"{stem}.jsonl", out_dir / f"{stem}.csv")
        _save_stats(stats, out_dir / f"{stem}.stats.json")
        with open(out_dir / f"{stem}.stats.txt", "w") as fh:
            fh.write(metrics.stats_table({label: stats}))
        with open(out_dir / f"{stem}.cdf.csv", "w") as fh:
            fh.write("level_s,fraction\n")
            for level, frac in metrics.buffer_cdf(log):
                fh.write(f"{level},{frac}\n")
        del log  # so the next session's log is the only one held

    table = metrics.stats_table(stats_by_label)
    if len(configs) > 1:
        with open(out_dir / "comparison.txt", "w") as fh:
            fh.write(table)
    sys.stdout.write(table)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "bandwidth":
        if args.shape != "rect":
            raise ValueError(f"unknown bandwidth shape {args.shape!r} (expected rect)")
        high, low, period_high, period_low, total = args.params
        trace = scenarios.gen_rect_bandwidth(
            high * 1000.0, low * 1000.0, period_high, period_low, total
        )
        model.save_trace(trace, args.out)
    else:  # ladder
        spec = scenarios.ladder_preset(
            args.preset,
            segment_count=args.segments,
            seed=args.seed,
            burstiness=args.burstiness,
        )
        manifest = scenarios.gen_vbr_ladder(spec, title=args.preset)
        model.save_manifest(manifest, args.out)
    return EXIT_OK


def cmd_stats(args) -> int:
    warmup = _warmup(args.warmup)
    if args.out and os.path.exists(args.out) and os.path.samefile(args.out, args.log):
        raise ValueError(f"{args.log}: --out must not be the --log file, got {args.out}")
    log = _named(args.log, engine.load_log_jsonl, args.log)
    stats = _named(args.log, _session_stats, log, warmup)
    if args.out:
        _save_stats(stats, args.out)
    sys.stdout.write(metrics.stats_table({args.log: stats}))
    return EXIT_OK


def _declare_run(run) -> None:
    run.add_argument("--manifest", required=True, help="manifest JSON file")
    run.add_argument("--bandwidth", required=True, help="bandwidth trace CSV file")
    run.add_argument(
        "--policy",
        default="avg",
        help="comma-separated policies: itb, avg (AVG-30), avg:N (default avg)",
    )
    for f in _CLIENT_OPTIONS:
        run.add_argument(
            "--" + f.name.replace("_", "-"),
            type=type(f.default),
            default=f.default,
            help=_CLIENT_HELP.get(f.name),
        )
    run.add_argument(
        "--warmup",
        default="0",
        help="segments to exclude from stats: an integer or 'auto' (first buffer fill)",
    )
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run)


def _declare_gen(gen) -> None:
    gen.set_defaults(func=cmd_gen)
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    gen_bw = gen_sub.add_parser("bandwidth", help="generate a bandwidth trace")
    gen_bw.add_argument("shape", help="trace shape (rect)")
    gen_bw.add_argument(
        "params",
        type=float,
        nargs=5,
        metavar="P",
        help="rect: HIGH_KBPS LOW_KBPS PERIOD_HIGH_S PERIOD_LOW_S TOTAL_S",
    )
    gen_bw.add_argument("--out", required=True, help="output CSV file")

    gen_ladder = gen_sub.add_parser("ladder", help="generate a VBR version ladder")
    gen_ladder.add_argument(
        "--preset", required=True, choices=sorted(scenarios.LADDER_PRESETS)
    )
    gen_ladder.add_argument("--segments", type=int, default=300)
    gen_ladder.add_argument("--seed", type=int, default=0)
    gen_ladder.add_argument("--burstiness", type=float, default=0.3)
    gen_ladder.add_argument("--out", required=True, help="output JSON file")


def _declare_stats(stats) -> None:
    stats.add_argument("--log", required=True, help="session log (JSONL)")
    stats.add_argument("--warmup", default="0", help="segments to exclude, or 'auto'")
    stats.add_argument("--out", help="optional stats JSON output path")
    stats.set_defaults(func=cmd_stats)


_SUBCOMMANDS = {  # each one's help and the function that declares its arguments
    "run": ("simulate a streaming session", _declare_run),
    "gen": ("generate synthetic inputs", _declare_gen),
    "stats": ("recompute stats from a session log", _declare_stats),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser; when ``command`` names a subcommand, the others are declared
    empty, which leaves usage and errors as they are and costs less to build."""
    parser = argparse.ArgumentParser(prog="vbrsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, declare) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if command not in _SUBCOMMANDS or command == name:
            declare(subparser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # a command allocates a few small tuples per segment and leaves no cycles
    # that grow with the session, so the cyclic collector pauses for it and
    # returns to the caller's setting after
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
