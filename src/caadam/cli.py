"""Command-line front end.

Subcommands:

* ``train``      — the benchmark's first trial (first architecture x first
                   optimizer of the config at ``base_seed``), writing its
                   loss-curve CSV and metrics JSON.
* ``benchmark``  — the full repeated-trial grid, writing trials.json,
                   timings.json, report.json/report.csv, and per-trial logs.
* ``report``     — rebuild a comparison report from an existing trials.json.
* ``curves``     — merge per-trial loss-curve CSVs into one long-format CSV.

Exit codes: 0 success, 1 config error (an unwritable output path included),
2 data error, 3 every trial diverged.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import fields, replace

from . import bench
from .cores import usable_cores
from .errors import ConfigError, DataError
from .train import STOP_DIVERGED

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


def _out_dir(path) -> str:
    with bench.writing(path):
        os.makedirs(path, exist_ok=True)
    return path


def _checked_dataset(cfg) -> bench.Dataset:
    """``bench.checked_dataset(cfg)`` after the setup of the grid's first
    trial, its split included, has run on it: a config or data error of
    either comes before any output."""
    dataset = bench.checked_dataset(cfg)
    bench.trial_setup(dataset, cfg.architectures[0], cfg.split, cfg.base_seed)
    return dataset


def _cmd_train(args) -> int:
    cfg = bench.experiment_from_dict(bench.read_json(args.config, "config"))
    dataset = _checked_dataset(cfg)
    _out_dir(args.out)
    res = bench.run_trial(dataset, cfg.architectures[0],
                          cfg.optimizers[0], cfg.train, cfg.split, cfg.base_seed,
                          log_path=os.path.join(args.out, "log.csv"))
    with bench.writing(args.out):
        bench.write_json(os.path.join(args.out, "metrics.json"), {
            f.name: bench.finite_or_none(getattr(res, f.name))
            for f in fields(res) if f.name not in ("cell", "seed")})
    metric = "n/a" if math.isnan(res.metric) else f"{res.metric:.6f}"
    print(f"{res.optimizer} on {res.architecture}: {res.metric_name}={metric} "
          f"after {res.epochs_run} epochs ({res.stop_reason}); outputs in {args.out}")
    return EXIT_DIVERGED if res.stop_reason == STOP_DIVERGED else EXIT_OK


def _report(trials, baseline: str, out_dir) -> int:
    """Compare ``trials`` against ``baseline``, write report.json/csv under
    ``out_dir`` (when given) and print the table."""
    if all(t.stop_reason == STOP_DIVERGED for t in trials):
        print("every trial diverged; nothing to compare", file=sys.stderr)
        return EXIT_DIVERGED
    report = bench.build_report(trials, baseline=baseline)
    if out_dir is not None:
        with bench.writing(_out_dir(out_dir)):
            bench.save_report(report, os.path.join(out_dir, "report.json"),
                              os.path.join(out_dir, "report.csv"))
    print(bench.format_report_table(report))
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    cfg = bench.experiment_from_dict(bench.read_json(args.config, "config"))
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    labels = [e.label for e in cfg.optimizers]
    if args.baseline not in labels:
        raise ConfigError(f"baseline {args.baseline!r} is not an optimizer label "
                          f"of the config {labels}")
    dataset = _checked_dataset(cfg)
    log_dir = _out_dir(os.path.join(_out_dir(args.out), "logs"))

    done = {"n": 0}
    total = len(cfg.architectures) * len(cfg.optimizers) * cfg.trials

    def progress(res):
        done["n"] += 1
        if not args.quiet:
            print(f"[{done['n']:>4}/{total}] {res.cell} seed={res.seed} "
                  f"epochs={res.epochs_run} ({res.stop_reason})")

    trials = bench.run_experiment(cfg, dataset, workers=args.parallel, log_dir=log_dir,
                                  progress=progress)
    with bench.writing(args.out):
        bench.save_trials(trials, os.path.join(args.out, "trials.json"))
        bench.save_timings(trials, os.path.join(args.out, "timings.json"))
    print()
    code = _report(trials, args.baseline, args.out)
    if code == EXIT_OK:
        print(f"\noutputs in {args.out}")
    return code


def _cmd_report(args) -> int:
    trials = bench.load_trials(args.trials, timings_path=args.timings)
    return _report(trials, args.baseline, args.out)


def _cmd_curves(args) -> int:
    rows = bench.read_trial_logs(args.logs)
    with bench.writing(args.out), open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(bench.CURVE_COLUMNS)
        writer.writerows(rows)
    print(f"merged {len(rows)} epoch rows into {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caadam",
        description="Train MLPs and benchmark connection-aware optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="single training run (first architecture "
                                           "and first optimizer of the config)")
    p_train.add_argument("--config", required=True, help="experiment config JSON")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=_cmd_train)

    p_bench = sub.add_parser("benchmark", help="run the repeated-trial grid")
    p_bench.add_argument("--config", required=True, help="experiment config JSON")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--trials", type=int, default=None,
                         help="override trials per cell")
    p_bench.add_argument("--parallel", type=int, default=usable_cores(),
                         help="worker processes, at most one per trial "
                              "(default: the usable cores, %(default)s here)")
    p_bench.add_argument("--baseline", default="adam",
                         help="baseline optimizer label (default adam)")
    p_bench.add_argument("--quiet", action="store_true", help="suppress per-trial lines")
    p_bench.set_defaults(func=_cmd_benchmark)

    p_report = sub.add_parser("report", help="rebuild a report from trials.json")
    p_report.add_argument("--trials", required=True, help="trials.json path")
    p_report.add_argument("--timings", default=None, help="optional timings.json path")
    p_report.add_argument("--baseline", default="adam",
                          help="baseline optimizer label (default adam)")
    p_report.add_argument("--out", default=None, help="directory for report.json/csv")
    p_report.set_defaults(func=_cmd_report)

    p_curves = sub.add_parser("curves", help="merge per-trial loss-curve CSVs")
    p_curves.add_argument("--logs", required=True, help="benchmark logs directory")
    p_curves.add_argument("--out", required=True, help="merged CSV path")
    p_curves.set_defaults(func=_cmd_curves)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
