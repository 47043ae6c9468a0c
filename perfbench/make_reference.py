"""Regenerate ``reference.json``: the result of every unit seed in each
workload's pool, run untraced, plus the per-cell band a run's test metric
must fall in.

Usage, from the repository root::

    python3 perfbench/make_reference.py [--workload NAME ...]

Workloads not named keep their current entry.  The file is the output
check's ground truth, so regenerate it only when a change is meant to alter
training results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics

import workloads as wls

BAND_SDS = 4.0  # half-width of the band in reference standard deviations
BAND_REL = 0.01  # plus this share of the reference mean


def cell_band(values: list[float]) -> dict:
    mean = statistics.fmean(values)
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    pad = BAND_REL * abs(mean)
    return {
        "mean": mean,
        "sd": sd,
        "n": len(values),
        "lo": min(min(values), mean - BAND_SDS * sd) - pad,
        "hi": max(max(values), mean + BAND_SDS * sd) + pad,
    }


def build(wl: wls.Workload) -> dict:
    out_dir = os.path.join(wls.OUT_ROOT, "reference", wl.name)
    trials = []
    for seed in wl.pool:
        unit = wls.run_unit(wl, seed, out_dir)
        if unit.problems:
            raise SystemExit(f"{wl.name} seed {seed}: {unit.problems}")
        trials.extend(unit.trials)
        print(f"{wl.name} seed {seed}: {unit.wall_s:.2f} s", flush=True)
    by_cell: dict[str, list[float]] = {}
    for t in trials:
        if not math.isnan(t.metric):
            by_cell.setdefault(t.cell, []).append(t.metric)
    return {
        "metric": trials[0].metric_name,
        "cells": {cell: cell_band(v) for cell, v in sorted(by_cell.items())},
        "trials": {wls.trial_key(t): wls.trial_record(t) for t in trials},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(wls.WORKLOADS))
    args = parser.parse_args()
    reference = {}
    if os.path.exists(wls.REFERENCE_PATH):
        reference = wls.load_reference()
    for name in args.workload or sorted(wls.WORKLOADS):
        reference[name] = build(wls.WORKLOADS[name])
    with open(wls.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
