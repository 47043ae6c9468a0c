#!/usr/bin/env python3
"""Write a before/after benchmark record from alternating pairs of runs.

Usage, from the repository root::

    python3 scripts/bench_compare.py --base 784437f --change WORKTREE \\
        --workload trial-narrow --workload trial-wide --workload grid-zoo \\
        --pairs 10 --seed 21 --out BENCH_7.json

Each side is a fresh copy of its revision, extracted with ``git archive``
into a temporary directory; ``--change WORKTREE`` copies the current checkout
instead, with its uncommitted changes (every file that git tracks or that it
does not ignore).  Pair ``i`` runs each side's own ``perfbench/run.py
--trace 0 --seed SEED+i`` for ``BENCHMARK.json``'s ``run_seconds``, back to
back, the base first in even pairs and the change first in odd ones, so both
sides see the same inputs and share any drift of the machine.

The record keeps ``BENCH_3.json``'s layout.  Under ``trace0.<workload>`` each
side (``parent`` is the base, ``change`` the change) has its per-run
``attempted``/``failed`` counts, the machine's 1, 5 and 15 minute load
averages before and after each run (``loadavg_start``/``loadavg_end``),
``calibration_s`` (the time of a fixed one-thread BLAS loop, run in its own
process just before each run, which shows the machine's speed per run)
and, per end-to-end metric and per numeric extra value
(``bench.trials_exact``, ...), the median, quartiles and IQR/median of
``perfbench/spread.py``'s ``summarise`` with every run's value.  Per end-to-end metric there are the
change/parent ratio of each pair and of the medians, the pairs the change won
(by the metric's direction in ``BENCHMARK.json``), and ``<metric>_gain_shown``:
it won at least nine pairs in ten and its median moved the right way by more
than the parent's interquartile range.  Under ``tier1`` the record holds
three Tier-1 test suite runs per side, alternating which side runs first:
per side the command, each run's wall time, exit code and summary line, and
the ``summarise`` of the wall times (``wall_s``).  Each call writes a new
``--out``, replacing any file there, so every run in a record comes from the
two trees that the record names.

``--trace-pairs N`` then runs N more alternating pairs per workload with
``--trace 1``, seeded as above.  Under ``trace1.<workload>`` each side has the
same summary of its per-layer metrics (self time per call, counts) and extra
values (``trace.closure``, ...), and per metric there are the change/parent
ratio of each pair and of the medians (null where the parent reads 0).  One
traced run's spread can be wider than a change, so these medians are what
show where a gain comes from.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from spread import summarise  # noqa: E402

WORKTREE = "WORKTREE"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TIER1_RUNS = 3


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kwargs)


def snapshot(rev: str, dest: str) -> dict:
    """Copy revision ``rev`` (or the working tree) into ``dest``; returns what
    was copied: the revision, the commit it rests on and a digest of the
    package source, which names an uncommitted tree too."""
    if rev == WORKTREE:
        names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
        for name in names.decode().split("\0"):
            if name and os.path.isfile(os.path.join(ROOT, name)):
                os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
                shutil.copy2(os.path.join(ROOT, name), os.path.join(dest, name))
        commit = "HEAD"
    else:
        archive = _git("archive", "--format=tar", rev).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
        commit = rev
    digest = hashlib.sha256()
    src = os.path.join(dest, "src", "caadam")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {"rev": rev, "commit": _git("rev-parse", "--short", commit, text=True).stdout.strip(),
            "src_caadam_sha256": digest.hexdigest()}


# 20000 products of two 64x64 float64 matrices, about 0.3 s on a 2-core
# x86-64 VM: long enough that one preemption moves it little.
CALIBRATION = """
import time
import numpy as np
a = np.random.default_rng(0).random((64, 64))
b = a.T.copy()
started = time.perf_counter()
for _ in range(20000):
    a @ b
print(time.perf_counter() - started)
"""


def calibrate() -> float:
    """Seconds of the ``CALIBRATION`` loop, run with one OpenBLAS thread."""
    proc = subprocess.run([sys.executable, "-c", CALIBRATION], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=600,
                          check=True)
    return float(proc.stdout)


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run: the record it writes under
    ``.perfbench_out/<workload>/``, which is its result line plus its
    ``extra`` values (``bench.trials_exact``, ``trace.closure``, ...) and the
    environment."""
    subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 600, check=True)
    path = os.path.join(checkout, ".perfbench_out", workload, f"result-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_tier1(checkout: str) -> dict:
    """One Tier-1 run in ``checkout``: its wall time, exit code and summary line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (os.path.join(checkout, "src"), os.environ.get("PYTHONPATH")) if p)}
    started = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=3600)
    wall = time.perf_counter() - started
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": proc.stdout.strip().splitlines()[-1]}


def tier1_record(checkouts: dict) -> dict:
    """``TIER1_RUNS`` Tier-1 runs per side, the parent first in even rounds;
    per side the command, each run and the ``summarise`` of the wall times."""
    runs = {"parent": [], "change": []}
    for i in range(TIER1_RUNS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            print(f"tier-1 run {i + 1} on {side} ...", file=sys.stderr, flush=True)
            runs[side].append(run_tier1(checkouts[side]))
    return {side: {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
                   "runs": r, "wall_s": summarise([run["wall_s"] for run in r])}
            for side, r in runs.items()}


def side_summary(runs: list[dict]) -> dict:
    return {
        "all_correct": all(r["correct"] for r in runs),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        **{key: [r["environment"][key] for r in runs] for key in ("loadavg_start", "loadavg_end")},
        "calibration_s": summarise([r["calibration_s"] for r in runs]),
        "metrics": {name: summarise([r["metrics"][name]["value"] for r in runs])
                    for name in runs[0]["metrics"]},
        "extra": {name: summarise([r["extra"][name]["value"] for r in runs])
                  for name, item in runs[0]["extra"].items()
                  if isinstance(item["value"], (int, float))},
    }


def _ratio(change: float, parent: float):
    return change / parent if parent else None


def ratios(parent: dict, change: dict) -> dict:
    """Per metric: the change/parent ratio of each pair and of the medians,
    keyed ``<metric>_pair_ratio`` and ``<metric>_median_ratio``."""
    out = {}
    for name, p in parent["metrics"].items():
        c = change["metrics"][name]
        out[f"{name}_pair_ratio"] = [_ratio(cv, pv) for pv, cv in zip(p["values"], c["values"])]
        out[f"{name}_median_ratio"] = _ratio(c["median"], p["median"])
    return out


def compare(parent: dict, change: dict, better: dict[str, str], pairs: int) -> dict:
    """Per metric: the ``ratios``, pairs won and whether the gain rule holds,
    keyed ``<metric>_<what>`` as in BENCH_3.json."""
    out = ratios(parent, change)
    for name, p in parent["metrics"].items():
        c = change["metrics"][name]
        sign = 1.0 if better[name] == "higher" else -1.0
        won = sum(sign * (cv - pv) > 0 for pv, cv in zip(p["values"], c["values"]))
        out[f"{name}_pairs_won"] = won
        out[f"{name}_gain_shown"] = (won >= 0.9 * pairs
                                     and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"])
    return out


def run_pairs(checkouts: dict, workload: str, seeds: list[int], seconds: float,
              trace: int) -> tuple[dict, list[str]]:
    """One run per side and seed, back to back, the parent first in even
    pairs, each after its ``calibrate``; returns each side's runs and which
    side led each pair."""
    runs = {"parent": [], "change": []}
    first = ["parent" if i % 2 == 0 else "change" for i in range(len(seeds))]
    for seed, lead in zip(seeds, first):
        for side in (lead, "change" if lead == "parent" else "parent"):
            calibration_s = calibrate()
            res = {**run_once(checkouts[side], workload, seed, seconds, trace),
                   "calibration_s": calibration_s}
            runs[side].append(res)
            print(f"{workload} trace {trace} seed {seed} {side}: correct={res['correct']}",
                  file=sys.stderr, flush=True)
    return runs, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the parent side")
    parser.add_argument("--change", required=True,
                        help=f"git revision of the changed side, or {WORKTREE}")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11, help="seed of the first pair")
    parser.add_argument("--trace-pairs", type=int, default=0,
                        help="also run this many --trace 1 pairs per workload")
    parser.add_argument("--out", required=True, help="BENCH_*.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.trace_pairs == 1 or args.trace_pairs < 0:
        parser.error("--pairs and a nonzero --trace-pairs must be at least 2 "
                     "(quartiles need two runs)")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench_compare-") as tmp:
        checkouts = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        sides = {side: snapshot(rev, checkouts[side])
                 for side, rev in (("parent", args.base), ("change", args.change))}
        record = {
            "what": (f"{args.change} (change) against its parent {sides['parent']['commit']}. "
                     f"Each pair runs perfbench/run.py --trace 0 --seconds {seconds:g} with the "
                     "same --seed on both sides, back to back, alternating which runs first"
                     + (f"; then {args.trace_pairs} such pairs with --trace 1"
                        if args.trace_pairs else "")
                     + "; written by scripts/bench_compare.py."),
            "parent_commit": sides["parent"]["commit"],
            "sides": sides,
            "tier1": tier1_record(checkouts),
            "trace0": {},
        }
        if args.trace_pairs:
            record["trace1"] = {}
        for workload in args.workload:
            seeds = [args.seed + i for i in range(args.pairs)]
            runs, first = run_pairs(checkouts, workload, seeds, seconds, trace=0)
            summary = {side: side_summary(r) for side, r in runs.items()}
            record["machine"] = {k: v for k, v in runs["parent"][0]["environment"].items()
                                 if not k.startswith("loadavg")}
            record["trace0"][workload] = {
                **summary, "seeds": seeds, "first_in_pair": first,
                **compare(summary["parent"], summary["change"], better, args.pairs)}
            if args.trace_pairs:
                seeds = [args.seed + i for i in range(args.trace_pairs)]
                runs, first = run_pairs(checkouts, workload, seeds, seconds, trace=1)
                summary = {side: side_summary(r) for side, r in runs.items()}
                record["trace1"][workload] = {
                    **summary, "seeds": seeds, "first_in_pair": first,
                    **ratios(summary["parent"], summary["change"])}
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
