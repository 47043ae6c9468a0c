"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload trial-narrow --seeds 1-10 [--trace 0]
        [--seconds 30] [--out perfbench/baseline.json]

Each seed runs ``perfbench/run.py`` in a fresh process.  For every metric it
prints the median, the first and third quartiles (``statistics.quantiles``,
n=4) and the interquartile range as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  ``--out`` merges the summary into a
JSON file under the workload and trace mode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    results = []
    for seed in parse_seeds(args.seeds):
        res = run_once(args.workload, seed, seconds, args.trace)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
              flush=True)
    summary = {}
    for name in results[0]["metrics"]:
        summary[name] = summarise([r["metrics"][name]["value"] for r in results])
        s = summary[name]
        print(f"{name:<24} median {s['median']:>12.6g}  q1 {s['q1']:>12.6g}  "
              f"q3 {s['q3']:>12.6g}  iqr/median {s['iqr_share']:8.4f}  "
              f"bound {bounds.get(name)}")
    print(f"all correct: {all(r['correct'] for r in results)}")
    if args.out:
        payload = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                payload = json.load(fh)
        payload.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds, "seconds": seconds,
            "all_correct": all(r["correct"] for r in results),
            "metrics": summary,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
