"""Time one grid-zoo grid serially, with ``--parallel 2``, and with
``--parallel 2`` under a 1-thread OpenBLAS, each in a fresh process.

Usage, from the repository root::

    python3 perfbench/oversubscription.py [--seed 7000] [--repeats 2]

Prints the wall time of every run and the median per setting.  This backs
the grid-zoo oversubscription note in README.md; it is not part of the
benchmark's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETTINGS = (
    ("serial", 1, {}),
    ("parallel-2", 2, {}),
    ("parallel-2-blas-1", 2, {"OPENBLAS_NUM_THREADS": "1"}),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7000)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    import workloads as wls

    out_dir = os.path.join(wls.OUT_ROOT, "oversubscription")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(wls.grid_config(args.seed), fh)

    walls: dict[str, list[float]] = {name: [] for name, _, _ in SETTINGS}
    for _ in range(args.repeats):
        for name, workers, extra_env in SETTINGS:
            # importing workloads pinned OpenBLAS for this process; the
            # settings here start from the library's own default
            env = {k: v for k, v in os.environ.items() if k not in wls.BLAS_ENV}
            env.update(extra_env, PYTHONPATH=wls.SRC)
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "caadam.cli", "benchmark", "--config", config_path,
                 "--out", os.path.join(out_dir, name), "--parallel", str(workers), "--quiet"],
                cwd=ROOT, env=env, check=True, capture_output=True, timeout=600)
            walls[name].append(time.perf_counter() - started)
            print(f"{name:<20} {walls[name][-1]:8.2f} s", flush=True)
    for name, values in walls.items():
        print(f"median {name:<20} {statistics.median(values):8.2f} s")


if __name__ == "__main__":
    main()
