"""Time trial-* units with OpenBLAS at one thread and at one thread per
core, each with the machine otherwise idle and beside one busy-looping
process.

Usage, from the repository root::

    python3 perfbench/contention.py [--workload trial-narrow] [--seconds 20]

Every setting runs in a fresh process that repeats the workload's units for
``--seconds`` and prints the median wall time and process CPU time per
epoch.  This backs the "BLAS threads" note in README.md, the reason the
benchmark pins OpenBLAS to one thread; it is not part of the benchmark's
metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _busy(stop) -> None:
    while not stop.is_set():
        pass


def child(workload: str, threads: int, seconds: float) -> dict:
    """Runs in a fresh interpreter: units of ``workload`` for ``seconds``."""
    import workloads as wls
    from run import _blas_threads, openblas_function

    openblas_function("set_num_threads")(threads)
    wl = wls.WORKLOADS[workload]
    seeds = wl.unit_seeds(1)
    wall, cpu = [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        t0, c0 = time.perf_counter(), time.process_time()
        unit = wls.run_unit(wl, next(seeds), os.path.join(wls.OUT_ROOT, "contention"))
        epochs = sum(t.epochs_run for t in unit.trials)
        wall.append((time.perf_counter() - t0) / epochs * 1e3)
        cpu.append((time.process_time() - c0) / epochs * 1e3)
    return {"blas_threads": _blas_threads(), "units": len(wall),
            "wall_ms_per_epoch": statistics.median(wall),
            "cpu_ms_per_epoch": statistics.median(cpu)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="trial-narrow",
                        choices=("trial-narrow", "trial-wide"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        print(json.dumps(child(args.workload, args.child, args.seconds)))
        return

    for threads in (os.cpu_count(), 1):
        for busy in (False, True):
            stop = multiprocessing.Event()
            hog = multiprocessing.Process(target=_busy, args=(stop,)) if busy else None
            if hog is not None:
                hog.start()
            try:
                proc = subprocess.run(
                    [sys.executable, __file__, "--workload", args.workload,
                     "--seconds", str(args.seconds), "--child", str(threads)],
                    cwd=ROOT, capture_output=True, text=True, check=True,
                    timeout=args.seconds + 120)
            finally:
                if hog is not None:
                    stop.set()
                    hog.join()
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"blas threads {res['blas_threads']}  busy process {'yes' if busy else 'no '}"
                  f"  wall {res['wall_ms_per_epoch']:7.2f} ms/epoch"
                  f"  cpu {res['cpu_ms_per_epoch']:7.2f} ms/epoch"
                  f"  ({res['units']} units)", flush=True)


if __name__ == "__main__":
    main()
