"""caadam benchmark: runs one workload and prints its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload trial-narrow --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` runs a fixed number of units twice, untraced and then traced,
and reports the per-layer metrics (self time per call into each module,
exact call counts, tracing overhead).  Every line before the last is a
human-readable ``name value unit`` listing; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment, is also written to ``.perfbench_out/<workload>/``.

Exit codes: 0 after a completed run (``correct`` says whether the outputs
passed their checks), 2 when the package source or the reference file is
missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

SETUP_PROBES = 9


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description="caadam benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def openblas_function(name: str):
    """``openblas_<name>`` from the OpenBLAS that NumPy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                       f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def _blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, if any."""
    fn = openblas_function("get_num_threads")
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    return fn()


def _loadavg():
    with open("/proc/loadavg", encoding="utf-8") as fh:
        return [float(v) for v in fh.read().split()[:3]]


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "mp_start_method": multiprocessing.get_start_method(),
        "loadavg_start": _loadavg(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# ---------------------------------------------------------------------------
# output checks


def check_trials(wls, trials, reference: dict) -> tuple[int, int]:
    """(failed, exact): trials that are non-finite or outside their cell's
    reference band, and trials equal bit for bit to their reference."""
    failed = exact = 0
    for t in trials:
        band = reference["cells"].get(t.cell)
        if (band is None or not math.isfinite(t.metric)
                or not band["lo"] <= t.metric <= band["hi"]):
            failed += 1
        if reference["trials"].get(wls.trial_key(t)) == wls.trial_record(t):
            exact += 1
    return failed, exact


# ---------------------------------------------------------------------------
# end-to-end run


def probe_setup(wls, wl, seed: int) -> dict:
    """Seconds from starting a fresh interpreter to its first training step,
    with the import / data / setup / step split."""
    probe = os.path.join(wls.HERE, "first_step.py")
    started = time.monotonic()
    proc = subprocess.run([sys.executable, probe, wl.name, str(seed)], cwd=wls.ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    marks = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "setup_s": marks["step"] - started,
        "setup.import_s": marks["import"] - started,
        "setup.data_s": marks["data"] - marks["import"],
        "setup.trial_s": marks["setup"] - marks["data"],
        "setup.step_s": marks["step"] - marks["setup"],
    }


def run_end_to_end(wls, wl, seed: int, seconds: float, out_dir: str, reference: dict):
    problems = []
    order = wl.pass_seeds(seed)

    # Whole passes over the pool, so that every run does the same work: a
    # further pass only when it fits in ``seconds`` by the last pass's time.
    # Set-up probes are spread over the run, between units, so their median
    # samples the machine over the whole run rather than over its first
    # seconds.
    units, probes = [], []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        for unit_seed in order:
            share = (time.perf_counter() - started) / seconds if seconds > 0 else 1.0
            while len(probes) < min(SETUP_PROBES, 1 + SETUP_PROBES * share):
                probes.append(probe_setup(wls, wl, order[0]))
            units.append(wls.run_unit(wl, unit_seed, os.path.join(out_dir, "unit")))
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(wls, wl, order[0]))
    trials = [t for u in units for t in u.trials]
    if wl.workers == 1:
        problems += wls.write_trial_report(trials, os.path.join(out_dir, "report"))
    for u in units:
        problems += u.problems

    failed, exact = check_trials(wls, trials, reference)
    finite = [t.metric for t in trials if math.isfinite(t.metric)]
    trial_walls = [t.wall_time_s for t in trials]
    rows = sum(t.epochs_run * u.n_train for u in units for t in u.trials)
    test_name = "test_acc_mean" if reference["metric"] == "accuracy" else "test_rmse_mean"
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "wall_s": (statistics.fmean(u.wall_s for u in units), "s"),
        "trial_s_mean": (statistics.fmean(trial_walls), "s"),
        "trials_per_s": (len(trials) / sum(u.wall_s for u in units), "1/s"),
        "train_rows_per_s": (rows / sum(trial_walls), "rows/s"),
        "epochs_mean": (statistics.fmean(t.epochs_run for t in trials), "epochs"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "trial_s_p50": (statistics.median(trial_walls), "s"),
        test_name: (statistics.fmean(finite) if finite else math.nan, reference["metric"]),
        "failed_share": (failed / len(trials), "share"),
        "trials": (len(trials), "count"),
        "units": (len(units), "count"),
        "passes": (len(units) // len(order), "count"),
        "bench.trials_exact": (exact, "count"),
    }
    for key in probes[0]:
        if key != "setup_s":
            extra[key] = (statistics.median(p[key] for p in probes), "s")
    extra["unit_walls"] = ([round(u.wall_s, 4) for u in units], "s")
    return metrics, extra, len(trials), failed, problems


# ---------------------------------------------------------------------------
# traced run


def _per(total: float, count: float, scale: float) -> float:
    return total / count / scale if count else 0.0


def run_traced(wls, tracer, wl, seed: int, out_dir: str, reference: dict):
    problems = []
    if tracer.installed_wrappers():
        problems.append("wrappers were installed before the traced run")
    dump_dir = os.path.join(out_dir, "trace")
    os.makedirs(dump_dir, exist_ok=True)
    tr = tracer.Tracer(dump_dir=dump_dir)
    seeds = wl.unit_seeds(seed)
    plain, traced = [], []
    for _ in range(wl.trace_units):
        unit_seed = next(seeds)
        plain.append(wls.run_unit(wl, unit_seed, os.path.join(out_dir, "unit")))
        with tr:
            traced.append(wls.run_unit(wl, unit_seed, os.path.join(out_dir, "unit")))
        tr.merge_dumps()
    trials = [t for u in plain + traced for t in u.trials]
    if wl.workers == 1:
        with tr:
            problems += wls.write_trial_report(trials, os.path.join(out_dir, "report"))
    left = tracer.installed_wrappers()
    if left:
        problems.append(f"wrappers left installed after the traced run: {left}")
    for u in plain + traced:
        problems += u.problems
    failed, exact = check_trials(wls, trials, reference)

    ns, calls = tr.totals()
    traced_trials = [(u, t) for u in traced for t in u.trials]
    traced_wall_ns = sum(t.wall_time_s for _, t in traced_trials) * 1e9
    plain_wall_ns = sum(t.wall_time_s for u in plain for t in u.trials) * 1e9
    steps = calls["optim.step"]
    epochs = calls["nn.loss"] / 2  # train and validation loss per epoch
    eval_ns = ns[tracer.FORWARD_EVAL] + ns["nn.loss"]
    fwd_bwd_ns = ns[tracer.FORWARD_STEP] + ns["nn.backward"]
    accounted = (fwd_bwd_ns + ns["optim.step"] + eval_ns
                 + ns["train.loop"] + ns["train.snapshot"])
    if abs(accounted - plain_wall_ns) > (abs(traced_wall_ns - plain_wall_ns)
                                         + 0.01 * plain_wall_ns):
        problems.append(
            f"self times add up to {accounted / 1e9:.4f} s, untraced trials took "
            f"{plain_wall_ns / 1e9:.4f} s, traced {traced_wall_ns / 1e9:.4f} s")
    flops = sum(wls.trial_flops(u.dims[t.architecture], u.n_train, wl.batch_size,
                                t.epochs_run) for u, t in traced_trials)
    reports = calls["bench.report"]
    busy = [sum(t.wall_time_s for t in u.trials) for u in plain]
    metrics = {
        "nn.forward_us": (_per(ns[tracer.FORWARD_STEP], calls[tracer.FORWARD_STEP], 1e3), "us"),
        "nn.backward_us": (_per(ns["nn.backward"], calls["nn.backward"], 1e3), "us"),
        "nn.step_mflop": (_per(flops, steps, 1e6), "MFLOP"),
        "nn.gflops": (_per(flops, fwd_bwd_ns, 1.0), "GFLOP/s"),
        "optim.step_us": (_per(ns["optim.step"], steps, 1e3), "us"),
        "optim.share": (_per(ns["optim.step"], traced_wall_ns, 1.0), "share"),
        "train.eval_us": (_per(eval_ns, epochs, 1e3), "us"),
        "train.eval_share": (_per(eval_ns, traced_wall_ns, 1.0), "share"),
        "train.loop_us": (_per(ns["train.loop"], steps, 1e3), "us"),
        "train.snapshot_us": (_per(ns["train.snapshot"], calls["train.snapshot"], 1e3), "us"),
        "nn.forward_calls": (calls[tracer.FORWARD_STEP] + calls[tracer.FORWARD_EVAL]
                             + calls[tracer.FORWARD_OTHER], "count"),
        "nn.backward_calls": (calls["nn.backward"], "count"),
        "optim.step_calls": (steps, "count"),
        "data.build_ms": (_per(ns["data.build"], calls["data.build"], 1e6), "ms"),
        "data.split_ms": (_per(ns["data.split"], calls["data.split"], 1e6), "ms"),
        "bench.trial_setup_ms": (_per(ns["bench.trial_setup"], calls["bench.trial_setup"],
                                      1e6), "ms"),
        "optim.make_us": (_per(ns["optim.make"], calls["optim.make"], 1e3), "us"),
        "scaling.table_us": (_per(ns["scaling.table"], calls["scaling.table"], 1e3), "us"),
        "bench.pool_efficiency": (sum(busy) / sum(wl.workers * u.wall_s for u in plain),
                                  "share"),
        "bench.pool_idle_s": (statistics.median(wl.workers * u.wall_s - b
                                                for u, b in zip(plain, busy)), "s"),
        "bench.report_ms": (_per(ns["bench.report"] + ns["bench.format"], reports, 1e6), "ms"),
        "stats.welch_calls": (calls["stats.welch"], "count"),
        "stats.welch_us": (_per(ns["stats.welch"], calls["stats.welch"], 1e3), "us"),
        "cli.write_ms": (_per(ns["cli.write"], reports, 1e6), "ms"),
        "bench.trials_exact": (exact, "count"),
        "trace.overhead_s": (statistics.median(t.wall_s - p.wall_s
                                               for p, t in zip(plain, traced)), "s"),
    }
    extra = {
        "trace.closure": (_per(accounted, traced_wall_ns, 1.0), "share"),
        "trace.trial_s_untraced": (plain_wall_ns / 1e9, "s"),
        "trace.trial_s_traced": (traced_wall_ns / 1e9, "s"),
        "units": (len(traced), "count"),
    }
    return metrics, extra, len(trials), failed, problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        import workloads as wls
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import tracer

    if args.workload not in wls.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(wls.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        reference = wls.load_reference()[args.workload]
    except (OSError, KeyError) as exc:
        print(f"perfbench: no reference for {args.workload}: {exc!r}", file=sys.stderr)
        return 2
    wl = wls.WORKLOADS[args.workload]
    env = environment(np)
    out_dir = os.path.join(wls.OUT_ROOT, wl.name)
    os.makedirs(out_dir, exist_ok=True)

    if args.trace:
        metrics, extra, attempted, failed, problems = run_traced(
            wls, tracer, wl, args.seed, out_dir, reference)
    else:
        metrics, extra, attempted, failed, problems = run_end_to_end(
            wls, wl, args.seed, args.seconds, out_dir, reference)
    env["loadavg_end"] = _loadavg()

    print(f"# workload {wl.name} seed {args.seed} trace {args.trace}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = f"{value:>16.6g}" if isinstance(value, (int, float)) else value
        print(f"{name:<28} {shown} {unit}")
    for problem in problems:
        print(f"# check failed: {problem}")
    failed += len(problems)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {**result, "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "environment": env, "problems": problems, "args": vars(args)}
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
