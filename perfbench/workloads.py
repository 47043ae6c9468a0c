"""Workload definitions shared by the benchmark, its set-up probe and the
reference generator.

A workload is a sequence of *units*: ``trial-narrow`` and ``trial-wide`` run
one full-protocol ``run_trial`` per optimizer at one trial seed;
``grid-zoo`` runs one ``caadam benchmark --parallel 2`` grid in-process.
Each workload has a fixed pool of unit seeds whose results are recorded in
``reference.json``.  A run visits the whole pool one or more times, so every
run does the same work; ``--seed`` picks the order of the visits, so the same
seed always gives the same inputs.

Importing this module pins OpenBLAS to one thread (see ``BLAS_ENV``), puts
the checkout's ``src`` first on ``sys.path`` and imports ``caadam`` from
there; it raises ``ImportError`` when the checkout has no package source.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# One BLAS thread per process.  With OpenBLAS's default of one thread per
# core, its idle thread spins on the second of two cores, and one other busy
# process adds 60-160% to the epoch time (README: "BLAS threads").  Set
# before NumPy is first imported; child processes inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

if not os.path.isfile(os.path.join(SRC, "caadam", "__init__.py")):
    raise ImportError(f"no caadam package source under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import caadam  # noqa: E402

if os.path.dirname(os.path.abspath(caadam.__file__)) != os.path.join(SRC, "caadam"):
    raise ImportError(f"caadam was imported from {caadam.__file__}, not from {SRC}")

# Submodules by path: the package re-exports ``train`` the function under
# the same name as ``caadam.train`` the module.
bench = importlib.import_module("caadam.bench")
cli = importlib.import_module("caadam.cli")
nn = importlib.import_module("caadam.nn")
train_mod = importlib.import_module("caadam.train")
from caadam.optim import ALGORITHMS, OptimizerConfig  # noqa: E402
from caadam.scaling import ScalingStrategy  # noqa: E402

TRIAL_OPTIMIZERS = (
    bench.OptimizerEntry("adam", OptimizerConfig("adam")),
    bench.OptimizerEntry("caadam-multiplicative", OptimizerConfig(
        "caadam", scaling=ScalingStrategy("multiplicative"))),
)

GRID_WORKERS = 2


def grid_config(base_seed: int) -> dict:
    """The grid-zoo experiment: 2 architectures x 11 optimizer entries x 2
    trials on a 6-class problem; the dataset seed follows the grid seed.

    Early stopping is set to never fire, so every trial runs the full 40
    epochs (the plateau schedule still cuts the rate): the work in a grid does
    not depend on the seed, and its wall time measures the pool, not how
    soon the drawn problems converge."""
    optimizers = [{"algorithm": a} for a in ALGORITHMS if a != "caadam"]
    optimizers += [{"algorithm": "caadam", "scaling": kind}
                   for kind in ("additive", "multiplicative", "depth_based")]
    return {
        "dataset": {"kind": "synth_classification", "n": 3000, "m": 16,
                    "classes": 6, "spread": 2.0, "seed": base_seed},
        "architectures": [[32], [64, 32]],
        "optimizers": optimizers,
        "train": {"max_epochs": 40, "early_stop_patience": 40},
        "trials": 2,
        "base_seed": base_seed,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple[int, ...]  # unit seeds with a recorded reference
    trace_units: int  # units run untraced and then traced under --trace 1
    architectures: tuple[tuple[int, ...], ...]
    batch_size: int
    max_epochs: int = train_mod.TrainConfig.max_epochs  # trial-* only
    workers: int = 1

    def pass_seeds(self, seed: int) -> list[int]:
        """The whole pool, in an order drawn from ``seed``."""
        order = np.random.default_rng(seed).permutation(len(self.pool))
        return [self.pool[i] for i in order]

    def unit_seeds(self, seed: int):
        """Endless iterator over ``pass_seeds(seed)``, pass after pass."""
        return itertools.cycle(self.pass_seeds(seed))

    def train_config(self):
        return train_mod.TrainConfig(batch_size=self.batch_size, max_epochs=self.max_epochs)


# Pools are sized so that one pass takes 25-35 s on a 2-core machine.
# trial-wide stops at 30 epochs, well before its early stop (106-143 epochs
# in full-protocol trials), so that a pass holds 22 trials, not six.
WORKLOADS = {
    "trial-narrow": Workload("trial-narrow", tuple(range(5000, 5014)), trace_units=3,
                             architectures=((64, 32),), batch_size=64),
    "trial-wide": Workload("trial-wide", tuple(range(6000, 6011)), trace_units=2,
                           architectures=((256, 128),), batch_size=512, max_epochs=30),
    "grid-zoo": Workload("grid-zoo", tuple(range(7000, 7006, 2)), trace_units=1,
                         architectures=((32,), (64, 32)), batch_size=64,
                         workers=GRID_WORKERS),
}


@dataclass
class UnitResult:
    seed: int
    wall_s: float
    trials: list  # list[caadam.bench.TrialResult]
    n_train: int
    dims: dict  # architecture label -> layer sizes, input to output
    problems: list  # output-check failures that are not about one trial


def _n_train(n_samples: int) -> int:
    return int(math.floor(bench.DEFAULT_SPLIT[0] * n_samples))


def _dims(dataset, architectures) -> dict:
    out = {}
    for hidden in architectures:
        spec = bench.network_spec_for(dataset, hidden)
        out[bench.arch_label(hidden)] = (spec.input_dim, *spec.hidden_sizes, spec.output_dim)
    return out


def _run_trial_unit(wl: Workload, seed: int) -> UnitResult:
    cfg = wl.train_config()
    started = time.perf_counter()
    dataset = bench.load_dataset({"kind": "benchmark_regression"})
    trials = [
        bench.run_trial(dataset, wl.architectures[0], entry, cfg,
                        bench.DEFAULT_SPLIT, seed)
        for entry in TRIAL_OPTIMIZERS
    ]
    wall = time.perf_counter() - started
    return UnitResult(seed, wall, trials, _n_train(dataset.n_samples),
                      _dims(dataset, wl.architectures), [])


def _run_grid_unit(wl: Workload, seed: int, out_dir: str) -> UnitResult:
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    config = grid_config(seed)
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    grid_out = os.path.join(out_dir, "grid")
    argv = ["benchmark", "--config", config_path, "--out", grid_out,
            "--parallel", str(wl.workers), "--quiet"]
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    wall = time.perf_counter() - started

    problems = []
    if code != cli.EXIT_OK:
        problems.append(f"caadam benchmark exited with {code}")
    trials = []
    trials_path = os.path.join(grid_out, "trials.json")
    if os.path.exists(trials_path):
        trials = bench.load_trials(trials_path, os.path.join(grid_out, "timings.json"))
    expected = (len(config["architectures"]) * len(config["optimizers"])
                * config["trials"])
    if len(trials) != expected:
        problems.append(f"trials.json holds {len(trials)} trials, expected {expected}")
    report_path = os.path.join(grid_out, "report.json")
    if not os.path.exists(report_path):
        problems.append("report.json was not written")
    else:
        with open(report_path, encoding="utf-8") as fh:
            cells = json.load(fh)["cells"]
        if len(cells) != expected // config["trials"]:
            problems.append(f"report.json holds {len(cells)} cells")
    ds = config["dataset"]
    dims = {bench.arch_label(h): (ds["m"], *h, ds["classes"]) for h in wl.architectures}
    return UnitResult(seed, wall, trials, _n_train(ds["n"]), dims, problems)


def run_unit(wl: Workload, seed: int, out_dir: str) -> UnitResult:
    if wl.workers > 1:
        return _run_grid_unit(wl, seed, out_dir)
    return _run_trial_unit(wl, seed)


def write_trial_report(trials: list, out_dir: str) -> list[str]:
    """Build, format and save the comparison report for the trials of a
    trial-* run, as a user would after running them; returns problems."""
    os.makedirs(out_dir, exist_ok=True)
    report = bench.build_report(trials)
    bench.format_report_table(report)
    bench.save_trials(trials, os.path.join(out_dir, "trials.json"))
    bench.save_timings(trials, os.path.join(out_dir, "timings.json"))
    bench.save_report(report, os.path.join(out_dir, "report.json"),
                      os.path.join(out_dir, "report.csv"))
    cells = {t.cell for t in trials}
    if len(report.cells) != len(cells):
        return [f"report has {len(report.cells)} cells for {len(cells)} trial cells"]
    return []


def first_step_inputs(wl: Workload, seed: int):
    """(dataset, hidden sizes, optimizer config, train config) of the first
    trial a unit with this seed trains."""
    if wl.workers > 1:
        exp = bench.experiment_from_dict(grid_config(seed))
        return (bench.load_dataset(exp.dataset), exp.architectures[0],
                exp.optimizers[0].config, exp.train)
    dataset = bench.load_dataset({"kind": "benchmark_regression"})
    return dataset, wl.architectures[0], TRIAL_OPTIMIZERS[0].config, wl.train_config()


def step_flops(dims: tuple[int, ...], rows: int) -> int:
    """Matmul FLOPs of one forward+backward pass over ``rows`` rows:
    2*rows*fan_in*fan_out each for the forward product and the weight
    gradient of every layer, and for the input gradient of every layer but
    the first."""
    pairs = [a * b for a, b in zip(dims[:-1], dims[1:])]
    return 2 * rows * (3 * sum(pairs) - pairs[0])


def trial_flops(dims: tuple[int, ...], n_train: int, batch_size: int,
                epochs: int) -> int:
    full, rest = divmod(n_train, batch_size)
    per_epoch = full * step_flops(dims, batch_size)
    if rest:
        per_epoch += step_flops(dims, rest)
    return per_epoch * epochs


def trial_key(trial) -> str:
    return f"{trial.cell}#{trial.seed}"


def trial_record(trial) -> list:
    """What a reference pins for one trial: metric (None when diverged),
    epochs run and stop reason."""
    metric = None if math.isnan(trial.metric) else trial.metric
    return [metric, trial.epochs_run, trial.stop_reason]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
