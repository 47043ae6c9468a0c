"""Repeated-trial benchmark grid and Welch-test comparison reports.

A grid cell is one (architecture, optimizer) pair; every cell runs the same
list of trial seeds (``base_seed + trial_index``), so optimizers compared
within a cell see identical data splits and identical initial weights.
Each trial derives three independent seeds from its trial seed — split,
weight init, batch shuffle — through a single master generator.

``trials.json`` contains only deterministic fields and is byte-identical
across identically configured runs; wall-clock timings go to a separate
``timings.json`` with the same row order.
"""

from __future__ import annotations

import csv
import math
import os
import re
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import attrgetter

import numpy as np

from .cores import share_cores
from .data import (
    DEFAULT_SPLIT,
    Dataset,
    benchmark_regression,
    load_csv,
    split_sizes,
    split_standardize,
    synth_classification,
    synth_regression,
)
from .errors import ConfigError, DataError
from .jsonio import (INT, LIST, NUMBER, PARSERS, STR, arguments, checked, number, read_json,
                     write_json, writing)
from .linalg import make_rng
from .nn import CLASSIFICATION, REGRESSION, Network, NetworkSpec, init_network, workspace_shapes
from .optim import OptimizerConfig, make_optimizer, optimizer_class
from .scaling import ScalingStrategy
from .stats import significance_stars, welch_t_test
from .train import (
    LOG_COLUMNS,
    STOP_DIVERGED,
    STOP_EARLY,
    STOP_MAX_EPOCHS,
    TrainConfig,
    evaluate,
    export_log_csv,
    train,
)

TRIALS_VERSION = 1

METRIC_RMSE = "rmse"
METRIC_ACCURACY = "accuracy"


@dataclass(frozen=True)
class OptimizerEntry:
    """One optimizer column of the grid: a display label plus its config."""

    label: str
    config: OptimizerConfig

    def __post_init__(self):
        # "|" joins a cell name; a path separator or NUL would move its log file.
        banned = ("|", "/", "\0", os.sep, os.altsep)
        if not self.label or any(c and c in self.label for c in banned):
            raise ConfigError(f"bad optimizer label {self.label!r}: it must be non-empty and "
                              "hold no '|', path separator or NUL")


def default_label(config: OptimizerConfig) -> str:
    if config.scaling is None:
        return config.algorithm
    return f"{config.algorithm}-{config.scaling.kind}"


def arch_label(hidden_sizes) -> str:
    return "x".join(str(s) for s in hidden_sizes)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict
    architectures: tuple[tuple[int, ...], ...]
    optimizers: tuple[OptimizerEntry, ...]
    train: TrainConfig = TrainConfig()
    trials: int = 30
    base_seed: int = 0
    split: tuple[float, float, float] = DEFAULT_SPLIT

    def __post_init__(self):
        object.__setattr__(
            self, "architectures", tuple(tuple(int(s) for s in a) for a in self.architectures)
        )
        object.__setattr__(self, "optimizers", tuple(self.optimizers))
        object.__setattr__(self, "split", tuple(float(f) for f in self.split))
        if len(self.split) != 3:
            raise ConfigError(f"split must have 3 fractions, got {self.split}")
        if self.trials < 2:
            raise ConfigError(f"trials must be >= 2, got {self.trials}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.architectures:
            raise ConfigError("at least one architecture is required")
        for a in self.architectures:
            if not a or any(s < 1 for s in a):
                raise ConfigError(f"architectures must be non-empty positive sizes, got {a}")
        if not self.optimizers:
            raise ConfigError("at least one optimizer is required")
        labels = [e.label for e in self.optimizers]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate optimizer labels: {labels}")


@dataclass(frozen=True)
class TrialResult:
    cell: str  # "<arch>|<optimizer>"
    architecture: str
    optimizer: str
    seed: int
    metric: float  # NaN when the trial diverged
    metric_name: str
    epochs_run: int
    wall_time_s: float
    stop_reason: str
    best_val_loss: float = math.nan  # not saved in trials.json


# ---------------------------------------------------------------------------
# config parsing: ``jsonio`` checks JSON kinds, the constructors own every range


# An optimizer entry adds a label, flattens the ScalingStrategy into
# scaling/gamma/sigma, and takes the float fields its algorithm reads.
_ENTRY_KEYS = {"algorithm", "label", "scaling", "gamma", "sigma"}


def optimizer_entry_from_dict(spec: dict) -> OptimizerEntry:
    """Build one optimizer column from its config mapping.

    ``scaling``/``gamma``/``sigma`` select and tune a connection- or
    depth-aware scaling strategy; they are rejected for algorithms that do
    not take one.  Of the float hyper-parameters, an entry takes only those
    its algorithm reads; any other key is an error rather than ignored.
    """
    if "algorithm" not in checked(spec, (dict,), "optimizer entry"):
        raise ConfigError(f"optimizer entry needs an 'algorithm': {spec}")
    algorithm = checked(spec["algorithm"], STR, "algorithm")
    reads = optimizer_class(algorithm).reads
    unknown = spec.keys() - _ENTRY_KEYS - set(reads)
    if unknown:
        raise ConfigError(f"unknown optimizer config keys for {algorithm}: {sorted(unknown)}; "
                          f"of the float hyper-parameters it reads only {list(reads)}")

    scaling = None
    if "scaling" in spec:
        strategy_args = {"kind": checked(spec["scaling"], STR, "scaling")}
        if "gamma" in spec:
            strategy_args["gamma"] = number(spec["gamma"], "gamma")
        if "sigma" in spec:
            strategy_args["multiplicative_sigma"] = spec["sigma"]
        scaling = ScalingStrategy(**strategy_args)
    elif algorithm == "caadam":
        raise ConfigError("caadam needs a 'scaling' strategy")
    elif "gamma" in spec or "sigma" in spec:
        raise ConfigError("'gamma'/'sigma' are only valid together with 'scaling'")

    kwargs = {key: number(spec[key], key) for key in reads if key in spec}
    config = OptimizerConfig(algorithm=algorithm, scaling=scaling, **kwargs)
    label = checked(spec.get("label", default_label(config)), STR, "label")
    return OptimizerEntry(label=label, config=config)


# The parsers of ExperimentConfig's annotations.  A trial derives its shuffle
# seed, so a config sets no train seed.
_EXPERIMENT_PARSERS = {
    **PARSERS,
    dict: partial(checked, kinds=(dict,)),
    OptimizerEntry: lambda value, what: optimizer_entry_from_dict(value),
    TrainConfig: lambda value, what: TrainConfig(
        **arguments(TrainConfig, value, "train config", seed=TrainConfig.seed)),
}


def experiment_from_dict(payload: dict) -> ExperimentConfig:
    """Parse the experiment config mapping used by config files."""
    return ExperimentConfig(**arguments(ExperimentConfig, payload, "experiment config",
                                        _EXPERIMENT_PARSERS))


# ---------------------------------------------------------------------------
# dataset specs


# The most float64 elements one NumPy array can hold: its byte count must fit an intp.
_MAX_ELEMENTS = np.iinfo(np.intp).max // 8


def load_dataset(spec: dict) -> Dataset:
    """Build the experiment dataset from its config mapping.  A kind's options
    are its builder's parameters (``jsonio.arguments``).  Every option is
    checked before any data is generated or read."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    # Looked up at each call, so a builder patched on this module is the one called.
    builders = {"benchmark_regression": benchmark_regression, "synth_regression": synth_regression,
                "synth_classification": synth_classification, "csv": load_csv}
    if kind not in builders:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    args = arguments(builders[kind], spec, f"{kind} dataset")
    if max(args.get("n", 0), args.get("classes", 0)) * args.get("m", 0) > _MAX_ELEMENTS:
        raise ConfigError(f"dataset sizes {args} are too large for a NumPy array")
    if args.get("task", REGRESSION) not in (REGRESSION, CLASSIFICATION):
        raise ConfigError(f"dataset task must be {REGRESSION!r} or {CLASSIFICATION!r}, "
                          f"got {args['task']!r}")
    with building(f"{kind} dataset {args}"):
        return builders[kind](**args)


# ---------------------------------------------------------------------------
# trials


def network_spec_for(dataset: Dataset, hidden_sizes) -> NetworkSpec:
    """The network for ``dataset``.  A trial's training workspace is its
    largest array, so one past NumPy's array size is a config error.  The
    check bounds it by one block over all the dataset's rows, more than any
    batch size gives."""
    output_dim = dataset.n_classes if dataset.task == CLASSIFICATION else 1
    spec = NetworkSpec(dataset.n_features, tuple(hidden_sizes), output_dim,
                       output_head=dataset.task)
    n = dataset.n_samples
    if sum(math.prod(s) for s in workspace_shapes(spec, n, n)) > _MAX_ELEMENTS:
        raise ConfigError(f"architecture {list(hidden_sizes)} is too large for a NumPy "
                          f"array over {dataset.n_samples} rows")
    return spec


def _metric_name(task: str) -> str:
    """The test metric ``evaluate`` computes for ``task``."""
    return METRIC_ACCURACY if task == CLASSIFICATION else METRIC_RMSE


def trial_setup(dataset: Dataset, hidden_sizes, split, trial_seed: int):
    """Everything a trial shares across optimizers: the data split, the
    initial network, and the batch-shuffle seed.

    The three role seeds are derived from one master generator keyed only by
    ``trial_seed``, so two optimizers compared at the same trial seed start
    from identical splits and identical initial weights by construction.
    Returns (split_dataset, network, shuffle_seed).
    """
    master = make_rng(trial_seed)
    split_seed, init_seed, shuffle_seed = (int(s) for s in master.integers(0, 2**63, size=3))
    split_ds = split_standardize(dataset, split, seed=split_seed)
    with building(f"network {list(hidden_sizes)}"):
        net = init_network(network_spec_for(dataset, hidden_sizes), make_rng(init_seed))
    return split_ds, net, shuffle_seed


def run_trial(dataset: Dataset, hidden_sizes, entry, train_cfg: TrainConfig, split,
              trial_seed: int, log_path=None):
    """One seeded trial: split, init, train, evaluate on the test split; the
    loss curve goes to ``log_path`` when given.  ``caadam train`` runs one.

    ``entry`` may instead be a tuple of OptimizerEntry: the trials of one
    trial seed, which share the split, the initial weights and the batch
    order, train as one group (``train``), and return a list of results in
    their order, each curve going to its path in the tuple ``log_path``."""
    one = isinstance(entry, OptimizerEntry)
    entries = (entry,) if one else tuple(entry)
    log_paths = (log_path,) if one else log_path or (None,) * len(entries)
    split_ds, net, shuffle_seed = trial_setup(dataset, hidden_sizes, split, trial_seed)
    nets = [net] + [Network(net.spec, net.layers) for _ in entries[1:]]
    opts = [make_optimizer(e.config, member) for e, member in zip(entries, nets)]
    cfg = replace(train_cfg, seed=shuffle_seed)

    with building(f"network {list(hidden_sizes)}"):  # train() and evaluate() add workspaces
        trained = train(nets, opts, split_ds, cfg)
        metrics = [math.nan if log.stop_reason == STOP_DIVERGED else evaluate(net, split_ds.test)
                   for net, log in trained]

    for path, (_, log) in zip(log_paths, trained):
        if path is not None:
            with writing(path):
                os.makedirs(os.path.dirname(path), exist_ok=True)
                export_log_csv(log, path)

    results = [TrialResult(
        cell=f"{arch_label(hidden_sizes)}|{e.label}",
        architecture=arch_label(hidden_sizes),
        optimizer=e.label,
        seed=trial_seed,
        metric=metric,
        metric_name=_metric_name(dataset.task),
        epochs_run=log.epochs_run,
        wall_time_s=log.wall_time_s,
        stop_reason=log.stop_reason,
        best_val_loss=log.best_val_loss,
    ) for e, metric, (_, log) in zip(entries, metrics, trained)]
    return results[0] if one else results


def _trial_log_path(log_dir, hidden_sizes, entry_label: str, seed: int):
    if log_dir is None:
        return None
    cell_dir = f"{arch_label(hidden_sizes)}__{entry_label}"
    return os.path.join(log_dir, cell_dir, f"trial_{seed}.csv")


# The inverse of ``_trial_log_path`` relative to the log directory.  An arch
# label holds only digits and ``x``, so the cell directory splits at its
# first ``__`` and the optimizer label keeps any later one.
_TRIAL_LOG = re.compile(r"([0-9x]+)__(.+)/trial_([0-9]+)\.csv")

CURVE_COLUMNS = ("cell", "seed", *LOG_COLUMNS)


def read_trial_logs(log_dir) -> list[list]:
    """Every epoch row of the loss-curve CSVs that ``run_experiment`` writes
    under ``log_dir``, as ``CURVE_COLUMNS`` values sorted by cell, seed and
    epoch.  A CSV off that layout, a malformed row, or no CSV is a DataError."""
    rows = []
    for dirpath, _, filenames in os.walk(log_dir):
        for path in (os.path.join(dirpath, n) for n in filenames if n.endswith(".csv")):
            match = _TRIAL_LOG.fullmatch(os.path.relpath(path, log_dir).replace(os.sep, "/"))
            if match is None:
                raise DataError(f"{path} is not a <arch>__<label>/trial_<seed>.csv log")
            arch, label, seed = match.groups()
            rows += [[f"{arch}|{label}", seed, *row] for row in _log_rows(path)]
    if not rows:
        raise DataError(f"no loss-curve CSVs found under {log_dir}")
    return sorted(rows, key=lambda r: r[:3])


def _log_rows(path) -> list[list]:
    """The rows of one loss-curve CSV as (int, float, float, float) values."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if header != list(LOG_COLUMNS):
        raise DataError(f"{path}: expected columns {list(LOG_COLUMNS)}, got {header}")
    try:
        return [[int(epoch), float(train), float(val), float(lr)]
                for epoch, train, val, lr in rows]
    except ValueError as exc:
        raise DataError(f"{path}: a row is not an integer epoch and three numbers "
                        f"({exc})") from None


# A pool worker's (dataset, train config, split, log dir), shared by its trials.
_WORKER_ARGS: list = []


def _worker_init(workers: int, *args):
    """Start a pool worker: its share of the cores, then the trial arguments."""
    share_cores(workers)
    _WORKER_ARGS[:] = args


def _worker_run(task, args=_WORKER_ARGS) -> list[TrialResult]:
    dataset, train_cfg, split, log_dir = args
    hidden_sizes, entries, trial_seed = task
    return run_trial(dataset, hidden_sizes, entries, train_cfg, split, trial_seed,
                     log_path=tuple(_trial_log_path(log_dir, hidden_sizes, e.label, trial_seed)
                                    for e in entries))


# The row order of run_experiment's results and of every trial file.
_TRIAL_ORDER = attrgetter("cell", "seed")


def checked_dataset(cfg: ExperimentConfig, dataset: Dataset | None = None) -> Dataset:
    """``dataset``, or the one ``cfg`` names, after the split and every
    architecture of ``cfg`` are checked against it; ``run_experiment`` calls
    it before any trial."""
    if dataset is None:
        dataset = load_dataset(cfg.dataset)
    split_sizes(dataset.n_samples, cfg.split)
    for hidden in cfg.architectures:
        network_spec_for(dataset, hidden)
    return dataset


# The least work for which ``run_experiment`` starts a process pool, in
# trials x max_epochs x train rows x multiply-adds per row, summed over the
# grid.  On 2 cores a pool's start-up took about 0.1 s: a grid of 11
# optimizers x 2 trials on [8] and [8, 4] nets ran in 0.08 s serial and
# 0.18 s pooled at 1.4e6, and in 0.33 s and 0.29 s at 5.5e6 (CHANGES.md).
POOL_MIN_WORK = 4_000_000


def grid_work(cfg: ExperimentConfig, dataset: Dataset) -> int:
    """The work of ``cfg``'s grid on ``dataset``, in the units of ``POOL_MIN_WORK``."""
    rows = split_sizes(dataset.n_samples, cfg.split)[0] * cfg.train.max_epochs
    return rows * len(cfg.optimizers) * cfg.trials * sum(
        network_spec_for(dataset, hidden).multiply_adds for hidden in cfg.architectures)


def run_experiment(cfg: ExperimentConfig, dataset: Dataset | None = None,
                   workers: int = 1, log_dir=None,
                   progress=None) -> list[TrialResult]:
    """Run the full grid; returns results sorted by (cell, seed).

    The trials of one architecture and trial seed train as a group
    (``run_trial`` with a tuple of entries), one task per group.
    ``workers > 1`` fans the tasks out to a process pool of at most one
    worker per task, unless the grid's work is below ``POOL_MIN_WORK``; with
    fewer groups than workers, each group is split into equal slices of its
    optimizers, so that every worker has a task.  The result list is
    identical either way.  ``log_dir`` writes
    one loss-curve CSV per trial under
    ``<log_dir>/<arch>__<optimizer>/trial_<seed>.csv``.
    """
    dataset = checked_dataset(cfg, dataset)
    if grid_work(cfg, dataset) < POOL_MIN_WORK:
        workers = 1
    groups = [(hidden, cfg.base_seed + k) for hidden in cfg.architectures
              for k in range(cfg.trials)]
    m = len(cfg.optimizers)
    parts = min(m, -(-workers // len(groups)))
    tasks = [(hidden, cfg.optimizers[i * m // parts : (i + 1) * m // parts], seed)
             for hidden, seed in groups for i in range(parts)]
    initargs = (dataset, cfg.train, cfg.split, log_dir)
    # A fork-started pool starts all its workers at the first submit.
    workers = min(workers, len(tasks))
    results: list[TrialResult] = []
    with ExitStack() as stack:
        if workers <= 1:
            mapped = map(partial(_worker_run, args=initargs), tasks)
        else:
            from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

            mapped = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init,
                initargs=(workers, *initargs),
            )).map(_worker_run, tasks)
        for group in mapped:
            for res in group:
                results.append(res)
                if progress is not None:
                    progress(res)
    return sorted(results, key=_TRIAL_ORDER)


# ---------------------------------------------------------------------------
# report


@dataclass
class CellStats:
    """One row of the report; the fields after ``cell`` are its CSV columns, in order."""

    cell: str
    architecture: str
    optimizer: str
    n_trials: int
    n_diverged: int
    metric_mean: float
    metric_std: float
    metric_improvement_pct: float
    metric_t: float
    metric_p: float
    metric_stars: str
    epochs_mean: float
    epochs_std: float
    time_mean: float
    time_std: float
    time_improvement_pct: float
    time_t: float
    time_p: float
    time_stars: str


@dataclass
class ComparisonReport:
    baseline: str
    metric_name: str
    higher_is_better: bool
    cells: list[CellStats] = field(default_factory=list)
    method: str = "welch_t_test"


def _mean_std(xs: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation; NaN where undefined, including
    where a sum or a square leaves the float range."""
    try:
        mean = math.fsum(xs) / len(xs)
    except (ArithmeticError, ValueError):  # no values, past the float range, or inf + -inf
        return math.nan, math.nan
    try:
        return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in xs) / (len(xs) - 1))
    except (ArithmeticError, ValueError):  # one value, or past the float range
        return mean, math.nan


def _versus(values, base_values, higher_is_better: bool) -> tuple:
    """``values`` against the baseline's, NaNs dropped:
    (mean, std, improvement %, Welch t, p, stars), NaN or '' where undefined."""
    xs = [float(v) for v in values if not math.isnan(v)]
    base = [float(v) for v in base_values if not math.isnan(v)]
    mean, std = _mean_std(xs)
    base_mean, _ = _mean_std(base)
    if math.isnan(mean) or math.isnan(base_mean) or base_mean == 0.0:
        improvement = math.nan
    else:
        gain = mean - base_mean if higher_is_better else base_mean - mean
        improvement = gain / base_mean * 100.0
    try:
        res = welch_t_test(xs, base)
    except (ArithmeticError, ValueError):  # fewer than 2 values a side, or past the float range
        return mean, std, improvement, math.nan, math.nan, ""
    return mean, std, improvement, res.t, res.p, significance_stars(res.p)


def build_report(trials: list[TrialResult], baseline: str = "adam") -> ComparisonReport:
    """Group trials per cell and compare every cell against the same-architecture
    baseline cell with Welch's t-test.  Diverged trials count toward
    ``n_diverged`` and are excluded from every statistic."""
    if not trials:
        raise ConfigError("no trials to report on")
    by_cell: dict[tuple[str, str], list[TrialResult]] = {}
    for tr in trials:
        by_cell.setdefault((tr.architecture, tr.optimizer), []).append(tr)

    metric_name = trials[0].metric_name
    higher_is_better = metric_name == METRIC_ACCURACY
    report = ComparisonReport(baseline=baseline, metric_name=metric_name,
                              higher_is_better=higher_is_better)

    architectures = sorted({arch for arch, _ in by_cell})
    for arch in architectures:
        if (arch, baseline) not in by_cell:
            raise ConfigError(
                f"baseline optimizer {baseline!r} has no trials for architecture {arch}"
            )

    for (arch, opt), rows in sorted(by_cell.items()):
        valid = [r for r in rows if r.stop_reason != STOP_DIVERGED]
        base = [r for r in by_cell[(arch, baseline)] if r.stop_reason != STOP_DIVERGED]
        report.cells.append(CellStats(
            f"{arch}|{opt}", arch, opt, len(rows), len(rows) - len(valid),
            *_versus([r.metric for r in valid], [r.metric for r in base], higher_is_better),
            *_mean_std([r.epochs_run for r in valid]),
            *_versus([r.wall_time_s for r in valid], [r.wall_time_s for r in base], False),
        ))
    return report


def format_report_table(report: ComparisonReport) -> str:
    """Plain-text summary table; one row per grid cell."""
    direction = "higher is better" if report.higher_is_better else "lower is better"
    lines = [
        f"Comparison vs '{report.baseline}' per architecture "
        f"(Welch's unequal-variance t-test, two-sided).",
        f"Metric: {report.metric_name} ({direction}). "
        "Stars: *** p<0.001, ** p<0.01, * p<0.05.",
        "",
    ]
    header = (f"{'cell':<34} {'n':>3} {'div':>3}  {report.metric_name + ' mean±std':>22} "
              f"{'impr%':>8} {'p':>10} {'sig':<3}  {'epochs':>14} {'time[s]':>14}")
    lines.append(header)
    lines.append("-" * len(header))
    for c in report.cells:
        metric = f"{c.metric_mean:.6f}±{c.metric_std:.6f}" if not math.isnan(c.metric_mean) else "-"
        impr = f"{c.metric_improvement_pct:+.2f}" if not math.isnan(c.metric_improvement_pct) else "-"
        p = f"{c.metric_p:.4g}" if not math.isnan(c.metric_p) else "-"
        epochs = f"{c.epochs_mean:.2f}±{c.epochs_std:.2f}" if not math.isnan(c.epochs_mean) else "-"
        wall = f"{c.time_mean:.2f}±{c.time_std:.2f}" if not math.isnan(c.time_mean) else "-"
        lines.append(f"{c.cell:<34} {c.n_trials:>3} {c.n_diverged:>3}  {metric:>22} "
                     f"{impr:>8} {p:>10} {c.metric_stars:<3}  {epochs:>14} {wall:>14}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# persistence


def finite_or_none(value):
    """``value``, or None in its place when it is a non-finite float: the one
    rule by which NaN and ±inf reach a JSON file as null and a CSV as ''."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _row(record, columns) -> dict:
    return {key: finite_or_none(getattr(record, key)) for key in columns}


# The columns of a trials.json and a timings.json row, with the JSON kinds a
# loader accepts; a float column reads null back as NaN.
_FLOAT = NUMBER + (type(None),)
_TRIAL_ROW = {"cell": STR, "architecture": STR, "optimizer": STR, "seed": INT,
              "metric": _FLOAT, "epochs_run": INT, "stop_reason": STR}
_TIMING_ROW = {"cell": STR, "seed": INT, "wall_time_s": _FLOAT}


def save_trials(trials: list[TrialResult], path) -> None:
    """Deterministic trial record: no wall-clock fields, stable ordering."""
    write_json(path, {
        "version": TRIALS_VERSION,
        "metric": trials[0].metric_name if trials else METRIC_RMSE,
        "results": [_row(t, _TRIAL_ROW) for t in sorted(trials, key=_TRIAL_ORDER)],
    })


def save_timings(trials: list[TrialResult], path) -> None:
    """Wall-clock sidecar, same row order as the trial record."""
    write_json(path, {"results": [_row(t, _TIMING_ROW) for t in sorted(trials, key=_TRIAL_ORDER)]})


@contextmanager
def building(what: str):
    """A MemoryError while building ``what`` is a ConfigError naming it."""
    try:
        yield
    except MemoryError as exc:
        raise ConfigError(f"{what} does not fit in memory") from exc


def _result_rows(payload, path, columns: dict) -> list[dict]:
    """``payload["results"]``, each row checked to hold ``columns`` of their
    kinds and cut to them, with every float column as a float."""
    rows = checked(checked(payload, (dict,), f"{path}: top level").get("results"),
                    LIST, f"{path}: results")
    out = []
    for row in rows:
        missing = columns.keys() - checked(row, (dict,), f"{path}: result row").keys()
        if missing:
            raise ConfigError(f"{path}: result row lacks {sorted(missing)}")
        for key, kinds in columns.items():
            checked(row[key], kinds, f"{path}: {key}")
        out.append({key: (math.nan if row[key] is None else number(row[key], key))
                    if kinds is _FLOAT else row[key] for key, kinds in columns.items()})
    return out


def load_trials(path, timings_path=None) -> list[TrialResult]:
    """Read a trials.json, with wall times from ``timings_path`` when that
    file exists.  A missing or malformed file is a ConfigError, and so is a
    file ``save_trials`` does not write: an unknown metric, a repeated
    ``(cell, seed)``, a cell that is not ``<architecture>|<optimizer>``, a
    negative ``epochs_run``, an unknown ``stop_reason``, or a null metric
    on a trial that did not diverge or a finite one on a trial that did."""
    payload = read_json(path, "trials file")
    rows = _result_rows(payload, path, _TRIAL_ROW)
    if payload.get("version") != TRIALS_VERSION:
        raise ConfigError(f"{path}: unsupported trials version {payload.get('version')!r}")
    if not rows:
        raise ConfigError(f"{path} holds no trials")
    metric_name = checked(payload.get("metric", METRIC_RMSE), STR, f"{path}: metric")
    if metric_name not in (METRIC_RMSE, METRIC_ACCURACY):
        raise ConfigError(f"{path}: unknown metric {metric_name!r}")
    seen = set()
    for i, row in enumerate(rows):
        where = f"{path}: result row {i} (cell {row['cell']!r}, seed {row['seed']})"
        if (row["cell"], row["seed"]) in seen:
            raise ConfigError(f"{where} repeats an earlier row's cell and seed")
        seen.add((row["cell"], row["seed"]))
        if row["cell"] != f"{row['architecture']}|{row['optimizer']}":
            raise ConfigError(f"{where}: the cell is not '<architecture>|<optimizer>'")
        if row["epochs_run"] < 0:
            raise ConfigError(f"{where}: negative epochs_run {row['epochs_run']}")
        if row["stop_reason"] not in (STOP_EARLY, STOP_MAX_EPOCHS, STOP_DIVERGED):
            raise ConfigError(f"{where}: unknown stop_reason {row['stop_reason']!r}")
        if math.isnan(row["metric"]) != (row["stop_reason"] == STOP_DIVERGED):
            raise ConfigError(f"{where}: stop_reason {row['stop_reason']!r} with "
                              f"{'a null' if math.isnan(row['metric']) else 'a finite'} "
                              "metric; only a diverged trial has a null metric")
    timings = {}
    if timings_path is not None and os.path.exists(timings_path):
        timings = {(row["cell"], row["seed"]): row["wall_time_s"] for row in _result_rows(
            read_json(timings_path, "timings file"), timings_path, _TIMING_ROW)}
    return sorted((TrialResult(**row, metric_name=metric_name,
                               wall_time_s=timings.get((row["cell"], row["seed"]), math.nan))
                   for row in rows), key=_TRIAL_ORDER)


_REPORT_COLUMNS = [f.name for f in fields(CellStats)][1:]


def save_report(report: ComparisonReport, json_path=None, csv_path=None) -> None:
    """Write the report as JSON and/or CSV; a non-finite value becomes null or ''."""
    rows = [_row(c, _REPORT_COLUMNS) for c in report.cells]
    if json_path is not None:
        payload = {
            "method": report.method,
            "baseline": report.baseline,
            "metric": report.metric_name,
            "higher_is_better": report.higher_is_better,
            "cells": rows,
        }
        write_json(json_path, payload)
    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, _REPORT_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
