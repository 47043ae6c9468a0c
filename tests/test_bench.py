"""Benchmark grid, report statistics, persistence, and config parsing."""

import ctypes
import functools
import glob
import inspect
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from caadam import bench, cores
from caadam.bench import (
    ExperimentConfig,
    OptimizerEntry,
    TrialResult,
    arch_label,
    build_report,
    default_label,
    experiment_from_dict,
    load_dataset,
    load_trials,
    network_spec_for,
    optimizer_entry_from_dict,
    run_experiment,
    run_trial,
    save_timings,
    save_trials,
    trial_setup,
    _worker_init,
)
from caadam.data import (
    DEFAULT_SPLIT,
    Dataset,
    benchmark_regression,
    synth_classification,
    synth_regression,
)
from caadam.errors import ConfigError, DataError
from caadam.nn import CLASSIFICATION, REGRESSION
from caadam.optim import ALGORITHMS, OptimizerConfig, optimizer_class
from caadam.scaling import ScalingStrategy
from caadam.train import STOP_DIVERGED, STOP_EARLY, STOP_MAX_EPOCHS, TrainConfig
from test_cli import SMALL_CONFIG

ADAM = OptimizerEntry("adam", OptimizerConfig("adam"))
CAADAM_MULT = OptimizerEntry(
    "caadam-multiplicative",
    OptimizerConfig("caadam", scaling=ScalingStrategy("multiplicative")),
)

FAST_TRAIN = TrainConfig(batch_size=32, max_epochs=3)


def tiny_config(**overrides):
    kwargs = dict(
        dataset={"kind": "synth_regression", "n": 120, "m": 3,
                 "noise_std": 0.2, "seed": 5},
        architectures=((4,),),
        optimizers=(ADAM, CAADAM_MULT),
        train=FAST_TRAIN,
        trials=3,
        base_seed=100,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_run_experiment_grid_shape_and_order():
    results = run_experiment(tiny_config())
    assert len(results) == 6  # 1 arch x 2 optimizers x 3 trials
    keys = [(r.cell, r.seed) for r in results]
    assert keys == sorted(keys)
    assert {r.cell for r in results} == {"4|adam", "4|caadam-multiplicative"}
    assert {r.seed for r in results} == {100, 101, 102}
    for r in results:
        assert r.metric_name == "rmse"
        assert r.epochs_run == 3
        assert math.isfinite(r.metric)
        assert r.wall_time_s > 0.0


def test_run_experiment_is_deterministic_modulo_wall_time(tmp_path):
    cfg = tiny_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    save_trials(a, path_a)
    save_trials(b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_run_experiment_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(bench, "POOL_MIN_WORK", 0)  # a tiny grid runs in-process
    cfg = tiny_config()
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    assert len(serial) == len(parallel)
    for s, p in zip(serial, parallel):
        assert (s.cell, s.seed, s.metric, s.epochs_run, s.stop_reason) == \
            (p.cell, p.seed, p.metric, p.epochs_run, p.stop_reason)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture
def serial_pool(monkeypatch):
    """``_SerialPool`` in place of ProcessPoolExecutor.  Its worker starts in
    this process, so the worker's share of the cores is undone after the
    test, and OPENBLAS_NUM_THREADS keeps the worker from setting this
    process's BLAS threads for every later test."""
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cores, "_worker_share", None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    _SerialPool.sizes = []


def test_run_experiment_pool_has_at_most_one_worker_per_trial(monkeypatch, serial_pool):
    monkeypatch.setattr(bench, "POOL_MIN_WORK", 0)
    cfg = tiny_config()
    pooled, serial = run_experiment(cfg, workers=10**6), run_experiment(cfg)
    assert _SerialPool.sizes == [6]  # 1 arch x 2 optimizers x 3 trials
    assert [replace(r, wall_time_s=0.0) for r in pooled] == \
        [replace(r, wall_time_s=0.0) for r in serial]


# grid-zoo's grid (perfbench/workloads.py) at grid seed 7000
GRID_ZOO = {
    "dataset": {"kind": "synth_classification", "n": 3000, "m": 16, "classes": 6,
                "spread": 2.0, "seed": 7000},
    "architectures": [[32], [64, 32]],
    "optimizers": [{"algorithm": a} for a in ALGORITHMS if a != "caadam"]
    + [{"algorithm": "caadam", "scaling": kind}
       for kind in ("additive", "multiplicative", "depth_based")],
    "train": {"max_epochs": 40, "early_stop_patience": 40},
    "trials": 2,
    "base_seed": 7000,
}


# SMALL_CONFIG is the grid of test_benchmark_writes_all_outputs
@pytest.mark.parametrize("payload, pooled", [(GRID_ZOO, True), (SMALL_CONFIG, False)],
                         ids=["grid-zoo", "small"])
def test_run_experiment_starts_a_pool_only_for_a_grid_worth_one(monkeypatch, serial_pool,
                                                               payload, pooled):
    cfg = experiment_from_dict(payload)
    dataset = load_dataset(cfg.dataset)
    # every trial is stubbed out: the choice of a pool depends on the grid alone
    monkeypatch.setattr(bench, "_worker_run",
                        lambda task, args=None: mk("adam", task[2], 1.0, arch=arch_label(task[0])))
    assert (bench.grid_work(cfg, dataset) >= bench.POOL_MIN_WORK) == pooled
    assert len(run_experiment(cfg, dataset, workers=2)) == (44 if pooled else 4)
    assert _SerialPool.sizes == ([2] if pooled else [])


def _openblas_get_threads():
    """``scipy_openblas_get_num_threads64_`` of the OpenBLAS that NumPy
    bundles, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


def _worker_blas_threads():
    return _openblas_get_threads()()


@pytest.mark.skipif(_openblas_get_threads() is None, reason="NumPy bundles no scipy-openblas")
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pool_worker_gets_its_share_of_the_cores_as_blas_threads(monkeypatch, workers):
    from concurrent.futures import ProcessPoolExecutor

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with ProcessPoolExecutor(1, initializer=_worker_init, initargs=(workers,)) as pool:
        threads = pool.submit(_worker_blas_threads).result()
    assert threads == max(1, len(os.sched_getaffinity(0)) // workers)


def test_pool_worker_keeps_an_explicit_blas_thread_setting(monkeypatch):
    monkeypatch.setattr(cores, "_worker_share", None)  # the worker starts in this process
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(ctypes, "CDLL", None)  # any attempt to load the library fails
    _worker_init(10**6)


def test_importing_caadam_leaves_the_process_pool_unloaded():
    import caadam

    src = os.path.dirname(os.path.dirname(caadam.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import caadam; "
            "print('concurrent.futures.process' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"


def test_run_experiment_writes_per_trial_logs(tmp_path):
    log_dir = tmp_path / "logs"
    run_experiment(tiny_config(trials=2), log_dir=str(log_dir))
    files = sorted(p.relative_to(log_dir).as_posix() for p in log_dir.rglob("*.csv"))
    assert files == [
        "4__adam/trial_100.csv",
        "4__adam/trial_101.csv",
        "4__caadam-multiplicative/trial_100.csv",
        "4__caadam-multiplicative/trial_101.csv",
    ]


def test_run_experiment_progress_callback():
    seen = []
    run_experiment(tiny_config(trials=2), progress=seen.append)
    assert len(seen) == 4
    assert all(isinstance(r, TrialResult) for r in seen)


def test_trial_setup_same_seed_shares_split_and_weights():
    ds = synth_regression(n=120, m=3, seed=5)
    split_a, net_a, shuffle_a = trial_setup(ds, (4,), DEFAULT_SPLIT, 77)
    split_b, net_b, shuffle_b = trial_setup(ds, (4,), DEFAULT_SPLIT, 77)
    assert shuffle_a == shuffle_b
    assert_array_equal(split_a.train.features, split_b.train.features)
    assert_array_equal(split_a.test.targets, split_b.test.targets)
    for (wa, ba), (wb, bb) in zip(net_a.layers, net_b.layers):
        assert_array_equal(wa, wb)
        assert_array_equal(ba, bb)
    # different trial seed, different everything
    split_c, net_c, shuffle_c = trial_setup(ds, (4,), DEFAULT_SPLIT, 78)
    assert shuffle_c != shuffle_a
    assert not np.array_equal(net_a.layers[0][0], net_c.layers[0][0])


def test_run_trial_divergence_yields_nan_metric():
    ds = synth_regression(n=120, m=3, seed=5)
    wild = TrainConfig(batch_size=32, max_epochs=3, initial_lr=1e200)
    sgd = OptimizerEntry("sgd", OptimizerConfig("sgd"))
    res = run_trial(ds, (4,), sgd, wild, DEFAULT_SPLIT, 7)
    assert res.stop_reason == STOP_DIVERGED
    assert math.isnan(res.metric)


def test_network_spec_for_both_tasks():
    reg = synth_regression(n=30, m=6, seed=0)
    spec = network_spec_for(reg, (16, 8))
    assert (spec.input_dim, spec.hidden_sizes, spec.output_dim) == (6, (16, 8), 1)
    assert spec.output_head == REGRESSION

    from caadam.data import synth_classification
    cls = synth_classification(n=30, m=4, classes=5, seed=0)
    spec = network_spec_for(cls, (8,))
    assert (spec.input_dim, spec.output_dim) == (4, 5)
    assert spec.output_head == CLASSIFICATION


# ---------------------------------------------------------------------------
# report statistics (hand-built trial lists, no training involved)


def mk(cell_opt, seed, metric, epochs=10, arch="4", stop="early_stop"):
    return TrialResult(
        cell=f"{arch}|{cell_opt}", architecture=arch, optimizer=cell_opt,
        seed=seed, metric=metric, metric_name="rmse", epochs_run=epochs,
        wall_time_s=1.0 + seed / 10.0, stop_reason=stop,
    )


def test_build_report_baseline_cell_is_neutral():
    trials = [mk("adam", s, m) for s, m in enumerate([1.0, 1.1, 0.9])]
    report = build_report(trials)
    (cell,) = report.cells
    assert cell.optimizer == "adam"
    assert cell.metric_mean == pytest.approx(1.0)
    assert cell.metric_t == 0.0
    assert cell.metric_p == 1.0
    assert cell.metric_improvement_pct == 0.0
    assert cell.metric_stars == ""


def test_build_report_improvement_direction_lower_is_better():
    trials = (
        [mk("adam", s, m) for s, m in enumerate([1.0, 1.1])]
        + [mk("fast", s, m) for s, m in enumerate([0.8, 0.9])]
    )
    report = build_report(trials)
    assert not report.higher_is_better
    by_opt = {c.optimizer: c for c in report.cells}
    fast = by_opt["fast"]
    # (1.05 - 0.85) / 1.05 * 100
    assert fast.metric_improvement_pct == pytest.approx(200.0 / 10.5)
    assert fast.metric_t < 0.0  # lower mean -> negative t against baseline


def test_build_report_improvement_direction_higher_is_better():
    def mk_acc(opt, seed, acc):
        r = mk(opt, seed, acc)
        return TrialResult(**{**r.__dict__, "metric_name": "accuracy"})

    trials = (
        [mk_acc("adam", s, a) for s, a in enumerate([0.80, 0.82])]
        + [mk_acc("better", s, a) for s, a in enumerate([0.90, 0.92])]
    )
    report = build_report(trials)
    assert report.higher_is_better
    by_opt = {c.optimizer: c for c in report.cells}
    assert by_opt["better"].metric_improvement_pct == pytest.approx(
        (0.91 - 0.81) / 0.81 * 100.0)


def test_build_report_excludes_diverged_trials():
    trials = (
        [mk("adam", s, m) for s, m in enumerate([1.0, 1.2, 1.1])]
        + [mk("flaky", 0, 0.9), mk("flaky", 1, 1.0),
           mk("flaky", 2, math.nan, stop=STOP_DIVERGED)]
    )
    report = build_report(trials)
    flaky = {c.optimizer: c for c in report.cells}["flaky"]
    assert flaky.n_trials == 3
    assert flaky.n_diverged == 1
    assert flaky.metric_mean == pytest.approx(0.95)  # nan row excluded
    assert flaky.epochs_mean == pytest.approx(10.0)


def test_build_report_missing_baseline_rejected():
    trials = [mk("rmsprop", s, 1.0) for s in range(3)]
    with pytest.raises(ConfigError, match="baseline optimizer 'adam'"):
        build_report(trials)
    report = build_report(trials, baseline="rmsprop")
    assert report.baseline == "rmsprop"


def test_build_report_compares_within_architecture():
    trials = (
        [mk("adam", s, 1.0 + s / 10.0, arch="4") for s in range(2)]
        + [mk("adam", s, 2.0 + s / 10.0, arch="8x4") for s in range(2)]
        + [mk("sgd", s, 0.9 + s / 10.0, arch="8x4") for s in range(2)]
    )
    report = build_report(trials)
    sgd = next(c for c in report.cells if c.optimizer == "sgd")
    # compared against the 8x4 adam cell (mean 2.05), not the 4 cell
    assert sgd.metric_improvement_pct == pytest.approx((2.05 - 0.95) / 2.05 * 100.0)


def test_build_report_empty_rejected():
    with pytest.raises(ConfigError, match="no trials"):
        build_report([])


# ---------------------------------------------------------------------------
# persistence


def test_save_load_trials_roundtrip_with_nan(tmp_path):
    trials = [
        mk("adam", 0, 1.0),
        mk("adam", 1, math.nan, stop=STOP_DIVERGED),
    ]
    path = tmp_path / "trials.json"
    save_trials(trials, path)
    payload = json.loads(path.read_text())
    metrics = [row["metric"] for row in payload["results"]]
    assert metrics == [1.0, None]  # NaN must become null, not the string "NaN"

    back = load_trials(path)
    assert back[0].metric == 1.0
    assert math.isnan(back[1].metric)
    assert back[1].stop_reason == STOP_DIVERGED
    assert [t.seed for t in back] == [0, 1]
    # wall times are not part of the deterministic record
    assert all(math.isnan(t.wall_time_s) for t in back)


def test_load_trials_reads_timings_sidecar(tmp_path):
    trials = [mk("adam", 0, 1.0), mk("adam", 1, 1.1),
              replace(mk("adam", 2, 1.2), wall_time_s=math.nan)]
    save_trials(trials, tmp_path / "trials.json")
    save_timings(trials, tmp_path / "timings.json")
    rows = json.loads((tmp_path / "timings.json").read_text())["results"]
    assert rows[2]["wall_time_s"] is None  # null, not the non-JSON token NaN
    back = load_trials(tmp_path / "trials.json",
                       timings_path=tmp_path / "timings.json")
    assert [t.wall_time_s for t in back[:2]] == [1.0, 1.1]
    assert math.isnan(back[2].wall_time_s)


def test_load_trials_version_check(tmp_path):
    trials = [mk("adam", 0, 1.0)]
    path = tmp_path / "trials.json"
    save_trials(trials, path)
    payload = json.loads(path.read_text())
    payload["version"] = 42
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="version"):
        load_trials(path)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda p: p["results"].append(dict(p["results"][0])),
                 r"row 2 \(cell '4\|adam', seed 0\) repeats an earlier row's cell and seed",
                 id="repeated-cell-and-seed"),
    pytest.param(lambda p: p["results"][0].update(cell="4|sgd"),
                 r"row 0 \(cell '4\|sgd', seed 0\): the cell is not '<architecture>\|<optimizer>'",
                 id="cell-not-architecture-and-optimizer"),
    pytest.param(lambda p: p["results"][1].update(epochs_run=-30),
                 r"row 1 \(cell '4\|adam', seed 1\): negative epochs_run -30",
                 id="negative-epochs"),
    pytest.param(lambda p: p["results"][0].update(stop_reason="finished"),
                 r"row 0 \(cell '4\|adam', seed 0\): unknown stop_reason 'finished'",
                 id="unknown-stop-reason"),
    pytest.param(lambda p: p.update(metric="accuracy!"), "unknown metric 'accuracy!'",
                 id="unknown-metric"),
    pytest.param(lambda p: p["results"][1].update(metric=None),
                 r"row 1 \(cell '4\|adam', seed 1\): stop_reason 'early_stop' with a null "
                 "metric; only a diverged trial has a null metric",
                 id="null-metric-not-diverged"),
    pytest.param(lambda p: p["results"][0].update(stop_reason="diverged"),
                 r"row 0 \(cell '4\|adam', seed 0\): stop_reason 'diverged' with a finite "
                 "metric; only a diverged trial has a null metric",
                 id="finite-metric-diverged"),
])
def test_load_trials_refuses_what_save_trials_never_writes(tmp_path, edit, message):
    path = tmp_path / "trials.json"
    save_trials([mk("adam", 0, 1.0), mk("adam", 1, 1.1)], path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=message) as info:
        load_trials(path)
    assert str(info.value).startswith(f"{path}: ")


def test_save_report_json_and_csv(tmp_path):
    trials = (
        [mk("adam", s, m) for s, m in enumerate([1.0, 1.1, 0.9])]
        + [mk("sgd", s, m) for s, m in enumerate([1.4, 1.5, 1.3])]
    )
    report = build_report(trials)
    from caadam.bench import save_report

    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    save_report(report, json_path, csv_path)

    payload = json.loads(json_path.read_text())
    assert payload["baseline"] == "adam"
    assert payload["method"] == "welch_t_test"
    assert len(payload["cells"]) == 2
    assert {c["optimizer"] for c in payload["cells"]} == {"adam", "sgd"}

    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("architecture,optimizer,n_trials")
    assert len(csv_path.read_text().splitlines()) == 3


# ---------------------------------------------------------------------------
# config parsing


def test_optimizer_entry_from_dict_scaling_rules():
    entry = optimizer_entry_from_dict(
        {"algorithm": "caadam", "scaling": "multiplicative", "gamma": 0.9,
         "sigma": "unsigned"})
    assert entry.label == "caadam-multiplicative"
    assert entry.config.scaling.gamma == 0.9
    assert entry.config.scaling.multiplicative_sigma == "unsigned"

    with pytest.raises(ConfigError, match="caadam needs a 'scaling'"):
        optimizer_entry_from_dict({"algorithm": "caadam"})
    with pytest.raises(ConfigError, match="only valid for caadam"):
        optimizer_entry_from_dict({"algorithm": "adam", "scaling": "depth"})
    with pytest.raises(ConfigError, match="only valid together"):
        optimizer_entry_from_dict({"algorithm": "adam", "gamma": 0.9})
    with pytest.raises(ConfigError, match="unknown optimizer config keys"):
        optimizer_entry_from_dict({"algorithm": "adam", "momentum": 0.9})
    with pytest.raises(ConfigError, match="needs an 'algorithm'"):
        optimizer_entry_from_dict({"beta1": 0.1})


_HYPER_PARAMETERS = [f.name for f in fields(OptimizerConfig) if isinstance(f.default, float)]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("key", _HYPER_PARAMETERS)
def test_optimizer_takes_exactly_the_hyper_parameters_it_reads(algorithm, key):
    spec = {"algorithm": algorithm, key: 0.5}
    if algorithm == "caadam":
        spec["scaling"] = "depth"
    if key in optimizer_class(algorithm).reads:
        assert getattr(optimizer_entry_from_dict(spec).config, key) == 0.5
        return
    with pytest.raises(ConfigError, match=rf"{algorithm} does not read \['{key}'\]"):
        OptimizerConfig(algorithm, **{key: 0.5})
    with pytest.raises(ConfigError, match=rf"keys for {algorithm}: \['{key}'\]"):
        optimizer_entry_from_dict(spec)


def test_default_labels():
    assert default_label(OptimizerConfig("nadam")) == "nadam"
    assert default_label(
        OptimizerConfig("caadam", scaling=ScalingStrategy("depth_based"))
    ) == "caadam-depth"
    assert arch_label((64, 32)) == "64x32"
    assert arch_label((10,)) == "10"


def test_experiment_from_dict_full():
    cfg = experiment_from_dict({
        "dataset": {"kind": "synth_regression", "n": 100, "m": 3},
        "architectures": [[8, 4], [4]],
        "optimizers": [
            {"algorithm": "adam"},
            {"algorithm": "caadam", "scaling": "additive", "label": "ca-add"},
        ],
        "train": {"batch_size": 16, "max_epochs": 2},
        "trials": 4,
        "base_seed": 9,
        "split": [0.5, 0.25, 0.25],
    })
    assert cfg.architectures == ((8, 4), (4,))
    assert [e.label for e in cfg.optimizers] == ["adam", "ca-add"]
    assert cfg.train.batch_size == 16
    assert cfg.trials == 4
    assert cfg.base_seed == 9
    assert cfg.split == (0.5, 0.25, 0.25)


def test_experiment_from_dict_rejects_unknowns_and_bad_shapes():
    base = {
        "dataset": {"kind": "synth_regression"},
        "architectures": [[4]],
        "optimizers": [{"algorithm": "adam"}],
    }
    with pytest.raises(ConfigError, match="unknown experiment config keys"):
        experiment_from_dict({**base, "epochs": 10})
    with pytest.raises(ConfigError, match="unknown train config keys"):
        experiment_from_dict({**base, "train": {"lr": 0.1}})
    with pytest.raises(ConfigError, match="needs 'dataset'"):
        experiment_from_dict({k: v for k, v in base.items() if k != "dataset"})
    with pytest.raises(ConfigError, match="split must have 3"):
        experiment_from_dict({**base, "split": [0.8, 0.2]})
    with pytest.raises(ConfigError, match="must be a mapping"):
        experiment_from_dict([base])


# JSON-like values, including the ones a parser must turn away: bools where
# numbers go, integers past the float range, NaN/inf, and nested containers.
_EDGE = st.sampled_from([None, True, 10 ** 400, -10 ** 400, math.nan, -math.inf, "1"])
_JSONISH = st.recursive(
    _EDGE | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("kind", ["additive", "depth_based"])
def test_optimizer_entry_rejects_unsigned_sigma_without_multiplicative_scaling(kind):
    # only the multiplicative rule reads sigma; elsewhere the key would do nothing
    with pytest.raises(ConfigError, match="only valid for multiplicative"):
        optimizer_entry_from_dict({"algorithm": "caadam", "scaling": kind, "sigma": "unsigned"})


# (where, key) -> plausible values; "entry" is the second optimizer entry.
_PLAUSIBLE = {
    ("experiment", "dataset"): [{}], ("experiment", "architectures"): [[[4, 2]], [[0]], []],
    ("experiment", "optimizers"): [[]], ("experiment", "trials"): [3, 1],
    ("experiment", "base_seed"): [7], ("experiment", "split"): [[0.6, 0.2, 0.2], [0.5]],
    ("train", "batch_size"): [1, 0], ("train", "max_epochs"): [3],
    ("train", "early_stop_patience"): [2], ("train", "early_stop_min_delta"): [-1.0],
    ("train", "lr_reduce_factor"): [0.5, 1.0], ("train", "lr_reduce_patience"): [6],
    ("train", "min_lr"): [2.5e-5, 1.0], ("train", "initial_lr"): [1e-2],
    ("entry", "algorithm"): ["adam", "sgd", "nope"], ("entry", "label"): ["adam", "b|c", ""],
    ("entry", "learning_rate"): [0.1], ("entry", "beta1"): [0.5, 1.0],
    ("entry", "beta2"): [0.999], ("entry", "eps"): [1e-8, 0.0], ("entry", "decay"): [1.5],
    ("entry", "weight_decay"): [0.0], ("entry", "scaling"): ["additive", "depth", "x"],
    ("entry", "gamma"): [0.5, -2.0], ("entry", "sigma"): ["signed", "unsigned"],
}
# _EDGE once more on its own, so the values most likely to break a parser come often.
_MUTATION = st.sampled_from(sorted(_PLAUSIBLE)).flatmap(
    lambda where_key: st.tuples(st.just(where_key),
                                _EDGE | _JSONISH | st.sampled_from(_PLAUSIBLE[where_key])))


def _mutated_config(mutations):
    payload = {
        "dataset": {"kind": "synth_regression"}, "architectures": [[4]], "train": {},
        "optimizers": [{"algorithm": "adam"},
                       {"algorithm": "caadam", "scaling": "multiplicative"}],
    }
    places = {"experiment": payload, "train": payload["train"],
              "entry": payload["optimizers"][1]}
    for (where, key), value in mutations:
        places[where][key] = value
    return payload


_EXPERIMENT = st.lists(_MUTATION, min_size=1, max_size=3).map(_mutated_config)


# Parsing only: a fuzzed size never reaches a dataset, network or grid.
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_EXPERIMENT)
@example(_mutated_config([(("entry", "beta1"), 10 ** 400)]))
@example(_mutated_config([(("train", "early_stop_min_delta"), -10 ** 400)]))
def test_experiment_from_dict_accepts_or_raises_config_error(payload):
    try:
        cfg = experiment_from_dict(payload)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_experiment_config_validation():
    with pytest.raises(ConfigError, match="trials must be >= 2"):
        tiny_config(trials=1)
    with pytest.raises(ConfigError, match="at least one architecture"):
        tiny_config(architectures=())
    with pytest.raises(ConfigError, match="positive sizes"):
        tiny_config(architectures=((0,),))
    with pytest.raises(ConfigError, match="at least one optimizer"):
        tiny_config(optimizers=())
    with pytest.raises(ConfigError, match="duplicate optimizer labels"):
        tiny_config(optimizers=(ADAM, ADAM))
    with pytest.raises(ConfigError, match="bad optimizer label"):
        OptimizerEntry("a|b", OptimizerConfig("adam"))
    with pytest.raises(ConfigError, match="split must have 3 fractions"):
        tiny_config(split=(0.5, 0.5))


_SMALL_DATA = dict(n=120, m=3, seed=1)

# Every float field of the trial configs and the synthetic generators: the
# object built from one value of it, and the field's documented range as
# (low, high, brackets), where "[)" reads low <= value < high.
_FLOAT_FIELDS = {
    "early_stop_min_delta": (lambda v: TrainConfig(early_stop_min_delta=v), 0.0, math.inf, "[)"),
    "lr_reduce_factor": (lambda v: TrainConfig(lr_reduce_factor=v), 0.0, 1.0, "()"),
    # min_lr <= initial_lr, each against the other's default
    "min_lr": (lambda v: TrainConfig(min_lr=v), 0.0, 1e-3, "(]"),
    "initial_lr": (lambda v: TrainConfig(initial_lr=v), 2.5e-5, math.inf, "[)"),
    "beta1": (lambda v: OptimizerConfig("adam", beta1=v), 0.0, 1.0, "[)"),
    "beta2": (lambda v: OptimizerConfig("adam", beta2=v), 0.0, 1.0, "[)"),
    "eps": (lambda v: OptimizerConfig("adam", eps=v), 0.0, math.inf, "()"),
    "decay": (lambda v: OptimizerConfig("adadelta", decay=v), 0.0, 1.0, "()"),
    "weight_decay": (lambda v: OptimizerConfig("adamw", weight_decay=v), 0.0, math.inf, "[)"),
    # from the smallest normal float: a subnormal gamma's 1/gamma overflows
    **{f"{kind} gamma": (lambda v, kind=kind: OptimizerConfig(
        "caadam", scaling=ScalingStrategy(kind, gamma=v)), sys.float_info.min, 1.0, "[)")
       for kind in ("additive", "multiplicative")},
    "depth gamma": (lambda v: OptimizerConfig("caadam", scaling=ScalingStrategy("depth", gamma=v)),
                    -1.0, math.inf, "()"),
    # A noise_std or scale near the float range overflows the targets, and a
    # spread there the features, which Dataset refuses; a spread past ~1e154
    # overflows its train-split spread, which split_standardize refuses.  Past
    # each high end below the test draws only 1e308, which Dataset refuses.
    "noise_std": (lambda v: synth_regression(**_SMALL_DATA, noise_std=v), 0.0, 1e300, "[]"),
    "scale": (lambda v: synth_regression(**_SMALL_DATA, scale=v), 0.0, 1e300, "(]"),
    "spread": (lambda v: synth_classification(**_SMALL_DATA, spread=v), 0.0, 1e150, "[]"),
}
# 1e-4 lies in every range above.
_SPECIAL_VALUES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, 1e-4)


def _inside(value, low, high, brackets) -> bool:
    above = low <= value if brackets[0] == "[" else low < value
    return above and (value <= high if brackets[1] == "]" else value < high)


def _floats_inside(low, high, brackets):
    return st.floats(low, high, exclude_min=brackets[0] == "(", exclude_max=brackets[1] == ")")


_FIELD_VALUE = st.sampled_from(sorted(_FLOAT_FIELDS)).flatmap(lambda name: st.tuples(
    st.just(name), st.sampled_from(_SPECIAL_VALUES) | _floats_inside(*_FLOAT_FIELDS[name][1:])))


def _with_every_special_value(test):
    """Every field with every special value, as explicit examples."""
    for name in _FLOAT_FIELDS:
        for value in _SPECIAL_VALUES:
            test = example((name, value))(test)
    return test


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # 1e308 overflows on purpose
@settings(max_examples=60, deadline=None, database=None)
@given(_FIELD_VALUE)
@_with_every_special_value
def test_float_field_is_refused_exactly_outside_its_range_and_trains_inside(case):
    name, value = case
    build, *documented = _FLOAT_FIELDS[name]
    try:
        built = build(value)
    except (ConfigError, DataError):
        assert not _inside(value, *documented), f"{name}={value} is in range but refused"
        return
    assert _inside(value, *documented), f"{name}={value} is out of range but accepted"
    dataset = built if isinstance(built, Dataset) else synth_regression(**_SMALL_DATA)
    optimizer = built if isinstance(built, OptimizerConfig) else OptimizerConfig("adam")
    train_cfg = built if isinstance(built, TrainConfig) else TrainConfig()
    result = run_trial(dataset, (4,), OptimizerEntry("x", optimizer),
                       replace(train_cfg, batch_size=32, max_epochs=2), DEFAULT_SPLIT, 0)
    assert result.stop_reason in (STOP_EARLY, STOP_MAX_EPOCHS, STOP_DIVERGED)


def test_load_dataset_kinds_and_errors():
    ds = load_dataset({"kind": "synth_regression", "n": 50, "m": 2, "scale": 2.0})
    assert ds.n_samples == 50
    cls = load_dataset({"kind": "synth_classification", "n": 40, "m": 2, "classes": 2})
    assert cls.task == "classification"
    bench = load_dataset({"kind": "benchmark_regression"})
    assert bench.n_samples == 4000

    with pytest.raises(ConfigError, match="unknown dataset kind"):
        load_dataset({"kind": "parquet"})
    with pytest.raises(ConfigError, match="unknown dataset kind None"):
        load_dataset({})
    with pytest.raises(ConfigError, match="unknown dataset option"):
        load_dataset({"kind": "synth_regression", "rows": 10})
    with pytest.raises(ConfigError, match="unknown dataset option"):
        load_dataset({"kind": "benchmark_regression", "seed": 1})


# A value of the wrong JSON kind for each builder annotation.
_WRONG_KIND = {int: "1", float: "1.0", str: 1}


@pytest.mark.parametrize("kind, build", [
    ("benchmark_regression", benchmark_regression),
    ("synth_regression", synth_regression),
    ("synth_classification", synth_classification),
])
def test_generated_kind_options_are_its_builders_parameters(kind, build):
    params = inspect.signature(build, eval_str=True).parameters
    expected = build()
    # no option, or every option at its default, is the builder called with no arguments
    for spec in ({"kind": kind}, {"kind": kind, **{n: p.default for n, p in params.items()}}):
        ds = load_dataset(spec)
        assert_array_equal(ds.features, expected.features)
        assert_array_equal(ds.targets, expected.targets)
        assert (ds.task, ds.feature_names) == (expected.task, expected.feature_names)
    for name, param in params.items():
        with pytest.raises(ConfigError, match=f"{name} must be"):
            load_dataset({"kind": kind, name: _WRONG_KIND[param.annotation]})
    with pytest.raises(ConfigError, match="unknown dataset option"):
        load_dataset({"kind": kind, "rows": 10})


def test_load_dataset_calls_the_builder_bound_in_bench_at_call_time(monkeypatch):
    # as a tracer patches it: a wrapper that keeps the builder's signature
    calls = []

    @functools.wraps(synth_classification)
    def wrapped(**kwargs):
        calls.append(kwargs)
        return synth_classification(**kwargs)

    monkeypatch.setattr("caadam.bench.synth_classification", wrapped)
    load_dataset({"kind": "synth_classification", "n": 30})
    assert [c["n"] for c in calls] == [30]


def test_load_dataset_csv_kind(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
    ds = load_dataset({"kind": "csv", "path": str(path), "target": "y"})
    assert ds.n_samples == 3
    assert ds.feature_names == ["a", "b"]
