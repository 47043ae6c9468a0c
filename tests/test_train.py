"""Early stopping, plateau scheduling, and the training loop.

The callback tests feed scripted validation-loss sequences and compare
against a hand-written simulation of the protocol rules, so the production
classes and the reference never share code.
"""

import csv
import importlib
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from caadam.bench import trial_setup
from caadam.data import (
    DEFAULT_SPLIT,
    benchmark_regression,
    split_standardize,
    synth_classification,
    synth_regression,
)
from caadam.errors import ConfigError, DataError, NonFiniteError
from caadam.linalg import make_rng
from caadam.nn import BLOCK_ROWS, Network, NetworkSpec, Workspace, init_network
from caadam.optim import ALGORITHMS, OptimizerConfig, make_optimizer
from caadam.scaling import ScalingStrategy
from caadam.train import (
    STOP_DIVERGED,
    STOP_EARLY,
    STOP_MAX_EPOCHS,
    EarlyStopper,
    PlateauScheduler,
    TrainConfig,
    evaluate,
    export_log_csv,
    train,
)

DEFAULTS = dict(patience=15, min_delta=1e-5, factor=0.25, lr_patience=6,
                min_lr=2.5e-5, lr0=1e-3)


def simulate_protocol(losses, patience, min_delta, factor, lr_patience,
                      min_lr, lr0):
    """Independent transcription of the protocol: returns the lr in effect
    during each recorded epoch and the 1-based stop epoch (None = ran out)."""
    best_stop, stall_stop = math.inf, 0
    best_lr, stall_lr = math.inf, 0
    lr = lr0
    lrs = []
    for epoch, v in enumerate(losses, start=1):
        lrs.append(lr)
        if v < best_stop - min_delta:
            best_stop, stall_stop = v, 0
        else:
            stall_stop += 1
            if stall_stop >= patience:
                return lrs, epoch
        if v < best_lr - min_delta:
            best_lr, stall_lr = v, 0
        else:
            stall_lr += 1
            if stall_lr >= lr_patience:
                lr = max(lr * factor, min_lr)
                stall_lr = 0
    return lrs, None


def run_callbacks(losses, patience=15, min_delta=1e-5, factor=0.25,
                  lr_patience=6, min_lr=2.5e-5, lr0=1e-3):
    """Drive the production callbacks exactly the way the training loop does."""
    stopper = EarlyStopper(patience, min_delta)
    scheduler = PlateauScheduler(lr0, factor, lr_patience, min_delta, min_lr)
    lr = lr0
    lrs = []
    for epoch, v in enumerate(losses, start=1):
        lrs.append(lr)
        _, should_stop = stopper.update(v)
        next_lr = scheduler.update(v)
        if should_stop:
            return lrs, epoch
        lr = next_lr
    return lrs, None


SCRIPTED_SEQUENCES = [
    # steadily improving: never stops, lr never drops
    [1.0 - 0.01 * k for k in range(30)],
    # constant: one improvement then pure stall
    [1.0] * 40,
    # plateau then a late rescue
    [1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.5] + [0.5] * 25,
    # sub-threshold "improvements" that must count as stalls
    [1.0] + [1.0 - 1e-6 * k for k in range(1, 30)],
    # sawtooth around a slowly improving floor
    [1.0, 0.8, 0.9, 0.7, 0.85, 0.6, 0.75, 0.55] + [0.6, 0.56] * 12,
]


@pytest.mark.parametrize("losses", SCRIPTED_SEQUENCES)
def test_callbacks_match_reference_simulation(losses):
    got = run_callbacks(losses, **DEFAULTS)
    want = simulate_protocol(losses, **DEFAULTS)
    assert got == want


def test_early_stopper_stops_after_patience_stalls():
    stopper = EarlyStopper(patience=15, min_delta=1e-5)
    assert stopper.update(1.0) == (True, False)
    for k in range(1, 15):
        assert stopper.update(1.0) == (False, False), f"stall {k}"
    assert stopper.update(1.0) == (False, True)  # 15th stall in a row


def test_early_stopper_min_delta_is_strict():
    stopper = EarlyStopper(patience=3, min_delta=0.1)
    stopper.update(1.0)
    # exactly min_delta better is NOT an improvement
    improved, _ = stopper.update(0.9)
    assert not improved
    improved, _ = stopper.update(0.9 - 1e-12)
    assert improved
    assert stopper.counter == 0


def test_early_stopper_improvement_resets_counter():
    stopper = EarlyStopper(patience=3, min_delta=0.0)
    stopper.update(1.0)
    stopper.update(1.0)
    stopper.update(1.0)
    assert stopper.counter == 2
    improved, should_stop = stopper.update(0.5)
    assert improved and not should_stop
    assert stopper.counter == 0


def test_plateau_scheduler_full_chain_to_floor():
    """Stall bursts of exactly `patience` epochs walk the lr down
    1e-3 -> 2.5e-4 -> 6.25e-5 -> 2.5e-5 and then pin it at the floor."""
    sched = PlateauScheduler(1e-3, 0.25, 6, 1e-5, 2.5e-5)
    seen = [sched.update(1.0)]  # first call improves on +inf
    level = 1.0
    for _ in range(4):  # four stall bursts
        for _ in range(6):
            seen.append(sched.update(level))
        level -= 0.1  # rescue improvement so only full bursts reduce
        seen.append(sched.update(level))
    distinct = sorted(set(seen), reverse=True)
    assert distinct == [1e-3, 2.5e-4, 6.25e-5, 2.5e-5]
    # 0.25 * 6.25e-5 would be 1.5625e-5; the floor must win
    assert min(seen) == 2.5e-5
    assert seen[-1] == 2.5e-5


def test_plateau_scheduler_counter_resets_after_reduction():
    sched = PlateauScheduler(1e-3, 0.25, 2, 0.0, 1e-6)
    sched.update(1.0)  # improvement
    assert sched.update(1.0) == 1e-3  # stall 1
    assert sched.update(1.0) == 2.5e-4  # stall 2 -> reduce
    # a fresh burst is needed before the next reduction
    assert sched.update(1.0) == 2.5e-4
    assert sched.update(1.0) == 6.25e-5


def test_callbacks_have_independent_counters():
    # scheduler patience 2, stopper patience 4: one reduction happens
    # without disturbing the stopper's own stall count
    stopper = EarlyStopper(patience=4, min_delta=0.0)
    sched = PlateauScheduler(1e-3, 0.25, 2, 0.0, 1e-6)
    for v in [1.0, 1.0, 1.0]:
        stopper.update(v)
        sched.update(v)
    assert sched.lr == 2.5e-4  # reduced after 2 stalls
    assert stopper.counter == 2  # unaffected by the reduction


# ---------------------------------------------------------------------------
# the integrated loop


def small_problem(seed=3):
    ds = synth_regression(n=200, m=4, noise_std=0.2, seed=seed)
    split = split_standardize(ds, seed=seed + 1)
    net = init_network(NetworkSpec(4, (8,), 1), make_rng(seed + 2))
    return split, net


def test_train_is_deterministic():
    cfg = TrainConfig(batch_size=32, max_epochs=15, seed=11)
    runs = []
    for _ in range(2):
        split, net = small_problem()
        opt = make_optimizer(OptimizerConfig("adam"))
        net, log = train(net, opt, split, cfg)
        runs.append((net, log))
    (net_a, log_a), (net_b, log_b) = runs
    assert [r.train_loss for r in log_a.records] == [r.train_loss for r in log_b.records]
    assert [r.val_loss for r in log_a.records] == [r.val_loss for r in log_b.records]
    for (wa, ba), (wb, bb) in zip(net_a.layers, net_b.layers):
        assert_array_equal(wa, wb)
        assert_array_equal(ba, bb)


def assert_same_runs_at_block_heights(monkeypatch, heights, split, make_net, cfg):
    """train() and evaluate() give the same log, weights and test metric from
    ``make_net()`` whatever the least block height ``nn.BLOCK_ROWS``."""
    runs = []
    for block in heights:
        monkeypatch.setattr(importlib.import_module("caadam.nn"), "BLOCK_ROWS", block)
        net = make_net()
        net, log = train(net, make_optimizer(OptimizerConfig("adam"), net), split, cfg)
        runs.append(([(r.epoch, r.train_loss, r.val_loss, r.lr) for r in log.records],
                     log.stop_reason, net.flat.copy(), evaluate(net, split.test)))
    for records, stop, flat, metric in runs[1:]:
        assert records == runs[0][0] and stop == runs[0][1] and metric == runs[0][3]
        assert_array_equal(flat, runs[0][2])


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_blocked_evaluation_gives_the_same_log_and_metric(monkeypatch, task):
    if task == "regression":
        ds, hidden = synth_regression(n=200, m=4, noise_std=0.2, seed=3), (8, 6)
    else:
        ds, hidden = synth_classification(n=200, m=4, classes=3, seed=3), (8,)
    split = split_standardize(ds, seed=4)
    output = 1 if task == "regression" else 3
    # the workspace blocks at max(batch_size, BLOCK_ROWS): 128 training rows
    # in one block, then in blocks of 16 (the batch) and of 20 with a
    # remainder of 8; evaluate() blocks the 40 test rows at BLOCK_ROWS, down
    # to one row
    assert_same_runs_at_block_heights(
        monkeypatch, (10**9, 1, 20), split,
        lambda: init_network(NetworkSpec(4, hidden, output, task), make_rng(5)),
        TrainConfig(batch_size=16, max_epochs=12, seed=11))


# grid-zoo's classification set (perfbench/workloads.py) at grid seed 0
ZOO_DATASET = dict(n=3000, m=16, classes=6, spread=2.0, seed=0)


@pytest.mark.parametrize("zoo, hidden, batch", [
    (False, (64, 32), 64),  # trial-narrow
    (False, (256, 128), 512),  # trial-wide
    (True, (32,), 64),  # grid-zoo
    (True, (64, 32), 64),  # grid-zoo
    (False, (), 64),  # no hidden layer
])
def test_workspace_block_height_matches_one_block_on_the_benchmark_shapes(
        monkeypatch, zoo, hidden, batch):
    ds = synth_classification(**ZOO_DATASET) if zoo else benchmark_regression()
    split, net, seed = trial_setup(ds, hidden, DEFAULT_SPLIT, 3)
    # the workspace's own height runs the training split and the test split
    # in more than one block
    height = Workspace(net, split.train.n_samples, batch_rows=batch).block_rows
    assert height == max(batch, BLOCK_ROWS) < split.test.n_samples < split.train.n_samples
    assert_same_runs_at_block_heights(
        monkeypatch, (BLOCK_ROWS, 10**9), split, lambda: Network(net.spec, net.layers),
        TrainConfig(batch_size=batch, max_epochs=2, seed=seed))


def test_train_shuffle_seed_changes_trajectory():
    split, net_a = small_problem()
    _, net_b = small_problem()
    _, log_a = train(net_a, make_optimizer(OptimizerConfig("adam")), split,
                     TrainConfig(batch_size=32, max_epochs=5, seed=1))
    _, log_b = train(net_b, make_optimizer(OptimizerConfig("adam")), split,
                     TrainConfig(batch_size=32, max_epochs=5, seed=2))
    assert log_a.records[-1].train_loss != log_b.records[-1].train_loss


def test_train_records_and_lr_are_well_formed():
    split, net = small_problem()
    cfg = TrainConfig(batch_size=32, max_epochs=12, seed=0)
    _, log = train(net, make_optimizer(OptimizerConfig("adam")), split, cfg)
    assert log.epochs_run == len(log.records) == 12
    assert [r.epoch for r in log.records] == list(range(1, 13))
    lrs = [r.lr for r in log.records]
    assert lrs[0] == cfg.initial_lr
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    assert all(r.lr >= cfg.min_lr for r in log.records)
    walls = [r.wall_time for r in log.records]
    assert all(a <= b for a, b in zip(walls, walls[1:]))
    assert log.stop_reason == STOP_MAX_EPOCHS
    assert log.best_val_loss == min(r.val_loss for r in log.records)


def test_train_early_stop_restores_best_weights():
    split, net = small_problem(seed=9)
    cfg = TrainConfig(batch_size=32, max_epochs=1000, seed=4)
    net, log = train(net, make_optimizer(OptimizerConfig("adam")), split, cfg)
    assert log.stop_reason == STOP_EARLY
    assert log.epochs_run < 1000
    # returned weights are the best snapshot: recomputing the validation
    # loss on them reproduces best_val_loss exactly
    assert_array_equal(net.flat, log.best_weights)
    from caadam.nn import forward, loss as loss_fn

    pred, _ = forward(net, split.validation.features)
    assert loss_fn(pred, split.validation.targets, net.spec.output_head) == log.best_val_loss


def test_train_snapshots_through_copy_weights_once_per_improving_epoch(monkeypatch):
    # a profiler's snapshot timer wraps Network.copy_weights, so every
    # best-weights snapshot must be one call of it
    calls, copy = [], Network.copy_weights

    def counted(net):
        calls.append(copy(net))
        return calls[-1]

    monkeypatch.setattr(Network, "copy_weights", counted)
    split, net = small_problem(seed=9)
    cfg = TrainConfig(batch_size=32, seed=4)
    net, log = train(net, make_optimizer(OptimizerConfig("adam")), split, cfg)
    assert log.stop_reason == STOP_EARLY
    best, improving = math.inf, 0
    for record in log.records:
        if record.val_loss < best - cfg.early_stop_min_delta:
            best, improving = record.val_loss, improving + 1
    assert 1 < improving < log.epochs_run
    assert len(calls) == improving
    assert log.best_weights is calls[-1]


def test_train_max_epochs_keeps_final_weights():
    split, net = small_problem(seed=5)
    cfg = TrainConfig(batch_size=32, max_epochs=6, seed=2)
    net, log = train(net, make_optimizer(OptimizerConfig("adam")), split, cfg)
    assert log.stop_reason == STOP_MAX_EPOCHS
    # the best snapshot exists but must NOT have been rolled back onto the
    # network (final weights differ from the snapshot whenever the last
    # epoch was not the best one)
    if log.records[-1].val_loss != log.best_val_loss:
        assert not np.array_equal(net.flat, log.best_weights)


def test_train_divergence_is_reported_not_raised():
    split, net = small_problem()
    cfg = TrainConfig(batch_size=32, max_epochs=5, seed=0, initial_lr=1e200)
    net, log = train(net, make_optimizer(OptimizerConfig("sgd")), split, cfg)
    assert log.stop_reason == STOP_DIVERGED
    assert log.epochs_run == 0
    assert log.records == []


def test_train_divergence_after_progress_restores_best():
    # sgd at lr 1.0 survives exactly one epoch here, then blows up; the
    # network must come back holding the epoch-1 snapshot
    split, net = small_problem(seed=13)
    wild = TrainConfig(batch_size=32, max_epochs=30, seed=6, initial_lr=1.0)
    net, log = train(net, make_optimizer(OptimizerConfig("sgd")), split, wild)
    assert log.stop_reason == STOP_DIVERGED
    assert log.epochs_run >= 1
    assert log.best_weights is not None
    assert_array_equal(net.flat, log.best_weights)


def test_train_final_partial_batch_is_used():
    # 5 samples, batch 4: the loop must consume the 1-sample remainder;
    # batch 5 in one go gives a different gradient sequence
    ds = synth_regression(n=50, m=2, noise_std=0.0, seed=1)
    split = split_standardize(ds, (0.6, 0.2, 0.2), seed=1)
    assert split.train.n_samples == 30
    net_a = init_network(NetworkSpec(2, (4,), 1), make_rng(0))
    net_b = Network(spec=net_a.spec, layers=net_a.layers)
    _, log_a = train(net_a, make_optimizer(OptimizerConfig("adam")), split,
                     TrainConfig(batch_size=20, max_epochs=1, seed=3))
    _, log_b = train(net_b, make_optimizer(OptimizerConfig("adam")), split,
                     TrainConfig(batch_size=30, max_epochs=1, seed=3))
    # same permutation, different batching -> different result
    assert log_a.records[0].train_loss != log_b.records[0].train_loss


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(early_stop_patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(early_stop_min_delta=-1e-9)
    with pytest.raises(ConfigError):
        TrainConfig(lr_reduce_factor=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(min_lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(min_lr=2e-3, initial_lr=1e-3)


@pytest.mark.parametrize("call", [
    lambda split, net: make_rng(-1),
    lambda split, net: synth_regression(n=40, m=2, seed=-1),
    lambda split, net: synth_classification(n=40, m=2, seed=-1),
    lambda split, net: split_standardize(split.train, seed=-1),
    lambda split, net: train(net, make_optimizer(OptimizerConfig("adam")), split,
                             TrainConfig(max_epochs=1, seed=-1)),
], ids=["make_rng", "synth_regression", "synth_classification", "split_standardize", "train"])
def test_negative_seed_is_config_error(call):
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        call(*small_problem())


def test_export_log_csv_roundtrips_floats(tmp_path):
    split, net = small_problem()
    _, log = train(net, make_optimizer(OptimizerConfig("adam")), split,
                   TrainConfig(batch_size=32, max_epochs=4, seed=0))
    path = tmp_path / "log.csv"
    export_log_csv(log, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for rec, row in zip(log.records, rows):
        assert int(row["epoch"]) == rec.epoch
        assert float(row["train_loss"]) == rec.train_loss
        assert float(row["val_loss"]) == rec.val_loss
        assert float(row["lr"]) == rec.lr


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_rmse_hand_value():
    spec = NetworkSpec(1, (), 1)
    net = Network(spec=spec, layers=[(np.array([[1.0]]), np.array([0.0]))])
    ds = synth_regression(n=2, m=1, seed=0)
    ds.features = np.array([[0.0], [3.0]])
    ds.targets = np.array([[1.0], [1.0]])
    # predictions [0, 3] vs targets [1, 1]: rmse = sqrt((1 + 4) / 2)
    assert evaluate(net, ds) == pytest.approx(math.sqrt(2.5), rel=1e-15)


def test_evaluate_accuracy_with_tie_breaking():
    from caadam.data import synth_classification
    from caadam.nn import CLASSIFICATION

    spec = NetworkSpec(1, (), 2, output_head=CLASSIFICATION)
    net = Network(spec=spec, layers=[(np.zeros((1, 2)), np.zeros(2))])
    ds = synth_classification(n=4, m=1, classes=2, seed=0)
    ds.features = np.ones((4, 1))
    # all logits tie at [0, 0]; argmax picks class 0
    ds.targets = np.array([0, 0, 1, 0])
    assert evaluate(net, ds) == 0.75


def test_evaluate_rejects_empty_dataset():
    split, net = small_problem()
    empty = split.test
    empty.features = empty.features[:0]
    empty.targets = empty.targets[:0]
    with pytest.raises(DataError):
        evaluate(net, empty)


# ---------------------------------------------------------------------------
# epoch-end losses on a helper thread

train_module = importlib.import_module("caadam.train")
nn_module = importlib.import_module("caadam.nn")
cores_module = importlib.import_module("caadam.cores")


def _optimizer(algorithm, net):
    scaling = ScalingStrategy("multiplicative") if algorithm == "caadam" else None
    return make_optimizer(OptimizerConfig(algorithm, scaling=scaling), net)


def _raise_at(fn, call: int, count=None):
    """``fn``, raising NonFiniteError at its ``call``-th call (1-based) that
    ``count(*args)`` accepts."""
    seen = [0]

    def wrapped(*args, **kwargs):
        if count is None or count(*args):
            seen[0] += 1
            if seen[0] == call:
                raise NonFiniteError("injected")
        return fn(*args, **kwargs)

    return wrapped


def _run(monkeypatch, helper, algorithm, cfg, fault=None):
    """One train() on ``small_problem`` with the losses on a helper thread or
    not, and ``fault`` (where, epoch) injected; returns every output."""
    monkeypatch.setattr(train_module, "_losses_on_helper", lambda spec: helper)
    split, net = small_problem(seed=9)
    opt = _optimizer(algorithm, net)
    steps_per_epoch = -(-split.train.n_samples // cfg.batch_size)
    if fault is not None:
        where, epoch = fault
        if where == "step":
            monkeypatch.setattr(opt, "step", _raise_at(opt.step, (epoch - 1) * steps_per_epoch + 2))
        else:
            ds = split.validation if where == "val" else split.train
            for module in (train_module, nn_module):  # the loop's and the helper's
                monkeypatch.setattr(module, "loss", _raise_at(
                    nn_module.loss, epoch, lambda pred, targets, head: targets is ds.targets))
    threads = threading.active_count()
    net, log = train(net, opt, split, cfg)
    assert threading.active_count() == threads
    monkeypatch.undo()  # the next run patches the real functions again
    return ([(r.epoch, r.train_loss, r.val_loss, r.lr) for r in log.records], log.stop_reason,
            log.epochs_run, log.best_val_loss,
            None if log.best_weights is None else log.best_weights.tolist(), net.flat.tolist())


RUN_OUT = TrainConfig(batch_size=32, max_epochs=6, seed=4)
# min_delta 0.02 stalls within a few epochs: the lr is cut after each stall
# and training stops after three in a row
STOP_SOON = TrainConfig(batch_size=32, max_epochs=300, early_stop_patience=3,
                        early_stop_min_delta=0.02, lr_reduce_patience=1, seed=4)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("cfg, fault", [
    (RUN_OUT, None),
    (STOP_SOON, None),
    *[(RUN_OUT, (where, epoch)) for where in ("step", "val", "train") for epoch in (1, 4)],
], ids=["max-epochs", "early-stop", "step-1", "step-4", "val-1", "val-4", "train-1", "train-4"])
def test_losses_on_a_helper_thread_give_the_same_training(monkeypatch, algorithm, cfg, fault):
    on = _run(monkeypatch, True, algorithm, cfg, fault)
    off = _run(monkeypatch, False, algorithm, cfg, fault)
    assert on == off
    records, stop, epochs_run, best_val, best, flat = off
    if fault is None and cfg is RUN_OUT:
        assert stop == STOP_MAX_EPOCHS and epochs_run == 6
    elif fault is None:
        assert stop == STOP_EARLY and epochs_run < 300
        assert len({r[3] for r in records}) > 1  # the lr was cut
    else:
        # a divergence in epoch e logs epochs 1..e-1 and keeps their best
        assert stop == STOP_DIVERGED and epochs_run == len(records) == fault[1] - 1
        assert (best is None) == (fault[1] == 1)
        if best is not None:
            assert flat == best and best_val == min(r[2] for r in records)


def test_a_late_train_loss_divergence_leaves_the_epochs_weights(monkeypatch):
    # the train loss of epoch 1 is read after epoch 2 trained; with no best
    # to restore, the network holds the weights epoch 1 ended with
    monkeypatch.setattr(train_module, "_losses_on_helper", lambda spec: True)
    split, net = small_problem(seed=9)
    one = Network(net.spec, net.layers)
    train(one, _optimizer("adam", one), split, replace(RUN_OUT, max_epochs=1))
    _, _, epochs_run, _, best, flat = _run(monkeypatch, True, "adam", RUN_OUT, ("train", 1))
    assert epochs_run == 0 and best is None
    assert flat == one.flat.tolist()


def test_helper_thread_computes_the_losses_when_forced_on(monkeypatch):
    idents = []

    def recorded(*args):
        idents.append(threading.get_ident())
        return loss_fn(*args)

    loss_fn = nn_module.loss
    monkeypatch.setattr(nn_module, "loss", recorded)
    monkeypatch.setattr(train_module, "_losses_on_helper", lambda spec: True)
    split, net = small_problem()
    train(net, _optimizer("adam", net), split, RUN_OUT)
    assert len(idents) == 2 * RUN_OUT.max_epochs
    assert threading.get_ident() not in idents


@pytest.fixture
def two_cores(monkeypatch):
    """A process on 2 cores that is not a pool worker, with ``threads`` BLAS threads."""
    monkeypatch.setattr(cores_module, "_worker_share", None)
    monkeypatch.setattr(cores_module, "usable_cores", lambda: 2)

    def blas(threads):
        monkeypatch.setattr(cores_module, "blas_threads", lambda: threads)

    return blas


TRIAL_WIDE = NetworkSpec(8, (256, 128), 1)


@pytest.mark.parametrize("spec", [
    NetworkSpec(8, (64, 32), 1),  # trial-narrow
    NetworkSpec(16, (32,), 6),  # grid-zoo
    NetworkSpec(16, (64, 32), 6),  # grid-zoo
])
def test_helper_is_off_for_the_narrow_benchmark_shapes(two_cores, spec):
    two_cores(1)
    assert not train_module._losses_on_helper(spec)


def test_helper_is_on_for_trial_wide_with_one_blas_thread_on_two_cores(two_cores):
    two_cores(1)
    assert train_module._losses_on_helper(TRIAL_WIDE)


@pytest.mark.parametrize("threads", [2, 3, None])
def test_helper_is_off_without_a_core_that_blas_leaves_idle(two_cores, threads):
    two_cores(threads)  # None: the thread count cannot be read
    assert not train_module._losses_on_helper(TRIAL_WIDE)


def test_helper_is_off_in_a_pool_worker(two_cores, monkeypatch):
    two_cores(1)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # leaves the library alone
    cores_module.share_cores(2)
    assert cores_module.trial_cores() == 1
    assert not train_module._losses_on_helper(TRIAL_WIDE)
