"""Early stopping, plateau scheduling, and the training loop.

The callback tests feed scripted validation-loss sequences and compare
against a hand-written simulation of the protocol rules, so the production
classes and the reference never share code.
"""

import csv
import importlib
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from caadam.data import split_standardize, synth_classification, synth_regression
from caadam.errors import ConfigError, DataError
from caadam.linalg import make_rng
from caadam.nn import Network, NetworkSpec, init_network
from caadam.optim import OptimizerConfig, make_optimizer
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


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_blocked_evaluation_gives_the_same_log_and_metric(monkeypatch, task):
    if task == "regression":
        ds, hidden = synth_regression(n=200, m=4, noise_std=0.2, seed=3), (8, 6)
    else:
        ds, hidden = synth_classification(n=200, m=4, classes=3, seed=3), (8,)
    split = split_standardize(ds, seed=4)
    output = 1 if task == "regression" else 3
    cfg = TrainConfig(batch_size=16, max_epochs=12, seed=11)
    runs = []
    # train() blocks at max(batch_size, BLOCK_ROWS): 128 training rows in one
    # block, then in blocks of 16 (the batch) and of 20 with a remainder of
    # 8; evaluate() blocks the 40 test rows at BLOCK_ROWS, down to one row
    for block in (10**9, 1, 20):
        monkeypatch.setattr(importlib.import_module("caadam.train"), "BLOCK_ROWS", block)
        net = init_network(NetworkSpec(4, hidden, output, task), make_rng(5))
        net, log = train(net, make_optimizer(OptimizerConfig("adam"), net), split, cfg)
        runs.append(([(r.epoch, r.train_loss, r.val_loss, r.lr) for r in log.records],
                     log.stop_reason, net.flat.copy(), evaluate(net, split.test)))
    for records, stop, flat, metric in runs[1:]:
        assert records == runs[0][0] and stop == runs[0][1] and metric == runs[0][3]
        assert_array_equal(flat, runs[0][2])


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
    for (w, b), (sw, sb) in zip(net.layers, log.best_weights):
        assert_array_equal(w, sw)
        assert_array_equal(b, sb)
    from caadam.nn import forward, loss as loss_fn

    pred, _ = forward(net, split.validation.features)
    assert loss_fn(pred, split.validation.targets, net.spec.output_head) == log.best_val_loss


def test_train_max_epochs_keeps_final_weights():
    split, net = small_problem(seed=5)
    cfg = TrainConfig(batch_size=32, max_epochs=6, seed=2)
    net, log = train(net, make_optimizer(OptimizerConfig("adam")), split, cfg)
    assert log.stop_reason == STOP_MAX_EPOCHS
    # the best snapshot exists but must NOT have been rolled back onto the
    # network (final weights differ from the snapshot whenever the last
    # epoch was not the best one)
    if log.records[-1].val_loss != log.best_val_loss:
        assert any(
            not np.array_equal(w, sw)
            for (w, _), (sw, _) in zip(net.layers, log.best_weights)
        )


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
    for (w, b), (sw, sb) in zip(net.layers, log.best_weights):
        assert_array_equal(w, sw)
        assert_array_equal(b, sb)


def test_train_final_partial_batch_is_used():
    # 5 samples, batch 4: the loop must consume the 1-sample remainder;
    # batch 5 in one go gives a different gradient sequence
    ds = synth_regression(n=50, m=2, noise_std=0.0, seed=1)
    split = split_standardize(ds, (0.6, 0.2, 0.2), seed=1)
    assert split.train.n_samples == 30
    net_a = init_network(NetworkSpec(2, (4,), 1), make_rng(0))
    net_b = Network(spec=net_a.spec, layers=net_a.copy_weights())
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
