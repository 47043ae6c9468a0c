"""Mini-batch training loop with early stopping and reduce-on-plateau.

Both callbacks watch validation loss and share one improvement rule: a new
value counts as an improvement only when it is below the best seen so far
by more than ``min_delta``.  Their counters are independent — a learning
rate reduction does not reset the early-stopping counter, and vice versa.

The loop is deterministic given the config seed: batch order comes from a
seeded per-epoch shuffle and the final partial batch is always used.
Networks that share a layout and a seed can train as one group, in
lockstep, each with the log and the weights it would get alone.  Every
epoch's record stores the learning rate that was in effect during that
epoch, so the logged sequence is non-increasing.
"""

from __future__ import annotations

import csv
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import cores, nn
from .data import Dataset, SplitDataset
from .errors import ConfigError, DataError, NonFiniteError
from .linalg import make_rng
from .nn import CLASSIFICATION, Network, Workspace, backward, forward, loss, stack
from .optim import DEFAULT_LR, Optimizer

STOP_EARLY = "early_stop"
STOP_MAX_EPOCHS = "max_epochs"
STOP_DIVERGED = "diverged"


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    max_epochs: int = 1000
    early_stop_patience: int = 15
    early_stop_min_delta: float = 1e-5
    lr_reduce_factor: float = 0.25
    lr_reduce_patience: int = 6
    min_lr: float = 2.5e-5
    initial_lr: float = DEFAULT_LR
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.early_stop_patience < 1 or self.lr_reduce_patience < 1:
            raise ConfigError("patience values must be >= 1")
        if not 0.0 <= self.early_stop_min_delta < math.inf:
            raise ConfigError(f"early_stop_min_delta must be a finite number >= 0, "
                              f"got {self.early_stop_min_delta}")
        if not 0.0 < self.lr_reduce_factor < 1.0:
            raise ConfigError(
                f"lr_reduce_factor must lie in (0, 1), got {self.lr_reduce_factor}"
            )
        if not 0.0 < self.min_lr <= self.initial_lr < math.inf:
            raise ConfigError(f"need 0 < min_lr <= initial_lr < inf, "
                              f"got {self.min_lr} vs {self.initial_lr}")


class EarlyStopper:
    """Stop when validation loss has not improved for ``patience`` epochs."""

    def __init__(self, patience: int, min_delta: float):
        self.patience = patience
        self.min_delta = min_delta
        self.best = math.inf
        self.counter = 0

    def update(self, val_loss: float) -> tuple[bool, bool]:
        """Feed one epoch's validation loss; returns (improved, should_stop)."""
        if val_loss < self.best - self.min_delta:
            self.best = val_loss
            self.counter = 0
            return True, False
        self.counter += 1
        return False, self.counter >= self.patience


class PlateauScheduler:
    """Multiply the learning rate by ``factor`` after ``patience`` epochs
    without improvement, never dropping below ``min_lr``.  Stalls are
    counted by an ``EarlyStopper``, whose counter resets after each cut."""

    def __init__(self, initial_lr: float, factor: float, patience: int,
                 min_delta: float, min_lr: float):
        self.lr = initial_lr
        self.factor = factor
        self.min_lr = min_lr
        self.stalls = EarlyStopper(patience, min_delta)

    def update(self, val_loss: float) -> float:
        """Feed one epoch's validation loss; returns the lr for the next epoch."""
        _, cut = self.stalls.update(val_loss)
        if cut:
            self.lr = max(self.lr * self.factor, self.min_lr)
            self.stalls.counter = 0
        return self.lr


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    train_loss: float
    val_loss: float
    lr: float  # rate in effect during this epoch
    wall_time: float  # cumulative seconds since training (of the group) started


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    stop_reason: str = STOP_MAX_EPOCHS
    epochs_run: int = 0
    best_val_loss: float = math.inf
    best_weights: np.ndarray | None = None  # a copy of Network.flat
    # Seconds charged to this network: its optimizer steps, plus an equal
    # share of each epoch's work that it shared with the other networks of
    # its group.  The wall times of a group sum to its training time.
    wall_time_s: float = 0.0


# The columns of a loss-curve CSV: the deterministic EpochRecord fields.
LOG_COLUMNS = ("epoch", "train_loss", "val_loss", "lr")


def export_log_csv(log: TrainLog, path) -> None:
    """Write the deterministic part of a TrainLog as CSV, one ``LOG_COLUMNS``
    row per epoch, each value in its shortest round-trip form."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        writer.writerows([repr(getattr(r, col)) for col in LOG_COLUMNS] for r in log.records)


def _mean_loss(net: Network, ds: Dataset, workspace: Workspace) -> float:
    pred, _ = forward(net, ds.features, workspace)
    return loss(pred, ds.targets, ds.task)


def _helper_loss(net: Network, ds: Dataset, workspace: Workspace) -> float:
    """``_mean_loss`` for the helper thread.  It calls ``caadam.nn`` and not
    this module's names, which perfbench's tracer wraps with one span stack
    per process: a call on a second thread would corrupt its spans."""
    pred, _ = nn.forward(net, ds.features, workspace)
    return nn.loss(pred, ds.targets, ds.task)


# The multiply-adds per row (``NetworkSpec.multiply_adds``) from which the
# epoch's losses run on a helper thread.  On a narrower net the helper spends
# its time in Python, not in BLAS calls that release the interpreter lock,
# and slows the training it overlaps.  A sweep on 2 cores with one BLAS
# thread (CHANGES.md), trial time with the helper over without: (128, 64)
# at 9280 multiply-adds 1.19 at batch 64 and 0.82 at 512; (192, 96) at
# 20064 0.99 and 0.82; (256, 128) at 34944 0.96 and 0.74.
HELPER_MIN_MULTIPLY_ADDS = 16384


def _losses_on_helper(spec) -> bool:
    """Whether a trial of this network computes its losses on a helper
    thread: a wide network, and a core that its BLAS leaves idle."""
    return spec.multiply_adds >= HELPER_MIN_MULTIPLY_ADDS and cores.spare_core()


class _Member:
    """One network of a group and its own protocol: optimizer, stopper,
    scheduler, log, and its last epoch, whose losses are not yet in the log
    (``pending``: the epoch's number, the rate in effect during it, and its
    validation and train losses as futures, computed on ``weights``, a copy
    of the network made at that epoch's end)."""

    def __init__(self, net: Network, optimizer: Optimizer, cfg: TrainConfig):
        self.net, self.optimizer = net, optimizer
        self.stopper = EarlyStopper(cfg.early_stop_patience, cfg.early_stop_min_delta)
        self.scheduler = PlateauScheduler(cfg.initial_lr, cfg.lr_reduce_factor,
                                          cfg.lr_reduce_patience, cfg.early_stop_min_delta,
                                          cfg.min_lr)
        self.log = TrainLog()
        self.weights = Network(net.spec, net.layers)
        self.pending: tuple | None = None
        self.verdict: tuple[bool, bool] | None = None  # (improved, should_stop) once judged
        self.grads = None  # its row of the group's gradients

    def judge(self) -> bool:
        """Wait for the pending validation loss and feed it once to the
        stopper and, unless that stops, to the scheduler; returns should_stop."""
        if self.verdict is None:
            val_loss = self.pending[2].result()
            self.verdict = self.stopper.update(val_loss)
            if not self.verdict[1]:
                self.scheduler.update(val_loss)
        return self.verdict[1]

    def commit(self, started: float) -> None:
        """After ``judge``: wait for the pending train loss, then log the
        epoch and, if it improved, ``weights`` as the best."""
        epoch, lr, val, train_loss = self.pending
        record = EpochRecord(epoch, train_loss.result(), val.result(), lr,
                             time.monotonic() - started)
        self.log.records.append(record)
        self.log.epochs_run = epoch
        if self.verdict[0]:
            self.log.best_val_loss = record.val_loss
            self.log.best_weights = self.weights.copy_weights()

    def finish(self, started: float) -> None:
        """End training, as a lone network's last epoch decides: its early
        stop comes before a divergence in the epoch after it, and its
        non-finite loss is a divergence at that epoch, with the weights it
        ended with.  An early stop or a divergence restores the best weights."""
        log = self.log
        if self.pending is not None:
            try:
                if self.judge():
                    log.stop_reason = STOP_EARLY
                self.commit(started)
            except NonFiniteError:
                log.stop_reason = STOP_DIVERGED
                if log.best_weights is None:
                    self.net.set_weights(self.weights.flat)
        if log.stop_reason in (STOP_EARLY, STOP_DIVERGED) and log.best_weights is not None:
            self.net.set_weights(log.best_weights)


class _Group:
    """The members still training, stacked (``nn.stack``) so that one
    ``forward`` and one ``backward`` per batch, on a workspace of one batch,
    serve them all; the helper thread that ``train`` holds open, or None;
    and the clock that splits the group's time among them.  The losses run
    member by member on one forward-only workspace of one network,
    ``eval_ws``, built once and used by whichever thread runs them, so every
    member's losses are those of training alone, on either thread."""

    def __init__(self, members: list[_Member], data: SplitDataset, batch_size: int,
                 started: float, helper):
        self.live, self.data, self.batch_size = list(members), data, batch_size
        rows = max(data.train.n_samples, data.validation.n_samples)
        self.eval_ws = Workspace(members[0].net, rows, batch_size, backward=False)
        self.helper = helper
        self._restack()
        self._mark, self._stepping, self._owners = started, 0.0, self.live
        self.started = started

    def _restack(self) -> None:
        """Stack the live members and give them a workspace of one batch."""
        self.net = stack([m.net for m in self.live])
        self.workspace = Workspace(self.net, min(self.batch_size, self.data.train.n_samples),
                                   self.batch_size)
        for member, grads in zip(self.live, self.workspace.member_grads):
            member.grads = grads

    def leave(self, members: list[_Member], reason: str | None = None) -> None:
        """Take ``members`` out of the stack, with their own copy of their
        weights, and end their training (``_Member.finish``); ``reason`` is
        their stop reason, if known."""
        if not members:
            return
        for member in members:
            if self.net is not member.net:
                member.net.adopt(member.net.flat.copy())
            if reason is not None:
                member.log.stop_reason = reason
            member.finish(self.started)
        gone = {id(m) for m in members}
        self.live = [m for m in self.live if id(m) not in gone]
        if self.live:
            self._restack()

    def forward_backward(self, batch, targets) -> bool:
        """Every live member's gradients on one batch, in its ``grads``.  A
        member whose forward or backward pass is non-finite diverges, and
        the others compute the batch again; returns whether any is left."""
        while self.live:
            try:
                _, cache = forward(self.net, batch, self.workspace)
                backward(self.net, cache, targets)
                return True
            except NonFiniteError as exc:
                self.leave([self.live[k] for k in exc.members], STOP_DIVERGED)
        return False

    def step(self, first: bool) -> None:
        """Each live member's optimizer step, after the first batch of an
        epoch reads the last epoch's validation loss; a member that stops
        there or whose step is non-finite leaves the group."""
        stopped, diverged = [], []
        for member in self.live:
            try:
                if first and member.pending is not None and member.judge():
                    stopped.append(member)
                    continue
                began = time.monotonic()
                try:
                    member.optimizer.step(member.net, member.grads, lr=member.scheduler.lr)
                finally:
                    spent = time.monotonic() - began
                    member.log.wall_time_s += spent
                    self._stepping += spent
            except NonFiniteError:
                diverged.append(member)
        self.leave(stopped)
        self.leave(diverged, STOP_DIVERGED)

    def end_epoch(self, epoch: int) -> None:
        """Log the last epoch's losses, judged at this epoch's first step,
        then start computing this epoch's: validation losses first, since
        the next epoch's first step needs them."""
        diverged = []
        for member in self.live:
            try:
                if member.pending is not None:
                    member.commit(self.started)
            except NonFiniteError:
                diverged.append(member)
        self.leave(diverged, STOP_DIVERGED)
        for member in self.live:
            member.weights.set_weights(member.net.flat)
        val = [self._loss(m.weights, self.data.validation) for m in self.live]
        train_loss = [self._loss(m.weights, self.data.train) for m in self.live]
        for member, v, t in zip(self.live, val, train_loss):
            member.pending, member.verdict = (epoch, member.scheduler.lr, v, t), None

    def _loss(self, weights: Network, ds: Dataset):
        """The mean loss of ``weights`` on ``ds`` as a Future: submitted to
        the helper, or else computed at once, its NonFiniteError as its exception."""
        if self.helper is not None:
            return self.helper.submit(_helper_loss, weights, ds, self.eval_ws)
        from concurrent.futures import Future  # kept out of ``import caadam``

        done = Future()
        try:
            done.set_result(_mean_loss(weights, ds, self.eval_ws))
        except NonFiniteError as exc:
            done.set_exception(exc)
        return done

    def charge(self) -> None:
        """Split the time since the last charge among the members live at
        that charge: each has had its own steps charged already, and takes
        an equal share of the rest.  Then start the next share."""
        now = time.monotonic()
        share = (now - self._mark - self._stepping) / len(self._owners)
        for member in self._owners:
            member.log.wall_time_s += share
        self._mark, self._stepping, self._owners = now, 0.0, self.live


def train(net: Network | list[Network], optimizer: Optimizer | list[Optimizer],
          data: SplitDataset, cfg: TrainConfig):
    """Run the full protocol; returns the trained network and its log.

    Stops on early-stopping patience, the epoch cap, or divergence (any
    non-finite loss or update).  On early stop or divergence the network is
    rolled back to the best validation-loss weights; a run that exhausts
    max_epochs keeps its final weights (the best snapshot stays available
    in the log).

    ``net`` and ``optimizer`` may instead be equal-length lists: a group of
    networks of one layout that train in lockstep on one batch order, with
    one stacked forward and backward pass per batch (``nn.stack``).  Each
    keeps its own optimizer, protocol and log and leaves the group where it
    would stop alone, so each gets the log and weights of training alone;
    the result is a list of (network, log) pairs.  A lone network trains as
    a group of one.  ``TrainLog.wall_time_s`` splits the group's time.

    Epoch ``e``'s losses are read late: its validation loss before the first
    update of epoch ``e + 1``, whose rate and whose start depend on it, and
    its train loss at the end of epoch ``e + 1``.  So they can run on a
    helper thread (``_losses_on_helper``) while the next epoch trains, on
    the one workspace that computing them at once would use; the log, the
    weights and the stop are those of reading them at once.  The helper
    thread lives in one ``with`` block, so it is joined however training ends.
    """
    started = time.monotonic()
    lone = isinstance(net, Network)
    nets, optimizers = ([net], [optimizer]) if lone else (list(net), list(optimizer))
    if not nets or len(nets) != len(optimizers):
        raise ValueError(f"a group needs one optimizer per network, got {len(optimizers)} "
                         f"for {len(nets)}")
    x_train = data.train.features
    y_train = data.train.targets
    n = x_train.shape[0]
    rng = make_rng(cfg.seed)
    members = [_Member(net, opt, cfg) for net, opt in zip(nets, optimizers)]
    helping = nullcontext()
    if _losses_on_helper(nets[0].spec):
        from concurrent.futures import ThreadPoolExecutor  # only the helper needs it

        helping = ThreadPoolExecutor(1)
    with helping as helper:
        group = _Group(members, data, cfg.batch_size, started, helper)
        for epoch in range(1, cfg.max_epochs + 1):
            if not group.live:
                break
            if epoch > 1:
                group.charge()
            perm = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                if not group.forward_backward(x_train[idx], y_train[idx]):
                    break
                group.step(first=start == 0)
                if not group.live:
                    break
            group.end_epoch(epoch)
        group.leave(group.live)
        group.charge()
    trained = [(m.net, m.log) for m in members]
    return trained[0] if lone else trained


def evaluate(net: Network, ds: Dataset) -> float:
    """Test metric: RMSE for regression, accuracy for classification
    (argmax with lowest-index tie breaking)."""
    if ds.n_samples < 1:
        raise DataError("cannot evaluate on an empty dataset")
    pred, _ = forward(net, ds.features, Workspace(net, ds.n_samples, backward=False))
    if ds.task == CLASSIFICATION:
        picked = np.argmax(pred, axis=1)
        return float(np.mean(picked == np.asarray(ds.targets)))
    diff = pred - ds.targets
    return float(np.sqrt(np.mean(diff * diff)))
