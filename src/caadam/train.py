"""Mini-batch training loop with early stopping and reduce-on-plateau.

Both callbacks watch validation loss and share one improvement rule: a new
value counts as an improvement only when it is below the best seen so far
by more than ``min_delta``.  Their counters are independent — a learning
rate reduction does not reset the early-stopping counter, and vice versa.

The loop is deterministic given the config seed: batch order comes from a
seeded per-epoch shuffle and the final partial batch is always used.  Every
epoch's record stores the learning rate that was in effect during that
epoch, so the logged sequence is non-increasing.
"""

from __future__ import annotations

import csv
import math
import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import cores, nn
from .data import Dataset, SplitDataset
from .errors import ConfigError, DataError, NonFiniteError
from .linalg import make_rng
from .nn import CLASSIFICATION, Network, Workspace, backward, forward, loss
from .optim import DEFAULT_LR, Optimizer

if TYPE_CHECKING:
    from concurrent.futures import Future

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
    wall_time: float  # cumulative seconds since training started


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    stop_reason: str = STOP_MAX_EPOCHS
    epochs_run: int = 0
    best_val_loss: float = math.inf
    best_weights: np.ndarray | None = None  # a copy of Network.flat


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


class _Settled:
    """``fn(*args)`` computed at once, read as a Future is: ``result()``
    returns its value or raises the NonFiniteError it raised."""

    def __init__(self, fn, *args):
        self._value, self._error = None, None
        try:
            self._value = fn(*args)
        except NonFiniteError as exc:
            self._error = exc

    def result(self) -> float:
        if self._error is not None:
            raise self._error
        return self._value


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


@dataclass
class _Pending:
    """An epoch whose losses are not yet in the log: its number, the rate in
    effect during it, and its validation and train losses as futures."""

    epoch: int
    lr: float
    val: Future | _Settled
    train: Future | _Settled
    verdict: tuple[bool, bool] | None = None  # (improved, should_stop) once judged

    def judge(self, stopper: EarlyStopper, scheduler: PlateauScheduler) -> bool:
        """Wait for the validation loss and feed it once to the stopper and,
        unless that stops, to the scheduler; returns should_stop."""
        if self.verdict is None:
            val_loss = self.val.result()
            self.verdict = stopper.update(val_loss)
            if not self.verdict[1]:
                scheduler.update(val_loss)
        return self.verdict[1]

    def commit(self, log: TrainLog, weights: Network, started: float) -> None:
        """After ``judge``: wait for the train loss, then log the epoch and,
        if it improved, ``weights`` (the epoch's) as the best."""
        train_loss = self.train.result()
        val_loss = self.val.result()
        log.records.append(EpochRecord(self.epoch, train_loss, val_loss, self.lr,
                                       time.monotonic() - started))
        log.epochs_run = self.epoch
        if self.verdict[0]:
            log.best_val_loss = val_loss
            log.best_weights = weights.copy_weights()


class _EpochLosses:
    """Each epoch's validation and train losses, in that order, from
    ``weights``: a copy of the network made at the epoch's end.  With a
    helper they run on one helper thread, with a workspace of its own, while
    the next epoch trains; without one they run at once on ``workspace``."""

    def __init__(self, net: Network, data: SplitDataset, workspace: Workspace,
                 helper: bool):
        self.weights = Network(net.spec, net.layers)
        self._data = data
        self._pool = None
        if helper:
            from concurrent.futures import ThreadPoolExecutor  # only the helper needs it

            self._pool = ThreadPoolExecutor(1)
        rows = max(data.train.n_samples, data.validation.n_samples)
        self._workspace = Workspace(net, rows, backward=False) if helper else workspace

    def start(self, net: Network, epoch: int, lr: float) -> _Pending:
        """Copy ``net``'s weights and compute, or start computing, their losses."""
        self.weights.set_weights(net.flat)
        sets = (self._data.validation, self._data.train)
        if self._pool is None:
            val, train_loss = (_Settled(_mean_loss, self.weights, ds, self._workspace)
                               for ds in sets)
        else:
            val, train_loss = (self._pool.submit(_helper_loss, self.weights, ds,
                                                 self._workspace) for ds in sets)
        return _Pending(epoch, lr, val, train_loss)

    def close(self) -> None:
        """Join the helper thread, if there is one."""
        if self._pool is not None:
            self._pool.shutdown()


def train(net: Network, optimizer: Optimizer, data: SplitDataset,
          cfg: TrainConfig) -> tuple[Network, TrainLog]:
    """Run the full protocol; returns the trained network and its log.

    Stops on early-stopping patience, the epoch cap, or divergence (any
    non-finite loss or update).  On early stop or divergence the network is
    rolled back to the best validation-loss weights; a run that exhausts
    max_epochs keeps its final weights (the best snapshot stays available
    in the log).

    Epoch ``e``'s losses are read late: its validation loss before the first
    update of epoch ``e + 1``, whose rate and whose start depend on it, and
    its train loss at the end of epoch ``e + 1``.  So they can run on a
    helper thread (``_losses_on_helper``) while the next epoch trains; the
    log, the weights and the stop are those of reading them at once.
    """
    x_train = data.train.features
    y_train = data.train.targets
    n = x_train.shape[0]

    stopper = EarlyStopper(cfg.early_stop_patience, cfg.early_stop_min_delta)
    scheduler = PlateauScheduler(cfg.initial_lr, cfg.lr_reduce_factor,
                                 cfg.lr_reduce_patience, cfg.early_stop_min_delta,
                                 cfg.min_lr)
    rng = make_rng(cfg.seed)
    # Shared by every call below: each result is used before the next call.
    workspace = Workspace(net, max(n, data.validation.n_samples), cfg.batch_size)
    log = TrainLog()
    started = time.monotonic()
    pending = None  # the last epoch trained, until its losses are logged

    with closing(_EpochLosses(net, data, workspace, _losses_on_helper(net.spec))) as losses:
        for epoch in range(1, cfg.max_epochs + 1):
            try:
                perm = rng.permutation(n)
                for start in range(0, n, cfg.batch_size):
                    idx = perm[start : start + cfg.batch_size]
                    pred, cache = forward(net, x_train[idx], workspace)
                    grads = backward(net, cache, y_train[idx])
                    if start == 0 and pending is not None and pending.judge(stopper, scheduler):
                        break
                    optimizer.step(net, grads, lr=scheduler.lr)
                if pending is not None:
                    if pending.judge(stopper, scheduler):
                        break
                    pending.commit(log, losses.weights, started)
            except NonFiniteError:
                log.stop_reason = STOP_DIVERGED
                break
            pending = losses.start(net, epoch, scheduler.lr)

        # The last epoch trained decides the stop: its early stop comes
        # before a divergence in the epoch after it, and its non-finite loss
        # is a divergence at that epoch, with the weights it ended with.
        if pending is not None:
            try:
                if pending.judge(stopper, scheduler):
                    log.stop_reason = STOP_EARLY
                pending.commit(log, losses.weights, started)
            except NonFiniteError:
                log.stop_reason = STOP_DIVERGED
                if log.best_weights is None:
                    net.set_weights(losses.weights.flat)

    if log.stop_reason in (STOP_EARLY, STOP_DIVERGED) and log.best_weights is not None:
        net.set_weights(log.best_weights)
    return net, log


def evaluate(net: Network, ds: Dataset) -> float:
    """Test metric: RMSE for regression, accuracy for classification
    (argmax with lowest-index tie breaking)."""
    if ds.n_samples < 1:
        raise DataError("cannot evaluate on an empty dataset")
    pred, _ = forward(net, ds.features, Workspace(net, ds.n_samples))
    if ds.task == CLASSIFICATION:
        picked = np.argmax(pred, axis=1)
        return float(np.mean(picked == np.asarray(ds.targets)))
    diff = pred - ds.targets
    return float(np.sqrt(np.mean(diff * diff)))
