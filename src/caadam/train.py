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
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SplitDataset
from .errors import ConfigError, DataError, NonFiniteError
from .linalg import make_rng
from .nn import BLOCK_ROWS, CLASSIFICATION, Network, Workspace, backward, forward, loss
from .optim import Optimizer

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
    initial_lr: float = 1e-3
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
    best_weights: list | None = None


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


def train(net: Network, optimizer: Optimizer, data: SplitDataset,
          cfg: TrainConfig) -> tuple[Network, TrainLog]:
    """Run the full protocol; returns the trained network and its log.

    Stops on early-stopping patience, the epoch cap, or divergence (any
    non-finite loss or update).  On early stop or divergence the network is
    rolled back to the best validation-loss weights; a run that exhausts
    max_epochs keeps its final weights (the best snapshot stays available
    in the log).
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
    # A training step is one block; an evaluation runs in blocks of that
    # height, or of BLOCK_ROWS when the batch is smaller.
    workspace = Workspace(net, max(n, data.validation.n_samples),
                          max(cfg.batch_size, BLOCK_ROWS))
    log = TrainLog()
    started = time.monotonic()

    for epoch in range(1, cfg.max_epochs + 1):
        try:
            perm = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                pred, cache = forward(net, x_train[idx], workspace)
                grads = backward(net, cache, y_train[idx])
                optimizer.step(net, grads, lr=scheduler.lr)
            train_loss = _mean_loss(net, data.train, workspace)
            val_loss = _mean_loss(net, data.validation, workspace)
            if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
                raise NonFiniteError(f"non-finite loss at epoch {epoch}")
        except NonFiniteError:
            log.stop_reason = STOP_DIVERGED
            break

        log.records.append(EpochRecord(epoch, train_loss, val_loss, scheduler.lr,
                                       time.monotonic() - started))
        log.epochs_run = epoch

        improved, should_stop = stopper.update(val_loss)
        if improved:
            log.best_val_loss = val_loss
            log.best_weights = net.copy_weights()
        if should_stop:
            log.stop_reason = STOP_EARLY
            break
        scheduler.update(val_loss)
    else:
        log.stop_reason = STOP_MAX_EPOCHS

    if log.stop_reason in (STOP_EARLY, STOP_DIVERGED) and log.best_weights is not None:
        net.set_weights(log.best_weights)
    return net, log


def evaluate(net: Network, ds: Dataset) -> float:
    """Test metric: RMSE for regression, accuracy for classification
    (argmax with lowest-index tie breaking)."""
    if ds.n_samples < 1:
        raise DataError("cannot evaluate on an empty dataset")
    pred, _ = forward(net, ds.features, Workspace(net, ds.n_samples, BLOCK_ROWS))
    if ds.task == CLASSIFICATION:
        picked = np.argmax(pred, axis=1)
        return float(np.mean(picked == np.asarray(ds.targets)))
    diff = pred - ds.targets
    return float(np.sqrt(np.mean(diff * diff)))
