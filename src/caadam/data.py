"""Dataset ingestion, standardization, deterministic splits, and synthetic
generators.

CSV files must be comma-separated UTF-8 with a header row and '.' decimal
separators; every cell must parse as a number.  Splits are seeded shuffles
followed by contiguous partitioning, and feature standardization always
derives its statistics from the training split alone.

The bundled synthetic regression target is a scaled Friedman-style surface
(documented at :func:`synth_regression`), so tests and offline benchmarks
never depend on downloads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .linalg import Matrix, make_rng

REGRESSION_TASK = "regression"
CLASSIFICATION_TASK = "classification"

DEFAULT_SPLIT = (0.64, 0.16, 0.20)

_STD_FLOOR = 1e-8


@dataclass
class Dataset:
    features: Matrix  # (n, m)
    targets: np.ndarray  # regression: (n, 1) floats; classification: (n,) class indices
    task: str
    feature_names: list[str]
    target_name: str = "target"

    def __post_init__(self):
        n = self.features.shape[0]
        if n < 1:
            raise DataError("dataset is empty")
        if self.task not in (REGRESSION_TASK, CLASSIFICATION_TASK):
            raise DataError(f"unknown task {self.task!r}")
        if self.targets.shape[0] != n:
            raise DataError(
                f"{n} feature rows but {self.targets.shape[0]} target rows"
            )
        if not np.isfinite(self.features).all():
            raise DataError("features contain non-finite values")
        if not np.isfinite(self.targets).all():
            raise DataError("targets contain non-finite values")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        if self.task != CLASSIFICATION_TASK:
            raise DataError("n_classes is only defined for classification datasets")
        return int(self.targets.max()) + 1


@dataclass
class SplitDataset:
    train: Dataset
    validation: Dataset
    test: Dataset


def load_csv(path, target: str, task: str = REGRESSION_TASK) -> Dataset:
    """Parse a CSV with a header row into a Dataset.

    ``target`` names the target column; every other column is a feature.
    Any cell that fails numeric parsing raises a DataError naming the file
    line and column.  Classification targets must be non-negative integers.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        header = [h.strip() for h in header]
        if target not in header:
            raise DataError(f"{path}: target column {target!r} not in header {header}")
        target_idx = header.index(target)
        feature_names = [h for i, h in enumerate(header) if i != target_idx]

        rows: list[list[float]] = []
        targets: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}"
                )
            parsed = []
            for col_name, cell in zip(header, row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: line {line_no}, column {col_name!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
            targets.append(parsed.pop(target_idx))
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")

    features = np.asarray(rows, dtype=np.float64)
    if task == CLASSIFICATION_TASK:
        y = np.asarray(targets)
        if not np.all(y == np.floor(y)) or y.min() < 0:
            raise DataError(f"{path}: classification targets must be non-negative integers")
        target_arr = y.astype(np.int64)
    else:
        target_arr = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    return Dataset(
        features=features,
        targets=target_arr,
        task=task,
        feature_names=feature_names,
        target_name=target,
    )


def _subset(ds: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(
        features=ds.features[idx],
        targets=ds.targets[idx],
        task=ds.task,
        feature_names=ds.feature_names,
        target_name=ds.target_name,
    )


def split_sizes(n: int, fractions) -> tuple[int, int, int]:
    """Train, validation and test sizes of ``n`` rows by a floor-then-remainder
    rule: train and validation get floor(fraction * n) rows, test gets the
    rest.  Fractions that are not all positive, do not sum to 1, or leave an
    empty partition are a DataError."""
    f_train, f_val, f_test = fractions
    if not all(f > 0.0 for f in fractions):
        raise DataError(f"split fractions must be positive, got {fractions}")
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise DataError(f"split fractions must sum to 1, got {fractions}")
    n_train = int(np.floor(f_train * n))
    n_val = int(np.floor(f_val * n))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise DataError(
            f"split of {n} rows by {fractions} leaves an empty partition "
            f"({n_train}/{n_val}/{n_test})"
        )
    return n_train, n_val, n_test


def split_standardize(
    ds: Dataset,
    fractions: tuple[float, float, float] = DEFAULT_SPLIT,
    seed: int = 0,
) -> SplitDataset:
    """Seeded shuffle, contiguous train/validation/test partition of the
    ``split_sizes``, then feature standardization using train-split
    statistics.  Regression targets are left in their original units.  A
    feature whose train-split mean or spread overflows is a DataError.
    """
    n_train, n_val, _ = split_sizes(ds.n_samples, fractions)
    perm = make_rng(seed).permutation(ds.n_samples)
    parts = [
        _subset(ds, perm[:n_train]),
        _subset(ds, perm[n_train : n_train + n_val]),
        _subset(ds, perm[n_train + n_val :]),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = parts[0].features.mean(axis=0)
        std = np.maximum(parts[0].features.std(axis=0), _STD_FLOOR)
    bad = ~np.isfinite(std)
    if bad.any():
        raise DataError(f"the train-split spread of feature "
                        f"{ds.feature_names[int(np.argmax(bad))]!r} overflows a float")
    for p in parts:
        p.features = (p.features - mean) / std
    return SplitDataset(*parts)


def synth_regression_surface(features: Matrix) -> np.ndarray:
    """The documented noise-free synthetic regression target.

    For features x in [0, 1]^m the target is

        y = (10 sin(pi * x0 * x1) + 20 (x2 - 0.5)^2 + 10 x3 + 5 x4) / 5

    dropping any term whose feature does not exist (for m == 1 the first
    term degrades to 10 sin(pi * x0)).  Features beyond the fifth never
    influence the target; they are distractors.
    """
    x = features
    m = x.shape[1]
    if m >= 2:
        y = 10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
    else:
        y = 10.0 * np.sin(np.pi * x[:, 0])
    if m >= 3:
        y = y + 20.0 * (x[:, 2] - 0.5) ** 2
    if m >= 4:
        y = y + 10.0 * x[:, 3]
    if m >= 5:
        y = y + 5.0 * x[:, 4]
    return (y / 5.0).reshape(-1, 1)


def synth_regression(
    n: int, m: int, noise_std: float = 0.0, seed: int = 0, scale: float = 1.0
) -> Dataset:
    """Synthetic regression set: uniform features on [0, 1], target from
    :func:`synth_regression_surface` times ``scale``, plus Gaussian noise.

    ``scale`` sets the target's overall magnitude and hence where the
    training losses sit relative to the early-stopping ``min_delta``:
    smaller targets make late sub-``min_delta`` progress invisible to the
    callbacks, so runs terminate crisply once real refinement ends.
    """
    if n < 1 or m < 1:
        raise DataError(f"n and m must be >= 1, got ({n}, {m})")
    if not 0.0 <= noise_std < math.inf:
        raise DataError(f"noise_std must be a finite number >= 0, got {noise_std}")
    if not 0.0 < scale < math.inf:
        raise DataError(f"scale must be a positive finite number, got {scale}")
    rng = make_rng(seed)
    features = rng.uniform(0.0, 1.0, size=(n, m))
    targets = scale * synth_regression_surface(features)
    if noise_std > 0.0:
        targets = targets + rng.normal(0.0, noise_std, size=(n, 1))
    names = [f"x{j}" for j in range(m)]
    return Dataset(features, targets, REGRESSION_TASK, names, target_name="y")


# Frozen parameters of the bundled offline regression benchmark.  The task
# was sized so that, under the default training protocol, runs on a [64, 32]
# network terminate by early stopping within ~60 epochs and the seed-to-seed
# RMSE spread stays small; the noise level keeps mini-batch gradients busy
# enough that optimizer differences show up in the loss curves.  Changing any
# of these changes expected results across the test suite — treat them as
# part of the file-format contract.
BENCHMARK_N = 4000
BENCHMARK_M = 8
BENCHMARK_NOISE_STD = 0.75
BENCHMARK_SCALE = 1.0
BENCHMARK_SEED = 2024


def benchmark_regression() -> Dataset:
    """The package's canonical offline regression benchmark.

    A frozen instance of :func:`synth_regression` (n=4000, m=8,
    noise_std=0.75, seed=2024): every caller gets byte-identical data, so
    benchmark results are comparable across machines without downloads.
    """
    return synth_regression(
        n=BENCHMARK_N,
        m=BENCHMARK_M,
        noise_std=BENCHMARK_NOISE_STD,
        seed=BENCHMARK_SEED,
        scale=BENCHMARK_SCALE,
    )


def synth_classification(
    n: int, m: int, classes: int = 3, spread: float = 1.0, seed: int = 0
) -> Dataset:
    """Gaussian blobs: class centers uniform on [-3, 3]^m, unit-``spread``
    noise around each center, labels drawn uniformly."""
    if n < 1 or m < 1 or classes < 2:
        raise DataError(f"need n, m >= 1 and classes >= 2, got ({n}, {m}, {classes})")
    if not 0.0 <= spread < math.inf:
        raise DataError(f"spread must be a finite number >= 0, got {spread}")
    rng = make_rng(seed)
    centers = rng.uniform(-3.0, 3.0, size=(classes, m))
    labels = rng.integers(0, classes, size=n)
    features = centers[labels] + rng.normal(0.0, spread, size=(n, m))
    names = [f"x{j}" for j in range(m)]
    return Dataset(features, labels.astype(np.int64), CLASSIFICATION_TASK, names, target_name="label")
