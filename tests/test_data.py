"""CSV ingestion, splits, standardization, and the synthetic generators."""

import csv
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from caadam.data import (
    BENCHMARK_M,
    BENCHMARK_N,
    Dataset,
    benchmark_regression,
    load_csv,
    split_standardize,
    synth_classification,
    synth_regression,
    synth_regression_surface,
)
from caadam.errors import DataError


def reference_surface(x):
    """Independent transcription of the documented target function."""
    m = len(x)
    y = 10.0 * math.sin(math.pi * (x[0] * x[1] if m >= 2 else x[0]))
    if m >= 3:
        y += 20.0 * (x[2] - 0.5) ** 2
    if m >= 4:
        y += 10.0 * x[3]
    if m >= 5:
        y += 5.0 * x[4]
    return y / 5.0


def test_surface_hand_values():
    x = np.full((1, 5), 0.5)
    # (10 sin(pi/4) + 20*0 + 5 + 2.5) / 5
    want = (10.0 * math.sin(math.pi / 4.0) + 7.5) / 5.0
    assert_allclose(synth_regression_surface(x), [[want]], rtol=1e-15)
    # m = 1 degrades the product term to x0 alone
    assert_allclose(synth_regression_surface(np.array([[0.5]])), [[2.0]], rtol=1e-15)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 9])
def test_surface_matches_reference_for_all_arities(m):
    rng = np.random.Generator(np.random.PCG64(m))
    x = rng.uniform(0.0, 1.0, size=(20, m))
    want = [[reference_surface(list(row))] for row in x]
    assert_allclose(synth_regression_surface(x), want, rtol=1e-12)


def test_surface_ignores_distractor_features():
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.uniform(0.0, 1.0, size=(30, 8))
    base = synth_regression_surface(x)
    x2 = x.copy()
    x2[:, 5:] = rng.uniform(0.0, 1.0, size=(30, 3))
    assert_array_equal(synth_regression_surface(x2), base)


def test_synth_regression_noise_free_is_exact_surface():
    ds = synth_regression(n=64, m=5, noise_std=0.0, seed=4)
    assert_array_equal(ds.targets, synth_regression_surface(ds.features))
    assert ds.feature_names == [f"x{j}" for j in range(5)]
    assert ds.target_name == "y"


def test_synth_regression_scale_multiplies_targets():
    a = synth_regression(n=32, m=5, seed=8, scale=1.0)
    b = synth_regression(n=32, m=5, seed=8, scale=0.25)
    assert_array_equal(a.features, b.features)
    assert_allclose(b.targets, 0.25 * a.targets, rtol=1e-15)


def test_synth_regression_noise_changes_targets_only():
    clean = synth_regression(n=128, m=4, noise_std=0.0, seed=6)
    noisy = synth_regression(n=128, m=4, noise_std=0.5, seed=6)
    assert_array_equal(clean.features, noisy.features)
    resid = noisy.targets - clean.targets
    assert np.std(resid) == pytest.approx(0.5, rel=0.2)


def test_synth_regression_validation():
    with pytest.raises(DataError):
        synth_regression(n=0, m=3)
    with pytest.raises(DataError):
        synth_regression(n=10, m=0)
    with pytest.raises(DataError):
        synth_regression(n=10, m=3, noise_std=-0.1)
    for bad_scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DataError, match="scale"):
            synth_regression(n=10, m=3, scale=bad_scale)


def test_synth_classification_shapes_and_labels():
    ds = synth_classification(n=90, m=3, classes=4, seed=2)
    assert ds.features.shape == (90, 3)
    assert ds.targets.shape == (90,)
    assert ds.targets.dtype == np.int64
    assert ds.n_classes == 4
    assert set(np.unique(ds.targets)) <= set(range(4))
    with pytest.raises(DataError):
        synth_classification(n=10, m=2, classes=1)


def test_benchmark_regression_is_frozen():
    ds = benchmark_regression()
    assert ds.features.shape == (BENCHMARK_N, BENCHMARK_M) == (4000, 8)
    # first coordinates pin the seed and generator
    assert ds.features[0, 0] == 0.6758313379812818
    assert float(ds.targets[0, 0]) == 2.8327755762885296
    again = benchmark_regression()
    assert_array_equal(ds.features, again.features)
    assert_array_equal(ds.targets, again.targets)


# ---------------------------------------------------------------------------
# CSV round trips and parse errors


def write_csv(ds, path):
    """``ds`` as a CSV with a header row; floats use shortest round-trip form."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*ds.feature_names, ds.target_name])
        for x_row, y_row in zip(ds.features, np.asarray(ds.targets).reshape(ds.n_samples, -1)):
            writer.writerow([repr(float(v)) for v in (*x_row, *y_row)])


def test_csv_roundtrip_regression(tmp_path):
    ds = synth_regression(n=25, m=3, noise_std=0.3, seed=5)
    path = tmp_path / "ds.csv"
    write_csv(ds, path)
    back = load_csv(path, target="y")
    assert_array_equal(back.features, ds.features)  # repr() round-trips floats
    assert_array_equal(back.targets, ds.targets)
    assert back.feature_names == ds.feature_names


def test_csv_roundtrip_classification(tmp_path):
    ds = synth_classification(n=20, m=2, classes=3, seed=1)
    path = tmp_path / "ds.csv"
    write_csv(ds, path)
    back = load_csv(path, target="label", task="classification")
    assert_array_equal(back.features, ds.features)
    assert_array_equal(back.targets, ds.targets)
    assert back.targets.dtype == np.int64


def test_load_csv_target_column_can_be_first(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,a,b\n1.5,2.0,3.0\n4.5,5.0,6.0\n")
    ds = load_csv(path, target="y")
    assert ds.feature_names == ["a", "b"]
    assert_array_equal(ds.features, [[2.0, 3.0], [5.0, 6.0]])
    assert_array_equal(ds.targets, [[1.5], [4.5]])


def test_load_csv_missing_file():
    with pytest.raises(DataError, match="cannot open"):
        load_csv("/nonexistent/ds.csv", target="y")


def test_load_csv_error_messages(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="header"):
        load_csv(empty, target="y")

    header_only = tmp_path / "header.csv"
    header_only.write_text("a,y\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(header_only, target="y")

    no_target = tmp_path / "no_target.csv"
    no_target.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="target column 'y'"):
        load_csv(no_target, target="y")

    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("a,y\n1.0,2.0\n1.0,oops\n")
    with pytest.raises(DataError, match="line 3, column 'y'.*'oops'"):
        load_csv(bad_cell, target="y")

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,y\n1.0,2.0,3.0\n")
    with pytest.raises(DataError, match="line 2 has 3 cells"):
        load_csv(ragged, target="y")

    frac_labels = tmp_path / "frac.csv"
    frac_labels.write_text("a,label\n1.0,0.5\n")
    with pytest.raises(DataError, match="non-negative integers"):
        load_csv(frac_labels, target="label", task="classification")


# ---------------------------------------------------------------------------
# splits and standardization


def test_split_sizes_floor_then_remainder():
    ds = synth_regression(n=1000, m=3, seed=0)
    split = split_standardize(ds, seed=0)
    assert split.train.n_samples == 640
    assert split.validation.n_samples == 160
    assert split.test.n_samples == 200

    tiny = synth_regression(n=10, m=2, seed=0)
    s = split_standardize(tiny, seed=0)
    assert (s.train.n_samples, s.validation.n_samples, s.test.n_samples) == (6, 1, 3)


def test_split_partitions_are_disjoint_and_complete():
    n = 97
    ds = synth_regression(n=n, m=2, seed=3)
    ds.targets = np.arange(n, dtype=np.float64).reshape(-1, 1)  # row ids
    split = split_standardize(ds, seed=5)
    seen = np.concatenate([
        split.train.targets.ravel(),
        split.validation.targets.ravel(),
        split.test.targets.ravel(),
    ])
    assert_array_equal(np.sort(seen), np.arange(n))


def test_split_is_seeded():
    ds = synth_regression(n=50, m=2, seed=0)
    a = split_standardize(ds, seed=1)
    b = split_standardize(ds, seed=1)
    c = split_standardize(ds, seed=2)
    assert_array_equal(a.train.targets, b.train.targets)
    assert not np.array_equal(a.train.targets, c.train.targets)


def test_standardization_statistics_come_from_train_split():
    ds = synth_regression(n=400, m=4, noise_std=0.2, seed=7)
    split = split_standardize(ds, seed=9)
    got_mean = split.train.features.mean(axis=0)
    got_std = split.train.features.std(axis=0)
    assert np.all(np.abs(got_mean) < 1e-10)
    assert np.all(np.abs(got_std - 1.0) < 1e-10)
    # validation/test use the train statistics, so they are close to but
    # not exactly standardized
    assert np.any(np.abs(split.test.features.mean(axis=0)) > 1e-10)


def test_standardization_handles_constant_feature():
    features = np.column_stack([
        np.full(40, 3.25),
        np.linspace(0.0, 1.0, 40),
    ])
    ds = Dataset(features=features, targets=np.zeros((40, 1)),
                 task="regression", feature_names=["c", "x"])
    split = split_standardize(ds, seed=0)
    # a zero-variance column maps to exactly 0, never NaN/Inf
    assert_array_equal(split.train.features[:, 0], np.zeros(split.train.n_samples))
    assert np.isfinite(split.test.features).all()


def test_split_standardize_regression_targets_untouched():
    ds = synth_regression(n=100, m=3, seed=11, scale=7.0)
    raw = ds.targets.copy()
    split = split_standardize(ds, seed=2)
    combined = np.concatenate([
        split.train.targets, split.validation.targets, split.test.targets,
    ])
    assert_array_equal(np.sort(combined.ravel()), np.sort(raw.ravel()))
    assert combined.max() > 4.0  # still in original units, not z-scored


def test_split_fraction_validation():
    ds = synth_regression(n=100, m=2, seed=0)
    with pytest.raises(DataError, match="sum to 1"):
        split_standardize(ds, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(DataError, match="positive"):
        split_standardize(ds, (1.0, 0.0, 0.0), seed=0)
    tiny = synth_regression(n=3, m=2, seed=0)
    with pytest.raises(DataError, match="empty partition"):
        split_standardize(tiny, (0.34, 0.33, 0.33), seed=0)


def test_dataset_validation():
    with pytest.raises(DataError, match="empty"):
        Dataset(features=np.zeros((0, 2)), targets=np.zeros((0, 1)),
                task="regression", feature_names=["a", "b"])
    with pytest.raises(DataError, match="unknown task"):
        Dataset(features=np.zeros((2, 2)), targets=np.zeros((2, 1)),
                task="ranking", feature_names=["a", "b"])
    with pytest.raises(DataError, match="target rows"):
        Dataset(features=np.zeros((2, 2)), targets=np.zeros((3, 1)),
                task="regression", feature_names=["a", "b"])
    with pytest.raises(DataError, match="non-finite"):
        Dataset(features=np.array([[np.nan, 0.0]]), targets=np.zeros((1, 1)),
                task="regression", feature_names=["a", "b"])
    reg = synth_regression(n=4, m=2, seed=0)
    with pytest.raises(DataError, match="classification"):
        reg.n_classes
