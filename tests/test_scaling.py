"""Per-layer scale factor computation for all three strategies.

The worked three-layer example used throughout: connection counts
[100, 200, 400], so c_min=100, median=200, c_max=400, and gamma=0.95.
"""

import math
import statistics

import pytest
from numpy.testing import assert_allclose

from caadam.errors import ConfigError, ShapeError
from caadam.linalg import make_rng
from caadam.nn import NetworkSpec
from caadam.scaling import (
    ADDITIVE,
    DEPTH,
    MULTIPLICATIVE,
    ScaleTable,
    ScalingStrategy,
    compute_scale_table,
)

THREE = (100, 200, 400)


def table(kind, counts, gamma=0.95, sigma="signed"):
    return compute_scale_table(ScalingStrategy(kind, gamma, sigma), counts)


def test_additive_worked_example():
    # smallest layer: 1 + 0.95, median: 1, largest: 1 - 0.95
    assert_allclose(table(ADDITIVE, THREE).factors, [1.95, 1.0, 0.05], atol=1e-15)


def test_multiplicative_signed_worked_example():
    # smallest layer sits at sigma=-1 -> 1/gamma; largest at sigma=1 -> gamma
    assert_allclose(table(MULTIPLICATIVE, THREE).factors, [1.0 / 0.95, 1.0, 0.95], rtol=1e-15)


def test_multiplicative_unsigned_damps_both_extremes():
    factors = table(MULTIPLICATIVE, THREE, sigma="unsigned").factors
    assert_allclose(factors, [0.95, 1.0, 0.95], rtol=1e-15)
    # the kind aliases and a non-default gamma reach the same rule
    assert (table("multiplicative_minmaxmedian", THREE, 0.5, "unsigned").factors
            == table(MULTIPLICATIVE, THREE, 0.5, "unsigned").factors == (0.5, 1.0, 0.5))


def test_depth_worked_example():
    # three layers: exponents 2/3, 1/3, 0 over base 1 + gamma = 1.95
    depth = table(DEPTH, THREE)
    assert_allclose(depth.factors, [1.5608328885725442, 1.2493329774613908, 1.0], rtol=1e-15)
    assert depth[-1] == 1.0
    assert table("depth_based", THREE, 0.5).factors == table(DEPTH, THREE, 0.5).factors


def test_real_network_scale_tables():
    # 8 -> 64 -> 32 -> 1 has counts [512, 2048, 32], median 512: the middle
    # (largest) layer is damped, the output layer enhanced, the input layer
    # sits exactly on the median and stays neutral.
    counts = NetworkSpec(8, (64, 32), 1).connection_counts
    assert_allclose(table(ADDITIVE, counts).factors, [1.0, 0.05, 1.95], atol=1e-15)
    assert_allclose(table(MULTIPLICATIVE, counts).factors, [1.0, 0.95, 1.0 / 0.95], rtol=1e-15)


def test_even_layer_count_median_is_neutral_on_the_median_layers():
    # 8 -> 64 -> 32 -> 16 -> 1: counts [512, 2048, 512, 16], sorted
    # [16, 512, 512, 2048], so the median is (512 + 512) / 2 and both layers
    # of 512 sit on it: neutral under the additive rule
    counts = NetworkSpec(8, (64, 32, 16), 1).connection_counts
    assert counts == (512, 2048, 512, 16)
    factors = table(ADDITIVE, counts).factors
    assert factors[0] == factors[2] == 1.0


@pytest.mark.parametrize("kind", [ADDITIVE, MULTIPLICATIVE, DEPTH])
def test_no_trainable_layers_is_a_shape_error(kind):
    # no NetworkSpec has zero layers, but compute_scale_table is public
    with pytest.raises(ShapeError, match="no trainable layers"):
        table(kind, ())


# The factors of every kind on the benchmark architectures at the default
# gamma, recorded from the per-rule functions that preceded compute_scale_table.
# Their counts are (512, 2048, 32), (512, 192) and (1024, 2048, 192).
_BENCHMARK_TABLES = {
    (8, (64, 32), 1): {
        "additive": (1.0, 0.050000000000000044, 1.95),
        "multiplicative": (1.0, 0.95, 1.0526315789473684),
        "unsigned": (1.0, 0.95, 0.95),
        "depth": (1.5608328885725442, 1.2493329774613908, 1.0)},
    (16, (32,), 6): {
        "additive": (0.050000000000000044, 1.95),
        "multiplicative": (0.95, 1.0526315789473684),
        "unsigned": (0.95, 0.95),
        "depth": (1.396424004376894, 1.0)},
    (16, (64, 32), 6): {
        "additive": (1.0, 0.050000000000000044, 1.95),
        "multiplicative": (1.0, 0.95, 1.0526315789473684),
        "unsigned": (1.0, 0.95, 0.95),
        "depth": (1.5608328885725442, 1.2493329774613908, 1.0)},
}


@pytest.mark.parametrize("dims", sorted(_BENCHMARK_TABLES))
def test_benchmark_architecture_tables_are_exact(dims):
    counts = NetworkSpec(*dims).connection_counts
    got = {kind: table(kind, counts).factors for kind in (ADDITIVE, MULTIPLICATIVE, DEPTH)}
    got["unsigned"] = table(MULTIPLICATIVE, counts, sigma="unsigned").factors
    assert got == _BENCHMARK_TABLES[dims]


def test_four_layer_interior_positions():
    # counts [1024, 8192, 2048, 32]: median is (1024 + 2048) / 2 = 1536, so
    # two layers sit strictly between an extreme and the median
    got = table(MULTIPLICATIVE, (1024, 8192, 2048, 32))
    expected = []
    for c in [1024, 8192, 2048, 32]:
        if c <= 1536:
            sigma = -(1536.0 - c) / (1536.0 - 32.0)
        else:
            sigma = (c - 1536.0) / (8192.0 - 1536.0)
        expected.append(0.95**sigma)
    assert_allclose(got.factors, expected, rtol=1e-14)


def test_degenerate_architecture_is_neutral():
    # all layers share one connection count: both min-max-median rules
    # collapse to S = 1 everywhere
    for kind in (ADDITIVE, MULTIPLICATIVE):
        assert table(kind, (320, 320, 320)).factors == (1.0, 1.0, 1.0)
        assert table(kind, (48,)).factors == (1.0,)
    # an even count's median is the mean of the middle two, here (2 + 4) / 2 = 3,
    # whatever the layer order: the layers of 4 and 2 sit halfway to an extreme
    assert table(ADDITIVE, (5, 1, 4, 2), 0.5).factors == (0.5, 1.5, 0.75, 1.25)


def test_multiplicative_symmetry_and_additive_range_random_architectures():
    rng = make_rng(20)
    for _ in range(50):
        depth = int(rng.integers(1, 6))
        sizes = [int(rng.integers(1, 200)) for _ in range(depth + 1)]
        counts = tuple(a * b for a, b in zip(sizes[:-1], sizes[1:]))
        gamma = float(rng.uniform(0.05, 0.99))

        add = table(ADDITIVE, counts, gamma)
        assert all(1.0 - gamma - 1e-12 <= s <= 1.0 + gamma + 1e-12
                   for s in add.factors)

        mult = table(MULTIPLICATIVE, counts, gamma)
        assert all(gamma - 1e-12 <= s <= 1.0 / gamma + 1e-12 for s in mult.factors)
        if min(counts) < statistics.median(counts) < max(counts):
            s_min = mult.factors[counts.index(min(counts))]
            s_max = mult.factors[counts.index(max(counts))]
            assert abs(s_min * s_max - 1.0) <= 1e-12

        dep = table(DEPTH, counts, gamma)
        assert dep.factors[-1] == 1.0
        assert all(a >= b for a, b in zip(dep.factors, dep.factors[1:]))


def test_strategy_kind_aliases():
    assert ScalingStrategy("additive_minmaxmedian").kind == ADDITIVE
    assert ScalingStrategy("multiplicative_minmaxmedian").kind == MULTIPLICATIVE
    assert ScalingStrategy("depth_based").kind == DEPTH
    with pytest.raises(ConfigError, match="unknown scaling kind"):
        ScalingStrategy("fanout")


def test_strategy_gamma_validation():
    with pytest.raises(ConfigError, match="gamma"):
        ScalingStrategy(ADDITIVE, gamma=0.0)
    with pytest.raises(ConfigError, match="gamma"):
        ScalingStrategy(MULTIPLICATIVE, gamma=1.0)
    with pytest.raises(ConfigError, match="gamma"):
        ScalingStrategy(DEPTH, gamma=-1.0)
    # depth tolerates gamma >= 1 (the base just grows)
    assert ScalingStrategy(DEPTH, gamma=2.0).gamma == 2.0


def test_strategy_sigma_validation():
    with pytest.raises(ConfigError, match="multiplicative_sigma"):
        ScalingStrategy(MULTIPLICATIVE, multiplicative_sigma="abs")
    assert ScalingStrategy(MULTIPLICATIVE).multiplicative_sigma == "signed"


@pytest.mark.parametrize("kind", ["additive", "additive_minmaxmedian", "depth", "depth_based"])
def test_unsigned_sigma_is_only_valid_for_multiplicative(kind):
    # these rules have no sigma convention, so an unsigned one would do nothing
    with pytest.raises(ConfigError, match="only valid for multiplicative"):
        ScalingStrategy(kind, multiplicative_sigma="unsigned")


def test_scale_table_validation_and_indexing():
    table = ScaleTable((1.5, 1.0, 0.5))
    assert len(table) == 3
    assert table[0] == 1.5 and table[2] == 0.5
    with pytest.raises(ConfigError, match="positive and finite"):
        ScaleTable((1.0, 0.0))
    with pytest.raises(ConfigError):
        ScaleTable((math.nan,))
    with pytest.raises(ConfigError):
        ScaleTable((-0.5,))
