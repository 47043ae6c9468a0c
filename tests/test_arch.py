"""Connection counts and architecture summaries."""

import pytest

from caadam.arch import median_of, summarize
from caadam.errors import StructureError
from caadam.linalg import make_rng
from caadam.nn import NetworkSpec, init_network


def test_summarize_counts_weight_edges_not_biases():
    # 8 -> 64 -> 32 -> 1: connections are 512, 2048, 32
    net = init_network(NetworkSpec(8, (64, 32), 1), make_rng(0))
    s = summarize(net)
    assert s.connection_counts() == [512, 2048, 32]
    assert [info.index for info in s.layers] == [0, 1, 2]
    assert s.c_min == 32
    assert s.c_max == 2048
    assert s.c_median == 512.0
    assert s.total_depth == 3


def test_summarize_even_layer_count_median():
    # 8 -> 64 -> 32 -> 16 -> 1: counts [512, 2048, 512, 16],
    # sorted [16, 512, 512, 2048] -> median (512 + 512) / 2
    net = init_network(NetworkSpec(8, (64, 32, 16), 1), make_rng(0))
    s = summarize(net)
    assert s.connection_counts() == [512, 2048, 512, 16]
    assert s.c_median == 512.0
    assert s.total_depth == 4


def test_summarize_single_layer():
    net = init_network(NetworkSpec(5, (), 3), make_rng(0))
    s = summarize(net)
    assert s.connection_counts() == [15]
    assert s.c_min == s.c_max == 15
    assert s.c_median == 15.0
    assert s.total_depth == 1


def test_summarize_rejects_empty_network():
    # a Network cannot be built without the layers its spec names
    empty = init_network(NetworkSpec(1, (), 1), make_rng(0))
    empty.layers = []
    with pytest.raises(StructureError, match="no trainable layers"):
        summarize(empty)


def test_median_of_odd_and_even():
    assert median_of([3, 1, 2]) == 2.0
    assert median_of([4, 1, 3, 2]) == 2.5
    assert median_of([7]) == 7.0
    assert median_of([5, 5, 5, 5]) == 5.0
    # input order must not matter
    assert median_of([2048, 16, 512, 512]) == median_of([16, 512, 512, 2048])
