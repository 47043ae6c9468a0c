"""Connection counts and architecture summaries."""

import pytest

from caadam.arch import ArchitectureSummary, summarize
from caadam.errors import StructureError
from caadam.linalg import make_rng
from caadam.nn import NetworkSpec, init_network
from caadam.scaling import ScalingStrategy, compute_scale_table


def test_summarize_counts_weight_edges_not_biases():
    # 8 -> 64 -> 32 -> 1: connections are 512, 2048, 32
    net = init_network(NetworkSpec(8, (64, 32), 1), make_rng(0))
    s = summarize(net)
    assert s.counts == (512, 2048, 32)
    assert s.connection_counts() == [512, 2048, 32]


def test_summarize_even_layer_count_median():
    # 8 -> 64 -> 32 -> 16 -> 1: counts [512, 2048, 512, 16], sorted
    # [16, 512, 512, 2048], so the median is (512 + 512) / 2 and both layers
    # of 512 sit on it: neutral under the additive rule
    s = summarize(init_network(NetworkSpec(8, (64, 32, 16), 1), make_rng(0)))
    assert s.counts == (512, 2048, 512, 16)
    factors = compute_scale_table(ScalingStrategy("additive"), s).factors
    assert factors[0] == factors[2] == 1.0


def test_summarize_single_layer():
    net = init_network(NetworkSpec(5, (), 3), make_rng(0))
    assert summarize(net) == ArchitectureSummary((15,))


def test_summarize_rejects_empty_network():
    # a Network cannot be built without the layers its spec names
    empty = init_network(NetworkSpec(1, (), 1), make_rng(0))
    empty.layers = []
    with pytest.raises(StructureError, match="no trainable layers"):
        summarize(empty)
    with pytest.raises(StructureError, match="no trainable layers"):
        ArchitectureSummary(())
