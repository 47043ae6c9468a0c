"""The parameter layout: one float64 vector per network, with every layer's
(W, b) a view into it, and optimizers that update that vector in place."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from caadam.data import split_standardize, synth_regression
from caadam.errors import NonFiniteError
from caadam.linalg import make_rng
from caadam.nn import Network, NetworkSpec, backward, forward, init_network, split_views
from caadam.optim import ALGORITHMS, OptimizerConfig, make_optimizer
from caadam.scaling import ScalingStrategy
from caadam.train import STOP_EARLY, TrainConfig, train

SPEC = NetworkSpec(3, (4, 2), 1)


def assert_layers_view_flat(net):
    """A write to ``net.flat`` shows through every layer array, in the order
    W0, b0, W1, b1, ... with each weight matrix row-major."""
    saved = net.flat.copy()
    marker = np.arange(net.flat.size, dtype=np.float64)
    net.flat[:] = marker
    seen = np.concatenate([a.ravel() for pair in net.layers for a in pair])
    net.flat[:] = saved
    assert_array_equal(seen, marker)


def make_optimizer_for(algorithm, net):
    scaling = ScalingStrategy("multiplicative") if algorithm == "caadam" else None
    return make_optimizer(OptimizerConfig(algorithm, scaling=scaling), net)


def test_network_copies_given_arrays_into_its_vector():
    w, b = np.ones((2, 3)), np.zeros(3)
    net = Network(spec=NetworkSpec(2, (), 3), layers=[(w, b)])
    assert net.flat.dtype == np.float64 and net.flat.size == 9
    assert_layers_view_flat(net)
    net.layers[0][0][0, 0] = 5.0
    assert w[0, 0] == 1.0  # the caller's array is not aliased
    assert net.flat[0] == 5.0


def test_set_weights_copies_into_the_vector():
    net = init_network(SPEC, make_rng(1))
    flat = net.flat
    snapshot = init_network(SPEC, make_rng(2)).copy_weights()
    net.set_weights(snapshot)
    assert net.flat is flat
    assert_layers_view_flat(net)
    assert_array_equal(net.flat, snapshot)


def test_early_stop_rollback_keeps_layers_viewing_the_vector():
    ds = synth_regression(n=200, m=4, noise_std=0.2, seed=9)
    split = split_standardize(ds, seed=10)
    net = init_network(NetworkSpec(4, (8,), 1), make_rng(11))
    flat = net.flat
    net, log = train(net, make_optimizer(OptimizerConfig("adam")), split,
                     TrainConfig(batch_size=32, seed=4))
    assert log.stop_reason == STOP_EARLY
    assert net.flat is flat
    assert_layers_view_flat(net)


def test_backward_gradients_view_one_vector():
    net = init_network(SPEC, make_rng(3))
    _, cache = forward(net, make_rng(4).normal(size=(5, 3)))
    grads = backward(net, cache, np.zeros((5, 1)))
    assert grads.shape == net.flat.shape
    seen = np.concatenate([a.ravel() for pair in cache.grad_layers for a in pair])
    assert_array_equal(seen, grads)
    assert all(np.shares_memory(a, grads) for pair in cache.grad_layers for a in pair)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_step_moves_what_forward_reads(algorithm):
    net = init_network(SPEC, make_rng(5))
    x = make_rng(6).normal(size=(7, 3))
    before, cache = forward(net, x)
    opt = make_optimizer_for(algorithm, net)
    opt.step(net, backward(net, cache, np.ones((7, 1))), lr=0.1)
    after, _ = forward(net, x)
    assert not np.array_equal(after, before)
    rebuilt, _ = forward(Network(spec=SPEC, layers=net.layers), x)
    assert_array_equal(after, rebuilt)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_nonfinite_gradient_leaves_the_vector_untouched(algorithm):
    net = init_network(SPEC, make_rng(7))
    opt = make_optimizer_for(algorithm, net)
    good = net.flat.copy()
    opt.step(net, good)
    before = net.flat.copy()
    bad = net.flat.copy()
    split_views(bad, net.shapes)[3][0] = np.inf  # b1: tensor 3 of W0, b0, W1, b1, W2, b2
    with pytest.raises(NonFiniteError, match="tensor 3 at step t=2"):
        opt.step(net, bad)
    assert net.flat.tobytes() == before.tobytes()
    assert_layers_view_flat(net)
