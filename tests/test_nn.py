"""Forward pass, losses, and backpropagation against hand-worked values and
finite differences."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from caadam.errors import NonFiniteError, ShapeError
from caadam.linalg import make_rng
from caadam.nn import (
    BLOCK_ROWS,
    CLASSIFICATION,
    FORWARD_BLOCK_ROWS,
    REGRESSION,
    Network,
    NetworkSpec,
    Workspace,
    backward,
    forward,
    init_network,
    loss,
    softmax,
)


def hand_net():
    """2 -> 2 -> 1 regression network with fixed weights.

    Worked forward pass for x = [1, 2]:
        z0 = [1*1 + 2*2, 1*(-1) + 2*0.5] + [0.5, -1] = [5.5, -1]
        h0 = relu(z0) = [5.5, 0]
        y  = 5.5*1 + 0*(-2) + 0.25 = 5.75
    """
    spec = NetworkSpec(2, (2,), 1)
    layers = [
        (np.array([[1.0, -1.0], [2.0, 0.5]]), np.array([0.5, -1.0])),
        (np.array([[1.0], [-2.0]]), np.array([0.25])),
    ]
    return Network(spec=spec, layers=layers)


def test_forward_hand_case():
    net = hand_net()
    pred, cache = forward(net, np.array([[1.0, 2.0]]))
    assert pred.shape == (1, 1)
    assert pred[0, 0] == 5.75
    assert_array_equal(cache.batch, [[1.0, 2.0]])
    assert_array_equal(cache.outputs[0], [[5.5, 0.0]])  # relu clipped the -1


def test_forward_rejects_wrong_feature_count():
    net = hand_net()
    with pytest.raises(ShapeError, match="network expects 2"):
        forward(net, np.zeros((3, 4)))


def test_forward_rejects_nonfinite_activations():
    net = hand_net()
    net.layers[0][0][0, 0] = np.inf
    with pytest.raises(NonFiniteError):
        forward(net, np.array([[1.0, 2.0]]))


def test_mse_hand_value():
    # elementwise mean: ((1-0)^2 + (3-0)^2) / 2 = 5
    assert loss(np.array([[1.0], [3.0]]), np.zeros((2, 1)), REGRESSION) == 5.0


def test_mse_scale_independent_of_batch_size():
    pred = np.full((10, 1), 2.0)
    assert loss(pred, np.zeros((10, 1)), REGRESSION) == 4.0


def test_cross_entropy_hand_value():
    # uniform logits over two classes -> -log(1/2)
    value = loss(np.array([[0.0, 0.0]]), [0], CLASSIFICATION)
    assert_allclose(value, math.log(2.0), rtol=1e-15)


def test_cross_entropy_is_mean_over_rows():
    logits = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
    want = (2 * math.log(2.0) + -math.log(math.exp(10) / (math.exp(10) + 1))) / 3
    assert_allclose(loss(logits, [0, 1, 0], CLASSIFICATION), want, rtol=1e-12)


def test_loss_shape_and_head_errors():
    with pytest.raises(ShapeError):
        loss(np.zeros((2, 1)), np.zeros((3, 1)), REGRESSION)
    with pytest.raises(ValueError, match="unsupported output head"):
        loss(np.zeros((2, 1)), np.zeros((2, 1)), "huber")
    with pytest.raises(ShapeError, match="out of range"):
        loss(np.zeros((2, 3)), [0, 3], CLASSIFICATION)
    # a fractional or NaN class target is refused, not truncated to a class
    net = init_network(NetworkSpec(2, (), 3, CLASSIFICATION), make_rng(0))
    for targets in ([0.5, 2.9], [0.0, math.nan]):
        with pytest.raises(ShapeError, match="not whole"):
            loss(np.zeros((2, 3)), np.array(targets), CLASSIFICATION)
        _, cache = forward(net, np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="not whole"):
            backward(net, cache, np.array(targets))
    assert_allclose(loss(np.zeros((2, 3)), np.array([0.0, 2.0]), CLASSIFICATION),
                    math.log(3.0), rtol=1e-12)
    with pytest.raises(NonFiniteError):
        loss(np.array([[1e200]]), np.array([[-1e200]]), REGRESSION)


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = make_rng(3)
    logits = rng.normal(size=(6, 4)) * 3.0
    p = softmax(logits)
    assert_allclose(p.sum(axis=1), np.ones(6), atol=1e-12)
    assert_allclose(softmax(logits + 17.0), p, atol=1e-12)


def test_softmax_stable_for_large_logits():
    p = softmax(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all()
    assert_allclose(p, [[1.0, 0.0]], atol=1e-300)


# ---------------------------------------------------------------------------
# backward: hand-worked gradients
#
# Single layer 1 -> 1, w=1, b=0, x=2, y=0:
#   pred = 2, loss = 4, dz = 2*(2-0)/1 = 4, dW = x*dz = 8, db = 4.


def test_backward_single_layer_hand_case():
    spec = NetworkSpec(1, (), 1)
    net = Network(spec=spec, layers=[(np.array([[1.0]]), np.array([0.0]))])
    pred, cache = forward(net, np.array([[2.0]]))
    assert pred[0, 0] == 2.0
    grads = backward(net, cache, np.array([[0.0]]))
    assert grads.layers[0][0][0, 0] == 8.0
    assert grads.layers[0][1][0] == 4.0


def test_backward_two_layer_hand_case():
    # continuing the hand_net() forward pass with target y = 0:
    #   dz1 = 2 * 5.75 = 11.5
    #   dW1 = h0^T dz1 = [[63.25], [0]],        db1 = [11.5]
    #   dh0 = dz1 W1^T = [11.5, -23]
    #   dz0 = dh0 * (z0 > 0) = [11.5, 0]        (second unit was clipped)
    #   dW0 = x^T dz0 = [[11.5, 0], [23, 0]],   db0 = [11.5, 0]
    net = hand_net()
    _, cache = forward(net, np.array([[1.0, 2.0]]))
    grads = backward(net, cache, np.array([[0.0]]))
    (dw0, db0), (dw1, db1) = grads.layers
    assert_allclose(dw1, [[63.25], [0.0]], atol=1e-14)
    assert_allclose(db1, [11.5], atol=1e-14)
    assert_allclose(dw0, [[11.5, 0.0], [23.0, 0.0]], atol=1e-14)
    assert_allclose(db0, [11.5, 0.0], atol=1e-14)


def test_backward_classification_hand_case():
    # logits [0, 0], true class 0: softmax = [.5, .5], dz = [-.5, .5]
    spec = NetworkSpec(1, (), 2, output_head=CLASSIFICATION)
    net = Network(spec=spec, layers=[(np.array([[0.0, 0.0]]), np.array([0.0, 0.0]))])
    _, cache = forward(net, np.array([[1.0]]))
    grads = backward(net, cache, [0])
    assert_allclose(grads.layers[0][0], [[-0.5, 0.5]], atol=1e-15)
    assert_allclose(grads.layers[0][1], [-0.5, 0.5], atol=1e-15)


def _numeric_grads(net, x, y, head, h=1e-6):
    """Central finite differences over every parameter."""
    out = []
    for w, b in net.layers:
        dw = np.zeros_like(w)
        db = np.zeros_like(b)
        for arr, darr in ((w, dw), (b, db)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                hi = loss(forward(net, x)[0], y, head)
                arr[idx] = orig - h
                lo = loss(forward(net, x)[0], y, head)
                arr[idx] = orig
                darr[idx] = (hi - lo) / (2.0 * h)
        out.append((dw, db))
    return out


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.abs(n), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


@pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
def test_gradients_match_finite_differences_regression(hidden):
    rng = make_rng(11)
    net = init_network(NetworkSpec(3, hidden, 2), rng)
    x = rng.uniform(-1.0, 1.0, size=(5, 3))
    y = rng.normal(size=(5, 2))
    _, cache = forward(net, x)
    grads = backward(net, cache, y)
    numeric = _numeric_grads(net, x, y, REGRESSION)
    assert _max_rel_err(grads.layers, numeric) <= 1e-4


@pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
def test_gradients_match_finite_differences_classification(hidden):
    rng = make_rng(12)
    net = init_network(NetworkSpec(3, hidden, 3, output_head=CLASSIFICATION), rng)
    x = rng.uniform(-1.0, 1.0, size=(5, 3))
    y = rng.integers(0, 3, size=5)
    _, cache = forward(net, x)
    grads = backward(net, cache, y)
    numeric = _numeric_grads(net, x, y, CLASSIFICATION)
    assert _max_rel_err(grads.layers, numeric) <= 1e-4


def test_backward_rejects_foreign_cache():
    rng = make_rng(0)
    net_a = init_network(NetworkSpec(3, (4,), 1), rng)
    net_b = init_network(NetworkSpec(3, (5,), 1), rng)
    _, cache = forward(net_a, np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        backward(net_b, cache, np.zeros((2, 1)))


def test_backward_rejects_wrong_target_shape():
    net = hand_net()
    _, cache = forward(net, np.array([[1.0, 2.0]]))
    with pytest.raises(ShapeError):
        backward(net, cache, np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# construction and bookkeeping


@pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
def test_workspace_calls_match_one_call_workspaces_and_reuse_the_buffers(head):
    rng = make_rng(8)
    classes = 3 if head == CLASSIFICATION else 1
    net = init_network(NetworkSpec(4, (7, 5), classes, head), rng)
    x = rng.normal(size=(23, 4))
    y = rng.integers(0, classes, size=23) if head == CLASSIFICATION else rng.normal(size=(23, 1))
    ws = Workspace(net, rows=23)
    # one set of output rows per layer (ReLU in place) and one gradient
    # vector; no rows of errors
    assert ws.block.size == 23 * (7 + 5 + classes) + net.flat.size
    grads_ws = []
    for rows in (slice(0, 10), slice(20, 23)):  # a full batch, then a remainder batch
        pred, cache = forward(net, x[rows])
        grads = backward(net, cache, y[rows])
        pred_ws, cache_ws = forward(net, x[rows], ws)
        assert cache_ws is ws  # the workspace is the cache
        kept = pred_ws.copy()
        grads_ws.append(backward(net, cache_ws, y[rows]))
        assert grads_ws[-1] is ws.grads
        assert_array_equal(pred_ws, pred)
        assert_array_equal(pred_ws, kept)  # backward leaves the prediction as it was
        assert_array_equal(grads_ws[-1].flat, grads.flat)
        assert not np.shares_memory(grads.flat, ws.block)
    with pytest.raises(ValueError, match="already consumed"):  # its hidden rows hold errors now
        backward(net, cache_ws, y[rows])
    assert all(np.shares_memory(g.flat, ws.block) for g in grads_ws)
    assert grads_ws[0].flat is grads_ws[1].flat  # the second step overwrote the first
    pred, cache = forward(net, x, ws)  # evaluation uses every row
    assert np.shares_memory(pred, ws.block)
    with pytest.raises(NonFiniteError):
        forward(net, np.full((2, 4), np.inf), ws)
    with pytest.raises(ValueError, match="forward raised"):  # nothing left to consume
        backward(net, ws, y[:2])
    with pytest.raises(ShapeError, match="workspace holds 23 rows"):
        forward(net, np.zeros((24, 4)), ws)
    with pytest.raises(ShapeError, match="workspace holds"):
        forward(init_network(NetworkSpec(4, (6,), classes, head), rng), x, ws)


@pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
def test_blocked_forward_matches_one_block_and_leaves_no_cache(head):
    rng = make_rng(12)
    classes = 3 if head == CLASSIFICATION else 1
    net = init_network(NetworkSpec(4, (7, 5), classes, head), rng)
    rows = 2 * BLOCK_ROWS + 3
    x = rng.normal(size=(rows, 4))
    y = (rng.integers(0, classes, size=rows) if head == CLASSIFICATION
         else rng.normal(size=(rows, 1)))
    whole, whole_cache = forward(net, x)  # without a workspace, every row is one block
    assert whole_cache.block_rows == rows
    ws = Workspace(net, rows)  # two blocks of BLOCK_ROWS and a remainder of 3
    assert ws.block_rows == BLOCK_ROWS
    # hidden rows for one block, output rows for every row, one gradient vector
    assert ws.block.size == BLOCK_ROWS * (7 + 5) + rows * classes + net.flat.size
    pred, cache = forward(net, x, ws)
    assert_array_equal(pred, whole)
    assert np.shares_memory(pred, ws.block)
    assert loss(pred, y, head) == loss(whole, y, head)
    with pytest.raises(ValueError, match="more than one row block"):
        backward(net, cache, y)
    backward(net, whole_cache, y)  # the one-block pass is a cache
    # a forward of at most one block is the cache for backward, as before
    one, one_cache = forward(net, x[:5])
    expected = backward(net, one_cache, y[:5]).flat
    pred, cache = forward(net, x[:5], ws)
    assert_array_equal(pred, one)
    assert_array_equal(backward(net, cache, y[:5]).flat, expected)
    # the rows a caller names stay one block; a block is never taller than rows
    assert Workspace(net, rows, batch_rows=BLOCK_ROWS + 1).block_rows == BLOCK_ROWS + 1
    assert Workspace(net, rows=3, batch_rows=5).block_rows == 3


@pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
def test_forward_only_workspace_holds_no_gradients_and_leaves_no_cache(head):
    rng = make_rng(13)
    classes = 3 if head == CLASSIFICATION else 1
    net = init_network(NetworkSpec(4, (7, 5), classes, head), rng)
    rows = 2 * FORWARD_BLOCK_ROWS + 3
    x = rng.normal(size=(rows, 4))
    y = (rng.integers(0, classes, size=5) if head == CLASSIFICATION
         else rng.normal(size=(5, 1)))
    ws = Workspace(net, rows, backward=False)
    assert ws.grads is None and ws.block_rows == FORWARD_BLOCK_ROWS < BLOCK_ROWS
    assert ws.block.size == FORWARD_BLOCK_ROWS * (7 + 5) + rows * classes
    whole, _ = forward(net, x)
    assert_array_equal(forward(net, x, ws)[0], whole)
    pred, cache = forward(net, x[:5], ws)  # one block, and still no cache
    assert_array_equal(pred, whole[:5])
    with pytest.raises(ValueError, match="forward-only"):
        backward(net, cache, y)
    assert Workspace(net, rows=3, backward=False).block_rows == 3


# The products for which backward calls np.dot: the output layer's weight
# gradient and the error it sends down, as (rows, inputs to the output
# layer, outputs).  Every benchmark shape's training batch: trial-narrow and
# trial-wide on 2560 training rows and grid-zoo on 1920 leave no partial
# batch, so odd row counts stand in for one; (64, 8, 1) is a net with no
# hidden layer.
@pytest.mark.parametrize("rows, fan_in, k", [
    (64, 32, 1), (512, 128, 1), (482, 128, 1), (64, 32, 6), (37, 32, 6), (64, 8, 1)])
def test_output_layer_products_are_bit_identical_with_dot_and_matmul(rows, fan_in, k):
    rng = make_rng(rows + fan_in + k)
    for scale in (1e-3, 1.0, 1e3):
        below = np.maximum(rng.normal(size=(rows, fan_in)) * scale, 0.0)
        w = rng.normal(size=(fan_in, k))
        dz = rng.normal(size=(rows, k)) / rows
        dz[rng.random(dz.shape) < 0.2] = -0.0
        for a, b in ((below.T, dz), (dz, w.T)):  # as backward calls them, into out=
            by_dot, by_matmul = np.empty((2, a.shape[0], b.shape[1]))
            np.dot(a, b, out=by_dot)
            np.matmul(a, b, out=by_matmul)
            assert by_dot.tobytes() == by_matmul.tobytes()


def test_network_rejects_layers_that_do_not_match_its_spec():
    (w0, b0), (w1, b1) = hand_net().layers
    spec = NetworkSpec(2, (2,), 1)
    with pytest.raises(ShapeError, match=r"parameter 2 \(W1\) has shape \(1, 1\), not \(2, 1\)"):
        Network(spec=spec, layers=[(w0, b0), (w1[:1], b1)])
    with pytest.raises(ShapeError, match=r"parameter 1 \(b0\)"):
        Network(spec=spec, layers=[(w0, b0[:1]), (w1, b1)])
    with pytest.raises(ShapeError, match="2 tensors for 4"):
        Network(spec=spec, layers=[(w0, b0)])


def test_init_network_glorot_weights_zero_biases():
    spec = NetworkSpec(4, (8, 3), 2)
    net = init_network(spec, make_rng(9))
    assert [w.shape for w, _ in net.layers] == [(4, 8), (8, 3), (3, 2)]
    for (fan_in, fan_out), (w, b) in zip(spec.layer_dims, net.layers):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
        assert_array_equal(b, np.zeros(fan_out))


def test_network_spec_validation():
    with pytest.raises(ShapeError):
        NetworkSpec(0, (4,), 1)
    with pytest.raises(ShapeError):
        NetworkSpec(4, (0,), 1)
    with pytest.raises(ValueError, match="output head"):
        NetworkSpec(4, (4,), 1, output_head="sigmoid")


def test_parameters_order_and_snapshot_roundtrip():
    net = init_network(NetworkSpec(3, (4,), 2), make_rng(2))
    w0, b0 = net.layers[0]
    assert_array_equal(net.flat[: w0.size + b0.size], np.concatenate([w0.ravel(), b0]))
    snap = net.copy_weights()
    assert snap.shape == net.flat.shape and not np.shares_memory(snap, net.flat)
    net.layers[0][0][0, 0] += 1.0
    assert net.flat[0] != snap[0]  # snapshot is a copy
    net.set_weights(snap)
    assert_array_equal(net.flat, snap)
    for bad in (snap[:1], snap.reshape(1, -1), np.append(snap, 0.0)):
        with pytest.raises(ShapeError, match="snapshot has shape"):
            net.set_weights(bad)
    assert_array_equal(net.flat, snap)
