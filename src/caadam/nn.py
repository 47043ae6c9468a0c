"""Dense feed-forward networks with exact backpropagation.

A network is a chain of fully connected layers: ReLU on every hidden layer
and either a linear output (regression) or raw logits consumed by a softmax
cross-entropy loss (classification).  ``forward`` returns the prediction
together with the ``Workspace`` it wrote, which is the activation cache that
``backward`` needs to produce analytic gradients for every weight and bias.

Parameters live in one contiguous float64 vector per network, laid out
W0, b0, W1, b1, ... with each weight matrix row-major; the per-layer
``(W, b)`` pairs are views into it.  Gradients and weight snapshots use the
same layout, so an optimizer updates a whole network with one vector expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import CLASSIFICATION_TASK as CLASSIFICATION, REGRESSION_TASK as REGRESSION
from .errors import NonFiniteError, ShapeError
from .linalg import Matrix, as_matrix, glorot_uniform

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class NetworkSpec:
    """Layer sizes plus the output head, which is a dataset task string."""

    input_dim: int
    hidden_sizes: tuple[int, ...]
    output_dim: int
    output_head: str = REGRESSION

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        sizes = (self.input_dim, *self.hidden_sizes, self.output_dim)
        if any(s < 1 for s in sizes):
            raise ShapeError(f"all layer sizes must be >= 1, got {sizes}")
        if self.output_head not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unsupported output head {self.output_head!r}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) of every trainable layer, in forward order."""
        sizes = (self.input_dim, *self.hidden_sizes, self.output_dim)
        return list(zip(sizes[:-1], sizes[1:]))

    @property
    def multiply_adds(self) -> int:
        """Multiply-adds per row of a forward pass: ``sum(fan_in * fan_out)``."""
        return sum(fan_in * fan_out for fan_in, fan_out in self.layer_dims)


def split_views(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive slices of ``vector`` reshaped to ``shapes``, as views."""
    out = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(vector[offset : offset + size].reshape(shape))
        offset += size
    return out


def check_shapes(got: tuple, want: tuple, what: str) -> None:
    """Raise a ShapeError naming the first tensor whose shape in ``got`` is not
    the one in ``want``; both list per-tensor shapes in order W0, b0, W1, ..."""
    if got == want:
        return
    if len(got) != len(want):
        raise ShapeError(f"{what} does not match the network parameter count: "
                         f"{len(got)} tensors for {len(want)}")
    i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
    raise ShapeError(f"{what}: parameter {i} ({'Wb'[i % 2]}{i // 2}) has shape {got[i]}, "
                     f"not {want[i]}")


def _pairs(tensors: list[np.ndarray]) -> list[tuple[Matrix, np.ndarray]]:
    return list(zip(tensors[::2], tensors[1::2]))


def _pack(layers) -> tuple[np.ndarray, tuple, list[tuple[Matrix, np.ndarray]]]:
    """Copy (W, b) pairs into one new vector; returns (vector, per-tensor
    shapes, (W, b) views into the vector)."""
    tensors = [np.asarray(a, dtype=np.float64) for pair in layers for a in pair]
    shapes = tuple(a.shape for a in tensors)
    vector = np.empty(sum(a.size for a in tensors))
    views = split_views(vector, shapes)
    for view, a in zip(views, tensors):
        view[...] = a
    return vector, shapes, _pairs(views)


@dataclass
class Network:
    """Layer layout plus parameters.  ``flat`` owns every parameter;
    ``layers`` holds (weights (fan_in, fan_out), bias (fan_out,)) views into
    it, and ``shapes`` the per-tensor shapes in order W0, b0, W1, ...
    Constructing a Network copies the given arrays into a new ``flat``;
    arrays that do not match ``spec.layer_dims`` are a ShapeError."""

    spec: NetworkSpec
    layers: list[tuple[Matrix, np.ndarray]]
    flat: np.ndarray = field(init=False, repr=False)
    shapes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.flat, self.shapes, self.layers = _pack(self.layers)
        check_shapes(self.shapes, tuple(shape for dims in self.spec.layer_dims
                                        for shape in (dims, dims[1:])), "layer list")

    def copy_weights(self) -> np.ndarray:
        """A snapshot of the weights: a copy of ``flat``."""
        return self.flat.copy()

    def set_weights(self, snapshot: np.ndarray) -> None:
        """Copy ``snapshot``, a vector of ``flat``'s shape, into ``flat``;
        ``layers`` keep viewing it.  Any other shape is a ShapeError."""
        if np.shape(snapshot) != self.flat.shape:
            raise ShapeError(f"snapshot has shape {np.shape(snapshot)}, not {self.flat.shape}")
        self.flat[...] = snapshot


@dataclass
class GradientSet:
    """Per-layer (weight gradient, bias gradient), shape-congruent with a Network.

    ``flat`` holds every gradient in the layout of ``Network.flat`` and
    ``layers`` holds (dW, db) views into it.  Built from ``layers`` alone,
    the arrays are copied into a new vector."""

    layers: list[tuple[Matrix, np.ndarray]]
    flat: np.ndarray | None = None
    shapes: tuple | None = None

    def __post_init__(self):
        if self.flat is None:
            self.flat, self.shapes, self.layers = _pack(self.layers)


# The least row-block height: each block goes through every layer while its
# hidden rows are still in cache.  Chosen from a sweep of 64-2048 rows on the
# benchmark shapes (CHANGES.md): shorter blocks cost more in per-call overhead
# than they save, taller ones leave the cache.
BLOCK_ROWS = 512
# The least height of a forward-only workspace, which computes the epoch-end
# losses on a helper thread, off the critical path.  On trial-wide's
# (256, 128) net it kept the speed of 512-row blocks with 1.2 MB less memory.
FORWARD_BLOCK_ROWS = 128


def workspace_shapes(spec: NetworkSpec, rows: int, block_rows: int) -> list[tuple[int, ...]]:
    """The views of a ``Workspace`` buffer for ``rows`` rows in blocks of
    ``block_rows``, in buffer order: one block of rows for every hidden
    layer, all rows for the output layer, and the gradient vector."""
    params = sum((fan_in + 1) * fan_out for fan_in, fan_out in spec.layer_dims)
    *hidden, (_, k) = spec.layer_dims
    return [(block_rows, fan_out) for _, fan_out in hidden] + [(rows, k), (params,)]


class Workspace:
    """Reused buffers for ``forward`` and ``backward`` on one network layout,
    and the cache that ``forward`` returns: one float64 ``block`` holding the
    output rows of every layer and ``grads``, a GradientSet of views laid
    out as ``Network.flat``.  ``batch_rows`` is the most rows a caller needs
    as one block, such as a training batch that ``backward`` follows.  The
    output layer has ``rows`` rows; each hidden layer has ``block_rows``,
    ``max(batch_rows, BLOCK_ROWS)`` but never more than ``rows``, with its ReLU
    applied in place.  A call on up to ``block_rows`` rows uses the first rows
    of each view; a call on more runs them in blocks of ``block_rows``, each
    block through every layer, and writes each block's prediction into its
    place in the output rows.  Every call overwrites what the last one
    wrote.  ``batch`` is the input of the last one-block forward pass, whose
    layer outputs are the first rows of ``outputs``; it is None once
    ``backward`` has consumed that pass, after ``forward`` raised, and after
    a forward over more than one block, whose hidden rows hold only its last
    block.  A workspace with ``backward=False`` serves forward passes alone:
    its ``grads`` and ``batch`` stay None, and its hidden layers take
    ``FORWARD_BLOCK_ROWS`` in place of ``BLOCK_ROWS``."""

    def __init__(self, net: Network, rows: int, batch_rows: int = 0, backward: bool = True):
        self.rows, self.shapes = rows, net.shapes
        self.block_rows = min(max(batch_rows, BLOCK_ROWS if backward else FORWARD_BLOCK_ROWS),
                              rows)
        shapes = workspace_shapes(net.spec, rows, self.block_rows)[: None if backward else -1]
        self.block = np.empty(sum(math.prod(shape) for shape in shapes))
        views = split_views(self.block, shapes)
        self.outputs = views[: len(net.layers)]
        self.grads = (GradientSet(_pairs(split_views(views[-1], net.shapes)), views[-1],
                                  net.shapes) if backward else None)
        self.batch: Matrix | None = None


def init_network(spec: NetworkSpec, rng: np.random.Generator) -> Network:
    """Fresh network: Glorot-uniform weights, zero biases."""
    layers = []
    for fan_in, fan_out in spec.layer_dims:
        w = glorot_uniform(rng, fan_in, fan_out)
        b = np.zeros(fan_out)
        layers.append((w, b))
    return Network(spec=spec, layers=layers)


def forward(net: Network, batch: Matrix,
            workspace: Workspace | None = None) -> tuple[Matrix, Workspace]:
    """Run the network on ``batch`` (rows are samples); returns the prediction,
    a view into ``workspace`` (or into a new one holding the batch as one
    block), and that workspace.  A batch of at most ``workspace.block_rows``
    rows leaves the workspace as the cache for ``backward``; a taller one runs
    in row blocks and leaves no cache, so ``backward`` after it raises ValueError."""
    x = as_matrix(batch)
    if x.shape[1] != net.spec.input_dim:
        raise ShapeError(
            f"batch has {x.shape[1]} features, network expects {net.spec.input_dim}"
        )
    rows = x.shape[0]
    ws = Workspace(net, rows, rows) if workspace is None else workspace
    if ws.shapes != net.shapes or rows > ws.rows:
        raise ShapeError(f"workspace holds {ws.rows} rows of parameter shapes {ws.shapes}, "
                         f"not {rows} rows of {net.shapes}")
    ws.batch = None
    step = ws.block_rows
    last = len(net.layers) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, rows, step) if rows > step else (0,):
            h = x[start : start + step]
            end = start + h.shape[0]
            for i, ((w, b), out) in enumerate(zip(net.layers, ws.outputs)):
                h = np.matmul(h, w, out=out[start:end] if i == last else out[: end - start])
                h += b
                if i < last:
                    np.maximum(h, 0.0, out=h)
    pred = ws.outputs[-1][:rows]
    if not np.isfinite(pred).all():
        raise NonFiniteError("forward pass produced non-finite activations")
    if rows <= step and ws.grads is not None:
        ws.batch = x
    return pred, ws


def softmax(logits: Matrix) -> Matrix:
    """Row-wise softmax, stabilized by max subtraction."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    return e


def _class_indices(targets, n_rows: int, n_classes: int) -> np.ndarray:
    idx = np.asarray(targets).reshape(-1)
    if idx.shape[0] != n_rows:
        raise ShapeError(f"expected {n_rows} target rows, got {idx.shape[0]}")
    # only a non-integer dtype can hold a fraction; NaN is not whole either
    whole = idx.dtype.kind in "iu" or bool((np.trunc(idx) == idx).all())
    if not whole or idx.min() < 0 or idx.max() >= n_classes:
        raise ShapeError(f"class index out of range [0, {n_classes}) or not whole: "
                         f"saw {idx.min()}..{idx.max()}")
    return idx.astype(np.int64, copy=False)


def loss(prediction: Matrix, targets, head: str) -> float:
    """Batch loss: mean squared error, or sparse cross-entropy over logits.

    MSE averages the squared error over every element (batch rows times
    output dims), so its scale does not depend on batch size.  For
    classification ``targets`` holds integer class indices and the
    cross-entropy is the mean over rows of -log(softmax probability of the
    true class), with probabilities floored at 1e-12 inside the log.
    """
    p = as_matrix(prediction)
    if head == REGRESSION:
        y = as_matrix(targets)
        if p.shape != y.shape:
            raise ShapeError(f"prediction {p.shape} vs targets {y.shape}")
        with np.errstate(over="ignore"):
            value = float(np.mean((p - y) ** 2))
    elif head == CLASSIFICATION:
        idx = _class_indices(targets, p.shape[0], p.shape[1])
        probs = softmax(p)
        picked = probs[np.arange(p.shape[0]), idx]
        value = float(-np.mean(np.log(np.maximum(picked, _PROB_FLOOR))))
    else:
        raise ValueError(f"unsupported output head {head!r}")
    if not np.isfinite(value):
        raise NonFiniteError("loss is non-finite")
    return value


def backward(net: Network, cache: Workspace, targets) -> GradientSet:
    """Exact gradients of the batch loss for every weight and bias.

    ``cache`` is the workspace of a ``forward`` call on this network layout;
    the gradients go into its ``grads``, which this returns.  Each hidden
    layer's error overwrites that layer's output rows after its ReLU mask is
    read from them, so a forward pass serves one ``backward`` call; the
    prediction survives.
    """
    if cache.shapes != net.shapes:
        raise ShapeError(f"cache holds parameter shapes {cache.shapes}, not {net.shapes}")
    x = cache.batch
    if x is None:
        raise ValueError("this cache holds no forward pass: it was already consumed by "
                         "backward, forward raised, forward ran over more than one row "
                         "block, or the workspace is forward-only; run forward again on "
                         "at most block_rows rows of a workspace with gradients")
    n = x.shape[0]
    logits = cache.outputs[-1][:n]
    if net.spec.output_head == REGRESSION:
        y = as_matrix(targets)
        if y.shape != logits.shape:
            raise ShapeError(f"prediction {logits.shape} vs targets {y.shape}")
        dz = np.subtract(logits, y)
        dz *= 2.0
        dz /= logits.size
    else:
        idx = _class_indices(targets, n, logits.shape[1])
        dz = softmax(logits)
        dz[np.arange(n), idx] -= 1.0
        dz /= n

    cache.batch = None
    grads = cache.grads
    last = len(net.layers) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(last, -1, -1):
            # np.dot gives np.matmul's bits.  It is faster for the output layer's
            # products on every benchmark shape (2-4x for the error below it), and
            # slower for a wide hidden layer's (CHANGES.md).
            product = np.dot if i == last else np.matmul
            dw, db = grads.layers[i]
            rows = cache.outputs[i - 1][:n] if i > 0 else x
            product(rows.T, dz, out=dw)
            dz.sum(axis=0, out=db)
            if i > 0:
                mask = rows > 0.0
                dz = product(dz, net.layers[i][0].T, out=rows)
                dz *= mask
    if not np.isfinite(grads.flat).all():
        raise NonFiniteError("backward pass produced non-finite gradients")
    return grads
