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

Networks of one layout can also train as a group (``stack``): their vectors
become the rows of one ``(K, P)`` array, every per-tensor view gains a
leading member axis, and ``forward`` and ``backward`` compute all K members
with one call per product (``np.matmul`` over the member axis).  Each
member's own ``flat`` is its row, so each member's optimizer steps it alone.
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
    """Consecutive slices of ``vector`` reshaped to ``shapes``, as views; the
    slices of a ``(K, P)`` stack are taken along its rows, with shape ``(K, *shape)``."""
    out = []
    offset = 0
    lead = vector.shape[:-1]
    for shape in shapes:
        size = math.prod(shape)
        out.append(vector[..., offset : offset + size].reshape(lead + tuple(shape)))
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

    def adopt(self, flat: np.ndarray) -> None:
        """Make ``flat`` this network's parameters, without a copy: a vector
        of ``flat``'s length, or a ``(K, P)`` stack of K members' vectors,
        whose ``layers`` are (weights (K, fan_in, fan_out), bias (K, 1,
        fan_out)) views."""
        if flat.shape[-1:] != self.flat.shape[-1:] or flat.ndim > 2:
            raise ShapeError(f"parameters of shape {flat.shape} for {self.flat.shape[-1]} "
                             "per network")
        self.flat = flat
        pairs = _pairs(split_views(flat, self.shapes))
        self.layers = pairs if flat.ndim == 1 else [(w, b[:, None]) for w, b in pairs]

    def copy_weights(self) -> np.ndarray:
        """A snapshot of the weights: a copy of ``flat``."""
        return self.flat.copy()

    def set_weights(self, snapshot: np.ndarray) -> None:
        """Copy ``snapshot``, a vector of ``flat``'s shape, into ``flat``;
        ``layers`` keep viewing it.  Any other shape is a ShapeError."""
        if np.shape(snapshot) != self.flat.shape:
            raise ShapeError(f"snapshot has shape {np.shape(snapshot)}, not {self.flat.shape}")
        self.flat[...] = snapshot


def stack(nets: list[Network]) -> Network:
    """One network over the parameters of ``nets``, which share a layout:
    the one network itself, or a new ``(K, P)`` stack holding a copy of each
    member's weights as its row, with each member's ``flat`` and ``layers``
    re-pointed to that row.  Training the stack trains every member."""
    if len(nets) == 1:
        return nets[0]
    group = Network(nets[0].spec, nets[0].layers)
    group.adopt(np.stack([net.flat for net in nets]))
    for net, row in zip(nets, group.flat):
        net.adopt(row)
    return group


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
# benchmark shapes (CHANGES.md): shorter blocks cost more in per-call
# overhead than they save, taller ones leave the cache.
BLOCK_ROWS = 512


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
    out as ``Network.flat``.  For a stack of K networks every buffer has a
    leading member axis ``lead == (K,)`` (``()`` for one network), and
    ``member_grads`` holds each member's GradientSet, a row of ``grads``.
    ``batch_rows`` is the most rows a caller needs
    as one block, such as a training batch that ``backward`` follows.  The
    output layer has ``rows`` rows; each hidden layer has ``block_rows``,
    ``max(batch_rows, BLOCK_ROWS)`` but never more than ``rows``, with
    its ReLU applied in place.  A call on up to ``block_rows`` rows uses the first rows
    of each view; a call on more runs them in blocks of ``block_rows``, each
    block through every layer, and writes each block's prediction into its
    place in the output rows.  Every call overwrites what the last one
    wrote.  ``batch`` is the input of the last one-block forward pass, whose
    layer outputs are the first rows of ``outputs``; it is None once
    ``backward`` has consumed that pass, after ``forward`` raised, and after
    a forward over more than one block, whose hidden rows hold only its last
    block.  A workspace with ``backward=False`` serves forward passes alone,
    in the same blocks: its ``grads``, ``member_grads`` and ``batch`` stay None."""

    def __init__(self, net: Network, rows: int, batch_rows: int = 0, backward: bool = True):
        self.rows, self.shapes, self.lead = rows, net.shapes, net.flat.shape[:-1]
        self.block_rows = min(max(batch_rows, BLOCK_ROWS), rows)
        shapes = [self.lead + shape for shape in
                  workspace_shapes(net.spec, rows, self.block_rows)[: None if backward else -1]]
        self.block = np.empty(sum(math.prod(shape) for shape in shapes))
        views = split_views(self.block, shapes)
        self.outputs = views[: len(net.layers)]
        self.grads = self.member_grads = None
        if backward:
            self.grads = _gradient_set(views[-1], net.shapes)
            self.member_grads = ([_gradient_set(row, net.shapes) for row in views[-1]]
                                 if self.lead else [self.grads])
        self.batch: Matrix | None = None


def _gradient_set(flat: np.ndarray, shapes: tuple) -> GradientSet:
    """A GradientSet of views into ``flat``, a vector or a (K, P) stack."""
    return GradientSet(_pairs(split_views(flat, shapes)), flat, shapes)


def _non_finite(values: np.ndarray, stacked: bool, message: str) -> NonFiniteError:
    """The NonFiniteError for ``values``, naming the members whose values
    (a leading member axis when ``stacked``) are not all finite."""
    members = (tuple(int(k) for k in np.flatnonzero(
        ~np.isfinite(values.reshape(len(values), -1)).all(axis=1))) if stacked else (0,))
    return NonFiniteError(message, members=members)


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
    in row blocks and leaves no cache, so ``backward`` after it raises ValueError.
    A stack of K networks gives a (K, rows, outputs) prediction; a non-finite
    one raises NonFiniteError naming its members, after every member's
    prediction is written."""
    x = as_matrix(batch)
    if x.shape[1] != net.spec.input_dim:
        raise ShapeError(
            f"batch has {x.shape[1]} features, network expects {net.spec.input_dim}"
        )
    rows = x.shape[0]
    ws = Workspace(net, rows, rows) if workspace is None else workspace
    if ws.shapes != net.shapes or rows > ws.rows or ws.lead != net.flat.shape[:-1]:
        raise ShapeError(f"workspace holds {ws.rows} rows of parameter shapes {ws.shapes} "
                         f"for {ws.lead or 'one'} networks, not {rows} rows of {net.shapes} "
                         f"for {net.flat.shape[:-1] or 'one'}")
    ws.batch = None
    step = ws.block_rows
    last = len(net.layers) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, rows, step) if rows > step else (0,):
            h = x[start : start + step]
            end = start + h.shape[0]
            for i, ((w, b), out) in enumerate(zip(net.layers, ws.outputs)):
                h = np.matmul(h, w, out=out[..., start:end, :] if i == last
                              else out[..., : end - start, :])
                h += b
                if i < last:
                    np.maximum(h, 0.0, out=h)
    pred = ws.outputs[-1][..., :rows, :]
    if not np.isfinite(pred).all():
        raise _non_finite(pred, bool(ws.lead), "forward pass produced non-finite activations")
    if rows <= step and ws.grads is not None:
        ws.batch = x
    return pred, ws


# NumPy adds up a last axis shorter than 8 from left to right, as a loop over
# the columns does; from 8 on it keeps 8 partial sums, which only its own
# axis reduction repeats.  So below this many classes ``_exp_and_sums``
# reduces column by column, one call per class rather than one per row, and
# gives the bits of the axis reduction it replaces.
_COLUMN_CLASSES = 8


def _exp_and_sums(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(logits - row max)`` as a new array, and its row sums with the
    last axis kept, for logits of any leading shape."""
    classes = logits.shape[-1]
    if classes < _COLUMN_CLASSES:
        top = logits[..., 0].copy()
        for j in range(1, classes):
            np.maximum(top, logits[..., j], out=top)
        e = np.exp(logits - top[..., None])
        sums = e[..., 0].copy()
        for j in range(1, classes):
            sums += e[..., j]
        return e, sums[..., None]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e, e.sum(axis=-1, keepdims=True)


def softmax(logits: Matrix) -> Matrix:
    """Row-wise softmax over the last axis, stabilized by max subtraction.

    Below 8 classes the row max and the row sum are taken column by column,
    which adds each row up from left to right as NumPy's own reduction does
    on so short an axis; the result has the bits of
    ``e = exp(z - z.max(-1, keepdims=True)); e / e.sum(-1, keepdims=True)``
    at every class count."""
    e, sums = _exp_and_sums(logits)
    e /= sums
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
    true class), with probabilities floored at 1e-12 inside the log; only
    the true class's entry of each row is divided by its row sum, which
    gives the bits of ``softmax`` (column by column below 8 classes) at that
    entry.  A prediction with no rows is a ShapeError for either head.
    """
    p = as_matrix(prediction)
    if p.shape[0] == 0:
        raise ShapeError(f"loss of an empty batch: prediction {p.shape} has no rows")
    if head == REGRESSION:
        y = as_matrix(targets)
        if p.shape != y.shape:
            raise ShapeError(f"prediction {p.shape} vs targets {y.shape}")
        with np.errstate(over="ignore"):
            value = float(np.mean((p - y) ** 2))
    elif head == CLASSIFICATION:
        idx = _class_indices(targets, p.shape[0], p.shape[1])
        e, sums = _exp_and_sums(p)
        picked = e[np.arange(p.shape[0]), idx] / sums[:, 0]
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
    prediction survives.  On a stack each member's gradients are those of
    the member alone, and non-finite ones raise NonFiniteError naming their
    members.
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
    logits = cache.outputs[-1][..., :n, :]
    if net.spec.output_head == REGRESSION:
        y = as_matrix(targets)
        if y.shape != logits.shape[-2:]:
            raise ShapeError(f"prediction {logits.shape[-2:]} vs targets {y.shape}")
        dz = np.subtract(logits, y)
        dz *= 2.0
        dz /= y.size
    else:
        idx = _class_indices(targets, n, logits.shape[-1])
        dz = softmax(logits)
        dz[..., np.arange(n), idx] -= 1.0
        dz /= n

    cache.batch = None
    grads = cache.grads
    stacked = bool(cache.lead)
    last = len(net.layers) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(last, -1, -1):
            # np.dot gives np.matmul's bits.  It is faster for the output layer's
            # products on every benchmark shape (2-4x for the error below it), and
            # slower for a wide hidden layer's (CHANGES.md).  On a stack it
            # would contract across members, so a stack uses np.matmul.
            product = np.dot if i == last and not stacked else np.matmul
            dw, db = grads.layers[i]
            rows = cache.outputs[i - 1][..., :n, :] if i > 0 else x
            product(rows.swapaxes(-1, -2), dz, out=dw)
            dz.sum(axis=-2, out=db)
            if i > 0:
                mask = rows > 0.0
                dz = product(dz, net.layers[i][0].swapaxes(-1, -2), out=rows)
                dz *= mask
    if not np.isfinite(grads.flat).all():
        raise _non_finite(grads.flat, stacked, "backward pass produced non-finite gradients")
    return grads
