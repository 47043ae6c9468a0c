"""Optimizer suite with a uniform stepping contract.

Every optimizer consumes a :class:`~caadam.nn.Network` plus a matching
:class:`~caadam.nn.GradientSet` and applies one update step.  The learning
rate is passed per step so an external schedule composes without mutating
the optimizer; a config may set only the hyper-parameters its algorithm reads.

Implemented algorithms, each advancing its own accumulators:

* ``sgd``        plain gradient step
* ``adagrad``    per-coordinate lr over the running sum of squared gradients
* ``adadelta``   decaying average of squared gradients (coefficient
                 configurable via ``decay``); note this is the
                 squared-gradient-average variant, not the classic
                 parameter-RMS-ratio formulation
* ``rmsprop``    same decaying average with fixed 0.9/0.1 coefficients
* ``adam``       bias-corrected first and second moments
* ``adamw``      adam plus decoupled weight decay (update -= lr * wd * param)
* ``adamax``     infinity-norm second moment, no bias correction on it
* ``nadam``      adam with a Nesterov-style look-ahead on the momentum term
* ``caadam``     adam whose per-layer update is multiplied by a scale factor
                 derived from the network architecture (see ``scaling``)

Every rule updates the whole network at once: it reads the parameter and
gradient vectors (``Network.flat``, ``GradientSet.flat``) and keeps each
accumulator as one vector of the same layout, allocated at zero on the
first step.  A step updates the accumulators in place and writes the update
into one vector the optimizer owns, using one scratch vector; both are
allocated with the accumulators, so a step allocates no parameter-sized
float vector (adamax's ``u > 0`` mask is the one temporary).  A non-finite
update aborts the step with diagnostics instead of being clamped, and leaves
the parameters untouched, so a diverging run is recorded as such.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from numbers import Real

import numpy as np

from .arch import summarize
from .errors import ConfigError, NonFiniteError, ShapeError
from .jsonio import PARSERS, STR, arguments, checked, read_json, write_json
from .nn import GradientSet, Network, check_shapes, split_views
from .scaling import ScaleTable, ScalingStrategy, compute_scale_table

CHECKPOINT_VERSION = 1
DEFAULT_LR = 1e-3


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    decay: float = 0.9
    weight_decay: float = 0.004
    scaling: ScalingStrategy | None = None

    def __post_init__(self):
        reads = optimizer_class(self.algorithm).reads
        if self.scaling is not None and self.algorithm != "caadam":
            raise ConfigError(f"'scaling' is only valid for caadam, not {self.algorithm!r}")
        unread = [f.name for f in fields(self) if isinstance(f.default, float)
                  and f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            raise ConfigError(f"{self.algorithm} does not read {unread}; "
                              f"of the float hyper-parameters it reads only {list(reads)}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1/beta2 must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if not 0.0 < self.eps < math.inf:
            raise ConfigError(f"eps must be a positive finite number, got {self.eps}")
        if not 0.0 < self.decay < 1.0:
            raise ConfigError(f"decay must lie in (0, 1), got {self.decay}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be a finite number >= 0, got {self.weight_decay}")


class Optimizer:
    """Base stepping machinery; subclasses implement one vector update."""

    algorithm = "base"
    slot_names: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()  # the OptimizerConfig fields that _update reads

    def __init__(self, config: OptimizerConfig):
        self.config = config
        self.t = 0
        self._state: dict[str, np.ndarray] = {}  # accumulator vectors by slot name
        self._shapes: tuple | None = None  # per-tensor layout of the accumulators
        self._delta = self._scratch = None  # the update and one scratch vector

    def _set_state(self, shapes: tuple, state: dict[str, np.ndarray]) -> None:
        """Adopt ``state`` for the layout ``shapes`` and allocate the update
        vector and the scratch vector that every step overwrites."""
        self._shapes, self._state = shapes, state
        size = sum(math.prod(shape) for shape in shapes)
        self._delta, self._scratch = np.empty(size), np.empty(size)

    # -- stepping ---------------------------------------------------------

    def step(self, net: Network, grads: GradientSet, lr: float = DEFAULT_LR) -> Network:
        """Advance one step: update accumulators, then shift the parameters."""
        if isinstance(lr, bool) or not isinstance(lr, Real) or not 0.0 < lr < math.inf:
            raise ConfigError(f"lr must be > 0 and finite, got {lr!r}")
        check_shapes(grads.shapes, net.shapes, "gradient set")
        if self._shapes is None:
            self._set_state(net.shapes, {name: np.zeros_like(net.flat)
                                         for name in self.slot_names})
        elif self._shapes != net.shapes:
            raise ShapeError("optimizer state was built for a different network layout")
        neg_lr = self._neg_lr(net, lr)
        self.t += 1
        with np.errstate(over="ignore", invalid="ignore"):
            self._update(net.flat, grads.flat, neg_lr)
        delta = self._delta
        if not np.isfinite(delta).all():
            bad = next(i for i, d in enumerate(split_views(delta, net.shapes))
                       if not np.isfinite(d).all())
            raise NonFiniteError(
                f"{self.algorithm} produced a non-finite update for tensor {bad} "
                f"at step t={self.t}"
            )
        net.flat += delta
        return net

    def _neg_lr(self, net: Network, lr: float):
        """The signed step size ``-lr`` that ``_update`` multiplies in."""
        return -lr

    def _update(self, p, g, neg_lr) -> None:
        """Advance the accumulators in ``self._state`` and write the update
        into ``self._delta``, using ``self._scratch``; allocate no vector."""
        raise NotImplementedError

    def _scaled_step(self, g, neg_lr, sum_sq) -> None:
        """``delta = -lr * g / sqrt(sum_sq + eps)``."""
        s = self._scratch
        np.multiply(g, neg_lr, out=self._delta)
        np.add(sum_sq, self.config.eps, out=s)
        np.sqrt(s, out=s)
        self._delta /= s

    # -- checkpointing ----------------------------------------------------

    def to_checkpoint(self) -> dict:
        """JSON-safe snapshot: version, algorithm, config, step, per-tensor accumulators."""
        shapes = self._shapes or ()
        per_name = {name: split_views(vec, shapes) for name, vec in self._state.items()}
        return {
            "version": CHECKPOINT_VERSION,
            "algorithm": self.algorithm,
            "config": {key: value for key, value in asdict(self.config).items()
                       if key != "algorithm" and value is not None},  # None: no scaling
            "t": self.t,
            "slots": [{name: views[i].tolist() for name, views in per_name.items()}
                      for i in range(len(shapes))],
        }


def _blend(acc, keep: float, take: float, x, s) -> None:
    """``acc = keep * acc + take * x`` in place; the scratch ``s`` may be ``x``."""
    acc *= keep
    np.multiply(x, take, out=s)
    acc += s


class Sgd(Optimizer):
    algorithm = "sgd"

    def _update(self, p, g, neg_lr):
        np.multiply(g, neg_lr, out=self._delta)


class Adagrad(Optimizer):
    algorithm = "adagrad"
    slot_names = ("sum_sq",)
    reads = ("eps",)

    def _update(self, p, g, neg_lr):
        sum_sq = self._state["sum_sq"]
        np.multiply(g, g, out=self._scratch)
        sum_sq += self._scratch
        self._scaled_step(g, neg_lr, sum_sq)


class Adadelta(Optimizer):
    algorithm = "adadelta"
    slot_names = ("avg_sq",)
    reads = ("decay", "eps")

    def _update(self, p, g, neg_lr):
        self._averaged_step(g, neg_lr, self.config.decay, 1.0 - self.config.decay)

    def _averaged_step(self, g, neg_lr, keep: float, take: float) -> None:
        avg_sq, s = self._state["avg_sq"], self._scratch
        np.multiply(g, g, out=s)
        _blend(avg_sq, keep, take, s, s)
        self._scaled_step(g, neg_lr, avg_sq)


class RmsProp(Adadelta):
    algorithm = "rmsprop"
    reads = ("eps",)  # its coefficients are fixed at 0.9 / 0.1 by definition

    def _update(self, p, g, neg_lr):
        self._averaged_step(g, neg_lr, 0.9, 0.1)


class Adam(Optimizer):
    algorithm = "adam"
    slot_names = ("m", "v")
    reads = ("beta1", "beta2", "eps")

    def _update(self, p, g, neg_lr):
        self._moments(g)
        np.divide(self._state["m"], 1.0 - self.config.beta1**self.t, out=self._delta)
        self._delta *= neg_lr
        self._over_rms_v()

    def _moments(self, g) -> None:
        b1, b2, s = self.config.beta1, self.config.beta2, self._scratch
        _blend(self._state["m"], b1, 1.0 - b1, g, s)
        np.multiply(g, g, out=s)
        _blend(self._state["v"], b2, 1.0 - b2, s, s)

    def _over_rms_v(self) -> None:
        """``delta /= sqrt(v / (1 - b2**t)) + eps``."""
        s = self._scratch
        np.divide(self._state["v"], 1.0 - self.config.beta2**self.t, out=s)
        np.sqrt(s, out=s)
        s += self.config.eps
        self._delta /= s


class AdamW(Adam):
    algorithm = "adamw"
    reads = Adam.reads + ("weight_decay",)

    def _update(self, p, g, neg_lr):
        super()._update(p, g, neg_lr)
        np.multiply(p, -neg_lr * self.config.weight_decay, out=self._scratch)
        self._delta -= self._scratch


class Adamax(Optimizer):
    algorithm = "adamax"
    slot_names = ("m", "u")
    reads = ("beta1", "beta2")

    def _update(self, p, g, neg_lr):
        b1, u, s, d = self.config.beta1, self._state["u"], self._scratch, self._delta
        _blend(self._state["m"], b1, 1.0 - b1, g, s)
        u *= self.config.beta2
        np.abs(g, out=s)
        np.maximum(u, s, out=u)
        np.divide(self._state["m"], 1.0 - b1**self.t, out=s)
        # a coordinate whose gradient has been zero for every step has
        # m == u == 0; define its update as 0 rather than 0/0
        d.fill(0.0)
        np.divide(s, u, out=d, where=u > 0.0)
        d *= neg_lr


class Nadam(Adam):
    algorithm = "nadam"

    def _update(self, p, g, neg_lr):
        self._moments(g)
        b1, s, d = self.config.beta1, self._scratch, self._delta
        bias1 = 1.0 - b1**self.t
        # the look-ahead b1 * m_hat + (1 - b1) * g / bias1, with m_hat = m / bias1
        np.divide(self._state["m"], bias1, out=d)
        d *= b1
        np.multiply(g, 1.0 - b1, out=s)
        s /= bias1
        d += s
        d *= neg_lr
        self._over_rms_v()


class CaAdam(Adam):
    """Adam whose per-layer effective learning rate is lr * S.

    The scale table holds one factor per trainable layer; a layer's bias
    shares the factor of its weight matrix.  With every factor equal to 1
    the trajectory is bit-identical to plain Adam.
    """

    algorithm = "caadam"

    def __init__(self, config: OptimizerConfig, scale_table: ScaleTable):
        super().__init__(config)
        self.scale_table = scale_table
        self._lr_key = None
        self._neg_lr_vector = None

    def _neg_lr(self, net: Network, lr: float) -> np.ndarray:
        """``-(lr * S)`` broadcast over each layer's weights and bias; rebuilt
        only when ``lr`` or the network layout changes."""
        if self._lr_key != (lr, net.shapes):
            if len(self.scale_table) != len(net.layers):
                raise ShapeError(
                    f"scale table has {len(self.scale_table)} entries for "
                    f"{len(net.layers)} layers"
                )
            sizes = [w.size + b.size for w, b in net.layers]
            self._neg_lr_vector = np.repeat([-(lr * s) for s in self.scale_table.factors],
                                            sizes)
            self._lr_key = (lr, net.shapes)
        return self._neg_lr_vector

    def to_checkpoint(self) -> dict:
        payload = super().to_checkpoint()
        payload["scale_table"] = list(self.scale_table.factors)
        return payload


_REGISTRY: dict[str, type[Optimizer]] = {
    cls.algorithm: cls
    for cls in (Sgd, Adagrad, Adadelta, RmsProp, Adam, AdamW, Adamax, Nadam, CaAdam)
}

ALGORITHMS = tuple(sorted(_REGISTRY))


def optimizer_class(algorithm: str) -> type[Optimizer]:
    """The optimizer class named ``algorithm``; an unknown name is a ConfigError."""
    if algorithm not in _REGISTRY:
        raise ConfigError(f"unknown algorithm {algorithm!r}; expected one of {sorted(_REGISTRY)}")
    return _REGISTRY[algorithm]


def make_optimizer(config: OptimizerConfig, net: Network | None = None) -> Optimizer:
    """Instantiate the optimizer named by ``config.algorithm``; ``caadam``
    derives its scale table from ``net``, which every other algorithm ignores."""
    if config.algorithm != "caadam":
        return _REGISTRY[config.algorithm](config)
    if net is None:
        raise ConfigError("caadam needs the network to derive its scale table")
    if config.scaling is None:
        raise ConfigError("caadam requires config.scaling to be set")
    return CaAdam(config, compute_scale_table(config.scaling, summarize(net)))


def _scaling(value, what: str) -> ScalingStrategy | None:
    """A checkpoint config's ``scaling``: a ScalingStrategy mapping, or null for none."""
    return None if value is None else ScalingStrategy(**arguments(ScalingStrategy, value, what))


def _check_finite(slots: list, error: type[Exception]) -> None:
    """Raise ``error`` naming the first non-finite accumulator of ``slots``."""
    for i, slot in enumerate(slots):
        for name, values in slot.items():
            if not np.isfinite(values).all():
                raise error(f"checkpoint slot {name!r} of tensor {i} is not finite")


def from_checkpoint(payload: dict) -> Optimizer:
    """Rebuild an optimizer (with its state) from a checkpoint dict.  A payload
    without the version 1 layout is a ConfigError, raised before anything is built."""
    if not isinstance(payload, dict) or payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"a checkpoint must be a mapping of version {CHECKPOINT_VERSION}")
    t, cfg, slots = payload.get("t"), payload.get("config"), payload.get("slots")
    if type(t) is not int or t < 0:  # a bool is an int too
        raise ConfigError(f"checkpoint step 't' must be an integer >= 0, got {t!r}")
    if isinstance(cfg, dict):  # learning_rate is no longer a config field: ignore a saved one
        cfg = {key: value for key, value in cfg.items() if key != "learning_rate"}
    config = OptimizerConfig(**arguments(
        OptimizerConfig, cfg, "checkpoint config", {**PARSERS, ScalingStrategy | None: _scaling},
        algorithm=checked(payload.get("algorithm"), STR, "checkpoint algorithm")))
    cls = _REGISTRY[config.algorithm]
    names = cls.slot_names
    if type(slots) is not list or any(type(s) is not dict or s.keys() != set(names) for s in slots):
        raise ConfigError(f"checkpoint slots must be a list of mappings of {list(names)}")
    if names and (t > 0) != bool(slots):  # sgd keeps no state: restored, it saves [] until it steps
        raise ConfigError(f"checkpoint at step t={t} has {len(slots)} slots; "
                          "a step t > 0 has one per tensor and t = 0 has none")
    try:  # one stacked array per tensor: its accumulators must share one shape
        slots = [dict(zip(names, np.asarray([slot[name] for name in names], dtype=np.float64)))
                 for slot in slots]
        table = ScaleTable(tuple(payload.get("scale_table"))) if cls is CaAdam else None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint slots or scale table: {exc}") from None
    if table is not None and slots and 2 * len(table) != len(slots):
        raise ConfigError(f"checkpoint scale table has {len(table)} factors for "
                          f"{len(slots)} slots; a layer has two (weights and bias)")
    _check_finite(slots, ConfigError)
    opt = cls(config) if table is None else CaAdam(config, table)
    opt.t = t
    if slots and names:
        opt._set_state(tuple(slot[names[0]].shape for slot in slots),
                       {name: np.concatenate([slot[name].ravel() for slot in slots])
                        for name in names})
    return opt


def save_checkpoint(opt: Optimizer, path) -> None:
    """Write ``opt.to_checkpoint()`` as JSON.  A non-finite accumulator is a
    NonFiniteError naming its slot and tensor, raised before ``path`` is
    opened; a ``path`` that cannot be written is a ConfigError."""
    payload = opt.to_checkpoint()
    _check_finite(payload["slots"], NonFiniteError)
    write_json(path, payload)


def load_checkpoint(path) -> Optimizer:
    """``from_checkpoint`` of the JSON file at ``path``; a missing, unreadable
    or invalid file is a ConfigError."""
    return from_checkpoint(read_json(path, "checkpoint"))
