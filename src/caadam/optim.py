"""Optimizer suite with a uniform stepping contract.

Every optimizer consumes a :class:`~caadam.nn.Network` plus a matching
:class:`~caadam.nn.GradientSet` and applies one update step.  The learning
rate is passed per step so an external schedule composes without mutating
the optimizer; when omitted it falls back to the configured default.

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

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .arch import ArchitectureSummary, summarize
from .errors import ConfigError, NonFiniteError, ShapeError
from .nn import GradientSet, Network, check_shapes, split_views
from .scaling import ScaleTable, ScalingStrategy, compute_scale_table

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    decay: float = 0.9
    weight_decay: float = 0.004
    scaling: ScalingStrategy | None = None

    def __post_init__(self):
        if self.algorithm not in _REGISTRY:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; expected one of {sorted(_REGISTRY)}"
            )
        if self.scaling is not None and self.algorithm != "caadam":
            raise ConfigError(f"'scaling' is only valid for caadam, not {self.algorithm!r}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be a positive finite number, "
                              f"got {self.learning_rate}")
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

    def step(self, net: Network, grads: GradientSet, lr: float | None = None) -> Network:
        """Advance one step: update accumulators, then shift the parameters."""
        if lr is None:
            lr = self.config.learning_rate
        if lr <= 0.0:
            raise ConfigError(f"lr must be > 0, got {lr}")
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

    @property
    def _slots(self) -> list[dict[str, np.ndarray]]:
        """The accumulators split per tensor (W0, b0, W1, ...), as views."""
        if self._shapes is None:
            return []
        per_name = {name: split_views(vec, self._shapes) for name, vec in self._state.items()}
        return [{name: views[i] for name, views in per_name.items()}
                for i in range(len(self._shapes))]

    # -- checkpointing ----------------------------------------------------

    def to_checkpoint(self) -> dict:
        """JSON-safe snapshot: version, algorithm, config, step, accumulators."""
        return {
            "version": CHECKPOINT_VERSION,
            "algorithm": self.algorithm,
            "config": {key: value for key, value in asdict(self.config).items()
                       if key != "algorithm" and value is not None},  # None: no scaling
            "t": self.t,
            "slots": [
                {name: arr.tolist() for name, arr in slot.items()} for slot in self._slots
            ],
        }

    def _restore_slots(self, payload: dict) -> None:
        self.t = payload["t"]
        slots = payload["slots"]
        names = list(slots[0]) if slots else []
        if names:
            self._set_state(
                tuple(np.shape(slot[names[0]]) for slot in slots),
                {name: np.concatenate([np.asarray(slot[name], dtype=np.float64).ravel()
                                       for slot in slots])
                 for name in names})


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

    def _update(self, p, g, neg_lr):
        sum_sq = self._state["sum_sq"]
        np.multiply(g, g, out=self._scratch)
        sum_sq += self._scratch
        self._scaled_step(g, neg_lr, sum_sq)


class Adadelta(Optimizer):
    algorithm = "adadelta"
    slot_names = ("avg_sq",)

    def _update(self, p, g, neg_lr):
        self._averaged_step(g, neg_lr, self.config.decay, 1.0 - self.config.decay)

    def _averaged_step(self, g, neg_lr, keep: float, take: float) -> None:
        avg_sq, s = self._state["avg_sq"], self._scratch
        np.multiply(g, g, out=s)
        _blend(avg_sq, keep, take, s, s)
        self._scaled_step(g, neg_lr, avg_sq)


class RmsProp(Adadelta):
    algorithm = "rmsprop"

    # coefficients fixed at 0.9 / 0.1 by definition
    def _update(self, p, g, neg_lr):
        self._averaged_step(g, neg_lr, 0.9, 0.1)


class Adam(Optimizer):
    algorithm = "adam"
    slot_names = ("m", "v")

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

    def _update(self, p, g, neg_lr):
        super()._update(p, g, neg_lr)
        np.multiply(p, -neg_lr * self.config.weight_decay, out=self._scratch)
        self._delta -= self._scratch


class Adamax(Optimizer):
    algorithm = "adamax"
    slot_names = ("m", "u")

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


def make_caadam(config: OptimizerConfig, summary: ArchitectureSummary) -> CaAdam:
    """CaAdam with its scale table precomputed from the architecture summary."""
    if config.scaling is None:
        raise ConfigError("caadam requires config.scaling to be set")
    return CaAdam(config, compute_scale_table(config.scaling, summary))


def make_optimizer(config: OptimizerConfig, net: Network | None = None) -> Optimizer:
    """Instantiate the optimizer named by ``config.algorithm``.

    ``caadam`` derives its scale table from ``net``, which must be given;
    every other algorithm ignores it.
    """
    if config.algorithm == "caadam":
        if net is None:
            raise ConfigError("caadam needs the network to derive its scale table")
        return make_caadam(config, summarize(net))
    return _REGISTRY[config.algorithm](config)


def _config_from_checkpoint(payload: dict) -> OptimizerConfig:
    cfg = dict(payload["config"])
    scaling = cfg.pop("scaling", None)
    if scaling is not None:
        scaling = ScalingStrategy(**scaling)
    return OptimizerConfig(algorithm=payload["algorithm"], scaling=scaling, **cfg)


def from_checkpoint(payload: dict) -> Optimizer:
    """Rebuild an optimizer (with its state) from a checkpoint dict."""
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {payload.get('version')!r}")
    config = _config_from_checkpoint(payload)
    if payload["algorithm"] == "caadam":
        opt = CaAdam(config, ScaleTable(tuple(payload["scale_table"])))
    else:
        opt = _REGISTRY[payload["algorithm"]](config)
    opt._restore_slots(payload)
    return opt


def save_checkpoint(opt: Optimizer, path) -> None:
    """Write ``opt.to_checkpoint()`` as JSON.  A non-finite accumulator is a
    NonFiniteError naming its slot and tensor, raised before ``path`` is opened."""
    payload = opt.to_checkpoint()
    for i, slot in enumerate(payload["slots"]):
        for name, values in slot.items():
            if not np.isfinite(values).all():
                raise NonFiniteError(f"checkpoint slot {name!r} of tensor {i} is not finite")
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_checkpoint(path) -> Optimizer:
    with open(path, encoding="utf-8") as fh:
        return from_checkpoint(json.load(fh))
