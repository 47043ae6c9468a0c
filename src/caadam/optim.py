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
first step.  A non-finite update aborts the step with diagnostics instead
of being clamped, and leaves the parameters untouched, so a diverging run
is recorded as such.
"""

from __future__ import annotations

import json
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
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1/beta2 must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.eps <= 0.0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        if not 0.0 < self.decay < 1.0:
            raise ConfigError(f"decay must lie in (0, 1), got {self.decay}")


class Optimizer:
    """Base stepping machinery; subclasses implement one vector update."""

    algorithm = "base"
    slot_names: tuple[str, ...] = ()

    def __init__(self, config: OptimizerConfig):
        self.config = config
        self.t = 0
        self._state: dict[str, np.ndarray] = {}  # accumulator vectors by slot name
        self._shapes: tuple | None = None  # per-tensor layout of the accumulators

    # -- stepping ---------------------------------------------------------

    def step(self, net: Network, grads: GradientSet, lr: float | None = None) -> Network:
        """Advance one step: update accumulators, then shift the parameters."""
        if lr is None:
            lr = self.config.learning_rate
        if lr <= 0.0:
            raise ConfigError(f"lr must be > 0, got {lr}")
        check_shapes(grads.shapes, net.shapes, "gradient set")
        if self._shapes is None:
            self._shapes = net.shapes
            self._state = {name: np.zeros_like(net.flat) for name in self.slot_names}
        elif self._shapes != net.shapes:
            raise ShapeError("optimizer state was built for a different network layout")
        lr = self._effective_lr(net, lr)
        self.t += 1
        with np.errstate(over="ignore", invalid="ignore"):
            delta = self._update(net.flat, grads.flat, self._state, lr)
        if not np.isfinite(delta).all():
            bad = next(i for i, d in enumerate(split_views(delta, net.shapes))
                       if not np.isfinite(d).all())
            raise NonFiniteError(
                f"{self.algorithm} produced a non-finite update for tensor {bad} "
                f"at step t={self.t}"
            )
        net.flat += delta
        return net

    def _effective_lr(self, net: Network, lr: float):
        return lr

    def _update(self, p, g, slot, lr):
        raise NotImplementedError

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
        self._shapes = tuple(np.shape(slot[names[0]]) for slot in slots) if names else None
        self._state = {
            name: np.concatenate([np.asarray(slot[name], dtype=np.float64).ravel()
                                  for slot in slots])
            for name in names
        }



class Sgd(Optimizer):
    algorithm = "sgd"

    def _update(self, p, g, slot, lr):
        return -lr * g


class Adagrad(Optimizer):
    algorithm = "adagrad"
    slot_names = ("sum_sq",)

    def _update(self, p, g, slot, lr):
        slot["sum_sq"] = slot["sum_sq"] + g * g
        return -lr * g / np.sqrt(slot["sum_sq"] + self.config.eps)


class Adadelta(Optimizer):
    algorithm = "adadelta"
    slot_names = ("avg_sq",)

    def _update(self, p, g, slot, lr):
        d = self.config.decay
        slot["avg_sq"] = d * slot["avg_sq"] + (1.0 - d) * (g * g)
        return -lr * g / np.sqrt(slot["avg_sq"] + self.config.eps)


class RmsProp(Optimizer):
    algorithm = "rmsprop"
    slot_names = ("avg_sq",)

    # coefficients fixed at 0.9 / 0.1 by definition
    def _update(self, p, g, slot, lr):
        slot["avg_sq"] = 0.9 * slot["avg_sq"] + 0.1 * (g * g)
        return -lr * g / np.sqrt(slot["avg_sq"] + self.config.eps)


class Adam(Optimizer):
    algorithm = "adam"
    slot_names = ("m", "v")

    def _update(self, p, g, slot, lr):
        b1, b2 = self.config.beta1, self.config.beta2
        slot["m"] = b1 * slot["m"] + (1.0 - b1) * g
        slot["v"] = b2 * slot["v"] + (1.0 - b2) * (g * g)
        m_hat = slot["m"] / (1.0 - b1**self.t)
        v_hat = slot["v"] / (1.0 - b2**self.t)
        return -lr * m_hat / (np.sqrt(v_hat) + self.config.eps)


class AdamW(Adam):
    algorithm = "adamw"

    def _update(self, p, g, slot, lr):
        return super()._update(p, g, slot, lr) - lr * self.config.weight_decay * p


class Adamax(Optimizer):
    algorithm = "adamax"
    slot_names = ("m", "u")

    def _update(self, p, g, slot, lr):
        b1, b2 = self.config.beta1, self.config.beta2
        slot["m"] = b1 * slot["m"] + (1.0 - b1) * g
        slot["u"] = np.maximum(b2 * slot["u"], np.abs(g))
        m_hat = slot["m"] / (1.0 - b1**self.t)
        u = slot["u"]
        # a coordinate whose gradient has been zero for every step has
        # m == u == 0; define its update as 0 rather than 0/0
        out = np.zeros_like(p)
        np.divide(m_hat, u, out=out, where=u > 0.0)
        return -lr * out


class Nadam(Optimizer):
    algorithm = "nadam"
    slot_names = ("m", "v")

    def _update(self, p, g, slot, lr):
        b1, b2 = self.config.beta1, self.config.beta2
        slot["m"] = b1 * slot["m"] + (1.0 - b1) * g
        slot["v"] = b2 * slot["v"] + (1.0 - b2) * (g * g)
        bias1 = 1.0 - b1**self.t
        m_hat = slot["m"] / bias1
        v_hat = slot["v"] / (1.0 - b2**self.t)
        look_ahead = b1 * m_hat + (1.0 - b1) * g / bias1
        return -lr * look_ahead / (np.sqrt(v_hat) + self.config.eps)


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
        self._lr_vector = None

    def _effective_lr(self, net: Network, lr: float) -> np.ndarray:
        """``lr * S`` broadcast over each layer's weights and bias; rebuilt
        only when ``lr`` or the network layout changes."""
        if self._lr_key != (lr, net.shapes):
            if len(self.scale_table) != len(net.layers):
                raise ShapeError(
                    f"scale table has {len(self.scale_table)} entries for "
                    f"{len(net.layers)} layers"
                )
            sizes = [w.size + b.size for w, b in net.layers]
            self._lr_vector = np.repeat([lr * s for s in self.scale_table.factors], sizes)
            self._lr_key = (lr, net.shapes)
        return self._lr_vector

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
