"""Per-layer scaling factors for connection-aware optimization.

Three strategies turn an :class:`~caadam.arch.ArchitectureSummary` into one
positive factor S per layer, later multiplied into that layer's update so
the effective learning rate becomes lr * S:

* ``additive``: linear in where the layer's connection count sits between
  the network minimum, median, and maximum.  Layers at or below the median
  count get S >= 1 (their updates are enhanced), layers above it S <= 1.
* ``multiplicative``: the same min/median/max position mapped through an
  exponential, S = gamma ** sigma.  With the default signed convention,
  sigma is negative below the median so those layers also get S > 1,
  mirroring the additive rule; S(c_min) * S(c_max) = 1.  The unsigned
  convention keeps sigma positive on both branches, which shrinks updates
  for small and large layers alike, and is kept only for comparison.
* ``depth``: S = (1 + gamma) ** ((d_m - (1 + d)) / d_m) with d the
  zero-based layer index and d_m the layer count, decaying from the input
  side to exactly 1 at the final layer.

Factors are computed once per optimizer construction: the architecture is
static, so the table never changes during training.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .arch import ArchitectureSummary
from .errors import ConfigError

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
DEPTH = "depth"

SIGNED = "signed"
UNSIGNED = "unsigned"

_KIND_ALIASES = {
    "additive": ADDITIVE,
    "additive_minmaxmedian": ADDITIVE,
    "multiplicative": MULTIPLICATIVE,
    "multiplicative_minmaxmedian": MULTIPLICATIVE,
    "depth": DEPTH,
    "depth_based": DEPTH,
}


@dataclass(frozen=True)
class ScalingStrategy:
    """Which scaling rule to apply, and how strongly (gamma, default 0.95)."""

    kind: str
    gamma: float = 0.95
    multiplicative_sigma: str = SIGNED

    def __post_init__(self):
        kind = _KIND_ALIASES.get(self.kind)
        if kind is None:
            raise ConfigError(f"unknown scaling kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if kind in (ADDITIVE, MULTIPLICATIVE):
            # Not subnormal: 1 / gamma, the largest multiplicative factor, must be finite.
            if not sys.float_info.min <= self.gamma < 1.0:
                raise ConfigError(f"gamma must lie in [{sys.float_info.min}, 1) "
                                  f"for {kind} scaling, got {self.gamma}")
        elif not -1.0 < self.gamma < math.inf:
            raise ConfigError(f"gamma must be a finite number > -1 for depth scaling, "
                              f"got {self.gamma}")
        if self.multiplicative_sigma not in (SIGNED, UNSIGNED):
            raise ConfigError(
                f"multiplicative_sigma must be 'signed' or 'unsigned', "
                f"got {self.multiplicative_sigma!r}"
            )


@dataclass(frozen=True)
class ScaleTable:
    """Per-layer factor S, indexed like the summary's layer list."""

    factors: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(float(s) for s in self.factors))
        if any(not math.isfinite(s) or s <= 0.0 for s in self.factors):
            raise ConfigError(f"scale factors must be positive and finite: {self.factors}")

    def __getitem__(self, layer: int) -> float:
        return self.factors[layer]

    def __len__(self) -> int:
        return len(self.factors)


def _sigma(c: int, summary: ArchitectureSummary, signed: bool) -> float:
    med = summary.c_median
    if c <= med:
        denom = med - summary.c_min
        if denom == 0.0:
            return 0.0
        s = (med - c) / denom
        return -s if signed else s
    denom = summary.c_max - med
    if denom == 0.0:
        return 0.0
    return (c - med) / denom


def scale_additive(summary: ArchitectureSummary, gamma: float) -> ScaleTable:
    """S = 1 + gamma * (median - c) / (median - min) below the median,
    S = 1 - gamma * (c - median) / (max - median) above it.

    A branch whose denominator collapses (median equals the extreme) yields
    the neutral S = 1, so degenerate architectures fall back to plain Adam.
    """
    factors = []
    for info in summary.layers:
        sigma = _sigma(info.connections, summary, signed=True)
        factors.append(1.0 - gamma * sigma)
    return ScaleTable(tuple(factors))


def scale_multiplicative(
    summary: ArchitectureSummary, gamma: float, sigma_convention: str = SIGNED
) -> ScaleTable:
    """S = gamma ** sigma with sigma the layer's normalized position.

    Signed convention (default): sigma < 0 below the median, so small layers
    get S > 1 and S(c_min) * S(c_max) = 1.  Unsigned keeps sigma positive on
    both branches.
    """
    signed = sigma_convention == SIGNED
    log_gamma = math.log(gamma)
    factors = []
    for info in summary.layers:
        sigma = _sigma(info.connections, summary, signed=signed)
        factors.append(math.exp(sigma * log_gamma))
    return ScaleTable(tuple(factors))


def scale_depth(summary: ArchitectureSummary, gamma: float) -> ScaleTable:
    """S = (1 + gamma) ** ((d_m - (1 + d)) / d_m), equal to 1 at the last layer."""
    d_m = summary.total_depth
    factors = []
    for info in summary.layers:
        exponent = (d_m - (1 + info.index)) / d_m
        factors.append((1.0 + gamma) ** exponent)
    return ScaleTable(tuple(factors))


def compute_scale_table(strategy: ScalingStrategy, summary: ArchitectureSummary) -> ScaleTable:
    """Evaluate ``strategy`` over ``summary``, one factor per trainable layer."""
    if strategy.kind == ADDITIVE:
        return scale_additive(summary, strategy.gamma)
    if strategy.kind == MULTIPLICATIVE:
        return scale_multiplicative(summary, strategy.gamma, strategy.multiplicative_sigma)
    return scale_depth(summary, strategy.gamma)
