"""Per-layer scaling factors for connection-aware optimization.

:func:`compute_scale_table` turns the connection counts of an
:class:`~caadam.arch.ArchitectureSummary` into one positive factor S per
layer, later multiplied into that layer's update so the effective learning
rate becomes lr * S.  It holds all three rules:

* ``additive``: linear in where the layer's connection count sits between
  the network minimum, median, and maximum.  Layers at or below the median
  count get S >= 1 (their updates are enhanced), layers above it S <= 1.
* ``multiplicative``: the same min/median/max position mapped through an
  exponential, S = gamma ** sigma.  With the default signed convention,
  sigma is negative below the median so those layers also get S > 1,
  mirroring the additive rule; S(c_min) * S(c_max) = 1.  The unsigned
  convention keeps sigma positive on both branches, which shrinks updates
  for small and large layers alike, and is kept only for comparison; it is
  valid for this kind only.
* ``depth``: S = (1 + gamma) ** ((d_m - (1 + d)) / d_m) with d the
  zero-based layer index and d_m the layer count, decaying from the input
  side to exactly 1 at the final layer.

Factors are computed once per optimizer construction: the architecture is
static, so the table never changes during training.
"""

from __future__ import annotations

import math
import statistics
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
            raise ConfigError(f"multiplicative_sigma must be 'signed' or 'unsigned', "
                              f"got {self.multiplicative_sigma!r}")
        if self.multiplicative_sigma == UNSIGNED and kind != MULTIPLICATIVE:
            raise ConfigError(f"multiplicative_sigma 'unsigned' is only valid for "
                              f"multiplicative scaling, not {kind}")


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


def _sigma(c: int, low: int, med: float, high: int, signed: bool) -> float:
    """Where ``c`` sits between the median and the nearer extreme, in [0, 1],
    negated below the median when ``signed``; 0 when that span is empty."""
    if c > med:  # so high > med: this span is never empty
        return (c - med) / (high - med)
    s = (med - c) / (med - low) if med > low else 0.0
    return -s if signed else s


def compute_scale_table(strategy: ScalingStrategy, summary: ArchitectureSummary) -> ScaleTable:
    """One factor per trainable layer of ``summary`` by ``strategy``'s rule
    (see the module docstring): S = 1 - gamma * sigma, gamma ** sigma, or
    the depth power.  A min/median/max span that collapses gives sigma = 0,
    the neutral S = 1, so degenerate architectures fall back to plain Adam.
    """
    counts, gamma = summary.counts, strategy.gamma
    if strategy.kind == DEPTH:
        d_m = len(counts)
        return ScaleTable(tuple((1.0 + gamma) ** ((d_m - (1 + d)) / d_m) for d in range(d_m)))
    low, med, high = min(counts), float(statistics.median(counts)), max(counts)
    signed = strategy.multiplicative_sigma == SIGNED
    sigmas = [_sigma(c, low, med, high, signed) for c in counts]
    if strategy.kind == ADDITIVE:
        return ScaleTable(tuple(1.0 - gamma * sigma for sigma in sigmas))
    log_gamma = math.log(gamma)
    return ScaleTable(tuple(math.exp(sigma * log_gamma) for sigma in sigmas))
