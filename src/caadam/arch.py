"""Structural summaries of a network for connection-aware scaling.

A layer's connection count is the number of weight edges between two neuron
layers (fan_in * fan_out); biases are not inter-neuron connections and are
excluded.  The counts are in forward order, so a layer's position in them is
its zero-based depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructureError
from .nn import Network


@dataclass(frozen=True)
class ArchitectureSummary:
    counts: tuple[int, ...]  # connection count per trainable layer, in forward order

    def __post_init__(self):
        if not self.counts:
            raise StructureError("network has no trainable layers")

    def connection_counts(self) -> list[int]:
        return list(self.counts)


def summarize(net: Network) -> ArchitectureSummary:
    """The connection count of each trainable layer of ``net``."""
    return ArchitectureSummary(tuple(w.shape[0] * w.shape[1] for w, _ in net.layers))
