"""How the connection-aware scaling strategies read a network's shape.

Each strategy turns the architecture into one multiplier per trainable
layer; caadam then multiplies the learning rate of a layer's weights AND
bias by that factor.  This script prints the tables for two architectures
so you can see what each strategy emphasizes:

* additive     — widest layer slowed down, narrowest sped up, linear in the
                 distance from the median connection count
* multiplicative — same ordering but geometric, and symmetric: the factors
                 for the extreme layers multiply to exactly 1
* depth_based  — ignores widths entirely; early layers get the boost, the
                 last layer always sits at exactly 1
"""

import statistics

from caadam.nn import NetworkSpec
from caadam.scaling import ScalingStrategy, compute_scale_table

GAMMA = 0.95


def show(input_dim, hidden, output_dim):
    counts = NetworkSpec(input_dim, hidden, output_dim).connection_counts

    dims = [input_dim, *hidden, output_dim]
    arrow = " -> ".join(str(d) for d in dims)
    print(f"architecture {arrow}")
    print(f"  connection counts per layer: {list(counts)}")
    print(f"  min {min(counts)}, median {float(statistics.median(counts))}, "
          f"max {max(counts)}\n")

    tables = {
        kind: compute_scale_table(ScalingStrategy(kind, gamma=GAMMA), counts)
        for kind in ("additive", "multiplicative", "depth_based")
    }
    header = f"  {'layer':<8} {'connections':>12}"
    for kind in tables:
        header += f" {kind:>16}"
    print(header)
    for i, c in enumerate(counts):
        row = f"  {i:<8} {c:>12}"
        for kind in tables:
            row += f" {tables[kind][i]:>16.6f}"
        print(row)
    mult = tables["multiplicative"]
    i_min, i_max = counts.index(min(counts)), counts.index(max(counts))
    print(f"  multiplicative symmetry: S(min) * S(max) = "
          f"{mult[i_min] * mult[i_max]:.15f}")
    print()


###############################################################################

print(f"gamma = {GAMMA}\n")

# the classic funnel: a wide middle layer framed by narrower ones
show(8, (64, 32), 1)

# a deeper stack; note how depth_based decays toward 1.0 at the output
show(13, (128, 64, 32), 1)

# degenerate single layer: every strategy collapses to the neutral factor
show(5, (), 1)

print("A factor of 1.0 means 'plain adam' for that layer; when every factor")
print("is 1.0 (single-layer networks) caadam and adam are bit-identical.")
