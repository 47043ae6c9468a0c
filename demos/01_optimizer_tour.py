"""A tour of every update rule in the package on a problem small enough
to watch: two independent scalar parameters rolling down a quadratic bowl.

The "network" is a single 1 -> 1 linear layer, so its weight and bias are
just two numbers (w, b).  We feed the optimizers hand-computed gradients of

    f(w, b) = (w - 3)^2 + (b + 1)^2

whose minimum sits at w = 3, b = -1.  Every algorithm gets the same start,
the same learning rate, and the same number of steps.
"""

import numpy as np

from caadam.nn import Network, NetworkSpec
from caadam.optim import ALGORITHMS, CaAdam, OptimizerConfig, make_optimizer
from caadam.scaling import ScaleTable

TARGET_W, TARGET_B = 3.0, -1.0
START_W, START_B = -2.0, 4.0
LR = 0.1
STEPS = 600


def scalar_net():
    spec = NetworkSpec(1, (), 1)
    return Network(spec=spec,
                   layers=[(np.array([[START_W]]), np.array([START_B]))])


def bowl_grads(net):
    w = float(net.layers[0][0][0, 0])
    b = float(net.layers[0][1][0])
    gw = 2.0 * (w - TARGET_W)
    gb = 2.0 * (b - TARGET_B)
    return np.array([gw, gb])  # laid out as net.flat: W0, then b0


###############################################################################
# Run every algorithm from the same starting point.

print(f"minimizing (w - 3)^2 + (b + 1)^2 from ({START_W}, {START_B}), "
      f"lr={LR}, {STEPS} steps\n")
print(f"{'algorithm':<10} {'final w':>12} {'final b':>12} {'distance':>12}")

for name in ALGORITHMS:
    config = OptimizerConfig(name)
    if name == "caadam":
        # a one-layer net has a single scale factor; pick a non-neutral one
        # so the tour shows the effective learning rate actually changing
        opt = CaAdam(config, ScaleTable((1.5,)))
    else:
        opt = make_optimizer(config)
    net = scalar_net()
    for _ in range(STEPS):
        opt.step(net, bowl_grads(net), lr=LR)
    w = float(net.layers[0][0][0, 0])
    b = float(net.layers[0][1][0])
    dist = ((w - TARGET_W) ** 2 + (b - TARGET_B) ** 2) ** 0.5
    print(f"{name:<10} {w:>12.6f} {b:>12.6f} {dist:>12.2e}")

print("\nNotes: adagrad's accumulated denominator makes it the slowest to")
print("cover distance at a fixed budget; adamw's decoupled weight decay")
print("deliberately biases the solution toward the origin, so it settles")
print("near, not at, the target; caadam here is adam with its step scaled")
print("1.5x, so it lands a little tighter than adam at the same lr.")
