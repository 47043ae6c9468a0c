"""Set-up probe: import caadam, build a workload's dataset, set up its first
trial, make the optimizer and take one training step, in a fresh process.

Usage: ``python3 perfbench/first_step.py <workload> <unit seed>``.  Prints one
JSON line of ``time.monotonic()`` readings, which share their clock with the
parent process that started this one.
"""

import json
import sys
import time

import workloads as wls

t_import = time.monotonic()
wl = wls.WORKLOADS[sys.argv[1]]
seed = int(sys.argv[2])
dataset, hidden, opt_config, train_cfg = wls.first_step_inputs(wl, seed)
t_data = time.monotonic()
split, net, _ = wls.bench.trial_setup(dataset, hidden, wls.bench.DEFAULT_SPLIT, seed)
opt = wls.bench.make_optimizer(opt_config, net)
t_setup = time.monotonic()
rows = slice(0, train_cfg.batch_size)
_, cache = wls.nn.forward(net, split.train.features[rows])
grads = wls.nn.backward(net, cache, split.train.targets[rows])
opt.step(net, grads, lr=train_cfg.initial_lr)
t_step = time.monotonic()
print(json.dumps({"import": t_import, "data": t_data, "setup": t_setup, "step": t_step}))
