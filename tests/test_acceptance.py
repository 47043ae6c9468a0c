"""Acceptance gate: nine end-to-end checks pinning the package's externally
observable behavior.  Each test is self-contained — expected values are either
frozen literals (hand-derived or independently computed) or produced by a
brute-force re-implementation written next to the check, never by the code
under test.

1. update rules match brute-force scalar oracles over 20 steps
2. neutral scaling is bit-identical to plain adam over 200 real steps
3. scale tables match direct formula evaluation on 50 random architectures
4. backprop gradients match central finite differences
5. the training protocol reproduces hand-simulated schedules
6. welch statistics match frozen reference values, star cutoffs are strict
7. connection scaling beats adam on the bundled regression benchmark
8. connection scaling is not worse under a fixed 20-epoch budget
9. repeated benchmark CLI runs produce byte-identical trial records
"""

import json
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from caadam.bench import DEFAULT_SPLIT, OptimizerEntry, run_trial, trial_setup
from caadam.cli import EXIT_OK, main
from caadam.data import benchmark_regression
from caadam.linalg import make_rng
from caadam.nn import (
    CLASSIFICATION,
    REGRESSION,
    Network,
    NetworkSpec,
    backward,
    forward,
    init_network,
    loss,
)
from caadam.optim import (
    ALGORITHMS,
    Adam,
    CaAdam,
    OptimizerConfig,
    make_optimizer,
)
from caadam.scaling import ScaleTable, ScalingStrategy, compute_scale_table
from caadam.stats import significance_stars, welch_one_sided_p, welch_t_test
from caadam.train import EarlyStopper, PlateauScheduler, TrainConfig, train


# ---------------------------------------------------------------------------
# 1. every update rule against a brute-force scalar oracle


def test_update_rules_match_scalar_oracles():
    w0, b0, scale = 0.4, -0.2, 1.3
    grad_pairs = [
        (math.sin(1.3 * t + 0.2) + 0.1, math.cos(0.7 * t) - 0.05)
        for t in range(20)
    ]
    for algorithm in ALGORITHMS:
        config = OptimizerConfig(algorithm)
        if algorithm == "caadam":
            opt = CaAdam(config, ScaleTable((scale,)))
        else:
            opt = make_optimizer(config)
        net = Network(spec=NetworkSpec(1, (), 1),
                      layers=[(np.array([[w0]]), np.array([b0]))])
        ws, bs = [], []
        for gw, gb in grad_pairs:
            opt.step(net, np.array([gw, gb]))
            ws.append(float(net.layers[0][0][0, 0]))
            bs.append(float(net.layers[0][1][0]))
        oracle = oracles.TRAJECTORIES[algorithm]
        gws = [g for g, _ in grad_pairs]
        gbs = [g for _, g in grad_pairs]
        if algorithm == "caadam":
            want_w, want_b = oracle(gws, w0, scale), oracle(gbs, b0, scale)
        else:
            want_w, want_b = oracle(gws, w0), oracle(gbs, b0)
        assert_allclose(ws, want_w, rtol=0, atol=1e-12, err_msg=algorithm)
        assert_allclose(bs, want_b, rtol=0, atol=1e-12, err_msg=algorithm)


# ---------------------------------------------------------------------------
# 2. neutral scaling == plain adam, bit for bit


def _lockstep_bit_identical(net_a, opt_a, net_b, opt_b, steps):
    rng = make_rng(99)
    x = rng.normal(size=(16, net_a.spec.input_dim))
    y = rng.normal(size=(16, net_a.spec.output_dim))
    for step in range(steps):
        for net, opt in ((net_a, opt_a), (net_b, opt_b)):
            _, cache = forward(net, x)
            opt.step(net, backward(net, cache, y))
        for i, ((wa, ba), (wb, bb)) in enumerate(zip(net_a.layers,
                                                     net_b.layers)):
            assert np.array_equal(wa, wb), f"step {step}, weights {i}"
            assert np.array_equal(ba, bb), f"step {step}, biases {i}"


def _twin_nets(spec):
    return init_network(spec, make_rng(7)), init_network(spec, make_rng(7))


def test_neutral_scaling_reduces_to_adam_exactly():
    # single trainable layer: min == median == max, so every min/max/median
    # strategy degenerates to the neutral factor 1.0
    spec = NetworkSpec(3, (), 1)
    for kind in ("additive", "multiplicative"):
        net_a, net_b = _twin_nets(spec)
        config = OptimizerConfig("caadam", scaling=ScalingStrategy(kind))
        opt = make_optimizer(config, net_a)
        assert list(opt.scale_table) == [1.0]
        _lockstep_bit_identical(net_a, opt, net_b,
                                make_optimizer(OptimizerConfig("adam")), 200)

    # multi-layer network with an explicit all-ones table
    spec = NetworkSpec(4, (8, 6), 1)
    net_a, net_b = _twin_nets(spec)
    opt = CaAdam(OptimizerConfig("caadam"), ScaleTable((1.0, 1.0, 1.0)))
    _lockstep_bit_identical(net_a, opt, net_b, Adam(OptimizerConfig("adam")),
                            200)


# ---------------------------------------------------------------------------
# 3. scale tables against direct formula evaluation


def _direct_sigma(c, counts):
    med = statistics.median(counts)
    if c >= med:
        denom = max(counts) - med
        return (c - med) / denom if denom else 0.0
    denom = med - min(counts)
    return -((med - c) / denom) if denom else 0.0


def test_scale_tables_match_direct_formulas_on_random_architectures():
    rng = make_rng(31)
    for case in range(50):
        n_hidden = int(rng.integers(0, 4))
        dims = [int(rng.integers(1, 200)) for _ in range(n_hidden + 2)]
        gamma = float(rng.uniform(0.05, 0.99))
        spec = NetworkSpec(dims[0], tuple(dims[1:-1]), dims[-1])
        counts = spec.connection_counts
        d_m = len(counts)

        additive = compute_scale_table(
            ScalingStrategy("additive", gamma=gamma), counts)
        multiplicative = compute_scale_table(
            ScalingStrategy("multiplicative", gamma=gamma), counts)
        depth = compute_scale_table(
            ScalingStrategy("depth_based", gamma=gamma), counts)

        for i, c in enumerate(counts):
            sigma = _direct_sigma(c, counts)
            assert abs(additive[i] - (1.0 - gamma * sigma)) <= 1e-12
            assert abs(multiplicative[i] - gamma**sigma) <= 1e-12
            want = (1.0 + gamma) ** ((d_m - (1 + i)) / d_m)
            assert abs(depth[i] - want) <= 1e-12
            assert (1.0 - gamma) - 1e-12 <= additive[i] <= (1.0 + gamma) + 1e-12

        med = statistics.median(counts)
        if min(counts) < med < max(counts):
            i_min = counts.index(min(counts))
            i_max = counts.index(max(counts))
            product = multiplicative[i_min] * multiplicative[i_max]
            assert abs(product - 1.0) <= 1e-12, f"case {case}: {product}"
        assert depth[d_m - 1] == 1.0


# ---------------------------------------------------------------------------
# 4. analytic gradients against central finite differences


def _numeric_grads(net, x, y, head, h=1e-6):
    out = []
    for w, b in net.layers:
        dw, db = np.zeros_like(w), np.zeros_like(b)
        for arr, darr in ((w, dw), (b, db)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                hi = loss(forward(net, x)[0], y, head)
                arr[idx] = orig - h
                lo = loss(forward(net, x)[0], y, head)
                arr[idx] = orig
                darr[idx] = (hi - lo) / (2.0 * h)
        out.append((dw, db))
    return out


def test_backprop_gradients_match_finite_differences():
    rng = make_rng(55)
    for hidden in ((), (5,), (6, 4)):
        for head in (REGRESSION, CLASSIFICATION):
            out_dim = 1 if head == REGRESSION else 3
            spec = NetworkSpec(4, hidden, out_dim, output_head=head)
            net = init_network(spec, make_rng(11))
            x = rng.normal(size=(10, 4))
            if head == REGRESSION:
                y = rng.normal(size=(10, 1))
            else:
                y = rng.integers(0, out_dim, size=10)
            _, cache = forward(net, x)
            backward(net, cache, y)
            numeric = _numeric_grads(net, x, y, head)
            worst = 0.0
            for (aw, ab), (nw, nb) in zip(cache.grad_layers, numeric):
                for a, n in ((aw, nw), (ab, nb)):
                    rel = np.abs(a - n) / np.maximum(np.abs(n), 1e-8)
                    worst = max(worst, float(rel.max()))
            assert worst <= 1e-4, f"hidden={hidden} head={head}: {worst}"


# ---------------------------------------------------------------------------
# 5. scheduling callbacks against hand-simulated schedules
#
# Expected stop epochs and learning-rate runs below were worked out by hand
# from the protocol rules (strict improvement past min_delta, independent
# patience counters, multiplicative lr cuts with a floor) and frozen.

LR0, LR1, LR2, LR3 = 1e-3, 2.5e-4, 6.25e-5, 2.5e-5

PROTOCOL_CASES = [
    # steadily improving: no stop, no cuts
    ([1.0 - 0.01 * k for k in range(30)], None, [(LR0, 30)]),
    # constant: first value improves, then pure stall
    ([1.0] * 40, 16, [(LR0, 7), (LR1, 6), (LR2, 3)]),
    # plateau, one late rescue, then the full lr chain down to the floor
    ([1.0, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.5] + [0.5] * 25,
     24, [(LR0, 8), (LR1, 7), (LR2, 6), (LR3, 3)]),
    # 3e-6/epoch crawl: micro-improvements are masked by min_delta but the
    # cumulative drop resets the counters every 4th epoch, so nothing fires
    ([1.0] + [1.0 - 3e-6 * k for k in range(1, 30)], None, [(LR0, 30)]),
    # sawtooth settling onto a plateau above the best
    ([1.0, 0.8, 0.9, 0.7, 0.85, 0.6, 0.75, 0.55] + [0.6, 0.56] * 12,
     23, [(LR0, 14), (LR1, 6), (LR2, 3)]),
]


@pytest.mark.parametrize("losses,want_stop,want_runs", PROTOCOL_CASES)
def test_training_protocol_reproduces_hand_simulated_schedules(
        losses, want_stop, want_runs):
    cfg = TrainConfig()
    stopper = EarlyStopper(cfg.early_stop_patience, cfg.early_stop_min_delta)
    scheduler = PlateauScheduler(cfg.initial_lr, cfg.lr_reduce_factor,
                                 cfg.lr_reduce_patience,
                                 cfg.early_stop_min_delta, cfg.min_lr)
    lr, lrs, stop = cfg.initial_lr, [], None
    for epoch, v in enumerate(losses, start=1):
        lrs.append(lr)
        _, should_stop = stopper.update(v)
        next_lr = scheduler.update(v)
        if should_stop:
            stop = epoch
            break
        lr = next_lr

    runs = []
    for value in lrs:
        if runs and runs[-1][0] == value:
            runs[-1][1] += 1
        else:
            runs.append([value, 1])
    assert stop == want_stop
    assert [tuple(r) for r in runs] == want_runs


# ---------------------------------------------------------------------------
# 6. welch statistics against frozen reference values

WELCH_CASES = [
    # (group_a, group_b, t, two_sided_p) — frozen from an independent
    # reference implementation
    ([1, 2, 3], [4, 5, 6],
     -3.6742346141747673, 0.021311641128756727),
    ([0.446, 0.451, 0.44, 0.448, 0.443], [0.466, 0.47, 0.461, 0.468, 0.473],
     -7.9179732582356825, 4.7736452640662295e-05),
    ([10, 12, 11, 13], [10.5, 11.5, 12.5],
     0.0, 1.0),
    ([2.5, 2.5, 2.5, 2.6], [2.5, 2.5, 2.5, 2.4],
     1.4142135623730887, 0.20703125000000175),
    ([100, 101, 99, 100.5, 99.5, 100.2], [100.1, 100.9, 99.2, 100.4, 99.6],
     -0.016026176096527744, 0.9875695069504118),
    ([0.1, 0.2, 0.15, 0.12, 0.18], [0.3, 0.25, 0.28, 0.31, 0.27],
     -6.195066958923905, 0.0006316985297602028),
    ([5.0, 5.1], [5.2, 5.3],
     -2.8284271247462027, 0.10557280900008333),
    ([0.001, 0.002, 0.0015], [0.0011, 0.0021, 0.0016],
     -0.24494897427831688, 0.8185490697753567),
    ([7, 7, 7.1, 6.9, 7.05], [7, 7, 7.1, 6.9, 7.05],
     0.0, 1.0),
    ([42, 44, 41, 43, 45, 40], [52, 54, 51, 53, 55, 50],
     -9.258200997725515, 3.2065531538603336e-06),
]


def test_welch_statistics_match_reference_values():
    for a, b, want_t, want_p in WELCH_CASES:
        res = welch_t_test(a, b)
        assert abs(res.t - want_t) <= 1e-3, (a, b)
        assert abs(res.p - want_p) <= 1e-3, (a, b)

    # star cutoffs are strict inequalities at every boundary
    assert significance_stars(0.0009) == "***"
    assert significance_stars(0.001) == "**"
    assert significance_stars(0.009) == "**"
    assert significance_stars(0.01) == "*"
    assert significance_stars(0.049) == "*"
    assert significance_stars(0.05) == ""
    assert significance_stars(0.5) == ""


# ---------------------------------------------------------------------------
# 7 & 8. the bundled regression benchmark

ADAM_ENTRY = OptimizerEntry("adam", OptimizerConfig("adam"))
CAADAM_ENTRY = OptimizerEntry(
    "caadam-multiplicative",
    OptimizerConfig("caadam", scaling=ScalingStrategy("multiplicative")),
)


def test_connection_scaling_beats_adam_on_bundled_benchmark():
    """10 repeated trials of the full protocol on the bundled benchmark:
    connection-scaled training must reach a lower mean test RMSE in fewer
    mean epochs than plain adam, with one-sided Welch p < 0.1 on both."""
    dataset = benchmark_regression()
    cfg = TrainConfig()  # batch 64, lr 1e-3, full early-stop/plateau protocol
    measured = {}
    for entry in (ADAM_ENTRY, CAADAM_ENTRY):
        rmse, epochs = [], []
        for k in range(10):
            res = run_trial(dataset, (64, 32), entry, cfg, DEFAULT_SPLIT,
                            1000 + k)
            assert math.isfinite(res.metric), f"{entry.label} trial {k} diverged"
            rmse.append(res.metric)
            epochs.append(float(res.epochs_run))
        measured[entry.label] = (rmse, epochs)

    adam_rmse, adam_epochs = measured["adam"]
    ca_rmse, ca_epochs = measured["caadam-multiplicative"]
    p_rmse = welch_one_sided_p(ca_rmse, adam_rmse)
    p_epochs = welch_one_sided_p(ca_epochs, adam_epochs)
    msg = (
        f"mean rmse: caadam {statistics.fmean(ca_rmse):.6f} vs "
        f"adam {statistics.fmean(adam_rmse):.6f}; "
        f"mean epochs: caadam {statistics.fmean(ca_epochs):.2f} vs "
        f"adam {statistics.fmean(adam_epochs):.2f}; "
        f"one-sided welch p: rmse {p_rmse:.4f}, epochs {p_epochs:.4f}"
    )
    assert statistics.fmean(ca_rmse) < statistics.fmean(adam_rmse), msg
    assert statistics.fmean(ca_epochs) < statistics.fmean(adam_epochs), msg
    assert p_rmse < 0.1 and p_epochs < 0.1, msg


def test_fixed_budget_median_training_loss_not_worse_than_adam():
    """Median over 5 seeds of the training loss after exactly 20 epochs on
    the bundled benchmark, callbacks disabled: connection scaling must not
    be worse than plain adam."""
    dataset = benchmark_regression()
    cfg = TrainConfig(max_epochs=20, early_stop_patience=10**6,
                      lr_reduce_patience=10**6)
    medians = {}
    for entry in (ADAM_ENTRY, CAADAM_ENTRY):
        losses = []
        for seed in range(1000, 1005):
            split, net, shuffle_seed = trial_setup(
                dataset, (128, 64, 32), DEFAULT_SPLIT, seed)
            opt = make_optimizer(entry.config, net)
            _, log = train(net, opt, split, replace(cfg, seed=shuffle_seed))
            assert log.epochs_run == 20
            losses.append(log.records[-1].train_loss)
        medians[entry.label] = statistics.median(losses)

    adam_med = medians["adam"]
    ca_med = medians["caadam-multiplicative"]
    assert ca_med <= adam_med, (
        f"median train loss at epoch 20: caadam {ca_med:.6f} vs "
        f"adam {adam_med:.6f}")


# ---------------------------------------------------------------------------
# 9. byte-reproducible benchmark records


def test_benchmark_cli_runs_are_byte_reproducible(tmp_path):
    config = {
        "dataset": {"kind": "benchmark_regression"},
        "architectures": [[8]],
        "optimizers": [
            {"algorithm": "adam"},
            {"algorithm": "caadam", "scaling": "multiplicative"},
        ],
        "train": {"batch_size": 64, "max_epochs": 3},
        "trials": 2,
        "base_seed": 424242,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    code_a = main(["benchmark", "--config", str(cfg_path),
                   "--out", str(tmp_path / "a"), "--quiet"])
    code_b = main(["benchmark", "--config", str(cfg_path),
                   "--out", str(tmp_path / "b"), "--quiet"])
    assert code_a == EXIT_OK and code_b == EXIT_OK

    bytes_a = (tmp_path / "a" / "trials.json").read_bytes()
    bytes_b = (tmp_path / "b" / "trials.json").read_bytes()
    assert bytes_a == bytes_b
    payload = json.loads(bytes_a)
    assert payload["version"] == 1
    assert len(payload["results"]) == 4
