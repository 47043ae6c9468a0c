"""Optimizer update rules against brute-force scalar oracles, plus stepping
contract, checkpointing, and failure modes."""

import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from caadam.errors import ConfigError, NonFiniteError, ShapeError
from caadam.linalg import make_rng
from caadam.nn import (
    Network,
    NetworkSpec,
    backward,
    forward,
    init_network,
    split_views,
    stack,
)
from caadam.optim import (
    ALGORITHMS,
    DEFAULT_LR,
    Adam,
    CaAdam,
    OptimizerConfig,
    from_checkpoint,
    load_checkpoint,
    make_optimizer,
    optimizer_class,
    save_checkpoint,
)
from caadam.scaling import ScaleTable, ScalingStrategy

W0, B0 = 0.4, -0.2
CAADAM_SCALE = 1.3

# deterministic, sign-changing gradient streams for the 20-step trajectories
GRAD_PAIRS = [
    (math.sin(1.3 * t + 0.2) + 0.1, math.cos(0.7 * t) - 0.05) for t in range(20)
]


def scalar_net(w0=W0, b0=B0):
    """1 -> 1 linear network; its weight and bias act as two independent
    scalar parameters driven by externally chosen gradients."""
    spec = NetworkSpec(1, (), 1)
    return Network(spec=spec, layers=[(np.array([[w0]]), np.array([b0]))])


def make_named(algorithm, **hyper):
    config = OptimizerConfig(algorithm, **hyper)
    if algorithm == "caadam":
        return CaAdam(config, ScaleTable((CAADAM_SCALE,)))
    return make_optimizer(config)


def drive(opt, net, grad_pairs, lr=1e-3):
    ws, bs = [], []
    for gw, gb in grad_pairs:
        opt.step(net, np.array([gw, gb]), lr=lr)
        ws.append(float(net.layers[0][0][0, 0]))
        bs.append(float(net.layers[0][1][0]))
    return ws, bs


def oracle_trajectories(algorithm, grad_pairs):
    fn = oracles.TRAJECTORIES[algorithm]
    gws = [gw for gw, _ in grad_pairs]
    gbs = [gb for _, gb in grad_pairs]
    if algorithm == "caadam":
        return fn(gws, W0, CAADAM_SCALE), fn(gbs, B0, CAADAM_SCALE)
    return fn(gws, W0), fn(gbs, B0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_twenty_step_trajectory_matches_oracle(algorithm):
    opt = make_named(algorithm)
    ws, bs = drive(opt, scalar_net(), GRAD_PAIRS)
    want_w, want_b = oracle_trajectories(algorithm, GRAD_PAIRS)
    assert_allclose(ws, want_w, rtol=0, atol=1e-12)
    assert_allclose(bs, want_b, rtol=0, atol=1e-12)
    assert opt.t == len(GRAD_PAIRS)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_bowl_convergence(algorithm):
    """Every update rule should settle near the minimum of (w - 3)^2."""
    net = scalar_net(w0=-1.0, b0=0.0)
    opt = make_named(algorithm)
    for _ in range(4000):
        w = net.layers[0][0][0, 0]
        opt.step(net, np.array([2.0 * (w - 3.0), 0.0]), lr=0.1)
    assert abs(net.layers[0][0][0, 0] - 3.0) <= 0.01
    # the bias never saw a nonzero gradient and must not move
    assert net.layers[0][1][0] == 0.0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("key", [f.name for f in fields(OptimizerConfig)
                                 if isinstance(f.default, float)])
def test_a_hyper_parameter_changes_a_two_step_trajectory_exactly_when_read(algorithm, key):
    # the gradients shrink, so adamax's u = max(beta2 * u, |g|) keeps beta2 * u
    grad_pairs = [(1.0, -0.5), (0.1, 0.05)]
    default = drive(make_named(algorithm), scalar_net(), grad_pairs, lr=0.1)
    opt = make_named(algorithm)
    object.__setattr__(opt.config, key, 0.5)  # past the check that refuses an unread value
    changed = drive(opt, scalar_net(), grad_pairs, lr=0.1)
    assert (changed != default) == (key in optimizer_class(algorithm).reads)


def test_adamax_zero_gradient_coordinate_stays_put():
    # u == 0 on a never-touched coordinate: the 0/0 is defined as 0
    net = scalar_net()
    opt = make_named("adamax")
    drive(opt, net, [(0.0, 0.0)] * 3)
    assert net.layers[0][0][0, 0] == W0
    assert net.layers[0][1][0] == B0


def test_step_without_lr_uses_default_lr():
    net = scalar_net(w0=1.0, b0=1.0)
    opt = make_optimizer(OptimizerConfig("sgd"))
    opt.step(net, np.array([2.0, 4.0]))
    assert net.layers[0][0][0, 0] == 1.0 - DEFAULT_LR * 2.0
    assert net.layers[0][1][0] == 1.0 - DEFAULT_LR * 4.0


def test_step_rejects_bad_lr():
    opt = make_named("sgd")
    with pytest.raises(ConfigError, match="lr must be > 0"):
        opt.step(scalar_net(), np.zeros(2), lr=0.0)


@pytest.mark.parametrize("lr", [math.nan, math.inf, True, None, "0.1"])
def test_step_with_non_finite_lr_fails_before_changing_state(lr):
    net, opt = scalar_net(), make_named("adam")
    drive(opt, net, GRAD_PAIRS[:2])
    before, weights = opt.to_checkpoint(), net.flat.copy()
    with pytest.raises(ConfigError, match="lr must be > 0"):
        drive(opt, net, GRAD_PAIRS[2:3], lr=lr)
    assert opt.to_checkpoint() == before and opt.t == 2
    assert_array_equal(net.flat, weights)


def test_step_rejects_nonfinite_update():
    opt = make_named("sgd")
    with pytest.raises(NonFiniteError, match="tensor 0"):
        opt.step(scalar_net(), np.array([np.inf, 0.0]))


def test_step_rejects_mismatched_gradients():
    net = init_network(NetworkSpec(2, (3,), 1), make_rng(0))
    opt = make_named("adam")
    opt.step(net, np.ones(net.flat.size))
    before, weights = opt.to_checkpoint(), net.flat.copy()
    for bad in (np.ones(net.flat.size - 1), np.ones((1, net.flat.size))):
        with pytest.raises(ShapeError, match=r"gradients of shape \(.*\) for parameters"):
            opt.step(net, bad)
    assert opt.t == 1 and opt.to_checkpoint() == before
    assert_array_equal(net.flat, weights)


# ---------------------------------------------------------------------------
# caadam specifics


def test_caadam_scale_table_length_checked():
    net = init_network(NetworkSpec(2, (3,), 1), make_rng(0))
    opt = CaAdam(OptimizerConfig("caadam"), ScaleTable((1.5,)))
    with pytest.raises(ShapeError, match="scale table has 1 entries for 2 layers"):
        opt.step(net, np.zeros(net.flat.size))


def test_caadam_bias_shares_its_layer_factor():
    """Per-tensor deltas are the plain-Adam deltas scaled by that layer's S,
    with weights and bias of one layer sharing the factor."""
    spec = NetworkSpec(1, (2,), 1)
    net_ca = init_network(spec, make_rng(33))
    net_adam = Network(spec=spec, layers=net_ca.layers)
    before = net_ca.copy_weights()

    table = ScaleTable((2.0, 0.5))
    ca = CaAdam(OptimizerConfig("caadam"), table)
    adam = Adam(OptimizerConfig("adam"))
    rng = make_rng(34)
    grads = np.concatenate([
        rng.normal(size=(1, 2)).ravel(), rng.normal(size=2),
        rng.normal(size=(2, 1)).ravel(), rng.normal(size=1),
    ])
    ca.step(net_ca, grads)
    adam.step(net_adam, grads)

    deltas_ca = split_views(net_ca.flat - before, net_ca.shapes)
    deltas_adam = split_views(net_adam.flat - before, net_adam.shapes)
    for i, (delta_ca, delta_adam) in enumerate(zip(deltas_ca, deltas_adam)):
        factor = table.factors[i // 2]  # tensors W0, b0, W1, b1
        assert_allclose(delta_ca, factor * delta_adam, rtol=1e-12)


def test_make_optimizer_derives_caadam_table_from_architecture():
    net = init_network(NetworkSpec(8, (64, 32), 1), make_rng(1))
    config = OptimizerConfig("caadam", scaling=ScalingStrategy("multiplicative"))
    opt = make_optimizer(config, net)
    assert_allclose(opt.scale_table.factors, [1.0, 0.95, 1.0 / 0.95], rtol=1e-15)


def test_a_stack_has_the_scale_table_of_each_member():
    # a stack's weight arrays carry a leading member axis, so the table comes
    # from the spec, not from the arrays' shapes
    nets = [init_network(NetworkSpec(8, (64, 32), 1), make_rng(seed)) for seed in (1, 2)]
    config = OptimizerConfig("caadam", scaling=ScalingStrategy("multiplicative"))
    alone = [make_optimizer(config, net).scale_table for net in nets]
    assert make_optimizer(config, stack(nets)).scale_table == alone[0] == alone[1]


def test_make_optimizer_caadam_requirements():
    with pytest.raises(ConfigError, match="needs the network"):
        make_optimizer(OptimizerConfig("caadam", scaling=ScalingStrategy("additive")))
    net = init_network(NetworkSpec(4, (3,), 1), make_rng(0))
    with pytest.raises(ConfigError, match="requires config.scaling"):
        make_optimizer(OptimizerConfig("caadam"), net)
    opt = make_optimizer(OptimizerConfig("caadam", scaling=ScalingStrategy("depth")), net)
    assert isinstance(opt, CaAdam)
    assert len(opt.scale_table) == 2


def test_make_optimizer_dispatch():
    for name in ALGORITHMS:
        if name == "caadam":
            continue
        opt = make_optimizer(OptimizerConfig(name))
        assert opt.algorithm == name


# ---------------------------------------------------------------------------
# config validation


def test_optimizer_config_validation():
    with pytest.raises(ConfigError, match="unknown algorithm"):
        OptimizerConfig("lion")
    with pytest.raises(ConfigError, match="unknown algorithm"):
        OptimizerConfig("lion", weight_decay=0.5)
    with pytest.raises(ConfigError, match="beta1/beta2"):
        OptimizerConfig("adam", beta1=1.0)
    with pytest.raises(ConfigError, match="beta1/beta2"):
        OptimizerConfig("adam", beta2=-0.1)
    with pytest.raises(ConfigError, match="eps"):
        OptimizerConfig("adam", eps=0.0)
    with pytest.raises(ConfigError, match="decay"):
        OptimizerConfig("adadelta", decay=1.0)
    with pytest.raises(ConfigError, match="'scaling' is only valid for caadam, not 'adam'"):
        OptimizerConfig("adam", scaling=ScalingStrategy("multiplicative"))


# ---------------------------------------------------------------------------
# checkpointing


def _equal_nets(a, b):
    return all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers)
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_checkpoint_roundtrip_resumes_identically(algorithm, tmp_path):
    net_a = scalar_net()
    opt_a = make_named(algorithm)
    drive(opt_a, net_a, GRAD_PAIRS[:8])

    path = tmp_path / "opt.json"
    save_checkpoint(opt_a, path)
    opt_b = load_checkpoint(path)
    assert opt_b.algorithm == algorithm
    assert opt_b.t == 8

    # continue the original and the restored optimizer in lockstep from the
    # same parameter state; the trajectories must agree bit for bit
    net_b = Network(spec=net_a.spec, layers=net_a.layers)
    drive(opt_a, net_a, GRAD_PAIRS[8:])
    drive(opt_b, net_b, GRAD_PAIRS[8:])
    assert _equal_nets(net_a, net_b)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_step_updates_its_vectors_in_place(algorithm):
    net, opt = scalar_net(), make_named(algorithm)
    drive(opt, net, GRAD_PAIRS[:1])
    vectors = [*opt._state.values(), opt._delta, opt._scratch]
    for k in (2, 3):
        drive(opt, net, GRAD_PAIRS[k - 1 : k])
        now = [*opt._state.values(), opt._delta, opt._scratch]
        assert len(now) == len(vectors) and all(a is b for a, b in zip(now, vectors))
    restored, twin = from_checkpoint(opt.to_checkpoint()), Network(net.spec, net.layers)
    drive(opt, net, GRAD_PAIRS[3:5])
    drive(restored, twin, GRAD_PAIRS[3:5])
    assert restored.t == 5 and twin.flat.tobytes() == net.flat.tobytes()


def test_checkpoint_of_overflowed_accumulator_is_refused_before_writing(tmp_path):
    # adagrad's sum of squares overflows to inf while its update stays finite (0)
    net, opt = scalar_net(), make_named("adagrad")
    drive(opt, net, [(1e200, 0.0)])
    assert np.isfinite(net.flat).all()
    path = tmp_path / "opt.json"
    with pytest.raises(NonFiniteError, match="slot 'sum_sq' of tensor 0"):
        save_checkpoint(opt, path)
    assert not path.exists()


def test_caadam_checkpoint_keeps_scale_table(tmp_path):
    opt = CaAdam(OptimizerConfig("caadam"), ScaleTable((1.25, 0.8)))
    payload = opt.to_checkpoint()
    assert payload["scale_table"] == [1.25, 0.8]
    restored = from_checkpoint(payload)
    assert isinstance(restored, CaAdam)
    assert restored.scale_table.factors == (1.25, 0.8)


def test_checkpoint_keeps_config_and_scaling_strategy():
    config = OptimizerConfig(
        "caadam", beta1=0.8,
        scaling=ScalingStrategy("multiplicative", gamma=0.9, multiplicative_sigma="unsigned"),
    )
    opt = CaAdam(config, ScaleTable((1.0,)))
    restored = from_checkpoint(opt.to_checkpoint())
    assert restored.config.beta1 == 0.8
    assert restored.config.scaling.kind == "multiplicative"
    assert restored.config.scaling.gamma == 0.9
    assert restored.config.scaling.multiplicative_sigma == "unsigned"


def test_checkpoint_version_checked():
    opt = make_named("adam")
    payload = opt.to_checkpoint()
    payload["version"] = 99
    with pytest.raises(ConfigError, match="version"):
        from_checkpoint(payload)


def _with(payload, **changes):
    return {**payload, **changes}


def _slots(payload, **names):
    """``payload`` with slot 0 (W0, shape (1, 1)) holding ``names`` instead."""
    return _with(payload, slots=[names, *payload["slots"][1:]])


# name -> (algorithm, malformed copy of a checkpoint taken after two steps)
_MALFORMED = {
    "list payload": ("adam", lambda p: [p]),
    "t a string": ("adam", lambda p: _with(p, t="x")),
    "t a bool": ("adam", lambda p: _with(p, t=True)),
    "t negative": ("adam", lambda p: _with(p, t=-3)),
    "no slots": ("adam", lambda p: {k: v for k, v in p.items() if k != "slots"}),
    "slot without v": ("adam", lambda p: _slots(p, m=[[0.1]])),
    "slot with an extra name": ("sgd", lambda p: _slots(p, m=[[0.1]])),
    "NaN slot": ("adam", lambda p: _slots(p, m=[[0.1]], v=[[math.nan]])),
    "non-numeric slot": ("adam", lambda p: _slots(p, m=[["x"]], v=[[0.1]])),
    "slot shapes differ": ("adam", lambda p: _slots(p, m=[0.1], v=[[0.1]])),
    "unknown config key": ("adam", lambda p: _with(p, config={**p["config"], "momentum": 0.5})),
    "config value a string": ("adam", lambda p: _with(p, config={"beta1": "x"})),
    "config value too large for a float (adam eps)": (
        "adam", lambda p: _with(p, config={**p["config"], "eps": 10 ** 400})),
    "config value too large for a float (adamw weight_decay)": (
        "adamw", lambda p: _with(p, config={**p["config"], "weight_decay": 10 ** 400})),
    "config value its algorithm does not read": (
        "adam", lambda p: _with(p, config={**p["config"], "weight_decay": 0.5})),
    "config a list": ("adam", lambda p: _with(p, config=[])),
    "unknown algorithm": ("adam", lambda p: _with(p, algorithm="lion")),
    "algorithm a list": ("adam", lambda p: _with(p, algorithm=["adam"])),
    "scaling a string": ("caadam", lambda p: _with(p, config={"scaling": "depth"})),
    "scaling without kind": ("caadam", lambda p: _with(p, config={"scaling": {"gamma": 0.5}})),
    "scaling kind a list": ("caadam", lambda p: _with(p, config={"scaling": {"kind": []}})),
    "no scale table": ("caadam", lambda p: {k: v for k, v in p.items() if k != "scale_table"}),
    "scale table of strings": ("caadam", lambda p: _with(p, scale_table=["x"])),
    "t > 0 without slots": ("adam", lambda p: _with(p, t=5, slots=[])),
    "t = 0 with slots": ("adam", lambda p: _with(p, t=0)),
    "scale table shorter than the layers": ("caadam", lambda p: _with(
        p, scale_table=[1.0], slots=p["slots"] * 2)),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_checkpoint_is_a_config_error(case):
    algorithm, malform = _MALFORMED[case]
    opt = make_named(algorithm)
    drive(opt, scalar_net(), GRAD_PAIRS[:2])
    with pytest.raises(ConfigError):
        from_checkpoint(malform(opt.to_checkpoint()))


def test_checkpoint_file_that_is_not_json_is_a_config_error(tmp_path):
    path = tmp_path / "opt.json"
    path.write_text('{"version": 1, "t": ')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_checkpoint(path)


def test_missing_checkpoint_file_is_a_config_error_naming_it(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(ConfigError, match="cannot read checkpoint") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_checkpoint_into_a_missing_directory_is_a_config_error_naming_it(tmp_path):
    path = tmp_path / "missing" / "x.json"
    with pytest.raises(ConfigError, match="cannot write output") as info:
        save_checkpoint(make_named("adam"), path)
    assert str(path) in str(info.value)


def test_checkpoint_preserves_accumulators_exactly():
    opt = make_named("adam")
    drive(opt, scalar_net(), GRAD_PAIRS[:5])
    restored = from_checkpoint(opt.to_checkpoint())
    assert restored._shapes == opt._shapes
    assert restored._state.keys() == opt._state.keys()
    for name, vector in opt._state.items():
        assert restored._state[name].tobytes() == vector.tobytes()


# to_checkpoint() of adam and caadam after the first 5 steps of
# _drive_batches, written by the per-tensor optimizer that preceded the flat
# parameter vector.  Checkpoint version 1 stores one slot dict per tensor
# (W0, b0, W1, b1) with the tensor's shape.
V1_CHECKPOINTS = {'adam': {'algorithm': 'adam',
                           'config': {'beta1': 0.9,
                                      'beta2': 0.999,
                                      'decay': 0.9,
                                      'eps': 1e-08,
                                      'learning_rate': 0.001,
                                      'weight_decay': 0.004},
                           'slots': [{'m': [[0.01643285740489766,
                                             -0.00029013790549957017,
                                             0.04910944173785192],
                                            [0.027561185739682453,
                                             0.02100950101931291,
                                             -0.06967793783541018]],
                                      'v': [[8.29411892674195e-06,
                                             3.906465757115234e-09,
                                             9.763100016767071e-05],
                                            [2.334892154688946e-05,
                                             2.048361264446337e-05,
                                             0.00015923588810737348]]},
                                     {'m': [-0.017825364657556693,
                                            0.037203973986850214,
                                            -0.07567713647155026],
                                      'v': [9.748949268908388e-06,
                                            6.888410748494289e-05,
                                            0.00017259944020849482]},
                                     {'m': [[0.15584594126560397],
                                            [-0.01372616544181664],
                                            [-0.1140935295154708]],
                                      'v': [[0.0007524454619445073],
                                            [1.3639227981415387e-05],
                                            [0.00037936615800689827]]},
                                     {'m': [-0.004846900534020876], 'v': [2.5640662177631296e-05]}],
                           't': 5,
                           'version': 1},
                  'caadam': {'algorithm': 'caadam',
                             'config': {'beta1': 0.9,
                                        'beta2': 0.999,
                                        'decay': 0.9,
                                        'eps': 1e-08,
                                        'learning_rate': 0.001,
                                        'scaling': {'gamma': 0.95,
                                                    'kind': 'multiplicative',
                                                    'multiplicative_sigma': 'signed'},
                                        'weight_decay': 0.004},
                             'scale_table': [0.95, 1.0526315789473684],
                             'slots': [{'m': [[0.017050799566586904,
                                               -0.00028561161250469097,
                                               0.050534931569499994],
                                              [0.028241628588848357,
                                               0.020681742544852687,
                                               -0.0711352239347856]],
                                        'v': [[8.958453685792267e-06,
                                               3.820249751124699e-09,
                                               0.00010328932215996204],
                                              [2.461436325194745e-05,
                                               2.003153770505139e-05,
                                               0.00016633994185830505]]},
                                       {'m': [-0.01825048037860932,
                                              0.03667209662442419,
                                              -0.07690668909740393],
                                        'v': [1.0263785833815529e-05,
                                              6.764609992624536e-05,
                                              0.0001784164487930592]},
                                       {'m': [[0.1527366874726468],
                                              [-0.014370138580674133],
                                              [-0.11057826629030426]],
                                        'v': [[0.000727789539293408],
                                              [1.404678096149267e-05],
                                              [0.0003562139928715753]]},
                                       {'m': [-0.004608774236268404], 'v': [2.515922514666116e-05]}],
                             't': 5,
                             'version': 1}}


def _drive_batches(opt, net, steps):
    rng = make_rng(41)
    x = rng.normal(size=(5, 2))
    y = rng.normal(size=(5, 1))
    for k in steps:
        _, cache = forward(net, x * (1.0 + 0.1 * k))
        opt.step(net, backward(net, cache, y), lr=0.05)


@pytest.mark.parametrize("algorithm", sorted(V1_CHECKPOINTS))
def test_v1_checkpoint_literal_loads_and_resumes_bit_exactly(algorithm):
    config = OptimizerConfig(algorithm)
    if algorithm == "caadam":
        config = OptimizerConfig(algorithm, scaling=ScalingStrategy("multiplicative"))
    net = init_network(NetworkSpec(2, (3,), 1), make_rng(40))
    opt = make_optimizer(config, net)
    _drive_batches(opt, net, range(5))
    literal = V1_CHECKPOINTS[algorithm]  # written while the config had a learning_rate
    assert opt.to_checkpoint() == {**literal, "config": {
        key: value for key, value in literal["config"].items() if key != "learning_rate"}}

    restored = from_checkpoint(V1_CHECKPOINTS[algorithm])
    twin = Network(spec=net.spec, layers=net.layers)
    _drive_batches(opt, net, range(5, 10))
    _drive_batches(restored, twin, range(5, 10))
    assert restored.t == 10
    assert twin.flat.tobytes() == net.flat.tobytes()
