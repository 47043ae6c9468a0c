"""The one kind rule by which every reader of the program's JSON fills a field."""

import functools
import math
from dataclasses import asdict

import pytest

from caadam import bench
from caadam.errors import ConfigError
from caadam.jsonio import arguments
from caadam.optim import CaAdam, OptimizerConfig, from_checkpoint, make_optimizer
from caadam.scaling import ScaleTable, ScalingStrategy
from caadam.train import TrainConfig


def _train_key(value, monkeypatch):
    cfg = bench.experiment_from_dict({
        "dataset": {"kind": "synth_regression"}, "architectures": [[4]],
        "optimizers": [{"algorithm": "adam"}], "train": {"early_stop_min_delta": value}})
    return cfg.train.early_stop_min_delta


def _dataset_option(value, monkeypatch):
    seen, build = {}, bench.synth_regression

    @functools.wraps(build)
    def recording(**kwargs):
        seen.update(kwargs)
        return build(**kwargs)

    monkeypatch.setattr(bench, "synth_regression", recording)
    bench.load_dataset({"kind": "synth_regression", "n": 40, "m": 2, "noise_std": value})
    return seen["noise_std"]


def _checkpoint_beta1(value, monkeypatch):
    payload = make_optimizer(OptimizerConfig("adam")).to_checkpoint()
    return from_checkpoint({**payload, "config": {"beta1": value}}).config.beta1


def _checkpoint_gamma(value, monkeypatch):
    config = OptimizerConfig("caadam", scaling=ScalingStrategy("depth"))
    payload = CaAdam(config, ScaleTable((1.0,))).to_checkpoint()
    payload["config"]["scaling"]["gamma"] = value
    return from_checkpoint(payload).config.scaling.gamma


# reader -> a function of one float field's JSON value that returns the value read
READERS = {"train config key": _train_key, "dataset option": _dataset_option,
           "checkpoint beta1": _checkpoint_beta1, "checkpoint scaling gamma": _checkpoint_gamma}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("value", [True, "1.0", 10 ** 400, math.nan, [1.0], 0],
                         ids=["bool", "string", "past-float-range", "nan", "list", "int"])
def test_every_reader_fills_a_float_field_by_one_rule(reader, value, monkeypatch):
    if type(value) is int and value == 0:  # the one value in every field's range
        read = READERS[reader](value, monkeypatch)
        assert type(read) is float and read == value
    else:
        with pytest.raises(ConfigError):
            READERS[reader](value, monkeypatch)


def test_arguments_takes_defaults_and_given_and_refuses_unknown_or_missing_keys():
    assert arguments(TrainConfig, {"batch_size": 8}, "train config", seed=3) == asdict(
        TrainConfig(batch_size=8, seed=3))
    with pytest.raises(ConfigError, match=r"unknown train config keys: \['seed'\]"):
        arguments(TrainConfig, {"seed": 1}, "train config", seed=3)
    with pytest.raises(ConfigError, match="scaling needs 'kind'"):
        arguments(ScalingStrategy, {"gamma": 0.5}, "scaling")
    with pytest.raises(ConfigError, match="scaling must be a mapping, got list"):
        arguments(ScalingStrategy, [], "scaling")
    assert arguments(bench.ExperimentConfig, {"split": [1, 0, 0]}, "x",
                     dataset=None, architectures=(), optimizers=())["split"] == (1.0, 0.0, 0.0)
