"""Self-tests for the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads as wls

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(wls.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_metric_names_units_and_bounds(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0.0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(wls.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_reference_covers_every_pool_seed():
    reference = wls.load_reference()
    for name, wl in wls.WORKLOADS.items():
        seeds = {int(key.rsplit("#", 1)[1]) for key in reference[name]["trials"]}
        assert set(wl.pool) <= seeds
        for band in reference[name]["cells"].values():
            assert band["lo"] <= band["mean"] <= band["hi"]


def test_unit_seeds_depend_only_on_seed():
    wl = wls.WORKLOADS["trial-narrow"]
    first = [next(it) for it in [wl.unit_seeds(3)] for _ in range(60)]
    again = [next(it) for it in [wl.unit_seeds(3)] for _ in range(60)]
    assert first == again
    n = len(wl.pool)
    assert first[:n] == wl.pass_seeds(3) and sorted(first[:n]) == list(wl.pool)
    assert first[n:2 * n] == first[:n]  # every pass visits the pool in one order
    assert wl.pass_seeds(4) != wl.pass_seeds(3)


def test_benchmark_pins_one_blas_thread():
    # a fresh interpreter: in this one NumPy may have been imported first
    proc = subprocess.run(
        [sys.executable, "-c", "import workloads, run; print(run._blas_threads())"],
        cwd=wls.HERE, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() in ("1", "None")


def test_step_flops_counts_matmuls():
    # forward 2*64*2592, weight grads the same, input grads of layers 2 and 3
    assert wls.step_flops((8, 64, 32, 1), 64) == 2 * 64 * (3 * 2592 - 512)
    assert wls.trial_flops((8, 4, 1), 10, 4, 2) == 2 * (
        2 * wls.step_flops((8, 4, 1), 4) + wls.step_flops((8, 4, 1), 2))


def _originals():
    return {(o, a): getattr(tracer.resolve_owner(o), a) for o, a, _ in tracer.TARGETS}


def test_tracer_restores_every_wrapped_attribute():
    before = _originals()
    assert tracer.installed_wrappers() == []
    with tracer.Tracer():
        assert len(tracer.installed_wrappers()) == len(tracer.TARGETS)
    assert tracer.installed_wrappers() == []
    assert all(_originals()[key] is fn for key, fn in before.items())


def test_tracer_restores_after_an_exception():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert all(_originals()[key] is fn for key, fn in before.items())


def test_tracer_restores_when_install_fails(monkeypatch):
    before = _originals()
    bad = ("caadam.nn:Network", "no_such_method", "x")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (bad,))
    with pytest.raises(AttributeError):
        tracer.Tracer().install()
    assert all(getattr(tracer.resolve_owner(o), a) is fn for (o, a), fn in before.items())


def _small_trial():
    dataset = wls.bench.load_dataset({"kind": "synth_regression", "n": 300, "m": 4,
                                      "seed": 1})
    cfg = wls.train_mod.TrainConfig(batch_size=32, max_epochs=5)
    return wls.bench.run_trial(dataset, (8,), wls.TRIAL_OPTIMIZERS[1], cfg,
                               wls.bench.DEFAULT_SPLIT, 11)


def test_self_times_add_up_to_trial_wall_time():
    tr = tracer.Tracer()
    with tr:
        trial = _small_trial()
    ns, calls = tr.totals()
    assert calls["optim.step"] == calls["nn.backward"] == calls[tracer.FORWARD_STEP]
    assert calls[tracer.FORWARD_EVAL] == calls["nn.loss"] == 2 * trial.epochs_run
    assert calls[tracer.FORWARD_OTHER] == 1  # the test-set evaluation
    n_train = int(wls.bench.DEFAULT_SPLIT[0] * 300)
    assert calls["optim.step"] == -(-n_train // 32) * trial.epochs_run
    inside = sum(ns[k] for k in (tracer.FORWARD_STEP, tracer.FORWARD_EVAL, "nn.backward",
                                 "nn.loss", "optim.step", "train.loop", "train.snapshot"))
    assert inside == pytest.approx(trial.wall_time_s * 1e9, rel=0.02)


def test_untraced_trial_matches_traced_trial():
    plain = _small_trial()
    with tracer.Tracer():
        traced = _small_trial()
    assert wls.trial_record(plain) == wls.trial_record(traced)


def _fake_reference():
    return {"metric": "rmse", "cells": {}, "trials": {}}


def test_runs_report_exactly_the_declared_metrics(spec, monkeypatch):
    small = wls.Workload("trial-narrow", (5000,), trace_units=1,
                         architectures=((4,),), batch_size=1024)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    out_dir = os.path.join(wls.OUT_ROOT, "selftest")
    before = _originals()
    metrics, _, attempted, _, problems = run.run_traced(
        wls, tracer, small, 1, out_dir, _fake_reference())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert attempted == 4 and problems == []

    # the untraced run that follows sees the package's own functions
    assert all(_originals()[key] is fn for key, fn in before.items())
    metrics, _, attempted, failed, problems = run.run_end_to_end(
        wls, small, 1, 0.0, out_dir, _fake_reference())
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())
    assert attempted == 2 and failed == 2  # one pass; no reference band for this cell
    assert problems == []


def test_exits_nonzero_without_package_source():
    bare = os.path.join(wls.OUT_ROOT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(wls.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(wls.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trial-narrow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
