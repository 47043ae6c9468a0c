"""The gain rule of ``scripts/bench_compare.py``: which pairs a change wins,
and when a BENCH record says ``<metric>_gain_shown``; what a side's record
keeps of each run, its calibration time included; what ``--trace-pairs``
adds to a record; and the Tier-1 runs a record keeps."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_path = sys.path[:]
_spec.loader.exec_module(bench_compare)  # puts perfbench/ on sys.path for its spread import
sys.path[:] = _path

BETTER = {"train_rows_per_s": "higher", "wall_s": "lower"}
# Quartiles 11.75 and 17.25 (statistics.quantiles, n=4): an IQR of 5.5 around 14.5.
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def side(**values):
    return {"metrics": {name: bench_compare.summarise(v) for name, v in values.items()}}


def compare(parent, change):
    return bench_compare.compare(side(**parent), side(**change), BETTER, len(PARENT))


def shifted(by, losses):
    """PARENT moved by ``by``, except that the first ``losses`` pairs move 1 the other way."""
    return [v - (1.0 if by > 0 else -1.0) if i < losses else v + by
            for i, v in enumerate(PARENT)]


def test_ties_count_for_neither_side():
    out = compare({"train_rows_per_s": PARENT, "wall_s": PARENT},
                  {"train_rows_per_s": PARENT, "wall_s": PARENT})
    assert out["train_rows_per_s_pairs_won"] == 0
    assert out["wall_s_pairs_won"] == 0
    assert out["wall_s_pair_ratio"] == [1.0] * len(PARENT)
    assert not out["train_rows_per_s_gain_shown"] and not out["wall_s_gain_shown"]


def test_a_smaller_value_wins_for_a_lower_is_better_metric():
    out = compare({"train_rows_per_s": PARENT, "wall_s": PARENT},
                  {"train_rows_per_s": shifted(-8.0, 0), "wall_s": shifted(-8.0, 0)})
    assert out["wall_s_pairs_won"] == 10 and out["wall_s_gain_shown"]
    assert out["train_rows_per_s_pairs_won"] == 0 and not out["train_rows_per_s_gain_shown"]


def test_eight_wins_in_ten_is_not_a_shown_gain():
    out = compare({"train_rows_per_s": PARENT}, {"train_rows_per_s": shifted(100.0, 2)})
    assert out["train_rows_per_s_pairs_won"] == 8
    assert not out["train_rows_per_s_gain_shown"]


def test_nine_wins_with_the_median_moved_by_at_most_the_iqr_is_not_a_shown_gain():
    for by in (1.0, 5.5):  # the change's median moves by 1.0, then by exactly the IQR
        out = compare({"train_rows_per_s": PARENT}, {"train_rows_per_s": shifted(by, 1)})
        assert out["train_rows_per_s_pairs_won"] == 9
        assert out["train_rows_per_s_median_ratio"] == (14.5 + by) / 14.5
        assert not out["train_rows_per_s_gain_shown"]


def test_nine_wins_with_the_median_moved_past_the_iqr_is_a_shown_gain():
    out = compare({"train_rows_per_s": PARENT}, {"train_rows_per_s": shifted(6.0, 1)})
    assert out["train_rows_per_s_pairs_won"] == 9
    assert out["train_rows_per_s_gain_shown"]


def test_side_summary_keeps_each_runs_load_averages_in_run_order():
    runs = [{"correct": True, "attempted": 3, "failed": 0, "calibration_s": 3.0 - i,
             "metrics": {"wall_s": {"value": 10.0 + i}},
             "extra": {"bench.trials_exact": {"value": 3 - i}, "unit_walls": {"value": [1.0]}},
             "environment": {"loadavg_start": [float(i), 0.5, 0.25],
                             "loadavg_end": [i + 0.5, 0.5, 0.25], "nproc": 2}}
            for i in range(3)]
    summary = bench_compare.side_summary(runs)
    assert summary["loadavg_start"] == [[0.0, 0.5, 0.25], [1.0, 0.5, 0.25], [2.0, 0.5, 0.25]]
    assert summary["loadavg_end"] == [[0.5, 0.5, 0.25], [1.5, 0.5, 0.25], [2.5, 0.5, 0.25]]
    assert summary["attempted"] == [3, 3, 3]
    assert summary["calibration_s"]["values"] == [3.0, 2.0, 1.0]
    assert summary["calibration_s"]["median"] == 2.0
    assert summary["metrics"]["wall_s"]["values"] == [10.0, 11.0, 12.0]
    # every numeric extra value is summarised too, run by run; a list is not
    assert summary["extra"]["bench.trials_exact"]["values"] == [3, 2, 1]
    assert set(summary["extra"]) == {"bench.trials_exact"}


def test_ratios_are_per_pair_and_of_the_medians_and_null_against_a_zero_parent():
    out = bench_compare.ratios(side(**{"train.eval_us": [100.0, 200.0, 300.0],
                                       "bench.pool_idle_s": [0.0, 0.0, 0.0]}),
                               side(**{"train.eval_us": [90.0, 150.0, 330.0],
                                       "bench.pool_idle_s": [0.0, 1.0, 0.0]}))
    assert out["train.eval_us_pair_ratio"] == [0.9, 0.75, 1.1]
    assert out["train.eval_us_median_ratio"] == 150.0 / 200.0
    assert out["bench.pool_idle_s_pair_ratio"] == [None, None, None]
    assert out["bench.pool_idle_s_median_ratio"] is None
    assert set(out) == {f"{name}_{what}" for name in ("train.eval_us", "bench.pool_idle_s")
                        for what in ("pair_ratio", "median_ratio")}


def test_trace_pairs_record_each_sides_per_layer_summary_and_the_pair_ratios(
        tmp_path, monkeypatch):
    calls = []

    def fake_run_once(checkout, workload, seed, seconds, trace=0):
        side = os.path.basename(checkout)
        calls.append((workload, trace, seed, side))
        scale = 0.8 if side == "change" else 1.0  # the change reads 20% lower everywhere
        names = ("train.eval_us", "nn.forward_us") if trace else ("wall_s", "peak_rss_mb")
        return {"correct": True, "attempted": 4, "failed": 0,
                "metrics": {name: {"value": scale * (seed + 1.0)} for name in names},
                "extra": {"trace.closure" if trace else "bench.trials_exact": {"value": 4}},
                "environment": {"loadavg_start": [0.0] * 3, "loadavg_end": [0.0] * 3}}

    monkeypatch.setattr(bench_compare, "snapshot", lambda rev, dest: {"commit": rev})
    monkeypatch.setattr(bench_compare, "run_tier1",
                        lambda checkout: {"wall_s": 1.0, "exit_code": 0, "summary": "1 passed"})
    monkeypatch.setattr(bench_compare, "run_once", fake_run_once)
    timed = iter(range(1, 100))
    monkeypatch.setattr(bench_compare, "calibrate", lambda: next(timed) / 10)
    out = tmp_path / "BENCH.json"
    assert bench_compare.main(["--base", "a", "--change", "b", "--workload", "w",
                               "--pairs", "2", "--trace-pairs", "3", "--seed", "1",
                               "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    # three traced pairs after the untraced ones, alternating which side leads
    assert [c[1:] for c in calls if c[1]] == [
        (1, 1, "parent"), (1, 1, "change"), (1, 2, "change"), (1, 2, "parent"),
        (1, 3, "parent"), (1, 3, "change")]
    traced = record["trace1"]["w"]
    assert traced["seeds"] == [1, 2, 3]
    assert traced["first_in_pair"] == ["parent", "change", "parent"]
    eval_us = traced["parent"]["metrics"]["train.eval_us"]
    assert eval_us["values"] == [2.0, 3.0, 4.0] and eval_us["median"] == 3.0
    assert {"q1", "q3"} <= set(eval_us)
    assert traced["train.eval_us_pair_ratio"] == pytest.approx([0.8] * 3)
    assert traced["nn.forward_us_median_ratio"] == pytest.approx(0.8)
    assert "train.eval_us_gain_shown" not in traced  # no gain rule for traced metrics
    assert traced["change"]["extra"]["trace.closure"]["values"] == [4, 4, 4]
    assert record["trace0"]["w"]["wall_s_pairs_won"] == 2
    assert record["trace0"]["w"]["parent"]["extra"]["bench.trials_exact"]["median"] == 4
    # one calibration just before each run, kept with that run's side
    assert record["trace0"]["w"]["parent"]["calibration_s"]["values"] == [0.1, 0.4]
    assert record["trace0"]["w"]["change"]["calibration_s"]["values"] == [0.2, 0.3]
    assert traced["change"]["calibration_s"]["values"] == [0.6, 0.7, 1.0]


def test_calibrate_times_the_loop_in_a_one_blas_thread_process(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    runs = []
    real_run = bench_compare.subprocess.run

    def run(argv, **kwargs):
        runs.append(kwargs["env"]["OPENBLAS_NUM_THREADS"])
        return real_run(argv, **kwargs)

    monkeypatch.setattr(bench_compare.subprocess, "run", run)
    seconds = bench_compare.calibrate()
    assert runs == ["1"]
    assert 0.0 < seconds < 60.0


def test_tier1_runs_three_times_per_side_alternating_and_keeps_every_run(monkeypatch):
    calls = []

    def fake_run_tier1(checkout):
        calls.append(checkout)
        return {"wall_s": float(len(calls)), "exit_code": len(calls) % 2,
                "summary": f"{len(calls)} passed"}

    monkeypatch.setattr(bench_compare, "run_tier1", fake_run_tier1)
    record = bench_compare.tier1_record({"parent": "p", "change": "c"})
    assert calls == ["p", "c", "c", "p", "p", "c"]
    parent, change = record["parent"], record["change"]
    assert [run["wall_s"] for run in parent["runs"]] == [1.0, 4.0, 5.0]
    assert [run["exit_code"] for run in change["runs"]] == [0, 1, 0]
    assert [run["summary"] for run in change["runs"]] == ["2 passed", "3 passed", "6 passed"]
    assert parent["wall_s"]["median"] == 4.0 and change["wall_s"]["median"] == 3.0
    assert parent["wall_s"]["values"] == [1.0, 4.0, 5.0] and {"q1", "q3"} <= set(parent["wall_s"])
    assert parent["command"].startswith("PYTHONPATH=src python -m pytest")


# The tail of a ``pytest -q`` run with two failures; the traceback's captured
# output holds a line that starts with FAILED, which is not a failing test.
TIER1_OUTPUT = """\
..F.F.                                                                   [100%]
=================================== FAILURES ===================================
___________________________________ test_b _____________________________________
----------------------------- Captured stdout call -----------------------------
FAILED to converge
E       assert False
=========================== short test summary info ============================
FAILED tests/test_a.py::test_b - assert False
FAILED tests/test_c.py::test_d[adam] - ValueError: boom
2 failed, 4 passed in 0.50s
"""


def test_a_tier1_run_keeps_the_names_of_its_failing_tests(monkeypatch):
    seen = {}

    def run(argv, **kwargs):
        seen.update(argv=argv, cwd=kwargs["cwd"], path=kwargs["env"]["PYTHONPATH"])
        return subprocess.CompletedProcess(argv, 1, stdout=TIER1_OUTPUT, stderr="")

    monkeypatch.setattr(bench_compare.subprocess, "run", run)
    out = bench_compare.run_tier1("/checkout")
    assert seen["argv"] == bench_compare.TIER1 and seen["cwd"] == "/checkout"
    assert seen["path"].split(os.pathsep)[0] == os.path.join("/checkout", "src")
    assert out["exit_code"] == 1 and out["summary"] == "2 failed, 4 passed in 0.50s"
    assert out["failed"] == ["FAILED tests/test_a.py::test_b - assert False",
                             "FAILED tests/test_c.py::test_d[adam] - ValueError: boom"]
    assert out["wall_s"] >= 0.0
