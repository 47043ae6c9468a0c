"""The gain rule of ``scripts/bench_compare.py``: which pairs a change wins,
and when a BENCH record says ``<metric>_gain_shown``; and what a side's
record keeps of each run."""

import importlib.util
import sys
from pathlib import Path

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
    runs = [{"correct": True, "attempted": 3, "failed": 0,
             "metrics": {"wall_s": {"value": 10.0 + i}},
             "environment": {"loadavg_start": [float(i), 0.5, 0.25],
                             "loadavg_end": [i + 0.5, 0.5, 0.25], "nproc": 2}}
            for i in range(3)]
    summary = bench_compare.side_summary(runs)
    assert summary["loadavg_start"] == [[0.0, 0.5, 0.25], [1.0, 0.5, 0.25], [2.0, 0.5, 0.25]]
    assert summary["loadavg_end"] == [[0.5, 0.5, 0.25], [1.5, 0.5, 0.25], [2.5, 0.5, 0.25]]
    assert summary["attempted"] == [3, 3, 3]
    assert summary["metrics"]["wall_s"]["values"] == [10.0, 11.0, 12.0]
