"""End-to-end runs of the ``caadam`` command-line interface (in-process)."""

import copy
import functools
import hashlib
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from caadam import bench
from caadam.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_OK, main

SMALL_CONFIG = {
    "dataset": {"kind": "synth_regression", "n": 120, "m": 3,
                "noise_std": 0.2, "seed": 5},
    "architectures": [[4]],
    "optimizers": [
        {"algorithm": "adam"},
        {"algorithm": "caadam", "scaling": "multiplicative"},
    ],
    "train": {"batch_size": 32, "max_epochs": 3},
    "trials": 2,
    "base_seed": 100,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_benchmark_writes_all_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    code = main(["benchmark", "--parallel", "1", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK

    assert (out / "trials.json").is_file()
    assert (out / "timings.json").is_file()
    assert (out / "report.json").is_file()
    assert (out / "report.csv").is_file()
    logs = sorted(p.relative_to(out / "logs").as_posix()
                  for p in (out / "logs").rglob("*.csv"))
    assert logs == [
        "4__adam/trial_100.csv",
        "4__adam/trial_101.csv",
        "4__caadam-multiplicative/trial_100.csv",
        "4__caadam-multiplicative/trial_101.csv",
    ]

    payload = json.loads((out / "trials.json").read_text())
    assert payload["version"] == 1
    assert len(payload["results"]) == 4

    stdout = capsys.readouterr().out
    assert "[   1/4]" in stdout
    assert "4|adam" in stdout


def test_benchmark_repeat_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    code_a = main(["benchmark", "--parallel", "1", "--config", cfg, "--out", str(tmp_path / "a"),
                   "--quiet"])
    code_b = main(["benchmark", "--parallel", "1", "--config", cfg, "--out", str(tmp_path / "b"),
                   "--quiet"])
    assert code_a == code_b == EXIT_OK
    bytes_a = (tmp_path / "a" / "trials.json").read_bytes()
    bytes_b = (tmp_path / "b" / "trials.json").read_bytes()
    assert bytes_a == bytes_b
    # timings are wall-clock and deliberately live outside the record
    assert (tmp_path / "a" / "timings.json").read_bytes() != \
        (tmp_path / "b" / "timings.json").read_bytes() or True


def test_benchmark_trials_override(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "run"
    code = main(["benchmark", "--parallel", "1", "--config", cfg, "--out", str(out),
                 "--trials", "3", "--quiet"])
    assert code == EXIT_OK
    payload = json.loads((out / "trials.json").read_text())
    assert len(payload["results"]) == 6
    assert {row["seed"] for row in payload["results"]} == {100, 101, 102}


def test_train_writes_metrics_and_curve(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "single"
    code = main(["train", "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["architecture"] == "4"
    assert metrics["optimizer"] == "adam"  # first optimizer of the config
    assert metrics["metric_name"] == "rmse"
    assert metrics["epochs_run"] == 3
    assert metrics["metric"] > 0.0
    assert metrics["stop_reason"] == "max_epochs"

    lines = (out / "log.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,lr"
    assert len(lines) == 4  # header + 3 epochs
    assert "rmse=" in capsys.readouterr().out


def test_train_is_the_first_benchmark_trial(tmp_path):
    payload = {
        **SMALL_CONFIG,
        "dataset": {"kind": "synth_classification", "n": 150, "m": 3, "seed": 5},
        "optimizers": [{"algorithm": "caadam", "scaling": "depth_based"},
                       {"algorithm": "adam"}],
        "train": {"batch_size": 32, "max_epochs": 60, "early_stop_patience": 4,
                  "early_stop_min_delta": 0.01, "lr_reduce_patience": 2},
    }
    cfg = write_config(tmp_path, payload)
    run, single = tmp_path / "run", tmp_path / "single"
    assert main(["benchmark", "--parallel", "1", "--config", cfg, "--out", str(run),
                 "--quiet"]) == EXIT_OK
    assert main(["train", "--config", cfg, "--out", str(single)]) == EXIT_OK

    assert (single / "log.csv").read_bytes() == \
        (run / "logs" / "4__caadam-depth" / "trial_100.csv").read_bytes()
    metrics = json.loads((single / "metrics.json").read_text())
    assert set(metrics) == {"architecture", "optimizer", "metric", "metric_name",
                            "epochs_run", "best_val_loss", "stop_reason", "wall_time_s"}
    row, = [r for r in json.loads((run / "trials.json").read_text())["results"]
            if r["cell"] == "4|caadam-depth" and r["seed"] == 100]
    for key in ("metric", "epochs_run", "stop_reason"):
        assert metrics[key] == row[key]
    assert (metrics["metric_name"], metrics["stop_reason"]) == ("accuracy", "early_stop")


def test_report_rebuilds_from_trials(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    run = tmp_path / "run"
    assert main(["benchmark", "--parallel", "1", "--config", cfg, "--out", str(run),
                 "--quiet"]) == EXIT_OK
    capsys.readouterr()

    rebuilt = tmp_path / "rebuilt"
    code = main(["report", "--trials", str(run / "trials.json"),
                 "--out", str(rebuilt)])
    assert code == EXIT_OK
    table = capsys.readouterr().out
    assert "adam" in table and "caadam-multiplicative" in table

    original = json.loads((run / "report.json").read_text())
    again = json.loads((rebuilt / "report.json").read_text())
    # wall-time stats come from the timings sidecar, absent here
    for payload in (original, again):
        for cell in payload["cells"]:
            for key in list(cell):
                if key.startswith("time_"):
                    del cell[key]
    assert again == original


def test_report_command_rebuilds_benchmark_report_byte_for_byte(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    run = tmp_path / "run"
    assert main(["benchmark", "--parallel", "1", "--config", cfg, "--out", str(run),
                 "--quiet"]) == EXIT_OK
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", "--trials", str(run / "trials.json"),
                 "--timings", str(run / "timings.json"),
                 "--out", str(rebuilt)]) == EXIT_OK
    for name in ("report.json", "report.csv"):
        assert (rebuilt / name).read_bytes() == (run / name).read_bytes()


@pytest.mark.parametrize("text", [
    None,  # no file at all
    "{oops",
    "[1,2]",
    json.dumps({"version": 1, "results": [
        {"cell": "4|adam", "seed": 1, "epochs_run": 3, "stop_reason": "max_epochs"}]}),
    json.dumps({"version": 1, "results": []}),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-past-recursion-limit"),
])
def test_report_on_bad_trials_file_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "trials.json"
    if text is not None:
        path.write_text(text)
    assert main(["report", "--trials", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    if text is not None and '"results": []' in text:
        assert "no trials" in err


_VALID_TRIALS = {"version": 1, "metric": "rmse", "results": [
    {"cell": f"4|{opt}", "architecture": "4", "optimizer": opt, "seed": seed,
     "metric": metric, "epochs_run": 3, "stop_reason": "max_epochs"}
    for opt, metrics in (("adam", (1.0, 1.25)), ("sgd", (2.0, 1.5)))
    for seed, metric in zip((100, 101), metrics)]}
# JSON values, with the ones a loader must turn away: bools, integers past
# the float range, NaN/inf, huge floats, and nested containers.
_JSON = st.recursive(
    st.sampled_from([None, True, 10 ** 400, math.nan, -math.inf, 1e308, "adam"])
    | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6,
)
_TRIALS_KEYS = ["version", "metric", "results"]
_ROW_KEYS = ["cell", "architecture", "optimizer", "seed", "metric", "epochs_run",
             "stop_reason"]
_DELETE = object()


def _set(mapping, key, value):
    if value is _DELETE:
        mapping.pop(key, None)
    else:
        mapping[key] = value


def _mutated_trials(top, row_edits):
    """``_VALID_TRIALS`` with ``top`` = [(key, value)] set on the payload and
    ``row_edits`` = [(row index, key, value)] on its rows; ``_DELETE`` as the
    value removes the key."""
    payload = copy.deepcopy(_VALID_TRIALS)
    for index, key, value in row_edits:
        _set(payload["results"][index], key, value)
    for key, value in top:
        _set(payload, key, value)
    return payload


# Numbers often, so that some mutated files load and reach the report statistics.
_VALUE = st.floats() | st.integers() | _JSON | st.just(_DELETE)
_TRIALS_PAYLOAD = _JSON | st.builds(
    _mutated_trials,
    st.lists(st.tuples(st.sampled_from(_TRIALS_KEYS), _VALUE), max_size=1),
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from(_ROW_KEYS), _VALUE), max_size=3),
)


# Parsing and reporting only: no trial runs.
@settings(max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_TRIALS_PAYLOAD)
@example(_mutated_trials([], [(0, "metric", 1e308), (1, "metric", -1e308)]))
@example(_mutated_trials([], [(0, "epochs_run", 10 ** 400)]))
@example(_mutated_trials([], [(0, "metric", math.inf), (2, "metric", math.inf),
                              (3, "metric", -math.inf)]))
def test_report_on_fuzzed_trials_file_exits_with_a_documented_code(tmp_path, capsys, payload):
    path = tmp_path / "trials.json"
    path.write_text(json.dumps(payload))
    assert main(["report", "--trials", str(path)]) in (
        EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED)
    capsys.readouterr()


def test_curves_merges_per_trial_logs(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    run = tmp_path / "run"
    assert main(["benchmark", "--parallel", "1", "--config", cfg, "--out", str(run),
                 "--quiet"]) == EXIT_OK

    merged = tmp_path / "curves.csv"
    code = main(["curves", "--logs", str(run / "logs"), "--out", str(merged)])
    assert code == EXIT_OK
    lines = merged.read_text().splitlines()
    assert lines[0] == "cell,seed,epoch,train_loss,val_loss,lr"
    assert len(lines) == 1 + 4 * 3  # 4 trials x 3 epochs
    cells = {line.split(",")[0] for line in lines[1:]}
    assert cells == {"4|adam", "4|caadam-multiplicative"}
    assert "merged 12 epoch rows" in capsys.readouterr().out


def test_curves_names_cells_as_trials_json_does(tmp_path):
    # a label may hold "__", the separator of the log directory names
    payload = {**SMALL_CONFIG, "optimizers": [{"algorithm": "adam"},
                                              {"algorithm": "adam", "label": "my__adam"}]}
    run = tmp_path / "run"
    assert main(["benchmark", "--parallel", "1", "--config", write_config(tmp_path, payload),
                 "--out", str(run), "--quiet"]) == EXIT_OK
    merged = tmp_path / "curves.csv"
    assert main(["curves", "--logs", str(run / "logs"), "--out", str(merged)]) == EXIT_OK
    cells = {line.split(",")[0] for line in merged.read_text().splitlines()[1:]}
    trials = json.loads((run / "trials.json").read_text())["results"]
    assert cells == {row["cell"] for row in trials} == {"4|adam", "4|my__adam"}


def test_curves_on_malformed_row_is_data_error(tmp_path, capsys):
    cell = tmp_path / "logs" / "4__adam"
    cell.mkdir(parents=True)
    (cell / "trial_1.csv").write_text("epoch,train_loss,val_loss,lr\nx,1.0,1.0,0.001\n")
    code = main(["curves", "--logs", str(tmp_path / "logs"), "--out", str(tmp_path / "m.csv")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_report_on_constant_unequal_cells_writes_valid_json(tmp_path):
    # zero spread in both cells makes Welch's t infinite; the file holds null
    payload = copy.deepcopy(_VALID_TRIALS)
    for row in payload["results"]:
        row["metric"] = 1.0 if row["optimizer"] == "adam" else 0.9
    path = tmp_path / "trials.json"
    path.write_text(json.dumps(payload))
    assert main(["report", "--trials", str(path), "--out", str(tmp_path)]) == EXIT_OK
    cells = json.loads((tmp_path / "report.json").read_text(),
                       parse_constant=_no_constant)["cells"]
    assert [c["metric_t"] for c in cells if c["optimizer"] == "sgd"] == [None]


HUGE = 10 ** 400  # a 401-digit JSON integer, past the float range
NAN = float("nan")  # json.dumps writes it as the token NaN, which json.load reads


@pytest.mark.parametrize("change", [
    {"trials": "abc"},
    {"train": {"batch_size": "64"}},
    {"dataset": [1]},
    {"dataset": {"kind": "synth_regression", "n": "abc"}},
    {"architectures": [4]},
    {"architectures": [[4.7]]},
    {"split": 0.5},
    {"base_seed": "1"},
    {"optimizers": [{"algorithm": "adam", "beta1": "x"}]},
    {"optimizers": [{"algorithm": "adam"}, {"algorithm": ["sgd"]}]},
    {"optimizers": [{"algorithm": "adam"}, {"algorithm": "caadam", "scaling": [1]}]},
    {"optimizers": [{"algorithm": "adam"}, {"algorithm": "sgd", "label": 5}]},
    # a label names a log directory, so it may not leave <out>/logs
    {"optimizers": [{"algorithm": "adam"}, {"algorithm": "sgd", "label": "x/../../escaped"}]},
    {"optimizers": [{"algorithm": "adam"}, {"algorithm": "sgd", "label": "x\0y"}]},
    {"optimizers": [{"algorithm": "adam"}, 3]},
    {"optimizers": [{"algorithm": "adam", "beta1": HUGE}]},
    {"optimizers": [{"algorithm": "adam"},
                    {"algorithm": "caadam", "scaling": "additive", "gamma": -HUGE}]},
    {"dataset": {"kind": "synth_regression", "noise_std": HUGE}},
    {"split": [HUGE, 0.2, 0.2]},
    {"train": {"early_stop_min_delta": HUGE}},
    {"base_seed": -5},
    {"dataset": {"kind": "synth_regression", "seed": -1}},
    {"dataset": {"kind": "synth_classification", "seed": -1}},
    {"dataset": {"kind": "synth_regression", "n": 10 ** 30}},
    {"dataset": {"kind": "synth_classification", "m": 1, "classes": 2 ** 62}},
    # a layer size past NumPy's array size ends before any weight is drawn
    {"architectures": [[10 ** 30]]},
    {"architectures": [[4], [2 ** 62]]},
    # csv options are checked before the file is opened, so none of these reads it
    {"dataset": {"kind": "csv", "path": "absent.csv", "target": "y", "task": "Classification"}},
    {"dataset": {"kind": "csv", "path": "absent.csv", "target": "y", "task": 1}},
    {"dataset": {"kind": "csv", "path": 0, "target": "y"}},
    {"dataset": {"kind": "csv", "path": "absent.csv", "target": ["y"]}},
    {"dataset": {"kind": "csv", "path": "absent.csv", "target": "y", "sep": ";"}},
    # NaN and Infinity tokens are not finite numbers
    {"dataset": {"kind": "synth_regression", "noise_std": NAN}},
    {"train": {"early_stop_min_delta": NAN}},
    {"train": {"initial_lr": math.inf}},
    {"optimizers": [{"algorithm": "adam", "eps": NAN}]},
    {"optimizers": [{"algorithm": "adamw", "label": "adam", "weight_decay": NAN}]},
    {"split": [NAN, 0.2, 0.2]},
    # the constructors own every range
    {"optimizers": [{"algorithm": "adamw", "label": "adam", "weight_decay": -1}]},
    {"optimizers": [{"algorithm": "adam"},  # a subnormal gamma whose 1/gamma overflows
                    {"algorithm": "caadam", "scaling": "multiplicative", "gamma": 1e-320}]},
])
def test_malformed_config_is_config_error(tmp_path, capsys, change):
    cfg = write_config(tmp_path, {**SMALL_CONFIG, **change})
    code = main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("parallel", ["0", "-4"])
def test_parallel_below_one_is_config_error_before_any_output(tmp_path, capsys, parallel):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "o"
    code = main(["benchmark", "--config", cfg, "--out", str(out), "--parallel", parallel])
    assert code == EXIT_CONFIG
    assert "config error: --parallel must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["curves", "train", "benchmark", "benchmark-log"])
def test_unwritable_output_path_is_config_error(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    (tmp_path / "run" / "logs").mkdir(parents=True)
    (tmp_path / "run" / "logs" / "4__adam").write_text("")  # a file where a cell log dir goes
    cell = tmp_path / "logs" / "4__adam"
    cell.mkdir(parents=True)
    (cell / "trial_1.csv").write_text("epoch,train_loss,val_loss,lr\n1,0.5,0.6,0.001\n")
    cfg = write_config(tmp_path, SMALL_CONFIG)
    argv = {
        "curves": ["curves", "--logs", str(tmp_path / "logs"),
                   "--out", str(tmp_path / "nodir" / "m.csv")],
        "train": ["train", "--config", cfg, "--out", str(blocker)],
        "benchmark": ["benchmark", "--config", cfg, "--out", str(blocker / "x")],
        "benchmark-log": ["benchmark", "--config", cfg, "--out", str(tmp_path / "run")],
    }[command]
    assert main(argv) == EXIT_CONFIG
    assert "config error: cannot write output" in capsys.readouterr().err


def test_optimizer_learning_rate_key_is_config_error(tmp_path, capsys):
    change = {"optimizers": [{"algorithm": "adam", "learning_rate": 0.5}]}
    cfg = write_config(tmp_path, {**SMALL_CONFIG, **change})
    code = main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "learning_rate" in err


def test_integer_past_parsing_digit_limit_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**SMALL_CONFIG, "base_seed": 0})
                    .replace('"base_seed": 0', '"base_seed": ' + "9" * 5000))
    code = main(["benchmark", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_baseline_missing_from_config_fails_before_any_trial(tmp_path, capsys):
    change = {"optimizers": [{"algorithm": "adam", "label": "adam-1e3"},
                             {"algorithm": "caadam", "scaling": "multiplicative"}]}
    cfg = write_config(tmp_path, {**SMALL_CONFIG, **change})
    out = tmp_path / "o"
    code = main(["benchmark", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not (out / "trials.json").exists()
    # the relabelled entry is a valid baseline when named
    assert main(["benchmark", "--parallel", "1", "--config", cfg, "--out", str(out), "--quiet",
                 "--baseline", "adam-1e3"]) == EXIT_OK


def test_invalid_json_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["benchmark", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SMALL_CONFIG, "epochs": 7})
    code = main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "unknown experiment config keys" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_missing_csv_file_is_data_error(tmp_path, capsys):
    payload = {**SMALL_CONFIG,
               "dataset": {"kind": "csv", "path": str(tmp_path / "absent.csv"),
                           "target": "y"}}
    cfg = write_config(tmp_path, payload)
    code = main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "benchmark"])
@pytest.mark.parametrize("change, code", [
    ({"architectures": [[10 ** 30]]}, EXIT_CONFIG),  # a layer past NumPy's array size
    ({"dataset": {"kind": "csv", "path": "absent.csv", "target": "y"}}, EXIT_DATA),
    ({"split": [0.5, 0.5, 0.5]}, EXIT_DATA),  # fractions that do not sum to 1
    ({"dataset": {"kind": "synth_regression", "n": 3}}, EXIT_DATA),  # an empty partition
    ({"dataset": {"kind": "synth_classification", "spread": -1.0}}, EXIT_DATA),
    ({"dataset": {"kind": "synth_regression", "noise_std": 1e308}}, EXIT_DATA),  # inf targets
    # finite features whose train-split spread overflows in the first trial's split
    ({"dataset": {"kind": "synth_classification", "spread": 1e200}}, EXIT_DATA),
])
def test_failed_dataset_or_architecture_check_leaves_no_output(tmp_path, monkeypatch,
                                                               command, change, code):
    monkeypatch.chdir(tmp_path)  # the relative csv path resolves here
    cfg = write_config(tmp_path, {**SMALL_CONFIG, **change})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    assert not out.exists()


def _out_of_memory(builder):
    """``builder``, with its signature, raising MemoryError."""
    @functools.wraps(builder)
    def raising(*args, **kwargs):
        raise MemoryError
    return raising


# A real allocation past memory can be granted by an operating system that
# overcommits and then get the process killed, so the builder raises instead.
@pytest.mark.parametrize("command", ["train", "benchmark"])
@pytest.mark.parametrize("builder, what", [
    ("synth_regression", "synth_regression dataset {'n': 120, 'm': 3, "),
    ("init_network", "network [4]"),
    ("train", "network [4]"),  # its workspaces
])
def test_out_of_memory_is_config_error_naming_what_was_built(tmp_path, monkeypatch, capsys,
                                                             command, builder, what):
    monkeypatch.setattr(bench, builder, _out_of_memory(getattr(bench, builder)))
    cfg = write_config(tmp_path, SMALL_CONFIG)
    args = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if command == "benchmark":
        args += ["--parallel", "1"]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {what}") and "does not fit in memory" in err


def test_csv_dataset_without_path_is_config_error(tmp_path, capsys):
    payload = {**SMALL_CONFIG, "dataset": {"kind": "csv", "target": "y"}}
    cfg = write_config(tmp_path, payload)
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "csv dataset needs" in capsys.readouterr().err


DIVERGING_CONFIG = {
    **SMALL_CONFIG,
    "optimizers": [{"algorithm": "adam"}],
    "train": {"batch_size": 32, "max_epochs": 3, "initial_lr": 1e200},
}


def test_benchmark_all_diverged_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, DIVERGING_CONFIG)
    out = tmp_path / "run"
    code = main(["benchmark", "--parallel", "1", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_DIVERGED
    assert "every trial diverged" in capsys.readouterr().err
    # the raw trials are still persisted for post-mortems
    payload = json.loads((out / "trials.json").read_text())
    assert [row["metric"] for row in payload["results"]] == [None, None]
    assert not (out / "report.json").exists()


def test_report_on_all_diverged_trials_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, DIVERGING_CONFIG)
    out = tmp_path / "run"
    main(["benchmark", "--parallel", "1", "--config", cfg, "--out", str(out), "--quiet"])
    capsys.readouterr()
    code = main(["report", "--trials", str(out / "trials.json")])
    assert code == EXIT_DIVERGED
    assert "nothing to compare" in capsys.readouterr().err


def test_train_diverged_exit_code(tmp_path):
    cfg = write_config(tmp_path, DIVERGING_CONFIG)
    out = tmp_path / "single"
    code = main(["train", "--config", cfg, "--out", str(out)])
    assert code == EXIT_DIVERGED
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["metric"] is None
    assert metrics["stop_reason"] == "diverged"


def test_curves_on_empty_directory_is_data_error(tmp_path, capsys):
    empty = tmp_path / "logs"
    empty.mkdir()
    code = main(["curves", "--logs", str(empty), "--out", str(tmp_path / "m.csv")])
    assert code == EXIT_DATA
    assert "no loss-curve CSVs" in capsys.readouterr().err


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


# Every update rule on a small regression grid.  The hash was recorded from
# the per-tensor optimizer that preceded the flat parameter vector; a change
# that keeps every element's arithmetic keeps trials.json byte-identical.
# Both golden grids run at the default --parallel, a process pool on a
# multi-core machine, so their hashes also hold a pooled grid to serial bytes.
GOLDEN_CONFIG = {
    "dataset": {"kind": "synth_regression", "n": 300, "m": 4,
                "noise_std": 0.3, "seed": 11},
    "architectures": [[8], [8, 4]],
    "optimizers": [{"algorithm": a} for a in (
        "sgd", "adagrad", "adadelta", "rmsprop", "adam", "adamw", "adamax", "nadam")]
    + [{"algorithm": "caadam", "scaling": kind}
       for kind in ("additive", "multiplicative", "depth_based")],
    "train": {"batch_size": 32, "max_epochs": 3},
    "trials": 2,
    "base_seed": 300,
}
GOLDEN_TRIALS_SHA256 = "9dbc26b4b0bf13d64dc6d9f5847d381e312a6cdc4d0c3f387d12e87c11faad7a"


def test_benchmark_trials_json_matches_golden_hash(tmp_path):
    cfg = write_config(tmp_path, GOLDEN_CONFIG)
    out = tmp_path / "run"
    assert main(["benchmark", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
    digest = hashlib.sha256((out / "trials.json").read_bytes()).hexdigest()
    assert digest == GOLDEN_TRIALS_SHA256


# A softmax-head grid whose 160 training rows leave a remainder batch of 16
# at batch size 24.  Test accuracies are coarse, so the hash also covers every
# loss-curve CSV, whose losses move with any bit of the weights.
GOLDEN_CLASSIFICATION_CONFIG = {
    "dataset": {"kind": "synth_classification", "n": 250, "m": 5, "classes": 4, "seed": 7},
    "architectures": [[8], [6, 5]],
    "optimizers": [{"algorithm": "adam"}, {"algorithm": "caadam", "scaling": "multiplicative"},
                   {"algorithm": "sgd"}],
    "train": {"batch_size": 24, "max_epochs": 4},
    "trials": 2,
    "base_seed": 500,
}
GOLDEN_CLASSIFICATION_SHA256 = "9d592c9626934693875373ca699f441f9b7983fc27504321b60d0dd43991b195"


def test_classification_trials_and_logs_match_golden_hash(tmp_path):
    cfg = write_config(tmp_path, GOLDEN_CLASSIFICATION_CONFIG)
    out = tmp_path / "run"
    assert main(["benchmark", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
    digest = hashlib.sha256((out / "trials.json").read_bytes())
    logs = sorted((out / "logs").rglob("*.csv"))
    assert len(logs) == 12
    for path in logs:
        digest.update(path.relative_to(out).as_posix().encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == GOLDEN_CLASSIFICATION_SHA256
