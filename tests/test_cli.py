"""End-to-end runs of the ``caadam`` command-line interface (in-process)."""

import hashlib
import json

import pytest

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
    code = main(["benchmark", "--config", cfg, "--out", str(out)])
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
    code_a = main(["benchmark", "--config", cfg, "--out", str(tmp_path / "a"),
                   "--quiet"])
    code_b = main(["benchmark", "--config", cfg, "--out", str(tmp_path / "b"),
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
    code = main(["benchmark", "--config", cfg, "--out", str(out),
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


def test_report_rebuilds_from_trials(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    run = tmp_path / "run"
    assert main(["benchmark", "--config", cfg, "--out", str(run),
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
    assert main(["benchmark", "--config", cfg, "--out", str(run),
                 "--quiet"]) == EXIT_OK
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", "--trials", str(run / "trials.json"),
                 "--timings", str(run / "timings.json"),
                 "--out", str(rebuilt)]) == EXIT_OK
    for name in ("report.json", "report.csv"):
        assert (rebuilt / name).read_bytes() == (run / name).read_bytes()


def test_curves_merges_per_trial_logs(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    run = tmp_path / "run"
    assert main(["benchmark", "--config", cfg, "--out", str(run),
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


HUGE = 10 ** 400  # a 401-digit JSON integer, past the float range


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
    {"optimizers": [{"algorithm": "adam"}, 3]},
    {"optimizers": [{"algorithm": "adam", "beta1": HUGE}]},
    {"optimizers": [{"algorithm": "adam"},
                    {"algorithm": "caadam", "scaling": "additive", "gamma": -HUGE}]},
    {"dataset": {"kind": "synth_regression", "noise_std": HUGE}},
    {"split": [HUGE, 0.2, 0.2]},
    {"train": {"early_stop_min_delta": HUGE}},
])
def test_malformed_config_is_config_error(tmp_path, capsys, change):
    cfg = write_config(tmp_path, {**SMALL_CONFIG, **change})
    code = main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_optimizer_learning_rate_key_is_config_error(tmp_path, capsys):
    change = {"optimizers": [{"algorithm": "adam", "learning_rate": 0.5}]}
    cfg = write_config(tmp_path, {**SMALL_CONFIG, **change})
    code = main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "initial_lr" in err


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
    assert main(["benchmark", "--config", cfg, "--out", str(out), "--quiet",
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
    code = main(["benchmark", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == EXIT_DIVERGED
    assert "every trial diverged" in capsys.readouterr().err
    # the raw trials are still persisted for post-mortems
    payload = json.loads((out / "trials.json").read_text())
    assert [row["metric"] for row in payload["results"]] == [None, None]
    assert not (out / "report.json").exists()


def test_report_on_all_diverged_trials_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, DIVERGING_CONFIG)
    out = tmp_path / "run"
    main(["benchmark", "--config", cfg, "--out", str(out), "--quiet"])
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
