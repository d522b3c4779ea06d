import csv
import dataclasses
import os
import subprocess
import sys
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from amsom import bench
from amsom.bench import (
    SUMMARY_METRICS,
    ExperimentSpec,
    _derived_seeds,
    apply_config_values,
    experiment_spec_from_file,
    load_dataset,
    parse_label_column,
    read_config_file,
    run_experiment,
)
from amsom.cli import main
from amsom.core import Dataset
from amsom.datasets import split_dataset
from amsom.engine import TrainConfig
from amsom.errors import ConfigError, TrainingError
from amsom.metrics import quality_report
from amsom.snapshot import load_snapshot

from conftest import IRIS_CSV


@pytest.fixture()
def blob_csv(tmp_path):
    rng = np.random.default_rng(71)
    rows = ["x,y,label"]
    for k, center in enumerate([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]]):
        for p in rng.normal(center, 0.4, size=(20, 2)):
            rows.append(f"{p[0]},{p[1]},{k}")
    path = tmp_path / "blobs.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def _quick_config():
    return TrainConfig(max_epochs=40, sigma_decay_epochs=8, smooth_max_epochs=40)


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\ngamma = 2.5\nseed=7   # trailing note\n")
    assert read_config_file(path) == {"gamma": "2.5", "seed": "7"}
    path.write_text("gamma 2.5\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_config_file(path)


def test_apply_config_values_typing():
    cfg = apply_config_values(
        {"gamma": "2.5", "age_max": "10", "q_max": "none", "topology": "hexagonal", "seed": "7"},
        TrainConfig(),
    )
    assert cfg.gamma == 2.5
    assert cfg.age_max == 10
    assert cfg.q_max is None
    assert cfg.topology == "hexagonal"
    assert cfg.seed == 7
    assert apply_config_values({"q_max": "3"}, TrainConfig()).q_max == 3

    with pytest.raises(ConfigError):
        apply_config_values({"not_a_field": "1"}, TrainConfig())
    with pytest.raises(ConfigError):
        apply_config_values({"gamma": "abc"}, TrainConfig())


SPEC = ExperimentSpec(dataset="x.csv")


@pytest.mark.parametrize(
    "target, key, raw, expected",
    [
        (SPEC, "normalize", "true", True),
        (SPEC, "normalize", "false", False),
        (SPEC, "normalize", "no", False),
        (SPEC, "normalize", "0", False),
        (SPEC, "normalize", "maybe", ConfigError),
        (TrainConfig(q_max=3), "q_max", "none", None),
        (TrainConfig(sigma0=2.0), "sigma0", "null", None),
        (SPEC, "label_column", "None", None),
        (SPEC, "label_column", "2", 2),
        (SPEC, "label_column", "-1", -1),
        (SPEC, "label_column", " species", "species"),
        (TrainConfig(), "max_epochs", "2.0", ConfigError),
        (SPEC, "runs", "2.0", ConfigError),
        (SPEC, "config", "x", ConfigError),
    ],
)
def test_overlay_types_each_value_by_its_field(target, key, raw, expected):
    if expected is ConfigError:
        with pytest.raises(ConfigError, match=key):
            apply_config_values({key: raw}, target)
        return
    result = getattr(apply_config_values({key: raw}, target), key)
    assert result == expected and type(result) is type(expected)
    if key == "label_column":  # the --label-column reader is the same parser
        assert parse_label_column(raw) == expected


def test_experiment_spec_from_file(tmp_path, blob_csv):
    path = tmp_path / "exp.cfg"
    path.write_text(
        f"dataset = {blob_csv}\n"
        "runs = 3\n"
        "train_frac = 0.5\n"
        "test_frac = 0.25\n"
        "val_frac = 0.25\n"
        "label_column = label\n"
        "normalize = true\n"
        "gamma = 2.0\n"
        "max_epochs = 77\n"
    )
    spec = experiment_spec_from_file(path)
    assert spec.runs == 3
    assert spec.label_column == "label"
    assert spec.normalize is True
    assert spec.config.gamma == 2.0
    assert spec.config.max_epochs == 77
    assert spec.config.sf == 0.5  # untouched default

    path.write_text(f"dataset = {blob_csv}\nlabel_column = 2\n")
    assert experiment_spec_from_file(path).label_column == 2
    path.write_text(f"dataset = {blob_csv}\nlabel_column = none\n")
    assert experiment_spec_from_file(path).label_column is None

    path.write_text("runs = 2\n")
    with pytest.raises(ConfigError, match="dataset"):
        experiment_spec_from_file(path)
    path.write_text(f"dataset = {blob_csv}\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        experiment_spec_from_file(path)
    path.write_text(f"dataset = {blob_csv}\nruns = 0\n")
    with pytest.raises(ConfigError):
        experiment_spec_from_file(path)


def test_experiment_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(dataset="")
    with pytest.raises(ConfigError):
        ExperimentSpec(dataset="x.csv", runs=0)
    with pytest.raises(ConfigError, match="output_dir"):
        ExperimentSpec(dataset="x.csv", output_dir="")
    with pytest.raises(ConfigError):
        ExperimentSpec(dataset="x.csv", train_frac=0.9, test_frac=0.2, val_frac=0.2)
    with pytest.raises(ConfigError, match="finite"):
        ExperimentSpec(dataset="x.csv", train_frac=float("nan"))
    for runs in (1.5, 2.0, True):
        with pytest.raises(ConfigError, match="runs must be an integer"):
            ExperimentSpec(dataset="x.csv", runs=runs)
    assert ExperimentSpec(dataset="x.csv", runs=np.int64(3)).runs == 3
    # each field takes its own kind only: "false" would turn normalizing on
    wrong_kinds = [
        dict(normalize="false"),
        dict(normalize=1),
        dict(train_frac="0.6"),
        dict(output_dir=3),
        dict(dataset=5),
        dict(label_column=1.5),
        dict(label_column=True),
    ]
    for kwargs in wrong_kinds:
        with pytest.raises(ConfigError):
            ExperimentSpec(**{"dataset": "x.csv", **kwargs})
        with pytest.raises(ConfigError):
            dataclasses.replace(ExperimentSpec(dataset="x.csv"), **kwargs)
    fractions = dict(train_frac=np.float64(0.5), test_frac=0.25, val_frac=0.25)
    assert type(ExperimentSpec(dataset="x.csv", **fractions).train_frac) is np.float64
    assert not hasattr(ExperimentSpec, "validate")
    # frozen, so a changed spec comes from replace, which checks it again
    spec = ExperimentSpec(dataset="x.csv")
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.output_dir = "elsewhere"
    assert dataclasses.replace(spec, output_dir="elsewhere").output_dir == "elsewhere"
    with pytest.raises(ConfigError, match="runs must be at least 1"):
        dataclasses.replace(spec, runs=0)


def test_experiment_spec_config_must_be_a_train_config():
    # a dict of config values is not a config: it would reach run_experiment
    # and fail there on its first attribute read
    for config in ({"seed": 0}, None, "seed=0"):
        with pytest.raises(ConfigError, match="config must be a TrainConfig"):
            ExperimentSpec(dataset="cluster", config=config)
        with pytest.raises(ConfigError, match="config must be a TrainConfig"):
            dataclasses.replace(ExperimentSpec(dataset="cluster"), config=config)
    assert ExperimentSpec(dataset="cluster", config=TrainConfig(seed=3)).config.seed == 3


def test_load_dataset_generator_id():
    data = load_dataset("cluster", seed=1)
    assert data.n == 1000 and data.d == 2


def test_derived_seeds_are_stable_and_distinct():
    assert _derived_seeds(0, 0) == _derived_seeds(0, 0)
    assert _derived_seeds(0, 0) != _derived_seeds(0, 1)
    assert _derived_seeds(0, 0) != _derived_seeds(1, 0)


def test_run_experiment_outputs(blob_csv, tmp_path):
    out = tmp_path / "out"
    spec = ExperimentSpec(
        dataset=str(blob_csv),
        runs=2,
        label_column="label",
        output_dir=str(out),
        config=_quick_config(),
    )
    summary = run_experiment(spec)

    for name in ("runs.csv", "summary.csv", "summary.txt"):
        assert (out / name).exists()
    for run in range(2):
        for algorithm in ("amsom", "som"):
            ms, payload = load_snapshot(out / f"run_{run:02d}_{algorithm}.json")
            assert payload["neuron_count"] == ms.m
            assert payload["metrics"]["neurons"] == ms.m
            assert np.isfinite(payload["metrics"]["qe_train"])
            assert payload["neuron_labels"] is not None

    with open(out / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 runs x 2 algorithms
    for algorithm in ("amsom", "som"):
        mine = [r for r in rows if r["algorithm"] == algorithm]
        assert len(mine) == 2
        for metric in ("qe_train", "te_train", "neurons", "train_epochs"):
            values = np.array([float(r[metric]) for r in mine])
            assert summary[algorithm][metric]["mean"] == pytest.approx(
                values.mean(), abs=1e-15
            )
            assert summary[algorithm][metric]["std"] == pytest.approx(
                values.std(), abs=1e-15
            )

    # the CSV echoes the same means at full precision
    with open(out / "summary.csv") as fh:
        for record in csv.DictReader(fh):
            stat = summary[record["algorithm"]][record["metric"]]
            assert float(record["mean"]) == stat["mean"]
            assert float(record["std"]) == stat["std"]


def test_spec_file_normalize_fits_the_scaling_on_the_training_split(blob_csv, tmp_path):
    spec_file = tmp_path / "exp.cfg"
    spec_file.write_text(
        f"dataset = {blob_csv}\nruns = 1\nlabel_column = label\nnormalize = true\n"
        "max_epochs = 30\nsigma_decay_epochs = 6\nsmooth_max_epochs = 15\n"
    )
    outputs = []
    for sub in ("a", "b"):
        assert main(["bench", str(spec_file), "--out", str(tmp_path / sub)]) == 0
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()})
    assert outputs[0] == outputs[1]

    # the recorded errors are those of the map on splits scaled by the
    # training split's own per-feature range
    full = load_dataset(str(blob_csv), "label")
    train_data, test_data, _ = split_dataset(full, (0.6, 0.2, 0.2), _derived_seeds(0, 0)[0])
    lo = train_data.patterns.min(axis=0)
    span = train_data.patterns.max(axis=0) - lo
    for algorithm in ("amsom", "som"):
        ms, payload = load_snapshot(tmp_path / "a" / f"run_00_{algorithm}.json")
        for split, key in ((train_data, "qe_train"), (test_data, "qe_test")):
            scaled = Dataset((split.patterns - lo) / span, split.labels)
            assert quality_report(scaled, ms).qe == payload["metrics"][key]


def _two_run_spec(tmp_path, blob_csv):
    spec = tmp_path / "exp.cfg"
    spec.write_text(
        f"dataset = {blob_csv}\nruns = 2\nlabel_column = label\n"
        "max_epochs = 5\nsigma_decay_epochs = 2\nsmooth_max_epochs = 3\n"
    )
    return spec


def test_failed_run_keeps_the_completed_runs_and_names_itself(blob_csv, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "run_01_amsom.json").mkdir(parents=True)
    assert main(["bench", str(_two_run_spec(tmp_path, blob_csv)), "--out", str(out)]) == 1

    with open(out / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["algorithm"], r["run"]) for r in rows] == [("amsom", "0"), ("som", "0")]
    lines = (out / "summary.txt").read_text().splitlines()
    assert lines[0] == "runs: 1"
    assert lines[1].startswith("FAILED: run 1: ")
    with open(out / "summary.csv") as fh:
        means = {(r["algorithm"], r["metric"]): float(r["mean"]) for r in csv.DictReader(fh)}
    assert means[("amsom", "qe_train")] == float(rows[0]["qe_train"])

    # a failure in the first run leaves no run to summarise
    out = tmp_path / "first"
    (out / "run_00_som.json").mkdir(parents=True)
    assert main(["bench", str(_two_run_spec(tmp_path, blob_csv)), "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["run_00_amsom.json", "run_00_som.json"]
    capsys.readouterr()  # keep the error lines out of the test log


def _three_run_spec(blob_csv, out):
    return ExperimentSpec(
        dataset=str(blob_csv), runs=3, label_column="label", output_dir=str(out),
        config=_quick_config(),
    )


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _count_groups(monkeypatch):
    sizes = []
    lockstep = bench.smooth_runs

    def counted(runs):
        sizes.append(len(runs))
        return lockstep(runs)

    monkeypatch.setattr(bench, "smooth_runs", counted)
    return sizes


def test_run_experiment_bytes_do_not_depend_on_the_grouping(blob_csv, tmp_path, monkeypatch):
    sizes = _count_groups(monkeypatch)
    run_experiment(_three_run_spec(blob_csv, tmp_path / "together"))
    assert sizes == [3]
    monkeypatch.setattr(bench, "STAGE_BUDGET", 1)  # every run is a group of its own
    run_experiment(_three_run_spec(blob_csv, tmp_path / "apart"))
    assert sizes == [3, 1, 1, 1]
    together = _files(tmp_path / "together")
    assert len(together) == 9 and together == _files(tmp_path / "apart")


def _failing_run_1(monkeypatch, where):
    """Make run 1 fail in training (``train`` raises), or in smoothing (its
    trained map gets a NaN weight, a non-finite error at smoothing epoch 1)."""
    trained = []
    train_one = bench.train

    def failing(data, map_state, config, progress=None):
        result = train_one(data, map_state, config, progress=progress)
        trained.append(map_state)
        if len(trained) == 2:
            if where == "train":
                raise TrainingError("injected")
            map_state.weights[0, 0] = np.nan
        return result

    monkeypatch.setattr(bench, "train", failing)


@pytest.mark.parametrize("budget", [1, bench.STAGE_BUDGET])
@pytest.mark.parametrize("where", ["train", "smooth"])
def test_a_failing_run_leaves_the_runs_before_it_written(
    blob_csv, tmp_path, monkeypatch, where, budget
):
    run_experiment(_three_run_spec(blob_csv, tmp_path / "whole"))
    whole = _files(tmp_path / "whole")
    monkeypatch.setattr(bench, "STAGE_BUDGET", budget)
    _failing_run_1(monkeypatch, where)
    out = tmp_path / "failed"
    with pytest.raises(TrainingError):
        run_experiment(_three_run_spec(blob_csv, out))
    files = _files(out)
    assert sorted(files) == sorted(
        ["run_00_amsom.json", "run_00_som.json", "runs.csv", "summary.csv", "summary.txt"]
    )
    for name in ("run_00_amsom.json", "run_00_som.json"):
        assert files[name] == whole[name]
    lines = files["summary.txt"].decode().splitlines()
    message = "injected" if where == "train" else "non-finite mqe at epoch 1"
    assert lines[:2] == ["runs: 1", f"FAILED: run 1: {message} (partial results)"]


def test_epoch_hook_sees_the_stages_in_order(blob_csv, tmp_path):
    seen = []
    spec = dataclasses.replace(_three_run_spec(blob_csv, tmp_path / "out"), runs=2)
    run_experiment(
        spec, epoch_hook=lambda ms, report, phase: seen.append((phase, id(ms), report.epoch))
    )
    trained = [key for key, _ in groupby((phase, m) for phase, m, _ in seen if phase == "train")]
    smoothed = [(m, epoch) for phase, m, epoch in seen if phase == "smooth"]
    runs = [m for _, m in trained]
    # train run by run, then smoothing epoch by epoch, then each baseline
    assert [phase for phase, _ in groupby(phase for phase, _, _ in seen)] == [
        "train", "smooth", "baseline"
    ]
    assert len(runs) == 2
    assert smoothed == sorted(smoothed, key=lambda pair: (pair[1], runs.index(pair[0])))
    assert {m for m, _ in smoothed} == set(runs)
    baselines = [key for key, _ in groupby(m for phase, m, _ in seen if phase == "baseline")]
    assert len(baselines) == 2 and not set(baselines) & set(runs)


def test_one_run_experiment_records_one_row_per_map(blob_csv, tmp_path):
    # a single paired run: per map, one snapshot holding the resolved config
    # and the train-split labels, and one runs.csv row of SUMMARY_METRICS
    out = tmp_path / "out"
    spec = ExperimentSpec(
        dataset=str(blob_csv), runs=1, label_column="label", output_dir=str(out),
        config=_quick_config(),
    )
    run_experiment(spec)
    full = load_dataset(str(blob_csv), "label")
    train_data, test_data, _ = split_dataset(full, (0.6, 0.2, 0.2), _derived_seeds(0, 0)[0])
    with open(out / "runs.csv") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["algorithm", "run"] + SUMMARY_METRICS
    assert [(r["algorithm"], r["run"]) for r in rows] == [("amsom", "0"), ("som", "0")]
    for row in rows:
        map_state, payload = load_snapshot(out / f"run_00_{row['algorithm']}.json")
        assert payload["config"]["sigma0"] is not None  # the resolved config
        on_train = quality_report(train_data, map_state)
        on_test = quality_report(test_data, map_state)
        assert payload["neuron_labels"] == list(on_train.neuron_labels)
        expected = {
            "qe_train": on_train.qe,
            "te_train": on_train.te,
            "qe_test": on_test.qe,
            "te_test": on_test.te,
            "neurons": map_state.m,
            "dead_fraction_train": on_train.dead_unit_fraction,
        }
        assert {key: float(row[key]) for key in expected} == expected
        # the snapshot holds every figure of the row but the dead fraction
        assert list(payload["metrics"]) == SUMMARY_METRICS[:-1]
        assert {key: float(row[key]) for key in SUMMARY_METRICS[:-1]} == payload["metrics"]
    assert float(rows[1]["smooth_epochs"]) == 0


def test_run_experiment_is_byte_deterministic(blob_csv, tmp_path):
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        spec = ExperimentSpec(
            dataset=str(blob_csv),
            runs=2,
            label_column="label",
            output_dir=str(out),
            config=_quick_config(),
        )
        run_experiment(spec)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name


# ------------------------------------------------------------------- CLI


def test_cli_train_and_render(blob_csv, tmp_path, capsys):
    out = tmp_path / "map.json"
    code = main(
        [
            "train",
            str(blob_csv),
            "--label-column",
            "label",
            "--out",
            str(out),
            "--set",
            "max_epochs=30",
            "--set",
            "sigma_decay_epochs=6",
            "--set",
            "smooth_max_epochs=20",
        ]
    )
    assert code == 0
    assert out.exists()
    assert "snapshot:" in capsys.readouterr().out

    assert main(["render", str(out)]) == 0
    assert out.with_suffix(".svg").exists()
    custom = tmp_path / "picture.svg"
    assert main(["render", str(out), "--out", str(custom)]) == 0
    assert custom.exists()


def test_cli_train_with_config_file(blob_csv, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("max_epochs = 25\nsigma_decay_epochs = 6\nsmooth_max_epochs = 15\n")
    out = tmp_path / "map.json"
    code = main(["train", str(blob_csv), "--config", str(cfg), "--out", str(out)])
    assert code == 0
    _, payload = load_snapshot(out)
    assert payload["config"]["max_epochs"] == 25


def test_cli_bench(blob_csv, tmp_path, capsys):
    spec = tmp_path / "exp.cfg"
    spec.write_text(
        f"dataset = {blob_csv}\n"
        "runs = 1\n"
        "label_column = label\n"
        "max_epochs = 30\n"
        "sigma_decay_epochs = 6\n"
        "smooth_max_epochs = 15\n"
    )
    out = tmp_path / "bench-out"
    assert main(["bench", str(spec), "--out", str(out)]) == 0
    assert (out / "summary.txt").exists()
    assert "amsom:" in capsys.readouterr().out


def test_cli_exit_codes(blob_csv, tmp_path, capsys):
    assert main(["train", str(blob_csv), "--set", "max_epochs30"]) == 1
    assert main(["train", str(blob_csv), "--set", "no_such_key=1"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["train", str(tmp_path / "missing.csv")]) == 2
    assert main(["render", str(tmp_path / "missing.json")]) == 2

    spec = tmp_path / "bad.cfg"
    spec.write_text("runs = 1\n")
    assert main(["bench", str(spec)]) == 1
    # a NaN split fraction is a config error, not a failed integer cast
    spec.write_text(f"dataset = {blob_csv}\nruns = 1\ntrain_frac = nan\n")
    assert main(["bench", str(spec)]) == 1

    # non-finite config values are rejected, not trained into a degenerate map
    assert main(["train", str(blob_csv), "--set", "gamma=nan"]) == 1

    # 1-D data is a data fault: no config value can fix it
    one_column = tmp_path / "one_column.csv"
    one_column.write_text("\n".join(str(v) for v in range(20)) + "\n")
    assert main(["train", str(one_column), "--out", str(tmp_path / "one.json")]) == 2

    # data whose squared distances would overflow is a data fault too
    huge = tmp_path / "huge.csv"
    rng = np.random.default_rng(3)
    rows = (rng.normal(size=(60, 2)) * 1e155).tolist()
    huge.write_text("".join(f"{x!r},{y!r}\n" for x, y in rows))
    assert main(["train", str(huge), "--out", str(tmp_path / "huge.json")]) == 2
    # ... also near the float maximum, where 2.5 * max|x| would itself overflow
    huge.write_text("a,b\n1e308,1e308\n-1e308,-1e308\n1e307,5\n0,0\n")
    assert main(["train", str(huge), "--out", str(tmp_path / "huge.json")]) == 2
    assert "pattern values too large" in capsys.readouterr().err

    # a CSV with a label column and no feature column has no patterns to train on
    label_only = tmp_path / "label_only.csv"
    label_only.write_text("label\nx\ny\n")
    assert main(["train", str(label_only), "--label-column", "label"]) == 2
    assert "dataset needs at least one pattern and one feature" in capsys.readouterr().err

    # a structurally broken snapshot is malformed input data
    out = tmp_path / "map.json"
    assert (
        main(
            ["train", str(blob_csv), "--out", str(out),
             "--set", "max_epochs=5", "--set", "smooth_max_epochs=5"]
        )
        == 0
    )
    import json

    payload = json.loads(out.read_text())
    payload["weights"] = [1.0, 2.0, 3.0]
    out.write_text(json.dumps(payload))
    assert main(["render", str(out)]) == 2
    out.write_text("{not json")
    assert main(["render", str(out)]) == 2

    # a non-finite numeric label is a class name, not an internal error
    inf_labels = tmp_path / "inf_labels.csv"
    inf_labels.write_text(blob_csv.read_text().replace(",2\n", ",inf\n"))
    assert "inf" in inf_labels.read_text()
    args = ["train", str(inf_labels), "--label-column", "label", "--out", str(out),
            "--set", "max_epochs=5", "--set", "smooth_max_epochs=5"]
    assert main(args) == 0

    # a header row of another width than the data rows is a data error
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("a,b,c\n1,2\n3,4\n")
    assert main(["train", str(narrow), "--label-column", "c", "--out", str(out)]) == 2
    assert "line 1: header has 3 cells" in capsys.readouterr().err

    # an input that cannot be read or decoded is a data error, whatever the reason
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(blob_csv.read_bytes().replace(b"x,y", b"x,\xe9"))
    assert main(["train", str(latin1)]) == 2
    assert main(["train", str(tmp_path)]) == 2
    # ... before any fault in its records, even past the first rows read
    late = tmp_path / "late.csv"
    late.write_bytes(b"a,b\n" + b"1.0,2.0\n" * 10000 + b"\xff\xfe,5\n")
    assert main(["train", str(late), "--label-column", "nosuch"]) == 2
    assert "cannot read" in capsys.readouterr().err
    latin1_map = tmp_path / "latin1.json"
    latin1_map.write_bytes(b'{"weights": "\xe9"}')
    assert main(["render", str(latin1_map)]) == 2

    # a config file that cannot be read is a config error
    short = ["--set", "max_epochs=5", "--set", "smooth_max_epochs=5"]
    for config in [tmp_path / "missing.cfg", tmp_path, latin1]:
        assert main(["train", str(blob_csv), "--config", str(config), "--out", str(out)] + short) == 1
    assert main(["bench", str(tmp_path / "missing.cfg")]) == 1

    # a label column that does not exist is a config error, by index or by name
    assert main(["train", str(IRIS_CSV), "--label-column", "9"]) == 1
    assert main(["train", str(IRIS_CSV), "--label-column", "nosuch"]) == 1
    bare = tmp_path / "bare.csv"
    bare.write_text("\n".join(blob_csv.read_text().splitlines()[1:]) + "\n")
    assert main(["train", str(bare), "--label-column", "label"]) == 1

    # an output path that cannot be written is a bad argument
    nowhere = tmp_path / "nosuchdir" / "map.json"
    assert main(["train", str(blob_csv), "--out", str(nowhere)] + short) == 1
    assert not nowhere.parent.exists()
    assert main(["render", str(out), "--out", str(nowhere)]) == 1
    spec.write_text(f"dataset = {blob_csv}\nruns = 1\nmax_epochs = 5\nsmooth_max_epochs = 5\n")
    assert main(["bench", str(spec), "--out", str(blob_csv)]) == 1
    capsys.readouterr()  # keep the error lines out of the test log


# Python 3.10's csv module rejects a line holding a NUL byte ("line contains
# NUL"); later versions read the cell, and it is no number
@pytest.mark.parametrize(
    "text",
    [b"a,b\n1,2\n3," + b"4" * 200_000 + b"\n5,6\n", b"a,b\n1,2\n3,4\x005\n5,6\n7,8\n"],
    ids=["cell-over-the-field-limit", "nul-in-a-number"],
)
def test_cli_train_reports_a_record_the_csv_module_rejects_as_a_data_error(text, tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    assert main(["train", str(path), "--out", str(tmp_path / "map.json")]) == 2
    assert f"{path}: line 3: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, column",
    [("1.0,2.0\n3.0,4.5\n5.0,6.0\n7.0,8.0\n", "none"),
     ("label,a,b\nx,1,2\ny,3,4\nx,5,6\ny,7,8\n", "label")],
    ids=["headerless", "header"],
)
def test_cli_train_reads_a_csv_that_begins_with_a_byte_order_mark(text, column, tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    out = tmp_path / "map.json"
    args = ["train", str(path), "--label-column", column, "--out", str(out),
            "--set", "max_epochs=5", "--set", "smooth_max_epochs=5"]
    assert main(args) == 0
    _, payload = load_snapshot(out)
    assert len(payload["weights"][0]) == 2


def test_cli_train_checks_its_output_path_before_training(blob_csv, tmp_path, monkeypatch, capsys):
    calls = []

    def failing_train(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("training failed")

    monkeypatch.setattr("amsom.cli.train", failing_train)
    for bad in [tmp_path / "nosuchdir" / "map.json", tmp_path, ""]:
        assert main(["train", str(blob_csv), "--out", str(bad)]) == 1
    assert calls == []

    # a run that fails after the check neither creates nor truncates the output
    out = tmp_path / "map.json"
    assert main(["train", str(blob_csv), "--out", str(out)]) == 3
    assert len(calls) == 1 and not out.exists()
    out.write_text("kept\n")
    assert main(["train", str(blob_csv), "--out", str(out)]) == 3
    assert out.read_text() == "kept\n"
    capsys.readouterr()  # keep the error lines out of the test log


def test_cli_empty_output_paths_are_config_errors(blob_csv, tmp_path, monkeypatch, capsys):
    # an empty path is the working directory to pathlib, so a run would
    # write its files there; each case is a config error before any work
    monkeypatch.chdir(tmp_path)
    spec = tmp_path / "spec.cfg"
    spec.write_text(f"dataset = {blob_csv}\nruns = 1\nmax_epochs = 5\noutput_dir = \n")
    before = sorted(tmp_path.iterdir())
    assert main(["bench", str(spec)]) == 1
    spec.write_text(f"dataset = {blob_csv}\nruns = 1\nmax_epochs = 5\n")
    assert main(["bench", str(spec), "--out", ""]) == 1
    assert main(["train", str(blob_csv), "--out", ""]) == 1
    assert sorted(tmp_path.iterdir()) == before
    assert capsys.readouterr().err.count("error:") == 3


def test_cli_sigma_final_alone_sets_the_start_width(tmp_path):
    # with sigma0 unset the start width is clamped at sigma_final, so a wide
    # sigma_final on its own is a valid config
    out = tmp_path / "map.json"
    code = main(["train", str(IRIS_CSV), "--label-column", "species",
                 "--set", "sigma_final=8", "--out", str(out)])
    assert code == 0
    _, payload = load_snapshot(out)
    assert payload["config"]["sigma0"] == payload["config"]["sigma_final"] == 8.0


@pytest.mark.parametrize("setting", ["sigma_final=1e-200", "gamma=1e-308"])
def test_cli_train_rejects_a_kernel_width_that_is_not_normal(setting, tmp_path):
    # sigma_final^2 underflows to zero and gamma * sigma^2 is subnormal: the
    # kernels would divide by zero or overflow, so the config is rejected
    # (exit 1) before training, under warnings as errors too
    script = "import sys; from amsom.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["train", str(IRIS_CSV), "--label-column", "species", "--set", setting,
            "--set", "max_epochs=5", "--out", str(tmp_path / "map.json")]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script, *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert "positive normal" in proc.stderr
    with pytest.raises(ConfigError, match="positive normal"):
        TrainConfig(sigma0=1e200)


def test_cli_label_column_none_means_no_labels(blob_csv, tmp_path):
    # the command line reads a label column the way a spec file does
    out = tmp_path / "map.json"
    args = ["train", str(blob_csv), "--out", str(out),
            "--set", "max_epochs=5", "--set", "smooth_max_epochs=5"]
    assert main(args + ["--label-column", "none"]) == 0
    _, payload = load_snapshot(out)
    assert payload["neuron_labels"] is None
    assert len(payload["weights"][0]) == 3  # the label column is a feature
    assert main(args + ["--label-column", "2"]) == 0
    _, payload = load_snapshot(out)
    assert payload["neuron_labels"] is not None
    assert len(payload["weights"][0]) == 2


def test_runs_never_import_numpy_ma(tmp_path):
    # numpy.ma costs every process that imports it over 10 ms and about 1 MB;
    # np.median imports it, so no step of a run may call it
    script = f"""
import sys
from amsom.bench import ExperimentSpec, run_experiment
from amsom.cli import main
from amsom.engine import TrainConfig
iris = {str(IRIS_CSV)!r}
out = {str(tmp_path)!r}
assert main(["train", iris, "--label-column", "species", "--set", "smooth_max_epochs=20",
             "--out", out + "/map.json"]) == 0
run_experiment(ExperimentSpec(dataset=iris, runs=1, label_column="species", output_dir=out + "/bench",
                              config=TrainConfig(smooth_max_epochs=20)))
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
