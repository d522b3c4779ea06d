"""The benchmark protocol: repeated paired runs of the adaptive trainer and
the fixed-lattice baseline, with deterministic derived seeds and file outputs
(per-run snapshots plus a summary table in CSV and text form).
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .baseline import train_batch_som
from .core import Dataset
from .datasets import check_split_fractions, generate_cluster_dataset, load_csv, split_dataset
from .engine import TrainConfig, _is_int, smooth, train
from .errors import ConfigError, DataError
from .grid import create_initial_map
from .metrics import quality_report
from .snapshot import export_snapshot_json

SUMMARY_METRICS = [
    "qe_train",
    "te_train",
    "qe_test",
    "te_test",
    "neurons",
    "train_epochs",
    "smooth_epochs",
    "dead_fraction_train",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark definition: dataset, split protocol, repetitions, config.

    ``dataset`` is a CSV path or the generator id "cluster". Features are
    used raw unless ``normalize`` turns on per-feature min-max scaling
    (fitted on each run's training split). Checked when built.
    """

    dataset: str
    runs: int = 20
    train_frac: float = 0.6
    test_frac: float = 0.2
    val_frac: float = 0.2
    label_column: int | str | None = None
    normalize: bool = False
    output_dir: str = "bench-out"
    config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.dataset:
            raise ConfigError("experiment needs a dataset path or generator id")
        if not _is_int(self.runs):
            raise ConfigError(f"runs must be an integer, got {self.runs!r}")
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        check_split_fractions((self.train_frac, self.test_frac, self.val_frac))


def load_dataset(name: str, label_column=None, seed: int = 0) -> Dataset:
    """Resolve a dataset reference: the "cluster" generator id or a CSV path."""
    if name == "cluster":
        return generate_cluster_dataset(seed)
    return load_csv(name, label_column=label_column)


def parse_label_column(raw: str) -> int | str | None:
    """A label column as written in a spec file or on the command line: an
    integer is a 0-based index, "none" or "null" means no label column, and
    anything else is a header name."""
    return _parse_scalar(raw, "int | str | None")


def _parse_scalar(raw: str, type_hint: str):
    """Type one value by a field annotation, or raise ValueError."""
    raw = raw.strip()
    if "None" in type_hint and raw.lower() in ("none", "null"):
        return None
    if "bool" in type_hint:
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ValueError(raw)
    try:
        if "int" in type_hint:
            return int(raw)
        if "float" in type_hint:
            return float(raw)
    except ValueError:
        if "str" not in type_hint:
            raise
    return raw


def read_config_file(path) -> dict:
    """Parse a flat key = value file (# starts a comment) into a dict of
    strings. A file that cannot be read or decoded raises ConfigError."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key = value")
        key, raw = line.split("=", 1)
        values[key.strip()] = raw.strip()
    return values


def apply_config_values(values: dict, target):
    """Overlay flat key/value strings onto a TrainConfig or an ExperimentSpec
    (but not its nested ``config``), typed by each field's annotation."""
    return replace(target, **_typed_values(values, type(target)))


def _typed_values(values: dict, cls) -> dict:
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name != "config"}
    updates = {}
    for key, raw in values.items():
        if key not in fields:
            raise ConfigError(f"unknown key {key!r}")
        try:
            updates[key] = _parse_scalar(raw, str(fields[key].type))
        except ValueError:
            raise ConfigError(f"bad value for {key}: {raw!r}") from None
    return updates


def experiment_spec_from_file(path) -> ExperimentSpec:
    """Build an ExperimentSpec from a flat key = value file.

    Keys are ExperimentSpec field names plus TrainConfig field names; unknown
    keys are rejected and ``dataset`` is required.
    """
    values = {"dataset": "", **read_config_file(path)}  # no dataset fails as an empty one
    config_keys = [f.name for f in dataclasses.fields(TrainConfig) if f.name in values]
    config_values = {k: values.pop(k) for k in config_keys}
    try:
        config = TrainConfig(**_typed_values(config_values, TrainConfig))
        return ExperimentSpec(**_typed_values(values, ExperimentSpec), config=config)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _derived_seeds(base_seed: int, run: int) -> tuple[int, int]:
    state = np.random.SeedSequence([int(base_seed), int(run)]).generate_state(2)
    return int(state[0]), int(state[1])


def _minmax_scaled(reference: Dataset, targets: list) -> list:
    lo = reference.patterns.min(axis=0)
    span = reference.patterns.max(axis=0) - lo
    span = np.where(span > 0.0, span, 1.0)
    return [Dataset((ds.patterns - lo) / span, ds.labels) for ds in targets]


def run_single(
    train_data: Dataset,
    test_data: Dataset,
    config: TrainConfig,
    sizing: Dataset | None = None,
    epoch_hook=None,
) -> tuple[TrainConfig, dict]:
    """One paired run: adaptive map and baseline from the same initial map.

    Returns the resolved config and, for "amsom" and "som" in that order, a
    tuple ``(map, labels, record)``: the trained map, its majority-vote
    neuron labels on the train split (None without labels) and its
    SUMMARY_METRICS values, keyed in that order.
    """
    amsom_map, cfg = create_initial_map(train_data, config, sizing=sizing)
    som_map = amsom_map.copy()

    def hook(phase):
        if epoch_hook is None:
            return None
        mapping = {"train": amsom_map, "smooth": amsom_map, "baseline": som_map}
        return lambda report: epoch_hook(mapping[phase], report, phase)

    _, train_reports = train(train_data, amsom_map, cfg, progress=hook("train"))
    _, smooth_reports = smooth(train_data, amsom_map, cfg, progress=hook("smooth"))
    _, som_reports = train_batch_som(train_data, som_map, cfg, progress=hook("baseline"))

    def fit(map_state, train_epochs, smooth_epochs):
        on_train = quality_report(train_data, map_state)
        on_test = quality_report(test_data, map_state)
        record = {
            "qe_train": on_train.qe,
            "te_train": on_train.te,
            "qe_test": on_test.qe,
            "te_test": on_test.te,
            "neurons": map_state.m,
            "train_epochs": train_epochs,
            "smooth_epochs": smooth_epochs,
            "dead_fraction_train": on_train.dead_unit_fraction,
        }
        return map_state, on_train.neuron_labels, record

    return cfg, {
        "amsom": fit(amsom_map, len(train_reports), len(smooth_reports)),
        "som": fit(som_map, len(som_reports), 0),
    }


def _aggregate(records: list) -> dict:
    summary = {}
    for algorithm in ("amsom", "som"):
        rows = [r for r in records if r["algorithm"] == algorithm]
        stats = {}
        for metric in SUMMARY_METRICS:
            values = np.array([r[metric] for r in rows], dtype=np.float64)
            stats[metric] = {"mean": float(values.mean()), "std": float(values.std())}
        summary[algorithm] = stats
    return summary


def _write_summary(out: Path, summary: dict, runs_done: int, failed: str | None) -> None:
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "metric", "mean", "std"])
        for algorithm in ("amsom", "som"):
            for metric in SUMMARY_METRICS:
                stat = summary[algorithm][metric]
                writer.writerow([algorithm, metric, repr(stat["mean"]), repr(stat["std"])])

    lines = [f"runs: {runs_done}"]
    if failed:
        lines.append(f"FAILED: {failed} (partial results)")
    header = f"{'metric':<22}{'amsom mean':>14}{'amsom std':>12}{'som mean':>14}{'som std':>12}"
    lines += [header, "-" * len(header)]
    for metric in SUMMARY_METRICS:
        a = summary["amsom"][metric]
        s = summary["som"][metric]
        lines.append(
            f"{metric:<22}{a['mean']:>14.6f}{a['std']:>12.6f}{s['mean']:>14.6f}{s['std']:>12.6f}"
        )
    (out / "summary.txt").write_text("\n".join(lines) + "\n")


def _write_runs_csv(out: Path, records: list) -> None:
    columns = ["algorithm", "run"] + SUMMARY_METRICS
    with open(out / "runs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for record in records:
            writer.writerow([record[c] if c in ("algorithm", "run") else repr(float(record[c])) for c in columns])


def run_experiment(spec: ExperimentSpec, epoch_hook=None) -> dict:
    """Execute all runs of an experiment and write the output files.

    Each run derives its own seeds from (config.seed, run index), re-shuffles
    the split, and trains the adaptive map and the baseline from the same
    initial map on the same training split. Outputs under spec.output_dir:
    run_XX_amsom.json / run_XX_som.json snapshots, runs.csv, summary.csv and
    summary.txt. Two invocations with the same spec produce identical bytes.

    A failing run aborts the experiment: the runs completed before it (both
    snapshots written) are aggregated as usual, summary.txt names the failed
    run after a FAILED marker, and the error is re-raised.
    """
    full = load_dataset(spec.dataset, spec.label_column, seed=spec.config.seed)
    out = Path(spec.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {out}: {exc}") from exc
    fractions = (spec.train_frac, spec.test_frac, spec.val_frac)

    records: list = []
    error = None
    try:
        for run in range(spec.runs):
            split_seed, model_seed = _derived_seeds(spec.config.seed, run)
            train_data, test_data, _ = split_dataset(full, fractions, split_seed)
            sizing = full
            if spec.normalize:
                train_data, test_data, sizing = _minmax_scaled(
                    train_data, [train_data, test_data, full]
                )
            run_cfg = replace(spec.config, seed=model_seed)
            cfg, fits = run_single(
                train_data, test_data, run_cfg, sizing=sizing, epoch_hook=epoch_hook
            )
            for algorithm, (map_state, labels, record) in fits.items():
                export_snapshot_json(
                    map_state,
                    out / f"run_{run:02d}_{algorithm}.json",
                    labels=labels,
                    config=dataclasses.asdict(cfg),
                    metrics={k: v for k, v in record.items() if k != "dead_fraction_train"},
                )
            records += [{"algorithm": a, "run": run, **rec} for a, (_, _, rec) in fits.items()]
    except Exception as exc:
        error = exc

    done = len(records) // 2
    summary = _aggregate(records) if records else None
    if records:
        _write_runs_csv(out, records)
        _write_summary(out, summary, done, None if error is None else f"run {done}: {error}")
    if error is not None:
        raise error
    return summary
