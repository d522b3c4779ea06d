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
from .core import Dataset, MapState
from .datasets import check_split_fractions, generate_cluster_dataset, load_csv, split_dataset
from .engine import TrainConfig, smooth_runs, train
from .errors import ConfigError, DataError
from .grid import _check_fields, _read_field, create_initial_map
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
    (fitted on each run's training split). Checked when built: a value of a
    wrong kind (text for a bool or a number, a float for ``runs``) is a ConfigError.
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
        _check_fields(self, skip=("config",))  # a TrainConfig checked itself
        if not isinstance(self.config, TrainConfig):
            raise ConfigError(f"config must be a TrainConfig, got {type(self.config).__name__}")
        if not self.dataset:
            raise ConfigError("experiment needs a dataset path or generator id")
        if not self.output_dir:
            raise ConfigError("experiment needs an output_dir")
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
    return _read_field(ExperimentSpec.__dataclass_fields__["label_column"], raw)


def read_config_file(path) -> dict:
    """Parse a flat key = value file (# starts a comment) into a dict of
    strings. A file that cannot be read or decoded raises ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
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
    unknown = [key for key in values if key not in fields]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    return {key: _read_field(fields[key], raw) for key, raw in values.items()}


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


@dataclass
class _Paired:
    """One paired run between its stages (trained, smoothed, finished): its
    splits, resolved config, both maps and each phase's epoch count, which
    its ``progress`` hooks raise before showing each report to the
    experiment's epoch hook."""

    train_data: Dataset
    test_data: Dataset
    cfg: TrainConfig
    amsom_map: MapState
    som_map: MapState
    epoch_hook: object = None
    epochs: dict = field(default_factory=lambda: {"train": 0, "smooth": 0, "baseline": 0})

    def progress(self, phase: str):
        map_state = self.som_map if phase == "baseline" else self.amsom_map

        def count(report):
            self.epochs[phase] += 1
            if self.epoch_hook is not None:
                self.epoch_hook(map_state, report, phase)

        return count


def _train_paired(train_data, test_data, config, sizing, epoch_hook) -> _Paired:
    """Stage 1: the initial map, its baseline copy, and the adaptive training."""
    amsom_map, cfg = create_initial_map(train_data, config, sizing=sizing)
    paired = _Paired(train_data, test_data, cfg, amsom_map, amsom_map.copy(), epoch_hook)
    train(train_data, amsom_map, cfg, progress=paired.progress("train"))
    return paired


def _smooth_paired(group: list) -> None:
    """Stage 2: one lockstep smoothing of every run of ``group``."""
    smooth_runs([(p.train_data, p.amsom_map, p.cfg, p.progress("smooth")) for p in group])


def _finish_paired(paired: _Paired) -> tuple[TrainConfig, dict]:
    """Stage 3: the baseline and the metrics of both maps."""
    train_batch_som(
        paired.train_data, paired.som_map, paired.cfg, progress=paired.progress("baseline")
    )

    def fit(map_state, train_epochs, smooth_epochs):
        on_train = quality_report(paired.train_data, map_state)
        on_test = quality_report(paired.test_data, map_state)
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

    epochs = paired.epochs
    return paired.cfg, {
        "amsom": fit(paired.amsom_map, epochs["train"], epochs["smooth"]),
        "som": fit(paired.som_map, epochs["baseline"], 0),
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


# Budget of a group of runs that run_experiment stages together: a group
# closes once its summed training rows * d, or its summed squared map sizes,
# reach STAGE_BUDGET entries, so the staged maps and the lockstep smoothing
# arrays stay bounded however many runs an experiment has.
STAGE_BUDGET = 1 << 20


def run_experiment(spec: ExperimentSpec, epoch_hook=None) -> dict:
    """Execute all runs of an experiment and write the output files.

    Each run derives its own seeds from (config.seed, run index), re-shuffles
    the split, and trains the adaptive map and the baseline from the same
    initial map on the same training split. Outputs under spec.output_dir:
    run_XX_amsom.json / run_XX_som.json snapshots, runs.csv, summary.csv and
    summary.txt. Two invocations with the same spec produce identical bytes.

    Runs are staged in groups of at most ``STAGE_BUDGET`` (see there): each
    group's runs are split, initialised and trained run by run, then
    smoothed together by one ``smooth_runs`` call, then given their baseline,
    metrics and snapshots run by run, in run order. The outputs do not
    depend on the grouping. ``epoch_hook(map_state, report, phase)`` thus
    sees a group's train epochs run by run, then its smoothing epochs
    interleaved epoch by epoch (runs in order within an epoch), then each
    run's baseline epochs.

    A failing run aborts the experiment: the runs before it (both snapshots
    written) are aggregated as usual, summary.txt names the failed run after
    a FAILED marker, and the error is re-raised.
    """
    full = load_dataset(spec.dataset, spec.label_column, seed=spec.config.seed)
    out = Path(spec.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {out}: {exc}") from exc
    fractions = (spec.train_frac, spec.test_frac, spec.val_frac)

    def start(run):
        split_seed, model_seed = _derived_seeds(spec.config.seed, run)
        train_data, test_data, _ = split_dataset(full, fractions, split_seed)
        sizing = full
        if spec.normalize:
            train_data, test_data, sizing = _minmax_scaled(
                train_data, [train_data, test_data, full]
            )
        run_cfg = replace(spec.config, seed=model_seed)
        return _train_paired(train_data, test_data, run_cfg, sizing, epoch_hook)

    records: list = []
    error = None
    try:
        done = 0
        while done < spec.runs and error is None:
            group, rows, squares = [], 0, 0
            try:
                while done + len(group) < spec.runs and max(rows, squares) < STAGE_BUDGET:
                    paired = start(done + len(group))
                    group.append(paired)
                    rows += paired.train_data.n * paired.train_data.d
                    squares += paired.amsom_map.m ** 2
            except Exception as exc:
                error = exc
            try:
                _smooth_paired(group)
            except Exception as exc:
                # the runs before the failing one are smoothed; it comes first
                group, error = group[: getattr(exc, "run", 0)], exc
            for paired in group:
                cfg, fits = _finish_paired(paired)
                for algorithm, (map_state, labels, record) in fits.items():
                    export_snapshot_json(
                        map_state,
                        out / f"run_{done:02d}_{algorithm}.json",
                        labels=labels,
                        config=dataclasses.asdict(cfg),
                        metrics={k: v for k, v in record.items() if k != "dead_fraction_train"},
                    )
                records += [{"algorithm": a, "run": done, **rec} for a, (_, _, rec) in fits.items()]
                done += 1
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
