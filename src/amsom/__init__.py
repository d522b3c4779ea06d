"""Self-organizing maps with an adaptive structure.

Neurons move in the output plane during training, connections age and are
pruned, poorly fitting neurons split and isolated ones die. A classic batch
SOM on a fixed lattice is included as the baseline, together with quality
metrics, a benchmark protocol and snapshot/SVG export.
"""

from .baseline import train_batch_som
from .bench import ExperimentSpec, run_experiment
from .core import Assignment, Dataset, MapState, assign_all
from .datasets import generate_cluster_dataset, load_csv, split_dataset
from .engine import EpochReport, TrainConfig, smooth, train
from .errors import AmsomError, ConfigError, DataError, MapStructureError, TrainingError
from .grid import (
    HEXAGONAL,
    RECTANGULAR,
    LatticeSpec,
    build_lattice,
    create_initial_map,
    growing_threshold,
    init_weights,
    side_lengths,
    target_neuron_count,
)
from .metrics import (
    QualityReport,
    dead_units,
    label_neurons,
    quality_report,
    topographic_error,
)
from .snapshot import export_snapshot_json, load_snapshot, render_svg

__version__ = "0.1.0"

__all__ = [
    "AmsomError",
    "Assignment",
    "ConfigError",
    "DataError",
    "Dataset",
    "EpochReport",
    "ExperimentSpec",
    "HEXAGONAL",
    "LatticeSpec",
    "MapState",
    "MapStructureError",
    "QualityReport",
    "RECTANGULAR",
    "TrainConfig",
    "TrainingError",
    "assign_all",
    "build_lattice",
    "create_initial_map",
    "dead_units",
    "export_snapshot_json",
    "generate_cluster_dataset",
    "growing_threshold",
    "init_weights",
    "label_neurons",
    "load_csv",
    "load_snapshot",
    "quality_report",
    "render_svg",
    "run_experiment",
    "side_lengths",
    "smooth",
    "split_dataset",
    "target_neuron_count",
    "topographic_error",
    "train",
    "train_batch_som",
]
