"""Map quality measures: quantization error, topographic error, dead units,
majority-vote neuron labels.

The measures take one ``Assignment`` of a dataset to a map, so a report
assigns the dataset once and derives every measure from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Assignment,
    Dataset,
    MapState,
    assign_all,
    mean_quantization_error,
    win_histogram,
)
from .errors import DataError, MapStructureError


@dataclass
class QualityReport:
    """Bundle of the standard measures for one map on one dataset."""

    qe: float
    te: float
    dead_unit_count: int
    dead_unit_fraction: float
    neuron_labels: list | None = None


def topographic_error(asg: Assignment, map_state: MapState) -> float:
    """Fraction of patterns whose winner and runner-up are not connected."""
    if map_state.m < 2:
        raise MapStructureError("topographic error needs at least 2 neurons")
    connected = map_state.edges[asg.winner, asg.second]
    return float(np.mean(~connected))


def dead_units(asg: Assignment, m: int) -> tuple[int, float]:
    """Count and fraction of the ``m`` neurons that win no pattern."""
    count = int(np.sum(win_histogram(asg, m) == 0))
    return count, count / m


def label_neurons(asg: Assignment, labels, m: int) -> list:
    """Majority-vote class label per neuron, from the patterns' ``labels``.

    Ties go to the lowest class id; neurons winning no pattern get None.
    """
    if labels is None:
        raise DataError("label_neurons needs a labeled dataset")
    if np.any(labels < 0):
        raise DataError("class ids must be non-negative")
    n_classes = int(labels.max()) + 1
    out: list = []
    for i in range(m):
        won = labels[asg.winner == i]
        if won.size == 0:
            out.append(None)
        else:
            counts = np.bincount(won, minlength=n_classes)
            out.append(int(np.argmax(counts)))
    return out


def quality_report(data: Dataset, map_state: MapState) -> QualityReport:
    """Compute all measures at once (labels only when the data has them)."""
    asg = assign_all(data, map_state)
    count, fraction = dead_units(asg, map_state.m)
    return QualityReport(
        qe=mean_quantization_error(asg),
        te=topographic_error(asg, map_state),
        dead_unit_count=count,
        dead_unit_fraction=fraction,
        neuron_labels=None if data.labels is None else label_neurons(asg, data.labels, map_state.m),
    )
