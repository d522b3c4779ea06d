"""Map quality measures: quantization error, topographic error, dead units,
majority-vote neuron labels.

The measures take one ``Assignment`` of a dataset to a map, so a report
assigns the dataset once and derives every measure from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Assignment, Dataset, MapState, _mean_root, assign_all
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


def dead_units(asg: Assignment) -> tuple[int, float]:
    """Count and fraction of the map's neurons that win no pattern."""
    count = int(np.sum(asg.wins == 0))
    return count, count / asg.m


def label_neurons(asg: Assignment, labels) -> list:
    """Majority-vote class label per neuron, from the patterns' ``labels``.

    Ties go to the lowest class id; neurons winning no pattern get None.
    """
    if labels is None:
        raise DataError("label_neurons needs a labeled dataset")
    if np.any(labels < 0):
        raise DataError("class ids must be non-negative")
    # one vote table, neurons x the class ids present; a sparse id costs no rows
    classes, code = np.unique(labels, return_inverse=True)
    k = classes.size
    votes = np.bincount(asg.winner * k + code, minlength=asg.m * k).reshape(asg.m, k)
    best = classes[np.argmax(votes, axis=1)]
    return [int(c) if won else None for c, won in zip(best, asg.wins)]


def quality_report(data: Dataset, map_state: MapState) -> QualityReport:
    """Compute all measures at once (labels only when the data has them)."""
    asg = assign_all(data, map_state)
    count, fraction = dead_units(asg)
    return QualityReport(
        qe=_mean_root(asg.dist),
        te=topographic_error(asg, map_state),
        dead_unit_count=count,
        dead_unit_fraction=fraction,
        neuron_labels=None if data.labels is None else label_neurons(asg, data.labels),
    )
