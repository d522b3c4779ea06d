import numpy as np
import pytest

import amsom.metrics
from amsom.core import Dataset, _mean_root, assign_all
from amsom.errors import DataError, MapStructureError
from amsom.metrics import dead_units, label_neurons, quality_report, topographic_error

from conftest import make_map


def test_quantization_error_matches_a_plain_loop():
    rng = np.random.default_rng(51)
    data = Dataset(rng.normal(size=(30, 3)))
    ms = make_map(rng.normal(size=(5, 3)))
    got = _mean_root(assign_all(data, ms).dist)
    total = 0.0
    for p in data.patterns:
        total += min(np.linalg.norm(p - w) for w in ms.weights)
    assert got == pytest.approx(total / 30, abs=1e-12)


def test_topographic_error_zero_when_fully_connected():
    rng = np.random.default_rng(52)
    data = Dataset(rng.normal(size=(20, 2)))
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    ms = make_map(rng.normal(size=(4, 2)), edges=edges)
    assert topographic_error(assign_all(data, ms), ms) == 0.0


def test_topographic_error_zero_when_winners_stay_adjacent():
    # prototypes on a 2x2 lattice, patterns nudged toward a lattice neighbor
    ms = make_map(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        positions=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        edges=[(0, 1), (0, 2), (1, 3), (2, 3)],
    )
    data = Dataset([[0.1, 0.0], [0.9, 0.0], [0.0, 0.9], [1.0, 0.9]])
    assert topographic_error(assign_all(data, ms), ms) == 0.0


def test_topographic_error_counts_disconnected_winner_pairs():
    # two connected pairs with a gap between them; one of the two patterns
    # picks its top two from different components
    ms = make_map(
        [[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0]],
        edges=[(0, 1), (2, 3)],
    )
    data = Dataset([[0.1, 0.0], [2.9, 0.0]])
    asg = assign_all(data, ms)
    assert (asg.winner[1], asg.second[1]) == (1, 2)  # bridges the gap
    assert topographic_error(asg, ms) == pytest.approx(0.5)  # 1 of N=2


def test_topographic_error_needs_two_neurons():
    data = Dataset([[0.0]])
    one = make_map([[0.0]], positions=[[0.0, 0.0]])
    with pytest.raises(MapStructureError):
        topographic_error(assign_all(data, one), one)


def test_dead_units():
    ms = make_map([[0.0], [1.0], [10.0]])
    data = Dataset([[0.1], [0.9], [1.1]])
    count, fraction = dead_units(assign_all(data, ms))
    assert count == 1
    assert fraction == pytest.approx(1.0 / 3.0)


def test_label_neurons_majority_vote():
    ms = make_map([[0.0], [1.0], [5.0]])
    data = Dataset([[0.0], [0.1], [0.9], [1.0], [1.1]], labels=[0, 0, 1, 1, 2])
    assert label_neurons(assign_all(data, ms), data.labels) == [0, 1, None]


def test_label_neurons_tie_goes_to_the_lowest_class():
    ms = make_map([[0.0], [9.0]])
    data = Dataset([[0.0], [0.1]], labels=[1, 0])
    assert label_neurons(assign_all(data, ms), data.labels) == [0, None]


def test_label_neurons_matches_a_per_neuron_vote():
    # sparse class ids, empty neurons and ties, against a vote per neuron
    rng = np.random.default_rng(54)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        ms = make_map(rng.normal(size=(m, 2)))
        data = Dataset(rng.normal(size=(40, 2)), labels=rng.choice([0, 3, 4, 1000], size=40))
        asg = assign_all(data, ms)
        expected = []
        for i in range(m):
            won = data.labels[asg.winner == i]
            expected.append(int(np.argmax(np.bincount(won))) if won.size else None)
        assert label_neurons(asg, data.labels) == expected


def test_label_neurons_requires_usable_labels():
    ms = make_map([[0.0], [1.0]])
    asg = assign_all(Dataset([[0.0]]), ms)
    with pytest.raises(DataError):
        label_neurons(asg, None)
    with pytest.raises(DataError):
        label_neurons(asg, Dataset([[0.0]], labels=[-1]).labels)


def test_quality_report_bundles_the_measures(monkeypatch):
    rng = np.random.default_rng(53)
    data = Dataset(rng.normal(size=(25, 2)), labels=rng.integers(0, 3, size=25))
    ms = make_map(rng.normal(size=(4, 2)), edges=[(0, 1), (1, 2), (2, 3)])
    seen = []

    def counting_assign_all(*args):
        seen.append(assign_all(*args))
        return seen[-1]

    monkeypatch.setattr(amsom.metrics, "assign_all", counting_assign_all)
    report = quality_report(data, ms)
    assert len(seen) == 1
    asg = seen[0]
    assert report.qe == _mean_root(asg.dist)
    assert report.te == topographic_error(asg, ms)
    assert (report.dead_unit_count, report.dead_unit_fraction) == dead_units(asg)
    assert report.neuron_labels == label_neurons(asg, data.labels)

    plain = quality_report(Dataset(data.patterns), ms)
    assert plain.neuron_labels is None
    assert len(seen) == 2
