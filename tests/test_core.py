import numpy as np
import pytest

from amsom.core import (
    Assignment,
    Dataset,
    MapState,
    assign_all,
    mean_quantization_error,
    per_neuron_quantization,
    win_histogram,
    winner_means,
)
from amsom.errors import DataError, MapStructureError

from conftest import make_map


def test_dataset_shapes_and_accessors():
    data = Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], labels=[0, 1, 0])
    assert data.n == 3
    assert data.d == 2
    assert data.patterns.dtype == np.float64
    assert data.labels.dtype == np.int64


def test_dataset_rejects_bad_input():
    with pytest.raises(DataError):
        Dataset([1.0, 2.0, 3.0])  # 1-D
    with pytest.raises(DataError):
        Dataset(np.empty((0, 3)))
    with pytest.raises(DataError):
        Dataset(np.empty((3, 0)))
    with pytest.raises(DataError):
        Dataset([[1.0, np.nan]])
    with pytest.raises(DataError):
        Dataset([[1.0], [2.0]], labels=[0])  # wrong label length


def test_dataset_subset_keeps_rows_and_labels():
    data = Dataset(np.arange(10.0).reshape(5, 2), labels=[4, 3, 2, 1, 0])
    sub = data.subset([3, 0])
    assert np.array_equal(sub.patterns, [[6.0, 7.0], [0.0, 1.0]])
    assert np.array_equal(sub.labels, [1, 4])
    sub.patterns[0, 0] = 99.0
    assert data.patterns[3, 0] == 6.0  # subset owns its memory


def test_assign_all_matches_per_pattern_search():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        m = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        data = Dataset(rng.normal(size=(n, d)))
        ms = make_map(rng.normal(size=(m, d)))
        asg = assign_all(data, ms)
        for k in range(n):
            dists = [float((data.patterns[k] - w) @ (data.patterns[k] - w)) for w in ms.weights]
            order = sorted(range(m), key=lambda i: (dists[i], i))
            assert asg.winner[k] == order[0]
            assert asg.second[k] == order[1]
            assert asg.dist[k] == pytest.approx(dists[order[0]], abs=1e-12)


def test_assign_all_ties_go_to_lowest_index():
    # neurons 0 and 2 are exact duplicates of the pattern
    ms = make_map([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    asg = assign_all(Dataset([[1.0, 1.0]]), ms)
    assert (asg.winner[0], asg.second[0]) == (0, 2)
    assert asg.dist[0] == 0.0


def test_assign_all_single_neuron_map():
    data = Dataset([[0.0], [2.0]])
    ms = make_map([[1.0]], positions=[[0.0, 0.0]])
    asg = assign_all(data, ms)
    assert np.array_equal(asg.winner, [0, 0])
    assert np.array_equal(asg.second, [-1, -1])
    assert np.allclose(asg.dist, [1.0, 1.0])


def test_assign_all_dimension_mismatch():
    with pytest.raises(DataError):
        assign_all(Dataset([[1.0, 2.0]]), make_map([[0.0], [1.0]]))


def test_win_histogram_and_winner_means():
    data = Dataset([[0.0, 0.0], [2.0, 0.0], [4.0, 4.0]])
    asg = Assignment(
        winner=np.array([0, 0, 2]), second=np.array([1, 1, 1]), dist=np.zeros(3)
    )
    assert np.array_equal(win_histogram(asg, 4), [2, 0, 1, 0])
    means = winner_means(data, asg, 4)
    assert np.allclose(means[0], [1.0, 0.0])
    assert np.allclose(means[1], [0.0, 0.0])  # empty neurons get zero rows
    assert np.allclose(means[2], [4.0, 4.0])
    assert np.allclose(means[3], [0.0, 0.0])


def test_per_neuron_quantization_uses_nan_for_empty():
    asg = Assignment(
        winner=np.array([0, 0, 1]),
        second=np.array([1, 1, 0]),
        dist=np.array([4.0, 16.0, 9.0]),
    )
    pnqe = per_neuron_quantization(asg, 3)
    assert pnqe[0] == pytest.approx(3.0)  # mean of sqrt(4), sqrt(16)
    assert pnqe[1] == pytest.approx(3.0)
    assert np.isnan(pnqe[2])
    assert mean_quantization_error(asg) == pytest.approx((2.0 + 4.0 + 3.0) / 3.0)


def test_map_state_copy_is_independent():
    ms = make_map([[1.0], [2.0]], edges=[(0, 1, 5)], win_count=[3, 4])
    dup = ms.copy()
    dup.weights[0] = 9.0
    dup.ages[0, 1] = 77
    dup.win_count[0] = 0
    assert ms.weights[0, 0] == 1.0
    assert ms.ages[0, 1] == 5
    assert ms.win_count[0] == 3


def test_delete_neurons_compacts_every_array():
    ms = make_map(
        [[0.0], [1.0], [2.0], [3.0]],
        edges=[(0, 1, 2), (1, 2, 3), (2, 3, 4)],
        win_count=[10, 11, 12, 13],
    )
    ms.delete_neurons([1])
    assert ms.m == 3
    assert np.array_equal(ms.weights[:, 0], [0.0, 2.0, 3.0])
    assert np.array_equal(ms.win_count, [10, 12, 13])
    # old edge (2,3) is now (1,2); edges through the deleted neuron are gone
    assert ms.edges[1, 2] and ms.ages[1, 2] == 4
    assert not ms.edges[0, 1]
    ms.delete_neurons([])  # no-op
    assert ms.m == 3


def test_degrees():
    ms = make_map([[0.0], [1.0], [2.0]], edges=[(0, 1), (1, 2)])
    assert np.array_equal(ms.degrees(), [1, 2, 1])


def _good_map():
    return make_map([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], edges=[(0, 1, 3), (1, 2)])


def test_validate_accepts_a_consistent_map():
    _good_map().validate(q_max=4, allow_isolated=False)


def test_validate_catches_each_violation():
    ms = _good_map()
    ms.edges[0, 1] = False  # asymmetric
    with pytest.raises(MapStructureError):
        ms.validate()

    ms = _good_map()
    ms.edges[1, 1] = True
    with pytest.raises(MapStructureError):
        ms.validate()

    ms = _good_map()
    ms.ages[0, 2] = ms.ages[2, 0] = 7  # age on a missing edge
    with pytest.raises(MapStructureError):
        ms.validate()

    ms = _good_map()
    ms.ages[0, 1] = -1
    with pytest.raises(MapStructureError):
        ms.validate()

    ms = _good_map()
    ms.weights[0, 0] = np.inf
    with pytest.raises(MapStructureError):
        ms.validate()

    ms = _good_map()
    ms.win_count[2] = -5
    with pytest.raises(MapStructureError):
        ms.validate()

    ms = _good_map()
    ms.edges = ms.edges.astype(np.int64)
    with pytest.raises(MapStructureError):
        ms.validate()


def test_validate_degree_and_isolation_options():
    ms = _good_map()
    ms.validate(q_max=2)
    with pytest.raises(MapStructureError):
        ms.validate(q_max=1)  # neuron 1 has degree 2

    lonely = make_map([[0.0], [1.0], [2.0]], edges=[(0, 1)])
    lonely.validate()  # isolated neuron 2 allowed by default
    with pytest.raises(MapStructureError):
        lonely.validate(allow_isolated=False)
