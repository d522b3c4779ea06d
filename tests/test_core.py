import tracemalloc

import numpy as np
import pytest

from amsom import core
from amsom.core import (
    Assignment,
    Dataset,
    MapState,
    _exact_rows,
    assign_all,
    mean_quantization_error,
    per_neuron_quantization,
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


def _same_as_exact(asg, patterns, weights):
    winner, second, dist = _exact_rows(patterns, weights)
    return (
        np.array_equal(asg.winner, winner)
        and np.array_equal(asg.second, second)
        and asg.dist.tobytes() == dist.tobytes()
    )


def _spy_exact_rows(monkeypatch):
    """Route assign_all's brute-force fallback through a row counter."""
    seen = []

    def spy(patterns, weights):
        seen.append(patterns.shape[0])
        return _exact_rows(patterns, weights)

    monkeypatch.setattr(core, "_exact_rows", spy)
    return seen


def test_assign_all_near_ties_far_from_the_origin(monkeypatch):
    # Centres c in [2**19, 2**20) keep c +- 0.5 exact, so a pattern at c is
    # exactly equidistant from two neurons while their GEMM scores, rounded
    # near 1e12, rank them either way. Moving the pattern k ulps breaks the
    # tie by a few ulps, far below the score error.
    rng = np.random.default_rng(4)
    e = np.eye(3)
    k = np.arange(-3, 4)
    seen = _spy_exact_rows(monkeypatch)
    for _ in range(12):
        c = rng.uniform(6e5, 1e6, size=3)
        ulp = np.spacing(c[0])

        # a two-way tie, clear of every other neuron: the exact recompute of
        # the shortlist decides it, and an exact tie goes to the lower index
        weights = c + np.vstack([10 * e[1], -0.5 * e[0], 0.5 * e[0], 5 * e[2]])
        patterns = c + np.outer(k * ulp, e[0])
        asg = assign_all(Dataset(patterns), make_map(weights))
        assert _same_as_exact(asg, patterns, weights)
        assert np.array_equal(asg.winner, np.where(k > 0, 2, 1))
        assert np.array_equal(asg.second, np.where(k > 0, 1, 2))
        assert np.all(asg.dist[k == 0] == 0.25)
        assert seen == []

        # four neurons within ulps of each other: the scores cannot rank them
        weights = c + np.vstack([-0.5 * e[0], 0.5 * e[0], 0.5 * e[1], -0.5 * e[1], 7 * e[2]])
        shift = rng.integers(-3, 4, size=(10, 2)) * ulp
        patterns = c + np.column_stack([shift, np.zeros(10)])
        asg = assign_all(Dataset(patterns), make_map(weights))
        assert _same_as_exact(asg, patterns, weights)
        assert seen == [10]
        seen.clear()


def test_assign_all_duplicated_neurons_take_the_fallback(monkeypatch):
    # three copies of neuron 0 tie on their score, so the third-best score is
    # never clear of the second and those rows are searched by brute force;
    # the last pattern, far from the copies, is decided by its scores
    rng = np.random.default_rng(8)
    copy = [1.0, 2.0, 3.0]
    weights = np.array([copy, [100.0, 0, 0], copy, [101.0, 0, 0], [100.0, 2.0, 0], copy])
    patterns = np.vstack([weights[0] + rng.normal(size=(7, 3)) * 0.01, weights[1]])
    seen = _spy_exact_rows(monkeypatch)
    asg = assign_all(Dataset(patterns), make_map(weights))
    assert seen == [7]
    assert _same_as_exact(asg, patterns, weights)
    assert np.array_equal(asg.winner, [0] * 7 + [1])
    assert np.array_equal(asg.second[:7], [2] * 7)


@pytest.mark.parametrize("chunk", [1, 21])
def test_assign_all_across_chunk_boundaries(monkeypatch, chunk):
    # m = 7: chunks of 1 or 3 rows, and n = 16 leaves a last chunk of one row
    rng = np.random.default_rng(12)
    patterns = rng.normal(size=(16, 3))
    weights = rng.normal(size=(7, 3))
    weights[4] = weights[1]
    winner, second, dist = _exact_rows(patterns, weights)
    monkeypatch.setattr(core, "CHUNK", chunk)
    asg = assign_all(Dataset(patterns), make_map(weights))
    assert np.array_equal(asg.winner, winner)
    assert np.array_equal(asg.second, second)
    assert asg.dist.tobytes() == dist.tobytes()


def test_assign_all_equals_brute_force_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        m=st.integers(1, 30),
        d=st.integers(1, 6),
        log_scale=st.floats(-3, 3),
        offset=st.sampled_from([0.0, 1.0, -250.0, 1e4, 1e6]),
        duplicates=st.integers(0, 5),
        rounded=st.booleans(),
    )
    def check(seed, n, m, d, log_scale, offset, duplicates, rounded):
        rng = np.random.default_rng(seed)
        patterns = rng.normal(size=(n, d)) * 10.0**log_scale + offset
        weights = rng.normal(size=(m, d)) * 10.0**log_scale + offset
        weights[rng.integers(0, m, size=duplicates)] = weights[rng.integers(0, m)]
        if rounded:
            patterns, weights = np.round(patterns), np.round(weights)
        asg = assign_all(Dataset(patterns), make_map(weights))
        assert _same_as_exact(asg, patterns, weights)

    check()


def test_assign_all_memory_is_bounded_by_the_chunk():
    # the brute-force search would need an n*m*d temporary of 1.8 GB here
    rng = np.random.default_rng(2)
    data = Dataset(rng.normal(size=(20000, 16)))
    ms = make_map(rng.normal(size=(707, 16)))
    tracemalloc.start()
    try:
        assign_all(data, ms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_assign_all_dimension_mismatch():
    with pytest.raises(DataError):
        assign_all(Dataset([[1.0, 2.0]]), make_map([[0.0], [1.0]]))


def test_assignment_wins_and_winner_means():
    # neurons 1 and 3 win nothing; 3 is past the largest winner index, so
    # only the map size makes wins cover it
    data = Dataset([[0.0, 0.0], [2.0, 0.0], [4.0, 4.0]])
    asg = Assignment(
        winner=np.array([0, 0, 2]), second=np.array([1, 1, 1]), dist=np.zeros(3), m=4
    )
    assert asg.wins.dtype == np.int64
    assert np.array_equal(asg.wins, [2, 0, 1, 0])
    means = winner_means(data, asg)
    assert means.shape == (4, 2)
    assert np.allclose(means[0], [1.0, 0.0])
    assert np.allclose(means[1], [0.0, 0.0])  # empty neurons get zero rows
    assert np.allclose(means[2], [4.0, 4.0])
    assert np.allclose(means[3], [0.0, 0.0])


def test_assign_all_counts_wins_against_its_map():
    ms = make_map([[0.0], [1.0], [2.0], [10.0], [11.0]])
    asg = assign_all(Dataset([[0.1], [0.2], [1.9]]), ms)
    assert asg.m == ms.m
    assert np.array_equal(asg.wins, [2, 0, 1, 0, 0])


def test_per_neuron_quantization_uses_nan_for_empty():
    asg = Assignment(
        winner=np.array([0, 0, 1]),
        second=np.array([1, 1, 0]),
        dist=np.array([4.0, 16.0, 9.0]),
        m=3,
    )
    pnqe = per_neuron_quantization(asg)
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
