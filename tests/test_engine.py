import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from amsom import baseline, engine
from amsom.baseline import train_batch_som
from amsom.core import (
    Assignment,
    Dataset,
    PrunedSearch,
    _mean_root,
    assign_all,
    winner_means,
)
from amsom.engine import (
    TrainConfig,
    _apply_epoch_edges,
    _cell_width_sigma,
    _input_kernel,
    _pairwise_sq,
    _Run,
    _run_epochs,
    _sigma_at,
    batch_weight_update,
    enforce_degree,
    maybe_add_neuron,
    position_update,
    prune_edges_and_neurons,
    smooth,
    smooth_runs,
    train,
)
from amsom.errors import ConfigError, DataError, MapStructureError, TrainingError
from amsom.grid import (
    HEXAGONAL,
    RECTANGULAR,
    LatticeSpec,
    build_lattice,
    create_initial_map,
    init_weights,
)

from conftest import (
    assert_same_map,
    make_map,
    neighborhood_input,
    neighborhood_output,
    process_pattern_edges,
    reference_prune,
    reference_remove_isolated,
)


# ---------------------------------------------------------------- kernels


def test_output_kernel_hits_1_over_e_at_sigma():
    for sigma in (0.5, 1.0, 7.5):
        val = neighborhood_output([0.0, 0.0], [sigma, 0.0], sigma)
        assert abs(val - math.exp(-1.0)) < 1e-12
    # |r_j - r_i| = 5 via a 3-4-5 triangle
    assert abs(neighborhood_output([3.0, 4.0], [0.0, 0.0], 5.0) - math.exp(-1.0)) < 1e-12
    assert neighborhood_output([2.0, 2.0], [2.0, 2.0], 0.7) == 1.0


def test_input_kernel_hits_1_over_e_at_definitional_distance():
    # |w_j - w_i|^2 = gamma * sigma^2
    cases = [(1.0, 4.0), (0.5, 4.0), (2.0, 9.0)]
    for sigma, gamma in cases:
        gap = math.sqrt(gamma) * sigma
        val = neighborhood_input([gap, 0.0, 0.0], [0.0, 0.0, 0.0], sigma, gamma)
        assert abs(val - math.exp(-1.0)) < 1e-12
    assert neighborhood_input([1.0], [1.0], 2.0, 4.0) == 1.0


def test_kernels_decrease_with_distance():
    vals = [neighborhood_output([x, 0.0], [0.0, 0.0], 1.5) for x in (0.0, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# The formulas the kernels reproduce bit for bit: one m x m x d difference
# array summed by einsum, and the two update steps as first written on it.


def _einsum_pairwise_sq(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _einsum_batch_weight_update(ms, asg, data, sigma, sq_dist=None):
    n = asg.wins.astype(np.float64)
    xbar = winner_means(data, asg)
    if sq_dist is None:
        sq_dist = _einsum_pairwise_sq(ms.positions)
    k = n[:, None] * np.exp(-sq_dist / (sigma * sigma))
    den = k.sum(axis=0)
    num = k.T @ xbar
    new_w = ms.weights.copy()
    ok = den > 0.0
    new_w[ok] = num[ok] / den[ok, None]
    return new_w


def _einsum_position_update(ms, asg, sigma, alpha, gamma):
    n = asg.wins.astype(np.float64)
    k = n[:, None] * np.exp(-_einsum_pairwise_sq(ms.weights) / (gamma * sigma * sigma))
    np.fill_diagonal(k, 0.0)
    den = k.sum(axis=0)
    num = k.T @ ms.positions - den[:, None] * ms.positions
    new_r = ms.positions.copy()
    ok = den > 0.0
    new_r[ok] += alpha * num[ok] / den[ok, None]
    return new_r


def _points(rng, m, d, scale, offset, duplicates, zeros):
    points = rng.normal(size=(m, d)) * scale + offset * scale
    points[rng.integers(0, m, size=duplicates)] = points[rng.integers(0, m)]
    points[rng.integers(0, m, size=zeros)] = 0.0
    return points


def test_pairwise_sq_equals_one_einsum_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    default = engine.KERNEL_CHUNK

    # a chunk of None keeps the default, under which up to m = 45 rows fit
    # in one block at d = 16 and larger maps take several; small chunks
    # force one row or a few per block
    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 70),
        d=st.sampled_from([1, 2, 3, 4, 5, 8, 16, 17]),
        log_scale=st.floats(-310, 150),
        offset=st.sampled_from([0.0, 1.0, -250.0, 1e4]),
        duplicates=st.integers(0, 5),
        zeros=st.integers(0, 3),
        chunk=st.sampled_from([None, 1, 5, 64, 700]),
    )
    # the points [[1.00001257e154, 9.99986790e153], [0, 0]]: both squares of
    # the two-column path are finite, and their sum overflows to inf, as in
    # the einsum, with no overflow warning
    @hypothesis.example(
        seed=0, m=2, d=2, log_scale=150.0, offset=1e4, duplicates=0, zeros=1, chunk=None
    )
    def check(seed, m, d, log_scale, offset, duplicates, zeros, chunk):
        rng = np.random.default_rng(seed)
        points = _points(rng, m, d, 10.0**log_scale, offset, duplicates, zeros)
        monkeypatch.setattr(engine, "KERNEL_CHUNK", chunk or default)
        got = _pairwise_sq(points)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == _einsum_pairwise_sq(points).tobytes()

    check()


def test_kernel_updates_equal_the_einsum_formulas_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    default = engine.KERNEL_CHUNK

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        m=st.integers(1, 50),
        d=st.sampled_from([1, 2, 3, 4, 16]),
        log_scale=st.floats(-3, 3),
        duplicates=st.integers(0, 5),
        zeros=st.integers(0, 3),
        sigma=st.floats(0.05, 20.0),
        gamma=st.floats(0.5, 10.0),
        chunk=st.sampled_from([None, 3, 200]),
    )
    def check(seed, n, m, d, log_scale, duplicates, zeros, sigma, gamma, chunk):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        weights = _points(rng, m, d, scale, 0.0, duplicates, zeros)
        positions = _points(rng, m, 2, 1.0 + m**0.5, 0.0, duplicates, zeros)
        ms = make_map(weights, positions=positions)
        data = Dataset(rng.normal(size=(n, d)) * scale)
        asg = assign_all(data, ms)
        monkeypatch.setattr(engine, "KERNEL_CHUNK", chunk or default)

        want = _einsum_batch_weight_update(ms, asg, data, sigma)
        assert batch_weight_update(ms, asg, data, sigma).tobytes() == want.tobytes()
        # the baseline hands in the distances of a lattice that never moves;
        # they must come back untouched for the next epoch
        sq_dist = _einsum_pairwise_sq(positions)
        kept = sq_dist.copy()
        got = batch_weight_update(ms, asg, data, sigma, sq_dist=sq_dist)
        assert got.tobytes() == want.tobytes()
        assert sq_dist.tobytes() == kept.tobytes()

        want = _einsum_position_update(ms, asg, sigma, 0.01, gamma)
        assert position_update(ms, asg, sigma, 0.01, gamma).tobytes() == want.tobytes()

    check()


def test_kernel_memory_is_bounded_by_the_chunk():
    # one m x m x d difference array would be 170 MB here; each m x m
    # array is 10 MB
    rng = np.random.default_rng(3)
    m, d = 1118, 16
    ms = make_map(rng.normal(size=(m, d)), positions=rng.normal(size=(m, 2)) * 10.0)
    data = Dataset(rng.normal(size=(3000, d)))
    asg = assign_all(data, ms)

    def peak_of(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_of(lambda: position_update(ms, asg, 2.0, 0.01, 4.0)) < 32e6
    assert peak_of(lambda: batch_weight_update(ms, asg, data, 2.0)) < 32e6


# ------------------------------------------------------- batch weight update


def test_batch_weight_update_matches_scalar_reference():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m, n, d = 5, 18, 3
        ms = make_map(rng.normal(size=(m, d)), positions=rng.normal(size=(m, 2)))
        data = Dataset(rng.normal(size=(n, d)))
        asg = assign_all(data, ms)
        sigma = float(rng.uniform(0.3, 3.0))
        got = batch_weight_update(ms, asg, data, sigma)

        counts = np.array([(asg.winner == j).sum() for j in range(m)], dtype=float)
        means = np.array(
            [
                data.patterns[asg.winner == j].mean(axis=0)
                if counts[j] > 0
                else np.zeros(d)
                for j in range(m)
            ]
        )
        for i in range(m):
            num = np.zeros(d)
            den = 0.0
            for j in range(m):
                h = neighborhood_output(ms.positions[j], ms.positions[i], sigma)
                num += counts[j] * h * means[j]
                den += counts[j] * h
            expect = num / den if den > 0 else ms.weights[i]
            assert np.max(np.abs(got[i] - expect)) < 1e-12


def test_batch_weight_update_single_neuron_gives_global_mean():
    rng = np.random.default_rng(23)
    data = Dataset(rng.normal(size=(31, 4)))
    ms = make_map(rng.normal(size=(1, 4)), positions=[[0.0, 0.0]])
    asg = assign_all(data, ms)
    new_w = batch_weight_update(ms, asg, data, 2.0)
    assert np.max(np.abs(new_w[0] - data.patterns.mean(axis=0))) < 1e-12


def test_batch_weight_update_keeps_unreachable_neurons():
    # neuron 1 wins nothing and sits so far away that the kernel underflows
    ms = make_map([[0.0], [50.0]], positions=[[0.0, 0.0], [100.0, 0.0]])
    data = Dataset([[0.1], [-0.1], [0.2]])
    asg = assign_all(data, ms)
    new_w = batch_weight_update(ms, asg, data, 1.0)
    assert new_w[1, 0] == 50.0
    assert abs(new_w[0, 0] - data.patterns.mean()) < 1e-12


def test_batch_weight_update_with_identity_mask_is_lloyd():
    # smoothing a map without edges masks the batch target with I: each
    # neuron steps toward the mean of the patterns it wins (Lloyd), and no
    # position moves
    rng = np.random.default_rng(29)
    ms = make_map(rng.normal(size=(4, 2)))
    data = Dataset(rng.normal(size=(20, 2)))
    asg = assign_all(data, ms)
    got, _ = smooth(data, ms.copy(), TrainConfig(alpha_smooth=0.5, smooth_max_epochs=1))
    for i in range(4):
        won = data.patterns[asg.winner == i]
        expect = won.mean(axis=0) if won.size else ms.weights[i]
        expect = ms.weights[i] + 0.5 * (expect - ms.weights[i])
        assert np.max(np.abs(got.weights[i] - expect)) < 1e-12
    assert np.array_equal(got.positions, ms.positions)


# ------------------------------------------------------------ position update


def test_position_update_two_neurons():
    # only neuron 0 wins, so neuron 0 stays put and neuron 1 moves toward it
    ms = make_map([[0.0], [0.5]], positions=[[0.0, 0.0], [3.0, 1.0]])
    data = Dataset([[0.1]])
    asg = assign_all(data, ms)
    new_r = position_update(ms, asg, sigma=1.0, alpha=0.25, gamma=4.0)
    assert np.array_equal(new_r[0], [0.0, 0.0])
    assert np.allclose(new_r[1], [3.0 + 0.25 * (0.0 - 3.0), 1.0 + 0.25 * (0.0 - 1.0)])


def test_position_update_matches_scalar_reference():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m, n, d = 5, 15, 2
        ms = make_map(rng.normal(size=(m, d)), positions=rng.normal(size=(m, 2)))
        data = Dataset(rng.normal(size=(n, d)))
        asg = assign_all(data, ms)
        sigma = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(0.01, 0.3))
        gamma = 4.0
        got = position_update(ms, asg, sigma, alpha, gamma)

        counts = np.array([(asg.winner == j).sum() for j in range(m)], dtype=float)
        for i in range(m):
            num = np.zeros(2)
            den = 0.0
            for j in range(m):
                if j == i:
                    continue
                delta = neighborhood_input(ms.weights[j], ms.weights[i], sigma, gamma)
                num += counts[j] * delta * (ms.positions[j] - ms.positions[i])
                den += counts[j] * delta
            expect = ms.positions[i] + (alpha * num / den if den > 0 else 0.0)
            assert np.max(np.abs(got[i] - expect)) < 1e-12


def test_position_update_masked_to_graph_neighbors():
    # the smoothing position step pulls only toward graph neighbors, under
    # the input kernel of the weights its own weight step just produced
    rng = np.random.default_rng(37)
    ms = make_map(
        rng.normal(size=(4, 2)),
        positions=rng.normal(size=(4, 2)),
        edges=[(0, 1), (1, 2), (2, 3)],
    )
    data = Dataset(rng.normal(size=(12, 2)))
    asg = assign_all(data, ms)
    mask = ms.edges | np.eye(4, dtype=bool)
    cfg = TrainConfig(alpha_smooth=0.1, smooth_max_epochs=1)
    sigma = _cell_width_sigma(ms, cfg)
    smoothed, _ = smooth(data, ms.copy(), cfg)
    got, w = smoothed.positions, smoothed.weights

    counts = np.array([(asg.winner == j).sum() for j in range(4)], dtype=float)
    for i in range(4):
        num = np.zeros(2)
        den = 0.0
        for j in range(4):
            if j == i or not mask[j, i]:
                continue
            delta = neighborhood_input(w[j], w[i], sigma, 4.0)
            num += counts[j] * delta * (ms.positions[j] - ms.positions[i])
            den += counts[j] * delta
        expect = ms.positions[i] + (0.1 * num / den if den > 0 else 0.0)
        assert np.max(np.abs(got[i] - expect)) < 1e-12


def _output_kernel(positions, sigma):
    return np.exp(-_pairwise_sq(positions) / (sigma * sigma))


def _dense_smooth_epoch(ms, data, cfg):
    """One smoothing epoch by the dense masked formula: both m x m kernels
    times edges | I, the position step without its self term and against
    the weights the weight step produced. Returns (weights, positions)."""
    asg = assign_all(data, ms)
    sigma = _cell_width_sigma(ms, cfg)
    mask = ms.edges | np.eye(ms.m, dtype=bool)
    n = asg.wins.astype(np.float64)

    k = n[:, None] * _output_kernel(ms.positions, sigma) * mask
    den = k.sum(axis=0)
    ok = den > 0.0
    target = ms.weights.copy()
    target[ok] = (k.T @ winner_means(data, asg))[ok] / den[ok, None]
    w = ms.weights + cfg.alpha_smooth * (target - ms.weights)

    k = n[:, None] * _input_kernel(w, sigma, cfg.gamma) * mask
    np.fill_diagonal(k, 0.0)
    den = k.sum(axis=0)
    ok = den > 0.0
    num = k.T @ ms.positions - den[:, None] * ms.positions
    r = ms.positions.copy()
    r[ok] += cfg.alpha_smooth * num[ok] / den[ok, None]
    return w, r


def _check_smooth_epoch_against_dense(ms, data):
    """The edge-list epoch of ``smooth`` sums in another order than the dense
    formula, so the two agree to rtol 1e-12, with an absolute floor of 1e-12
    times the largest input magnitude for coordinates that cancel to ~0."""
    cfg = TrainConfig(alpha_smooth=0.5, smooth_max_epochs=1)
    want_w, want_r = _dense_smooth_epoch(ms, data, cfg)
    got, _ = smooth(data, ms.copy(), cfg)
    scale = max(np.abs(data.patterns).max(), np.abs(ms.weights).max(), np.abs(ms.positions).max())
    np.testing.assert_allclose(got.weights, want_w, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(got.positions, want_r, rtol=1e-12, atol=1e-12 * scale)
    return got


def test_smooth_epoch_matches_the_dense_masked_formula_edge_cases():
    # neurons 2 and 3 win nothing; neuron 3 sits so far away in both spaces
    # that every kernel entry it takes part in underflows to zero, so both
    # its denominators are zero and it keeps its weight and position
    ms = make_map(
        [[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [100.0, 100.0]],
        positions=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [500.0, 0.0]],
        edges=[(0, 1), (1, 2), (2, 3)],
    )
    rng = np.random.default_rng(41)
    data = Dataset(rng.normal(0.5, 0.3, size=(15, 2)))
    assert list(assign_all(data, ms).wins[2:]) == [0, 0]
    got = _check_smooth_epoch_against_dense(ms, data)
    assert np.array_equal(got.weights[3], ms.weights[3])
    assert np.array_equal(got.positions[3], ms.positions[3])
    assert not np.array_equal(got.weights[2], ms.weights[2])

    # m = 2, with and without its edge
    two = make_map(rng.normal(size=(2, 3)), positions=[[0.0, 0.0], [0.7, 0.2]], edges=[(0, 1)])
    data = Dataset(rng.normal(size=(9, 3)))
    _check_smooth_epoch_against_dense(two, data)
    two.edges[:] = False
    got = _check_smooth_epoch_against_dense(two, data)
    assert np.array_equal(got.positions, two.positions)


def test_smooth_epoch_matches_the_dense_masked_formula_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # integer positions give sigma = sigma_final = 1 and weights and patterns
    # in [-2, 2] keep every kernel entry far from underflow, where the two
    # summation orders could part by more than rounding
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 15),
        d=st.integers(2, 4),
        n=st.integers(1, 40),
        density=st.floats(0.0, 1.0),
    )
    def check(seed, m, d, n, density):
        rng = np.random.default_rng(seed)
        edges = np.triu(rng.random((m, m)) < density, 1)
        ms = make_map(
            rng.uniform(-2.0, 2.0, size=(m, d)),
            positions=rng.integers(0, 5, size=(m, 2)),
        )
        ms.edges = edges | edges.T
        data = Dataset(rng.uniform(-2.0, 2.0, size=(n, d)))
        _check_smooth_epoch_against_dense(ms, data)

    check()


def _edge_step(pairs, wins, points, width2, toward, state, rate):
    """Move each target row of ``state`` by ``rate`` times the mean of
    toward[s] - state[t] over its (t, s) ``pairs``, weighted by wins[s] *
    exp(-|points[s] - points[t]|^2 / width2), summed in pair order. Targets
    whose weights sum to zero keep their row. Returns the new array."""
    t, s = pairs
    gap = points[s] - points[t]
    k = wins[s] * np.exp(-np.einsum("ed,ed->e", gap, gap) / width2)
    pull = toward[s] - state[t]
    den = np.bincount(t, weights=k, minlength=len(state))
    num = np.column_stack([np.bincount(t, weights=k * p, minlength=len(state)) for p in pull.T])
    ok = den > 0.0
    new = state.copy()
    new[ok] += rate * (num[ok] / den[ok, None])
    return new


def _smooth_by_the_epoch_formula(data, ms, cfg):
    """``smooth`` with nothing carried between epochs but the winner search:
    pairs gathered, win counts and winner means computed afresh every epoch.
    Returns (map, reports, the winner vector each epoch started from)."""
    with_self = np.nonzero(ms.edges | np.eye(ms.m, dtype=bool))
    pairs = np.nonzero(ms.edges)
    sigma = _cell_width_sigma(ms, cfg)
    search = PrunedSearch(data, [(data.n, ms.m)])
    starts = []
    asg = assign_all(data, ms)

    def step(epoch, live):
        nonlocal asg
        starts.append(asg.winner)
        n = asg.wins.astype(np.float64)
        w, r = ms.weights, ms.positions
        ms.weights = _edge_step(
            with_self, n, r, sigma * sigma, winner_means(data, asg), w, cfg.alpha_smooth
        )
        width2 = cfg.gamma * sigma * sigma
        ms.positions = _edge_step(pairs, n, ms.weights, width2, r, r, cfg.alpha_smooth)
        asg = search.assign(ms.weights)
        return [(asg.dist, [])]

    (reports,) = _run_epochs([(cfg.smooth_max_epochs, cfg.eps2, None)], step)
    return ms, reports, starts


def _winner_changes(starts):
    return sum(not np.array_equal(a, b) for a, b in zip(starts, starts[1:]))


def _check_smooth_against_the_epoch_formula(data, ms, cfg):
    """Bit for bit: weights, positions and every report's error. Returns the
    winner vector each epoch started from."""
    want, want_reports, starts = _smooth_by_the_epoch_formula(data, ms.copy(), cfg)
    got, reports = smooth(data, ms.copy(), cfg)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.positions, want.positions)
    assert [r.mqe for r in reports] == [r.mqe for r in want_reports]
    return starts


def _iris_smoothing_case(iris):
    # at alpha_smooth 0.01 the winners of this map change in about one
    # epoch out of six, so the run both reuses and refreshes its statistics
    ms, cfg = create_initial_map(iris, TrainConfig(seed=3, max_epochs=10, sigma_decay_epochs=8))
    train(iris, ms, cfg)
    return ms, replace(cfg, alpha_smooth=0.01, smooth_max_epochs=60)


def test_smooth_matches_the_epoch_formula_over_many_epochs(iris):
    ms, cfg = _iris_smoothing_case(iris)
    starts = _check_smooth_against_the_epoch_formula(iris, ms, cfg)
    assert len(starts) == 60
    assert _winner_changes(starts) >= 3


def test_smooth_matches_the_epoch_formula_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 10),
        d=st.integers(2, 4),
        n=st.integers(1, 30),
        density=st.floats(0.0, 1.0),
        alpha=st.floats(0.01, 0.9),
    )
    @hypothesis.example(seed=1, m=5, d=2, n=20, density=0.0, alpha=0.3)
    @hypothesis.example(seed=2, m=2, d=3, n=12, density=1.0, alpha=0.3)
    def check(seed, m, d, n, density, alpha):
        rng = np.random.default_rng(seed)
        edges = np.triu(rng.random((m, m)) < density, 1)
        ms = make_map(rng.normal(size=(m, d)), positions=rng.normal(size=(m, 2)))
        ms.edges = edges | edges.T
        data = Dataset(rng.normal(size=(n, d)))
        cfg = TrainConfig(alpha_smooth=alpha, smooth_max_epochs=50)
        _check_smooth_against_the_epoch_formula(data, ms, cfg)

    check()


def test_smooth_recomputes_winner_means_only_when_the_winners_change(iris, monkeypatch):
    ms, cfg = _iris_smoothing_case(iris)
    _, _, starts = _smooth_by_the_epoch_formula(iris, ms.copy(), cfg)
    calls = []

    def counted(data, asg):
        calls.append(asg.winner)
        return winner_means(data, asg)

    monkeypatch.setattr(engine, "winner_means", counted)
    smooth(iris, ms.copy(), cfg)
    assert len(calls) == 1 + _winner_changes(starts) < len(starts)


# ------------------------------------------------------------- lockstep smoothing


def _random_smoothing_run(seed, n, m, *, dead=False, **config):
    """A map of m neurons with random weights, positions and edges over n
    patterns in the same region as every other such run's. With ``dead``,
    one more neuron sits far from the data with no edges: it wins nothing,
    so both of its kernel sums are zero."""
    rng = np.random.default_rng(seed)
    d = 3
    edges = np.triu(rng.random((m, m)) < 0.4, 1)
    weights, positions = rng.normal(size=(m, d)), rng.normal(size=(m, 2))
    if dead:
        weights = np.vstack([weights, np.full((1, d), 100.0)])
        positions = np.vstack([positions, [[5.0, 5.0]]])
        edges = np.pad(edges, ((0, 1), (0, 1)))
    ms = make_map(weights, positions=positions)
    ms.edges = edges | edges.T
    cfg = TrainConfig(**{"alpha_smooth": 0.2, "smooth_max_epochs": 30, **config})
    return Dataset(rng.normal(size=(n, d))), ms, cfg


def _smooth_separately_and_in_lockstep(runs):
    """Bit for bit: every run's reports (epoch, error, events), its final
    weights and positions, whether smoothed alone or in lockstep. Returns the
    lockstep maps and the (run, epoch) order in which the hooks saw them."""
    alone = [smooth(data, ms.copy(), cfg) for data, ms, cfg in runs]
    seen = []

    def hook(i):
        return lambda report: seen.append((i, report.epoch))

    maps = [ms.copy() for _, ms, _ in runs]
    together = smooth_runs(
        [(data, ms, cfg, hook(i)) for i, ((data, _, cfg), ms) in enumerate(zip(runs, maps))]
    )
    assert len(together) == len(runs)
    for (want, want_reports), got, reports in zip(alone, maps, together):
        assert [(r.epoch, r.mqe, r.events) for r in reports] == [
            (r.epoch, r.mqe, r.events) for r in want_reports
        ]
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.positions.tobytes() == want.positions.tobytes()
    # each run's last error is that of its final map
    for (data, _, _), got, reports in zip(runs, maps, together):
        assert reports[-1].mqe == _mean_root(assign_all(data, got).dist)
    # epoch by epoch, the runs in order within an epoch
    assert seen == sorted(seen, key=lambda pair: (pair[1], pair[0]))
    assert sorted(seen) == [(i, r.epoch) for i, (_, rs) in enumerate(alone) for r in rs]
    return maps, alone


@pytest.mark.parametrize("count", [1, 2, 5])
def test_smooth_runs_matches_separate_smooth_calls(count):
    # runs of different n and m, rates, widths and caps; the second stops
    # on eps2 after two epochs, the last has a dead neuron
    shapes = [(40, 9), (25, 6), (60, 14), (12, 3), (33, 11)][:count]
    runs = []
    for i, (n, m) in enumerate(shapes):
        config = {
            "alpha_smooth": (0.2, 0.05, 0.3, 0.2, 0.1)[i],
            "gamma": (4.0, 4.0, 2.0, 4.0, 4.0)[i],
            "smooth_max_epochs": (30, 30, 45, 20, 25)[i],
        }
        if i == 1:
            config.update(eps1=0.9, eps2=0.5)
        runs.append(_random_smoothing_run(10 + i, n, m, dead=i == count - 1, **config))
    maps, alone = _smooth_separately_and_in_lockstep(runs)
    epochs = [len(reports) for _, reports in alone]
    if count > 1:
        assert epochs[1] == 2 and max(epochs) > 2
    # the dead neuron kept its weight and position
    assert np.array_equal(maps[-1].weights[-1], runs[-1][1].weights[-1])
    assert np.array_equal(maps[-1].positions[-1], runs[-1][1].positions[-1])


def test_smooth_runs_leaves_each_map_its_own_arrays():
    # runs that stop at different epochs: none holds on to a batch array,
    # neither one that left early nor one that was live at the end
    runs = [_random_smoothing_run(30 + i, 25, 7, smooth_max_epochs=cap)
            for i, cap in enumerate((3, 8, 15))]
    maps, alone = _smooth_separately_and_in_lockstep(runs)
    assert [len(reports) for _, reports in alone] == [3, 8, 15]
    for ms in maps:
        assert ms.weights.base is None and ms.positions.base is None


def test_smooth_runs_matches_separate_smooth_calls_on_trained_maps(iris):
    # five trained iris maps, as a protocol smooths them, with three caps
    runs = []
    for seed, cap in zip(range(5), (40, 25, 40, 60, 25)):
        cfg = TrainConfig(seed=seed, max_epochs=12, sigma_decay_epochs=8)
        ms, cfg = create_initial_map(iris, cfg)
        train(iris, ms, cfg)
        runs.append((iris, ms, replace(cfg, alpha_smooth=0.01, smooth_max_epochs=cap)))
    _smooth_separately_and_in_lockstep(runs)


def test_smooth_runs_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(st.tuples(st.integers(1, 40), st.integers(2, 12)), min_size=1, max_size=4),
        caps=st.lists(st.integers(1, 20), min_size=4, max_size=4),
        alpha=st.floats(0.01, 0.9),
    )
    def check(seed, shapes, caps, alpha):
        runs = [
            _random_smoothing_run(seed + i, n, m, alpha_smooth=alpha, smooth_max_epochs=cap)
            for i, ((n, m), cap) in enumerate(zip(shapes, caps))
        ]
        _smooth_separately_and_in_lockstep(runs)

    check()


def test_smooth_runs_failure_stops_that_run_and_the_later_ones():
    runs = [_random_smoothing_run(20 + i, 30, 8) for i in range(3)]
    runs[1][1].weights[0, 0] = np.nan  # a non-finite error at epoch 1
    want, want_reports = smooth(runs[0][0], runs[0][1].copy(), runs[0][2])
    with pytest.raises(TrainingError, match="non-finite mqe at epoch 1") as alone:
        smooth(runs[1][0], runs[1][1].copy(), runs[1][2])
    assert alone.value.run == 0
    maps = [ms.copy() for _, ms, _ in runs]
    seen = []
    with pytest.raises(TrainingError, match="non-finite mqe at epoch 1") as caught:
        smooth_runs(
            [(data, ms, cfg, lambda report, i=i: seen.append(i))
             for i, ((data, _, cfg), ms) in enumerate(zip(runs, maps))]
        )
    assert caught.value.run == 1
    # the run before it finished as it does alone; none after it reported
    assert maps[0].weights.tobytes() == want.weights.tobytes()
    assert seen == [0] * len(want_reports)
    # every map has its own arrays again, the failing run's and later ones too
    assert all(ms.weights.base is None and ms.positions.base is None for ms in maps)

    # a hook that raises stops its run the same way
    def failing(report):
        raise ValueError("hook")

    runs[1][1].weights[0, 0] = 0.0
    maps = [ms.copy() for _, ms, _ in runs]
    with pytest.raises(ValueError, match="hook") as caught:
        smooth_runs([(runs[0][0], maps[0], runs[0][2], None),
                     (runs[1][0], maps[1], runs[1][2], failing),
                     (runs[2][0], maps[2], runs[2][2], None)])
    assert caught.value.run == 1
    assert maps[0].weights.tobytes() == want.weights.tobytes()


def test_smooth_runs_reports_the_first_run_to_the_progress_smooth_was_given(monkeypatch):
    # a wrapper of smooth that swaps its progress for its own hook (as a span
    # profiler does) sees the first run's epochs, and that hook still calls
    # the run's own
    runs = [_random_smoothing_run(30 + i, 30, 8) for i in range(2)]
    smooth_alone, counted = engine.smooth, []

    def wrapped(data, map_state, config, progress=None, **kwargs):
        def counting(report):
            counted.append(report.epoch)
            progress(report)

        return smooth_alone(data, map_state, config, counting, **kwargs)

    monkeypatch.setattr(engine, "smooth", wrapped)
    own = [[], []]
    reports = smooth_runs(
        [(data, ms, cfg, own[i].append) for i, (data, ms, cfg) in enumerate(runs)]
    )
    assert counted == [r.epoch for r in reports[0]]
    assert own[0] == reports[0] and own[1] == reports[1]


def test_smooth_runs_input_checks(iris):
    assert smooth_runs([]) == []
    data, ms, cfg = _random_smoothing_run(1, 10, 4)
    with pytest.raises(MapStructureError):
        smooth_runs([(data, ms, cfg, None), (data, make_map([[0.0, 0.0, 0.0]]), cfg, None)])
    other = Dataset(np.zeros((5, 2)))
    with pytest.raises(DataError, match="one input dimension"):
        smooth_runs([(data, ms, cfg, None), (other, make_map(np.eye(2)), cfg, None)])


# ------------------------------------------------------------- edge bookkeeping


def _four_neuron_graph():
    # encoded connectivity: edges (0,1) age 2, (0,2) age 4, (1,3) age 0, (2,3) age 1
    return make_map(
        np.zeros((4, 2)),
        edges=[(0, 1, 2), (0, 2, 4), (1, 3, 0), (2, 3, 1)],
    )


def test_edge_refresh_ages_neighbors_then_resets_the_pair():
    ms = _four_neuron_graph()
    process_pattern_edges(ms, 0, 1)
    assert ms.win_count[0] == 1
    assert ms.ages[0, 1] == 0  # refreshed pair drops back to zero
    assert ms.ages[0, 2] == 5  # the winner's other edge aged by one
    assert ms.ages[1, 3] == 0
    assert ms.ages[2, 3] == 1  # untouched: neuron 2 did not win
    assert ms.edges[0, 1] and ms.edges[0, 2]
    ms.validate()


def test_edge_refresh_connects_an_unconnected_pair_at_age_zero():
    ms = _four_neuron_graph()
    assert not ms.edges[0, 3]
    process_pattern_edges(ms, 0, 3)
    assert ms.edges[0, 3] and ms.edges[3, 0]
    assert ms.ages[0, 3] == 0
    assert ms.ages[0, 1] == 3 and ms.ages[0, 2] == 5
    ms.validate()


def test_edge_refresh_repeated_pair_stays_at_zero():
    ms = _four_neuron_graph()
    process_pattern_edges(ms, 1, 3)
    process_pattern_edges(ms, 1, 3)
    assert ms.ages[1, 3] == 0
    assert ms.win_count[1] == 2
    assert ms.ages[0, 1] == 4  # aged once per win of neuron 1


def test_edge_refresh_rejects_equal_winner_and_second():
    ms = _four_neuron_graph()
    with pytest.raises(MapStructureError):
        process_pattern_edges(ms, 2, 2)


def test_epoch_edge_batch_matches_sequential_presentation():
    # the vectorized epoch update must be bit-identical to presenting the
    # patterns one at a time, from a graph that already has aged edges; half
    # the epochs draw from a few pairs, so most pairs refresh many times
    rng = np.random.default_rng(11)
    repeats = 0
    for trial in range(80):
        m = int(rng.integers(3, 30))
        upper = np.triu(rng.random((m, m)) < 0.4, 1)
        ages_u = np.triu(rng.integers(0, 20, size=(m, m)), 1) * upper
        base = make_map(rng.normal(size=(m, 2)))
        base.edges = upper | upper.T
        base.ages = (ages_u + ages_u.T).astype(np.int64)
        base.win_count = rng.integers(0, 5, size=m)

        n_pat = int(rng.integers(1, 300))
        winners = rng.integers(0, m, size=n_pat)
        seconds = (winners + 1 + rng.integers(0, m - 1, size=n_pat)) % m
        if trial % 2:
            pick = rng.integers(0, int(rng.integers(1, 6)), size=n_pat)
            winners, seconds = winners[pick], seconds[pick]
            flip = rng.random(n_pat) < 0.5  # the same pair in either order
            winners, seconds = np.where(flip, seconds, winners), np.where(flip, winners, seconds)
        assert np.all(winners != seconds)
        pairs = np.unique(np.minimum(winners, seconds) * m + np.maximum(winners, seconds))
        repeats += n_pat - pairs.size

        seq = base.copy()
        for w, s in zip(winners, seconds):
            process_pattern_edges(seq, int(w), int(s))
        bat = base.copy()
        _apply_epoch_edges(bat, Assignment(winners, seconds, np.zeros(n_pat), m))

        assert_same_map(seq, bat)
    assert repeats > 1000


def test_epoch_edge_batch_matches_sequential_presentation_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def epochs(draw):
        m = draw(st.integers(2, 12))
        pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
        aged = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(0, 40)), max_size=2 * m))
        # few distinct pairs, so the same pair is often refreshed again
        pool = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6))
        shown = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
        wins = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
        return m, aged, shown, wins

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(epochs())
    def check(epoch):
        m, aged, shown, wins = epoch
        base = make_map(np.zeros((m, 2)), edges=[(i, j, age) for (i, j), age in aged],
                        win_count=wins)
        winners = np.array([w for w, _ in shown])
        seconds = np.array([s for _, s in shown])
        seq = base.copy()
        for w, s in shown:
            process_pattern_edges(seq, w, s)
        bat = base.copy()
        _apply_epoch_edges(bat, Assignment(winners, seconds, np.zeros(len(shown)), m))
        assert_same_map(seq, bat)

    check()


# ----------------------------------------------------------- pruning


def test_prune_cuts_aged_edges_and_drops_the_isolated_neuron():
    ms = make_map(
        np.zeros((4, 2)),
        edges=[(0, 1, 30), (0, 2, 3), (1, 2, 4), (2, 3, 35)],
    )
    events = list(prune_edges_and_neurons(ms, age_max=30))
    assert [e["kind"] for e in events] == [
        "edge_aged_out",
        "edge_aged_out",
        "neuron_removed",
    ]
    assert events[0]["edge"] == (0, 1) and events[0]["age"] == 30
    assert events[1]["edge"] == (2, 3) and events[1]["age"] == 35
    assert events[2]["neuron"] == 3
    assert ms.m == 3
    assert ms.edges[0, 2] and ms.edges[1, 2] and not ms.edges[0, 1]
    assert ms.ages[0, 2] == 3 and ms.ages[1, 2] == 4
    ms.validate()


def test_prune_below_cutoff_changes_nothing():
    ms = make_map(np.zeros((4, 2)), edges=[(0, 1, 29), (1, 2, 0), (2, 3, 12)])
    before = ms.copy()
    assert list(prune_edges_and_neurons(ms, age_max=30)) == []
    assert np.array_equal(ms.edges, before.edges)
    assert np.array_equal(ms.ages, before.ages)
    assert ms.m == 4


def test_prune_never_shrinks_below_two_neurons():
    # every edge ages out, so no neuron would be left: the step raises
    # before it cuts an edge or drops a neuron, and the map stays as it was
    ms = make_map(np.zeros((3, 2)), edges=[(0, 1, 40), (1, 2, 50)])
    before = ms.copy()
    with pytest.raises(MapStructureError):
        prune_edges_and_neurons(ms, age_max=30)
    assert ms.m == 3
    assert_same_map(ms, before)
    # the degree cap on a map with no edges raises the same way
    ms = make_map(np.zeros((3, 2)))
    with pytest.raises(MapStructureError):
        enforce_degree(ms, q=4)
    assert ms.m == 3


# ----------------------------------------------------------- cell division


def _splittable_map():
    ms = make_map(
        [[2.0, -1.0], [0.5, 0.5], [1.0, 3.0], [4.0, 0.0], [6.0, 6.0]],
        positions=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]],
        edges=[(0, 1, 4), (0, 2, 9), (0, 3, 2), (3, 4, 7)],
        win_count=[9, 8, 7, 6, 5],
    )
    return ms


def test_split_divides_worst_neuron_and_shares_its_edges():
    ms = _splittable_map()
    w_u = ms.weights[0].copy()
    pnqe = np.array([2.0, 1.0, 1.5, 0.5, 0.1])
    events = maybe_add_neuron(
        ms, pnqe, gt=0.96, epochs_since_add=30, t_add=30,
        rng=np.random.default_rng(0), beta_mode="zero",
    )
    assert list(events) == [
        {"kind": "neuron_split", "parent": 0, "neighbor": 2, "new_neuron": 5, "beta": 0.0}
    ]
    assert ms.m == 6
    # with beta 0 the parent keeps its weights, the twin gets the zero vector
    assert np.array_equal(ms.weights[0], w_u)
    assert np.array_equal(ms.weights[5], np.zeros(2))
    # parent keeps its place, the twin sits halfway toward the worst neighbor
    assert np.array_equal(ms.positions[0], [0.0, 0.0])
    assert np.array_equal(ms.positions[5], [0.0, 0.5])
    # both offspring share the original neighborhood plus a mutual edge
    assert set(np.flatnonzero(ms.edges[0])) == {1, 2, 3, 5}
    assert set(np.flatnonzero(ms.edges[5])) == {0, 1, 2, 3}
    # every incident age restarts; an uninvolved edge keeps its age
    assert np.all(ms.ages[0] == 0) and np.all(ms.ages[5] == 0)
    assert ms.ages[3, 4] == 7
    # both offspring restart their win counts
    assert np.array_equal(ms.win_count, [0, 8, 7, 6, 5, 0])
    ms.validate()


def test_split_spreads_weights_with_clamped_gaussian_beta():
    betas = []
    for seed in range(40):
        ms = make_map([[3.0, -2.0], [0.0, 0.0]], edges=[(0, 1)])
        w_u = ms.weights[0].copy()
        events = list(maybe_add_neuron(
            ms, np.array([2.0, 0.5]), gt=0.9, epochs_since_add=30, t_add=30,
            rng=np.random.default_rng(seed),
        ))
        beta = events[0]["beta"]
        betas.append(beta)
        assert -0.5 <= beta <= 0.5
        assert np.allclose(ms.weights[0], (1.0 + beta) * w_u, atol=1e-12)
        assert np.allclose(ms.weights[2], -beta * w_u, atol=1e-12)
    assert min(betas) < -0.05 and max(betas) > 0.05  # actually random


def test_split_gating():
    rng = np.random.default_rng(0)
    pnqe = np.array([2.0, 1.0, 1.5, 0.5, 0.1])

    ms = _splittable_map()
    assert list(maybe_add_neuron(ms, pnqe, 0.96, 29, 30, rng)) == []  # too soon
    assert ms.m == 5

    ms = _splittable_map()
    assert list(maybe_add_neuron(ms, np.full(5, np.nan), 0.96, 30, 30, rng)) == []

    ms = _splittable_map()
    assert list(maybe_add_neuron(ms, pnqe, 2.5, 30, 30, rng)) == []  # nobody over gt

    # error exactly at the threshold does not split
    ms = _splittable_map()
    assert list(maybe_add_neuron(ms, np.array([1.0, 0.2, 0.2, 0.2, 0.2]), 1.0, 30, 30, rng)) == []

    # worst neuron without any edges cannot divide
    ms = make_map(np.zeros((3, 2)), edges=[(1, 2)])
    assert list(maybe_add_neuron(ms, np.array([5.0, 0.1, 0.1]), 0.9, 30, 30, rng)) == []


def test_split_ties_resolve_to_lowest_index():
    ms = make_map(np.zeros((4, 2)), edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
    events = list(maybe_add_neuron(
        ms, np.array([1.5, 0.7, 0.7, 1.5]), 0.9, 30, 30,
        np.random.default_rng(0), beta_mode="zero",
    ))
    assert events[0]["parent"] == 0  # ties on the largest error
    assert events[0]["neighbor"] == 1  # ties among the parent's neighbors


# ----------------------------------------------------------- degree cap


def _enforce_degree_every_neuron(map_state, q):
    """The degree cap as a loop over every neuron in index order: the
    reference that ``enforce_degree`` must match event for event."""
    events = []
    for i in range(map_state.m):
        nbrs = np.flatnonzero(map_state.edges[i])
        if nbrs.size <= q:
            continue
        order = np.lexsort((nbrs, map_state.ages[i, nbrs]))
        drop = nbrs[order[q:]]
        for j in drop:
            a, b = (i, int(j)) if i < j else (int(j), i)
            events.append({"kind": "edge_trimmed", "edge": (a, b), "neuron": i})
        map_state.edges[i, drop] = False
        map_state.edges[drop, i] = False
        map_state.ages[i, drop] = 0
        map_state.ages[drop, i] = 0
    events += reference_remove_isolated(map_state, map_state.degrees())
    return events


def _prune_with_an_edge_loop(map_state, age_max):
    """Aged-out edges cut with one event built per edge in a Python loop:
    the reference that ``prune_edges_and_neurons`` must match event for
    event."""
    events = []
    aged = map_state.edges & (map_state.ages >= age_max)
    for a, b in np.argwhere(np.triu(aged, 1)):
        events.append(
            {"kind": "edge_aged_out", "edge": (int(a), int(b)), "age": int(map_state.ages[a, b])}
        )
    map_state.edges[aged] = False
    map_state.ages[aged] = 0
    events += reference_remove_isolated(map_state, map_state.degrees())
    return events


def test_degree_cap_drops_only_the_oldest_edge():
    ms = make_map(
        np.zeros((6, 2)),
        edges=[(0, 1, 2), (0, 2, 0), (0, 3, 1), (0, 4, 3), (0, 5, 9), (1, 2, 0), (4, 5, 1)],
    )
    events = enforce_degree(ms, q=4)
    assert list(events) == [{"kind": "edge_trimmed", "edge": (0, 5), "neuron": 0}]
    assert set(np.flatnonzero(ms.edges[0])) == {1, 2, 3, 4}
    assert ms.ages[0, 5] == 0 and not ms.edges[0, 5]
    assert ms.edges[4, 5]  # the trimmed peer keeps its other edge
    assert ms.m == 6
    ms.validate(q_max=4)


def test_degree_cap_trims_down_to_the_q_youngest():
    ms = make_map(
        np.zeros((7, 2)),
        edges=[(0, 1, 0), (0, 2, 0), (0, 3, 1), (0, 4, 2), (0, 5, 3), (0, 6, 9), (5, 6, 1)],
    )
    events = enforce_degree(ms, q=4)
    assert [e["edge"] for e in events] == [(0, 5), (0, 6)]
    assert set(np.flatnonzero(ms.edges[0])) == {1, 2, 3, 4}
    ms.validate(q_max=4)


def test_degree_cap_age_ties_drop_the_higher_peer_index():
    ms = make_map(
        np.zeros((6, 2)),
        edges=[(0, 1, 7), (0, 2, 7), (0, 3, 7), (0, 4, 7), (0, 5, 7), (1, 5, 0)],
    )
    events = enforce_degree(ms, q=4)
    assert [e["edge"] for e in events] == [(0, 5)]
    assert set(np.flatnonzero(ms.edges[0])) == {1, 2, 3, 4}


def test_degree_cap_removes_peers_it_isolates():
    ms = make_map(
        np.zeros((6, 2)),
        edges=[(0, 1, 0), (0, 2, 0), (0, 3, 1), (0, 4, 2), (0, 5, 8), (1, 2, 0), (3, 4, 0)],
    )
    events = list(enforce_degree(ms, q=4))
    assert [e["kind"] for e in events] == ["edge_trimmed", "neuron_removed"]
    assert events[1]["neuron"] == 5
    assert ms.m == 5


def test_degree_cap_leaves_compliant_maps_alone():
    ms = build_lattice(LatticeSpec(3, 3))
    before = ms.copy()
    assert list(enforce_degree(ms, q=4)) == []
    assert np.array_equal(ms.edges, before.edges)


# ----------------------------------------------------------- sigma schedule


def test_cell_width_tracks_the_layout():
    cfg = TrainConfig()
    ms = build_lattice(LatticeSpec(4, 4))
    assert _cell_width_sigma(ms, cfg) == 1.0

    shrunk = ms.copy()
    shrunk.positions = shrunk.positions * 0.6
    assert _cell_width_sigma(shrunk, cfg) == pytest.approx(0.6, abs=1e-12)

    grown = ms.copy()
    grown.positions = grown.positions * 1.5
    assert _cell_width_sigma(grown, cfg) == 1.0  # capped at sigma_final

    assert _cell_width_sigma(ms, replace(cfg, sigma_final=0.8)) == pytest.approx(0.8)

    bare = make_map(np.zeros((3, 2)))
    assert _cell_width_sigma(bare, cfg) == cfg.sigma_final


def test_median_matches_numpy_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        values=st.lists(
            st.one_of(
                st.floats(0.0, 1e300, allow_nan=False),
                st.sampled_from([0.0, 0.1, 1.0, 1.5, np.inf, 5e-324, 1e300]),
            ),
            min_size=1,
            max_size=40,
        ),
        repeats=st.integers(1, 3),
    )
    def check(values, repeats):
        # repeated values make ties, and both parities of size come up
        values = np.array(values * repeats)
        assert engine._median(values).tobytes() == np.median(values).tobytes()

    check()


def test_schedule_is_exponential_until_positions_freeze():
    cfg = TrainConfig(sigma0=5.0, sigma_final=1.0, sigma_decay_epochs=20)
    ms = build_lattice(LatticeSpec(5, 5))
    run = _Run(cfg, ms, None)  # the schedule reads no assignment
    frozen_at = None
    sigmas = []
    for epoch in range(1, 31):
        sigma, alpha = run.schedule(epoch)
        sigmas.append(sigma)
        if frozen_at is None:
            expect = 5.0 * (1.0 / 5.0) ** (min(epoch, 20) / 20)
            assert sigma == pytest.approx(expect, abs=1e-12)
            assert sigma == pytest.approx(_sigma_at(cfg, 5.0, epoch), abs=1e-15)
            if alpha == 0.0:
                frozen_at = epoch
            else:
                # rate anneals linearly with sigma toward the freeze point
                assert alpha == pytest.approx(0.01 * (sigma - 2.0) / 3.0, abs=1e-15)
        else:
            assert alpha == 0.0
    assert frozen_at is not None and 2 < frozen_at < 20
    assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))
    # on a rigid unit lattice the retargeted tail still lands on sigma_final
    assert sigmas[-1] == pytest.approx(1.0, abs=1e-12)
    assert sigmas[20] == sigmas[25] == sigmas[29]  # held after the horizon


def test_schedule_tail_lands_on_the_contracted_cell_width():
    cfg = TrainConfig(sigma0=5.0, sigma_final=1.0, sigma_decay_epochs=20)
    ms = build_lattice(LatticeSpec(5, 5))
    ms.positions = ms.positions * 0.55
    run = _Run(cfg, ms, None)  # the schedule reads no assignment
    for epoch in range(1, 26):
        sigma, _ = run.schedule(epoch)
    assert sigma == pytest.approx(0.55, abs=1e-12)


@pytest.mark.parametrize("topology", [RECTANGULAR, HEXAGONAL])
def test_initial_map_sigma0_is_the_one_train_resolves(iris, topology):
    # create_initial_map and a run started with sigma0 unset agree on sigma0
    ms, cfg = create_initial_map(iris, TrainConfig(seed=2, topology=topology, max_epochs=3))
    resolved, _ = train(iris, ms.copy(), cfg)
    from_unset, _ = train(iris, ms.copy(), replace(cfg, sigma0=None))
    assert_same_map(resolved, from_unset)


def test_structural_steps_keep_the_invariants_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 30),
        density=st.floats(0.0, 1.0),
        topology=st.sampled_from([RECTANGULAR, HEXAGONAL]),
        q_max=st.sampled_from([None, 1, 2, 3]),
        age_max=st.integers(1, 12),
    )
    def check(seed, m, density, topology, q_max, age_max):
        rng = np.random.default_rng(seed)
        q = TrainConfig(topology=topology, q_max=q_max).effective_q
        edges = np.triu(rng.random((m, m)) < density, 1)
        edges |= edges.T
        ages = np.triu(rng.integers(0, 15, size=(m, m)), 1)
        ages = np.where(edges, ages + ages.T, 0)
        ms = make_map(rng.normal(size=(m, 3)), positions=rng.normal(size=(m, 2)))
        ms.edges, ms.ages = edges, ages
        ms.win_count = rng.integers(0, 9, size=m)
        ms.validate()

        def matches(step, reference, ms, *args):
            # the same events and map as the reference; where the reference
            # raises, the step raises too and leaves the map as it was
            expected, before = ms.copy(), ms.copy()
            try:
                want = reference(expected, *args)
            except MapStructureError:
                with pytest.raises(MapStructureError):
                    step(ms, *args)
                assert_same_map(ms, before)
                return None
            events = step(ms, *args)
            assert list(events) == want
            assert_same_map(ms, expected)
            return events

        # the degree cap brings any map under q; only a map with no edge,
        # whose every neuron would go, makes it raise
        if matches(enforce_degree, _enforce_degree_every_neuron, ms, q) is None:
            assert not ms.edges.any()
            return
        ms.validate(q_max=q)
        assert ms.m >= 2

        pruned = ms.copy()
        events = matches(prune_edges_and_neurons, _prune_with_an_edge_loop, pruned, age_max)
        if events is None:
            # only a map whose every edge ages out would lose every neuron
            assert not (ms.edges & (ms.ages < age_max)).any()
        else:
            aged_out = [e for e in events if e["kind"] == "edge_aged_out"]
            assert all(type(v) is int for e in aged_out for v in (*e["edge"], e["age"]))
            pruned.validate(q_max=q)
            assert pruned.m >= 2
            # exactly the aged edges go; removed neurons were isolated
            assert pruned.edges.sum() == (ms.edges & (ms.ages < age_max)).sum()
            assert not np.any(pruned.ages[pruned.edges] >= age_max)

        # a split adds one edge to the parent and each of its neighbors, so
        # it can lift a degree to q + 1; train caps the degree right after it
        pnqe = rng.uniform(0.0, 2.0, size=ms.m)
        pnqe[rng.random(ms.m) < 0.3] = np.nan
        m_before = ms.m
        maybe_add_neuron(ms, pnqe, 0.5, 30, 30, rng)
        ms.validate(q_max=q + 1)
        assert ms.m in (m_before, m_before + 1)
        assert matches(enforce_degree, _enforce_degree_every_neuron, ms, q) is not None
        ms.validate(q_max=q)
        assert ms.m >= 2

    check()


def _benchmark_sized_map(rng, m, age_max):
    """A map shaped like a trained mixture16 map: about 3.6 edges per
    neuron, mostly between neurons close on the layout, a few neurons with
    many more, a few isolated, and ages on both sides of ``age_max``."""
    side = int(np.ceil(np.sqrt(m)))
    positions = np.stack([np.arange(m) % side, np.arange(m) // side], axis=1).astype(float)
    ms = make_map(rng.normal(size=(m, 3)), positions=positions,
                  win_count=rng.integers(0, 30, size=m))
    near = np.clip(np.arange(m)[:, None] + rng.integers(-side - 1, side + 2, size=(m, 2)), 0, m - 1)
    hubs = rng.choice(m, size=m // 25, replace=False)
    a = np.concatenate([np.repeat(np.arange(m), 2), np.repeat(hubs, 5)])
    b = np.concatenate([near.ravel(), rng.integers(0, m, size=hubs.size * 5)])
    a, b = a[a != b], b[a != b]
    ms.edges[a, b] = ms.edges[b, a] = True
    lone = rng.choice(m, size=3, replace=False)
    ms.edges[lone] = ms.edges[:, lone] = False
    ages = np.triu(rng.integers(0, age_max + 5, size=(m, m)), 1)
    ms.ages = np.where(ms.edges, ages + ages.T, 0)
    ms.validate()
    return ms


def _benchmark_sized_epoch(rng, ms, n):
    """n winner/runner-up pairs: mostly two thirds of the map's edges, so
    the others age, and about 60 new pairs."""
    i, j = np.nonzero(np.triu(ms.edges, 1))
    hit = rng.choice(i.size, size=2 * i.size // 3, replace=False)
    pick = hit[rng.integers(0, hit.size, size=n)]
    winners, seconds = i[pick], j[pick]
    flip = rng.random(n) < 0.5
    winners, seconds = np.where(flip, seconds, winners), np.where(flip, winners, seconds)
    new = rng.choice(n, size=60, replace=False)
    winners[new] = rng.integers(0, ms.m, size=60)
    seconds[new] = (winners[new] + rng.integers(1, ms.m, size=60)) % ms.m
    return winners, seconds


@pytest.mark.parametrize("seed", range(4))
def test_structural_steps_match_their_loop_references_at_benchmark_size(seed):
    # one epoch's structural steps on a map of mixture16's size, each against
    # its loop reference: the edge refresh against the sequential
    # presentation, then the pruning, a split and the degree cap
    rng = np.random.default_rng(seed)
    age_max = 30
    ms = _benchmark_sized_map(rng, int(rng.integers(200, 261)), age_max)
    winners, seconds = _benchmark_sized_epoch(rng, ms, 2000)

    seq = ms.copy()
    for w, s in zip(winners.tolist(), seconds.tolist()):
        process_pattern_edges(seq, w, s)
    _apply_epoch_edges(ms, Assignment(winners, seconds, np.zeros(winners.size), ms.m))
    assert_same_map(ms, seq)

    expected = ms.copy()
    events = prune_edges_and_neurons(ms, age_max)
    assert list(events) == _prune_with_an_edge_loop(expected, age_max)
    assert_same_map(ms, expected)
    assert sum(e["kind"] == "edge_aged_out" for e in events) > 10
    assert any(e["kind"] == "neuron_removed" for e in events)

    pnqe = rng.uniform(0.0, 2.0, size=ms.m)
    assert maybe_add_neuron(ms, pnqe, 0.5, 30, 30, rng)
    for q in (6, 4):
        capped, expected = ms.copy(), ms.copy()
        heavy = set(np.flatnonzero(capped.degrees() > q).tolist())
        events = enforce_degree(capped, q)
        assert list(events) == _enforce_degree_every_neuron(expected, q)
        assert_same_map(capped, expected)
        assert len(heavy) >= 10
        if q == 4:
            # a heavy neuron that an earlier one trimmed ranks fewer peers:
            # the order of the neurons matters
            assert any(e["neuron"] < min(set(e["edge"]) - {e["neuron"]}) and
                       (set(e["edge"]) - {e["neuron"]}) <= heavy
                       for e in events if e["kind"] == "edge_trimmed")

    gone = np.sort(rng.choice(ms.m, size=7, replace=False))
    expected = ms.copy()
    ms.delete_neurons(gone)
    for name in ("weights", "positions", "win_count"):
        setattr(expected, name, np.delete(getattr(expected, name), gone, axis=0))
    for name in ("edges", "ages"):
        square = np.delete(np.delete(getattr(expected, name), gone, axis=0), gone, axis=1)
        setattr(expected, name, square)
    assert_same_map(ms, expected)


# ----------------------------------------------------------- whole phases


def _blob_data(rng, centers, per=15, sd=0.05):
    pats = np.vstack([rng.normal(c, sd, size=(per, 2)) for c in centers])
    return Dataset(pats)


def test_train_is_deterministic():
    rng = np.random.default_rng(8)
    data = Dataset(rng.normal(size=(60, 3)))
    outcomes = []
    for _ in range(2):
        ms, cfg = create_initial_map(
            data, TrainConfig(seed=5, max_epochs=80, sigma_decay_epochs=15)
        )
        ms, reports = train(data, ms, cfg)
        outcomes.append((ms, [r.mqe for r in reports]))
    first, second = outcomes
    assert first[1] == second[1]
    for attr in ("weights", "positions", "edges", "ages", "win_count"):
        assert np.array_equal(getattr(first[0], attr), getattr(second[0], attr))


def test_train_with_tiny_sigma_acts_like_kmeans_on_separated_blobs():
    centers = np.array([[-5.0, -5.0], [5.0, -5.0], [-5.0, 5.0], [5.0, 5.0]])
    data = _blob_data(np.random.default_rng(42), centers)
    ms = build_lattice(LatticeSpec(2, 2))
    init_weights(ms, data, 0)
    cfg = TrainConfig(sigma0=0.05, sigma_final=0.05, seed=0, max_epochs=50)
    ms, reports = train(data, ms, cfg)

    assert ms.m == 4
    asg = assign_all(data, ms)
    assert np.array_equal(np.sort(np.bincount(asg.winner, minlength=4)), [15, 15, 15, 15])
    # every blob mean shows up verbatim among the prototypes
    blob_means = data.patterns.reshape(4, 15, 2).mean(axis=1)
    for bm in blob_means:
        assert np.min(np.abs(ms.weights - bm).max(axis=1)) < 1e-9
    assert reports[-1].mqe < 0.2


def test_train_stops_at_epoch_two_with_a_huge_threshold():
    rng = np.random.default_rng(13)
    data = Dataset(rng.normal(size=(40, 2)))
    ms, cfg = create_initial_map(data, TrainConfig(eps1=1e3))
    _, reports = train(data, ms, cfg)
    assert [r.epoch for r in reports] == [1, 2]


def test_train_honors_the_epoch_cap():
    rng = np.random.default_rng(14)
    data = Dataset(rng.normal(size=(40, 2)))
    ms, cfg = create_initial_map(data, TrainConfig(max_epochs=1))
    _, reports = train(data, ms, cfg)
    assert len(reports) == 1


def test_train_keeps_invariants_every_epoch(iris):
    ms, cfg = create_initial_map(iris, TrainConfig(seed=1))
    seen = []

    def watch(report):
        ms.validate(q_max=cfg.effective_q)
        if ms.m > 2:
            assert ms.degrees().min() > 0
        seen.append(report.epoch)

    final, reports = train(iris, ms, cfg, progress=watch)
    assert seen == list(range(1, len(reports) + 1))
    assert final.m >= 2
    assert reports[-1].mqe < reports[0].mqe
    assert {e["kind"] for r in reports for e in r.events} <= set(engine.EVENT_KINDS)


def test_train_input_checks():
    rng = np.random.default_rng(15)
    data = Dataset(rng.normal(size=(10, 2)))
    with pytest.raises(MapStructureError):
        train(data, make_map([[0.0, 0.0]]), TrainConfig())
    # a dimension mismatch is a data fault, raised before the map changes
    ms = make_map(rng.normal(size=(3, 5)), edges=[(0, 1, 2), (1, 2, 0)])
    before = ms.copy()
    with pytest.raises(DataError, match="does not match"):
        train(data, ms, TrainConfig())
    assert_same_map(ms, before)
    with pytest.raises(ConfigError):
        train(data, make_map(np.zeros((3, 2))), TrainConfig(sf=2.0))


def _same_assignment(carried, fresh):
    for attr in ("winner", "second", "dist"):
        assert getattr(carried, attr).tobytes() == getattr(fresh, attr).tobytes()
    assert carried.m == fresh.m


def _churning_run():
    """Four blobs, frequent splits, and a degree cap of 2 that isolates and
    removes neurons: ``(data, map_state, config)``."""
    rng = np.random.default_rng(0)
    centers = rng.uniform(0.0, 10.0, size=(4, 2))
    data = Dataset(np.vstack([rng.normal(c, 0.6, size=(20, 2)) for c in centers]))
    cfg = TrainConfig(seed=0, t_add=3, age_max=5, q_max=2, max_epochs=40,
                      sigma_decay_epochs=10, smooth_max_epochs=30)
    return (data, *create_initial_map(data, cfg))


@pytest.mark.parametrize("trainer", ["train", "smooth", "train_batch_som"])
def test_carried_assignment_matches_a_fresh_one(trainer, monkeypatch):
    # every epoch's report must describe the map exactly as it then stands,
    # although the trainers reuse that assignment to start the next epoch:
    # the last assignment a trainer made in an epoch must be, bit for bit,
    # the one a fresh search of the map gives
    data, ms, cfg = _churning_run()
    if trainer == "smooth":
        train(data, ms, cfg)

    made = []

    def spy(owner, name):
        made_by = getattr(owner, name)

        def recorded(*args, **kwargs):
            made.append(made_by(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(owner, name, recorded)

    makers = {
        "train": [(engine, "assign_all")],
        "smooth": [(PrunedSearch, "assign")],
        "train_batch_som": [(baseline, "assign_all")],
    }[trainer]
    for owner, name in makers:
        spy(owner, name)

    def check(report):
        fresh = assign_all(data, ms)
        _same_assignment(made[-1], fresh)
        assert report.mqe == _mean_root(fresh.dist)

    run = {"train": train, "smooth": smooth, "train_batch_som": train_batch_som}[trainer]
    _, reports = run(data, ms, cfg, progress=check)
    assert len(reports) > 1
    if trainer == "train":
        # splits and removals change the map after its mid-epoch assignment
        kinds = {e["kind"] for r in reports for e in r.events}
        assert {"neuron_split", "neuron_removed"} <= kinds


def test_train_searches_again_only_after_a_split_or_a_degree_cap_removal(monkeypatch):
    # the search after pruning serves the epoch's error and starts the next
    # epoch unless a split or a degree-cap removal changed the map after it:
    # one search before the first epoch, one per epoch, and one more in each
    # epoch that split or removed a neuron under the cap
    data, ms, cfg = _churning_run()
    searches, capped = [], []
    assign, cap = engine.assign_all, engine.enforce_degree

    def counted(*args):
        searches.append(args)
        return assign(*args)

    def removals_under_the_cap(map_state, q):
        events = cap(map_state, q)
        capped.append(sum(e["kind"] == "neuron_removed" for e in events))
        return events

    monkeypatch.setattr(engine, "assign_all", counted)
    monkeypatch.setattr(engine, "enforce_degree", removals_under_the_cap)
    _, reports = train(data, ms, cfg)
    split = [any(e["kind"] == "neuron_split" for e in r.events) for r in reports]
    again = [s or c > 0 for s, c in zip(split, capped)]
    assert len(searches) == len(reports) + 1 + sum(again)
    # every kind of change is in the run: a removal alone, a split alone, and
    # a split whose one removal leaves the neuron count where it was
    assert any(c and not s for s, c in zip(split, capped))
    assert any(s and not c for s, c in zip(split, capped))
    assert any(s and c == 1 for s, c in zip(split, capped))


def test_events_equal_only_events():
    # an Events value never equals the list of its own dicts, yet two equal
    # runs' reports, which hold separate Events values, still compare equal
    data, ms, cfg = _churning_run()
    _, reports = train(data, ms.copy(), cfg)
    _, again = train(data, ms, cfg)
    events = next(report.events for report in reports if report.events)
    assert events != list(events) and list(events) != events
    assert reports == again and reports[0].events is not again[0].events
    # values compare part by part: the kind, then the arrays one by one
    removed = engine.Events(("neuron_removed", np.array([1, 2])))
    assert removed == engine.Events(("neuron_removed", np.array([1, 2])))
    assert removed != engine.Events(("neuron_removed", np.array([1, 3])))
    assert removed != engine.Events(("edge_trimmed", np.array([1, 2]), np.array([0, 0])))
    assert removed != removed + engine.Events(("neuron_removed", np.array([4])))


def test_train_events_match_the_reference_every_epoch(event_oracle):
    # every epoch's events iterate as the dicts the reference builds, in its
    # order and with plain ints, and count, size and truth agree with them
    data, ms, cfg = _churning_run()
    _, reports = train(data, ms, cfg)
    assert [list(r.events) for r in reports] == event_oracle
    for report, want in zip(reports, event_oracle):
        assert report.events.counts() == Counter(e["kind"] for e in want)
        assert len(report.events) == len(want) and bool(report.events) == bool(want)
        for event in report.events:
            for value in event.values():
                items = value if isinstance(value, (tuple, list)) else [value]
                assert all(type(v) in (int, str, float) for v in items)
    assert {e["kind"] for epoch in event_oracle for e in epoch} == set(engine.EVENT_KINDS)
    # train never prunes a map to fewer than two neurons: the edge refresh
    # always leaves the last pattern's pair an edge of age 0, which neither
    # pruning nor the degree cap cuts, so only a direct call can, and then
    # the step and its reference both raise
    ms = make_map(np.zeros((3, 2)), edges=[(0, 1, 40), (1, 2, 50)])
    before = ms.copy()
    with pytest.raises(MapStructureError):
        reference_prune(ms.copy(), 30)
    with pytest.raises(MapStructureError):
        prune_edges_and_neurons(ms, age_max=30)
    assert_same_map(ms, before)


@pytest.mark.parametrize("trainer", ["train", "smooth", "train_batch_som"])
def test_every_report_counts_its_events(trainer):
    # every phase's events are an Events value; smoothing and the baseline
    # change no structure, so theirs count nothing
    data, ms, cfg = _churning_run()
    if trainer == "smooth":
        train(data, ms, cfg)
    run = {"train": train, "smooth": smooth, "train_batch_som": train_batch_som}[trainer]
    _, reports = run(data, ms, cfg)
    counts = [report.events.counts() for report in reports]
    if trainer == "train":
        assert sum(counts, Counter())["neuron_split"] > 0
    else:
        assert counts == [Counter()] * len(reports)
        assert all(list(report.events) == [] for report in reports)
    assert engine.EpochReport(1, 0.0).events.counts() == Counter()


def test_train_splits_once_every_t_add_epochs():
    # the split clock counts one per epoch and restarts at each split, and
    # _churning_run's worst neuron is over the growing threshold whenever a
    # split is allowed, so train splits exactly at the multiples of t_add
    data, ms, cfg = _churning_run()
    _, reports = train(data, ms, cfg)
    assert len(reports) == cfg.max_epochs
    splits = [r.epoch for r in reports if r.events.counts()["neuron_split"]]
    assert splits == list(range(cfg.t_add, cfg.max_epochs + 1, cfg.t_add))


def _mixture16(n_per_blob, seed=0):
    """A 16-D mixture of 8 Gaussian blobs (sd 1, centres uniform in [0, 10])
    in shuffled order, as perfbench's mixture16-train workload makes it."""
    rng = np.random.default_rng([seed, 16])
    centres = rng.uniform(0.0, 10.0, size=(8, 16))
    labels = rng.permutation(np.repeat(np.arange(8), n_per_blob))
    return Dataset(centres[labels] + rng.normal(size=(labels.size, 16)))


def test_train_reports_hold_at_most_64_bytes_per_event():
    # the reports hold each epoch's events as the index arrays that made
    # them, not as one dict per event (about 250 bytes each)
    data = _mixture16(250)
    ms, cfg = create_initial_map(data, TrainConfig(seed=0))
    tracemalloc.start()
    try:
        _, reports = train(data, ms, cfg)
        held = tracemalloc.get_traced_memory()[0]
        events = sum(len(r.events) for r in reports)
        del reports
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert events > 1000
    assert (held - left) / events <= 64


def test_smooth_freezes_the_structure(iris):
    ms, cfg = create_initial_map(iris, TrainConfig(seed=4))
    train(iris, ms, cfg)
    edges = ms.edges.copy()
    ages = ms.ages.copy()
    wins = ms.win_count.copy()
    m_before = ms.m
    w_before = ms.weights.copy()

    _, reports = smooth(iris, ms, replace(cfg, smooth_max_epochs=60))
    assert ms.m == m_before
    assert np.array_equal(ms.edges, edges)
    assert np.array_equal(ms.ages, ages)
    assert np.array_equal(ms.win_count, wins)
    assert not np.array_equal(ms.weights, w_before)  # it did adapt
    assert 1 <= len(reports) <= 60
    assert reports[-1].mqe <= reports[0].mqe + 1e-9


def test_smooth_on_zero_length_edges_uses_sigma_final():
    # every edge joins two neurons at one position: the median edge length
    # is 0, and a kernel width of 0 would divide 0 by 0
    ms = make_map(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        positions=[[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0, 0.0]],
        edges=[(0, 1), (2, 3)],
    )
    data = Dataset([[0.1, 0.0], [0.9, 0.1], [0.0, 0.8], [1.0, 0.9], [0.5, 0.5]])
    cfg = TrainConfig(sigma_final=0.7, smooth_max_epochs=5)
    lockstep = engine._Lockstep([(data, ms, cfg, None)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (reports,) = lockstep.run()
    assert lockstep.fixed[0][2] == -(cfg.sigma_final * cfg.sigma_final)
    assert len(reports) >= 1
    assert np.isfinite(ms.weights).all() and np.isfinite(ms.positions).all()


def test_smooth_stops_when_the_error_settles():
    rng = np.random.default_rng(19)
    data = Dataset(rng.normal(size=(30, 2)))
    ms, cfg = create_initial_map(data, TrainConfig(max_epochs=10))
    train(data, ms, cfg)
    _, reports = smooth(data, ms, replace(cfg, eps1=0.9, eps2=0.5))
    assert len(reports) == 2


def test_smooth_input_checks():
    data = Dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(MapStructureError):
        smooth(data, make_map([[0.0, 0.0]]), TrainConfig())
    ms = make_map(np.arange(12.0).reshape(3, 4), edges=[(0, 1, 3), (1, 2, 1)])
    before = ms.copy()
    with pytest.raises(DataError, match="does not match"):
        smooth(data, ms, TrainConfig())
    assert_same_map(ms, before)


def test_config_validation_rejects_bad_values():
    bad = [
        dict(sf=0.0),
        dict(sf=1.0),
        dict(gamma=0.0),
        dict(alpha_train=0.0),
        dict(alpha_smooth=1.0),
        dict(age_max=0),
        dict(t_add=0),
        dict(max_epochs=0),
        dict(smooth_max_epochs=0),
        dict(eps1=1e-10, eps2=1e-6),
        dict(eps2=0.0),
        dict(sigma_final=0.0),
        dict(sigma0=0.5, sigma_final=1.0),
        dict(sigma_decay_epochs=0),
        dict(topology="circular"),
        dict(q_max=0),
        dict(beta_mode="uniform"),
        dict(seed=-1),
        # every comparison with NaN is false, so non-finite values need
        # their own check
        dict(gamma=math.nan),
        dict(gamma=math.inf),
        dict(sf=math.nan),
        dict(alpha_train=math.nan),
        dict(eps1=math.inf),
        dict(eps2=math.nan),
        dict(sigma_final=math.nan),
        dict(sigma_final=math.inf),
        dict(sigma0=math.nan),
        dict(sigma0=math.inf),
        dict(max_epochs=math.nan),
        # integer fields take integers only: a float would crash range() or a
        # slice, or be truncated silently; a bool is no count
        dict(age_max=2.5),
        dict(t_add=2.5),
        dict(max_epochs=2.5),
        dict(max_epochs=2.0),
        dict(smooth_max_epochs=3.5),
        dict(sigma_decay_epochs=2.5),
        dict(q_max=2.5),
        dict(seed=1.5),
        dict(max_epochs=True),
        dict(seed="1"),
        # a float field takes a number, never a bool or text: True would
        # train as 1, and "4" would fail deep inside a comparison
        dict(gamma=True),
        dict(gamma="4"),
        dict(sigma0=True),
        dict(sf="0.5"),
    ]
    for kwargs in bad:
        # a config checks itself when built, and again when replace builds one
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)
        with pytest.raises(ConfigError):
            replace(TrainConfig(), **kwargs)
    assert not hasattr(TrainConfig, "validate")
    cfg = TrainConfig(max_epochs=np.int64(7), seed=np.uint32(3), q_max=np.int32(2))
    assert (cfg.max_epochs, cfg.seed, cfg.effective_q) == (7, 3, 2)
    # accepted values are stored as given, never converted
    assert type(TrainConfig(gamma=4).gamma) is int
    cfg = TrainConfig(gamma=np.int64(3), sf=np.float32(0.25), sigma0=np.float64(2.0))
    assert (type(cfg.gamma), type(cfg.sf), type(cfg.sigma0)) == (np.int64, np.float32, np.float64)
    assert TrainConfig().effective_q == 4
    assert TrainConfig(topology="hexagonal").effective_q == 6
    assert TrainConfig(q_max=3).effective_q == 3
