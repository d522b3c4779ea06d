import tracemalloc
from collections import Counter

import numpy as np
import pytest

from amsom import core
from amsom.core import (
    Assignment,
    Dataset,
    MapState,
    PrunedSearch,
    _among,
    _mean_root,
    _search,
    assign_all,
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


def test_dataset_rejects_labels_that_are_not_integers():
    patterns = np.zeros((3, 2))
    bad = ([0.5, 1.7, 2.9], [0.0, 1.0, 2.0], [0, 1, np.nan], [True, False, True], ["a", "b", "c"])
    for labels in bad:
        with pytest.raises(DataError, match="one integer per pattern"):
            Dataset(patterns, labels=labels)
    for labels in ([0, 1, 2], np.array([2, 0, 1], dtype=np.uint8)):
        assert Dataset(patterns, labels=labels).labels.dtype == np.int64


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
    winner, second, dist, _ = _among(patterns, weights)
    return (
        np.array_equal(asg.winner, winner)
        and np.array_equal(asg.second, second)
        and asg.dist.tobytes() == dist.tobytes()
    )


def _spy_fallback(monkeypatch):
    """Route the winner search's brute-force fallback through a row counter."""
    seen = []
    among = core._among

    def spy(patterns, weights, cand=None):
        seen.append(patterns.shape[0])
        return among(patterns, weights, cand)

    monkeypatch.setattr(core, "_among", spy)
    return seen


def test_assign_all_near_ties_far_from_the_origin(monkeypatch):
    # Centres c in [2**19, 2**20) keep c +- 0.5 exact, so a pattern at c is
    # exactly equidistant from two neurons while their GEMM scores, rounded
    # near 1e12, rank them either way. Moving the pattern k ulps breaks the
    # tie by a few ulps, far below the score error.
    rng = np.random.default_rng(4)
    e = np.eye(3)
    k = np.arange(-3, 4)
    seen = _spy_fallback(monkeypatch)
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
    seen = _spy_fallback(monkeypatch)
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
    winner, second, dist, _ = _among(patterns, weights)
    monkeypatch.setattr(core, "CHUNK", chunk)
    asg = assign_all(Dataset(patterns), make_map(weights))
    assert np.array_equal(asg.winner, winner)
    assert np.array_equal(asg.second, second)
    assert asg.dist.tobytes() == dist.tobytes()


@pytest.mark.parametrize("m", [1, 2, 7])
def test_one_block_searches_equal_the_blocked_ones(monkeypatch, m):
    # at the default CHUNK each search takes all 40 rows as one block; with
    # CHUNK small the same rows run through the blocked loop, a row or a few
    # at a time. The brute-force search keeps every bit. The GEMM search keeps
    # its winners and distances; its bounds come from GEMM scores, whose
    # rounding may change with the block's shape, so they are held to being
    # bounds on the third distance.
    rng = np.random.default_rng(20 + m)
    patterns = rng.normal(size=(40, 3)) * 1e3
    weights = rng.normal(size=(m, 3)) * 1e3
    weights[-1] = weights[0]  # a duplicate neuron sends rows to the fallback
    exact = _among(patterns, weights)
    *found, bound = _search(patterns, weights)
    for chunk in (1, 3 * m * 3, 5 * m * 3 + 1):
        monkeypatch.setattr(core, "CHUNK", chunk)
        for a, b in zip(exact, _among(patterns, weights)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        *blocked, blocked_bound = _search(patterns, weights)
        for a, b in zip(found, blocked):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for b in (bound, blocked_bound):
            assert np.all(b * b <= exact[3])
    for a, b in zip(exact[:3], found):
        assert a.tobytes() == b.tobytes()


def test_batched_search_across_blocks_equals_among_per_run(monkeypatch):
    # three runs of 7, 3 and 5 rows among 5, 6 and 2 neurons, two slots of
    # each run per score block: four blocks, the last one partial, and the
    # two shorter runs end in padded slots. Run 0 holds three copies of one
    # neuron far from the rest, and only its row 5, in the third block, is
    # near them: its scores cannot rank the copies, so one fallback call
    # searches that row alone. Each run's rows get what _among of that
    # run alone gives, blocked or searched in one block.
    rng = np.random.default_rng(7)
    shapes, d = [(7, 5), (3, 6), (5, 2)], 3
    patterns = [rng.normal(size=(n, d)) for n, _ in shapes]
    weights = [rng.normal(size=(m, d)) for _, m in shapes]
    weights[0][[0, 1, 3]] = 50.0
    patterns[0][5] = 50.0 + rng.normal(size=d) * 0.01
    rows = [n for n, _ in shapes]
    starts = np.cumsum([m for _, m in shapes]) - [m for _, m in shapes]
    m_max, m = max(m for _, m in shapes), sum(m for _, m in shapes)
    own = np.array([
        np.where(np.arange(m_max) < mm, start + np.arange(m_max), m)
        for (_, mm), start in zip(shapes, starts)
    ])
    seen = _spy_fallback(monkeypatch)
    for chunk in (core.CHUNK, 2 * len(shapes) * m_max):
        monkeypatch.setattr(core, "CHUNK", chunk)
        seen.clear()
        found = _search(np.concatenate(patterns), np.concatenate(weights), rows, own)
        assert seen == [1]
        at = np.cumsum(rows) - rows
        for p, w, start, first in zip(patterns, weights, starts, at):
            part = slice(first, first + len(p))
            winner, second, dist, third = _among(p, w)
            assert np.array_equal(found[0][part], winner + start)
            assert np.array_equal(found[1][part], second + start)
            assert found[2][part].tobytes() == dist.tobytes()
            assert np.all(found[3][part] ** 2 <= third)
    assert found[0][5] in (0, 1, 3) and found[1][5] in (0, 1, 3)


def test_batched_search_certifies_each_row_by_its_own_tol(monkeypatch):
    # runs near the origin alternate with runs far from it, whose patterns
    # sit among four neurons within ulps of each other (as in
    # ``test_assign_all_near_ties_far_from_the_origin``): a far row's scores
    # cannot rank them under its own tol, so every far row, and no near
    # one, is searched by the fallback, in one call however the rows are
    # blocked. A far row certified with a near row's tol would skip it.
    rng = np.random.default_rng(9)
    e = np.eye(3)
    close = np.vstack([-0.5 * e[0], 0.5 * e[0], 0.5 * e[1], -0.5 * e[1], 7 * e[2]])
    patterns, weights = [], []
    for run in range(6):
        if run % 2:
            c = rng.uniform(6e5, 1e6, size=3)
            shift = rng.integers(-3, 4, size=(2, 2)) * np.spacing(c[0])
            weights.append(c + close)
            patterns.append(c + np.column_stack([shift, np.zeros(2)]))
        else:
            weights.append(rng.normal(size=(5, 3)))
            patterns.append(rng.normal(size=(2, 3)))
    own = np.arange(30).reshape(6, 5)
    seen = _spy_fallback(monkeypatch)
    for chunk in (core.CHUNK, 1):
        monkeypatch.setattr(core, "CHUNK", chunk)
        seen.clear()
        found = _search(np.concatenate(patterns), np.concatenate(weights), [2] * 6, own)
        assert seen == [6]
        for run, (p, w) in enumerate(zip(patterns, weights)):
            winner, second, dist, _ = _among(p, w)
            at = slice(2 * run, 2 * run + 2)
            assert np.array_equal(found[0][at], winner + 5 * run)
            assert np.array_equal(found[1][at], second + 5 * run)
            assert found[2][at].tobytes() == dist.tobytes()


def test_assign_all_at_the_mixture16_shape_holds_one_cache_sized_block():
    # perfbench's 2000 x 224 x 16 ladder rung, the size of the mixture16
    # map: its 448000 scores (3.6 MB) are made and read in blocks of at most
    # CHUNK entries, at most 1 MB, so that a block stays in a core's L2
    # cache. Besides one block a search holds the (n, d + 1) augmented
    # patterns and at most four n x d arrays more: one block's recomputed
    # pairs and the per-row vectors of the certificate.
    n, m, d = 2000, 224, 16
    assert 8 * core.CHUNK <= 1 << 20
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(n, d)))
    ms = make_map(rng.normal(size=(m, d)))
    tracemalloc.start()
    try:
        assign_all(data, ms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (core.CHUNK + n * (d + 1) + 4 * n * d)


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


def test_blocked_assign_all_equals_brute_force_property(monkeypatch):
    # CHUNK patched small sends the same rows through many score blocks; the
    # reference is taken first, at the default CHUNK. The search's bound
    # stays under every distance but the pair's.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    default = core.CHUNK

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        m=st.integers(1, 30),
        d=st.integers(1, 17),
        log_scale=st.floats(-3, 3),
        offset=st.sampled_from([0.0, 1.0, -250.0, 1e4, 1e6]),
        duplicates=st.integers(0, 5),
        rounded=st.booleans(),
        chunk=st.integers(1, 400),
    )
    def check(seed, n, m, d, log_scale, offset, duplicates, rounded, chunk):
        rng = np.random.default_rng(seed)
        patterns = rng.normal(size=(n, d)) * 10.0**log_scale + offset
        weights = rng.normal(size=(m, d)) * 10.0**log_scale + offset
        weights[rng.integers(0, m, size=duplicates)] = weights[rng.integers(0, m)]
        if rounded:
            patterns, weights = np.round(patterns), np.round(weights)
        monkeypatch.setattr(core, "CHUNK", default)
        winner, second, dist, third = _among(patterns, weights)
        monkeypatch.setattr(core, "CHUNK", chunk)
        asg = assign_all(Dataset(patterns), make_map(weights))
        assert np.array_equal(asg.winner, winner)
        assert np.array_equal(asg.second, second)
        assert asg.dist.tobytes() == dist.tobytes()
        bound = _search(patterns, weights)[3]
        assert np.all(bound * bound <= third)

    check()


def _spy_pruned_routes(monkeypatch):
    """Count the rows PrunedSearch sends to its two routes while ``on[0]``
    is set: the batched GEMM search ("gemm") and the padded brute-force
    call ("exact"); the rows the GEMM search hands to its own brute-force
    fallback count apart ("fallback")."""
    rows = Counter()
    on = [False]
    inside = [False]
    search, among = core._search, core._among

    def spy_search(patterns, weights, *runs):
        rows["gemm"] += on[0] * patterns.shape[0]
        inside[0] = True
        try:
            return search(patterns, weights, *runs)
        finally:
            inside[0] = False

    def spy_among(patterns, weights, cand=None):
        rows["fallback" if inside[0] else "exact"] += on[0] * patterns.shape[0]
        return among(patterns, weights, cand)

    monkeypatch.setattr(core, "_search", spy_search)
    monkeypatch.setattr(core, "_among", spy_among)
    return rows, on


def test_pruned_search_equals_assign_all_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rows, on = _spy_pruned_routes(monkeypatch)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        m=st.integers(2, 30),
        d=st.integers(1, 16),
        log_scale=st.floats(-3, 3),
        offset=st.sampled_from([0.0, 1.0, -250.0, 1e4, 1e6]),
        duplicates=st.integers(0, 5),
        rounded=st.booleans(),
        log_step=st.floats(-8, -1),
        jumps=st.lists(st.integers(1, 11), max_size=3),
    )
    # at step 4 one neuron jumps onto another, which lowers every bound past
    # its pair, so all 60 rows of this example take the GEMM route
    @hypothesis.example(
        seed=1, n=60, m=30, d=16, log_scale=0.0, offset=0.0, duplicates=0,
        rounded=False, log_step=-6.0, jumps=[4],
    )
    # with five copies of one neuron, two of the rows the GEMM route takes
    # again have no third best score clear of the second: the fallback runs
    # whatever the random examples draw
    @hypothesis.example(
        seed=1, n=60, m=30, d=16, log_scale=0.0, offset=0.0, duplicates=5,
        rounded=False, log_step=-6.0, jumps=[4],
    )
    def check(seed, n, m, d, log_scale, offset, duplicates, rounded, log_step, jumps):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        patterns = rng.normal(size=(n, d)) * scale + offset
        weights = rng.normal(size=(m, d)) * scale + offset
        weights[rng.integers(0, m, size=duplicates)] = weights[rng.integers(0, m)]
        if rounded:
            patterns, weights = np.round(patterns), np.round(weights)
        data, ms = Dataset(patterns), make_map(weights)
        search = PrunedSearch(data, [(n, m)])
        for t in range(12):
            if t:
                # a smoothing-sized step for every neuron; on the integer
                # grid, a few neurons move by one unit
                step = rng.normal(size=(m, d)) * (0.3 if rounded else scale * 10.0**log_step)
                ms.weights = ms.weights + (np.round(step) if rounded else step)
            if t in jumps:
                j = rng.integers(0, m)
                if rng.random() < 0.5:
                    ms.weights[j] = ms.weights[rng.integers(0, m)]
                else:
                    ms.weights[j] = rng.normal(size=d) * 3.0 * scale + offset
                    if rounded:
                        ms.weights[j] = np.round(ms.weights[j])
            routed = rows["gemm"] + rows["exact"]
            on[0] = t > 0
            asg = search.assign(ms.weights)
            on[0] = False
            if t:
                rows["skip"] += n - (rows["gemm"] + rows["exact"] - routed)
            fresh = assign_all(data, ms)
            assert np.array_equal(asg.winner, fresh.winner)
            assert np.array_equal(asg.second, fresh.second)
            assert asg.dist.tobytes() == fresh.dist.tobytes()
            assert np.array_equal(asg.wins, fresh.wins)

    check()
    # the skip path, both routes of the rows searched again and the GEMM
    # search's fallback were taken
    assert min(rows[key] for key in ("skip", "exact", "gemm", "fallback")) > 0, rows


def test_pruned_search_without_a_search_equals_assign_all(monkeypatch):
    # two patterns sit between a close pair of neurons, 1 and 3, far from the
    # rest; each step below moves the pair by at most 0.005, so every row
    # keeps its pair and no search runs, while the two swap places and tie
    # (a tie goes to the lower index, 1, even right after 3 won)
    data = Dataset([[0.0, 0.0], [0.0, 0.1]])
    weights = np.array([[50.0, 50.0], [1.001, 0.0], [-50.0, 50.0], [-1.0, 0.0]])
    search = PrunedSearch(data, [(2, 4)])
    ms = make_map(weights)
    search.assign(ms.weights)
    rows, on = _spy_pruned_routes(monkeypatch)
    winners = []
    for x1, x3 in ((1.001, -1.0), (1.0, -1.0), (0.999, -1.0), (1.0, -0.995), (1.0, -1.0)):
        ms.weights = weights.copy()
        ms.weights[1, 0], ms.weights[3, 0] = x1, x3
        on[0] = True
        asg = search.assign(ms.weights)
        on[0] = False
        fresh = assign_all(data, ms)
        assert np.array_equal(asg.winner, fresh.winner)
        assert np.array_equal(asg.second, fresh.second)
        assert asg.dist.tobytes() == fresh.dist.tobytes()
        assert np.array_equal(asg.wins, fresh.wins)
        winners.append(int(asg.winner[0]))
    assert rows["gemm"] + rows["exact"] == 0
    assert winners == [3, 1, 1, 3, 1]


def test_pruned_search_needs_two_neurons():
    # a one-neuron map has no runner-up to pair with its winner, and the
    # weights searched must hold the neurons of the runs
    data = Dataset([[0.0], [1.0]])
    with pytest.raises(MapStructureError):
        PrunedSearch(data, [(2, 1)])
    with pytest.raises(MapStructureError, match="weights hold 1 neurons"):
        PrunedSearch(data, [(2, 2)]).assign(np.array([[0.5]]))


def test_pruned_search_keeps_the_pairs_that_stay_clear(monkeypatch):
    # well-separated random data: a repeated call, or a step far below every
    # gap, searches no row again, and a far jump of one neuron searches all
    rng = np.random.default_rng(5)
    data = Dataset(rng.normal(size=(50, 3)))
    ms = make_map(rng.normal(size=(10, 3)))
    search = PrunedSearch(data, [(50, 10)])
    search.assign(ms.weights)
    rows, on = _spy_pruned_routes(monkeypatch)
    on[0] = True
    for weights in (ms.weights, ms.weights + 1e-9, ms.weights + 1e-9, ms.weights):
        ms.weights = weights
        search.assign(ms.weights)
        assert rows["gemm"] + rows["exact"] == 0
    ms.weights = ms.weights.copy()
    ms.weights[3] += 50.0
    asg = search.assign(ms.weights)
    assert rows["gemm"] + rows["exact"] == data.n
    assert _same_as_exact(asg, data.patterns, ms.weights)


def test_pruned_search_bounds_allow_for_the_score_error(monkeypatch):
    # Far from the origin a GEMM score is off by up to ~1e-3 here. Neuron 2
    # starts third, clear of the runner-up 1 by enough for the scores to
    # decide; then it steps 0.03 toward the pattern while 1 steps away to end
    # 1e-7 (squared) behind it. A bound taken from the score without its
    # tol margins would still cover the old pair and keep it.
    monkeypatch.setattr(core, "EXACT_ROUTE", 0)  # every row takes the GEMM route
    rng = np.random.default_rng(4)
    e0, e1 = np.eye(2)
    far = np.sqrt(0.25 + 0.045)
    behind = np.sqrt((far - 0.03) ** 2 + 1e-7)
    for _ in range(16):
        c = rng.uniform(6e5, 1e6, size=2)
        data = Dataset(c[None, :])
        ms = make_map(c + np.vstack([0.3 * e0, -0.5 * e0, far * e1, -10 * e1]))
        search = PrunedSearch(data, [(1, 4)])
        assert search.assign(ms.weights).second[0] == 1
        ms.weights = c + np.vstack([0.3 * e0, -behind * e0, (far - 0.03) * e1, -10 * e1])
        asg = search.assign(ms.weights)
        assert asg.second[0] == 2
        assert _same_as_exact(asg, data.patterns, ms.weights)


def test_pruned_search_bound_after_an_overflowing_distance():
    # neuron 2 starts so far away that its squared distance overflows to
    # inf, then comes between the pattern's pair in two finite steps; an
    # infinite bound would never let the row be searched again
    patterns = np.array([[-7e153]])
    ms = make_map([[-7e153 + 1e140], [-7e153 + 2e140], [7e153]])
    search = PrunedSearch(Dataset(patterns), [(1, 3)])
    for x in (7e153, 0.0, -7e153 + 1.5e140):
        ms.weights = ms.weights.copy()
        ms.weights[2, 0] = x
        asg = search.assign(ms.weights)
        assert _same_as_exact(asg, patterns, ms.weights)
    assert asg.second[0] == 2


def _check_runs_against_assign_all(asg, patterns, weights):
    """Each run's rows of ``asg`` hold what ``assign_all`` of that run alone
    gives, with neuron indices counted over all runs."""
    start = 0
    rows = 0
    for p, w in zip(patterns, weights):
        fresh = assign_all(Dataset(p), make_map(w))
        part = slice(rows, rows + len(p))
        assert np.array_equal(asg.winner[part], fresh.winner + start)
        assert np.array_equal(asg.second[part], fresh.second + start)
        assert asg.dist[part].tobytes() == fresh.dist.tobytes()
        start, rows = start + len(w), rows + len(p)


def _spy_searches(monkeypatch):
    """Record each search of rows of several runs: a padded brute-force
    call as "exact", a batched GEMM search as the ``(rows, neurons)`` it
    takes of each run."""
    calls = []
    inside = [False]
    search, among = core._search, core._among

    def spy_search(patterns, weights, rows=None, own=None):
        if own is not None:  # not a batch of one, as assign_all searches
            calls.append(list(zip(rows, (own < weights.shape[0]).sum(axis=1).tolist())))
        inside[0] = True
        try:
            return search(patterns, weights, rows, own)
        finally:
            inside[0] = False

    def spy_among(patterns, weights, cand=None):
        if not inside[0]:
            calls.append("exact")
        return among(patterns, weights, cand)

    monkeypatch.setattr(core, "_search", spy_search)
    monkeypatch.setattr(core, "_among", spy_among)
    return calls


def test_pruned_search_over_runs_equals_assign_all_per_run(monkeypatch):
    # One PrunedSearch over runs of unequal row and neuron counts, a run of
    # two neurons among them, gives each run's rows what assign_all of that
    # run alone gives, and the pairs that run's own PrunedSearch gives, bit
    # for bit, and every bound stays under the row's third distance in its
    # run. Each call searches the failing rows of every run in one call:
    # one padded brute-force call, or with EXACT_ROUTE at 0 one GEMM search,
    # which a small CHUNK splits into blocks. Duplicate weights and a
    # pattern on a weight make ties; a run that stands still keeps its pairs
    # while another run's rows are searched again.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    calls = _spy_searches(monkeypatch)
    seen = Counter()

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(
            st.tuples(
                st.integers(1, 30), st.integers(2, 40), st.sampled_from([None, -8.0, -4.0, -1.0])
            ),
            min_size=1,
            max_size=4,
        ),
        d=st.integers(1, 6),
        offsets=st.lists(st.sampled_from([0.0, 1e4]), min_size=4, max_size=4),
        jumps=st.lists(st.integers(1, 9), max_size=3),
        duplicates=st.integers(0, 3),
        chunk=st.sampled_from([core.CHUNK, 64, 1]),
        exact_route=st.sampled_from([core.EXACT_ROUTE, 0]),
    )
    @hypothesis.example(
        seed=0, shapes=[(7, 2, -1.0), (20, 9, None), (3, 5, -4.0)], d=2,
        offsets=[0.0] * 4, jumps=[3], duplicates=1, chunk=64, exact_route=0,
    )
    def check(seed, shapes, d, offsets, jumps, duplicates, chunk, exact_route):
        # the runs share one region unless their offsets differ, so a row
        # searched among other runs' neurons would find closer ones; each
        # run moves at its own pace, or not at all
        monkeypatch.setattr(core, "CHUNK", chunk)
        monkeypatch.setattr(core, "EXACT_ROUTE", exact_route)
        rng = np.random.default_rng(seed)
        patterns = [rng.normal(size=(n, d)) + c for (n, _, _), c in zip(shapes, offsets)]
        weights = [rng.normal(size=(m, d)) + c for (_, m, _), c in zip(shapes, offsets)]
        for p, w in zip(patterns, weights):
            w[rng.integers(0, len(w), size=duplicates)] = w[rng.integers(0, len(w))]
            p[0] = w[rng.integers(0, len(w))]
        search = PrunedSearch(
            Dataset(np.concatenate(patterns)), [(n, m) for n, m, _ in shapes]
        )
        alone = [PrunedSearch(Dataset(p), [(n, m)]) for p, (n, m, _) in zip(patterns, shapes)]
        for t in range(10):
            if t:
                weights = [
                    w if log_step is None else w + rng.normal(size=w.shape) * 10.0**log_step
                    for w, (_, _, log_step) in zip(weights, shapes)
                ]
            if t in jumps:
                i = rng.integers(0, len(weights))
                weights[i] = weights[i].copy()
                weights[i][rng.integers(0, len(weights[i]))] = rng.normal(size=d) * 2.0 + offsets[i]
            calls.clear()
            asg = search.assign(np.concatenate(weights))
            assert len(calls) <= 1
            gemm = [call for call in calls if call != "exact"]
            seen["exact"] += len(calls) - len(gemm)
            for searched in gemm:
                seen["runs"] += len(searched) > 1
                seen["unequal rows"] += len({r for r, _ in searched}) > 1
                seen["unequal neurons"] += len({m for _, m in searched}) > 1
                seen["two neurons"] += len(searched) > 1 and min(m for _, m in searched) == 2
                seen["idle run"] += len(searched) < len(shapes)
                step = max(1, chunk // (len(searched) * max(m for _, m in searched)))
                seen["blocks"] += len(searched) > 1 and max(r for r, _ in searched) > step
            assert asg.m == sum(len(w) for w in weights)
            _check_runs_against_assign_all(asg, patterns, weights)
            start = rows = 0
            for own, p, w in zip(alone, patterns, weights):
                own.assign(w)
                part = slice(rows, rows + len(p))
                third = _among(p, w)[3]
                for bound in (search.bound[part], own.bound):
                    assert np.all(bound * bound <= third)
                assert np.array_equal(search.pair[part], own.pair + start)
                start, rows = start + len(w), rows + len(p)

    check()
    assert min(seen[key] for key in (
        "exact", "runs", "unequal rows", "unequal neurons", "two neurons", "idle run", "blocks"
    )) > 0, seen


def test_pruned_search_over_runs_lowers_each_runs_bounds_by_its_own_movement():
    # run 0 stands still; in run 1 neuron 2 jumps next to the pattern, which
    # only run 1's movement can show
    patterns = [np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]])]
    weights = [
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 9.0]]),
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 9.0]]),
    ]
    search = PrunedSearch(Dataset(np.concatenate(patterns)), [(1, 3), (1, 3)])
    search.assign(np.concatenate(weights))
    weights[1] = weights[1].copy()
    weights[1][2] = [0.0, 0.5]
    asg = search.assign(np.concatenate(weights))
    _check_runs_against_assign_all(asg, patterns, weights)
    assert asg.winner[1] == 3 + 2


def test_pruned_search_over_runs_allows_for_each_runs_score_error(monkeypatch):
    # ``test_pruned_search_bounds_allow_for_the_score_error`` as the second
    # of two runs, after a run near the origin whose tol is far smaller
    monkeypatch.setattr(core, "EXACT_ROUTE", 0)  # every row takes the GEMM route
    rng = np.random.default_rng(4)
    e0, e1 = np.eye(2)
    far = np.sqrt(0.25 + 0.045)
    behind = np.sqrt((far - 0.03) ** 2 + 1e-7)
    near = np.vstack([0.3 * e0, -0.5 * e0, far * e1, -10 * e1])
    for _ in range(16):
        c = rng.uniform(6e5, 1e6, size=2)
        patterns = [np.zeros((1, 2)), c[None, :]]
        search = PrunedSearch(Dataset(np.concatenate(patterns)), [(1, 4), (1, 4)])
        weights = [near, c + near]
        assert search.assign(np.concatenate(weights)).second[1] == 4 + 1
        weights = [near, c + np.vstack([0.3 * e0, -behind * e0, (far - 0.03) * e1, -10 * e1])]
        asg = search.assign(np.concatenate(weights))
        assert asg.second[1] == 4 + 2
        _check_runs_against_assign_all(asg, patterns, weights)


def test_pruned_search_over_runs_input_checks():
    data = Dataset(np.zeros((4, 2)))
    with pytest.raises(DataError, match="runs hold 3 rows"):
        PrunedSearch(data, [(1, 2), (2, 2)])
    with pytest.raises(MapStructureError):
        PrunedSearch(data, [(2, 2), (2, 1)])


def test_among_on_each_rows_candidates_equals_among_of_their_weights(monkeypatch):
    # each row's ascending candidates, padded or not with index m (a neuron
    # at inf), against _among over those candidates' weights alone, with
    # neuron indices for its positions; duplicate weights and patterns on a
    # weight make ties, and a small CHUNK splits the rows into blocks
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        m=st.integers(2, 20),
        d=st.integers(1, 5),
        k=st.integers(2, 8),
        padded=st.booleans(),
        duplicates=st.integers(0, 4),
        grid=st.booleans(),
        chunk=st.sampled_from([core.CHUNK, 40, 1]),
    )
    def check(seed, n, m, d, k, padded, duplicates, grid, chunk):
        monkeypatch.setattr(core, "CHUNK", chunk)
        rng = np.random.default_rng(seed)
        if grid:
            weights, patterns = (rng.integers(-2, 3, size=(r, d)).astype(float) for r in (m, n))
        else:
            weights, patterns = rng.normal(size=(m, d)), rng.normal(size=(n, d))
        for _ in range(duplicates):
            weights[rng.integers(m)] = weights[rng.integers(m)]
        on = min(n, duplicates)
        patterns[:on] = weights[rng.integers(m, size=on)]
        k = min(k, m)
        cand = np.sort([rng.choice(m, size=k, replace=False) for _ in range(n)], axis=1)
        if padded:
            # each row keeps 2 to k of its candidates; index m fills the rest
            cand[np.arange(k) >= rng.integers(2, k + 1, size=(n, 1))] = m
        winner, second, dist, third = _among(patterns, weights, cand)
        for row, own in enumerate(cand):
            real = own[own < m]
            best, runner, near, far = _among(patterns[row : row + 1], weights[real])
            assert (winner[row], second[row]) == (real[best[0]], real[runner[0]])
            assert dist[row].tobytes() == near[0].tobytes()
            assert third[row].tobytes() == far[0].tobytes()

    check()


def test_assign_all_memory_is_bounded_by_the_chunk(monkeypatch):
    # the brute-force search would need an n*m*d temporary of 1.8 GB here
    rng = np.random.default_rng(2)
    data = Dataset(rng.normal(size=(20000, 16)))
    ms = make_map(rng.normal(size=(707, 16)))

    def peak_of(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_of(lambda: assign_all(data, ms)) < 32e6

    # pruned epochs carry O(n) state; at m*d > EXACT_ROUTE every row searched
    # again takes the chunked GEMM route (the brute-force route is capped at
    # EXACT_ROUTE entries)
    search = PrunedSearch(data, [(data.n, ms.m)])
    search.assign(ms.weights)
    rows, on = _spy_pruned_routes(monkeypatch)
    on[0] = True
    ms.weights = ms.weights + 1e-9
    assert peak_of(lambda: search.assign(ms.weights)) < 32e6
    assert rows["gemm"] < data.n and rows["exact"] == 0
    ms.weights = ms.weights.copy()
    ms.weights[0] = 100.0  # a far jump leaves no bound positive
    rows.clear()
    assert peak_of(lambda: search.assign(ms.weights)) < 32e6
    assert rows["gemm"] == data.n


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


def test_assignment_wins_equal_a_fresh_count():
    # counted on first read, then the same array; an assignment never
    # reads another's counts, whatever their sizes share
    rng = np.random.default_rng(6)
    for n, m in ((1, 1), (5, 9), (300, 4), (300, 40)):
        winner = rng.integers(0, m, size=n)
        asg = Assignment(winner, np.zeros(n, dtype=np.int64), np.zeros(n), m)
        other = Assignment(rng.integers(0, m, size=n), np.zeros(n, dtype=np.int64), np.zeros(n), m)
        for a in (asg, other):
            assert a.wins.dtype == np.int64
            assert np.array_equal(a.wins, np.bincount(a.winner, minlength=m))
        assert asg.wins is asg.wins


def test_winner_means_equal_one_bincount_per_coordinate():
    # the flat (winner, coordinate) bincount against the per-column loop, bit
    # for bit, with empty neurons and enough rows to expose a change of order
    rng = np.random.default_rng(10)
    for n, m, d in ((1, 3, 1), (7, 5, 4), (2000, 30, 16), (20000, 50, 4)):
        data = Dataset(rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d))
        winner = rng.integers(0, m - 1, size=n)  # neuron m - 1 wins nothing
        asg = Assignment(winner, np.zeros(n, dtype=np.int64), np.zeros(n), m)
        counts = np.bincount(winner, minlength=m).astype(np.float64)
        want = np.zeros((m, d))
        for j in range(d):
            want[:, j] = np.bincount(winner, weights=data.patterns[:, j], minlength=m)
        np.divide(want, counts[:, None], out=want, where=counts[:, None] > 0)
        assert winner_means(data, asg).tobytes() == want.tobytes()


def test_mean_quantization_error_equals_np_mean():
    # every n from 1 past 1024, where numpy's pairwise sum starts to split
    # its blocks, and a few larger ones
    rng = np.random.default_rng(11)
    sizes = list(range(1, 1100)) + [2047, 2048, 4097, 20000]
    for n in sizes:
        dist = rng.random(n) * 10.0 ** rng.integers(-6, 7)
        asg = Assignment(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), dist, 1)
        got = _mean_root(asg.dist)
        assert type(got) is float
        assert got == float(np.mean(np.sqrt(dist)))


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
    assert _mean_root(asg.dist) == pytest.approx((2.0 + 4.0 + 3.0) / 3.0)


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
