"""Core containers and winner-search primitives.

Everything downstream (the adaptive trainer, the fixed-lattice baseline and the
metrics) works in terms of three small structures: a ``Dataset`` of input
patterns, a ``MapState`` holding the neuron population, and an ``Assignment``
mapping every pattern to its best and second-best neuron.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, MapStructureError


@dataclass
class Dataset:
    """A set of input patterns with optional integer class labels.

    Parameters
    ----------
    patterns : ndarray of shape (n, d)
        Feature vectors, one row per pattern. Stored as float64.
    labels : ndarray of shape (n,), optional
        Integer class ids aligned with ``patterns``; other labels raise DataError.
    """

    patterns: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.patterns = np.asarray(self.patterns, dtype=np.float64)
        if self.patterns.ndim != 2:
            raise DataError(f"patterns must be 2-D, got shape {self.patterns.shape}")
        if self.patterns.shape[0] < 1 or self.patterns.shape[1] < 1:
            raise DataError("dataset needs at least one pattern and one feature")
        if not np.all(np.isfinite(self.patterns)):
            raise DataError("patterns contain non-finite values")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype.kind not in "iu" or labels.shape != (self.patterns.shape[0],):
                raise DataError("labels must be one integer per pattern")
            self.labels = labels.astype(np.int64, copy=False)

    @property
    def n(self) -> int:
        return self.patterns.shape[0]

    @property
    def d(self) -> int:
        return self.patterns.shape[1]

    def subset(self, index) -> "Dataset":
        """Return a new Dataset holding the rows selected by ``index``."""
        labels = None if self.labels is None else self.labels[index]
        return Dataset(self.patterns[index].copy(), labels)


@dataclass
class MapState:
    """The full mutable state of a map: weights, layout and connectivity.

    Attributes
    ----------
    weights : ndarray of shape (m, d)
        One prototype vector in input space per neuron.
    positions : ndarray of shape (m, 2)
        Neuron coordinates in the output (visualization) plane.
    edges : bool ndarray of shape (m, m)
        Symmetric adjacency matrix with a zero diagonal.
    ages : int ndarray of shape (m, m)
        Symmetric edge ages; zero wherever there is no edge.
    win_count : int ndarray of shape (m,)
        How many times each neuron has been a winner so far.
    """

    weights: np.ndarray
    positions: np.ndarray
    edges: np.ndarray
    ages: np.ndarray
    win_count: np.ndarray

    @property
    def m(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.weights.shape[1]

    def degrees(self) -> np.ndarray:
        return self.edges.sum(axis=1)

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Each edge once, as its ends ``(i, j)`` with i < j, in row-major
        order (the order of ``np.nonzero(np.triu(edges, 1))``), from one
        flat scan of the adjacency matrix."""
        i, j = np.divmod(np.flatnonzero(self.edges), self.m)
        upper = i < j
        return i[upper], j[upper]

    def copy(self) -> "MapState":
        return MapState(
            self.weights.copy(),
            self.positions.copy(),
            self.edges.copy(),
            self.ages.copy(),
            self.win_count.copy(),
        )

    def delete_neurons(self, indices) -> None:
        """Remove the given neurons, compacting all arrays in place."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return
        keep = np.ones(self.m, dtype=bool)
        keep[indices] = False
        self.weights = self.weights[keep]
        self.positions = self.positions[keep]
        # columns, then rows: far faster than np.ix_, and C-ordered (rows,
        # then columns, would give F order, which slows every flat scan)
        self.edges = self.edges[:, keep][keep]
        self.ages = self.ages[:, keep][keep]
        self.win_count = self.win_count[keep]

    def validate(self, q_max: int | None = None, allow_isolated: bool = True) -> None:
        """Check the structural invariants, raising MapStructureError on the
        first violation.

        With ``q_max`` given, also checks the degree bound; with
        ``allow_isolated=False``, requires every neuron to have at least one
        edge (only meaningful for maps with m >= 2).
        """
        m = self.m
        if m < 1:
            raise MapStructureError("map has no neurons")
        if self.weights.shape[0] != m or self.win_count.shape != (m,):
            raise MapStructureError("per-neuron array lengths disagree")
        if self.positions.shape != (m, 2):
            raise MapStructureError(f"positions must be (m, 2), got {self.positions.shape}")
        if self.edges.shape != (m, m) or self.ages.shape != (m, m):
            raise MapStructureError("edge/age matrices must be m x m")
        if not np.all(np.isfinite(self.weights)):
            raise MapStructureError("weights contain non-finite values")
        if not np.all(np.isfinite(self.positions)):
            raise MapStructureError("positions contain non-finite values")
        if self.edges.dtype != np.bool_:
            raise MapStructureError("edges must be a boolean matrix")
        if np.any(self.edges != self.edges.T):
            raise MapStructureError("edges must be symmetric")
        if np.any(np.diag(self.edges)):
            raise MapStructureError("edges must have a zero diagonal")
        if np.any(self.ages != self.ages.T):
            raise MapStructureError("ages must be symmetric")
        if np.any(np.diag(self.ages) != 0):
            raise MapStructureError("ages must have a zero diagonal")
        if np.any(self.ages < 0):
            raise MapStructureError("ages must be non-negative")
        if np.any((self.ages > 0) & ~self.edges):
            raise MapStructureError("positive age on a non-existent edge")
        if np.any(self.win_count < 0):
            raise MapStructureError("negative win count")
        if q_max is not None and np.any(self.degrees() > q_max):
            raise MapStructureError(f"degree exceeds {q_max}")
        if not allow_isolated and m >= 2 and np.any(self.degrees() == 0):
            raise MapStructureError("isolated neuron present")


@dataclass
class Assignment:
    """Winner and runner-up for every pattern of a dataset, against a map of
    ``m`` neurons.

    ``dist`` holds the squared distance to the winner. ``second`` is -1 when
    the map has a single neuron. ``wins`` (length ``m``) counts the patterns
    each neuron won; it is derived from ``winner`` here and nowhere else, so
    every per-neuron measure reads the same counts. It is counted on first
    read and kept, so a caller that never reads it (a smoothing epoch whose
    winners did not change) never pays for it; the arrays of an assignment
    are not changed once made.
    """

    winner: np.ndarray
    second: np.ndarray
    dist: np.ndarray
    m: int

    @cached_property
    def wins(self) -> np.ndarray:
        return np.bincount(self.winner, minlength=self.m).astype(np.int64)


# Score-block budget of assign_all: at most CHUNK float64 entries (1 MB) per
# block of patterns, so memory stays O(CHUNK) however large n and m grow. A
# block this size stays in a core's L2 cache (2 MB where it was measured)
# through the GEMM that writes it and the three argmin passes that read it;
# a 2 MB block does not, and a 512 KB budget splits 600 x 158 score arrays
# (perfbench's ladder rung) in two blocks, which run slower than one.
CHUNK = 1 << 17

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
# Above this pattern-plus-weight scale an intermediate could overflow and
# void the error bound, so such rows take the exact path.
_MAX_SCALE = np.finfo(np.float64).max / 8


def _in_blocks(search, rows: tuple, step: int, *args):
    """``search(*blocks, *args)`` over blocks of at most ``step`` rows of
    each array of ``rows`` (arrays of one row count), its (int, int, float,
    float) results joined; rows that fit in one block are searched whole,
    with nothing preallocated."""
    n = rows[0].shape[0]
    if n <= step:
        return search(*rows, *args)
    out = (np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64), np.empty(n), np.empty(n))
    for start in range(0, n, step):
        stop = start + step
        for whole, part in zip(out, search(*(r[start:stop] for r in rows), *args)):
            whole[start:stop] = part
    return out


def _exact_block(patterns: np.ndarray, weights: np.ndarray):
    """``_exact_rows`` of one block of rows, from one difference array.
    ``weights`` is (m, d), or (n, m, d) for neurons of each row's own."""
    n, m = patterns.shape[0], weights.shape[-2]
    diff = patterns[:, None, :] - weights
    d2 = np.einsum("nmd,nmd->nm", diff, diff)
    rows = np.arange(n)
    best = d2.argmin(axis=1)
    dist = d2[rows, best]
    if m == 1:
        return best, np.full(n, -1, dtype=np.int64), dist, np.full(n, np.inf)
    d2[rows, best] = np.inf
    second = d2.argmin(axis=1)
    d2[rows, second] = np.inf
    return best, second, dist, d2.min(axis=1)


def _exact_rows(patterns: np.ndarray, weights: np.ndarray):
    """Winner, runner-up (-1 when m = 1), winner distance and third-smallest
    squared distance (inf when m = 1) by brute force, summing the squares of
    every ``p - w`` over d in blocks under CHUNK entries: the reference that
    ``assign_all`` reproduces bit for bit, and its search of a one-neuron map.
    """
    m, d = weights.shape
    return _in_blocks(_exact_block, (patterns,), max(1, CHUNK // (m * d)), weights)


def _tol(scale, d: int):
    """Error bound of a GEMM score plus brute-force rounding at scale |p|^2 + max |w|^2."""
    return 8.0 * (d + 2) * (_EPS * scale + _TINY)


def _pair(patterns: np.ndarray, weights: np.ndarray, cand: np.ndarray):
    """Winner, runner-up and both squared distances of each row among its two
    candidates ``cand``, by the brute-force formula, ordered by (distance, index).
    Each row of ``cand`` lists its two neurons in index order, so only a
    strictly nearer second candidate goes first."""
    diff = patterns[:, None, :] - weights.take(cand, axis=0)
    d2 = np.einsum("nmd,nmd->nm", diff, diff)
    a, b, d2_a, d2_b = cand[:, 0], cand[:, 1], d2[:, 0], d2[:, 1]
    flip = d2_b < d2_a
    near, far = np.minimum(d2_a, d2_b), np.maximum(d2_a, d2_b)
    return np.where(flip, b, a), np.where(flip, a, b), near, far


def _bound(third: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Lower bound on the distance whose square is ``third`` within ``tol``,
    kept finite past _MAX_SCALE since ``third`` may have overflowed."""
    return np.sqrt(np.maximum(np.minimum(third, _MAX_SCALE) - 2.0 * tol, 0.0))


def _search(patterns: np.ndarray, weights: np.ndarray, rows=None, own=None):
    """Winner, runner-up, winner distance and a lower bound on each row's
    distance to every other neuron of its run, for a batch of runs of two
    neurons or more: ``rows`` counts each run's consecutive rows, ``own``
    lists its neurons, ascending, padded with index m; by default one run
    holds everything (``assign_all``'s batch of one, which may have one
    neuron: then brute force, inf bounds). Indices count all runs' neurons.

    The runs are stacked as (runs, R_max, d + 1) @ (runs, d + 1, m_max), in
    blocks of at most CHUNK scores: [p, 1] per row, runs padded with zero
    rows, against each run's [-2 W^T; |w|^2], padded with zero weights of
    inf norm, which score +inf. A block does only what needs its scores:
    the GEMM, three ``argmin`` passes for each row's best two candidates
    and its third best score, and the brute-force recompute of the two by
    ``_pair``; what is left takes the whole batch at once from O(n) vectors.
    Padded rows are dropped at the end; a batch without padding adds no
    pass over the scores. A score sums d + 1 terms of magnitude at most
    2 scale, scale = |p|^2 + its run's max |w|^2, and the norm is within
    d eps |w|^2, so it is off by at most (3 d + 2) eps scale in any
    summation order (scaling by two moves no rounding): inside ``tol``,
    8 (d + 2) eps scale. A row whose third best score is not clear of the
    second by 2 ``tol`` is searched by ``_among``, all such rows in one
    call. Only the bound, from the third best score or distance, depends on
    the blocking.
    """
    (n, d), m = patterns.shape, weights.shape[0]
    if m == 1:
        return (*_exact_rows(patterns, weights)[:3], np.full(n, np.inf))
    if own is None:
        rows, own = [n], np.arange(m)[None]
    k, m_max = own.shape
    r_max = max(rows)
    # [-2 W^T; |w|^2] of every neuron, and in column m a zero weight whose
    # norm turns inf once each run's largest norm is read
    w_aug = np.empty((d + 1, m + 1))
    np.multiply(weights.T, -2.0, out=w_aug[:d, :m])
    np.einsum("md,md->m", weights, weights, out=w_aug[d, :m])
    w_aug[:, m] = 0.0
    w_sq_max = w_aug[d].take(own).max(axis=1, keepdims=True)
    w_aug[d, m] = np.inf
    w_aug = w_aug.take(own, axis=1).transpose(1, 0, 2)
    # run r's row j in slot (r, j); the slots past a run's rows hold zeros
    real = slice(None) if n == k * r_max else (np.arange(r_max) < np.array(rows)[:, None]).ravel()
    ones = np.zeros((k * r_max, d + 1))
    ones[:, d] = 1.0
    ones[real, :d] = patterns
    p = ones[:, :d]
    ones = ones.reshape(k, r_max, d + 1)

    def block(part: np.ndarray):
        # winner, runner-up and winner distance of each slot of the block,
        # and its second and third best scores (squared distance minus
        # |p|^2, within tol); the third best is read at its argmin once the
        # best two are masked out
        g = (part @ w_aug).reshape(-1, m_max)
        slots = np.arange(g.shape[0])
        a = g.argmin(axis=1)
        g[slots, a] = np.inf
        b = g.argmin(axis=1)
        g_b = g[slots, b]
        g[slots, b] = np.inf
        g_c = g[slots, g.argmin(axis=1)]
        cand = np.empty((k, part.shape[1], 2), dtype=np.int64)
        np.minimum(a, b, out=cand[..., 0].reshape(-1))
        np.maximum(a, b, out=cand[..., 1].reshape(-1))
        cand += own[:, :1, None]
        winner, second, dist, _ = _pair(part[..., :d].reshape(-1, d), weights, cand.reshape(-1, 2))
        return winner, second, dist, g_b, g_c

    step = max(1, CHUNK // (k * m_max))
    if step >= r_max:
        found = block(ones)
    else:
        # slot (r, j) of every block written into (runs, R_max) arrays; a
        # block's temporaries are freed before the next block is scored
        found = [np.empty((k, r_max), dtype) for dtype in [np.int64] * 2 + [np.float64] * 3]
        for lo in range(0, r_max, step):
            for whole, part in zip(found, block(ones[:, lo : lo + step])):
                whole[:, lo : lo + step] = part.reshape(k, -1)
        found = [x.reshape(-1) for x in found]
    winner, second, dist, g_b, g_c = found
    p_sq = np.einsum("nd,nd->n", p, p)
    scale = (p_sq.reshape(k, -1) + w_sq_max).reshape(-1)
    tol = _tol(scale, d)
    # only a slot past _MAX_SCALE can overflow here, and _among searches it
    with np.errstate(over="ignore", invalid="ignore"):
        third = g_c + p_sq
        slow = (~((g_c - g_b > 2.0 * tol) & (scale < _MAX_SCALE))).nonzero()[0]
    if slow.size:
        found = _among(p[slow], weights, own.take(slow // r_max, axis=0))
        winner[slow], second[slow], dist[slow], third[slow] = found
    # the slots in order are the rows, once the padded ones are dropped
    return tuple(x[real] for x in (winner, second, dist, _bound(third, tol)))


def assign_all(data: Dataset, map_state: MapState) -> Assignment:
    """Assign every pattern its winner and runner-up against frozen weights.

    Pure with respect to both arguments. Winner ties go to the lowest neuron
    index; the runner-up is the best neuron excluding the winner (or -1 for a
    single-neuron map). ``dist`` is the squared distance to the winner.

    Exactness: the result is bit-identical to the brute-force search
    ``_exact_rows`` (squared differences summed over d for every pair). It
    is the batch of one of the chunked GEMM search ``_search``: the n x m
    scores are made and read one block of at most CHUNK entries at a time,
    so working memory is one such block plus O(n * d) (the augmented
    patterns and one block's recomputed pairs), never O(n * m * d).
    """
    if data.d != map_state.d:
        raise DataError(f"dataset d={data.d} does not match map d={map_state.d}")
    winner, second, dist, _ = _search(data.patterns, map_state.weights)
    return Assignment(winner, second, dist, map_state.m)


def _among(patterns: np.ndarray, weights: np.ndarray, cand: np.ndarray):
    """``_exact_rows`` of each row among its own candidates: winner,
    runner-up, winner distance and third-smallest squared distance by brute
    force, over the neurons that row of ``cand`` lists in ascending order
    (at least two). Index m stands for a neuron at inf, which pads a row's
    list: an inf distance loses every ``argmin`` tie to the neurons before
    it. Blocks of rows keep the difference array under CHUNK entries. The
    winner and runner-up are neuron indices."""
    m, d = weights.shape
    padded = np.concatenate([weights, np.full((1, d), np.inf)])

    def block(part: np.ndarray, own: np.ndarray):
        best, second, dist, third = _exact_block(part, padded.take(own, axis=0))
        at = np.arange(own.shape[0])
        return own[at, best], own[at, second], dist, third

    return _in_blocks(block, (patterns, cand), max(1, CHUNK // (cand.shape[1] * d)))


# PrunedSearch's padded brute-force budget per run; past it one batched GEMM
# search. Without it perfbench's iris-protocol (5 runs, m ~ 60, d = 4, ~23
# rows searched again per epoch) was slower in 9 of 10 alternating pairs.
EXACT_ROUTE = 8192


class PrunedSearch:
    """``assign_all`` of one dataset against weights that move a little per
    call, bit for bit, for one run or several side by side. Each row carries
    its pair and a lower bound on its distance to every other neuron of its
    run, lowered each call by its run's largest weight movement, rounded up
    (Elkan 2003, Hamerly 2010). A row keeps its pair while both pair
    distances, recomputed as in ``assign_all``, stay under the squared bound
    by ``tol``; the rest are searched again, and only their pairs are written
    back, in place and in index order, as ``_pair`` takes them. The first
    call has no bounds, so it searches every row. A call in which no row
    fails its bound makes no search call at all. O(n) state.

    ``runs`` splits the rows of ``data`` and the neurons of the weights into
    consecutive runs, one ``(rows, neurons)`` per run; a single search is a
    run of one, ``[(data.n, m)]``. A row is searched among its own run's
    neurons only, the movement and ``tol`` are each run's own (a maximum is
    exact), and the indices returned count the neurons of all runs in order.
    All runs' rows searched again take one search call. A pair needs two
    neurons, so a run of fewer raises MapStructureError.
    """

    def __init__(self, data: Dataset, runs):
        self.patterns = data.patterns
        p_sq = np.einsum("nd,nd->n", data.patterns, data.patterns)
        rows, neurons = zip(*runs)
        if sum(rows) != data.n:
            raise DataError(f"runs hold {sum(rows)} rows, the data {data.n}")
        if min(neurons) < 2:
            raise MapStructureError("the pruned search needs at least 2 neurons per run")
        self.runs = len(rows)
        self.neurons = np.array(neurons)
        self.row_starts = np.cumsum(rows) - rows
        self.neuron_starts = np.cumsum(neurons) - self.neurons
        self.p_sq_max = np.maximum.reduceat(p_sq, self.row_starts)
        self.run_of_row = np.repeat(np.arange(self.runs), rows)
        # each run's neurons in a row, ascending, padded with index m, the
        # inf neuron of _among and an inf score column of _search
        local = np.arange(self.neurons.max())
        self.padded = np.where(
            local < self.neurons[:, None],
            self.neuron_starts[:, None] + local,
            self.neurons.sum(),
        )
        # no pair yet: a zero bound sends every row to the search
        self.pair = np.zeros((data.n, 2), dtype=np.int64)
        self.bound = np.zeros(data.n)
        self.prev = None

    def assign(self, weights: np.ndarray) -> Assignment:
        """The assignment of every row against ``weights``, which this
        search reads only and copies for the next call's movement."""
        patterns, starts = self.patterns, self.neuron_starts
        m, d = weights.shape
        if m != self.neurons.sum():
            raise MapStructureError(f"weights hold {m} neurons, the runs {self.neurons.sum()}")
        step = weights - (weights if self.prev is None else self.prev)
        self.prev = weights.copy()
        # the factor below 1 covers the rounding of the subtraction; a
        # non-finite movement leaves no bound positive
        top = np.maximum.reduceat(np.einsum("md,md->m", step, step), starts)
        move = np.sqrt(top) * (1.0 + (d + 2) * _EPS)
        # one tol per run, at the largest scale of any of its rows
        top = np.maximum.reduceat(np.einsum("md,md->m", weights, weights), starts)
        tol = _tol(self.p_sq_max + top, d).take(self.run_of_row)
        self.bound = bound = (self.bound - move.take(self.run_of_row)) * (1.0 - _EPS)
        winner, second, dist, far = _pair(patterns, weights, self.pair)
        redo = (~((bound > 0.0) & (far + tol < bound * bound))).nonzero()[0]
        if redo.size:
            # every run's rows in one call: padded brute force while that
            # work is within EXACT_ROUTE per run, else the batched GEMM search
            run = self.run_of_row.take(redo)
            if redo.size * self.padded.shape[1] * d <= min(EXACT_ROUTE * self.runs, CHUNK):
                *found, third = _among(patterns[redo], weights, self.padded.take(run, axis=0))
                found = (*found, _bound(third, tol.take(redo)))
            else:
                rows = np.bincount(run, minlength=self.runs)
                some = rows.nonzero()[0]
                found = _search(patterns[redo], weights, rows[some].tolist(), self.padded[some])
            for whole, part in zip((winner, second, dist, bound), found):
                whole[redo] = part
            self.pair[redo, 0] = np.minimum(found[0], found[1])
            self.pair[redo, 1] = np.maximum(found[0], found[1])
        return Assignment(winner, second, dist, m)


def winner_means(data: Dataset, assignment: Assignment) -> np.ndarray:
    """Mean of the patterns won by each neuron; zero rows for empty neurons.

    One ``np.bincount`` over (winner, coordinate) bins adds each neuron's
    patterns coordinate by coordinate in pattern order, the sums one
    bincount per coordinate would give.
    """
    m, d = assignment.m, data.d
    counts = assignment.wins.astype(np.float64)
    bins = (assignment.winner[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=data.patterns.ravel(), minlength=m * d).reshape(m, d)
    means = np.zeros_like(sums)
    np.divide(sums, counts[:, None], out=means, where=counts[:, None] > 0)
    return means


def per_neuron_quantization(assignment: Assignment) -> np.ndarray:
    """Mean distance (root of the squared distance) of each neuron's patterns.

    Neurons that won nothing get NaN, the designated "empty" marker.
    """
    m = assignment.m
    counts = assignment.wins.astype(np.float64)
    sums = np.bincount(assignment.winner, weights=np.sqrt(assignment.dist), minlength=m)
    out = np.full(m, np.nan)
    np.divide(sums, counts, out=out, where=counts > 0)
    return out


def mean_quantization_error(assignment: Assignment) -> float:
    """Mean distance of all patterns to their winners.

    The sum and division ``np.mean`` makes, a pairwise ``np.add.reduce``
    divided by n, without its per-call dispatch.
    """
    return _mean_root(assignment.dist)


def _mean_root(dist: np.ndarray) -> float:
    """The mean of the roots of ``dist``, as ``mean_quantization_error``
    takes it."""
    return float(np.add.reduce(np.sqrt(dist)) / dist.size)
