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
        self.edges = self.edges[np.ix_(keep, keep)]
        self.ages = self.ages[np.ix_(keep, keep)]
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


# Score-block budget of assign_all: at most CHUNK float64 entries (2 MB) per
# block of patterns, so memory stays O(CHUNK) however large n and m grow.
CHUNK = 1 << 18

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
    """Winner, runner-up, winner distance and third-smallest squared distance by brute force.

    Forms every difference ``p - w`` and sums its squares over d, in blocks
    of rows that keep the difference array under CHUNK entries. This is the
    reference that ``assign_all`` reproduces bit for bit, and the path it
    takes for maps of at most two neurons and for rows whose shortlist is
    too close to call. The runner-up is -1 and the third distance inf when
    m = 1.
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


def _search_block(block: np.ndarray, ones: np.ndarray, weights: np.ndarray, w_aug, w_sq_max):
    """``_search`` of one block of rows. ``ones`` is the block with a column
    of ones appended and ``w_aug`` stacks -2 W^T over the squared weight
    norms, so one GEMM makes every score |w|^2 - 2 p.w, with no pass over
    the scores to add the norms. Scaling by a power of two moves no rounding
    short of underflow. A score is a dot product of d + 1 terms whose
    magnitudes sum to 2 |p||w| + |w|^2 <= 2 (|p|^2 + max |w|^2), and the
    norm it adds is itself within d eps |w|^2, so to first order in eps it
    is off by at most (3 d + 2) eps scale, scale = |p|^2 + max |w|^2, in any
    summation order: inside the ``tol`` of 8 (d + 2) eps scale, which
    certifies every winner either way. After the best two scores are masked
    out, the third is read at its ``argmin``, the value ``min`` would give."""
    d = weights.shape[1]
    rows = np.arange(block.shape[0])

    # squared distance minus |p|^2, within tol of its true value
    g = ones @ w_aug
    a = g.argmin(axis=1)
    g[rows, a] = np.inf
    b = g.argmin(axis=1)
    g_b = g[rows, b]
    g[rows, b] = np.inf
    g_c = g[rows, g.argmin(axis=1)]

    cand = np.empty((rows.size, 2), dtype=np.int64)
    np.minimum(a, b, out=cand[:, 0])
    np.maximum(a, b, out=cand[:, 1])
    winner, second, dist, _ = _pair(block, weights, cand)

    p_sq = np.einsum("nd,nd->n", block, block)
    scale = p_sq + w_sq_max
    tol = _tol(scale, d)
    third = g_c + p_sq
    slow = (~((g_c - g_b > 2.0 * tol) & (scale < _MAX_SCALE))).nonzero()[0]
    if slow.size:
        winner[slow], second[slow], dist[slow], third[slow] = _exact_rows(block[slow], weights)
    return winner, second, dist, _bound(third, tol)


def _search(patterns: np.ndarray, weights: np.ndarray):
    """The search of ``assign_all``: winner, runner-up, winner distance and
    a lower bound on each row's distance to every other neuron, from its
    third-best score (or brute-force distance); inf when m <= 2."""
    n, d = patterns.shape
    m = weights.shape[0]
    if m <= 2:
        return (*_exact_rows(patterns, weights)[:3], np.full(n, np.inf))
    w_aug = np.empty((d + 1, m))
    np.multiply(weights.T, -2.0, out=w_aug[:d])
    w_sq = np.einsum("md,md->m", weights, weights, out=w_aug[d])
    ones = np.empty((n, d + 1))
    ones[:, :d] = patterns
    ones[:, d] = 1.0
    return _in_blocks(
        _search_block, (patterns, ones), max(1, CHUNK // m), weights, w_aug, w_sq.max()
    )


def assign_all(data: Dataset, map_state: MapState) -> Assignment:
    """Assign every pattern its winner and runner-up against frozen weights.

    Pure with respect to both arguments. Winner ties go to the lowest neuron
    index; the runner-up is the best neuron excluding the winner (or -1 for a
    single-neuron map). ``dist`` is the squared distance to the winner.

    Exactness: the result is bit-identical to the brute-force search
    ``_exact_rows`` (squared differences summed over d for every pair).
    Patterns are scored in blocks of ``max(1, CHUNK // m)`` rows with one
    GEMM, ``[p, 1] @ [-2 W^T; |w|^2]``; the two best scores are recomputed
    by the brute-force formula and ordered by (distance, index). A row whose third
    best score is not clear of the second by twice the rounding bound
    ``8 (d + 2) eps (|p|^2 + max |w|^2)`` cannot be decided from the scores
    and is searched by brute force instead, as are all rows of a map with at
    most two neurons. Working memory beyond the O(n) result is O(chunk * m),
    at most CHUNK entries per block, never O(n * m * d).
    """
    if data.d != map_state.d:
        raise DataError(f"dataset d={data.d} does not match map d={map_state.d}")
    winner, second, dist, _ = _search(data.patterns, map_state.weights)
    return Assignment(winner, second, dist, map_state.m)


# PrunedSearch sends the rows of one run it searches again to the
# brute-force _exact_rows while rows * m * d is at most this, else to the GEMM
# search. With one BLAS thread on a 2-core x86 host the two cross between 4800
# and 8100 entries at m=150, d=2, and between 8260 and 11800 at m=59, d=4.
# Rows of several runs are searched in one brute-force call while their
# padded work is at most EXACT_ROUTE per run (and CHUNK in all).
EXACT_ROUTE = 8192


class PrunedSearch:
    """``assign_all`` of one dataset against weights that move a little per
    call, bit for bit. Each row carries its pair and a lower bound on its
    distance to every other neuron, lowered each call by the largest weight
    movement, rounded up (Elkan 2003, Hamerly 2010). A row keeps its pair
    while both pair distances, recomputed as in ``assign_all``, stay under
    the squared bound by ``tol``; the rest are searched again, and only
    their pairs are written back, in place and in index order, as ``_pair``
    takes them. A call in which no row fails its bound makes no search call
    at all. O(n) state. A pair needs two neurons, so a map of one raises
    MapStructureError.

    ``runs`` splits the rows of ``data`` and the neurons of the weights into
    consecutive runs, one ``(rows, neurons)`` per run; the default is one run
    of every row and every neuron. A row is searched among its own run's
    neurons only, the movement and ``tol`` are each run's own (a maximum is
    exact), and the indices returned count the neurons of all runs in order.
    Rows of several runs searched again share one brute-force call against
    their runs' weights padded with inf to the largest run; past
    ``EXACT_ROUTE`` per run, each run's rows take the route one run would.
    """

    def __init__(self, data: Dataset, runs=None):
        self.patterns = data.patterns
        p_sq = np.einsum("nd,nd->n", data.patterns, data.patterns)
        rows, neurons = zip(*runs) if runs is not None else ((data.n,), (0,))
        if sum(rows) != data.n:
            raise DataError(f"runs hold {sum(rows)} rows, the data {data.n}")
        if runs is not None and min(neurons) < 2:
            raise MapStructureError("the pruned search needs at least 2 neurons per run")
        self.runs = len(rows)
        self.neurons = np.array(neurons)
        self.row_starts = np.cumsum(rows) - rows
        self.neuron_starts = np.cumsum(neurons) - self.neurons
        self.p_sq_max = self._per_run(np.maximum.reduceat(p_sq, self.row_starts))
        if self.runs > 1:
            self.run_of_row = np.repeat(np.arange(self.runs), rows)
            # each run's neurons in a row, padded with the index of an inf row
            # appended to the weights: inf distances lose every argmin tie to
            # the run's own neurons, which come first
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

    def _per_run(self, values: np.ndarray):
        """One value per run, as a scalar for a single run: the arithmetic on
        it then runs on scalars, with the bits of the array's."""
        return values[0] if self.runs == 1 else values

    def __call__(self, map_state: MapState) -> Assignment:
        return self.assign(map_state.weights)

    def assign(self, weights: np.ndarray) -> Assignment:
        """The assignment of every row against ``weights``, which this
        search reads only and copies for the next call's movement."""
        patterns, starts = self.patterns, self.neuron_starts
        m, d = weights.shape
        if m < 2:
            raise MapStructureError("the pruned search needs at least 2 neurons")
        step = weights - (weights if self.prev is None else self.prev)
        self.prev = weights.copy()
        # the factor below 1 covers the rounding of the subtraction; a
        # non-finite movement leaves no bound positive
        top = self._per_run(np.maximum.reduceat(np.einsum("md,md->m", step, step), starts))
        move = np.sqrt(top) * (1.0 + (d + 2) * _EPS)
        # one tol per run, at the largest scale of any of its rows
        top = self._per_run(np.maximum.reduceat(np.einsum("md,md->m", weights, weights), starts))
        tol = _tol(self.p_sq_max + top, d)
        if self.runs > 1:
            move, tol = move.take(self.run_of_row), tol.take(self.run_of_row)
        self.bound = bound = (self.bound - move) * (1.0 - _EPS)
        winner, second, dist, far = _pair(patterns, weights, self.pair)
        redo = (~((bound > 0.0) & (far + tol < bound * bound))).nonzero()[0]
        if redo.size:
            for rows, again in self._search_again(redo, weights, tol):
                for whole, part in zip((winner, second, dist, bound), again):
                    whole[rows] = part
                self.pair[rows, 0] = np.minimum(again[0], again[1])
                self.pair[rows, 1] = np.maximum(again[0], again[1])
        return Assignment(winner, second, dist, m)

    def _search_again(self, redo: np.ndarray, weights: np.ndarray, tol) -> list:
        """``(rows, (winner, second, dist, bound))`` for the rows ``redo``:
        of all of them from one search, or of each run's rows from its own."""
        patterns = self.patterns
        if self.runs == 1:
            return [(redo, _search_run(patterns[redo], weights, tol))]
        d = weights.shape[1]
        runs = self.run_of_row.take(redo)
        start = self.neuron_starts.take(runs)
        if redo.size * self.padded.shape[1] * d <= min(EXACT_ROUTE * self.runs, CHUNK):
            inf_row = np.full((1, d), np.inf)
            own = np.concatenate([weights, inf_row]).take(self.padded.take(runs, axis=0), axis=0)
            best, second, dist, third = _exact_block(patterns[redo], own)
            return [(redo, (best + start, second + start, dist, _bound(third, tol[redo])))]
        found = []
        cuts = np.searchsorted(redo, self.row_starts).tolist() + [redo.size]
        for run, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            if lo < hi:
                rows, a = redo[lo:hi], start[lo]
                own = weights[a : a + self.neurons[run]]
                winner, second, dist, bound = _search_run(patterns[rows], own, tol[rows])
                found.append((rows, (winner + a, second + a, dist, bound)))
        return found


def _search_run(patterns: np.ndarray, weights: np.ndarray, tol):
    """Winner, runner-up, winner distance and bound of rows searched again
    against one run's weights: by brute force while rows * m * d is at most
    EXACT_ROUTE, with the bound from the third distance within ``tol``, else
    by the GEMM search."""
    m, d = weights.shape
    if patterns.shape[0] * m * d <= EXACT_ROUTE:
        *found, third = _exact_rows(patterns, weights)
        return (*found, _bound(third, tol))
    return _search(patterns, weights)


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
