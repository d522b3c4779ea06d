"""Core containers and winner-search primitives.

Everything downstream (the adaptive trainer, the fixed-lattice baseline and the
metrics) works in terms of three small structures: a ``Dataset`` of input
patterns, a ``MapState`` holding the neuron population, and an ``Assignment``
mapping every pattern to its best and second-best neuron.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    every per-neuron measure reads the same counts.
    """

    winner: np.ndarray
    second: np.ndarray
    dist: np.ndarray
    m: int
    wins: np.ndarray = field(init=False)

    def __post_init__(self):
        self.wins = np.bincount(self.winner, minlength=self.m).astype(np.int64)


# Score-block budget of assign_all: at most CHUNK float64 entries (2 MB) per
# block of patterns, so memory stays O(CHUNK) however large n and m grow.
CHUNK = 1 << 18

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
# Above this pattern-plus-weight scale an intermediate could overflow and
# void the error bound, so such rows take the exact path.
_MAX_SCALE = np.finfo(np.float64).max / 8


def _exact_rows(patterns: np.ndarray, weights: np.ndarray):
    """Winner, runner-up, winner distance and third-smallest squared distance by brute force.

    Forms every difference ``p - w`` and sums its squares over d, in blocks
    of rows that keep the difference array under CHUNK entries. This is the
    reference that ``assign_all`` reproduces bit for bit, and the path it
    takes for maps of at most two neurons and for rows whose shortlist is
    too close to call.
    """
    n = patterns.shape[0]
    m, d = weights.shape
    winner = np.empty(n, dtype=np.int64)
    second = np.full(n, -1, dtype=np.int64)
    dist = np.empty(n)
    third = np.full(n, np.inf)
    step = max(1, CHUNK // (m * d))
    for start in range(0, n, step):
        stop = min(n, start + step)
        diff = patterns[start:stop, None, :] - weights[None, :, :]
        d2 = np.einsum("nmd,nmd->nm", diff, diff)
        rows = np.arange(stop - start)
        best = np.argmin(d2, axis=1)
        winner[start:stop] = best
        dist[start:stop] = d2[rows, best]
        if m > 1:
            d2[rows, best] = np.inf
            second[start:stop] = nxt = np.argmin(d2, axis=1)
            d2[rows, nxt] = np.inf
            third[start:stop] = d2.min(axis=1)
    return winner, second, dist, third


def _tol(scale, d: int):
    """Error bound of a GEMM score plus brute-force rounding at scale |p|^2 + max |w|^2."""
    return 8.0 * (d + 2) * (_EPS * scale + _TINY)


def _pair(patterns: np.ndarray, weights: np.ndarray, cand: np.ndarray):
    """Winner, runner-up and both squared distances of each row among its two
    candidates ``cand``, by the brute-force formula, ordered by (distance, index)."""
    diff = patterns[:, None, :] - np.take(weights, cand, axis=0)
    d2 = np.einsum("nmd,nmd->nm", diff, diff)
    a, b, d2_a, d2_b = cand[:, 0], cand[:, 1], d2[:, 0], d2[:, 1]
    flip = (d2_b < d2_a) | ((d2_b == d2_a) & (b < a))
    near, far = np.minimum(d2_a, d2_b), np.maximum(d2_a, d2_b)
    return np.where(flip, b, a), np.where(flip, a, b), near, far


def _bound(third: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Lower bound on the distance whose square is ``third`` within ``tol``,
    kept finite past _MAX_SCALE since ``third`` may have overflowed."""
    return np.sqrt(np.maximum(np.minimum(third, _MAX_SCALE) - 2.0 * tol, 0.0))


def _search(patterns: np.ndarray, weights: np.ndarray):
    """The search of ``assign_all``: winner, runner-up, winner distance and
    a lower bound on each row's distance to every other neuron, from its
    third-best score (or brute-force distance); inf when m <= 2."""
    n = patterns.shape[0]
    m, d = weights.shape
    if m <= 2:
        return (*_exact_rows(patterns, weights)[:3], np.full(n, np.inf))

    winner = np.empty(n, dtype=np.int64)
    second = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
    bound = np.empty(n)
    w_sq = np.einsum("md,md->m", weights, weights)
    w_sq_max = w_sq.max()
    step = max(1, CHUNK // m)
    for start in range(0, n, step):
        stop = min(n, start + step)
        block = patterns[start:stop]
        rows = np.arange(stop - start)

        # squared distance minus |p|^2, within tol of its true value
        g = block @ weights.T
        g *= -2.0
        g += w_sq
        a = np.argmin(g, axis=1)
        g[rows, a] = np.inf
        b = np.argmin(g, axis=1)
        g_b = g[rows, b]
        g[rows, b] = np.inf
        g_c = g.min(axis=1)

        winner[start:stop], second[start:stop], dist[start:stop], _ = _pair(
            block, weights, np.stack([a, b], axis=1)
        )

        p_sq = np.einsum("nd,nd->n", block, block)
        scale = p_sq + w_sq_max
        tol = _tol(scale, d)
        third = g_c + p_sq
        slow = np.flatnonzero(~((g_c - g_b > 2.0 * tol) & (scale < _MAX_SCALE)))
        if slow.size:
            idx = start + slow
            winner[idx], second[idx], dist[idx], third[slow] = _exact_rows(block[slow], weights)
        bound[start:stop] = _bound(third, tol)
    return winner, second, dist, bound


def assign_all(data: Dataset, map_state: MapState) -> Assignment:
    """Assign every pattern its winner and runner-up against frozen weights.

    Pure with respect to both arguments. Winner ties go to the lowest neuron
    index; the runner-up is the best neuron excluding the winner (or -1 for a
    single-neuron map). ``dist`` is the squared distance to the winner.

    Exactness: the result is bit-identical to the brute-force search
    ``_exact_rows`` (squared differences summed over d for every pair).
    Patterns are scored in blocks of ``max(1, CHUNK // m)`` rows with one
    GEMM, ``|w|^2 - 2 p.w``; the two best scores are recomputed by the
    brute-force formula and ordered by (distance, index). A row whose third
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


# PrunedSearch sends the rows it searches again to the brute-force
# _exact_rows while rows * m * d is at most this, else to the GEMM search.
# With one BLAS thread on a 2-core x86 host the two cross between 4800 and
# 8100 entries at m=150, d=2, and between 8260 and 11800 at m=59, d=4.
EXACT_ROUTE = 8192


class PrunedSearch:
    """``assign_all`` of one dataset against weights that move a little per
    call, bit for bit. Each row carries its pair and a lower bound on its
    distance to every other neuron, lowered each call by the largest weight
    movement, rounded up (Elkan 2003, Hamerly 2010). A row keeps its pair
    while both pair distances, recomputed as in ``assign_all``, stay under
    the squared bound by ``tol``; the rest are searched again. O(n) state.
    """

    def __init__(self, data: Dataset):
        self.patterns = data.patterns
        self.p_sq_max = np.einsum("nd,nd->n", data.patterns, data.patterns).max()
        # no pair yet: a zero bound sends every row to the search
        self.pair = np.zeros((data.n, 2), dtype=np.int64)
        self.bound = np.zeros(data.n)
        self.prev = None

    def __call__(self, map_state: MapState) -> Assignment:
        patterns, weights = self.patterns, map_state.weights
        m, d = weights.shape
        step = weights - (weights if self.prev is None else self.prev)
        self.prev = weights.copy()
        # the factor below 1 covers the rounding of the subtraction; a
        # non-finite movement leaves no bound positive
        move = np.sqrt(np.einsum("md,md->m", step, step).max()) * (1.0 + (d + 2) * _EPS)
        bound = (self.bound - move) * (1.0 - _EPS)
        winner, second, dist, far = _pair(patterns, weights, self.pair)
        # one tol for all rows, at the largest scale of any
        tol = _tol(self.p_sq_max + np.einsum("md,md->m", weights, weights).max(), d)
        redo = np.flatnonzero(~((bound > 0.0) & (far + tol < bound * bound)))
        if redo.size * m * d <= EXACT_ROUTE:
            *again, third = _exact_rows(patterns[redo], weights)
            again.append(_bound(third, tol))
        else:
            again = _search(patterns[redo], weights)
        for whole, part in zip((winner, second, dist, bound), again):
            whole[redo] = part
        self.pair, self.bound = np.stack([winner, second], axis=1), bound
        return Assignment(winner, second, dist, m)


def winner_means(data: Dataset, assignment: Assignment) -> np.ndarray:
    """Mean of the patterns won by each neuron; zero rows for empty neurons."""
    m = assignment.m
    counts = assignment.wins.astype(np.float64)
    sums = np.zeros((m, data.d))
    for j in range(data.d):
        sums[:, j] = np.bincount(assignment.winner, weights=data.patterns[:, j], minlength=m)
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
    """Mean distance of all patterns to their winners."""
    return float(np.mean(np.sqrt(assignment.dist)))
