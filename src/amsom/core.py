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
        Integer class ids aligned with ``patterns``.
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
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.patterns.shape[0],):
                raise DataError("labels must be one integer per pattern")

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
    """Winner, runner-up and winner distance by brute force.

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
            second[start:stop] = np.argmin(d2, axis=1)
    return winner, second, dist


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
    patterns, weights = data.patterns, map_state.weights
    n = data.n
    m, d = weights.shape
    if m <= 2:
        return Assignment(*_exact_rows(patterns, weights), m)

    winner = np.empty(n, dtype=np.int64)
    second = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
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

        cand = np.stack([a, b], axis=1)
        diff = block[:, None, :] - weights[cand]
        d2 = np.einsum("nmd,nmd->nm", diff, diff)
        flip = (d2[:, 1] < d2[:, 0]) | ((d2[:, 1] == d2[:, 0]) & (b < a))
        first = flip.astype(np.intp)
        winner[start:stop] = cand[rows, first]
        second[start:stop] = cand[rows, 1 - first]
        dist[start:stop] = d2[rows, first]

        # tol bounds the score error plus the rounding of the brute-force
        # sums; _TINY covers products that underflow
        scale = np.einsum("nd,nd->n", block, block) + w_sq_max
        tol = 8.0 * (d + 2) * (_EPS * scale + _TINY)
        slow = np.flatnonzero(~((g_c - g_b > 2.0 * tol) & (scale < _MAX_SCALE)))
        if slow.size:
            idx = start + slow
            winner[idx], second[idx], dist[idx] = _exact_rows(block[slow], weights)
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
