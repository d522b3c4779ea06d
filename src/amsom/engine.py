"""The adaptive trainer: neurons move, gain and lose edges, split and die.

Training runs in two phases. ``train`` performs the structural phase: each
epoch assigns all patterns, refreshes the edge graph from winner/runner-up
pairs, updates weights (batch rule) and positions (attraction between neurons
that are close in input space), prunes aged-out edges and isolated neurons,
possibly splits the worst neuron, and enforces the degree cap. ``smooth`` then
freezes the structure and fine-tunes weights and positions against the
immediate graph neighborhood only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Assignment,
    Dataset,
    MapState,
    PrunedSearch,
    _mean_root,
    assign_all,
    per_neuron_quantization,
    winner_means,
)
from .errors import ConfigError, DataError, MapStructureError, TrainingError
from .grid import MAX_DEGREE, RECTANGULAR, _check_fields, growing_threshold, initial_sigma


@dataclass(frozen=True)
class TrainConfig:
    """All tunables of the trainer and the baseline.

    The defaults reproduce the reference setup: spread factor 0.5, gamma 4,
    position rate 0.01 (annealed with the neighborhood width), smoothing rate
    0.001, edge age cutoff 30, at least 30 epochs between splits, epoch caps
    1000 (training) and 500 (smoothing), termination thresholds 1e-6 and
    1e-10. sigma0=None resolves through ``grid.initial_sigma``: half the
    larger extent of the initial layout plus one cell, at least sigma_final
    (max(rows, cols)/2 on a rectangular lattice). Sigma decays exponentially
    over sigma_decay_epochs and is then held (max_epochs remains the hard
    stop). The decay aims at sigma_final; once the layout freezes, the
    remaining decay is retargeted at the map's own cell width, which on an
    undeformed lattice is sigma_final itself. Building a config, directly or
    through ``dataclasses.replace``, checks every field (ConfigError), kinds
    too: a bool or text for a number, a float for an integer, or a sigma
    whose sigma^2 or gamma sigma^2 is not a positive normal float.
    """

    sf: float = 0.5
    gamma: float = 4.0
    alpha_train: float = 0.01
    alpha_smooth: float = 0.001
    age_max: int = 30
    t_add: int = 30
    max_epochs: int = 1000
    smooth_max_epochs: int = 500
    eps1: float = 1e-6
    eps2: float = 1e-10
    sigma0: float | None = None
    sigma_final: float = 1.0
    sigma_decay_epochs: int = 50
    topology: str = RECTANGULAR
    q_max: int | None = None
    beta_mode: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        for name in ("sf", "alpha_train", "alpha_smooth"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")
        if self.gamma <= 0.0:
            raise ConfigError("gamma must be positive")
        for name in ("age_max", "t_add", "sigma_decay_epochs", "q_max"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.max_epochs < 1 or self.smooth_max_epochs < 1:
            raise ConfigError("epoch caps must be at least 1")
        if not 0.0 < self.eps2 < self.eps1:
            raise ConfigError("need 0 < eps2 < eps1")
        if self.sigma_final <= 0.0:
            raise ConfigError("sigma_final must be positive")
        if self.sigma0 is not None and self.sigma0 < self.sigma_final:
            raise ConfigError("sigma0 must be >= sigma_final")
        for name in ("sigma0", "sigma_final"):
            sigma = getattr(self, name)
            if sigma is not None and not _normal_widths(sigma, self.gamma):
                raise ConfigError(f"{name}={sigma}, gamma={self.gamma}: sigma^2 or gamma "
                                  "sigma^2 is not a positive normal float64")
        if self.topology not in MAX_DEGREE:
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.beta_mode not in ("gaussian", "zero"):
            raise ConfigError(f"unknown beta_mode {self.beta_mode!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    @property
    def effective_q(self) -> int:
        if self.q_max is not None:
            return self.q_max
        return MAX_DEGREE[self.topology]


def _normal_widths(sigma: float, gamma: float) -> bool:
    """Whether sigma^2 and gamma sigma^2, as the kernels form them, are
    positive normal floats; a zero, subnormal or inf width would not do."""
    tiny = np.finfo(np.float64).tiny
    return all(tiny <= width < math.inf for width in (sigma * sigma, gamma * sigma * sigma))


# The kinds of structural event, in the order ``amsom train`` prints them.
EVENT_KINDS = ("edge_aged_out", "edge_trimmed", "neuron_removed", "neuron_split")


class Events:
    """Structural events as parts, each a kind and then the index arrays that
    made them: aged-out edges' rows, columns and ages; trims' neurons and peers
    in cut order; removed neurons; a split's parent, neighbor, new neuron and
    beta. It iterates as dicts of plain ints (and a float beta), in the order
    they happened. Two values are equal when their parts are: the same kinds
    in the same order, with equal arrays."""

    __slots__ = ("_parts",)

    # each kind's dict fields, from one event's values as plain Python numbers
    _FIELDS = {
        "edge_aged_out": lambda i, j, age: {"edge": (i, j), "age": age},
        "edge_trimmed": lambda i, j: {"edge": (min(i, j), max(i, j)), "neuron": i},
        "neuron_removed": lambda i: {"neuron": i},
        "neuron_split": lambda *row: dict(zip(("parent", "neighbor", "new_neuron", "beta"), row)),
    }

    def __init__(self, *parts):
        self._parts = tuple(part for part in parts if len(part[1]))

    def __iter__(self):
        for kind, *columns in self._parts:
            fields = self._FIELDS[kind]
            for values in zip(*(column.tolist() for column in columns)):
                yield {"kind": kind, **fields(*values)}

    def counts(self) -> Counter:
        """The number of events of each kind, in order of first occurrence."""
        tally = Counter()
        for kind, items, *_ in self._parts:
            tally[kind] += len(items)
        return tally

    def __len__(self):
        return sum(len(items) for _, items, *_ in self._parts)

    def __add__(self, other):
        return Events(*self._parts, *other._parts)

    def __eq__(self, other):
        if not isinstance(other, Events):
            return NotImplemented
        return len(self._parts) == len(other._parts) and all(
            a[0] == b[0] and all(map(np.array_equal, a[1:], b[1:]))
            for a, b in zip(self._parts, other._parts)
        )


@dataclass
class EpochReport:
    """What one epoch did: error level and structural events.

    ``events`` is an ``Events`` value (empty in smoothing and the baseline):
    dicts with a ``kind`` key, one of ``EVENT_KINDS``, tallied by
    ``counts()``; indices refer to the map as it stood then.
    """

    epoch: int
    mqe: float
    events: Events = field(default_factory=Events)


# Block budget of _pairwise_sq for d != 2: at most KERNEL_CHUNK float64
# entries (256 KB) of differences per block of rows, so its working memory
# stays O(m * m + KERNEL_CHUNK), never O(m * m * d).
KERNEL_CHUNK = 1 << 15


def _pairwise_sq(points: np.ndarray) -> np.ndarray:
    """The m x m squared distances between the rows of ``points``, bit for bit
    the sum ``np.einsum`` gives over one m x m x d difference array.

    For two columns (every position array) it is dx*dx + dy*dy from two m x m
    differences: one addition of two rounded squares has the same bits in
    either order. Other d take blocks of rows, each summed by the same
    ``einsum`` over its differences with the columns from its first row on,
    and mirrored below the diagonal: fl(a - b) = -fl(b - a), so both halves
    square to the same bits.
    """
    m, d = points.shape
    if d == 2:
        x, y = points[:, 0], points[:, 1]
        sq = x[:, None] - x
        dy = y[:, None] - y
        # an overflowing square or sum is inf, as in the einsum, without its warning
        with np.errstate(over="ignore"):
            sq *= sq
            dy *= dy
            sq += dy
        return sq
    sq = np.empty((m, m))
    step = max(1, KERNEL_CHUNK // (m * d))
    for start in range(0, m, step):
        stop = min(start + step, m)
        diff = points[start:stop, None, :] - points[start:]
        block = np.einsum("ijk,ijk->ij", diff, diff)
        sq[start:stop, start:] = block
        sq[start:, start:stop] = block.T
    return sq


def _input_kernel(weights: np.ndarray, sigma: float, gamma: float) -> np.ndarray:
    """exp(-|w_j - w_i|^2 / (gamma sigma^2)) over all pairs, in place: x / -c
    has the bits of -x / c, since negation is exact and rounding symmetric."""
    k = _pairwise_sq(weights)
    k /= -(gamma * sigma * sigma)
    return np.exp(k, out=k)


def batch_weight_update(
    map_state: MapState,
    assignment: Assignment,
    data: Dataset,
    sigma: float,
    *,
    sq_dist: np.ndarray | None = None,
) -> np.ndarray:
    """One batch weight step: kernel-weighted average of winner means.

    Every neuron's new weight is sum_j n_j h_ji x_j / sum_j n_j h_ji over the
    neurons j that won patterns (x_j their mean pattern, h the output-space
    kernel at the current positions). Neurons whose denominator is zero keep
    their previous weight. ``sq_dist``, if given, holds the m x m squared
    distances of the current positions, for a caller whose positions never
    move; it is read, never written. By default they are computed here, and
    the kernel is then formed in place in that one m x m array: the bits of
    n_j exp(-sq / sigma^2), with -x / c taken as x / -c (negation is exact
    and rounding symmetric in sign). Returns the new weight matrix without
    touching the map.
    """
    n = assignment.wins.astype(np.float64)
    xbar = winner_means(data, assignment)
    if sq_dist is None:
        k = _pairwise_sq(map_state.positions)
        k /= -(sigma * sigma)
    else:
        k = sq_dist / -(sigma * sigma)
    np.exp(k, out=k)
    k *= n[:, None]
    den = k.sum(axis=0)
    num = k.T @ xbar
    new_w = map_state.weights.copy()
    ok = den > 0.0
    new_w[ok] = num[ok] / den[ok, None]
    return new_w


def position_update(
    map_state: MapState,
    assignment: Assignment,
    sigma: float,
    alpha: float,
    gamma: float,
) -> np.ndarray:
    """One position step: move each neuron toward winners it resembles.

    The displacement of neuron i is alpha times the weighted average of
    (r_j - r_i) over the other neurons j with wins, weighted by n_j and the
    input-space kernel of the current weights. The self term is excluded; a
    zero denominator means no movement. All displacements are computed from
    the positions as they stand, then applied together. The kernel is formed
    in place in one m x m array, and ``_pairwise_sq`` keeps its differences
    to blocks, so the working memory is O(m * m), never O(m * m * d).
    Returns the new position matrix.
    """
    n = assignment.wins.astype(np.float64)
    k = _input_kernel(map_state.weights, sigma, gamma)
    k *= n[:, None]
    np.fill_diagonal(k, 0.0)
    den = k.sum(axis=0)
    num = k.T @ map_state.positions - den[:, None] * map_state.positions
    new_r = map_state.positions.copy()
    ok = den > 0.0
    new_r[ok] += alpha * num[ok] / den[ok, None]
    return new_r


def _pull(state, t, bins, k, pull, rate) -> None:
    """Move each target row of ``state``, in place, by ``rate`` times the
    k-weighted mean of the ``pull`` rows of its pairs, whose targets are
    ``t``. ``bins`` numbers the flattened (pair, coordinate) entries by
    (target, coordinate), so one ``np.bincount`` sums every coordinate in
    pair order, not in a BLAS order. Targets whose weights sum to zero keep
    their row. ``rate`` holds one value per row, as a column."""
    m, dim = state.shape
    den = np.bincount(t, weights=k, minlength=m)
    num = np.bincount(bins, weights=(k[:, None] * pull).ravel(), minlength=m * dim)
    num = num.reshape(m, dim)
    ok = (den > 0.0)[:, None]
    # float64 buffers: bincount over no pairs returns int64
    mean = np.zeros((m, dim))
    np.divide(num, den[:, None], out=mean, where=ok)
    np.add(state, rate * mean, out=state, where=ok)


def _apply_epoch_edges(map_state: MapState, asg: Assignment) -> None:
    """One epoch's edge refresh, presenting the patterns of ``asg`` (an
    assignment to this map) in order: each counts its winner's win, ages the
    winner's edges by one and connects winner and runner-up at age zero.

    Exactly reproduces presenting them one at a time (the oracle
    ``process_pattern_edges`` in tests/conftest.py): an edge that is never
    refreshed ages by the total wins of its endpoints; a refreshed edge
    ends with the wins of its endpoints after its last refresh. The
    edges are found by one flat scan of the adjacency matrix; the rest works
    on their index pairs and on the patterns' pairs.
    """
    m = map_state.m
    edges, ages = map_state.edges, map_state.ages
    winners, seconds, wins = asg.winner, asg.second, asg.wins
    n = len(winners)
    order = np.arange(n)

    flat, i, j = _edge_entries(map_state)
    ages.put(flat, ages.take(flat) + (wins.take(i) + wins.take(j)))

    # last refresh of each pair: the last of its (pair, pattern) keys in order
    code = np.minimum(winners, seconds) * m + np.maximum(winners, seconds)
    keys = np.sort(code * n + order)
    code = keys // n
    last = np.append((code[1:] != code[:-1]).nonzero()[0], n - 1)
    pair_code = code.take(last)
    when = keys.take(last) - pair_code * n
    a, b = np.divmod(pair_code, m)
    # keys order the wins by (neuron, pattern): neuron x's wins after pattern
    # `when` are its keys above x*n + when, which end at index wins_end[x]
    keys = np.sort(winners * n + order)
    wins_end = np.cumsum(wins)
    ends = np.concatenate([a, b])
    left = wins_end.take(ends) - np.searchsorted(keys, ends * n + np.tile(when, 2), side="right")
    after = left[: a.size] + left[a.size :]
    edges[a, b] = edges[b, a] = True
    ages[a, b] = after
    ages[b, a] = after

    map_state.win_count += wins


def _edge_entries(map_state: MapState):
    """Every edge of the map from one flat scan of its adjacency matrix:
    the flat index of each (row, column) entry in row-major order, its row
    and its column. Both entries of an edge are listed."""
    flat = np.flatnonzero(map_state.edges)
    return (flat, *np.divmod(flat, map_state.m))


def _cut_and_drop(map_state: MapState, rows, cols, degrees: np.ndarray) -> Events:
    """Remove the edges (rows[k], cols[k]) in both directions, ages to zero,
    then the neurons with no edges, in ascending index order; ``degrees`` are
    the map's degrees after the cuts, as the caller counted them. A removal
    that would leave fewer than two neurons raises MapStructureError before
    the map changes. It never happens in ``train``: its edge refresh leaves
    an edge of age 0 that no later step of the epoch cuts."""
    isolated = (degrees == 0).nonzero()[0]
    if map_state.m - isolated.size < 2:
        raise MapStructureError(
            f"removing {isolated.size} isolated neurons would leave fewer than 2 of {map_state.m}"
        )
    flat = np.concatenate([rows * map_state.m + cols, cols * map_state.m + rows])
    map_state.edges.put(flat, False)
    map_state.ages.put(flat, 0)
    map_state.delete_neurons(isolated)
    return Events(("neuron_removed", isolated))


def prune_edges_and_neurons(map_state: MapState, age_max: int) -> Events:
    """Cut edges at or past the age cutoff, then drop isolated neurons."""
    flat, rows, cols = _edge_entries(map_state)
    ages = map_state.ages.take(flat)
    aged = ages >= age_max
    upper = (aged & (rows < cols)).nonzero()[0]
    a, b = rows[upper], cols[upper]
    degrees = np.bincount(rows[~aged], minlength=map_state.m)
    return Events(("edge_aged_out", a, b, ages[upper])) + _cut_and_drop(map_state, a, b, degrees)


def maybe_add_neuron(
    map_state: MapState,
    per_neuron_qe: np.ndarray,
    gt: float,
    epochs_since_add: int,
    t_add: int,
    rng: np.random.Generator,
    beta_mode: str = "gaussian",
) -> Events:
    """Split the worst neuron if its error exceeds the growing threshold.

    Eligible only when at least t_add epochs passed since the last split. The
    split replaces neuron u (largest per-neuron error, NaN = empty neurons
    never split) with two offspring: weights (1+beta)*w_u and -beta*w_u, the
    first keeping u's position, the second placed halfway toward the worst
    neighbor v. Both inherit u's edges, gain a mutual edge, and start with all
    incident ages and win counts at zero. beta is a clamped standard normal
    draw (or 0 in "zero" mode). At most one split per call.
    """
    if epochs_since_add < t_add:
        return Events()
    finite = np.isfinite(per_neuron_qe)
    if not finite.any():
        return Events()
    qe = np.where(finite, per_neuron_qe, -np.inf)
    u = int(np.argmax(qe))
    if qe[u] <= gt:
        return Events()
    nbrs = np.flatnonzero(map_state.edges[u])
    if nbrs.size == 0:
        return Events()
    v = int(nbrs[np.argmax(qe[nbrs])])

    if beta_mode == "zero":
        beta = 0.0
    else:
        beta = float(np.clip(rng.standard_normal(), -0.5, 0.5))

    m = map_state.m
    w_u = map_state.weights[u].copy()
    r_u = map_state.positions[u].copy()
    r_v = map_state.positions[v]

    map_state.weights[u] = (1.0 + beta) * w_u
    map_state.weights = np.vstack([map_state.weights, -beta * w_u])
    map_state.positions = np.vstack([map_state.positions, (r_u + r_v) / 2.0])

    edges = np.zeros((m + 1, m + 1), dtype=bool)
    edges[:m, :m] = map_state.edges
    col_u = map_state.edges[u].copy()
    edges[m, :m] = col_u
    edges[:m, m] = col_u
    edges[u, m] = edges[m, u] = True
    map_state.edges = edges

    ages = np.zeros((m + 1, m + 1), dtype=np.int64)
    ages[:m, :m] = map_state.ages
    ages[u, :] = 0
    ages[:, u] = 0
    map_state.ages = ages

    map_state.win_count = np.append(map_state.win_count, 0)
    map_state.win_count[u] = 0

    return Events(("neuron_split", *(np.array([value]) for value in (u, v, m, beta))))


def enforce_degree(map_state: MapState, q: int) -> Events:
    """Trim each neuron down to its q lowest-age edges, then drop isolates.

    Neurons are processed in ascending index order; within a neuron, edges
    are ranked by age then peer index, and everything past the q best is cut.
    Trimming only lowers degrees, so only neurons over the cap at entry can
    need it, and no age changes on the edges that remain: one ``lexsort``
    ranks every such neuron's edges as they stand at entry, and each neuron
    in turn skips the peers that cut their edge to it earlier, then cuts
    the rest past its q best. All cuts are written at the end.
    """
    m = map_state.m
    flat, rows, cols = _edge_entries(map_state)
    degrees = np.bincount(rows, minlength=m)
    heavy = (degrees > q).nonzero()[0]
    over = degrees.take(rows) > q
    rows, cols, flat = rows[over], cols[over], flat[over]
    # each heavy neuron's peers, in ascending neuron order, best first
    peers = cols.take(np.lexsort((cols, map_state.ages.take(flat), rows))).tolist()
    cut_i, cut_j = [], []  # neuron i cut its edge to peer j
    lost = {}  # each neuron's peers that cut their edge to it
    start = 0
    for i, degree in zip(heavy.tolist(), degrees.take(heavy).tolist()):
        ranked = peers[start : start + degree]
        start += degree
        if i in lost:
            ranked = [j for j in ranked if j not in lost[i]]
        for j in ranked[q:]:
            lost.setdefault(j, []).append(i)
            cut_i.append(i)
            cut_j.append(j)
    cut_i, cut_j = np.array(cut_i, dtype=np.intp), np.array(cut_j, dtype=np.intp)
    degrees -= np.bincount(cut_i, minlength=m) + np.bincount(cut_j, minlength=m)
    return Events(("edge_trimmed", cut_i, cut_j)) + _cut_and_drop(map_state, cut_i, cut_j, degrees)


def _sigma_at(config: TrainConfig, sigma0: float, epoch: int) -> float:
    h = config.sigma_decay_epochs
    u = min(epoch, h) / h
    return sigma0 * (config.sigma_final / sigma0) ** u


# Positions stop moving once sigma falls to this multiple of sigma_final.
# Moving neurons while the neighborhood is already narrow buys no further
# reorganisation but keeps perturbing the weight fixed point, which delays
# the eps1 cutoff.  Freezing the layout for the tail of the annealing lets
# the weights settle under fixed geometry, like the baseline does.
POSITION_FREEZE_FACTOR = 2.0


def _alpha_at(config: TrainConfig, sigma0: float, sigma: float) -> float:
    freeze_at = POSITION_FREEZE_FACTOR * config.sigma_final
    if sigma0 > freeze_at:
        return config.alpha_train * max(0.0, sigma - freeze_at) / (sigma0 - freeze_at)
    if sigma0 > config.sigma_final:
        return (
            config.alpha_train
            * (sigma - config.sigma_final)
            / (sigma0 - config.sigma_final)
        )
    return 0.0


def _cell_width_sigma(map_state: MapState, config: TrainConfig) -> float:
    """Kernel width matched to the map's own cell size.

    The configured sigma_final means "one cell" on an undeformed unit
    lattice. Position updates only ever pull neurons toward each other, so a
    trained layout is somewhat contracted and its actual cell width is the
    median edge length. Returns that width capped at sigma_final; on a rigid
    unit lattice this is sigma_final exactly, as for a width not normal.
    """
    i, j = map_state.edge_pairs()
    if i.size == 0:
        return float(config.sigma_final)
    gaps = map_state.positions[i] - map_state.positions[j]
    width = float(_median(np.sqrt(np.einsum("ed,ed->e", gaps, gaps))))
    if not _normal_widths(width, config.gamma):
        return float(config.sigma_final)
    return min(float(config.sigma_final), width)


def _median(values: np.ndarray):
    """``np.median`` of a non-empty 1-D array free of NaN, bit for bit: the
    middle value, or the mean of the middle two, of the sorted values. It
    does not import ``numpy.ma`` as ``np.median`` does on its first call."""
    ordered = np.sort(values)
    k = ordered.size // 2
    return ordered[k] if ordered.size % 2 else (ordered[k - 1] + ordered[k]) / 2.0


class _Run:
    """What one epoch of ``train`` or ``train_batch_som`` hands the next: the
    map and ``asg``, its assignment as it stands (nothing touches the map
    between epochs); the schedule's ``sigma0``, the ``initial_sigma`` of the
    map as the run begins, and once the layout freezes ``tail_start``,
    ``tail_sigma`` and ``target``; and train's split clock ``epochs_since_add``,
    the epochs since the last split."""

    def __init__(self, config: TrainConfig, map_state: MapState, asg: Assignment):
        self.config = config
        self.map_state = map_state
        self.asg = asg
        self.sigma0 = initial_sigma(config, map_state)
        self.tail_start = self.tail_sigma = self.target = None
        self.epochs_since_add = 0

    def schedule(self, epoch: int):
        """This epoch's sigma and position rate.

        While the layout can still move, sigma follows the plain exponential
        decay toward sigma_final. The epoch the position rate reaches zero,
        the remaining decay is retargeted at the frozen map's measured cell
        width and eased so the per-epoch sigma change vanishes at the decay
        horizon. A map that never moved (the baseline lattice) has cell width
        exactly sigma_final, so both trainers run the same shape of schedule
        and land on the same final sigma.
        """
        cfg = self.config
        if self.tail_start is None:
            sigma = _sigma_at(cfg, self.sigma0, epoch)
            alpha = _alpha_at(cfg, self.sigma0, sigma)
            if alpha == 0.0:
                self.tail_start = epoch
                self.tail_sigma = sigma
                self.target = _cell_width_sigma(self.map_state, cfg)
            return sigma, alpha
        horizon = cfg.sigma_decay_epochs
        if horizon <= self.tail_start:
            return self.tail_sigma, 0.0
        u = (min(epoch, horizon) - self.tail_start) / (horizon - self.tail_start)
        # Smoothstep easing makes the per-epoch sigma steps vanish as the
        # horizon nears, so the weights are already settled when the decay
        # stops and the eps1 cutoff fires without trailing flips.
        u = u * u * (3.0 - 2.0 * u)
        return self.tail_sigma * (self.target / self.tail_sigma) ** u, 0.0

    def loop(self, step, progress):
        """Run ``step(epoch) -> (dist, events)`` in the shared epoch loop, to
        eps1 or max_epochs; returns ``(map_state, reports)``."""
        runs = [(self.config.max_epochs, self.config.eps1, progress)]
        (reports,) = _run_epochs(runs, lambda epoch, live: [step(epoch)])
        return self.map_state, reports


def _run_epochs(runs, step):
    """The epoch loop shared by ``train``, ``smooth_runs`` and ``train_batch_som``.

    ``runs`` lists each run's ``(max_epochs, eps, progress)``. ``step(epoch,
    live)`` advances the runs whose indices ``live`` lists, in ascending
    order, by one epoch, updating their maps in place, and returns one
    ``(dist, events)`` per live run: the squared winner distances of the map
    as it stands at the end of the epoch, whose mean root is the epoch's
    error, and that epoch's structural events. Each run has its own reports,
    finite check, stop test and ``progress``, called in run order within an
    epoch. A run stops when its epoch-to-epoch error change drops under its
    ``eps``, and always after its ``max_epochs``; it then leaves ``live``,
    and the others go on. An error in a run's own part of an epoch (a
    non-finite error, or one its ``progress`` raises) stops it and every
    later run; the earlier runs finish, and the error is then raised with
    the failing run's index as its ``run`` attribute. Returns the list of
    reports of each run.
    """
    reports = [[] for _ in runs]
    prev = [None] * len(runs)
    live = list(range(len(runs)))
    failure = None
    epoch = 0
    while live:
        epoch += 1
        going = []
        for i, (dist, events) in zip(live, step(epoch, live)):
            max_epochs, eps, progress = runs[i]
            try:
                mqe = _mean_root(dist)
                if not math.isfinite(mqe):
                    raise TrainingError(f"non-finite mqe at epoch {epoch}")
                report = EpochReport(epoch, mqe, events)
                reports[i].append(report)
                if progress is not None:
                    progress(report)
            except Exception as exc:
                exc.run, failure = i, exc
                break
            if epoch < max_epochs and not (prev[i] is not None and abs(mqe - prev[i]) < eps):
                going.append(i)
            prev[i] = mqe
        live = going
    if failure is not None:
        raise failure
    return reports


def train(data: Dataset, map_state: MapState, config: TrainConfig, progress=None):
    """Run the structural training phase until the error settles.

    Mutates ``map_state`` in place and returns ``(map_state, reports)``. Each
    epoch ends by measuring the mean quantization error against the map as it
    then stands: the assignment made after pruning, or a fresh search if a
    split or a degree-cap removal changed the map after it. That assignment
    starts the next epoch. Training stops early when the epoch-to-epoch
    change drops under eps1, and always at max_epochs. ``progress`` (if
    given) receives every EpochReport as it is produced. The epoch loop is
    the one shared with ``smooth_runs`` and the baseline.
    """
    if map_state.m < 2:
        raise MapStructureError("training needs at least 2 neurons")
    gt = growing_threshold(data.d, config.sf)
    q = config.effective_q
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 1]))

    run = _Run(config, map_state, assign_all(data, map_state))

    def step(epoch):
        sigma, alpha = run.schedule(epoch)
        _apply_epoch_edges(map_state, run.asg)
        map_state.weights = batch_weight_update(map_state, run.asg, data, sigma)
        if alpha > 0.0:
            map_state.positions = position_update(map_state, run.asg, sigma, alpha, config.gamma)

        events = prune_edges_and_neurons(map_state, config.age_max)
        run.epochs_since_add += 1

        run.asg = asg = assign_all(data, map_state)
        pnqe = per_neuron_quantization(asg)
        split_events = maybe_add_neuron(
            map_state, pnqe, gt, run.epochs_since_add, config.t_add, rng, config.beta_mode
        )
        if split_events:
            run.epochs_since_add = 0
        events += split_events

        events += enforce_degree(map_state, q)

        # a split or a degree-cap removal changed the map after its search
        if split_events or map_state.m != asg.m:
            run.asg = assign_all(data, map_state)
        return run.asg.dist, events

    return run.loop(step, progress)


def smooth(
    data: Dataset, map_state: MapState, config: TrainConfig, progress=None, *, _lockstep=None
):
    """Fine-tune weights and positions with the structure frozen.

    The neighborhood is restricted to each neuron's direct graph neighbors
    (plus itself for the weight step) and the kernel width is held fixed.
    Adaptation continues at the low rate alpha_smooth, for positions and
    weights alike: each epoch the weights move a step of that size toward
    that neighborhood's batch target rather than jumping onto it, so the
    error is polished without reshuffling which neurons are closest to
    which patterns; the position step then reads the moved weights. No
    edges or neurons change, so both kernels are evaluated only on the
    graph's (target, source) pairs, listed once per call: O(edges) per
    epoch, not O(m^2). The win counts and winner means are recomputed only
    in epochs that start from other winners than the last one did; the
    other epochs never count wins, since an assignment counts them when
    first read. Stops when the epoch-to-epoch error change drops under
    eps2, or after smooth_max_epochs. Returns ``(map_state, reports)``.
    This is the one-run case of ``smooth_runs``: one ``PrunedSearch`` finds
    the winners, first of the map as it comes (a search of every pattern,
    the bits of ``assign_all``), then of each epoch's, and an epoch in which
    every pattern keeps its pair runs no search at all.

    ``_lockstep`` is for ``smooth_runs`` alone: it runs its runs, of which
    this call's is the first, under this call, where a span profiler that
    knows ``smooth`` as the smoothing phase (perfbench's tracer) finds them.
    The first run reports to this call's ``progress``, so a wrapper that
    swaps it sees that run's epochs.
    """
    if _lockstep is None:
        _lockstep = _Lockstep([(data, map_state, config, progress)])
    else:
        _lockstep.runs[0] = _lockstep.runs[0][:3] + (progress,)
    return map_state, _lockstep.run()[0]


def smooth_runs(runs):
    """Smooth several ``(data, map_state, config, progress)`` runs in
    lockstep, each exactly as ``smooth`` alone smooths it, and return each
    run's reports.

    Every epoch is one set of array calls over the live runs side by side:
    their rows, neurons and graph pairs are concatenated, each run's in its
    own order, so every ``np.bincount`` bin, pairwise sum and ``argmin``
    gets the operands a run alone would give it, in the same order, and the
    maps, reports and errors are bit for bit those of separate calls. Only
    each run's error and its ``progress`` call are taken run by run, and
    within an epoch the runs report in the order given. A run that stops
    (on its eps2 or its smooth_max_epochs) leaves the batch with its state
    frozen; the others go on. A run whose error turns non-finite, or whose
    ``progress`` raises, stops with every later run; the earlier runs
    finish, and its error is then raised with the run's index in ``runs``
    as its ``run`` attribute. The runs share one input dimension, their
    maps' (DataError, before any map changes). The winner search is one
    ``PrunedSearch`` over the live runs (one search call per epoch), rebuilt
    when a run leaves. A live map's weights and positions are views into the
    batch's arrays; each map takes its own copies when its run leaves, or when
    smoothing ends or raises, so none holds on to the batch's arrays.
    """
    lockstep = _Lockstep(runs)
    if lockstep.runs:
        smooth(*lockstep.runs[0], _lockstep=lockstep)
    return lockstep.reports


class _Lockstep:
    """The runs of ``smooth_runs`` as one problem of concatenated arrays,
    stepped one epoch at a time for the live ones. The kernel widths and the
    rate are stored per pair and per neuron; the winner search is one
    ``PrunedSearch`` over all the runs, whose run starts lay out the rest.
    Each live map's weights and positions are views into the shared arrays,
    which the epoch updates in place. A run that leaves copies its own out
    of them, the others being joined again into new arrays; the runs still
    live copy theirs when ``run`` returns or raises."""

    def __init__(self, runs):
        self.runs = [tuple(run) for run in runs]
        self.reports = []
        for data, map_state, _, _ in self.runs:
            if map_state.m < 2:
                raise MapStructureError("smoothing needs at least 2 neurons")
            if data.d != map_state.d:
                raise DataError(f"dataset d={data.d} does not match map d={map_state.d}")
        if len({data.d for data, _, _, _ in self.runs}) > 1:
            raise DataError("runs smoothed in lockstep need one input dimension")

    def run(self) -> list:
        """Smooth every run; returns (and keeps) the reports of each."""
        self.fixed = []
        for _, map_state, config, _ in self.runs:
            # np.nonzero lists pairs by row, then column; the graph is
            # symmetric, so rows serve as targets and columns as sources. The
            # position step takes the off-diagonal pairs in the same order,
            # so both steps sum in pair order. The width is the cell width at
            # the start of smoothing, held fixed.
            t, s = np.nonzero(map_state.edges | np.eye(map_state.m, dtype=bool))
            sigma = _cell_width_sigma(map_state, config)
            # -x / c, as x / -c: negation is exact and rounding symmetric in sign
            self.fixed.append((t, s, -(sigma * sigma), -(config.gamma * sigma * sigma)))
        self.live = list(range(len(self.runs)))
        loops = [(cfg.smooth_max_epochs, cfg.eps2, progress) for _, _, cfg, progress in self.runs]
        try:
            self._join()
            self.reports = _run_epochs(loops, self.step)
        finally:
            self._own(self.live)
        return self.reports

    def _own(self, runs) -> None:
        """Give the maps of the runs indexed by ``runs`` their own arrays."""
        for _, map_state, _, _ in (self.runs[i] for i in runs):
            map_state.weights = map_state.weights.copy()
            map_state.positions = map_state.positions.copy()

    def _join(self) -> None:
        """Concatenate the live runs, and assign them by the first call of
        a new search over them."""
        runs = [self.runs[i] for i in self.live]
        fixed = [self.fixed[i] for i in self.live]
        maps = [map_state for _, map_state, _, _ in runs]
        n = [data.n for data, _, _, _ in runs]
        m = [map_state.m for map_state in maps]
        self.data = runs[0][0] if len(runs) == 1 else Dataset(
            np.concatenate([data.patterns for data, _, _, _ in runs])
        )
        self.search = PrunedSearch(self.data, list(zip(n, m)))
        first = self.search.neuron_starts.tolist()
        self.spans = [(a, a + size) for a, size in zip(self.search.row_starts.tolist(), n)]
        self.w = w = np.concatenate([map_state.weights for map_state in maps])
        self.r = r = np.concatenate([map_state.positions for map_state in maps])
        for map_state, a, size in zip(maps, first, m):
            map_state.weights, map_state.positions = w[a : a + size], r[a : a + size]

        t = np.concatenate([f[0] + a for f, a in zip(fixed, first)])
        s = np.concatenate([f[1] + a for f, a in zip(fixed, first)])
        off = (t != s).nonzero()[0]
        t_off, s_off = t[off], s[off]
        d_w, d_r = w.shape[1], r.shape[1]
        w_bins = (t[:, None] * d_w + np.arange(d_w)).ravel()
        r_bins = (t_off[:, None] * d_r + np.arange(d_r)).ravel()
        self.s, self.s_off = s, s_off
        self.pairs = (t, s, off, t_off, s_off, w_bins, r_bins)
        pairs = [f[0].size for f in fixed]
        self.neg_sigma2 = np.repeat([f[2] for f in fixed], pairs)
        self.neg_width2 = np.repeat([f[3] for f in fixed], np.subtract(pairs, m))
        self.rate = np.repeat([config.alpha_smooth for _, _, config, _ in runs], m)[:, None]
        self.asg = self.search.assign(w)
        # the winner statistics gathered at the sources; the data and m are
        # fixed, so they change only when the winners do
        self.winner = self.n_s = self.n_off = self.xbar_s = None

    def step(self, epoch: int, live: list) -> list:
        if live != self.live:
            self._own(set(self.live) - set(live))
            self.live = list(live)
            self._join()
        asg = self.asg
        if self.winner is None or (asg.winner != self.winner).any():
            self.winner = asg.winner
            n = asg.wins.astype(np.float64)
            self.n_s, self.n_off = n.take(self.s), n.take(self.s_off)
            self.xbar_s = winner_means(self.data, asg).take(self.s, axis=0)
        w, r = self.w, self.r
        t, s, off, t_off, s_off, w_bins, r_bins = self.pairs
        gap = r.take(s, axis=0) - r.take(t, axis=0)
        k = self.n_s * np.exp(np.einsum("ed,ed->e", gap, gap) / self.neg_sigma2)
        _pull(w, t, w_bins, k, self.xbar_s - w.take(t, axis=0), self.rate)
        w_gap = w.take(s_off, axis=0) - w.take(t_off, axis=0)
        k = self.n_off * np.exp(np.einsum("ed,ed->e", w_gap, w_gap) / self.neg_width2)
        _pull(r, t_off, r_bins, k, gap.take(off, axis=0), self.rate)
        self.asg = asg = self.search.assign(w)
        dist = asg.dist
        return [(dist[a:b], Events()) for a, b in self.spans]
