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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Assignment,
    Dataset,
    MapState,
    PrunedSearch,
    assign_all,
    mean_quantization_error,
    per_neuron_quantization,
    winner_means,
)
from .errors import ConfigError, MapStructureError, TrainingError
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
    too: a bool or text for a number, or a float for an integer, is rejected.
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


@dataclass
class EpochReport:
    """What one epoch did: error level and structural events.

    Events are dicts with a ``kind`` key ("edge_aged_out", "edge_trimmed",
    "neuron_removed", "neuron_split", "removal_skipped"); indices refer to the
    map as it stood when the event happened.
    """

    epoch: int
    mqe: float
    events: list = field(default_factory=list)


def neighborhood_output(r_j, r_i, sigma: float) -> float:
    """Output-space kernel exp(-|r_j - r_i|^2 / sigma^2)."""
    r_j = np.asarray(r_j, dtype=np.float64)
    r_i = np.asarray(r_i, dtype=np.float64)
    diff = r_j - r_i
    return float(np.exp(-(diff @ diff) / (sigma * sigma)))


def neighborhood_input(w_j, w_i, sigma: float, gamma: float) -> float:
    """Input-space kernel exp(-|w_j - w_i|^2 / (gamma * sigma^2))."""
    w_j = np.asarray(w_j, dtype=np.float64)
    w_i = np.asarray(w_i, dtype=np.float64)
    diff = w_j - w_i
    return float(np.exp(-(diff @ diff) / (gamma * sigma * sigma)))


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
    square to the same bits. Rows that fit in one block are summed whole.
    """
    m, d = points.shape
    if d == 2:
        x, y = points[:, 0], points[:, 1]
        sq = x[:, None] - x
        dy = y[:, None] - y
        sq *= sq
        dy *= dy
        sq += dy
        return sq
    if m * m * d <= KERNEL_CHUNK:
        diff = points[:, None, :] - points
        return np.einsum("ijk,ijk->ij", diff, diff)
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


def _pull(state, t, bins, k, pull, rate):
    """Move each target row of ``state`` by ``rate`` times the k-weighted
    mean of the ``pull`` rows of its pairs, whose targets are ``t``. ``bins``
    numbers the flattened (pair, coordinate) entries by (target,
    coordinate), so one ``np.bincount`` sums every coordinate in pair order,
    not in a BLAS order. Targets whose weights sum to zero keep their row.
    Returns the new array."""
    m, dim = state.shape
    den = np.bincount(t, weights=k, minlength=m)
    num = np.bincount(bins, weights=(k[:, None] * pull).ravel(), minlength=m * dim)
    num = num.reshape(m, dim)
    ok = den > 0.0
    if ok.all():
        return state + rate * (num / den[:, None])
    ok = ok[:, None]
    # float64 buffers: bincount over no pairs returns int64
    mean = np.zeros((m, dim))
    np.divide(num, den[:, None], out=mean, where=ok)
    new = state.copy()
    np.add(new, rate * mean, out=new, where=ok)
    return new


def process_pattern_edges(map_state: MapState, winner: int, second: int) -> None:
    """Apply one pattern presentation to the edge graph.

    Counts the win, ages every edge of the winner by one, then connects
    winner and runner-up with a fresh age of zero.
    """
    if winner == second:
        raise MapStructureError("winner and runner-up must differ")
    map_state.win_count[winner] += 1
    nb = map_state.edges[winner]
    map_state.ages[winner, nb] += 1
    map_state.ages[nb, winner] += 1
    map_state.edges[winner, second] = map_state.edges[second, winner] = True
    map_state.ages[winner, second] = map_state.ages[second, winner] = 0


def _apply_epoch_edges(map_state: MapState, asg: Assignment) -> None:
    """Batched equivalent of process_pattern_edges over a whole epoch.

    Presents the patterns of ``asg`` (an assignment to this map) in order.
    Exactly reproduces the sequential presentation-order result: an edge that
    is never refreshed ages by the total wins of its endpoints; a refreshed
    edge ends with the wins of its endpoints after its last refresh.
    """
    m = map_state.m
    winners, seconds, wins = asg.winner, asg.second, asg.wins
    n = len(winners)

    inc = wins[:, None] + wins[None, :]
    map_state.ages[map_state.edges] += inc[map_state.edges]

    # last refresh of each pair: first hit in the reversed presentation order
    code = np.minimum(winners, seconds) * m + np.maximum(winners, seconds)
    pair_code, first_from_end = np.unique(code[::-1], return_index=True)
    when = n - 1 - first_from_end
    a, b = pair_code // m, pair_code % m
    # keys order the wins by (neuron, pattern): neuron x's wins after pattern
    # `when` are its keys above x*n + when, which end at index wins_end[x]
    keys = np.sort(winners * n + np.arange(n))
    wins_end = np.cumsum(wins)
    after = (wins_end[a] - np.searchsorted(keys, a * n + when, side="right")) + (
        wins_end[b] - np.searchsorted(keys, b * n + when, side="right")
    )
    map_state.edges[a, b] = map_state.edges[b, a] = True
    map_state.ages[a, b] = after
    map_state.ages[b, a] = after

    map_state.win_count += wins


def _remove_isolated(map_state: MapState) -> list:
    """Drop neurons with no edges, in ascending index order, keeping m >= 2."""
    isolated = (map_state.degrees() == 0).nonzero()[0]
    if isolated.size == 0:
        return []
    allowed = max(0, map_state.m - 2)
    removable = isolated[:allowed]
    skipped = isolated[allowed:]
    events = [{"kind": "neuron_removed", "neuron": i} for i in removable.tolist()]
    if skipped.size > 0:
        events.append({"kind": "removal_skipped", "neurons": skipped.tolist()})
    map_state.delete_neurons(removable)
    return events


def prune_edges_and_neurons(map_state: MapState, age_max: int) -> list:
    """Cut edges at or past the age cutoff, then drop isolated neurons."""
    aged = map_state.edges & (map_state.ages >= age_max)
    rows, cols = aged.nonzero()
    upper = rows < cols
    rows, cols = rows[upper], cols[upper]
    events = [
        {"kind": "edge_aged_out", "edge": (a, b), "age": age}
        for a, b, age in zip(rows.tolist(), cols.tolist(), map_state.ages[rows, cols].tolist())
    ]
    map_state.edges[aged] = False
    map_state.ages[aged] = 0
    events += _remove_isolated(map_state)
    return events


def maybe_add_neuron(
    map_state: MapState,
    per_neuron_qe: np.ndarray,
    gt: float,
    epochs_since_add: int,
    t_add: int,
    rng: np.random.Generator,
    beta_mode: str = "gaussian",
) -> list:
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
        return []
    finite = np.isfinite(per_neuron_qe)
    if not finite.any():
        return []
    qe = np.where(finite, per_neuron_qe, -np.inf)
    u = int(np.argmax(qe))
    if qe[u] <= gt:
        return []
    nbrs = np.flatnonzero(map_state.edges[u])
    if nbrs.size == 0:
        return []
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

    return [
        {"kind": "neuron_split", "parent": u, "neighbor": v, "new_neuron": m, "beta": beta}
    ]


def enforce_degree(map_state: MapState, q: int) -> list:
    """Trim each neuron down to its q lowest-age edges, then drop isolates.

    Neurons are processed in ascending index order; within a neuron, edges
    are ranked by age then peer index, and everything past the q best is cut.
    """
    events = []
    # trimming only lowers degrees, so only neurons over the cap at entry can
    # need it; each one's degree is read again when its turn comes
    for i in (map_state.degrees() > q).nonzero()[0].tolist():
        nbrs = map_state.edges[i].nonzero()[0]
        if nbrs.size <= q:
            continue
        order = np.lexsort((nbrs, map_state.ages[i, nbrs]))
        drop = nbrs[order[q:]]
        for j in drop.tolist():
            a, b = (i, j) if i < j else (j, i)
            events.append({"kind": "edge_trimmed", "edge": (a, b), "neuron": i})
        map_state.edges[i, drop] = False
        map_state.edges[drop, i] = False
        map_state.ages[i, drop] = 0
        map_state.ages[drop, i] = 0
    events += _remove_isolated(map_state)
    return events


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
    unit lattice this is sigma_final exactly.
    """
    i, j = np.nonzero(np.triu(map_state.edges, 1))
    if i.size == 0:
        return float(config.sigma_final)
    gaps = map_state.positions[i] - map_state.positions[j]
    width = float(np.median(np.sqrt(np.einsum("ed,ed->e", gaps, gaps))))
    if width <= 0.0:
        return float(config.sigma_final)
    return min(float(config.sigma_final), width)


class _SigmaSchedule:
    """Per-epoch sigma and position rate for one training run.

    While the layout can still move, sigma follows the plain exponential
    decay toward sigma_final. The epoch the position rate reaches zero, the
    remaining decay is retargeted at the frozen map's measured cell width
    and eased so the per-epoch sigma change vanishes at the decay horizon.
    A map that never moved (the baseline lattice) has cell width exactly
    sigma_final, so both trainers run the same shape of schedule and land
    on the same final sigma. Starts from ``initial_sigma`` of the map as
    the run begins.
    """

    def __init__(self, config: TrainConfig, map_state: MapState):
        self.config = config
        self.sigma0 = initial_sigma(config, map_state)
        self.tail_start = None
        self.tail_sigma = None
        self.target = None

    def step(self, epoch: int, map_state: MapState):
        cfg = self.config
        if self.tail_start is None:
            sigma = _sigma_at(cfg, self.sigma0, epoch)
            alpha = _alpha_at(cfg, self.sigma0, sigma)
            if alpha == 0.0:
                self.tail_start = epoch
                self.tail_sigma = sigma
                self.target = _cell_width_sigma(map_state, cfg)
            return sigma, alpha
        horizon = cfg.sigma_decay_epochs
        if horizon > self.tail_start:
            u = (min(epoch, horizon) - self.tail_start) / (horizon - self.tail_start)
            # Smoothstep easing makes the per-epoch sigma steps vanish as the
            # horizon nears, so the weights are already settled when the decay
            # stops and the eps1 cutoff fires without trailing flips.
            u = u * u * (3.0 - 2.0 * u)
            sigma = self.tail_sigma * (self.target / self.tail_sigma) ** u
        else:
            sigma = self.tail_sigma
        return sigma, 0.0


def _run_epochs(data: Dataset, map_state: MapState, max_epochs: int, eps: float, step, progress):
    """The epoch loop shared by ``train``, ``smooth`` and ``train_batch_som``.

    ``step(epoch, asg)`` gets the assignment of the map as it stands at the
    start of the epoch, updates the map in place and returns
    ``(asg, events)``: the assignment of the map as it stands at the end of
    the epoch, and that epoch's structural events. The error of that end
    assignment goes into the epoch's report. Nothing touches the map between
    two epochs, so the same assignment starts the next one. Stops when the
    epoch-to-epoch error change drops under ``eps``, and always after
    ``max_epochs``. Returns the list of reports.
    """
    reports = []
    prev_mqe = None
    asg = assign_all(data, map_state)
    for epoch in range(1, max_epochs + 1):
        asg, events = step(epoch, asg)
        mqe = mean_quantization_error(asg)
        if not math.isfinite(mqe):
            raise TrainingError(f"non-finite mqe at epoch {epoch}")

        report = EpochReport(epoch, mqe, events)
        reports.append(report)
        if progress is not None:
            progress(report)

        if prev_mqe is not None and abs(mqe - prev_mqe) < eps:
            break
        prev_mqe = mqe
    return reports


def train(data: Dataset, map_state: MapState, config: TrainConfig, progress=None):
    """Run the structural training phase until the error settles.

    Mutates ``map_state`` in place and returns ``(map_state, reports)``. Each
    epoch ends by measuring the mean quantization error against the map as it
    then stands; training stops early when the epoch-to-epoch change drops
    under eps1, and always at max_epochs. ``progress`` (if given) receives
    every EpochReport as it is produced. The epoch loop is the one shared
    with ``smooth`` and the baseline.
    """
    if map_state.m < 2:
        raise MapStructureError("training needs at least 2 neurons")
    gt = growing_threshold(data.d, config.sf)
    q = config.effective_q
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), 1]))

    epochs_since_add = 0
    schedule = _SigmaSchedule(config, map_state)

    def step(epoch, asg):
        nonlocal epochs_since_add
        sigma, alpha = schedule.step(epoch, map_state)
        _apply_epoch_edges(map_state, asg)
        map_state.weights = batch_weight_update(map_state, asg, data, sigma)
        if alpha > 0.0:
            map_state.positions = position_update(
                map_state, asg, sigma, alpha, config.gamma
            )

        events = prune_edges_and_neurons(map_state, config.age_max)
        epochs_since_add += 1

        asg = assign_all(data, map_state)
        pnqe = per_neuron_quantization(asg)
        split_events = maybe_add_neuron(
            map_state, pnqe, gt, epochs_since_add, config.t_add, rng, config.beta_mode
        )
        if split_events:
            epochs_since_add = 0
        events += split_events

        degree_events = enforce_degree(map_state, q)
        events += degree_events

        if split_events or any(e["kind"] == "neuron_removed" for e in degree_events):
            asg = assign_all(data, map_state)
        return asg, events

    return map_state, _run_epochs(data, map_state, config.max_epochs, config.eps1, step, progress)


def smooth(data: Dataset, map_state: MapState, config: TrainConfig, progress=None):
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
    eps2, or after smooth_max_epochs. Returns ``(map_state, reports)``. The
    epoch loop is the one shared with ``train`` and the baseline; after its
    first ``assign_all``, ``PrunedSearch`` finds each epoch's winners, and
    an epoch in which every pattern keeps its pair runs no search at all.
    """
    if map_state.m < 2:
        raise MapStructureError("smoothing needs at least 2 neurons")

    # np.nonzero lists pairs by row, then column; the graph is symmetric, so
    # rows serve as targets and columns as sources. The position step takes
    # the off-diagonal pairs in the same order, so both steps sum in pair order.
    t, s = np.nonzero(map_state.edges | np.eye(map_state.m, dtype=bool))
    off = (t != s).nonzero()[0]
    t_off, s_off = t[off], s[off]
    d_w, d_r = map_state.weights.shape[1], map_state.positions.shape[1]
    w_bins = (t[:, None] * d_w + np.arange(d_w)).ravel()
    r_bins = (t_off[:, None] * d_r + np.arange(d_r)).ravel()
    sigma = _cell_width_sigma(map_state, config)
    # -x / c, as x / -c: negation is exact and rounding symmetric in sign
    neg_sigma2, neg_width2 = -(sigma * sigma), -(config.gamma * sigma * sigma)
    rate = config.alpha_smooth
    search = PrunedSearch(data)
    # the winner statistics gathered at the sources; the data and m are fixed,
    # so they change only when the winners do
    winner = n_s = n_off = xbar_s = None

    def step(epoch, asg):
        nonlocal winner, n_s, n_off, xbar_s
        if winner is None or (asg.winner != winner).any():
            winner = asg.winner
            n = asg.wins.astype(np.float64)
            n_s, n_off = n.take(s), n.take(s_off)
            xbar_s = winner_means(data, asg).take(s, axis=0)
        w, r = map_state.weights, map_state.positions
        gap = r.take(s, axis=0) - r.take(t, axis=0)
        k = n_s * np.exp(np.einsum("ed,ed->e", gap, gap) / neg_sigma2)
        map_state.weights = w = _pull(w, t, w_bins, k, xbar_s - w.take(t, axis=0), rate)
        w_gap = w.take(s_off, axis=0) - w.take(t_off, axis=0)
        k = n_off * np.exp(np.einsum("ed,ed->e", w_gap, w_gap) / neg_width2)
        map_state.positions = _pull(r, t_off, r_bins, k, gap.take(off, axis=0), rate)
        return search(map_state), []

    return map_state, _run_epochs(
        data, map_state, config.smooth_max_epochs, config.eps2, step, progress
    )
