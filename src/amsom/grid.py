"""Initial lattice sizing and construction.

The initial map is an ordinary SOM lattice: the neuron budget grows with the
square root of the dataset size, the grid aspect follows the shape of the data
cloud (ratio of the two leading covariance eigenvalues), and weights start
uniformly inside the per-feature value ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import _MAX_SCALE, Dataset, MapState
from .errors import ConfigError, DataError

RECTANGULAR = "rectangular"
HEXAGONAL = "hexagonal"

# Connectivity of each lattice topology; it caps every neuron's degree for
# the rest of training unless the config sets its own q_max.
MAX_DEGREE = {RECTANGULAR: 4, HEXAGONAL: 6}

# Cap on lambda1/lambda2 so a near-singular covariance cannot demand an
# absurdly elongated grid.
EIGEN_RATIO_CAP = 10.0


@dataclass(frozen=True)
class LatticeSpec:
    """Shape of an initial lattice: rows x cols and topology."""

    rows: int
    cols: int
    topology: str = RECTANGULAR

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise ConfigError("lattice needs at least two neurons")
        if self.topology not in MAX_DEGREE:
            raise ConfigError(f"unknown topology {self.topology!r}")


def target_neuron_count(n: int) -> int:
    """Neuron budget for a dataset of ``n`` patterns: round(5 * sqrt(n))."""
    if n < 1:
        raise DataError("need at least one pattern to size a map")
    return int(round(5.0 * math.sqrt(n)))


def _best_side_pair(target: int, side_ratio: float) -> tuple[int, int]:
    """Brute-force factor-pair search for grid sides.

    Scores every (rows, cols) with rows >= cols >= 2 by how far the product is
    from ``target`` and how far rows/cols is from ``side_ratio``, both in log
    space with the product error weighted double. Ties go to the smaller
    product, then the smaller row count.
    """
    limit = max(2 * target, 8)
    best = None
    best_key = None
    for cols in range(2, int(math.isqrt(limit)) + 1):
        for rows in range(cols, limit // cols + 1):
            product = rows * cols
            cost = 2.0 * abs(math.log(product / target)) + abs(
                math.log((rows / cols) / side_ratio)
            )
            key = (cost, product, rows)
            if best_key is None or key < best_key:
                best_key = key
                best = (rows, cols)
    return best


def side_lengths(data: Dataset, target: int) -> tuple[int, int]:
    """Choose (rows, cols) for a dataset and neuron budget.

    The desired aspect is sqrt(lambda1/lambda2) of the feature covariance,
    with the eigenvalue ratio capped at EIGEN_RATIO_CAP; degenerate
    covariances fall back to a square-ish grid.
    """
    if target < 2:
        raise ConfigError("target neuron count must be at least 2")
    if data.n < 2:
        raise DataError("need at least two patterns to estimate covariance")
    if data.d < 2:
        ratio = 1.0
    else:
        cov = np.cov(data.patterns, rowvar=False)
        eig = np.linalg.eigvalsh(cov)
        lam1 = max(float(eig[-1]), 0.0)
        lam2 = max(float(eig[-2]), 0.0)
        if lam1 <= 0.0:
            ratio = 1.0
        elif lam2 <= lam1 * 1e-12:
            ratio = EIGEN_RATIO_CAP
        else:
            ratio = min(lam1 / lam2, EIGEN_RATIO_CAP)
    return _best_side_pair(target, math.sqrt(ratio))


def build_lattice(spec: LatticeSpec) -> MapState:
    """Construct the lattice positions and connectivity for a LatticeSpec.

    Rectangular grids place neurons at integer coordinates with 4-neighbor
    edges. Hexagonal grids offset odd rows by +0.5 horizontally with vertical
    spacing sqrt(3)/2 and 6-neighbor edges. Weights are left empty (shape
    (m, 0)) until init_weights runs.
    """
    rows, cols = spec.rows, spec.cols
    m = rows * cols
    positions = np.zeros((m, 2))
    edges = np.zeros((m, m), dtype=bool)

    def idx(r, c):
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            i = idx(r, c)
            if spec.topology == RECTANGULAR:
                positions[i] = (c, r)
            else:
                positions[i] = (c + 0.5 * (r % 2), r * math.sqrt(3.0) / 2.0)

    def connect(i, r, c):
        if 0 <= r < rows and 0 <= c < cols:
            j = idx(r, c)
            edges[i, j] = edges[j, i] = True

    for r in range(rows):
        for c in range(cols):
            i = idx(r, c)
            connect(i, r, c + 1)
            connect(i, r + 1, c)
            if spec.topology == HEXAGONAL:
                # odd-row offset layout: the two remaining lower neighbors
                connect(i, r + 1, c - 1 if r % 2 == 0 else c + 1)

    return MapState(
        weights=np.zeros((m, 0)),
        positions=positions,
        edges=edges,
        ages=np.zeros((m, m), dtype=np.int64),
        win_count=np.zeros(m, dtype=np.int64),
    )


def init_weights(map_state: MapState, data: Dataset, seed) -> MapState:
    """Draw each weight component uniformly from its feature's [min, max].

    Deterministic for a given seed; mutates and returns ``map_state``.
    """
    lo = data.patterns.min(axis=0)
    hi = data.patterns.max(axis=0)
    rng = np.random.default_rng(seed)
    map_state.weights = rng.uniform(lo, hi, size=(map_state.m, data.d))
    return map_state


def growing_threshold(d: int, sf: float) -> float:
    """Split threshold GT = -ln(d) * ln(sf) for dimension d and spread factor sf."""
    if d < 2:  # a fault of the data: no config value can fix it
        raise DataError("growing threshold needs at least 2 features")
    if not 0.0 < sf < 1.0:
        raise ConfigError(f"spread factor must be in (0, 1), got {sf}")
    return -math.log(d) * math.log(sf)


def initial_sigma(config, map_state: MapState) -> float:
    """The neighborhood width a run starts from: ``config.sigma0`` when set,
    else half the larger extent of the layout plus one cell, at least
    ``sigma_final`` (max(rows, cols)/2 on a rectangular lattice)."""
    if config.sigma0 is not None:
        return float(config.sigma0)
    span = float(np.ptp(map_state.positions, axis=0).max())
    return max((span + 1.0) / 2.0, config.sigma_final)


def create_initial_map(data: Dataset, config, sizing: Dataset | None = None):
    """Build the ready-to-train initial map for a dataset.

    ``sizing`` optionally supplies the dataset used for the neuron budget and
    aspect-ratio heuristics (e.g. the full dataset when training on a split);
    weight ranges always come from ``data``. Returns the map plus a config
    copy with sigma0 resolved by ``initial_sigma`` when it was unset.
    """
    # weights start inside the data's range and a split scales one by at most
    # 1.5, so d * (2.5 * max|x|)^2 sizes the squared distances the search sees
    if 2.5 * np.abs(data.patterns).max() >= math.sqrt(_MAX_SCALE / data.d):
        raise DataError("pattern values too large: squared distances would overflow")
    src = sizing if sizing is not None else data
    target = target_neuron_count(src.n)
    rows, cols = side_lengths(src, target)
    map_state = build_lattice(LatticeSpec(rows, cols, config.topology))
    init_weights(map_state, data, np.random.SeedSequence([int(config.seed), 0]))
    if config.sigma0 is None:
        config = replace(config, sigma0=initial_sigma(config, map_state))
    return map_state, config
