"""Initial lattice sizing and construction.

The initial map is an ordinary SOM lattice: the neuron budget grows with the
square root of the dataset size, the grid aspect follows the shape of the data
cloud (ratio of the two leading covariance eigenvalues), and weights start
uniformly inside the per-feature value ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

# Every kind a config field annotation names: how messages name it, which
# values it admits (checked, never coerced), and how a text value reads as one
# (raising ValueError or KeyError when it cannot).
_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool), int),
    "float": ("a finite number", lambda v: _KINDS["int"][1](v)
              or isinstance(v, (float, np.floating)) and math.isfinite(v), float),
    "bool": ("true or false", lambda v: isinstance(v, bool), lambda t: _BOOL_WORDS[t.lower()]),
    "str": ("text", lambda v: isinstance(v, str), str),
    "None": ("None", lambda v: v is None, lambda t: {"none": None, "null": None}[t.lower()]),
}


def _check_fields(obj, skip: tuple = ()) -> None:
    """Raise ConfigError unless each field of dataclass ``obj`` not named in
    ``skip`` holds a value of a kind its annotation names."""
    for f in (f for f in fields(obj) if f.name not in skip):
        kinds, value = [_KINDS[name] for name in f.type.split(" | ")], getattr(obj, f.name)
        if not any(admits(value) for _, admits, _ in kinds):
            names = " or ".join(name for name, _, _ in kinds)
            raise ConfigError(f"{f.name} must be {names}, got {value!r}")


def _read_field(field, raw: str):
    """Type a text value by a dataclass field's annotation, trying None first
    and then each kind in order; text no kind reads raises ConfigError."""
    for name in sorted(field.type.split(" | "), key=lambda name: name != "None"):
        try:
            return _KINDS[name][2](raw.strip())
        except (ValueError, KeyError):
            pass
    raise ConfigError(f"bad value for {field.name}: {raw!r}")


@dataclass(frozen=True)
class LatticeSpec:
    """Shape of an initial lattice: rows x cols and topology. Checked when
    built: a float or a bool row count, or a non-text topology, is a ConfigError."""

    rows: int
    cols: int
    topology: str = RECTANGULAR

    def __post_init__(self):
        _check_fields(self)
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
    spacing sqrt(3)/2 and 6-neighbor edges. Neuron i sits at row i // cols,
    column i % cols; each neighbor relation is one index rule over them all.
    Weights are left empty (shape (m, 0)) until init_weights runs.
    """
    rows, cols = spec.rows, spec.cols
    m = rows * cols
    i = np.arange(m)
    r, c = np.divmod(i, cols)
    below = r + 1 < rows
    # (neighbor index, where that neighbor exists): right, then below
    rules = [(i + 1, c + 1 < cols), (i + cols, below)]
    if spec.topology == HEXAGONAL:
        positions = np.column_stack((c + 0.5 * (r % 2), r * math.sqrt(3.0) / 2.0))
        # odd-row offset layout: the other lower neighbor leans left from an
        # even row and right from an odd one
        lean = 2 * (r % 2) - 1
        rules.append((i + cols + lean, below & (0 <= c + lean) & (c + lean < cols)))
    else:
        positions = np.column_stack((c, r)).astype(np.float64)
    edges = np.zeros((m, m), dtype=bool)
    for j, exists in rules:
        edges[i[exists], j[exists]] = edges[j[exists], i[exists]] = True

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
    # 1.5, so d * (2.5 * max|x|)^2 sizes the squared distances the search sees;
    # the bound is divided, not max|x| multiplied, which could itself overflow
    if np.abs(data.patterns).max() >= math.sqrt(_MAX_SCALE / data.d) / 2.5:
        raise DataError("pattern values too large: squared distances would overflow")
    src = sizing if sizing is not None else data
    target = target_neuron_count(src.n)
    rows, cols = side_lengths(src, target)
    map_state = build_lattice(LatticeSpec(rows, cols, config.topology))
    init_weights(map_state, data, np.random.SeedSequence([int(config.seed), 0]))
    if config.sigma0 is None:
        config = replace(config, sigma0=initial_sigma(config, map_state))
    return map_state, config
