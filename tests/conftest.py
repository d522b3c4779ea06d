"""Shared helpers for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from amsom.core import MapState
from amsom.datasets import load_csv
from amsom.errors import MapStructureError

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
IRIS_CSV = DATA_DIR / "iris.csv"


def make_map(weights, positions=None, edges=(), win_count=None):
    """Build a MapState from plain lists.

    ``edges`` holds (i, j) or (i, j, age) tuples. Positions default to a line
    so tests that only care about weights or the graph stay short.
    """
    w = np.asarray(weights, dtype=np.float64)
    m = w.shape[0]
    if positions is None:
        positions = np.stack([np.arange(m, dtype=np.float64), np.zeros(m)], axis=1)
    r = np.asarray(positions, dtype=np.float64)
    e = np.zeros((m, m), dtype=bool)
    a = np.zeros((m, m), dtype=np.int64)
    for spec in edges:
        i, j = spec[0], spec[1]
        e[i, j] = e[j, i] = True
        if len(spec) > 2:
            a[i, j] = a[j, i] = spec[2]
    wc = np.zeros(m, dtype=np.int64) if win_count is None else np.asarray(win_count, dtype=np.int64)
    return MapState(w, r, e, a, wc)


def process_pattern_edges(map_state, winner: int, second: int) -> None:
    """Apply one pattern presentation to the edge graph: count the win, age
    every edge of the winner by one, then connect winner and runner-up with
    a fresh age of zero. The sequential oracle of the batched
    ``engine._apply_epoch_edges``."""
    if winner == second:
        raise MapStructureError("winner and runner-up must differ")
    map_state.win_count[winner] += 1
    nb = map_state.edges[winner]
    map_state.ages[winner, nb] += 1
    map_state.ages[nb, winner] += 1
    map_state.edges[winner, second] = map_state.edges[second, winner] = True
    map_state.ages[winner, second] = map_state.ages[second, winner] = 0


def neighborhood_output(r_j, r_i, sigma: float) -> float:
    """Output-space kernel exp(-|r_j - r_i|^2 / sigma^2), the paper's
    formula for one pair, as an oracle for the batched kernels."""
    r_j = np.asarray(r_j, dtype=np.float64)
    r_i = np.asarray(r_i, dtype=np.float64)
    diff = r_j - r_i
    return float(np.exp(-(diff @ diff) / (sigma * sigma)))


def neighborhood_input(w_j, w_i, sigma: float, gamma: float) -> float:
    """Input-space kernel exp(-|w_j - w_i|^2 / (gamma * sigma^2)), the
    paper's formula for one pair, as an oracle for the batched kernels."""
    w_j = np.asarray(w_j, dtype=np.float64)
    w_i = np.asarray(w_i, dtype=np.float64)
    diff = w_j - w_i
    return float(np.exp(-(diff @ diff) / (gamma * sigma * sigma)))


def assert_same_map(a, b):
    for attr in ("weights", "positions", "edges", "ages", "win_count"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr))


@pytest.fixture(scope="session")
def iris():
    return load_csv(IRIS_CSV, label_column="species")
