"""Shared helpers for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from amsom import engine
from amsom.core import MapState
from amsom.datasets import load_csv
from amsom.engine import _cut, _edge_entries
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


def reference_remove_isolated(map_state, degrees) -> list:
    """Isolated neurons dropped as ``engine._remove_isolated`` drops them,
    with one dict built per event: the reference for its events."""
    isolated = (degrees == 0).nonzero()[0]
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


def reference_prune(map_state, age_max: int) -> list:
    """``engine.prune_edges_and_neurons`` with one dict built per event: the
    reference for its events."""
    flat, rows, cols = _edge_entries(map_state)
    ages = map_state.ages.take(flat)
    aged = ages >= age_max
    upper = (aged & (rows < cols)).nonzero()[0]
    events = [
        {"kind": "edge_aged_out", "edge": (a, b), "age": age}
        for a, b, age in zip(rows[upper].tolist(), cols[upper].tolist(), ages[upper].tolist())
    ]
    _cut(map_state, rows[upper], cols[upper])
    events += reference_remove_isolated(map_state, np.bincount(rows[~aged], minlength=map_state.m))
    return events


def reference_enforce_degree(map_state, q: int) -> list:
    """``engine.enforce_degree`` with one dict built per trim: the reference
    for its events, trims in cut order."""
    m = map_state.m
    flat, rows, cols = _edge_entries(map_state)
    degrees = np.bincount(rows, minlength=m)
    heavy = (degrees > q).nonzero()[0]
    if heavy.size == 0:
        return reference_remove_isolated(map_state, degrees)
    over = degrees.take(rows) > q
    rows, cols, flat = rows[over], cols[over], flat[over]
    peers = cols.take(np.lexsort((cols, map_state.ages.take(flat), rows))).tolist()
    cut_i, cut_j = [], []
    lost = {}
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
    events = [
        {"kind": "edge_trimmed", "edge": (i, j) if i < j else (j, i), "neuron": i}
        for i, j in zip(cut_i, cut_j)
    ]
    if events:
        cut_i, cut_j = np.array(cut_i), np.array(cut_j)
        _cut(map_state, cut_i, cut_j)
        degrees -= np.bincount(cut_i, minlength=m) + np.bincount(cut_j, minlength=m)
    events += reference_remove_isolated(map_state, degrees)
    return events


@pytest.fixture
def event_oracle(monkeypatch):
    """The reference events of each ``train`` epoch run while the fixture is
    active, one list per epoch. Each structural step of ``engine`` runs as
    it is, and its reference runs on a copy of the map it is given, which
    must end equal to the step's map; a split's one dict is taken as the
    step returns it, since it is built as it always was."""
    epochs = []

    def checked(step, reference):
        def call(map_state, *args):
            if reference is None:
                got = step(map_state, *args)
                epochs[-1] += got
                return got
            expected = map_state.copy()
            want = reference(expected, *args)
            got = step(map_state, *args)
            assert_same_map(map_state, expected)
            if reference is reference_prune:  # each epoch's first step
                epochs.append([])
            epochs[-1] += want
            return got

        return call

    for name, reference in [("prune_edges_and_neurons", reference_prune),
                            ("maybe_add_neuron", None),
                            ("enforce_degree", reference_enforce_degree)]:
        monkeypatch.setattr(engine, name, checked(getattr(engine, name), reference))
    return epochs


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
