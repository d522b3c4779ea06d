import math
from dataclasses import replace

import numpy as np
import pytest

from amsom.core import Dataset
from amsom.engine import TrainConfig
from amsom.errors import ConfigError, DataError
from amsom.grid import (
    HEXAGONAL,
    MAX_DEGREE,
    RECTANGULAR,
    LatticeSpec,
    _best_side_pair,
    build_lattice,
    create_initial_map,
    growing_threshold,
    init_weights,
    side_lengths,
    target_neuron_count,
)


def test_target_neuron_count():
    assert target_neuron_count(150) == 61
    assert target_neuron_count(1000) == 158
    assert target_neuron_count(4) == 10
    assert target_neuron_count(1) == 5
    with pytest.raises(DataError):
        target_neuron_count(0)


def test_best_side_pair_frozen_cases():
    # worked out by hand from the cost 2|ln(p/target)| + |ln((r/c)/ratio)|
    assert _best_side_pair(66, 2.0) == (11, 6)
    assert _best_side_pair(16, 1.0) == (4, 4)
    assert _best_side_pair(154, math.sqrt(2.0)) == (14, 11)
    assert _best_side_pair(24, 1.0) == (5, 5)
    assert _best_side_pair(12, 1.0) == (4, 3)


def test_best_side_pair_shape_properties():
    rng = np.random.default_rng(5)
    for _ in range(40):
        target = int(rng.integers(4, 200))
        ratio = float(rng.uniform(1.0, 4.0))
        rows, cols = _best_side_pair(target, ratio)
        assert rows >= cols >= 2
        assert 0.4 <= rows * cols / target <= 2.5


def test_side_lengths_follows_data_elongation():
    rng = np.random.default_rng(9)
    stretched = Dataset(rng.normal(size=(200, 2)) * [12.0, 1.0])
    rows, cols = side_lengths(stretched, 40)
    assert rows / cols > 2.0

    round_blob = Dataset(rng.normal(size=(200, 2)))
    rows, cols = side_lengths(round_blob, 40)
    assert rows / cols < 2.0


def test_side_lengths_degenerate_covariances():
    x = np.arange(10.0)
    collinear = Dataset(np.stack([x, 2.0 * x], axis=1))  # rank-1, capped ratio
    assert side_lengths(collinear, 24) == (8, 3)
    assert side_lengths(Dataset(np.ones((10, 3))), 24) == (5, 5)
    assert side_lengths(Dataset(x[:, None]), 12) == (4, 3)  # 1 feature -> square-ish


def test_side_lengths_errors():
    data = Dataset(np.ones((5, 2)))
    with pytest.raises(ConfigError):
        side_lengths(data, 1)
    with pytest.raises(DataError):
        side_lengths(Dataset(np.ones((1, 2))), 6)


def test_lattice_spec_validation():
    with pytest.raises(ConfigError):
        LatticeSpec(1, 1)
    with pytest.raises(ConfigError):
        LatticeSpec(3, 3, topology="triangular")
    # a row count is an integer: 2.5 rows have no lattice, True builds one row
    for rows in (2.5, True):
        with pytest.raises(ConfigError, match="rows must be an integer"):
            LatticeSpec(rows, 3)
        with pytest.raises(ConfigError, match="rows must be an integer"):
            replace(LatticeSpec(3, 3), rows=rows)
    assert LatticeSpec(np.int64(2), 3).rows == 2


def test_rectangular_lattice_geometry():
    ms = build_lattice(LatticeSpec(3, 3))
    assert ms.m == 9
    assert np.array_equal(ms.positions[4], [1.0, 1.0])  # row 1, col 1
    assert int(np.triu(ms.edges, 1).sum()) == 12
    deg = np.sort(ms.degrees())
    assert np.array_equal(deg, [2, 2, 2, 2, 3, 3, 3, 3, 4])
    ms.validate(q_max=MAX_DEGREE[RECTANGULAR], allow_isolated=False)


def test_rectangular_edge_count_formula():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        ms = build_lattice(LatticeSpec(rows, cols))
        expect = rows * (cols - 1) + cols * (rows - 1)
        assert int(np.triu(ms.edges, 1).sum()) == expect


def test_hexagonal_lattice_geometry():
    ms = build_lattice(LatticeSpec(3, 4, topology=HEXAGONAL))
    assert ms.m == 12
    # odd rows shift right by half a cell, vertical spacing sqrt(3)/2
    assert np.allclose(ms.positions[4], [0.5, math.sqrt(3.0) / 2.0])
    assert np.allclose(ms.positions[8], [0.0, math.sqrt(3.0)])
    i, j = np.nonzero(np.triu(ms.edges, 1))
    assert i.size == 23  # 9 horizontal + 8 vertical + 6 diagonal
    lengths = np.linalg.norm(ms.positions[i] - ms.positions[j], axis=1)
    assert np.max(np.abs(lengths - 1.0)) < 1e-12
    assert ms.degrees().max() == MAX_DEGREE[HEXAGONAL]
    ms.validate(q_max=MAX_DEGREE[HEXAGONAL], allow_isolated=False)


@pytest.mark.parametrize("topology", [RECTANGULAR, HEXAGONAL])
def test_lattice_equals_the_per_cell_formula_with_unit_distance_edges(topology):
    # positions worked out cell by cell in Python floats; neighbors are the
    # pairs one cell apart, and every other pair is at least sqrt(2) apart
    for rows in range(1, 31):
        for cols in range(2 if rows == 1 else 1, 31):
            ms = build_lattice(LatticeSpec(rows, cols, topology))
            if topology == HEXAGONAL:
                want = [(c + 0.5 * (r % 2), r * math.sqrt(3.0) / 2.0)
                        for r in range(rows) for c in range(cols)]
            else:
                want = [(float(c), float(r)) for r in range(rows) for c in range(cols)]
            want = np.array(want)
            assert ms.positions.dtype == np.float64 and ms.positions.shape == want.shape
            assert ms.positions.tobytes() == want.tobytes(), (rows, cols)
            dx, dy = (want[:, None, k] - want[None, :, k] for k in (0, 1))
            assert np.array_equal(ms.edges, np.abs(dx * dx + dy * dy - 1.0) <= 1e-9), (rows, cols)


def test_init_weights_ranges_and_determinism():
    rng = np.random.default_rng(1)
    data = Dataset(rng.uniform([-2.0, 5.0, 0.0], [3.0, 6.0, 0.5], size=(40, 3)))
    ms = build_lattice(LatticeSpec(4, 3))
    init_weights(ms, data, 123)
    assert ms.weights.shape == (12, 3)
    lo = data.patterns.min(axis=0)
    hi = data.patterns.max(axis=0)
    assert np.all(ms.weights >= lo) and np.all(ms.weights <= hi)

    again = build_lattice(LatticeSpec(4, 3))
    init_weights(again, data, 123)
    assert np.array_equal(ms.weights, again.weights)
    other = build_lattice(LatticeSpec(4, 3))
    init_weights(other, data, 124)
    assert not np.array_equal(ms.weights, other.weights)


def test_growing_threshold():
    assert growing_threshold(4, 0.5) == pytest.approx(0.9609060278364028, abs=1e-12)
    assert growing_threshold(2, 0.5) == pytest.approx(math.log(2.0) ** 2, abs=1e-12)
    with pytest.raises(DataError):  # 1-D data: no config can fix it
        growing_threshold(1, 0.5)
    with pytest.raises(ConfigError):
        growing_threshold(4, 0.0)
    with pytest.raises(ConfigError):
        growing_threshold(4, 1.0)


def test_create_initial_map_resolves_sigma0():
    rng = np.random.default_rng(4)
    data = Dataset(rng.normal(size=(150, 4)))
    ms, cfg = create_initial_map(data, TrainConfig(seed=3))
    assert ms.m >= 2
    assert cfg.sigma0 is not None
    rows_cols = side_lengths(data, target_neuron_count(150))
    assert ms.m == rows_cols[0] * rows_cols[1]
    assert cfg.sigma0 == max(rows_cols) / 2.0

    ms2, cfg2 = create_initial_map(data, TrainConfig(seed=3, sigma0=9.0))
    assert cfg2.sigma0 == 9.0


def test_create_initial_map_sizing_override():
    rng = np.random.default_rng(6)
    big = Dataset(rng.normal(size=(400, 3)))
    small = Dataset(rng.normal(size=(40, 3)) * 0.1)
    ms, _ = create_initial_map(small, TrainConfig(), sizing=big)
    rows, cols = side_lengths(big, target_neuron_count(400))
    assert ms.m == rows * cols  # budget from sizing data
    lo = small.patterns.min(axis=0)
    hi = small.patterns.max(axis=0)
    assert np.all(ms.weights >= lo) and np.all(ms.weights <= hi)  # ranges from data
