import numpy as np
import pytest

from amsom.baseline import train_batch_som
from amsom.core import Dataset
from amsom.engine import TrainConfig
from amsom.errors import DataError
from amsom.grid import LatticeSpec, build_lattice, init_weights

from conftest import assert_same_map, make_map


def test_single_neuron_epoch_is_the_global_mean():
    rng = np.random.default_rng(41)
    data = Dataset(rng.normal(loc=3.0, size=(25, 3)))
    ms = make_map(rng.normal(size=(1, 3)), positions=[[0.0, 0.0]])
    cfg = TrainConfig(max_epochs=1)
    ms, reports = train_batch_som(data, ms, cfg)
    assert len(reports) == 1
    assert np.max(np.abs(ms.weights[0] - data.patterns.mean(axis=0))) < 1e-12


def test_vanishing_sigma_epoch_equals_a_lloyd_step():
    # six patterns, three prototypes; with the kernel collapsed to the winner
    # itself, one epoch must reproduce a hand-coded k-means step
    data = Dataset([[0.0, 0.0], [0.2, 0.0], [5.0, 0.0], [5.2, 0.0], [0.0, 5.0], [0.2, 5.0]])
    start = np.array([[0.5, 0.0], [4.5, 0.0], [0.5, 4.5]])
    ms = make_map(start.copy(), positions=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                  edges=[(0, 1), (1, 2)])
    cfg = TrainConfig(sigma0=1e-3, sigma_final=1e-3, max_epochs=1)
    ms, _ = train_batch_som(data, ms, cfg)

    # the reference step, spelled out
    expect = start.copy()
    owners = [int(np.argmin(((p - start) ** 2).sum(axis=1))) for p in data.patterns]
    for i in range(3):
        mine = [p for p, o in zip(data.patterns, owners) if o == i]
        if mine:
            expect[i] = np.mean(mine, axis=0)
    assert np.max(np.abs(ms.weights - expect)) < 1e-9


def test_baseline_touches_weights_only():
    rng = np.random.default_rng(43)
    data = Dataset(rng.normal(size=(50, 2)))
    ms = build_lattice(LatticeSpec(3, 4))
    init_weights(ms, data, 7)
    positions = ms.positions.copy()
    edges = ms.edges.copy()
    ages = ms.ages.copy()
    w0 = ms.weights.copy()

    ms, reports = train_batch_som(data, ms, TrainConfig(max_epochs=30, sigma_decay_epochs=10))
    assert np.array_equal(ms.positions, positions)
    assert np.array_equal(ms.edges, edges)
    assert np.array_equal(ms.ages, ages)
    assert not np.array_equal(ms.weights, w0)
    # win counts accumulate one win per pattern per epoch
    assert ms.win_count.sum() == data.n * len(reports)


def test_baseline_termination_rule_matches_the_trainer():
    rng = np.random.default_rng(44)
    data = Dataset(rng.normal(size=(30, 2)))
    ms = build_lattice(LatticeSpec(3, 3))
    init_weights(ms, data, 1)
    _, reports = train_batch_som(data, ms, TrainConfig(eps1=1e3))
    assert [r.epoch for r in reports] == [1, 2]


def test_baseline_is_deterministic():
    rng = np.random.default_rng(45)
    data = Dataset(rng.normal(size=(40, 3)))
    weights = []
    for _ in range(2):
        ms = build_lattice(LatticeSpec(4, 3))
        init_weights(ms, data, 9)
        ms, _ = train_batch_som(data, ms, TrainConfig(max_epochs=40, sigma_decay_epochs=12))
        weights.append(ms.weights)
    assert np.array_equal(weights[0], weights[1])


def test_baseline_rejects_dimension_mismatch():
    data = Dataset([[1.0, 2.0, 3.0]])
    ms = make_map([[0.5, 1.0], [2.0, -1.0]], edges=[(0, 1, 4)])
    before = ms.copy()
    with pytest.raises(DataError, match="does not match"):
        train_batch_som(data, ms, TrainConfig())
    assert_same_map(ms, before)
