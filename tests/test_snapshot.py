import json

import numpy as np
import pytest

from amsom.cli import main
from amsom.core import Dataset
from amsom.engine import TrainConfig, train
from amsom.errors import DataError
from amsom.grid import LatticeSpec, build_lattice, init_weights
from amsom.snapshot import (
    PALETTE,
    export_snapshot_json,
    load_snapshot,
    render_svg,
    snapshot_dict,
)

from conftest import make_map


def _trained_map():
    rng = np.random.default_rng(61)
    data = Dataset(rng.normal(size=(40, 3)))
    ms = build_lattice(LatticeSpec(3, 3))
    init_weights(ms, data, 2)
    ms, _ = train(data, ms, TrainConfig(max_epochs=25, sigma_decay_epochs=8, seed=2))
    return ms


def test_snapshot_dict_edge_encoding():
    ms = make_map(
        [[1.0], [2.0], [3.0]],
        edges=[(0, 2, 7), (1, 2, 1)],
        win_count=[4, 5, 6],
    )
    payload = snapshot_dict(ms, labels=[0, None, 1])
    assert payload["format_version"] == 1
    assert payload["neuron_count"] == 3
    assert payload["edges"] == [[0, 2, 7], [1, 2, 1]]  # i < j, row-major
    assert payload["win_counts"] == [4, 5, 6]
    assert payload["neuron_labels"] == [0, None, 1]
    assert payload["config"] is None and payload["metrics"] is None


def test_snapshot_round_trip_is_lossless(tmp_path):
    ms = _trained_map()
    path = tmp_path / "map.json"
    export_snapshot_json(ms, path, labels=None, config={"seed": 2}, metrics={"qe": 0.5})
    loaded, payload = load_snapshot(path)
    assert np.array_equal(loaded.weights, ms.weights)  # full float precision
    assert np.array_equal(loaded.positions, ms.positions)
    assert np.array_equal(loaded.edges, ms.edges)
    assert np.array_equal(loaded.ages, ms.ages)
    assert np.array_equal(loaded.win_count, ms.win_count)
    assert payload["config"] == {"seed": 2}
    assert payload["metrics"] == {"qe": 0.5}


def test_snapshot_file_shape(tmp_path):
    ms = make_map([[1.0], [2.0]], edges=[(0, 1)])
    path = tmp_path / "map.json"
    export_snapshot_json(ms, path)
    text = path.read_text()
    assert text.endswith("}\n")
    json.loads(text)

    export_snapshot_json(ms, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "extras",
    [
        {"labels": [0, None, 2, 1, 1, None, 0, 2, 1]},
        {"labels": None},
        {"labels": [1] * 9, "config": {"seed": 2, "sigma0": None, "topology": "rectangular"},
         "metrics": {"qe_train": 0.1 + 0.2, "neurons": 9, "te_test": 1e-300}},
    ],
)
def test_snapshot_file_holds_the_bytes_json_dump_writes(tmp_path, extras):
    ms = _trained_map()
    path = tmp_path / "map.json"
    export_snapshot_json(ms, path, **extras)
    with open(tmp_path / "dumped.json", "w") as fh:
        json.dump(snapshot_dict(ms, **extras), fh, indent=2)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()


def test_snapshot_version_guard(tmp_path):
    ms = make_map([[1.0], [2.0]])
    path = tmp_path / "map.json"
    export_snapshot_json(ms, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError):
        load_snapshot(path)


MALFORMED = {
    "edge index -1": lambda p: p["edges"][0].__setitem__(0, -1),
    "self-loop edge": lambda p: p["edges"][0].__setitem__(1, p["edges"][0][0]),
    "negative age": lambda p: p["edges"][0].__setitem__(2, -3),
    "NaN weight": lambda p: p["weights"][1].__setitem__(0, float("nan")),
    "short win_counts": lambda p: p["win_counts"].pop(),
    "edge index >= m": lambda p: p["edges"][0].__setitem__(1, 3),
    "short positions": lambda p: p["positions"].pop(),
    "missing weights key": lambda p: p.pop("weights"),
    "short neuron_labels": lambda p: p["neuron_labels"].pop(),
    "neuron_count 0": lambda p: p.__setitem__("neuron_count", 0),
    "neuron_count text": lambda p: p.__setitem__("neuron_count", "3"),
    "neuron_count true": lambda p: p.__setitem__("neuron_count", True),
    "neuron_count float": lambda p: p.__setitem__("neuron_count", 2.0),
    "ragged weights": lambda p: p["weights"][1].append(0.0),
}


@pytest.mark.parametrize("fault", list(MALFORMED))
def test_render_rejects_a_malformed_snapshot_as_a_data_error(fault, tmp_path, capsys):
    ms = make_map([[1.0], [2.0], [3.0]], edges=[(0, 1, 2), (1, 2, 0)])
    path = tmp_path / "map.json"
    export_snapshot_json(ms, path, labels=[0, 1, None])
    payload = json.loads(path.read_text())
    MALFORMED[fault](payload)
    path.write_text(json.dumps(payload))
    assert main(["render", str(path), "--out", str(tmp_path / "map.svg")]) == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "map.svg").exists()


def test_render_rejects_a_snapshot_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text("[1, 2]\n")
    assert main(["render", str(path), "--out", str(tmp_path / "map.svg")]) == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "map.svg").exists()


def test_edgeless_snapshot_round_trips_to_the_same_bytes(tmp_path):
    path = tmp_path / "map.json"
    export_snapshot_json(make_map([[1.0], [2.0], [3.0]]), path)
    loaded, payload = load_snapshot(path)
    assert payload["edges"] == [] and not loaded.edges.any()
    export_snapshot_json(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_render_svg_draws_every_neuron_and_edge(tmp_path):
    ms = build_lattice(LatticeSpec(2, 2))
    ms.weights = np.zeros((4, 2))
    path = tmp_path / "map.svg"
    render_svg(ms, path, labels=[0, 1, None, 0])
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 4
    assert text.count("<line") == 4
    assert text.count(f'fill="{PALETTE[0]}"') == 2
    assert text.count(f'fill="{PALETTE[1]}"') == 1
    assert text.count('fill="none"') == 1


def test_render_svg_flips_the_y_axis(tmp_path):
    ms = make_map(
        [[0.0], [0.0]], positions=[[0.0, 0.0], [0.0, 1.0]], edges=[(0, 1)]
    )
    path = tmp_path / "map.svg"
    render_svg(ms, path)
    circles = [line for line in path.read_text().splitlines() if line.startswith("<circle")]
    cy = [float(c.split('cy="')[1].split('"')[0]) for c in circles]
    assert cy[1] < cy[0]  # higher map position drawn nearer the top
