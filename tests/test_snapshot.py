import ast
import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from amsom import snapshot
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
    snapshot_to_map,
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


def test_snapshot_writes_a_numpy_scalar_as_the_number_it_holds(tmp_path):
    # a config may hold numpy scalars; they are echoed as Python numbers,
    # and an object JSON cannot write still raises
    ms = make_map([[0.0], [1.0]])
    numpy_config = {"max_epochs": np.int64(5), "sf": np.float32(0.5), "normalize": np.bool_(True)}
    export_snapshot_json(ms, tmp_path / "numpy.json", config=numpy_config)
    export_snapshot_json(ms, tmp_path / "plain.json", config={"max_epochs": 5, "sf": 0.5, "normalize": True})
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    with pytest.raises(TypeError, match="not JSON serializable"):
        export_snapshot_json(ms, tmp_path / "bad.json", config={"sf": object()})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["numpy.json", "plain.json"]


def test_a_snapshot_that_fails_partway_leaves_the_previous_file_whole(tmp_path, monkeypatch):
    # the text streams into a temporary beside the file, which replaces the
    # file only once whole: an object JSON cannot write, met after the
    # weights reached the disk, leaves the old bytes and no temporary
    ms = make_map(np.arange(2000.0).reshape(500, 4))  # weights over several write buffers
    path = tmp_path / "map.json"
    export_snapshot_json(ms, path)
    before = path.read_bytes()
    streamed = []

    def number_or_fail(value):
        streamed.extend(p.stat().st_size for p in tmp_path.iterdir() if p != path)
        raise TypeError("not JSON serializable")

    monkeypatch.setattr(snapshot, "_number", number_or_fail)
    with pytest.raises(TypeError):
        export_snapshot_json(ms, path, config={"max_epochs": np.int64(5)})
    assert len(streamed) == 1 and streamed[0] > 0  # it failed partway through
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_a_snapshot_write_stats_its_path_once(tmp_path, monkeypatch):
    # check_output_path's one look decides both whether the path may be
    # written and how _open_output writes it, for a new file and for one
    # that the write replaces
    path = str(tmp_path / "map.json")
    looks = []
    real_stat = os.stat

    def counting_stat(target, *args, **kwargs):
        looks.append(os.fspath(target) == path)
        return real_stat(target, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counting_stat)
    counts = []
    for _ in ("new", "replaced"):
        looks.clear()
        export_snapshot_json(make_map([[1.0], [2.0]]), path)
        counts.append(sum(looks))
    monkeypatch.undo()
    assert counts == [1, 1]
    assert load_snapshot(path)[0].m == 2


SRC = Path(__file__).resolve().parent.parent / "src" / "amsom"


def _file_writes(source: str) -> list:
    """(function, line) of each call in ``source`` that may open a file for
    writing: builtin or ``Path.open`` with a mode that is not a read-only
    literal, any ``os.open``, ``write_text`` or ``write_bytes``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func, args = node.func, list(node.args)
            mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
            if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
                found.append((function, node.lineno))
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and (
                func.value.id == "os" and func.attr == "open"
            ):
                found.append((function, node.lineno))
            elif (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr == "open"
            ):
                at = 1 if isinstance(func, ast.Name) else 0  # Path.open takes no path
                if mode is None and len(args) > at:
                    mode = args[at]
                read_only = mode is None or (
                    isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")
                )
                if not read_only:
                    found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_the_output_writer_opens_a_file_for_writing():
    # every output goes through snapshot._open_output, which makes the write
    # atomic and UTF-8; the scan itself finds each form it looks for
    sample = (
        "import os\n"
        "def f(p, m):\n"
        "    open(p, 'w'); open(p, mode='a'); open(p, m); open(p, 'r+b'); p.open('x')\n"
        "    os.open(p, os.O_RDONLY); p.write_text(''); p.write_bytes(b'')\n"
        "    open(p); open(p, 'rb'); open(p, encoding='utf-8'); p.open(); p.read_text()\n"
    )
    assert _file_writes(sample) == [("f", 3)] * 5 + [("f", 4)] * 3
    writes = {}
    for path in sorted(SRC.glob("*.py")):
        for function, line in _file_writes(path.read_text(encoding="utf-8")):
            writes.setdefault(f"{path.name}:{function}", []).append(line)
    assert list(writes) == ["snapshot.py:_open_output"]
    # the in-place open, and the temporary's os.open and its open
    assert len(writes["snapshot.py:_open_output"]) == 3


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
    "edge listed reversed too": lambda p: p["edges"].append([1, 0, 2]),
    "edge listed twice": lambda p: p["edges"].append([1, 2, 4]),
    "infinite position": lambda p: p["positions"][2].__setitem__(1, float("inf")),
    "NaN position": lambda p: p["positions"][0].__setitem__(0, float("nan")),
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


def test_snapshot_edge_listed_twice_is_named_and_one_reversed_entry_is_kept():
    ms = make_map([[1.0], [2.0], [3.0]], edges=[(0, 1, 2), (1, 2, 0)])
    payload = json.loads(json.dumps(snapshot_dict(ms)))
    payload["edges"] = [[1, 0, 2], [2, 1, 0]]
    rebuilt = snapshot_to_map(payload)
    assert np.array_equal(rebuilt.edges, ms.edges) and np.array_equal(rebuilt.ages, ms.ages)
    payload["edges"].append([1, 2, 7])
    with pytest.raises(DataError, match=r"edge \(1, 2\) more than once"):
        snapshot_to_map(payload)


def test_render_rejects_a_snapshot_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text("[1, 2]\n")
    assert main(["render", str(path), "--out", str(tmp_path / "map.svg")]) == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "map.svg").exists()


def test_render_rejects_an_integer_too_long_to_read_as_a_data_error(tmp_path, capsys):
    # json.load raises a plain ValueError for an integer of more digits than
    # int() converts (4300 by default), which is no JSONDecodeError
    path = tmp_path / "map.json"
    path.write_text('{"format_version": 1, "neuron_count": ' + "9" * 5000 + "}\n")
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


def _canvas_numbers(path) -> list:
    """Every coordinate attribute of an SVG file, in file order, as text."""
    return re.findall(r'(?:cx|cy|x1|y1|x2|y2)="([^"]*)"', path.read_text())


def test_render_svg_places_far_apart_finite_positions_on_the_canvas(tmp_path):
    # each position is finite, but their extent, 2e308, overflows
    ms = make_map([[0.0], [0.0]], positions=[[-1e308, 0.0], [1e308, 0.0]], edges=[(0, 1)])
    path = tmp_path / "map.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        render_svg(ms, path)
    numbers = [float(v) for v in _canvas_numbers(path)]
    assert all(math.isfinite(v) for v in numbers)
    # line x1 y1 x2 y2, then each circle's cx cy: the canvas's two ends
    assert numbers == [40.0, 600.0, 600.0, 600.0] * 2


def test_render_svg_coordinates_are_those_of_the_positions(tmp_path):
    # the extent measured on halved positions moves no canvas coordinate:
    # the reference scales the positions themselves
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "map.svg"

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 8),
        log_scale=st.floats(-290, 300),
        offset=st.sampled_from([0.0, 1.0, -250.0, 1e6]),
    )
    def check(seed, m, log_scale, offset):
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=(m, 2)) * 10.0**log_scale + offset
        render_svg(make_map(np.zeros((m, 1)), positions=pos), path)
        lo = pos.min(axis=0)
        scale = 560 / max(float((pos.max(axis=0) - lo).max()), 1e-12)
        expected = []
        for x, y in pos:
            expected += [f"{40 + (x - lo[0]) * scale:.2f}", f"{600 - (y - lo[1]) * scale:.2f}"]
        assert _canvas_numbers(path) == expected

    check()


def test_render_svg_flips_the_y_axis(tmp_path):
    ms = make_map(
        [[0.0], [0.0]], positions=[[0.0, 0.0], [0.0, 1.0]], edges=[(0, 1)]
    )
    path = tmp_path / "map.svg"
    render_svg(ms, path)
    circles = [line for line in path.read_text().splitlines() if line.startswith("<circle")]
    cy = [float(c.split('cy="')[1].split('"')[0]) for c in circles]
    assert cy[1] < cy[0]  # higher map position drawn nearer the top
