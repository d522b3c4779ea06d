"""Exit-code fuzz at the command-line boundary.

Whatever a CSV, a ``--set`` pair, a ``--config`` file, a bench spec file or
a snapshot holds, ``amsom train``, ``amsom bench`` and ``amsom render`` end
with exit 0 (success), 1 (configuration error) or 2 (data error), never
with exit 3, which is kept for internal faults. The profile is fixed and
derandomized, so every run tries the same examples.
"""

import json
import tempfile
from pathlib import Path

import pytest

from amsom.bench import ExperimentSpec
from amsom.cli import main
from amsom.engine import TrainConfig
from amsom.snapshot import snapshot_dict

from conftest import IRIS_CSV, make_map

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FUZZ = hypothesis.settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)

# One cell each CSV of a train case holds, at a drawn place: a plain
# number, so that training runs, or a cell that is no plain number: missing
# tokens, text, extreme values, quoting and multi-line cells, NUL bytes,
# invalid UTF-8, a byte-order mark, and a cell over the csv module's field
# size limit. A case per cell makes every one reach the reader.
ODD_CELLS = {
    "number": b"0.5", "empty": b"", "blank": b" ", "na": b"NA", "question-mark": b"?",
    "nan": b"nan", "inf": b"inf", "max": b"1e308", "min": b"-1e308", "subnormal": b"1e-320",
    "text": b"x", "label": b"label", "quoted": b'"1.5"', "multi-line": b'"1\n2"',
    "quoted-comma": b'"a,b"', "open-quote": b'"', "inner-quote": b'1"2',
    "nul-in-number": b"1\x002", "nul": b"\x00", "invalid-utf8": b"\xff", "latin1": b"\xe9",
    "byte-order-mark": b"\xef\xbb\xbf1", "over-field-limit": b"1" * 200_000,
}
NUMBERS = st.one_of(
    st.integers(-1000, 1000).map(str), st.floats(-1e3, 1e3, allow_nan=False).map(repr)
).map(str.encode)


@st.composite
def csv_files(draw, cell: bytes):
    """A numeric CSV, with or without a header, holding ``cell`` at one
    place, with up to two faults put in: a row made a cell short or long
    (the header too), or a blank line."""
    width = draw(st.sampled_from([1, 2, 2, 3, 4]))
    rows = [[draw(NUMBERS) for _ in range(width)] for _ in range(draw(st.integers(1, 12)))]
    if draw(st.booleans()):
        rows.insert(0, draw(st.permutations([b"a", b"b", b"label", b"c"]))[:width])
    row = rows[draw(st.integers(0, len(rows) - 1))]
    row[draw(st.integers(0, width - 1))] = cell
    for fault in draw(st.lists(st.sampled_from(["short", "long", "blank"]), max_size=2)):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "short":
            del row[-1:]
        elif fault == "long":
            row.append(draw(NUMBERS))
        else:
            rows.insert(draw(st.integers(0, len(rows))), [])
    end = draw(st.sampled_from([b"\n", b"", b"\r\n\n"]))
    return b"\n".join(b",".join(row) for row in rows) + end


# each config field's text drawn mostly by its kinds, sometimes from values
# of any kind, so most --set pairs reach the data and training
KIND_VALUES = {
    "float": st.one_of(st.floats(0, 1), st.floats(allow_nan=False)).map(repr),
    "int": st.integers(-1, 2**64).map(str),
    "str": st.sampled_from(["rectangular", "hexagonal", "gaussian", "zero", "x"]),
    "None": st.sampled_from(["none", "null"]),
}
ANY_VALUE = st.one_of(
    st.sampled_from(["", " 3 ", "true", "nan", "inf", "-1e308", "1e-308", "10**9"]),
    st.floats().map(repr),
    st.text(max_size=4),
)
FIELDS = TrainConfig.__dataclass_fields__
KIND_PAIRS = st.sampled_from(sorted(FIELDS)).flatmap(
    lambda key: st.one_of(*(KIND_VALUES[kind] for kind in FIELDS[key].type.split(" | ")))
    .map(lambda value: f"{key}={value}")
)
SET_ITEMS = st.one_of(
    KIND_PAIRS,
    KIND_PAIRS,
    KIND_PAIRS,
    st.tuples(st.sampled_from(sorted(FIELDS) + ["nosuch", ""]), ANY_VALUE).map("=".join),
    st.sampled_from(sorted(FIELDS)),
)
LABEL_COLUMNS = st.sampled_from([None, None, None, "none", "0", "-1", "2", "9", "label", "a", "x"])


def _check_exit_code(argv, capsys) -> None:
    code = main(argv)
    assert code in (0, 1, 2), f"exit {code}: {capsys.readouterr().err}"
    capsys.readouterr()


@pytest.mark.parametrize("cell", ODD_CELLS.values(), ids=ODD_CELLS.keys())
def test_train_exits_0_1_or_2_on_any_csv_and_set_pairs(cell, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, out = Path(tmp) / "data.csv", Path(tmp) / "map.json"

        @hypothesis.settings(FUZZ, max_examples=12)
        @hypothesis.given(csv_files(cell), st.lists(SET_ITEMS, max_size=3), LABEL_COLUMNS)
        def check(text, items, label_column):
            csv_path.write_bytes(text)
            argv = ["train", str(csv_path), "--out", str(out)]
            if label_column is not None:
                argv += ["--label-column", label_column]
            for item in items:
                argv += ["--set", item]
            _check_exit_code(argv + ["--set", "max_epochs=2", "--set", "smooth_max_epochs=1"], capsys)

        check()


# A flat key = value file (a --config file or a bench spec) is fuzzed line
# by line: typed values of known keys, any value, unknown keys, a line
# without "=", comments, blank lines and invalid UTF-8, with keys repeated
# at random (the last one wins). The epoch caps and the run count are kept
# tiny: a file sets them first, and the values drawn for them later are
# out of range, of the wrong kind or tiny, never a long run.
CAPPED = {"runs": "1", "max_epochs": "2", "smooth_max_epochs": "1"}
CAPPED_VALUES = st.sampled_from(["-1", "0", "1", "2", "1.0", "2.5", "x", "", "none", "nan", "1e3"])
SPEC_FIELDS = {
    name: f.type for name, f in ExperimentSpec.__dataclass_fields__.items() if name != "config"
}
SPEC_VALUES = {
    "train_frac": st.sampled_from(["0.6", "0", "-0.1", "1", "0.2", "nan", "inf", "x", "0.6 0.2"]),
    "test_frac": st.sampled_from(["0.2", "0", "0.4", "1e-9", "nan", "-inf", ""]),
    "val_frac": st.sampled_from(["0.2", "0", "0.5", "1e308", "none", "true"]),
    "label_column": st.sampled_from(["none", "null", "species", "4", "0", "-1", "9", "x", " 4 ", ""]),
    "normalize": st.sampled_from(["true", "false", "yes", "0", "1", "maybe", ""]),
}


def _line_values(key: str):
    if key in CAPPED:
        return CAPPED_VALUES
    if key in SPEC_VALUES:
        return SPEC_VALUES[key]
    field_type = FIELDS[key].type if key in FIELDS else SPEC_FIELDS[key]
    return st.one_of(*(KIND_VALUES[kind] for kind in field_type.split(" | ")))


def _lines(keys):
    """Lines of a flat key = value file over ``keys``, as bytes: mostly a
    value of the key's kinds, sometimes any value or an odd line."""
    keys = sorted(keys)
    pair = st.sampled_from(keys).flatmap(
        lambda key: _line_values(key).map(lambda value: f"{key} = {value}".encode())
    )
    free = [key for key in keys if key not in CAPPED]
    any_pair = st.tuples(st.sampled_from(free), ANY_VALUE).map(lambda kv: " = ".join(kv).encode())
    odd = st.sampled_from([
        b"nosuch = 1", b"= 3", b"max_epochs 2", b"x", b"# a comment", b"", b"   ",
        b"seed = 1 # a comment", b"seed = \xff", b"\xff\xfe", b"runs == 1", b"sf = 0.5 = 0.5",
    ])
    return st.lists(st.one_of(pair, pair, pair, pair, pair, any_pair, odd), max_size=4)


def _file(head: dict, lines: list) -> bytes:
    return b"\n".join([f"{k} = {v}".encode() for k, v in head.items()] + lines) + b"\n"


def test_bench_exits_0_1_or_2_on_any_spec_file(capsys):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec, tiny = tmp / "spec.cfg", tmp / "tiny.csv"
        tiny.write_text("a,b,label\n0,1,x\n1,0,y\n1,1,x\n")
        (tmp / "blocked").write_text("")
        datasets = [str(IRIS_CSV), "cluster"] * 3 + [
            str(tiny), str(tmp / "missing.csv"), str(tmp), "", str(tmp / "a\0b.csv")
        ]
        outputs = [str(tmp / "out")] * 4 + [str(tmp / "blocked" / "out"), str(tmp / "out\0dir")]

        @hypothesis.settings(FUZZ, max_examples=100)
        @hypothesis.given(
            st.one_of(st.none(), st.sampled_from(datasets)),
            st.sampled_from(outputs),
            _lines(set(FIELDS) | set(SPEC_FIELDS) - {"dataset", "output_dir"}),
        )
        def check(dataset, output_dir, lines):
            head = dict(CAPPED)
            if dataset is not None:
                head["dataset"] = dataset
            head["output_dir"] = output_dir
            spec.write_bytes(_file(head, lines))
            _check_exit_code(["bench", str(spec)], capsys)

        check()


def test_train_exits_0_1_or_2_on_any_config_file(capsys):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "train.cfg", Path(tmp) / "map.json"

        @hypothesis.settings(FUZZ, max_examples=100)
        @hypothesis.given(_lines(FIELDS), LABEL_COLUMNS)
        def check(lines, label_column):
            config.write_bytes(_file({k: v for k, v in CAPPED.items() if k in FIELDS}, lines))
            argv = ["train", str(IRIS_CSV), "--config", str(config), "--out", str(out)]
            if label_column is not None:
                argv += ["--label-column", label_column]
            _check_exit_code(argv + ["--set", "max_epochs=2", "--set", "smooth_max_epochs=1"], capsys)

        check()


JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([2**63, -(2**70)]),
        st.floats(), st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)


def _valid_snapshot() -> dict:
    map_state = make_map(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        positions=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        edges=[(0, 1, 2), (0, 2, 0)],
        win_count=[3, 1, 0],
    )
    return snapshot_dict(map_state, labels=[0, None, 1], metrics={"qe": 0.5})


@st.composite
def snapshot_files(draw):
    """A valid snapshot with one of its fields, entries or bytes changed."""
    payload = _valid_snapshot()
    how = draw(st.sampled_from(["field", "entry", "drop", "bytes"]))
    key = draw(st.sampled_from(sorted(payload)))
    if how == "field":
        payload[key] = draw(JSON_VALUES)
    elif how == "drop":
        del payload[key]
    elif how == "entry":
        key = draw(st.sampled_from(["weights", "positions", "edges", "win_counts", "neuron_labels"]))
        row = draw(st.integers(0, len(payload[key]) - 1))
        if isinstance(payload[key][row], list):
            payload[key][row][draw(st.integers(0, len(payload[key][row]) - 1))] = draw(JSON_VALUES)
        else:
            payload[key][row] = draw(JSON_VALUES)
    text = json.dumps(payload, indent=2).encode()
    if how == "bytes":
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.binary(max_size=3)) + text[at + cut :]
    return text


def test_render_exits_0_1_or_2_on_any_snapshot(capsys):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.json"

        @FUZZ
        @hypothesis.given(snapshot_files())
        def check(text):
            path.write_bytes(text)
            _check_exit_code(["render", str(path)], capsys)

        check()
