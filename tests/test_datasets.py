import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from amsom.core import Dataset
from amsom.datasets import (
    CLUSTER_CENTERS,
    check_split_fractions,
    generate_cluster_dataset,
    load_csv,
    split_dataset,
)
from amsom.errors import ConfigError, DataError

from conftest import IRIS_CSV


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_with_header_and_named_label(tmp_path):
    path = _write(tmp_path, "x,y,kind\n1,2,a\n3,4,b\n5,6,a\n")
    data = load_csv(path, label_column="kind")
    assert data.n == 3 and data.d == 2
    assert np.array_equal(data.patterns, [[1, 2], [3, 4], [5, 6]])
    # string classes map to ids by sorted value
    assert np.array_equal(data.labels, [0, 1, 0])


def test_load_csv_label_by_index_and_negative_index(tmp_path):
    path = _write(tmp_path, "7,1,2\n8,3,4\n")
    by_index = load_csv(path, label_column=0)
    assert np.array_equal(by_index.patterns, [[1, 2], [3, 4]])
    assert np.array_equal(by_index.labels, [7, 8])
    by_negative = load_csv(path, label_column=-1)
    assert np.array_equal(by_negative.patterns, [[7, 1], [8, 3]])
    assert np.array_equal(by_negative.labels, [2, 4])


def test_load_csv_headerless_numbers_and_no_labels(tmp_path):
    path = _write(tmp_path, "1.5,2.5\n3.5,4.5\n")
    data = load_csv(path)
    assert data.n == 2
    assert data.labels is None
    with pytest.raises(ConfigError):
        load_csv(path, label_column="x")  # a name needs a header row


def test_load_csv_skips_rows_with_missing_values(tmp_path, caplog):
    path = _write(tmp_path, "a,b\n1,2\n,4\n5,NA\n7,nan\n9,?\n11,12\n")
    with caplog.at_level("WARNING"):
        data = load_csv(path)
    assert data.n == 2
    assert np.array_equal(data.patterns, [[1, 2], [11, 12]])
    assert "skipped 4 rows" in caplog.text


def test_load_csv_hard_errors(tmp_path):
    with pytest.raises(DataError, match="line 3"):
        load_csv(_write(tmp_path, "1,2\n3,4\n5,oops\n"))
    with pytest.raises(DataError, match="line 2"):
        load_csv(_write(tmp_path, "1,2\n3,4,5\n"))
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, ""))
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "x,y\n"))  # header but nothing under it
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, "x,y\n,\n"))  # everything skipped
    with pytest.raises(ConfigError):
        load_csv(_write(tmp_path, "1,2\n"), label_column=5)


def test_load_csv_numbers_errors_by_physical_line(tmp_path):
    # the header's quoted cell spans lines 1-2, so the bad value is on line 4
    text = 'a,"b\nc",label\n1,2,x\n3,oops,y\n'
    with pytest.raises(DataError, match="line 4: unparseable value 'oops'"):
        load_csv(_write(tmp_path, text), label_column="label")
    # a record that spans lines 2-3 is numbered by its first; blank lines count
    text = '1,2\n"3\n",4,5\n\n6,oops\n'
    with pytest.raises(DataError, match="line 2: expected 2 cells, got 3"):
        load_csv(_write(tmp_path, text))
    with pytest.raises(DataError, match="line 5: unparseable value 'oops'"):
        load_csv(_write(tmp_path, '1,2\n"3\n",4\n\n6,oops\n'))


def test_load_csv_header_of_another_width_is_a_data_error(tmp_path):
    # a header wider or narrower than the data rows, with or without a label
    # column that only the header holds, names the header's line
    for text in ("a,b,c\n1,2\n3,4\n", "a\n1,2\n3,4\n", "\na,b,c\n1,2\n"):
        line = 2 if text.startswith("\n") else 1
        for column in (None, "c", "a", 0):
            with pytest.raises(DataError, match=f"line {line}: header has"):
                load_csv(_write(tmp_path, text), label_column=column)


def test_load_csv_missing_label_column_is_a_config_error(tmp_path):
    # another column argument fixes each of these, so none is a data fault
    named = _write(tmp_path, "x,y,kind\n1,2,a\n")
    bare = _write(tmp_path, "1,2,3\n", name="bare.csv")
    for path, column in [(named, 3), (named, -4), (named, "nosuch"), (bare, "kind")]:
        with pytest.raises(ConfigError):
            load_csv(path, label_column=column)


def test_load_csv_unreadable_file_is_a_data_error(tmp_path):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("x,caf\xe9\n1,2\n".encode("latin-1"))
    for path in [tmp_path / "missing.csv", tmp_path, latin1]:
        with pytest.raises(DataError, match="cannot read"):
            load_csv(path)


# the parse stops at each file's fault, far ahead of its last line, which
# is no UTF-8: the decode error still comes first
@pytest.mark.parametrize(
    "fault, text",
    [
        ("line 3: unparseable value 'oops'", b"a,b\n1,2\n3,oops\n"),
        ("field larger than field limit", b"a,b\n1,2\n3," + b"4" * 200_000 + b"\n"),
        ("line 1: header has 3 cells", b"a,b,c\n1,2\n3,4\n"),
    ],
    ids=["unparseable-cell", "cell-over-the-field-limit", "header-of-another-width"],
)
def test_load_csv_holds_a_record_fault_until_the_file_decodes(fault, text, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(text + b"5,6\n" * 10000)
    with pytest.raises(DataError, match=fault):
        load_csv(path)
    path.write_bytes(text + b"5,6\n" * 10000 + b"\xff,7\n")
    with pytest.raises(DataError, match="cannot read"):
        load_csv(path)


def test_load_csv_opens_its_path_once(tmp_path, monkeypatch):
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr("amsom.datasets.open", counting_open, raising=False)
    load_csv(IRIS_CSV, label_column="species")
    assert opened == [IRIS_CSV]
    faulty = _write(tmp_path, "a,b\n1,2\n3,oops\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(faulty)
    assert opened == [IRIS_CSV, faulty]


def test_load_csv_reads_a_fifo_like_a_file(tmp_path):
    # the loader runs in a child process, so a loader that waits on the
    # FIFO for a second writer fails the test at the timeout
    fifo, out = tmp_path / "iris.csv", tmp_path / "loaded.npz"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(IRIS_CSV.read_bytes(),), daemon=True)
    writer.start()
    script = (
        "import sys, numpy as np; from amsom.datasets import load_csv; "
        "data = load_csv(sys.argv[1], 'species'); "
        "np.savez(sys.argv[2], patterns=data.patterns, labels=data.labels)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(fifo), str(out)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert proc.returncode == 0, proc.stderr
    expected, loaded = load_csv(IRIS_CSV, "species"), np.load(out)
    assert np.array_equal(loaded["patterns"], expected.patterns)
    assert np.array_equal(loaded["labels"], expected.labels)


def test_load_csv_peak_memory_is_a_small_multiple_of_the_patterns(tmp_path):
    # the loader keeps one float64 buffer and the label strings, not every
    # record's cells and floats until the end of the file
    n, d = 10000, 16
    rng = np.random.default_rng(5)
    rows = zip(rng.normal(size=(n, d)).tolist(), rng.integers(0, 8, n).tolist())
    path = tmp_path / "wide.csv"
    path.write_text(
        ",".join(f"x{j}" for j in range(d))
        + ",label\n"
        + "".join(",".join(map(repr, row)) + f",{label}\n" for row, label in rows)
    )
    tracemalloc.start()
    try:
        data = load_csv(path, label_column="label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.patterns.shape == (n, d) and data.labels.shape == (n,)
    assert peak < 3 * n * d * 8 + (1 << 20)


def test_load_csv_integer_valued_labels_pass_through(tmp_path):
    path = _write(tmp_path, "1,2,2.0\n3,4,0\n")
    data = load_csv(path, label_column=2)
    assert np.array_equal(data.labels, [2, 0])


def test_load_csv_non_finite_labels_are_category_names(tmp_path):
    # float('inf') cannot become an int; such labels are names, sorted as strings
    path = _write(tmp_path, "1,2,inf\n3,4,1\n5,6,1e400\n7,8,-inf\n9,10,1e300\n")
    data = load_csv(path, label_column=2)
    assert np.array_equal(data.labels, [4, 1, 3, 0, 2])


def test_iris_fixture_file(iris):
    assert iris.n == 150 and iris.d == 4
    assert np.array_equal(np.bincount(iris.labels), [50, 50, 50])
    assert iris.patterns[:, 0].min() > 4.0  # sepal lengths are in cm


def test_cluster_generator_layout():
    data = generate_cluster_dataset(0)
    assert data.n == 1000 and data.d == 2
    assert np.array_equal(np.bincount(data.labels), [250, 250, 250, 250])
    per_blob = data.patterns.reshape(4, 250, 2)
    assert np.max(np.abs(per_blob.mean(axis=1) - CLUSTER_CENTERS)) < 0.2
    # the blobs are tight enough that nearest-center recovers every label
    d2 = ((data.patterns[:, None, :] - CLUSTER_CENTERS[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(d2, axis=1), data.labels)


def test_cluster_generator_seeding():
    a = generate_cluster_dataset(3)
    b = generate_cluster_dataset(3)
    c = generate_cluster_dataset(4)
    assert np.array_equal(a.patterns, b.patterns)
    assert not np.array_equal(a.patterns, c.patterns)


def test_split_dataset_sizes_and_disjointness():
    data = Dataset(np.arange(150.0).reshape(150, 1), labels=np.arange(150))
    train, test, val = split_dataset(data, (0.6, 0.2, 0.2), seed=11)
    assert (train.n, test.n, val.n) == (90, 30, 30)
    ids = np.concatenate([train.labels, test.labels, val.labels])
    assert np.array_equal(np.sort(ids), np.arange(150))  # a permutation, no overlap


def test_split_dataset_is_deterministic():
    data = Dataset(np.arange(60.0).reshape(30, 2))
    a = split_dataset(data, (0.5, 0.3, 0.2), seed=5)
    b = split_dataset(data, (0.5, 0.3, 0.2), seed=5)
    c = split_dataset(data, (0.5, 0.3, 0.2), seed=6)
    for part_a, part_b in zip(a, b):
        assert np.array_equal(part_a.patterns, part_b.patterns)
    assert not np.array_equal(a[0].patterns, c[0].patterns)


def test_split_dataset_rejects_bad_fractions():
    data = Dataset(np.arange(20.0).reshape(10, 2))
    with pytest.raises(ConfigError):
        split_dataset(data, (0.5, 0.5), seed=0)
    with pytest.raises(ConfigError):
        split_dataset(data, (0.7, 0.4, -0.1), seed=0)
    with pytest.raises(ConfigError):
        split_dataset(data, (0.5, 0.3, 0.3), seed=0)
    with pytest.raises(ConfigError):
        # rounds to an empty validation part
        split_dataset(Dataset(np.arange(6.0).reshape(3, 2)), (0.9, 0.05, 0.05), seed=0)


def test_split_fractions_must_be_finite():
    # NaN passes every comparison-based range check, so it needs its own
    for bad in [(math.nan, 0.2, 0.2), (0.6, math.inf, 0.2), (math.inf, -math.inf, 1.0)]:
        with pytest.raises(ConfigError, match="finite"):
            check_split_fractions(bad)
        with pytest.raises(ConfigError, match="finite"):
            split_dataset(Dataset(np.arange(20.0).reshape(10, 2)), bad, seed=0)
    assert check_split_fractions(["0.6", 0.2, 0.2]) == (0.6, 0.2, 0.2)


def _load_csv_cell_by_cell(path, label_column=None):
    """``load_csv`` as it read every cell before its one-float()-per-cell
    fast path: strip, missing-token test and float() for each cell."""
    import csv
    from pathlib import Path

    from amsom.datasets import MISSING_TOKENS, _holds_integer_label, _is_float

    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows, lineno = [], 1
            for row in reader:
                rows.append((lineno, row))
                lineno = reader.line_num + 1
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [(lineno, row) for lineno, row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise DataError(f"{path}: no data rows")
    header = None
    header_line, first = rows[0][0], [cell.strip() for cell in rows[0][1]]
    if not any(_is_float(cell) for cell in first):
        header = first
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: header but no data rows")
    width = len(rows[0][1])
    if header is not None and len(header) != width:
        raise DataError(
            f"{path}: line {header_line}: header has {len(header)} cells, the data rows {width}"
        )
    if isinstance(label_column, str):
        if header is None:
            raise ConfigError(f"{path}: label column {label_column!r} needs a header row")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ConfigError(f"{path}: no column named {label_column!r}") from None
    elif label_column is None:
        label_idx = None
    else:
        label_idx = int(label_column)
        if label_idx < 0:
            label_idx += width
        if not 0 <= label_idx < width:
            raise ConfigError(f"label column {label_column} out of range for {width} columns")
    patterns, raw_labels = [], []
    for lineno, row in rows:
        if len(row) != width:
            raise DataError(f"{path}: line {lineno}: expected {width} cells, got {len(row)}")
        cells = [cell.strip() for cell in row]
        if any(cell.lower() in MISSING_TOKENS for cell in cells):
            continue
        features = []
        for col, cell in enumerate(cells):
            if col == label_idx:
                continue
            try:
                features.append(float(cell))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: unparseable value {cell!r}") from None
        patterns.append(features)
        if label_idx is not None:
            raw_labels.append(cells[label_idx])
    if not patterns:
        raise DataError(f"{path}: all rows were skipped")
    labels = None
    if label_idx is not None:
        if all(_holds_integer_label(cell) for cell in raw_labels):
            labels = np.array([int(float(cell)) for cell in raw_labels], dtype=np.int64)
        else:
            mapping = {value: i for i, value in enumerate(sorted(set(raw_labels)))}
            labels = np.array([mapping[cell] for cell in raw_labels], dtype=np.int64)
    return Dataset(np.asarray(patterns, dtype=np.float64), labels)


_NUMBERS = ["0", "1.5", "-2.25e-3", "7", " 3.5 ", "\t4\t", '"1\n"', "1_0", "inf", "-inf", "1e999"]
_ODD = ["", " ", '""', "na", "NA", "nan", "NaN", " nan ", "-nan", "+nan", "?", "x1", "1,5", '"2\n3"']
_LABELS = ["0", "1", " 2 ", "3.0", "1.5", "setosa", "b", "inf", "", "na", "?", "NaN", '"a\nb"']


def _csv_cell(text):
    # a cell holding a comma, quote or line break is quoted, the break kept
    if text.startswith('"') and text.endswith('"') and len(text) > 1:
        return text
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def test_load_csv_matches_the_cell_by_cell_reader_property(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "random.csv"

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        features=st.integers(1, 4),
        label_at=st.one_of(st.none(), st.integers(0, 4)),
        header=st.booleans(),
        by_name=st.booleans(),
        records=st.lists(
            st.tuples(
                st.lists(st.one_of(st.sampled_from(_NUMBERS), st.sampled_from(_ODD)),
                         min_size=4, max_size=4),
                st.sampled_from(_LABELS),
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(0, 7),
            ),
            min_size=1,
            max_size=8,
        ),
        blank_lines=st.lists(st.integers(0, 8), max_size=2),
    )
    def check(features, label_at, header, by_name, records, blank_lines):
        label_at = None if label_at is None else min(label_at, features)
        width = features + (label_at is not None)
        lines = []
        if header:
            lines.append(",".join(f"c{j}" for j in range(width)))
        for cells, label, number, shape in records:
            row = [repr(number) if shape == 0 else cell for cell in cells[:features]]
            if label_at is not None:
                row.insert(label_at, label)
            if shape == 7:
                row = row[:-1] or ["1", "2"]  # a record of another width
            lines.append(",".join(_csv_cell(cell) for cell in row))
        for at in blank_lines:
            lines.insert(min(at, len(lines)), "")
        path.write_text("\n".join(lines) + "\n")
        column = label_at
        if label_at is not None and by_name and header:
            column = f"c{label_at}"
        outcomes = []
        for loader in (load_csv, _load_csv_cell_by_cell):
            try:
                data = loader(path, label_column=column)
            except Exception as exc:  # noqa: BLE001 - the two must fail alike
                outcomes.append((type(exc), str(exc)))
            else:
                labels = None if data.labels is None else data.labels.tolist()
                outcomes.append((data.patterns.shape, data.patterns.tobytes(), labels))
        assert outcomes[0] == outcomes[1]

    check()
