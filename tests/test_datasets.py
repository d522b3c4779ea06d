import math

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
