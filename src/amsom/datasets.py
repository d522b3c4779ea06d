"""Dataset ingestion: CSV loading, the synthetic CLUSTER generator, and
shuffled train/test/validation splitting.
"""

from __future__ import annotations

import csv
import logging
import math
from pathlib import Path

import numpy as np

from .core import Dataset
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

MISSING_TOKENS = {"", "na", "nan", "?"}


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _holds_integer_label(cell: str) -> bool:
    """True for a cell holding an integer that fits an int64 class id.

    Infinite, NaN and out-of-range numbers are not, so they are read as
    category names like any other non-integer label.
    """
    try:
        value = float(cell)
    except ValueError:
        return False
    return value.is_integer() and abs(value) < 2.0**63


def _read_record(path, lineno: int, row: list, label_idx: int | None) -> list | None:
    """The features of one record, read cell by cell: None if any cell is
    a missing token, else DataError at the first feature that is no number."""
    cells = [cell.strip() for cell in row]
    if any(cell.lower() in MISSING_TOKENS for cell in cells):
        return None
    features = []
    for col, cell in enumerate(cells):
        if col == label_idx:
            continue
        try:
            features.append(float(cell))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: unparseable value {cell!r}") from None
    return features


def load_csv(path, label_column: int | str | None = None) -> Dataset:
    """Load a comma-separated numeric dataset.

    A header row is auto-detected when the first row is entirely non-numeric.
    ``label_column`` selects the class column by 0-based index (negative
    counts from the end) or by header name. Rows with missing values (empty
    cells, NA, ?) are skipped and counted; any other unparseable cell is a
    hard error reported with the first physical line of its record (a quoted
    cell may span lines). Labels that are all integers
    pass through; otherwise (names, fractions, inf, or integers beyond int64)
    every distinct label string is mapped to an integer id by sorted value.

    A file that cannot be read or decoded raises DataError. A label column
    that does not exist (index out of range, unknown name, or a name without
    a header row) raises ConfigError: another column argument fixes it.
    """
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
    first = [cell.strip() for cell in rows[0][1]]
    if not any(_is_float(cell) for cell in first):
        header = first
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: header but no data rows")

    width = len(rows[0][1])
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

    patterns = []
    raw_labels = []
    skipped = 0
    for lineno, row in rows:
        if len(row) != width:
            raise DataError(f"{path}: line {lineno}: expected {width} cells, got {len(row)}")
        # One float() per cell, which strips the blanks strip() would: a
        # missing token fails it or reads as NaN, so only records holding
        # one (or a cell that is no number) are read again cell by cell.
        cells = row if label_idx is None else row[:label_idx] + row[label_idx + 1 :]
        try:
            features = list(map(float, cells))
        except ValueError:
            features = None
        if features is None or math.isnan(sum(features)):
            features = _read_record(path, lineno, row, label_idx)
            if features is None:
                skipped += 1
                continue
        elif label_idx is not None and row[label_idx].strip().lower() in MISSING_TOKENS:
            skipped += 1
            continue
        patterns.append(features)
        if label_idx is not None:
            raw_labels.append(row[label_idx].strip())

    if skipped:
        log.warning("%s: skipped %d rows with missing values", path, skipped)
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


CLUSTER_CENTERS = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
CLUSTER_SD = 0.5
CLUSTER_PER_BLOB = 250


def generate_cluster_dataset(seed) -> Dataset:
    """Synthetic benchmark: 1000 2-D points in four well-separated blobs.

    Four Gaussian blobs of 250 points each (sd 0.5) centered on the corners
    of a 5 x 5 square; labels are the blob ids. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(loc=center, scale=CLUSTER_SD, size=(CLUSTER_PER_BLOB, 2))
        for center in CLUSTER_CENTERS
    ]
    patterns = np.vstack(parts)
    labels = np.repeat(np.arange(len(CLUSTER_CENTERS)), CLUSTER_PER_BLOB)
    return Dataset(patterns, labels)


def check_split_fractions(fractions) -> tuple[float, float, float]:
    """Return train/test/validation fractions as floats, or raise ConfigError
    unless they are three finite positive numbers summing to one."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3:
        raise ConfigError("need exactly three split fractions")
    if not all(math.isfinite(f) and f > 0.0 for f in fractions):
        raise ConfigError(f"split fractions must be finite and positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {sum(fractions)}")
    return fractions


def split_dataset(data: Dataset, fractions, seed) -> tuple[Dataset, Dataset, Dataset]:
    """Shuffle and cut into train/test/validation parts.

    ``fractions`` pass ``check_split_fractions``; sizes are the rounded first
    two fractions with the remainder going to validation. Any empty part is
    an error. No stratification: just a seeded permutation and contiguous
    slices.
    """
    fractions = check_split_fractions(fractions)

    n = data.n
    n_train = int(round(fractions[0] * n))
    n_test = int(round(fractions[1] * n))
    n_val = n - n_train - n_test
    if min(n_train, n_test, n_val) < 1:
        raise ConfigError(
            f"split of {n} patterns at {fractions} leaves an empty part "
            f"({n_train}/{n_test}/{n_val})"
        )

    perm = np.random.default_rng(seed).permutation(n)
    train = data.subset(perm[:n_train])
    test = data.subset(perm[n_train : n_train + n_test])
    val = data.subset(perm[n_train + n_test :])
    return train, test, val
