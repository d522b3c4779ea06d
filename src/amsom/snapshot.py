"""Map persistence (versioned JSON snapshots) and SVG rendering.

Snapshots are dumped with a fixed key order and default float repr, so the
same map always serializes to the same bytes and round-trips losslessly.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat

import numpy as np

from .core import MapState
from .errors import ConfigError, DataError, MapStructureError

SNAPSHOT_VERSION = 1

# Fill colors for class ids (cycled); dead or unlabeled neurons stay hollow.
PALETTE = [
    "#4c72b0",
    "#dd8452",
    "#55a868",
    "#c44e52",
    "#8172b3",
    "#937860",
    "#da8bc3",
    "#8c8c8c",
    "#ccb974",
    "#64b5cd",
]
# Side of the square SVG canvas and the blank border inside it, in pixels.
SVG_SIZE, SVG_MARGIN = 640, 40


def snapshot_dict(
    map_state: MapState,
    labels=None,
    config: dict | None = None,
    metrics: dict | None = None,
) -> dict:
    """Plain-dict form of a map: weights, positions, edges as (i, j, age)
    triples with i < j, plus optional labels, config echo and metrics."""
    i, j = map_state.edge_pairs()
    edges = np.column_stack([i, j, map_state.ages[i, j]]).tolist()
    return {
        "format_version": SNAPSHOT_VERSION,
        "neuron_count": map_state.m,
        "weights": map_state.weights.tolist(),
        "positions": map_state.positions.tolist(),
        "edges": edges,
        "win_counts": map_state.win_count.tolist(),
        "neuron_labels": list(labels) if labels is not None else None,
        "config": config,
        "metrics": metrics,
    }


def export_snapshot_json(
    map_state: MapState,
    path,
    labels=None,
    config: dict | None = None,
    metrics: dict | None = None,
) -> None:
    """Write a map's snapshot as JSON: the bytes ``json.dump(payload,
    indent=2)`` and a newline give, with a numpy scalar written as the
    Python number it holds. The text is streamed to the file, never held
    whole, and an object JSON cannot write leaves any previous file as it
    was, unless ``_open_output`` writes that file in place."""
    payload = snapshot_dict(map_state, labels=labels, config=config, metrics=metrics)
    with _open_output(path) as fh:
        json.dump(payload, fh, indent=2, default=_number)
        fh.write("\n")


def _number(value):
    """A numpy scalar (a config field may hold one) as the Python number it
    holds, for ``json.dump``; any other object it cannot write raises."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@contextlib.contextmanager
def _open_output(path, newline=None):
    """Write an output file: the one way the package opens a file for writing.

    Yields a UTF-8 text file. A new output, or a regular file of the writing
    user's with one link in a writable directory, is written to a new
    temporary beside the path a symlink leads to (so the link stays a link),
    created with the mode ``open(path, "w")`` gives a new file or the
    permission bits of the file it replaces. On success the temporary is
    moved over that path; on any error it is removed and the error
    re-raised, so a write that fails partway leaves the previous file whole.
    The moved file is the writing user's and has the directory's default
    ACL and no extended attributes. Any other existing output (a device,
    a FIFO, a hard link, another user's file, or a file in a read-only
    directory) is written in place, as ``open(path, "w")`` writes it. The
    path is an option of the run, so one that ``check_output_path`` refuses
    or that cannot be opened raises ConfigError.
    """
    target, st = check_output_path(path)
    folder, name = os.path.split(target)
    if st is not None and not (
        stat.S_ISREG(st.st_mode)
        and st.st_nlink == 1
        and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())
        and os.access(folder, os.W_OK)
    ):
        try:
            fh = open(path, "w", encoding="utf-8", newline=newline)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        with fh:
            yield fh
        return
    tmp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def check_output_path(path, *inputs) -> tuple:
    """Raise ConfigError, creating nothing, when a command may not write
    ``path``: it is empty, a directory, a name the file system rejects, a
    read-only file, one of the command's ``inputs`` (None for no file), or
    new in a missing or read-only directory (that of the path it leads to,
    through any symlink). Else return what ``_open_output`` writes from:
    that path and the path's one stat, None for a new file."""
    try:
        st = os.stat(path)
    except FileNotFoundError:  # a new file, or ""
        st = None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    target = os.path.realpath(path)
    folder = os.path.dirname(target)
    if not path or (
        not (os.path.isdir(folder) and os.access(folder, os.W_OK)) if st is None
        # os.access grants root every file, whatever its mode
        else stat.S_ISDIR(st.st_mode) or not (os.access(path, os.W_OK) and st.st_mode & 0o222)
    ):
        raise ConfigError(f"cannot write {path}: not a writable file in an existing directory")
    for source in inputs:
        if st and source and os.path.exists(source) and os.path.samestat(st, os.stat(source)):
            raise ConfigError(f"output {path} is the command's own input {source}")
    return target, st


def _field(payload: dict, key: str, shape: tuple, dtype) -> np.ndarray:
    """``payload[key]`` as a ``dtype`` array of ``shape``, where None matches
    any length. Raises DataError when the key is missing, the nesting is
    ragged, the entries are not numbers (integers for an integer field) or
    the shape differs."""
    if key not in payload:
        raise DataError(f"snapshot has no {key!r} field")
    kinds = "iu" if dtype is np.int64 else "iuf"
    try:
        arr = np.asarray(payload[key])
        if arr.size == 0:
            arr = arr.reshape([0 if s is None else s for s in shape])
    except ValueError:
        arr = None
    if (
        arr is None
        or (arr.size > 0 and arr.dtype.kind not in kinds)
        or arr.ndim != len(shape)
        or any(s is not None and s != t for s, t in zip(shape, arr.shape))
    ):
        raise DataError(f"snapshot {key!r} must be {np.dtype(dtype).name} of shape {shape}")
    return arr.astype(dtype)


def snapshot_to_map(payload: dict) -> MapState:
    """Rebuild a MapState from a snapshot dict.

    Every array is checked for shape and type, every edge for joining two
    distinct neurons and for being listed once in either orientation, and
    the optional labels for one class id (or null) per neuron, before
    anything is indexed; the rebuilt map must then pass
    ``MapState.validate``. Any violation raises DataError.
    """
    if not isinstance(payload, dict):
        raise DataError("snapshot must be a JSON object")
    if payload.get("format_version") != SNAPSHOT_VERSION:
        raise DataError(f"unsupported snapshot version {payload.get('format_version')!r}")
    m = payload.get("neuron_count")
    if type(m) is not int or m < 1:
        raise DataError(f"snapshot neuron_count must be a positive integer, got {m!r}")
    weights = _field(payload, "weights", (m, None), np.float64)
    positions = _field(payload, "positions", (m, 2), np.float64)
    a, b, age = _field(payload, "edges", (None, 3), np.int64).T
    win_count = _field(payload, "win_counts", (m,), np.int64)
    if np.any((a < 0) | (a >= m) | (b < 0) | (b >= m) | (a == b)):
        raise DataError(f"snapshot edges must join two distinct neurons in [0, {m})")
    # a pair listed twice, in either orientation, would keep whichever age
    # the repeated-index assignment below writes last
    pairs, counts = np.unique(np.minimum(a, b) * m + np.maximum(a, b), return_counts=True)
    if np.any(counts > 1):
        i, j = divmod(int(pairs[counts > 1][0]), m)
        raise DataError(f"snapshot lists edge ({i}, {j}) more than once")
    labels = payload.get("neuron_labels")
    if labels is not None and (
        not isinstance(labels, list)
        or len(labels) != m
        or any(v is not None and (type(v) is not int or v < 0) for v in labels)
    ):
        raise DataError(f"snapshot neuron_labels must be {m} class ids or nulls")
    edges = np.zeros((m, m), dtype=bool)
    ages = np.zeros((m, m), dtype=np.int64)
    edges[a, b] = edges[b, a] = True
    ages[a, b] = ages[b, a] = age
    map_state = MapState(weights, positions, edges, ages, win_count)
    try:
        map_state.validate()
    except MapStructureError as exc:
        raise DataError(f"invalid snapshot: {exc}") from exc
    return map_state


def load_snapshot(path) -> tuple[MapState, dict]:
    """Read a snapshot file; returns the map and the full payload dict.

    A file that cannot be read, is not JSON, or is not a valid snapshot
    raises DataError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"snapshot {path} is not JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # not UTF-8, a NUL byte in the path, or an int() limit
        raise DataError(f"cannot read snapshot {path}: {exc}") from exc
    return snapshot_to_map(payload), payload


def render_svg(map_state: MapState, path, labels=None) -> None:
    """Draw the map: one line per edge, one circle per neuron.

    Neurons are placed at their positions scaled into the canvas (y flipped so
    "up" stays up). Circles are filled by class color when ``labels`` gives a
    class id, hollow for None/unlabeled neurons. The layout is measured on
    halved positions, whose extent cannot overflow however far apart finite
    positions lie; halving is exact for normal numbers, so the canvas
    coordinates are those the positions themselves give.
    """
    pos = map_state.positions / 2.0
    lo = pos.min(axis=0)
    span = pos.max(axis=0) - lo
    scale = (SVG_SIZE - 2 * SVG_MARGIN) / max(float(span.max()), 1e-12 / 2.0)

    def to_canvas(p):
        x = SVG_MARGIN + (p[0] - lo[0]) * scale
        y = SVG_SIZE - SVG_MARGIN - (p[1] - lo[1]) * scale
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    for a, b in zip(*map_state.edge_pairs()):
        x1, y1 = to_canvas(pos[a])
        x2, y2 = to_canvas(pos[b])
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="#999999" stroke-width="1"/>'
        )
    for k in range(map_state.m):
        x, y = to_canvas(pos[k])
        label = None if labels is None else labels[k]
        fill = "none" if label is None else PALETTE[int(label) % len(PALETTE)]
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="6" fill="{fill}" '
            f'stroke="#333333" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    with _open_output(path) as fh:
        fh.write("\n".join(parts) + "\n")
