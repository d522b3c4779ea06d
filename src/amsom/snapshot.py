"""Map persistence (versioned JSON snapshots) and SVG rendering.

Snapshots are dumped with a fixed key order and default float repr, so the
same map always serializes to the same bytes and round-trips losslessly.
"""

from __future__ import annotations

import json
import os

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
    indent=2)`` and a newline give, in one write."""
    payload = snapshot_dict(map_state, labels=labels, config=config, metrics=metrics)
    text = json.dumps(payload, indent=2) + "\n"
    with _open_output(path) as fh:
        fh.write(text)


def _open_output(path):
    """Open an output file for writing. Its path is an option of the run,
    so a path that cannot be opened raises ConfigError."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def check_output_path(path) -> None:
    """Raise the ConfigError of ``_open_output`` up front, creating nothing,
    when ``path`` is empty or a directory, or its directory is missing or
    read-only."""
    folder = os.path.dirname(path) or "."
    if not path or os.path.isdir(path) or not os.path.isdir(folder) or not os.access(
        path if os.path.exists(path) else folder, os.W_OK
    ):
        raise ConfigError(f"cannot write {path}: not a writable file in an existing directory")


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
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"snapshot {path} is not JSON: {exc}") from exc
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
