"""Command line interface: train one map, run a benchmark, render a snapshot.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections import Counter
from pathlib import Path

from .bench import (
    dataset_file,
    experiment_spec_from_file,
    load_dataset,
    output_paths,
    parse_label_column,
    read_config_file,
    run_experiment,
    typed_values,
)
from .engine import TrainConfig, smooth, train
from .errors import ConfigError, DataError
from .grid import create_initial_map
from .metrics import quality_report
from .snapshot import check_output_path, export_snapshot_json, load_snapshot, render_svg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="amsom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train and smooth one adaptive map")
    p_train.add_argument("dataset", help="CSV path or the generator id 'cluster'")
    p_train.add_argument("--config", help="flat key = value config file")
    p_train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a single config field (repeatable)")
    p_train.add_argument("--label-column", default=None, type=parse_label_column,
                         help="class column, by 0-based index or header name; 'none' for no labels")
    p_train.add_argument("--out", default="map.json", help="snapshot output path")

    p_bench = sub.add_parser("bench", help="run a full benchmark experiment")
    p_bench.add_argument("spec", help="experiment spec file (flat key = value)")
    p_bench.add_argument("--out", default=None, help="override the spec's output_dir")

    p_render = sub.add_parser("render", help="render a snapshot to SVG")
    p_render.add_argument("snapshot", help="snapshot JSON path")
    p_render.add_argument("--out", default=None, help="SVG output path (default: alongside)")
    return parser


def _cmd_train(args) -> int:
    values = read_config_file(args.config) if args.config is not None else {}
    pairs = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    # each source is typed under its own name; a file's value that a --set
    # pair overrides is never read, and the merged values are checked once
    values = {k: v for k, v in values.items() if k not in pairs}
    config = TrainConfig(
        **typed_values(values, TrainConfig, args.config), **typed_values(pairs, TrainConfig, "--set")
    )
    check_output_path(args.out, dataset_file(args.dataset), args.config)

    data = load_dataset(args.dataset, args.label_column, seed=config.seed)
    map_state, cfg = create_initial_map(data, config)
    initial_m = map_state.m
    train_epochs, events = 0, Counter()
    for report in train(data, map_state, cfg)[1]:
        train_epochs, events = train_epochs + 1, events + report.events.counts()
    smooth_epochs = len(smooth(data, map_state, cfg)[1])
    quality = quality_report(data, map_state)
    export_snapshot_json(
        map_state,
        args.out,
        labels=quality.neuron_labels,
        config=dataclasses.asdict(cfg),
        metrics={
            "qe": quality.qe,
            "te": quality.te,
            "neurons": map_state.m,
            "train_epochs": train_epochs,
            "smooth_epochs": smooth_epochs,
        },
    )
    print(f"neurons: {initial_m} -> {map_state.m}")
    print(f"epochs: {train_epochs} train + {smooth_epochs} smooth")
    kinds = ("edge_aged_out", "edge_trimmed", "neuron_removed", "neuron_split")
    print("events: " + ", ".join(f"{events[kind]} {kind}" for kind in kinds))
    print(f"qe: {quality.qe:.6f}  te: {quality.te:.6f}  dead: {quality.dead_unit_count}")
    print(f"snapshot: {args.out}")
    return 0


def _cmd_bench(args) -> int:
    spec = experiment_spec_from_file(args.spec)
    if args.out is not None:
        spec = dataclasses.replace(spec, output_dir=args.out)
    try:
        os.stat(spec.output_dir)
    except FileNotFoundError:
        pass  # a directory yet to be made holds no input
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte
        raise ConfigError(f"cannot use output_dir {spec.output_dir}: {exc}") from exc
    else:
        for path in output_paths(spec):
            check_output_path(path, dataset_file(spec.dataset), args.spec)
    summary = run_experiment(spec)
    for algorithm in ("amsom", "som"):
        stats = summary[algorithm]
        print(
            f"{algorithm}: qe={stats['qe_train']['mean']:.6f} "
            f"te={stats['te_train']['mean']:.6f} "
            f"neurons={stats['neurons']['mean']:.1f} "
            f"epochs={stats['train_epochs']['mean']:.1f}"
        )
    print(f"outputs: {spec.output_dir}")
    return 0


def _cmd_render(args) -> int:
    if not Path(args.snapshot).name:  # "", "." or "/": no file, and no default output
        raise DataError(f"cannot read snapshot {args.snapshot!r}: the path names no file")
    out = str(Path(args.snapshot).with_suffix(".svg")) if args.out is None else args.out
    check_output_path(out, args.snapshot)
    map_state, payload = load_snapshot(args.snapshot)
    render_svg(map_state, out, labels=payload.get("neuron_labels"))
    print(f"svg: {out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_render(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
