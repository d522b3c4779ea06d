"""Span tracing of the amsom layers from outside the package.

Every public function defined in one of the layer modules is wrapped, and the
wrapper is bound under every name that held the original. The modules import
their callees by name (``from .core import assign_all``), so patching only
the defining module would miss the calls made through those other bindings.
Private helpers are never wrapped: their time stays inside the public caller,
and renaming or folding them cannot break the trace.

Spans are kept in memory as ``(function, start, end, parent)`` and reduced to
layer numbers once, by ``Tracer.summary`` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import Counter, defaultdict

PACKAGE = "amsom"
LAYERS = ["core", "engine", "baseline", "metrics", "grid", "datasets", "snapshot", "bench", "cli"]

# The enclosing span with one of these names sets the phase of everything it
# calls; the innermost one wins.
PHASES = {
    "engine.train": "train",
    "engine.smooth": "smooth",
    "baseline.train_batch_som": "baseline",
    "metrics.quality_report": "metrics",
    "metrics.label_neurons": "metrics",
    "metrics.quantization_error": "metrics",
    "metrics.topographic_error": "metrics",
    "metrics.dead_units": "metrics",
}

# Trainers whose per-epoch reports are read through their ``progress`` hook.
EPOCH_LOOPS = ["engine.train", "engine.smooth", "baseline.train_batch_som"]

EVENT_KINDS = ["edge_aged_out", "neuron_removed", "neuron_split", "edge_trimmed", "removal_skipped"]


class Tracer:
    """Wraps the public functions of the amsom layers and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        # Per-call facts that are not durations, keyed by function name:
        # lists of (span index, value...) tuples.
        self.facts: dict[str, list] = defaultdict(list)
        self.epoch_times: dict[str, list] = defaultdict(list)
        self.events: Counter = Counter()

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules + [importlib.import_module(PACKAGE)]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn)
        fact = _FACTS.get(name)
        epoch_loop = name in EPOCH_LOOPS
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if epoch_loop:
                bound = signature.bind(*args, **kwargs)
                bound.arguments["progress"] = self._epoch_recorder(name, bound.arguments.get("progress"))
                args, kwargs = bound.args, bound.kwargs
            start = perf_counter()
            if epoch_loop:
                self.epoch_times[name].append([start])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if fact is not None:
                self.facts[name].append((idx,) + fact(signature.bind(*args, **kwargs).arguments))
            return result

        return wrapper

    def _epoch_recorder(self, name: str, downstream):
        marks = self.epoch_times[name]

        def record(report):
            marks[-1].append(time.perf_counter())
            if name == "engine.train":
                self.events.update(event["kind"] for event in report.events)
            if downstream is not None:
                downstream(report)

        return record

    def summary(self, wall_s: float) -> dict:
        """Reduce the recorded spans to the layer metrics (see README.md)."""
        n = len(self.spans)
        names = [self.names[span[0]] for span in self.spans]
        duration = [span[2] - span[1] for span in self.spans]
        child = [0.0] * n
        phase = [None] * n
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[i]
            phase[i] = PHASES.get(names[i], phase[parent] if parent >= 0 else None)

        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        durations: dict[str, list] = defaultdict(list)
        for i, name in enumerate(names):
            calls[name] += 1
            total[name] += duration[i]
            self_s[name] += duration[i] - child[i]
            durations[name].append(duration[i])

        out = {"trace.wall_s": wall_s, "trace.spans": n}
        for name in sorted(calls):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))

        assign = [i for i, name in enumerate(names) if name == "core.assign_all"]
        for ph in ("train", "smooth", "baseline", "metrics"):
            out[f"core.assign_all.calls.{ph}"] = sum(1 for i in assign if phase[i] == ph)
        out["core.assign_all.call_ms_p50"] = _median(durations["core.assign_all"]) * 1e3
        nmd = [fact[1] for fact in self.facts["core.assign_all"]]
        out["core.assign_all.gflop"] = 3.0 * sum(nmd) / 1e9
        out["core.assign_all.temp_mb_max"] = 8.0 * max(nmd, default=0) / 1e6

        kernels = self.facts["engine.batch_weight_update"] + self.facts["engine.position_update"]
        out["engine.kernel_pairs"] = sum(m * m for _, m, _ in kernels)
        smooth_kernels = [(m, nnz) for i, m, nnz in kernels if phase[i] == "smooth"]
        pairs = sum(m * m for m, _ in smooth_kernels)
        out["engine.smooth.kernel_useful_frac"] = (
            sum(nnz for _, nnz in smooth_kernels) / pairs if pairs else 0.0
        )

        for loop in EPOCH_LOOPS:
            gaps = [b - a for marks in self.epoch_times[loop] for a, b in zip(marks, marks[1:])]
            out[f"{loop}.epochs"] = len(gaps)
            out[f"{loop}.epoch_ms_p50"] = _median(gaps) * 1e3
        out["baseline.epochs"] = out["baseline.train_batch_som.epochs"]
        for kind in EVENT_KINDS:
            out[f"engine.events.{kind}"] = self.events[kind]

        out["snapshot.bytes_written"] = sum(size for _, size in self.facts["snapshot.export_snapshot_json"])
        out["datasets.loaders.s"] = total["datasets.load_csv"] + total["datasets.generate_cluster_dataset"]
        out["bench.run_single.fit_s_p50"] = _median(durations["bench.run_single"])
        out["trace.top_self_s"] = [
            [name, self_s[name]] for name in sorted(self_s, key=self_s.get, reverse=True)[:8]
        ]
        return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _assign_shape(arguments) -> tuple:
    data, map_state = arguments["data"], arguments["map_state"]
    return (data.n * map_state.m * data.d,)


def _kernel_size(arguments) -> tuple:
    m = arguments["map_state"].m
    mask = arguments.get("neighbor_mask")
    return (m, m * m if mask is None else int(mask.sum()))


def _file_size(arguments) -> tuple:
    return (os.path.getsize(arguments["path"]),)


# Values computed from the arguments of a call once it returned: the n*m*d of
# a winner search, the kernel size and its useful (unmasked) entries, the
# bytes of a snapshot.
_FACTS = {
    "core.assign_all": _assign_shape,
    "engine.batch_weight_update": _kernel_size,
    "engine.position_update": _kernel_size,
    "snapshot.export_snapshot_json": _file_size,
}
