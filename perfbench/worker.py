"""One repetition of a benchmark workload, in a fresh interpreter.

Started by run.py as ``python3 perfbench/worker.py '<job json>'`` with
``src/`` on PYTHONPATH. The job's ``mode`` is one of

- ``probe``: set up (import amsom, load the data) and exit;
- ``rep``: set up, run the workload, check its outputs;
- ``traced``: the same as ``rep`` with every layer wrapped by tracer.py;
- ``ladder``: time one ``assign_all`` call shape.

The result is written as JSON to ``job["result"]``. Timing starts from
``job["t_spawn"]``, the parent's monotonic clock just before the spawn, so
set-up includes interpreter start.
"""

import json
import sys
import time


def setup(job):
    import amsom  # noqa: F401 - the package import is part of set-up
    from amsom.datasets import generate_cluster_dataset, load_csv

    if job["workload"] == "cluster-protocol":
        return generate_cluster_dataset(job["seed"])
    return load_csv(job["csv"], label_column=job["label_column"])


def run_workload(job, out):
    """Run the workload's batch job, writing every output under ``out``."""
    if job["workload"] == "mixture16-train":
        from amsom.cli import main

        code = main([
            "train", job["csv"],
            "--label-column", job["label_column"],
            "--set", "smooth_max_epochs=20",
            "--set", f"seed={job['seed']}",
            "--out", str(out / "map.json"),
        ])
        if code != 0:
            raise RuntimeError(f"amsom train exited with {code}")
        return
    from amsom.bench import ExperimentSpec, run_experiment
    from amsom.engine import TrainConfig

    run_experiment(ExperimentSpec(
        dataset=job["csv"] or "cluster",
        runs=job["runs"],
        label_column=job["label_column"],
        output_dir=str(out),
        config=TrainConfig(seed=job["seed"]),
    ))


def check_outputs(job, out):
    """Check every fit's final map and metrics.

    Returns ``(fits, failed, qe, te, errors)``.

    A fit fails when its snapshot is missing, its map breaks the structural
    invariants (degree cap, no isolated neuron), or its qe/te is not finite.
    qe and te are the AMSOM means: over the test splits for a protocol, over
    the training data for ``amsom train``.
    """
    import math

    from amsom.engine import TrainConfig
    from amsom.snapshot import load_snapshot

    q = TrainConfig(seed=job["seed"]).effective_q
    if job["workload"] == "mixture16-train":
        fits = [("map.json", "qe", "te")]
    else:
        fits = [
            (f"run_{run:02d}_{algorithm}.json", "qe_test", "te_test")
            for run in range(job["runs"])
            for algorithm in ("amsom", "som")
        ]
    failed, errors, qes, tes = 0, [], [], []
    for name, qe_key, te_key in fits:
        try:
            map_state, payload = load_snapshot(out / name)
            map_state.validate(q_max=q, allow_isolated=False)
            qe, te = payload["metrics"][qe_key], payload["metrics"][te_key]
            if not (math.isfinite(qe) and math.isfinite(te)):
                raise ValueError(f"non-finite qe={qe} te={te}")
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            failed += 1
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        if "_som" not in name:
            qes.append(qe)
            tes.append(te)
    qe = sum(qes) / len(qes) if qes else None
    te = sum(tes) / len(tes) if tes else None
    return len(fits), failed, qe, te, errors


def output_digest(out):
    """SHA-256 over the names and bytes of every file the workload wrote."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ladder(job):
    """Time one assign_all call at a fixed (n, m, d) and its traced peak."""
    import statistics
    import tracemalloc

    import numpy as np
    from amsom.core import Dataset, MapState, assign_all

    n, m, d = job["shape"]
    rng = np.random.default_rng(job["seed"])
    data = Dataset(rng.normal(size=(n, d)))
    map_state = MapState(
        rng.normal(size=(m, d)),
        np.zeros((m, 2)),
        np.zeros((m, m), dtype=bool),
        np.zeros((m, m), dtype=np.int64),
        np.zeros(m, dtype=np.int64),
    )
    assign_all(data, map_state)
    times = []
    for _ in range(job["calls"]):
        start = time.perf_counter()
        assign_all(data, map_state)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    assign_all(data, map_state)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"call_ms": statistics.median(times) * 1e3, "peak_mb": peak / 1e6}


def main():
    job = json.loads(sys.argv[1])
    if job["mode"] == "ladder":
        result = ladder(job)
    else:
        setup(job)
        ready = time.monotonic()
        result = {"setup_s": ready - job["t_spawn"]}
        if job["mode"] != "probe":
            result.update(measure(job, ready))
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


def measure(job, ready):
    from pathlib import Path

    out = Path(job["out"])
    tracer = None
    if job["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        ready = time.monotonic()
    error = None
    try:
        run_workload(job, out)
    except Exception as exc:  # noqa: BLE001 - reported as failed fits
        error = f"{type(exc).__name__}: {exc}"
    wall = time.monotonic() - ready

    import resource

    import amsom

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
    result = {"wall_s": wall, "peak_rss_mb": rss_mb}
    if tracer is not None:
        # Reduced before the output checks, whose calls are not the workload's.
        result["layers"] = tracer.summary(wall)
    fits, failed, qe, te, errors = check_outputs(job, out)
    if error is not None:
        failed, errors = fits, [error] + errors
    src = Path(job["root"]) / "src"
    if Path(amsom.__file__).resolve().parent != (src / "amsom").resolve():
        raise RuntimeError(f"imported amsom from {amsom.__file__}, not from {src}")
    result.update(
        fits=fits, failed=failed, errors=errors, qe=qe, te=te, sha256=output_digest(out)
    )
    return result


if __name__ == "__main__":
    main()
