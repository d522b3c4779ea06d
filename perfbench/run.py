"""The amsom benchmark: three batch workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads, metric names and units are declared in BENCHMARK.json; README.md
in this directory says why each workload was chosen and which end-to-end
metric each layer metric should move. Every repetition runs in a fresh
interpreter (worker.py) that imports amsom from ``src/`` with the BLAS
thread pools pinned. Outputs go to a scratch directory under
``.bench_work/`` that is removed at the end. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (fits)
and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
THREADS = 1
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

# Paired runs per protocol repetition, and the number of distinct inputs a
# run cycles through. Repetition i uses input i mod K, whose config seed (and
# generated data) is seed*K + i mod K: qe averages over K inputs and wall_s
# over many short repetitions, so neither rests on one input, and every
# input that runs twice is checked byte for byte against its first run.
PROTOCOL_RUNS = {"iris-protocol": 5, "cluster-protocol": 1}
INPUTS = {"iris-protocol": 4, "cluster-protocol": 4, "mixture16-train": 2}

# One timed call shape per child. The 20000x707x16 rung of the ROADMAP
# ladder is left out: its n*m*d temporary alone is 1.8 GB.
LADDER = [(600, 158, 2), (2000, 224, 16)]
LADDER_CALLS = 5

MIXTURE_BLOBS, MIXTURE_PER_BLOB, MIXTURE_D = 8, 250, 16


class BenchError(Exception):
    """The benchmark cannot run here; exits non-zero without a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def write_mixture_csv(path: Path, seed: int) -> None:
    """A 16-D mixture of 8 Gaussian blobs (sd 1, centres uniform in [0, 10]),
    n=2000 in shuffled order, with a ``label`` column. Deterministic per seed."""
    import numpy as np

    rng = np.random.default_rng([seed, MIXTURE_D])
    centres = rng.uniform(0.0, 10.0, size=(MIXTURE_BLOBS, MIXTURE_D))
    labels = rng.permutation(np.repeat(np.arange(MIXTURE_BLOBS), MIXTURE_PER_BLOB))
    points = centres[labels] + rng.normal(size=(labels.size, MIXTURE_D))
    with open(path, "w") as fh:
        fh.write(",".join(f"x{j}" for j in range(MIXTURE_D)) + ",label\n")
        for row, label in zip(points.tolist(), labels.tolist()):
            fh.write(",".join(repr(v) for v in row) + f",{label}\n")


class Bench:
    """One benchmark run: a workload at a seed, in its own scratch directory."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root, self.work, self.env = root, work, child_env(root)
        self.spawned = 0
        self.inputs = INPUTS[workload]
        self.runs = PROTOCOL_RUNS.get(workload)
        self.job = {"workload": workload, "root": str(root), "runs": self.runs,
                    "csv": None, "label_column": None}
        self.seeds = [seed * self.inputs + k for k in range(self.inputs)]
        self.csvs = [None] * self.inputs
        if workload == "iris-protocol":
            self.job.update(label_column="species")
            self.csvs = [str(root / "data" / "iris.csv")] * self.inputs
        elif workload == "mixture16-train":
            self.job.update(label_column="label")
            for k, input_seed in enumerate(self.seeds):
                self.csvs[k] = str(work / f"mixture16-{k}.csv")
                write_mixture_csv(Path(self.csvs[k]), input_seed)

    def fits_per_rep(self) -> int:
        return 1 if self.runs is None else 2 * self.runs

    def spawn(self, mode: str, k: int = 0, **extra) -> dict | None:
        """Run worker.py once on input ``k``; returns its result, or None if
        the worker failed."""
        self.spawned += 1
        tag = f"{self.spawned:03d}-{mode}"
        job = dict(self.job, mode=mode, seed=self.seeds[k], csv=self.csvs[k],
                   result=str(self.work / f"{tag}.json"), **extra)
        if mode in ("rep", "traced"):
            job["out"] = str(self.work / tag)
            os.mkdir(job["out"])
        job["t_spawn"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)], cwd=self.root, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            print(f"worker {tag} exited with {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return None
        with open(job["result"]) as fh:
            result = json.load(fh)
        result["input"] = k
        return result


def repeat(round_fn, seconds: float, min_rounds: int) -> None:
    """Call ``round_fn(i)`` for i = 0, 1, ... until the next round would end
    after ``seconds``, and at least ``min_rounds`` times."""
    start = time.monotonic()
    durations = []
    while True:
        begun = time.monotonic()
        round_fn(len(durations))
        durations.append(time.monotonic() - begun)
        if len(durations) >= min_rounds and (
            time.monotonic() - start + statistics.median(durations) > seconds
        ):
            return


def tally(bench: Bench, reps: list) -> dict:
    """Failure counts and output consistency over a set of repetitions.

    ``reps`` holds worker results (None for a worker that failed) in run
    order. The first finished repetition of each input is its reference; a
    later one whose outputs differ from it fails whole.
    """
    first = {}
    failed = 0
    for index, r in enumerate(reps):
        if r is None:
            failed += bench.fits_per_rep()
            continue
        reference = first.setdefault(r["input"], r)
        failed += r["fits"] if r["sha256"] != reference["sha256"] else r["failed"]
        for error in r["errors"]:
            print(f"repetition {index}: fit failed: {error}", file=sys.stderr)
    digest = hashlib.sha256()
    for k in sorted(first):
        digest.update(first[k]["sha256"].encode())
    return {"attempted": bench.fits_per_rep() * len(reps), "failed": failed,
            "first": first, "output_sha256": digest.hexdigest()}


def median_of(reps: list, key: str):
    values = [r[key] for r in reps if r is not None and r.get(key) is not None]
    return statistics.median(values) if values else None


def mean_over_inputs(first: dict, key: str, inputs: int):
    values = [first[k][key] for k in range(inputs) if k in first]
    if len(values) < inputs or None in values:
        return None
    return sum(values) / inputs


def plain_run(bench: Bench, seconds: float) -> tuple:
    probes, reps = [], []

    def one_round(i):
        k = i % bench.inputs
        probes.append(bench.spawn("probe", k))
        reps.append(bench.spawn("rep", k))

    repeat(one_round, seconds, max(MIN_REPS, bench.inputs))
    status = tally(bench, reps)
    metrics = {
        "setup_s": median_of(probes + reps, "setup_s"),
        "wall_s": median_of(reps, "wall_s"),
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
        "qe": mean_over_inputs(status["first"], "qe", bench.inputs),
        "te": mean_over_inputs(status["first"], "te", bench.inputs),
        "fail_frac": status["failed"] / status["attempted"],
    }
    samples = [round(r["wall_s"], 4) for r in reps if r is not None]
    return metrics, status, {"inputs": bench.inputs, "reps": len(reps), "wall_s_samples": samples}


def traced_run(bench: Bench, seconds: float) -> tuple:
    """Per-layer figures of input 0, from traced repetitions alternated with
    untraced ones, plus the assign_all ladder."""
    layers = {}
    for n, m, d in LADDER:
        result = bench.spawn("ladder", shape=[n, m, d], calls=LADDER_CALLS)
        if result is None:
            raise BenchError(f"assign_all ladder rung {n}x{m}x{d} failed")
        for key in ("call_ms", "peak_mb"):
            layers[f"core.assign_all.ladder.{n}x{m}x{d}.{key}"] = result[key]

    plain, traced = [], []

    def one_round(i):
        plain.append(bench.spawn("rep"))
        traced.append(bench.spawn("traced"))

    repeat(one_round, seconds, 1)
    status = tally(bench, plain + traced)
    done = [r for r in traced if r is not None]
    if not done or median_of(plain, "wall_s") is None:
        raise BenchError("no traced and untraced repetition pair finished")
    for key, value in done[0]["layers"].items():
        if isinstance(value, (int, float)):
            # median_low keeps a measured value, so exact counts stay integers.
            value = statistics.median_low(r["layers"][key] for r in done)
        layers[key] = value
    layers["trace.overhead_frac"] = median_of(done, "wall_s") / median_of(plain, "wall_s") - 1.0
    layers["metrics.te"] = done[0]["te"]
    return layers, status, {"reps": len(plain), "traced_reps": len(done)}


def git_sha(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    root = Path.cwd()
    try:
        declared = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"benchmark: cannot read BENCHMARK.json in {root}: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, [w["name"] for w in declared["workloads"]])
    required = [root / "src" / "amsom" / "__init__.py"]
    if args.workload == "iris-protocol":
        required.append(root / "data" / "iris.csv")
    missing = [str(p.relative_to(root)) for p in required if not p.is_file()]
    if missing:
        print(f"benchmark: run from a checkout of the repository; missing {missing}",
              file=sys.stderr)
        return 2

    import numpy

    env = {"nproc": os.cpu_count(), "blas_threads": THREADS,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "git_sha": git_sha(root)}
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        bench = Bench(root, args.workload, args.seed, work)
        run = traced_run if args.trace else plain_run
        values, status, counts = run(bench, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    section = "per_layer" if args.trace else "end_to_end"
    print(f"env: {json.dumps(env)}")
    print(f"workload: {args.workload} seed={args.seed} {counts} "
          f"fits={status['attempted']} failed={status['failed']}")
    if not args.trace:
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        units.update(te="fraction", fail_frac="fraction")
        for name in ("setup_s", "wall_s", "peak_rss_mb", "qe", "te", "fail_frac"):
            print(f"  {name} = {values[name]} {units[name]}")
    else:
        for name in sorted(values):
            print(f"  {name} = {values[name]}")
    print(f"output_sha256: {status['output_sha256']}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[section]}
    print(json.dumps({
        "correct": status["failed"] == 0,
        "attempted": status["attempted"],
        "failed": status["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
