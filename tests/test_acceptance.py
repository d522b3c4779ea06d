"""End-to-end acceptance checks.

Each test prints one `criterion N: PASS/FAIL (...)` line, visible under
pytest -s; the same detail string is attached to the assertion so a failure
is self-describing. The two 20-run benchmark fixtures are session scoped and
shared across criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from amsom.bench import ExperimentSpec, run_experiment
from amsom.cli import main
from amsom.core import Dataset, assign_all
from amsom.engine import (
    TrainConfig,
    batch_weight_update,
    enforce_degree,
    maybe_add_neuron,
    prune_edges_and_neurons,
)
from amsom.baseline import train_batch_som
from amsom.errors import MapStructureError
from amsom.grid import growing_threshold

from conftest import (
    IRIS_CSV,
    make_map,
    neighborhood_input,
    neighborhood_output,
    process_pattern_edges,
)

Q_RECT = 4


def _verdict(num, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {flag} ({detail})")
    assert ok, f"criterion {num}: {detail}"


class _Watch:
    """Checks the structural invariants after every epoch of every run."""

    def __init__(self):
        self.violations = []
        self.epochs = 0

    def __call__(self, map_state, report, phase):
        self.epochs += 1
        try:
            # symmetry, zero diagonals, age/edge consistency, degree cap,
            # finite weights
            map_state.validate(q_max=Q_RECT)
            if map_state.m < 2:
                raise MapStructureError("fewer than 2 neurons")
            if map_state.m > 2 and map_state.degrees().min() == 0:
                raise MapStructureError("isolated neuron")
        except Exception as exc:  # noqa: BLE001 - collected, not raised
            self.violations.append(f"{phase} epoch {report.epoch}: {exc}")


def _protocol(dataset, label_column, out_dir):
    watch = _Watch()
    spec = ExperimentSpec(
        dataset=dataset, runs=20, label_column=label_column, output_dir=str(out_dir)
    )
    started = time.perf_counter()
    summary = run_experiment(spec, epoch_hook=watch)
    elapsed = time.perf_counter() - started
    return {"summary": summary, "elapsed": elapsed, "watch": watch}


@pytest.fixture(scope="session")
def iris_protocol(tmp_path_factory):
    return _protocol(str(IRIS_CSV), "species", tmp_path_factory.mktemp("iris-bench"))


@pytest.fixture(scope="session")
def cluster_protocol(tmp_path_factory):
    return _protocol("cluster", None, tmp_path_factory.mktemp("cluster-bench"))


def test_criterion_1_iris_beats_the_fixed_lattice(iris_protocol):
    s = iris_protocol["summary"]
    qe_a = s["amsom"]["qe_train"]["mean"]
    qe_s = s["som"]["qe_train"]["mean"]
    te_a = s["amsom"]["te_train"]["mean"]
    te_s = s["som"]["te_train"]["mean"]
    m_a = s["amsom"]["neurons"]["mean"]
    m_s = s["som"]["neurons"]["mean"]  # the baseline keeps the initial count
    elapsed = iris_protocol["elapsed"]
    ok = (
        qe_a < qe_s
        and te_a < te_s
        and m_a < m_s
        and 20.0 <= m_a <= 60.0
        and elapsed < 60.0
    )
    _verdict(
        1,
        ok,
        f"qe {qe_a:.4f} vs {qe_s:.4f}, te {te_a:.4f} vs {te_s:.4f}, "
        f"neurons {m_a:.2f} vs {m_s:.0f}, {elapsed:.1f}s",
    )


def test_criterion_2_cluster_beats_the_fixed_lattice(cluster_protocol):
    s = cluster_protocol["summary"]
    qe_a = s["amsom"]["qe_train"]["mean"]
    qe_s = s["som"]["qe_train"]["mean"]
    te_a = s["amsom"]["te_train"]["mean"]
    te_s = s["som"]["te_train"]["mean"]
    m_a = s["amsom"]["neurons"]["mean"]
    m_s = s["som"]["neurons"]["mean"]
    elapsed = cluster_protocol["elapsed"]
    ok = (
        te_a < te_s
        and m_a < m_s
        and 80.0 <= m_a < 154.0
        and qe_a <= 1.1 * qe_s
        and elapsed < 300.0
    )
    _verdict(
        2,
        ok,
        f"te {te_a:.4f} vs {te_s:.4f}, neurons {m_a:.2f} vs {m_s:.0f}, "
        f"qe {qe_a:.4f} vs {qe_s:.4f}, {elapsed:.1f}s",
    )


def test_criterion_3_epochs_to_convergence(iris_protocol):
    s = iris_protocol["summary"]
    ep_a = s["amsom"]["train_epochs"]["mean"]
    ep_s = s["som"]["train_epochs"]["mean"]
    _verdict(3, ep_a <= ep_s, f"epochs {ep_a:.2f} vs {ep_s:.2f}")


def test_criterion_4_invariants_every_epoch(iris_protocol, cluster_protocol):
    watches = [iris_protocol["watch"], cluster_protocol["watch"]]
    epochs = sum(w.epochs for w in watches)
    violations = [v for w in watches for v in w.violations]
    detail = f"{epochs} epochs checked on 2 datasets, {len(violations)} violations"
    if violations:
        detail += "; first: " + violations[0]
    _verdict(4, epochs > 0 and not violations, detail)


def test_criterion_5_oracle_equivalences():
    # one neuron: the batch rule collapses to the global mean
    rng = np.random.default_rng(101)
    data = Dataset(rng.normal(size=(40, 5)))
    one = make_map(rng.normal(size=(1, 5)), positions=[[0.0, 0.0]])
    new_w = batch_weight_update(one, assign_all(data, one), data, 2.0)
    mean_err = float(np.max(np.abs(new_w[0] - data.patterns.mean(axis=0))))

    # vanishing sigma: one baseline epoch equals a hand-coded k-means step
    six = Dataset(
        [[0.0, 0.0], [0.2, 0.0], [5.0, 0.0], [5.2, 0.0], [0.0, 5.0], [0.2, 5.0]]
    )
    start = np.array([[0.5, 0.0], [4.5, 0.0], [0.5, 4.5]])
    ms = make_map(start.copy(), positions=[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                  edges=[(0, 1), (1, 2)])
    ms, _ = train_batch_som(six, ms, TrainConfig(sigma0=1e-3, sigma_final=1e-3, max_epochs=1))
    lloyd = start.copy()
    owners = [int(np.argmin(((p - start) ** 2).sum(axis=1))) for p in six.patterns]
    for i in range(3):
        mine = [p for p, o in zip(six.patterns, owners) if o == i]
        if mine:
            lloyd[i] = np.mean(mine, axis=0)
    lloyd_err = float(np.max(np.abs(ms.weights - lloyd)))

    ok = mean_err < 1e-12 and lloyd_err < 1e-9
    _verdict(5, ok, f"global-mean err {mean_err:.1e}, lloyd err {lloyd_err:.1e}")


def test_criterion_6_structural_micro_traces():
    checks = []

    # edge aging and reset from the encoded four-neuron matrices
    ms = make_map(np.zeros((4, 2)), edges=[(0, 1, 2), (0, 2, 4), (1, 3, 0), (2, 3, 1)])
    process_pattern_edges(ms, 0, 1)
    checks.append(("aging/reset", ms.ages[0, 1] == 0 and ms.ages[0, 2] == 5
                   and ms.ages[2, 3] == 1 and ms.win_count[0] == 1))

    # aged-out edges cut, the neuron this isolates removed
    ms = make_map(np.zeros((4, 2)),
                  edges=[(0, 1, 30), (0, 2, 3), (1, 2, 4), (2, 3, 35)])
    events = prune_edges_and_neurons(ms, age_max=30)
    checks.append(("prune/removal", ms.m == 3 and not ms.edges[0, 1]
                   and any(e["kind"] == "neuron_removed" and e["neuron"] == 3
                           for e in events)))

    # cell division: both offspring share the parent's connectivity
    ms = make_map(
        [[2.0, -1.0], [0.5, 0.5], [1.0, 3.0], [4.0, 0.0], [6.0, 6.0]],
        positions=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]],
        edges=[(0, 1, 4), (0, 2, 9), (0, 3, 2), (3, 4, 7)],
    )
    maybe_add_neuron(ms, np.array([2.0, 1.0, 1.5, 0.5, 0.1]), 0.96, 30, 30,
                     np.random.default_rng(0), beta_mode="zero")
    checks.append(("cell division", ms.m == 6
                   and set(np.flatnonzero(ms.edges[5])) == {0, 1, 2, 3}
                   and set(np.flatnonzero(ms.edges[0])) == {1, 2, 3, 5}
                   and np.all(ms.ages[5] == 0) and np.all(ms.ages[0] == 0)
                   and np.array_equal(ms.positions[5], [0.0, 0.5])))

    # degree cap: the single oldest edge is the one trimmed
    ms = make_map(np.zeros((6, 2)),
                  edges=[(0, 1, 2), (0, 2, 0), (0, 3, 1), (0, 4, 3), (0, 5, 9),
                         (1, 2, 0), (4, 5, 1)])
    events = enforce_degree(ms, q=4)
    checks.append(("degree trim", [e["edge"] for e in events] == [(0, 5)]
                   and set(np.flatnonzero(ms.edges[0])) == {1, 2, 3, 4}))

    failed = [name for name, ok in checks if not ok]
    _verdict(6, not failed, f"{len(checks)} traces" +
             (f", failed: {failed}" if failed else " exact"))


def test_criterion_7_bench_is_byte_deterministic(tmp_path):
    spec = tmp_path / "exp.cfg"
    spec.write_text(
        f"dataset = {IRIS_CSV}\n"
        "runs = 2\n"
        "label_column = species\n"
    )
    contents = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["bench", str(spec), "--out", str(out)]) == 0
        contents.append({p.name: p.read_bytes() for p in out.iterdir()})
    same_names = contents[0].keys() == contents[1].keys()
    diffs = [n for n in contents[0] if contents[0][n] != contents[1].get(n)]
    _verdict(7, same_names and not diffs,
             f"{len(contents[0])} files compared" +
             (f", differing: {diffs}" if diffs else ", all identical"))


def test_criterion_8_formula_spot_checks():
    gt = growing_threshold(4, 0.5)
    gt_ok = abs(gt - 0.9609) <= 1e-4
    out_err = abs(neighborhood_output([3.0, 0.0], [0.0, 0.0], 3.0) - math.exp(-1.0))
    in_err = abs(neighborhood_input([4.0, 0.0], [0.0, 0.0], 2.0, 4.0) - math.exp(-1.0))
    ok = gt_ok and out_err < 1e-12 and in_err < 1e-12
    _verdict(8, ok, f"gt(4,0.5)={gt:.6f}, kernel errs {out_err:.1e}/{in_err:.1e}")


def test_snapshots_written_by_the_protocol_are_loadable(iris_protocol, tmp_path_factory):
    # not one of the numbered criteria, but a cheap sanity pass over the
    # artifacts the fixtures already produced
    out = None
    for candidate in tmp_path_factory.getbasetemp().glob("iris-bench*"):
        if any(candidate.glob("run_00_amsom.json")):
            out = candidate
            break
    assert out is not None
    payload = json.loads((out / "run_00_amsom.json").read_text())
    assert payload["format_version"] == 1
    assert payload["metrics"]["train_epochs"] >= 1
