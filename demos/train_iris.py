"""
Train a moving map on the iris measurements
===========================================

Walks through the full pipeline on the classic 150-flower table: size a
lattice from the data, run the adaptive training phase (neurons move, edges
age, underused units are dropped), then the fine-tuning phase, and finally
score and draw the result.
"""

from dataclasses import asdict
from pathlib import Path

import numpy as np

from amsom import (
    TrainConfig,
    create_initial_map,
    export_snapshot_json,
    load_csv,
    quality_report,
    render_svg,
    smooth,
    train,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

# --- Load the data ---
data = load_csv(HERE.parent / "data" / "iris.csv", label_column="species")
print(f"iris: {data.n} patterns, {data.d} features, "
      f"labels {np.unique(data.labels).tolist()}")

# --- Size and seed the initial lattice ---
# The neuron budget comes from the pattern count and the aspect ratio from
# the covariance of the features, so the map starts roughly data shaped.
config = TrainConfig(seed=0)
map_state, config = create_initial_map(data, config)
print(f"initial lattice: {map_state.m} neurons, sigma0={config.sigma0}")
render_svg(map_state, OUT / "iris_initial.svg")

# --- Adaptive phase ---
# Neurons chase their input statistics, edges between frequent winner pairs
# stay fresh while stale ones age out, and units that stop winning are cut.
map_state, reports = train(data, map_state, config)
removed = sum(r.events.counts()["neuron_removed"] for r in reports)
print(f"adaptive phase: {len(reports)} epochs, "
      f"{map_state.m} neurons left ({removed} removed), "
      f"final mqe={reports[-1].mqe:.4f}")

# --- Fine-tuning phase ---
# Structure is frozen; only weights and positions relax, and the
# neighborhood is restricted to actual graph neighbors.
map_state, smooth_reports = smooth(data, map_state, config)
print(f"fine tuning: {len(smooth_reports)} epochs, "
      f"final mqe={smooth_reports[-1].mqe:.4f}")

# --- Score and draw ---
report = quality_report(data, map_state)
print(f"quantization error {report.qe:.4f}, topographic error {report.te:.4f}, "
      f"dead units {report.dead_unit_count} ({report.dead_unit_fraction:.1%})")

render_svg(map_state, OUT / "iris_trained.svg", labels=report.neuron_labels)
export_snapshot_json(map_state, OUT / "iris_trained.json",
                     labels=report.neuron_labels, config=asdict(config),
                     metrics={"qe": report.qe, "te": report.te})
print(f"wrote {OUT / 'iris_initial.svg'}, {OUT / 'iris_trained.svg'} "
      f"and {OUT / 'iris_trained.json'}")
