"""
Watching the lattice move
=========================

The output-space positions of the neurons are not fixed: early in training
the whole grid drifts and shears to follow the data, then position updates
fade out and the structure settles. This script trains on the four-blob
dataset, tracks how far neurons move each epoch, tallies the structural
events, and renders a few frames of the deformation.
"""

from pathlib import Path

import numpy as np

from amsom import TrainConfig, create_initial_map, generate_cluster_dataset, render_svg, train

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

data = generate_cluster_dataset(seed=0)
config = TrainConfig(seed=0)
map_state, config = create_initial_map(data, config)
print(f"cluster: {data.n} patterns, initial lattice {map_state.m} neurons")

# --- Record motion while training runs ---
frames = {}
motion = []
prev = map_state.positions.copy()


def watch(report):
    global prev
    cur = map_state.positions
    if cur.shape == prev.shape:
        motion.append((report.epoch, float(np.linalg.norm(cur - prev, axis=1).mean())))
    prev = cur.copy()
    if report.epoch in (1, 5, 20):
        frames[report.epoch] = map_state.copy()


map_state, reports = train(data, map_state, config, progress=watch)
frames["final"] = map_state

# --- How far did neurons travel per epoch? ---
print("\nmean neuron displacement per epoch")
for epoch, dist in motion:
    if epoch in (1, 2, 5, 10, 20, 30, 40):
        print(f"  epoch {epoch:>3}: {dist:.4f}")
frozen = next((e for (e, d), (_, d_prev) in zip(motion[1:], motion) if d == 0.0 < d_prev), None)
if frozen is not None:
    print(f"  positions frozen from epoch {frozen} on")

# --- What happened to the structure? ---
kinds = {}
for r in reports:
    for kind, count in r.events.counts().items():
        kinds[kind] = kinds.get(kind, 0) + count
print(f"\nstructural events over {len(reports)} epochs: {kinds or 'none'}")
print(f"final size: {map_state.m} neurons")

# --- Render the frames ---
for tag, state in frames.items():
    path = OUT / f"motion_epoch_{tag}.svg"
    render_svg(state, path)
    print(f"frame: {path}")
