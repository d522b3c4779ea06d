"""
How the starting lattice gets its shape
=======================================

The initial map is sized from the data before any training happens: the
neuron budget grows with the square root of the pattern count, and the
aspect ratio follows the spread of the data so elongated clouds get
elongated grids. Hexagonal packing is available as an alternative to the
default rectangular one.
"""

from pathlib import Path

import numpy as np

from amsom import (
    Dataset,
    HEXAGONAL,
    LatticeSpec,
    build_lattice,
    growing_threshold,
    render_svg,
    side_lengths,
    target_neuron_count,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

# --- Budget from the pattern count ---
for n in (50, 150, 1000, 10000):
    print(f"{n:>6} patterns -> {target_neuron_count(n):>3} neurons")

# --- Aspect ratio from the data spread ---
rng = np.random.default_rng(3)
round_cloud = Dataset(rng.normal(size=(400, 2)))
long_cloud = Dataset(rng.normal(size=(400, 2)) * [6.0, 1.0])
for name, data in (("round", round_cloud), ("stretched", long_cloud)):
    rows, cols = side_lengths(data, target_neuron_count(data.n))
    print(f"{name} cloud -> {rows} x {cols} lattice")

# --- Draw the two packings ---
rect = build_lattice(LatticeSpec(6, 9))
hexa = build_lattice(LatticeSpec(6, 9, topology=HEXAGONAL))
render_svg(rect, OUT / "lattice_rect.svg")
render_svg(hexa, OUT / "lattice_hex.svg")
print(f"rectangular 6x9: {rect.m} neurons, max degree {rect.degrees().max()}")
print(f"hexagonal   6x9: {hexa.m} neurons, max degree {hexa.degrees().max()}")
print(f"drew {OUT / 'lattice_rect.svg'} and {OUT / 'lattice_hex.svg'}")

# --- The growth gate ---
# A neuron whose quantization error stays under this threshold never splits;
# lower spread factors tolerate more error before growing the map.
print("\ngrowing threshold by dimensionality and spread factor")
for d in (2, 4, 8):
    row = "  ".join(f"sf={sf}: {growing_threshold(d, sf):.4f}" for sf in (0.25, 0.5, 0.75))
    print(f"d={d}: {row}")
