"""The probing stack, one layer at a time, with moving filters.

A probing filter is a handful of 3D points with per-point weights: the
sensor stage reads the field at each point by trilinear interpolation,
the Gaussian stage turns raw distances into nearness, and the dot
product collapses each filter to one activation. `ProbingLayer` runs the
three stages over a whole batch of fields at once; here the batch is the
one octahedron field, so each forward returns a (1, C) activation row. Both the point
LOCATIONS and the weights carry gradients, so a filter can slide
through the volume during optimization. The walkthrough builds a small
bank over the octahedron field and runs plain gradient descent on the
locations alone, watching the loss fall as the points migrate.
"""

import numpy as np

from fieldprobe import (
    InitConfig,
    ProbingLayer,
    ShapeSample,
    field_from_occupancy,
    init_filter_bank,
    mac_count,
    normalize,
    voxelize,
)

RES = 32

vertices = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                     [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.float64)
faces = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                  [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]])
field = field_from_occupancy(
    voxelize(normalize(ShapeSample(vertices, faces), RES), RES, seed=0))

cfg = InitConfig(grid_divisions=2, filters_per_cell=2, points_per_filter=6,
                 seed=4)
bank = init_filter_bank(cfg, RES, channel_count=field.channel_count)
print("bank: %d filters x %d points x %d channels = %d MACs per volume"
      % (bank.filter_count, bank.points_per_filter, bank.channel_count,
         mac_count(bank)))

layer = ProbingLayer(bank, sigma=3.0)
activations = layer.forward([field])[0]
print("forward: activations %s, first three %s"
      % (activations.shape, np.round(activations[:3], 4)))

# descend on sum(activations); only the locations move here, so every
# drop in the loss is geometry, not weight fitting
lr = 20.0
start = bank.locations.copy()
print("\n iter    loss     mean |dL/dx|   mean move (voxels)")
for step in range(8):
    loss = layer.forward([field], train=True).sum()
    layer.locations.zero_grad()
    layer.backward(np.ones((1, bank.filter_count)))
    grad = layer.locations.grad
    moved = np.linalg.norm(bank.locations - start, axis=-1).mean()
    print("  %2d   %8.4f     %.6f       %.3f"
          % (step, loss, np.abs(grad).mean(), moved))
    bank.locations -= lr * grad
    bank.clamp_locations()

final = layer.forward([field]).sum()
drift = np.linalg.norm(bank.locations - start, axis=-1).mean()
print("\nloss %.4f after 8 location-only steps; points drifted %.2f voxels"
      % (final, drift))
