"""Field-probing layers: a bank of filters, each a set of probing points that
sense a 3D field, squash distance readings through a Gaussian, and reduce to
one scalar per filter via a trainable dot product.

`ProbingLayer` is the one implementation a network runs. Its stages,
`sensor_*`, `gaussian_*` and `dotproduct_*`, take a leading batch axis, so
the isolated gradient checks test the code that training runs. The sensor
reads its batch through `field.sample_field`, so the field's block layout
is known to `field` alone.

Both the point locations and the dot-product weights are trainable. Location
gradients flow through the sampled field's spatial gradients ("the gradients
computed from the input fields are the forces that push the probing points").
The backward stages return their gradients; `ProbingLayer.backward` adds
them into the gradients of its `locations` and `weights` tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import ROLE_DISTANCE, check_batch, sample_field
from .ingest import GridFrame
from .nn import Tensor

INIT_REDRAW_LIMIT = 100

# Learning-rate multiplier for the probing locations. They live in voxel
# units (0 to R-1) while weights are unit-scale, so at the shared rate the
# points barely move (0.05 voxels over a stock desk run). Chosen by a
# sweep over training seeds on the acceptance dataset (README, "Why
# probing locations take a larger step").
LOCATION_RATE = 100.0


@dataclass(frozen=True)
class InitConfig:
    """Filter-bank layout: P filters in each cell of a G^3 spatial grid, N
    probing points per filter, segment lengths drawn from
    [length_low, length_high] as fractions of the resolution."""

    grid_divisions: int = 4
    filters_per_cell: int = 16
    points_per_filter: int = 8
    length_low: float = 0.2
    length_high: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.grid_divisions < 1:
            raise ValueError("grid_divisions must be >= 1")
        if self.filters_per_cell < 1:
            raise ValueError("filters_per_cell must be >= 1")
        if self.points_per_filter < 2:
            raise ValueError("a probing filter needs at least 2 points")
        if not 0.0 < self.length_low <= self.length_high < 1.0:
            raise ValueError("need 0 < length_low <= length_high < 1")

    @property
    def filter_count(self):
        return self.grid_divisions**3 * self.filters_per_cell


class FilterBank:
    """C filters of N points each over a T-channel field at resolution R.

    locations is (C, N, 3) in voxel units (x, y, z); weights is (C, N, T),
    one weight per point and channel with no sharing across filters.
    """

    def __init__(self, locations, weights, resolution):
        locations = np.asarray(locations)
        weights = np.asarray(weights)
        if locations.dtype != np.float32:
            locations = locations.astype(np.float64)
        if weights.dtype != locations.dtype:
            weights = weights.astype(locations.dtype)
        if locations.ndim != 3 or locations.shape[2] != 3:
            raise ValueError(f"locations must be (C, N, 3), got {locations.shape}")
        if weights.ndim != 3 or weights.shape[:2] != locations.shape[:2]:
            raise ValueError(
                f"weights {weights.shape} do not match locations {locations.shape[:2]}"
            )
        if resolution < 2:
            raise ValueError("resolution must be >= 2")
        if locations.min() < 0 or locations.max() > resolution - 1:
            raise ValueError("locations must lie in [0, R-1]^3")
        self.locations = locations
        self.weights = weights
        self.resolution = int(resolution)

    @property
    def filter_count(self):
        return self.locations.shape[0]

    @property
    def points_per_filter(self):
        return self.locations.shape[1]

    @property
    def channel_count(self):
        return self.weights.shape[2]

    def clamp_locations(self):
        """Project points back into the field hull, applied after updates."""
        np.clip(self.locations, 0.0, self.resolution - 1.0, out=self.locations)


def _unit_vector(rng):
    while True:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            return v / norm


def init_filter_bank(
    cfg: InitConfig, resolution: int, channel_count: int = 4, dtype=np.float64
) -> FilterBank:
    """Lay out the bank: for every grid cell, P segments with center uniform
    in the cell, direction uniform on the sphere, and length uniform in
    [length_low, length_high] * R; the N points are evenly spaced along each
    segment, endpoints included. A segment poking outside [0, R-1]^3 is
    redrawn (INIT_REDRAW_LIMIT attempts), then clamped as a last resort.
    Weights are uniform in +-sqrt(6 / (N*T + 1)), treating each filter as a
    unit with fan-in N*T and fan-out 1.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    rng = np.random.default_rng(cfg.seed)
    g, p, n = cfg.grid_divisions, cfg.filters_per_cell, cfg.points_per_filter
    hi = resolution - 1.0
    cell = hi / g
    locations = np.empty((cfg.filter_count, n, 3), dtype=np.float64)
    steps = np.linspace(0.0, 1.0, n)[:, None]
    c = 0
    for gz, gy, gx in np.ndindex(g, g, g):
        lo_corner = np.array([gx, gy, gz], dtype=np.float64) * cell
        for _ in range(p):
            for attempt in range(INIT_REDRAW_LIMIT + 1):
                center = lo_corner + rng.random(3) * cell
                half = 0.5 * rng.uniform(cfg.length_low, cfg.length_high) * resolution
                axis = _unit_vector(rng) * half
                points = (center - axis) + steps * (2.0 * axis)
                if points.min() >= 0.0 and points.max() <= hi:
                    break
            else:
                points = np.clip(points, 0.0, hi)
            locations[c] = points
            c += 1
    bound = np.sqrt(6.0 / (n * channel_count + 1))
    weights = rng.uniform(-bound, bound, size=(cfg.filter_count, n, channel_count))
    return FilterBank(locations.astype(dtype), weights.astype(dtype), resolution)


def sensor_forward(bank: FilterBank, fields, with_gradients=True):
    """Read every field of a batch at every probing point through
    `sample_field`. Returns (values, gradients): values (B, C, N, T) and
    the fields' spatial gradients at the probed locations (B, C, N, T, 3),
    kept for backward, or None without gradients (eval, frozen banks)."""
    c, n, t = bank.filter_count, bank.points_per_filter, bank.channel_count
    # every check comes before the read, so a refused batch is never read
    first = check_batch(fields)
    if first.resolution != bank.resolution:
        raise ValueError(f"field resolution {first.resolution}, bank {bank.resolution}")
    if first.channel_count != bank.channel_count:
        raise ValueError(f"field has {first.channel_count} channels, bank {bank.channel_count}")
    if any(not np.array_equal(field.roles, first.roles) for field in fields):
        raise ValueError("fields in one batch must share their channel roles")
    values, gradients = sample_field(fields, bank.locations.reshape(c * n, 3),
                                     with_gradients)
    if gradients is not None:
        gradients = gradients.reshape(-1, c, n, t, 3)
    return values.reshape(-1, c, n, t), gradients


def sensor_backward(gradients, upstream) -> np.ndarray:
    """Location gradients (C, N, 3) from the sensor's (B, C, N, T, 3)
    gradients: the chain rule routes each channel's upstream gradient
    through the field gradient sampled at its point, summed over the batch."""
    if gradients is None:
        raise RuntimeError("forward ran without gradients; no backward possible")
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != gradients.shape[:-1]:
        raise ValueError(f"upstream {upstream.shape} does not match {gradients.shape[:-1]}")
    return np.einsum("bcnt,bcntk->cnk", upstream, gradients)


def gaussian_forward(values, sigma):
    """Element-wise bell curve exp(-x^2 / (2 sigma^2)) over any shape: reads
    near a surface map to ~1, far reads decay toward 0."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    values = np.asarray(values, dtype=np.float64)
    return np.exp(values**2 / (-2.0 * sigma**2))


def gaussian_backward(values, upstream, sigma):
    """Input gradients: upstream * (-x / sigma^2) * g(x)."""
    values = np.asarray(values, dtype=np.float64)
    return np.asarray(upstream) * (-values / sigma**2) * gaussian_forward(values, sigma)


def _check_batch_values(bank: FilterBank, values):
    if values.ndim != 4 or values.shape[1:] != bank.weights.shape:
        raise ValueError(
            f"values {values.shape} do not match (B,) + weights {bank.weights.shape}"
        )


def dotproduct_forward(bank: FilterBank, values) -> np.ndarray:
    """Per-filter dot products of a batch, (B, C): v_bc = sum_{n,t}
    values_bcnt * weights_cnt; filters never mix and weights are not
    shared between them."""
    values = np.asarray(values, dtype=np.float64)
    _check_batch_values(bank, values)
    return np.einsum("bcnt,cnt->bc", values, bank.weights)


def dotproduct_backward(bank: FilterBank, values, upstream):
    """(input gradients, weight gradients): upstream_bc * w, and
    upstream_bc * values summed over the batch."""
    values = np.asarray(values, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    _check_batch_values(bank, values)
    if upstream.shape != values.shape[:2]:
        raise ValueError(f"upstream {upstream.shape} does not match the batch {values.shape[:2]}")
    return (upstream[:, :, None, None] * bank.weights,
            np.einsum("bc,bcnt->cnt", upstream, values))


def mac_count(bank: FilterBank) -> int:
    """Multiply-accumulates per sample for the dot-product reduction; the
    probing cost depends only on C*N*T, never on the field resolution."""
    return bank.filter_count * bank.points_per_filter * bank.channel_count


def default_sigma(resolution):
    """The Gaussian's stock width: a tenth of a normalized shape's extent."""
    return 0.1 * GridFrame(resolution).object_size


class ProbingLayer:
    """A list of B fields in, a (B, C) activation matrix out: Sensor, then
    Gaussian on distance-role channels only (normal components are already
    in [-1, 1]), then DotProduct. Owns the filter bank and exposes its
    arrays as optimizer tensors sharing their values; the tensors own the
    gradients. A frozen layer has no parameters and reads no field
    gradients.
    """

    name = "probing"

    def __init__(self, bank: FilterBank, sigma, frozen=False):
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.bank = bank
        self.sigma = float(sigma)
        self.frozen = bool(frozen)
        self.locations = Tensor(bank.locations, name=self.name + ".locations",
                                decay=False, rate=LOCATION_RATE)
        self.weights = Tensor(bank.weights, name=self.name + ".weights")
        self._cache = None

    def params(self):
        return [] if self.frozen else [self.locations, self.weights]

    def state(self):
        """Both bank blocks, trained or not, so a frozen bank is checkpointed."""
        return {p.name: p.values for p in (self.locations, self.weights)}

    def forward(self, fields, train=False, rng=None):
        track = train and not self.frozen
        values, gradients = sensor_forward(self.bank, fields, with_gradients=track)
        mask = fields[0].roles == ROLE_DISTANCE
        squashed = values.copy()
        squashed[..., mask] = gaussian_forward(values[..., mask], self.sigma)
        self._cache = (values, gradients, mask, squashed) if track else None
        return dotproduct_forward(self.bank, squashed)

    def backward(self, upstream):
        if self.frozen:
            return None
        if self._cache is None:
            raise RuntimeError("probing backward without a training forward")
        (values, gradients, mask, squashed), self._cache = self._cache, None
        grads, weight_grads = dotproduct_backward(self.bank, squashed, upstream)
        self.weights.grad += weight_grads
        grads[..., mask] = gaussian_backward(values[..., mask], grads[..., mask],
                                             self.sigma)
        self.locations.grad += sensor_backward(gradients, grads)
        return None
