"""Dense 3D fields over the voxel grid: exact Euclidean distance transforms,
surface-normal channels, trilinear sampling, and a binary file format.

Field values live on lattice nodes at integer coordinates (x, y, z) in
[0, R-1]^3 and are indexed values[t, z, y, x]. Spatial gradients are
precomputed central differences (one-sided at the grid faces); sampling a
gradient interpolates that precomputed field rather than differentiating
the interpolant, which keeps the reported gradient continuous across cell
boundaries.

Once gradients are needed, a field keeps one channel-last block of shape
(R, R, R, 4T): each voxel's row holds the T values, then each channel's
(x, y, z) gradient. `values` and `gradients` are views of that block, so a
trilinear sample reads 8 contiguous rows, one per cell corner, and its cost
follows the number of points, not R^3. `sample_field`, the one sampler,
alone reads this layout; the probing layer reads its batch through it.
"""

from __future__ import annotations

import os
import secrets
import struct

import numpy as np
from scipy import ndimage

from .errors import FormatError
from .ingest import OccupancyGrid

ROLE_DISTANCE = 0
ROLE_NORMAL_X = 1
ROLE_NORMAL_Y = 2
ROLE_NORMAL_Z = 3
ROLE_GENERIC = 4

FIELD_MAGIC = b"FPF1"

NORMAL_EPS = 1e-8


class Field3D:
    """A stack of T scalar channels on an R^3 lattice.

    `values` has shape (T, R, R, R) with axes (channel, z, y, x); `roles`
    tags each channel with one of the ROLE_* codes so downstream layers can
    treat distance channels differently from normal components. The first
    use of `gradients` builds the channel-last (R, R, R, 4T) block, after
    which `values` and `gradients` are both views of it: the field holds
    one copy of its values and no more bytes than values plus gradients.
    """

    def __init__(self, values, roles):
        values = np.asarray(values)
        if values.ndim != 4 or len({values.shape[1], values.shape[2], values.shape[3]}) != 1:
            raise ValueError(f"values must be (T, R, R, R), got {values.shape}")
        roles = np.asarray(roles, dtype=np.uint8).reshape(-1)
        if roles.shape[0] != values.shape[0]:
            raise ValueError(f"{roles.shape[0]} roles for {values.shape[0]} channels")
        if roles.size and roles.max() > ROLE_GENERIC:
            raise ValueError(f"unknown role code {roles.max()}")
        self.values = values
        self.roles = roles
        self._block = None
        self._gradients = None

    @property
    def resolution(self):
        return self.values.shape[1]

    @property
    def channel_count(self):
        return self.values.shape[0]

    @property
    def gradients(self):
        """(T, 3, R, R, R) central-difference gradients, components (x, y, z),
        a view of the channel-last block (built here on first use). The
        block keeps the values' float width: float64 fields (test oracles)
        get exact float64 gradients, float32 training fields stay compact."""
        if self._gradients is None:
            t, r = self.channel_count, self.resolution
            dtype = self.values.dtype if self.values.dtype == np.float32 else np.float64
            block = np.empty((r, r, r, 4 * t), dtype=dtype)
            grads = block[..., t:].reshape(r, r, r, t, 3)
            for c in range(t):
                channel = self.values[c].astype(dtype, copy=False)
                block[..., c] = channel
                gz, gy, gx = np.gradient(channel)
                grads[..., c, 0], grads[..., c, 1], grads[..., c, 2] = gx, gy, gz
            self._block = block
            self.values = block[..., :t].transpose(3, 0, 1, 2)
            self._gradients = grads.transpose(3, 4, 0, 1, 2)
        return self._gradients


def _squared_distances(occ: OccupancyGrid) -> np.ndarray:
    """Exact squared Euclidean distance, int32 (R, R, R), from every voxel
    to its nearest occupied voxel. scipy's feature transform gives each
    voxel's nearest site; the offsets to it are taken, squared and summed
    in place in that transform's own int32 buffer, so no coordinate grid
    or wider temporary is made. 3(R-1)^2 fits int32 for every R <= 4096."""
    if not occ.bits.any():
        raise ValueError("distance transform of an empty grid is undefined")
    # edt measures distance to the nearest False voxel, so pass the complement
    idx = ndimage.distance_transform_edt(~occ.bits, return_distances=False, return_indices=True)
    ramp = np.arange(occ.resolution, dtype=idx.dtype)
    idx[0] -= ramp[:, None, None]
    idx[1] -= ramp[:, None]
    idx[2] -= ramp
    np.square(idx, out=idx)
    sq = idx[0]
    sq += idx[1]
    sq += idx[2]
    return sq


def squared_distance_transform(occ: OccupancyGrid) -> np.ndarray:
    """Exact squared Euclidean distance (int64) from every voxel to its
    nearest occupied voxel. Computed from the nearest-site index map so the
    result is integer arithmetic, not a rounded float."""
    return _squared_distances(occ).astype(np.int64)


def distance_field(occ: OccupancyGrid, dtype=np.float64) -> np.ndarray:
    """Euclidean distance to the nearest occupied voxel, (R, R, R) in
    `dtype`: the correctly rounded square root of the exact squared
    distance in either width. A float32 root is taken directly while every
    squared distance, at most 3(R-1)^2, is an integer float32 holds exactly
    (up to 2^24, so R <= 2365). It then has the same bits as the float64
    root cast to float32, because 53 >= 2*24 + 2 bits make that double
    rounding harmless for square roots. Past that, the root is taken in
    float64 and cast."""
    # allocated ahead of the transform's scratch, so that a field kept in a
    # cache does not pin the heap above that scratch once it is freed
    out = np.empty(occ.bits.shape, dtype=dtype)
    sq = _squared_distances(occ)
    exact32 = out.dtype == np.float32 and 3 * (occ.resolution - 1) ** 2 <= 2**24
    return np.sqrt(sq, dtype=np.float32 if exact32 else np.float64, out=out)


def normal_field(distance: np.ndarray) -> np.ndarray:
    """Unit-normalized gradient of a distance field, shape (3, R, R, R) with
    components (x, y, z). Voxels where the gradient magnitude falls below
    NORMAL_EPS (ridges, equidistant sheets) get the zero vector."""
    gz, gy, gx = np.gradient(np.asarray(distance, dtype=np.float64))
    normals = np.stack([gx, gy, gz])
    norm = np.sqrt((normals**2).sum(axis=0))
    safe = np.where(norm < NORMAL_EPS, 1.0, norm)
    normals /= safe
    normals[:, norm < NORMAL_EPS] = 0.0
    return normals


def field_from_occupancy(occ: OccupancyGrid) -> Field3D:
    """The standard 4-channel field stack: distance plus its surface normals,
    in float32, the width a `.fpf` file stores."""
    dist = distance_field(occ)
    normals = normal_field(dist)
    values = np.concatenate([dist[None], normals]).astype(np.float32)
    return Field3D(values, [ROLE_DISTANCE, ROLE_NORMAL_X, ROLE_NORMAL_Y, ROLE_NORMAL_Z])


def trilinear_corners(points, r):
    """Cell corners and trilinear weights of (M, 3) points given as
    (x, y, z) on an R^3 lattice. Returns flat node indices
    (z*R + y)*R + x and their weights, both (8, M), corners in dz, dy, dx
    order. Points are clamped to the lattice hull."""
    if r < 2:
        raise ValueError("sampling needs a lattice of at least 2 nodes per axis")
    p = np.clip(np.asarray(points, dtype=np.float64), 0.0, r - 1.0)
    i0 = np.clip(np.floor(p).astype(np.int64), 0, r - 2)
    f = p - i0
    base = (i0[:, 2] * r + i0[:, 1]) * r + i0[:, 0]
    index = np.empty((8, len(p)), dtype=np.int64)
    weights = np.empty((8, len(p)), dtype=np.float64)
    for k, (dz, dy, dx) in enumerate(np.ndindex(2, 2, 2)):
        index[k] = base + (dz * r + dy) * r + dx
        wx = f[:, 0] if dx else 1.0 - f[:, 0]
        wy = f[:, 1] if dy else 1.0 - f[:, 1]
        wz = f[:, 2] if dz else 1.0 - f[:, 2]
        weights[k] = wx * wy * wz
    return index, weights


def gather_corners(field, index, with_gradients=True):
    """The field's rows at flat node indices, (..., K) in its own float
    width: 4T-wide block rows with gradients, else T value rows. np.take
    copies a strided table whole before gathering, so only contiguous
    tables are gathered from: whole block rows (sliced afterwards), or the
    channel planes of an unbuilt field."""
    t, r = field.channel_count, field.resolution
    if with_gradients:
        field.gradients  # builds the block on first use
    if field._block is not None:
        rows = np.take(field._block.reshape(r**3, 4 * t), index, axis=0)
        return rows if with_gradients else rows[..., :t]
    planes = np.take(field.values.reshape(t, r**3), index, axis=1)
    return np.moveaxis(planes, 0, -1)


def interpolate(rows, weights, out):
    """Trilinear values from (8, ..., K) corner rows and weights
    broadcastable to them, written into `out`: each corner's product is
    taken in float64 and the corners are added in dz, dy, dx order, so
    integer points reproduce stored values exactly. One corner at a time
    keeps the temporaries at one corner's size."""
    np.multiply(weights[0], rows[0], out=out)
    for k in range(1, 8):
        out += weights[k] * rows[k]


def sample_field(fields, points, with_gradients=True):
    """Sample every channel of a batch of B fields at shared (M, 3) points.

    Returns (values, gradients): values is (B, M, T); gradients is
    (B, M, T, 3), the trilinearly interpolated precomputed gradient stack,
    or None when with_gradients is false. Corners and weights are computed
    once, on the first field's lattice, and each field costs one gather of
    its corner rows. A gradient-free sample (eval, frozen banks) of a field
    whose block is not built reads `values` alone and never builds it.
    """
    if not fields:
        raise ValueError("a sampled batch needs at least one field")
    t, r = fields[0].channel_count, fields[0].resolution
    if any(field.resolution != r or field.channel_count != t for field in fields):
        raise ValueError("fields in one batch must share their resolution and channels")
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    index, weights = trilinear_corners(points, r)
    width = 4 * t if with_gradients else t
    # full-width weights keep the interpolation's inner loops long
    weights = np.repeat(weights[..., None], width, axis=2)
    rows = np.empty((len(fields), len(points), width), dtype=np.float64)
    for field, out in zip(fields, rows):
        interpolate(gather_corners(field, index, with_gradients), weights, out)
    if not with_gradients:
        return rows, None
    return rows[..., :t], rows[..., t:].reshape(len(fields), -1, t, 3)


def write_field(field: Field3D) -> bytes:
    """Serialize to the FPF1 layout: magic, u32 resolution, u32 channel
    count, one role byte per channel, then float32 values channel-major with
    x fastest. Little-endian throughout."""
    values = np.ascontiguousarray(field.values, dtype="<f4")
    if not np.isfinite(values).all():
        raise ValueError("field contains non-finite values")
    head = FIELD_MAGIC + struct.pack("<II", field.resolution, field.channel_count)
    return head + field.roles.astype(np.uint8).tobytes() + values.tobytes()


def read_field(data: bytes) -> Field3D:
    """Parse an FPF1 blob. Rejects bad magic, size mismatches in either
    direction, unknown role codes, and non-finite payloads."""
    if len(data) < 4 or data[:4] != FIELD_MAGIC:
        raise FormatError("bad magic: not a field file")
    if len(data) < 12:
        raise FormatError("truncated header")
    r, t = struct.unpack_from("<II", data, 4)
    if not 1 <= r <= 4096 or not 1 <= t <= 4096:
        raise FormatError(f"implausible dimensions: resolution {r}, {t} channels")
    expected = 12 + t + 4 * t * r**3
    if len(data) < expected:
        raise FormatError(f"truncated: expected {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise FormatError(f"trailing bytes: expected {expected}, got {len(data)}")
    roles = np.frombuffer(data, dtype=np.uint8, count=t, offset=12)
    if roles.max() > ROLE_GENERIC:
        raise FormatError(f"unknown role code {roles.max()}")
    values = np.frombuffer(data, dtype="<f4", offset=12 + t).reshape(t, r, r, r)
    if not np.isfinite(values).all():
        raise FormatError("non-finite field values")
    return Field3D(values.copy(), roles.copy())


def write_atomically(path, data: bytes):
    """Write `data` to `path` whole or not at all: a run killed mid-write
    leaves the old file (or none) in place, never a truncated one. Each
    write goes through its own temporary name in the same directory, so
    concurrent writers of one path never share it, and the last rename
    wins. The temporary file is removed when the write fails."""
    path = os.fspath(path)
    tmp = "%s.%s.tmp" % (path, secrets.token_hex(8))
    handle = open(tmp, "xb")
    try:
        with handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_field(field: Field3D, path):
    """Write an FPF1 file atomically (see `write_atomically`)."""
    write_atomically(path, write_field(field))


def load_field(path) -> Field3D:
    with open(path, "rb") as fh:
        return read_field(fh.read())
