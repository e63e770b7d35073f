"""Distance transform, normal field, trilinear sampling, and field io tests."""

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from fieldprobe.errors import FormatError
from fieldprobe.field import (
    ROLE_DISTANCE,
    ROLE_GENERIC,
    ROLE_NORMAL_X,
    ROLE_NORMAL_Z,
    Field3D,
    distance_field,
    field_from_occupancy,
    normal_field,
    read_field,
    sample_field,
    squared_distance_transform,
    write_field,
)
from fieldprobe.ingest import OccupancyGrid
from fieldprobe.trainer import build_field


def occupancy_from_coords(r, coords):
    bits = np.zeros((r, r, r), dtype=bool)
    for z, y, x in coords:
        bits[z, y, x] = True
    return OccupancyGrid(r, bits)


def brute_force_squared(occ):
    """Reference: minimum over occupied voxels of integer squared offsets."""
    occupied = np.argwhere(occ.bits)
    grid = np.indices(occ.bits.shape).reshape(3, -1).T
    d2 = ((grid[:, None, :] - occupied[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    return d2.reshape(occ.bits.shape)


def random_occupancy(r, rng, fill=0.05):
    bits = rng.random((r, r, r)) < fill
    if not bits.any():
        bits[tuple(rng.integers(0, r, size=3))] = True
    return OccupancyGrid(r, bits)


class TestSquaredDistance:
    def test_single_site_hand_values(self):
        occ = occupancy_from_coords(8, [(4, 3, 2)])
        sq = squared_distance_transform(occ)
        assert sq[4, 3, 2] == 0
        assert sq[0, 0, 0] == 16 + 9 + 4
        assert sq[4, 3, 3] == 1
        assert sq[7, 7, 7] == 9 + 16 + 25

    def test_two_sites_take_nearer(self):
        occ = occupancy_from_coords(8, [(0, 0, 0), (0, 0, 6)])
        sq = squared_distance_transform(occ)
        assert sq[0, 0, 2] == 4
        assert sq[0, 0, 4] == 4
        assert sq[0, 0, 3] == 9

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for r in (4, 8, 12):
            for _ in range(5):
                occ = random_occupancy(r, rng)
                np.testing.assert_array_equal(
                    squared_distance_transform(occ), brute_force_squared(occ)
                )

    def test_integer_dtype(self):
        occ = occupancy_from_coords(4, [(1, 1, 1)])
        assert squared_distance_transform(occ).dtype == np.int64

    def test_empty_grid_rejected(self):
        occ = OccupancyGrid(4, np.zeros((4, 4, 4), dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            squared_distance_transform(occ)

    def test_distance_is_sqrt(self):
        rng = np.random.default_rng(23)
        occ = random_occupancy(8, rng)
        np.testing.assert_array_equal(
            distance_field(occ), np.sqrt(squared_distance_transform(occ).astype(np.float64))
        )

    def test_lipschitz_on_nodes(self):
        # |d(u) - d(v)| <= |u - v| for any node pair of a metric projection
        rng = np.random.default_rng(31)
        occ = random_occupancy(12, rng, fill=0.02)
        d = distance_field(occ)
        for _ in range(300):
            u = rng.integers(0, 12, size=3)
            v = rng.integers(0, 12, size=3)
            gap = abs(d[tuple(u)] - d[tuple(v)])
            assert gap <= np.linalg.norm(u - v) + 1e-9


def distance_grids(r, rng):
    """Random grids, a single corner voxel (the largest distances) and a
    full grid (all zero), at resolution r."""
    corner = np.zeros((r, r, r), dtype=bool)
    corner[0, 0, 0] = True
    grids = [random_occupancy(r, rng, fill) for fill in (0.002, 0.05)]
    return grids + [OccupancyGrid(r, corner), OccupancyGrid(r, np.ones((r, r, r), dtype=bool))]


def reference_squared(occ):
    """The old formula: nearest-site indices minus an int64 coordinate
    grid, squared and summed in int64."""
    idx = ndimage.distance_transform_edt(~occ.bits, return_distances=False, return_indices=True)
    coords = np.indices(occ.bits.shape, dtype=np.int64)
    return ((idx.astype(np.int64) - coords) ** 2).sum(axis=0)


class TestDistanceWidths:
    """Both widths of `distance_field` against the old formula: the float64
    square root of the int64 squared distance, cast afterwards."""

    @pytest.mark.parametrize("r", [8, 16, 32, 64])
    def test_float32_matches_float64_root_cast(self, r):
        rng = np.random.default_rng(r)
        for occ in distance_grids(r, rng):
            sq = reference_squared(occ)
            np.testing.assert_array_equal(squared_distance_transform(occ), sq)
            expected = np.sqrt(sq.astype(np.float64)).astype(np.float32)
            got = distance_field(occ, np.float32)
            assert got.dtype == np.float32
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("r", [8, 16, 32, 64])
    def test_float64_matches_root_of_int64(self, r):
        rng = np.random.default_rng(100 + r)
        for occ in distance_grids(r, rng):
            expected = np.sqrt(reference_squared(occ).astype(np.float64))
            assert distance_field(occ).tobytes() == expected.tobytes()

    def test_float32_root_exact_for_every_integer_to_2_24(self):
        # the float32 root is taken directly while 3(R-1)^2 <= 2^24; over
        # that whole range it equals the float64 root cast to float32
        step = 1 << 20
        for start in range(0, (1 << 24) + 1, step):
            n = np.arange(start, min(start + step, (1 << 24) + 1), dtype=np.int32)
            direct = np.sqrt(n, dtype=np.float32)
            assert np.array_equal(direct, np.sqrt(n.astype(np.float64)).astype(np.float32))

    def test_build_field_distance_bytes(self):
        rng = np.random.default_rng(5)
        occ = random_occupancy(32, rng, 0.01)
        field = build_field(occ, "distance")
        expected = np.sqrt(reference_squared(occ).astype(np.float64)).astype(np.float32)
        assert field.values.dtype == np.float32
        assert field.values.tobytes() == expected[None].tobytes()


class TestNormalField:
    def test_single_plane_points_away(self):
        occ = OccupancyGrid(8, np.zeros((8, 8, 8), dtype=bool))
        occ.bits[0] = True
        normals = normal_field(distance_field(occ))
        # distance grows with z, so the gradient is +z everywhere
        np.testing.assert_allclose(normals[2], 1.0)
        np.testing.assert_allclose(normals[:2], 0.0)

    def test_unit_norm_or_zero(self):
        rng = np.random.default_rng(41)
        occ = random_occupancy(12, rng)
        normals = normal_field(distance_field(occ))
        norm = np.sqrt((normals**2).sum(axis=0))
        is_zero = norm < 1e-12
        np.testing.assert_allclose(norm[~is_zero], 1.0, atol=1e-12)

    def test_ridge_gets_zero_vector(self):
        # two parallel sheets: midway voxels see equal pull both ways
        occ = OccupancyGrid(8, np.zeros((8, 8, 8), dtype=bool))
        occ.bits[0] = True
        occ.bits[4] = True
        normals = normal_field(distance_field(occ))
        np.testing.assert_array_equal(normals[:, 2], 0.0)

    def test_gradient_components_are_xyz(self):
        # occupied plane x = 0 makes distance = x, so component 0 carries it
        occ = OccupancyGrid(8, np.zeros((8, 8, 8), dtype=bool))
        occ.bits[:, :, 0] = True
        normals = normal_field(distance_field(occ))
        np.testing.assert_allclose(normals[0], 1.0)
        np.testing.assert_allclose(normals[1:], 0.0)


class TestField3D:
    def test_validation(self):
        with pytest.raises(ValueError, match="T, R, R, R"):
            Field3D(np.zeros((4, 4, 4)), [0])
        with pytest.raises(ValueError, match="T, R, R, R"):
            Field3D(np.zeros((1, 4, 4, 5)), [0])
        with pytest.raises(ValueError, match="roles"):
            Field3D(np.zeros((2, 4, 4, 4)), [0])
        with pytest.raises(ValueError, match="role code"):
            Field3D(np.zeros((1, 4, 4, 4)), [7])

    def test_gradient_cache_hand_values(self):
        r = 6
        x = np.arange(r, dtype=np.float64)
        vals = np.broadcast_to(x**2, (r, r, r)).copy()  # varies along x only
        fld = Field3D(vals[None], [ROLE_GENERIC])
        gx = fld.gradients[0, 0]
        # central differences: ((i+1)^2 - (i-1)^2) / 2 = 2i in the interior
        np.testing.assert_allclose(gx[:, :, 1:-1], np.broadcast_to(2.0 * x[1:-1], (r, r, r - 2)))
        np.testing.assert_allclose(gx[:, :, 0], 1.0)  # one-sided: 1 - 0
        np.testing.assert_allclose(gx[:, :, -1], 2 * r - 3.0)
        np.testing.assert_allclose(fld.gradients[0, 1:], 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t", [1, 4])
    @pytest.mark.parametrize("r", [2, 3, 33])
    def test_block_matches_np_gradient_bitwise(self, dtype, t, r):
        rng = np.random.default_rng(7 * r + t)
        vals = rng.standard_normal((t, r, r, r)).astype(dtype)
        fld = Field3D(vals.copy(), [ROLE_GENERIC] * t)
        grads = fld.gradients
        assert grads.dtype == dtype
        for c in range(t):
            gz, gy, gx = np.gradient(vals[c])
            for component, expected in enumerate((gx, gy, gz)):
                assert grads[c, component].tobytes() == expected.tobytes()
        assert fld.values.tobytes() == vals.tobytes()

    def test_values_and_gradients_share_one_block(self):
        rng = np.random.default_rng(43)
        vals = rng.standard_normal((4, 5, 5, 5)).astype(np.float32)
        fld = Field3D(vals.copy(), [ROLE_DISTANCE, ROLE_NORMAL_X, 2, ROLE_NORMAL_Z])
        grads = fld.gradients
        # values and gradients interleave in one buffer without overlapping,
        # so the check is on their common owner, which holds nothing else
        owner = fld.values.base
        assert owner is not None and owner is grads.base
        assert np.shares_memory(owner, fld.values) and np.shares_memory(owner, grads)
        assert owner.nbytes == fld.values.nbytes + grads.nbytes
        assert fld.values.dtype == grads.dtype == np.float32
        np.testing.assert_array_equal(fld.values, vals)

    def test_standard_stack(self):
        occ = occupancy_from_coords(8, [(4, 4, 4)])
        fld = field_from_occupancy(occ)
        assert fld.channel_count == 4
        assert list(fld.roles) == [0, 1, 2, 3]
        assert fld.values.dtype == np.float32
        assert fld.values[0, 4, 4, 4] == 0.0


def trilinear_closed_form(coef, pts):
    """Evaluate a + bx + cy + dz + e xy + f xz + g yz + h xyz."""
    a, b, c, d, e, f, g, h = coef
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    return a + b * x + c * y + d * z + e * x * y + f * x * z + g * y * z + h * x * y * z


def field_from_closed_form(coef, r, dtype=np.float64):
    z, y, x = np.meshgrid(np.arange(r), np.arange(r), np.arange(r), indexing="ij")
    pts = np.column_stack([x.ravel(), y.ravel(), z.ravel()]).astype(np.float64)
    vals = trilinear_closed_form(coef, pts).reshape(r, r, r)
    return Field3D(vals[None].astype(dtype), [ROLE_GENERIC])


class TestSampling:
    def test_exact_on_trilinear_family(self):
        # interpolation must reproduce any function of the one-per-cell
        # trilinear family to float64 roundoff
        rng = np.random.default_rng(53)
        for _ in range(10):
            coef = rng.uniform(-2, 2, size=8)
            fld = field_from_closed_form(coef, 8)
            pts = rng.uniform(0, 7, size=(50, 3))
            vals, _ = sample_field([fld], pts, with_gradients=False)
            np.testing.assert_allclose(
                vals[0, :, 0], trilinear_closed_form(coef, pts), rtol=0, atol=1e-9
            )

    def test_nodes_reproduced_exactly(self):
        rng = np.random.default_rng(59)
        vals = rng.standard_normal((2, 6, 6, 6)).astype(np.float32)
        fld = Field3D(vals, [ROLE_DISTANCE, ROLE_GENERIC])
        nodes = rng.integers(0, 6, size=(40, 3))
        sampled, _ = sample_field([fld], nodes.astype(np.float64), with_gradients=False)
        for k, (x, y, z) in enumerate(nodes):
            assert sampled[0, k, 0] == np.float64(vals[0, z, y, x])
            assert sampled[0, k, 1] == np.float64(vals[1, z, y, x])

    def test_corner_node_exact(self):
        # p = R-1 exercises the clamped base cell with fraction exactly 1
        vals = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
        fld = Field3D(vals, [ROLE_GENERIC])
        sampled, _ = sample_field([fld], [[1.0, 1.0, 1.0]], with_gradients=False)
        assert sampled[0, 0, 0] == 7.0

    def test_out_of_hull_points_clamped(self):
        rng = np.random.default_rng(61)
        fld = Field3D(rng.standard_normal((1, 5, 5, 5)), [ROLE_GENERIC])
        far, _ = sample_field([fld], [[-3.0, 2.2, 99.0]], with_gradients=False)
        edge, _ = sample_field([fld], [[0.0, 2.2, 4.0]], with_gradients=False)
        assert far[0, 0, 0] == edge[0, 0, 0]

    def test_midpoint_hand_value(self):
        vals = np.zeros((1, 2, 2, 2))
        vals[0, 1, 1, 1] = 8.0
        fld = Field3D(vals, [ROLE_GENERIC])
        sampled, _ = sample_field([fld], [[0.5, 0.5, 0.5]], with_gradients=False)
        assert sampled[0, 0, 0] == pytest.approx(1.0)  # 8 / 2^3

    def test_gradients_of_linear_field_are_constant(self):
        coef = np.array([1.0, 2.0, 3.0, -1.0, 0, 0, 0, 0])
        fld = field_from_closed_form(coef, 8)
        rng = np.random.default_rng(67)
        pts = rng.uniform(0, 7, size=(30, 3))
        _, grads = sample_field([fld], pts)
        np.testing.assert_allclose(grads[0, :, 0, 0], 2.0, atol=1e-12)
        np.testing.assert_allclose(grads[0, :, 0, 1], 3.0, atol=1e-12)
        np.testing.assert_allclose(grads[0, :, 0, 2], -1.0, atol=1e-12)

    def test_gradients_interpolate_gradient_stack(self):
        # the reported gradient is the interpolated precomputed stack, so at
        # a node it equals the central difference there, not the cell slope
        rng = np.random.default_rng(71)
        vals = rng.standard_normal((1, 6, 6, 6))
        fld = Field3D(vals, [ROLE_GENERIC])
        _, grads = sample_field([fld], [[2.0, 3.0, 1.0]])
        gz, gy, gx = np.gradient(vals[0])
        np.testing.assert_allclose(grads[0, 0, 0], [gx[1, 3, 2], gy[1, 3, 2], gz[1, 3, 2]], atol=1e-12)

    def test_single_point_accepted(self):
        fld = Field3D(np.zeros((1, 4, 4, 4)), [ROLE_GENERIC])
        vals, grads = sample_field([fld], [1.0, 2.0, 3.0])
        assert vals.shape == (1, 1, 1) and grads.shape == (1, 1, 1, 3)

    def test_gradient_skip_path(self):
        fld = Field3D(np.zeros((1, 4, 4, 4)), [ROLE_GENERIC])
        vals, grads = sample_field([fld], [[1, 1, 1]], with_gradients=False)
        assert grads is None

    def test_float32_matches_float64_copy_bitwise(self):
        # dyadic values keep every central difference exact in float32, so
        # the two fields hold the same numbers and only the storage width
        # differs; the sampler must promote gathered rows, not round them
        rng = np.random.default_rng(73)
        vals = rng.integers(-4096, 4096, size=(2, 7, 7, 7)) / 16.0
        narrow = Field3D(vals.astype(np.float32), [ROLE_DISTANCE, ROLE_GENERIC])
        wide = Field3D(vals.astype(np.float64), [ROLE_DISTANCE, ROLE_GENERIC])
        pts = rng.uniform(-1.0, 7.0, size=(200, 3))
        before, _ = sample_field([narrow], pts, with_gradients=False)
        np.testing.assert_array_equal(before, sample_field([wide], pts, with_gradients=False)[0])
        v32, g32 = sample_field([narrow], pts)
        v64, g64 = sample_field([wide], pts)
        np.testing.assert_array_equal(v32, v64)
        np.testing.assert_array_equal(g32, g64)
        np.testing.assert_array_equal(v32, before)
        np.testing.assert_array_equal(sample_field([narrow], pts, with_gradients=False)[0], before)

    def test_batch_rows_are_the_fields_read_alone(self):
        # a gradient-free batch gathers each field's rows its own way:
        # block rows of a built field, channel planes of an unbuilt one
        rng = np.random.default_rng(83)
        fields = [Field3D(rng.standard_normal((2, 6, 6, 6)).astype(np.float32),
                          [ROLE_DISTANCE, ROLE_GENERIC]) for _ in range(4)]
        fields[1].gradients
        fields[2].gradients
        pts = rng.uniform(-0.5, 5.5, size=(60, 3))
        batch, grads = sample_field(fields, pts, with_gradients=False)
        assert batch.shape == (4, 60, 2) and grads is None
        for row, fld in zip(batch, fields):
            np.testing.assert_array_equal(row, sample_field([fld], pts, with_gradients=False)[0][0])
        assert fields[0]._block is None and fields[3]._block is None

    def test_mixed_batch_rejected(self):
        rng = np.random.default_rng(89)
        base = Field3D(rng.standard_normal((2, 6, 6, 6)), [ROLE_DISTANCE, ROLE_GENERIC])
        finer = Field3D(rng.standard_normal((2, 7, 7, 7)), [ROLE_DISTANCE, ROLE_GENERIC])
        narrower = Field3D(rng.standard_normal((1, 6, 6, 6)), [ROLE_DISTANCE])
        pts = [[1.0, 2.0, 3.0]]
        for other, hint in ((finer, "resolution"), (narrower, "channels")):
            for with_gradients in (False, True):
                with pytest.raises(ValueError, match=hint):
                    sample_field([base, other], pts, with_gradients)

    def test_empty_batch_rejected(self):
        for with_gradients in (False, True):
            with pytest.raises(ValueError, match="at least one field"):
                sample_field([], [[1.0, 1.0, 1.0]], with_gradients)

    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("built", [False, True])
    def test_gradient_free_sample_copies_no_channel(self, channels, built):
        # np.take copies a strided table whole before gathering; a sample
        # of 512 points must cost its rows, not one R^3 channel
        r = 64
        rng = np.random.default_rng(79)
        vals = rng.standard_normal((channels, r, r, r)).astype(np.float32)
        fld = Field3D(vals, [ROLE_DISTANCE] + [ROLE_GENERIC] * (channels - 1))
        if built:
            fld.gradients
        pts = rng.uniform(0.0, r - 1.0, size=(512, 3))
        tracemalloc.start()
        try:
            sample_field([fld], pts, with_gradients=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < r**3 * 4, f"peak {peak} bytes"


class TestFieldIo:
    def make_field(self, seed=0):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((4, 5, 5, 5)).astype(np.float32)
        return Field3D(vals, [ROLE_DISTANCE, ROLE_NORMAL_X, 2, ROLE_NORMAL_Z])

    def test_round_trip_values(self):
        fld = self.make_field()
        back = read_field(write_field(fld))
        np.testing.assert_array_equal(back.values, fld.values)
        np.testing.assert_array_equal(back.roles, fld.roles)

    def test_round_trip_bytes_identical(self):
        blob = write_field(self.make_field())
        assert write_field(read_field(blob)) == blob

    def test_float64_storage_written_as_float32(self):
        fld = Field3D(np.full((1, 4, 4, 4), 1 / 3), [ROLE_GENERIC])
        back = read_field(write_field(fld))
        assert back.values.dtype == np.float32
        assert back.values[0, 0, 0, 0] == np.float32(1 / 3)

    def test_header_layout(self):
        blob = write_field(self.make_field())
        assert blob[:4] == b"FPF1"
        assert int.from_bytes(blob[4:8], "little") == 5
        assert int.from_bytes(blob[8:12], "little") == 4
        assert list(blob[12:16]) == [0, 1, 2, 3]
        assert len(blob) == 16 + 4 * 4 * 125

    def test_bad_magic(self):
        blob = write_field(self.make_field())
        with pytest.raises(FormatError, match="magic"):
            read_field(b"XXXX" + blob[4:])

    def test_truncated(self):
        blob = write_field(self.make_field())
        with pytest.raises(FormatError, match="truncated"):
            read_field(blob[:30])
        with pytest.raises(FormatError, match="truncated"):
            read_field(blob[:8])

    def test_trailing_garbage(self):
        blob = write_field(self.make_field())
        with pytest.raises(FormatError, match="trailing"):
            read_field(blob + b"\x00")

    def test_bad_role_byte(self):
        blob = bytearray(write_field(self.make_field()))
        blob[12] = 9
        with pytest.raises(FormatError, match="role"):
            read_field(bytes(blob))

    def test_nan_payload(self):
        blob = bytearray(write_field(self.make_field()))
        blob[16:20] = np.float32(np.nan).tobytes()
        with pytest.raises(FormatError, match="finite"):
            read_field(bytes(blob))

    def test_write_rejects_non_finite(self):
        fld = Field3D(np.full((1, 4, 4, 4), np.inf), [ROLE_GENERIC])
        with pytest.raises(ValueError, match="finite"):
            write_field(fld)

    def test_implausible_header(self):
        blob = b"FPF1" + (0).to_bytes(4, "little") + (1).to_bytes(4, "little")
        with pytest.raises(FormatError, match="implausible"):
            read_field(blob)

    def test_file_round_trip(self, tmp_path):
        from fieldprobe.field import load_field, save_field

        fld = self.make_field(3)
        save_field(fld, tmp_path / "f.field")
        back = load_field(tmp_path / "f.field")
        np.testing.assert_array_equal(back.values, fld.values)
