"""Probing-layer tests: initialization geometry, each stage's forward and
backward over a batch against hand values and finite differences, and the
composed layer."""

import math

import numpy as np
import pytest

from fieldprobe import field
from fieldprobe.field import ROLE_DISTANCE, ROLE_GENERIC, Field3D
from fieldprobe.nn import Sgd, block_error, numeric_gradient
from fieldprobe.probing import (
    FilterBank,
    InitConfig,
    ProbingLayer,
    dotproduct_backward,
    dotproduct_forward,
    gaussian_backward,
    gaussian_forward,
    init_filter_bank,
    mac_count,
    sensor_backward,
    sensor_forward,
)
from fieldprobe.synthetic import multilinear_field

FD_STEP = 1e-4


def generic_field(rng, r=8, channels=1):
    return multilinear_field(rng, r, [ROLE_GENERIC] * channels)[0]


def linear_field(coef_xyz, r, offset=0.0, role=ROLE_GENERIC):
    z, y, x = np.meshgrid(np.arange(r), np.arange(r), np.arange(r), indexing="ij")
    bx, by, bz = coef_xyz
    return Field3D((offset + bx * x + by * y + bz * z)[None].astype(np.float64), [role])


def small_bank(rng, r=8, c=3, n=4, t=1):
    locs = rng.uniform(0.5, r - 1.5, size=(c, n, 3))
    weights = rng.standard_normal((c, n, t))
    return FilterBank(locs, weights, r)


class TestInitConfig:
    def test_filter_count(self):
        assert InitConfig(grid_divisions=4, filters_per_cell=16).filter_count == 1024
        assert InitConfig(grid_divisions=2, filters_per_cell=3).filter_count == 24

    def test_validation(self):
        with pytest.raises(ValueError, match="grid_divisions"):
            InitConfig(grid_divisions=0)
        with pytest.raises(ValueError, match="filters_per_cell"):
            InitConfig(filters_per_cell=0)
        with pytest.raises(ValueError, match="at least 2"):
            InitConfig(points_per_filter=1)
        with pytest.raises(ValueError, match="length"):
            InitConfig(length_low=0.0)
        with pytest.raises(ValueError, match="length"):
            InitConfig(length_low=0.6, length_high=0.5)
        with pytest.raises(ValueError, match="length"):
            InitConfig(length_high=1.0)


class TestInitFilterBank:
    def test_shapes_and_bounds(self):
        cfg = InitConfig(grid_divisions=2, filters_per_cell=4, points_per_filter=8, seed=1)
        bank = init_filter_bank(cfg, 32, channel_count=4)
        assert bank.locations.shape == (32, 8, 3)
        assert bank.weights.shape == (32, 8, 4)
        assert bank.locations.min() >= 0.0 and bank.locations.max() <= 31.0

    def test_points_evenly_spaced_on_a_segment(self):
        cfg = InitConfig(grid_divisions=2, filters_per_cell=2, points_per_filter=5, seed=3)
        bank = init_filter_bank(cfg, 32)
        steps = np.diff(bank.locations, axis=1)
        np.testing.assert_allclose(steps, np.broadcast_to(steps[:, :1], steps.shape), atol=1e-9)

    def test_two_points_are_the_endpoints(self):
        cfg = InitConfig(grid_divisions=2, filters_per_cell=2, points_per_filter=2, seed=5)
        bank = init_filter_bank(cfg, 64)
        lengths = np.linalg.norm(bank.locations[:, 1] - bank.locations[:, 0], axis=1)
        assert (lengths >= 0.2 * 64 - 1e-9).all()
        assert (lengths <= 0.8 * 64 + 1e-9).all()

    def test_default_config_spans_distantly(self):
        # endpoint separation at least length_low * R: probes reach far
        # across the volume instead of clustering
        bank = init_filter_bank(InitConfig(seed=0), 64)
        lengths = np.linalg.norm(bank.locations[:, -1] - bank.locations[:, 0], axis=1)
        assert (lengths >= 0.2 * 64 - 1e-9).all()

    def test_centers_cover_the_cell_grid(self):
        g, p = 2, 3
        cfg = InitConfig(grid_divisions=g, filters_per_cell=p, points_per_filter=2, seed=7)
        r = 32
        bank = init_filter_bank(cfg, r)
        cell = (r - 1.0) / g
        c = 0
        for gz, gy, gx in np.ndindex(g, g, g):
            lo = np.array([gx, gy, gz]) * cell
            for _ in range(p):
                center = bank.locations[c].mean(axis=0)
                assert (center >= lo - 1e-9).all() and (center <= lo + cell + 1e-9).all()
                c += 1

    def test_weights_xavier_bound(self):
        cfg = InitConfig(grid_divisions=2, filters_per_cell=8, points_per_filter=8, seed=9)
        bank = init_filter_bank(cfg, 32, channel_count=4)
        bound = math.sqrt(6.0 / (8 * 4 + 1))
        assert np.abs(bank.weights).max() <= bound
        assert bank.weights.std() > 0.3 * bound

    def test_deterministic_per_seed(self):
        cfg = InitConfig(grid_divisions=2, filters_per_cell=2, seed=11)
        a = init_filter_bank(cfg, 32)
        b = init_filter_bank(cfg, 32)
        assert np.array_equal(a.locations, b.locations)
        assert np.array_equal(a.weights, b.weights)
        c = init_filter_bank(InitConfig(grid_divisions=2, filters_per_cell=2, seed=12), 32)
        assert not np.array_equal(a.locations, c.locations)


class TestFilterBank:
    def test_validation(self):
        with pytest.raises(ValueError, match="locations"):
            FilterBank(np.zeros((2, 3)), np.zeros((2, 3, 1)), 8)
        with pytest.raises(ValueError, match="weights"):
            FilterBank(np.zeros((2, 3, 3)), np.zeros((2, 4, 1)), 8)
        with pytest.raises(ValueError, match="0, R-1"):
            FilterBank(np.full((1, 2, 3), 9.0), np.zeros((1, 2, 1)), 8)

    def test_gradient_buffers(self):
        # the layer's tensors share the bank's values and own the gradients
        bank = FilterBank(np.ones((2, 3, 3), np.float32), np.zeros((2, 3, 1)), 8)
        layer = ProbingLayer(bank, 1.0)
        for tensor, values in ((layer.locations, bank.locations),
                               (layer.weights, bank.weights)):
            assert tensor.values is values
            assert tensor.grad.shape == values.shape
            assert tensor.grad.dtype == np.float32
            assert not tensor.grad.any()
            assert not np.shares_memory(tensor.grad, values)

    def test_clamp(self):
        bank = FilterBank(np.ones((1, 2, 3)), np.zeros((1, 2, 1)), 8)
        bank.locations[0, 0] = [-1.0, 3.0, 99.0]
        bank.clamp_locations()
        np.testing.assert_array_equal(bank.locations[0, 0], [0.0, 3.0, 7.0])


class TestSensor:
    def test_constant_field(self):
        rng = np.random.default_rng(0)
        bank = small_bank(rng, c=2, n=3)
        fld = Field3D(np.full((1, 8, 8, 8), 4.25), [ROLE_GENERIC])
        values, _ = sensor_forward(bank, [fld, fld])
        assert values.shape == (2, 2, 3, 1)
        np.testing.assert_allclose(values, 4.25, atol=1e-12)

    def test_linear_field_hand_value(self):
        fld = linear_field((2.0, 3.0, 5.0), 8)
        locs = np.array([[[1.25, 2.5, 0.75], [1.0, 1.0, 1.0]]])
        bank = FilterBank(locs, np.ones((1, 2, 1)), 8)
        values, _ = sensor_forward(bank, [fld])
        assert values[0, 0, 0, 0] == pytest.approx(13.75, abs=1e-12)
        assert values[0, 0, 1, 0] == pytest.approx(10.0, abs=1e-12)

    def test_identical_points_identical_reads(self):
        rng = np.random.default_rng(1)
        fld = generic_field(rng)
        loc = rng.uniform(1, 6, size=3)
        bank = FilterBank(np.stack([[loc, loc]]), np.ones((1, 2, 1)), 8)
        values, _ = sensor_forward(bank, [fld])
        assert values[0, 0, 0, 0] == values[0, 0, 1, 0]

    def test_batch_rows_are_the_fields_read_alone(self):
        rng = np.random.default_rng(22)
        bank = small_bank(rng, t=2)
        fields = [generic_field(rng, channels=2) for _ in range(3)]
        values, gradients = sensor_forward(bank, fields)
        for row, fld in enumerate(fields):
            alone_values, alone_gradients = sensor_forward(bank, [fld])
            np.testing.assert_array_equal(values[row], alone_values[0])
            np.testing.assert_array_equal(gradients[row], alone_gradients[0])

    def test_resolution_mismatch(self):
        rng = np.random.default_rng(2)
        bank = small_bank(rng, r=8)
        fld = Field3D(np.zeros((1, 16, 16, 16)), [ROLE_GENERIC])
        with pytest.raises(ValueError, match="resolution"):
            sensor_forward(bank, [fld])
        with pytest.raises(ValueError, match="resolution"):
            sensor_forward(bank, [generic_field(rng), fld])

    def test_channel_mismatch(self):
        rng = np.random.default_rng(3)
        bank = small_bank(rng, t=2)
        fld = Field3D(np.zeros((1, 8, 8, 8)), [ROLE_GENERIC])
        with pytest.raises(ValueError, match="channels"):
            sensor_forward(bank, [fld])
        with pytest.raises(ValueError, match="channels"):
            sensor_forward(bank, [generic_field(rng, channels=2), fld])

    def test_role_mismatch_within_batch(self):
        rng = np.random.default_rng(23)
        bank = small_bank(rng)
        distance = multilinear_field(rng, 8, [ROLE_DISTANCE])[0]
        with pytest.raises(ValueError, match="roles"):
            sensor_forward(bank, [distance, generic_field(rng)])

    def test_empty_batch_rejected(self):
        bank = small_bank(np.random.default_rng(24))
        with pytest.raises(ValueError, match="at least one field"):
            sensor_forward(bank, [])

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(4)
        bank = small_bank(rng)
        values, gradients = sensor_forward(bank, [generic_field(rng)])
        grads = sensor_backward(gradients, np.zeros_like(values))
        assert grads.shape == bank.locations.shape and not grads.any()

    def test_backward_linear_field_unit_upstream(self):
        fld = linear_field((1.0, 0.0, 0.0), 8)
        locs = np.array([[[2.5, 3.5, 4.5], [1.0, 2.0, 3.0]]])
        bank = FilterBank(locs, np.ones((1, 2, 1)), 8)
        _, gradients = sensor_forward(bank, [fld])
        upstream = np.zeros((1, 1, 2, 1))
        upstream[0, 0, 0, 0] = 1.0
        grads = sensor_backward(gradients, upstream)
        np.testing.assert_allclose(grads[0, 0], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(grads[0, 1], 0.0, atol=1e-12)

    def test_backward_sums_over_the_batch(self):
        rng = np.random.default_rng(5)
        bank = small_bank(rng)
        fld = generic_field(rng)
        upstream = rng.standard_normal((1, 3, 4, 1))
        once = sensor_backward(sensor_forward(bank, [fld])[1], upstream)
        # one batch of the field twice sums the same two contributions
        _, gradients = sensor_forward(bank, [fld, fld])
        twice = sensor_backward(gradients, np.concatenate([upstream, upstream]))
        np.testing.assert_allclose(twice, 2 * once, rtol=1e-12)

    def test_backward_requires_forward(self):
        rng = np.random.default_rng(6)
        bank = small_bank(rng)
        _, gradients = sensor_forward(bank, [generic_field(rng)], with_gradients=False)
        assert gradients is None
        with pytest.raises(RuntimeError, match="without gradients"):
            sensor_backward(gradients, np.zeros((1, 3, 4, 1)))

    def test_location_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(30):
            bank = small_bank(rng, c=2, n=3, t=2)
            fields = [generic_field(rng, channels=2) for _ in range(2)]
            r_weights = rng.standard_normal((2, 2, 3, 2))

            def loss():
                return float((sensor_forward(bank, fields)[0] * r_weights).sum())

            analytic = sensor_backward(sensor_forward(bank, fields)[1], r_weights)
            numeric = numeric_gradient(loss, bank.locations, FD_STEP)
            worst = max(worst, block_error(analytic, numeric))
        assert worst <= 1e-5


class TestGaussian:
    def test_closed_form_points(self):
        assert gaussian_forward(0.0, 2.0) == 1.0
        assert gaussian_forward(2.0, 2.0) == pytest.approx(0.60653, abs=1e-5)
        assert gaussian_forward(6.0, 2.0) == pytest.approx(0.011109, abs=1e-6)

    def test_range(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-10, 10, size=1000)
        y = gaussian_forward(x, 1.5)
        assert (y > 0).all() and (y <= 1).all()
        assert (y == 1.0) .sum() == (x == 0.0).sum()

    def test_sigma_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_forward(1.0, 0.0)
        with pytest.raises(ValueError, match="sigma"):
            ProbingLayer(FilterBank(np.ones((1, 2, 3)), np.ones((1, 2, 1)), 8), -1.0)

    def test_backward_closed_form(self):
        assert gaussian_backward(0.0, 1.0, 2.0) == 0.0
        assert gaussian_backward(2.0, 1.0, 2.0) == pytest.approx(-math.exp(-0.5) / 2.0, rel=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        sigma = 1.3
        sign = rng.choice([-1.0, 1.0], size=200)
        x = sign * rng.uniform(0.2 * sigma, 2.5 * sigma, size=200)
        upstream = rng.standard_normal(200)
        analytic = gaussian_backward(x, upstream, sigma)
        h = 1e-5
        numeric = upstream * (gaussian_forward(x + h, sigma) - gaussian_forward(x - h, sigma)) / (2 * h)
        assert block_error(analytic, numeric) <= 1e-6

    def test_any_shape(self):
        x = np.random.default_rng(25).uniform(-3, 3, size=(2, 3, 4, 2))
        np.testing.assert_array_equal(gaussian_forward(x, 1.5)[1],
                                      gaussian_forward(x[1], 1.5))


class TestDotProduct:
    def test_unit_weights_sum(self):
        rng = np.random.default_rng(10)
        vals = rng.standard_normal((2, 3, 4, 2))
        bank = FilterBank(np.ones((3, 4, 3)), np.ones((3, 4, 2)), 8)
        np.testing.assert_allclose(dotproduct_forward(bank, vals), vals.sum(axis=(2, 3)))

    def test_weights_equal_inputs_gives_squared_norm(self):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((1, 2, 3, 2))
        bank = FilterBank(np.ones((2, 3, 3)), vals[0].copy(), 8)
        np.testing.assert_allclose(dotproduct_forward(bank, vals), (vals**2).sum(axis=(2, 3)))

    def test_hand_value(self):
        bank = FilterBank(np.ones((1, 2, 3)), np.array([[[0.5], [-1.0]]]), 8)
        vals = np.array([[[[3.0], [4.0]]], [[[1.0], [1.0]]]])
        np.testing.assert_allclose(dotproduct_forward(bank, vals), [[-2.5], [-0.5]])

    def test_backward_hand_values(self):
        bank = FilterBank(np.ones((1, 2, 3)), np.array([[[0.5], [-1.0]]]), 8)
        vals = np.array([[[[3.0], [4.0]]], [[[1.0], [1.0]]]])
        grads, weight_grads = dotproduct_backward(bank, vals, np.array([[1.0], [2.0]]))
        np.testing.assert_allclose(grads[0, 0, :, 0], [0.5, -1.0])
        np.testing.assert_allclose(grads[1, 0, :, 0], [1.0, -2.0])
        # summed over the batch: 1 * (3, 4) + 2 * (1, 1)
        np.testing.assert_allclose(weight_grads[0, :, 0], [5.0, 6.0])

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(12)
        bank = small_bank(rng)
        vals = rng.standard_normal((2, 3, 4, 1))
        grads, weight_grads = dotproduct_backward(bank, vals, np.zeros((2, 3)))
        assert not grads.any() and not weight_grads.any()

    def test_bilinear(self):
        rng = np.random.default_rng(13)
        bank = small_bank(rng, t=2)
        vals = rng.standard_normal((2, 3, 4, 2))
        base = dotproduct_forward(bank, vals)
        np.testing.assert_allclose(dotproduct_forward(bank, 2.5 * vals), 2.5 * base, rtol=1e-6)
        bank.weights *= -3.0
        np.testing.assert_allclose(dotproduct_forward(bank, vals), -3.0 * base, rtol=1e-6)

    def test_filter_independence(self):
        rng = np.random.default_rng(14)
        bank = small_bank(rng, c=4)
        vals = rng.standard_normal((2, 4, 4, 1))
        base = dotproduct_forward(bank, vals)
        bank.weights[2] = 0.0
        touched = dotproduct_forward(bank, vals)
        assert not touched[:, 2].any()
        np.testing.assert_array_equal(np.delete(touched, 2, axis=1), np.delete(base, 2, axis=1))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(15)
        bank = small_bank(rng)
        with pytest.raises(ValueError, match="match"):
            dotproduct_forward(bank, np.zeros((1, 3, 4, 2)))
        with pytest.raises(ValueError, match="match"):
            dotproduct_forward(bank, np.zeros((3, 4, 1)))
        with pytest.raises(ValueError, match="upstream"):
            dotproduct_backward(bank, np.zeros((1, 3, 4, 1)), np.zeros((1, 5)))
        with pytest.raises(ValueError, match="upstream"):
            dotproduct_backward(bank, np.zeros((1, 3, 4, 1)), np.zeros((2, 3)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            bank = small_bank(rng, c=2, n=3, t=2)
            vals = rng.standard_normal((2, 2, 3, 2))
            upstream = rng.standard_normal((2, 2))

            def loss():
                return float((dotproduct_forward(bank, vals) * upstream).sum())

            analytic_in, analytic_w = dotproduct_backward(bank, vals, upstream)
            assert block_error(analytic_in, numeric_gradient(loss, vals, FD_STEP)) <= 1e-6
            assert block_error(analytic_w,
                               numeric_gradient(loss, bank.weights, FD_STEP)) <= 1e-6


class TestMacCount:
    def test_full_scale_bank(self):
        bank = init_filter_bank(InitConfig(grid_divisions=4, filters_per_cell=16), 64)
        assert mac_count(bank) == 32768

    def test_minimal(self):
        bank = FilterBank(np.ones((1, 1, 3)), np.ones((1, 1, 1)), 8)
        assert mac_count(bank) == 1


class TestPipeline:
    """The composed layer: Sensor, Gaussian on distance channels, DotProduct."""

    def build(self, rng, roles, sigma=1.2, c=2, n=3, batch=1, frozen=False):
        fields = [multilinear_field(rng, 8, roles)[0] for _ in range(batch)]
        bank = small_bank(rng, c=c, n=n, t=len(roles))
        return ProbingLayer(bank, sigma, frozen=frozen), fields

    def test_composition_equals_manual_stages(self):
        rng = np.random.default_rng(17)
        layer, fields = self.build(rng, [ROLE_DISTANCE, ROLE_GENERIC], batch=3)
        got = layer.forward(fields)
        staged = sensor_forward(layer.bank, fields)[0].copy()
        staged[..., 0] = gaussian_forward(staged[..., 0], layer.sigma)
        np.testing.assert_array_equal(got, dotproduct_forward(layer.bank, staged))

    def test_gaussian_hits_distance_channels_only(self):
        rng = np.random.default_rng(18)
        layer, fields = self.build(rng, [ROLE_DISTANCE, ROLE_GENERIC], c=1, n=2)
        layer.bank.weights[:] = 0.0
        layer.bank.weights[0, :, 1] = 1.0  # listen to the pass-through channel
        got = layer.forward(fields)
        raw = sensor_forward(layer.bank, fields)[0][0, 0, :, 1].sum()
        assert got[0, 0] == pytest.approx(raw, rel=1e-12)
        layer.bank.weights[:] = 0.0
        layer.bank.weights[0, :, 0] = 1.0  # now only the squashed channel
        got = layer.forward(fields)
        squashed = gaussian_forward(sensor_forward(layer.bank, fields)[0][0, 0, :, 0],
                                    layer.sigma)
        assert got[0, 0] == pytest.approx(squashed.sum(), rel=1e-12)

    def test_backward_requires_forward(self):
        rng = np.random.default_rng(19)
        layer, fields = self.build(rng, [ROLE_DISTANCE])
        with pytest.raises(RuntimeError, match="without a training forward"):
            layer.backward(np.zeros((1, 2)))
        layer.forward(fields, train=True)
        layer.backward(np.zeros((1, 2)))
        with pytest.raises(RuntimeError, match="without a training forward"):
            layer.backward(np.zeros((1, 2)))

    def test_backward_adds_into_the_tensors(self):
        rng = np.random.default_rng(27)
        layer, fields = self.build(rng, [ROLE_DISTANCE, ROLE_GENERIC], batch=2)
        upstream = rng.standard_normal((2, 2))
        layer.forward(fields, train=True)
        layer.backward(upstream)
        once = [p.grad.copy() for p in layer.params()]
        assert all(g.any() for g in once)
        layer.forward(fields, train=True)
        layer.backward(upstream)
        for p, g in zip(layer.params(), once):
            np.testing.assert_allclose(p.grad, 2 * g, rtol=1e-12)
        Sgd(layer.params(), 0.01, 0.9, 0.0).zero_grads()
        assert not any(p.grad.any() for p in layer.params())

    def test_eval_forward_leaves_no_cache(self):
        rng = np.random.default_rng(20)
        layer, fields = self.build(rng, [ROLE_DISTANCE])
        layer.forward(fields, train=False)
        with pytest.raises(RuntimeError, match="without a training forward"):
            layer.backward(np.zeros((1, 2)))

    def test_frozen_layer_gathers_no_gradient_rows(self, monkeypatch):
        rng = np.random.default_rng(26)
        layer, fields = self.build(rng, [ROLE_DISTANCE, ROLE_GENERIC], batch=2,
                                   frozen=True)
        asked = []
        gather = field.gather_corners

        def spy(fld, index, with_gradients=True):
            asked.append(with_gradients)
            return gather(fld, index, with_gradients)

        monkeypatch.setattr(field, "gather_corners", spy)
        layer.forward(fields, train=True)
        assert asked == [False, False]
        assert all(fld._block is None for fld in fields)

    def test_composed_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        worst_loc = worst_w = 0.0
        for _ in range(20):
            layer, fields = self.build(rng, [ROLE_DISTANCE, ROLE_GENERIC], sigma=1.5,
                                       batch=2)
            bank = layer.bank
            upstream = rng.standard_normal((2, 2))

            def loss():
                return float((layer.forward(fields) * upstream).sum())

            layer.forward(fields, train=True)
            layer.backward(upstream)
            worst_loc = max(worst_loc, block_error(
                layer.locations.grad, numeric_gradient(loss, bank.locations, FD_STEP)))
            worst_w = max(worst_w, block_error(
                layer.weights.grad, numeric_gradient(loss, bank.weights, FD_STEP)))
        assert worst_loc <= 1e-4
        assert worst_w <= 1e-4
