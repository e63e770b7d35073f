"""Dense-stack tests: layer forwards against hand values, backwards against
finite differences, optimizer closed forms, and the checker's own teeth."""

import math

import numpy as np
import pytest

from fieldprobe.nn import (
    BatchNorm,
    Dropout,
    FullyConnected,
    Network,
    ReLU,
    Sgd,
    Tensor,
    grad_check,
    softmax_cross_entropy,
)


class TestTensor:
    def test_wraps_by_reference(self):
        arr = np.zeros((2, 3), dtype=np.float32)
        t = Tensor(arr, name="x")
        t.values[0, 0] = 5.0
        assert arr[0, 0] == 5.0

    def test_validation(self):
        with pytest.raises(ValueError, match="rank"):
            Tensor(np.zeros((1, 1, 1, 1)))


class TestFullyConnected:
    def test_identity(self):
        fc = FullyConnected(3, 3, np.random.default_rng(0), dtype=np.float64)
        fc.weight.values[:] = np.eye(3)
        fc.bias.values[:] = 0.0
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        np.testing.assert_array_equal(fc.forward(x), x)

    def test_hand_values(self):
        fc = FullyConnected(2, 2, np.random.default_rng(0), dtype=np.float64)
        fc.weight.values[:] = [[1.0, 1.0], [0.0, 1.0]]
        fc.bias.values[:] = [0.5, 0.0]
        y = fc.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(y, [[3.5, 2.0]])

    def test_xavier_bound(self):
        fc = FullyConnected(64, 16, np.random.default_rng(1))
        bound = math.sqrt(6.0 / 80)
        assert np.abs(fc.weight.values).max() <= bound
        assert not fc.bias.values.any()
        assert fc.bias.decay is False and fc.weight.decay is True

    def test_shape_mismatch(self):
        fc = FullyConnected(3, 2, np.random.default_rng(2))
        with pytest.raises(ValueError, match="input"):
            fc.forward(np.zeros((1, 4)))

    def test_backward_before_forward(self):
        fc = FullyConnected(3, 2, np.random.default_rng(3))
        with pytest.raises(RuntimeError, match="before forward"):
            fc.backward(np.zeros((1, 2)))

    def test_gradients(self):
        rng = np.random.default_rng(4)
        fc = FullyConnected(5, 3, rng, dtype=np.float64)
        report = grad_check(fc, rng.standard_normal((4, 5)))
        assert max(report.values()) <= 1e-6


class TestBatchNorm:
    def test_normalizes_batch(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm(4, dtype=np.float64)
        x = rng.standard_normal((32, 4)) * 3.0 + 7.0
        y = bn.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=0), 1.0, atol=1e-4)

    def test_standardized_input_identity(self):
        rng = np.random.default_rng(6)
        bn = BatchNorm(3, dtype=np.float64)
        x = rng.standard_normal((64, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        # epsilon inside the sqrt perturbs by a factor 1/sqrt(1 + 1e-5)
        np.testing.assert_allclose(bn.forward(x, train=True), x, rtol=1e-5, atol=1e-7)

    def test_batch_of_one_rejected(self):
        bn = BatchNorm(4)
        with pytest.raises(ValueError, match=">= 2"):
            bn.forward(np.zeros((1, 4)), train=True)

    def test_running_stats_ema(self):
        bn = BatchNorm(1, dtype=np.float64)
        x = np.array([[2.0], [4.0]])  # mean 3, var 1
        bn.forward(x, train=True)
        np.testing.assert_allclose(bn.running_mean, [0.3])
        np.testing.assert_allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 1.0])

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(1, dtype=np.float64)
        bn.running_mean[:] = 5.0
        bn.running_var[:] = 4.0
        y = bn.forward(np.array([[7.0]]), train=False)
        np.testing.assert_allclose(y, [[2.0 / math.sqrt(4.0 + 1e-5)]])

    def test_eval_is_pure(self):
        rng = np.random.default_rng(7)
        bn = BatchNorm(3, dtype=np.float64)
        bn.forward(rng.standard_normal((16, 3)), train=True)
        mean_before = bn.running_mean.copy()
        x = rng.standard_normal((4, 3))
        a = bn.forward(x, train=False)
        b = bn.forward(x, train=False)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(bn.running_mean, mean_before)

    def test_gradients(self):
        rng = np.random.default_rng(8)
        bn = BatchNorm(3, dtype=np.float64)
        bn.gamma.values[:] = rng.uniform(0.5, 1.5, size=3)
        bn.beta.values[:] = rng.standard_normal(3)
        report = grad_check(bn, rng.standard_normal((6, 3)))
        assert max(report.values()) <= 1e-5

    def test_backward_requires_train_forward(self):
        bn = BatchNorm(2)
        bn.forward(np.zeros((3, 2)), train=False)
        with pytest.raises(RuntimeError, match="train-mode"):
            bn.backward(np.zeros((3, 2)))


class TestReluDropout:
    def test_relu_values(self):
        relu = ReLU()
        np.testing.assert_array_equal(
            relu.forward(np.array([[-3.0, 0.0, 3.0]])), [[0.0, 0.0, 3.0]]
        )

    def test_relu_backward_masks(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(relu.backward(np.array([[5.0, 5.0]])), [[0.0, 5.0]])

    def test_dropout_rate_zero_identity(self):
        drop = Dropout(0.0)
        x = np.arange(4.0).reshape(1, 4)
        np.testing.assert_array_equal(drop.forward(x, train=True, rng=np.random.default_rng(0)), x)

    def test_dropout_eval_identity(self):
        drop = Dropout(0.5)
        x = np.arange(4.0).reshape(1, 4)
        np.testing.assert_array_equal(drop.forward(x, train=False), x)

    def test_dropout_preserves_expectation(self):
        drop = Dropout(0.5)
        x = np.ones((100000,))
        y = drop.forward(x, train=True, rng=np.random.default_rng(9))
        assert abs(y.mean() - 1.0) < 0.02

    def test_dropout_mask_reused_in_backward(self):
        drop = Dropout(0.5)
        x = np.ones((1, 1000))
        y = drop.forward(x, train=True, rng=np.random.default_rng(10))
        g = drop.backward(np.ones((1, 1000)))
        np.testing.assert_array_equal(g, y)

    def test_dropout_deterministic_per_seed(self):
        drop = Dropout(0.3)
        x = np.ones((4, 8))
        a = drop.forward(x, train=True, rng=np.random.default_rng(11))
        b = drop.forward(x, train=True, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_dropout_validation(self):
        with pytest.raises(ValueError, match="rate"):
            Dropout(1.0)
        with pytest.raises(ValueError, match="generator"):
            Dropout(0.5).forward(np.ones((1, 2)), train=True)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((3, 5)), [0, 2, 4])
        assert loss == pytest.approx(math.log(5))

    def test_huge_logits_stable(self):
        loss, grad = softmax_cross_entropy(np.array([[1e6, 0.0]]), [0])
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(grad).all()

    def test_gradient_form(self):
        logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        _, grad = softmax_cross_entropy(logits, [1, 0])
        shifted = logits - logits.max(axis=1, keepdims=True)
        soft = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        soft[0, 1] -= 1
        soft[1, 0] -= 1
        np.testing.assert_allclose(grad, soft / 2)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        # rate-0 dropout is the identity, so its input gradient is the loss's
        report = grad_check(Dropout(0.0), logits, labels=labels, step=1e-6)
        assert report["input"] <= 1e-8

    def test_label_validation(self):
        with pytest.raises(ValueError, match="class range"):
            softmax_cross_entropy(np.zeros((1, 3)), [3])


class TestSgd:
    def make_param(self, value, decay=True, rate=1.0):
        return Tensor(np.array([value]), name="w", decay=decay, rate=rate)

    def test_plain_descent(self):
        p = self.make_param(1.0)
        opt = Sgd([p], 0.1, 0.0, 0.0)
        p.grad[:] = 2.0
        opt.step()
        np.testing.assert_allclose(p.values, [1.0 - 0.1 * 2.0])

    def test_momentum_unrolled(self):
        p = self.make_param(0.0)
        opt = Sgd([p], 0.1, 0.9, 0.0)
        p.grad[:] = 1.0
        opt.step()
        first = p.values[0]
        p.grad[:] = 1.0
        opt.step()
        second = p.values[0] - first
        np.testing.assert_allclose(first, -0.1)
        np.testing.assert_allclose(second, -0.1 * (1 + 0.9))

    def test_decay_shrinks(self):
        p = self.make_param(4.0)
        opt = Sgd([p], 0.1, 0.0, 0.01)
        p.grad[:] = 0.0
        opt.step()
        np.testing.assert_allclose(p.values, [4.0 * (1 - 0.1 * 0.01)])

    def test_decay_exemption(self):
        p = self.make_param(4.0, decay=False)
        opt = Sgd([p], 0.1, 0.0, 0.01)
        p.grad[:] = 0.0
        opt.step()
        np.testing.assert_allclose(p.values, [4.0])

    def test_rate_steps_like_scaled_learning_rate(self):
        for rate in (0.5, 3.0, 100.0):
            scaled = self.make_param(2.0, rate=rate)
            plain = self.make_param(2.0)
            opt_scaled = Sgd([scaled], 0.01, 0.9, 0.01)
            opt_plain = Sgd([plain], 0.01 * rate, 0.9, 0.01)
            for g in (1.5, -0.25, 4.0):
                scaled.grad[:] = plain.grad[:] = g
                opt_scaled.step()
                opt_plain.step()
                assert scaled.grad[0] == g  # the optimizer scales the step, not the gradient
                np.testing.assert_array_equal(scaled.values, plain.values)

    def test_zero_grads(self):
        p = self.make_param(1.0)
        opt = Sgd([p], 0.01, 0.9, 0.0005)
        p.grad[:] = 3.0
        opt.zero_grads()
        assert not p.grad.any()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Sgd([self.make_param(1.0), self.make_param(2.0)], 0.01, 0.9, 0.0005)

    def test_updates_shared_storage_in_place(self):
        arr = np.array([2.0], dtype=np.float32)
        p = Tensor(arr, name="shared")
        opt = Sgd([p], 0.5, 0.0, 0.0)
        p.grad[:] = 1.0
        opt.step()
        assert arr[0] == np.float32(1.5)


def tiny_network(rng, in_dim=6, classes=3, dtype=np.float64):
    return Network(
        [
            FullyConnected(in_dim, 8, rng, name="fc1", dtype=dtype),
            BatchNorm(8, name="bn1", dtype=dtype),
            ReLU(name="relu1"),
            Dropout(0.25, name="drop1"),
            FullyConnected(8, classes, rng, name="fc_out", dtype=dtype),
        ]
    )


class TestNetwork:
    def test_composed_gradients(self):
        rng = np.random.default_rng(13)
        net = tiny_network(rng)
        x = rng.standard_normal((5, 6))
        labels = rng.integers(0, 3, size=5)
        report = grad_check(net, x, labels=labels)
        assert max(report.values()) <= 1e-4

    def test_state_blocks_cover_params_and_running_stats(self):
        net = tiny_network(np.random.default_rng(14))
        names = set(net.state_blocks())
        assert {"fc1.weight", "fc1.bias", "bn1.gamma", "bn1.beta"} <= names
        assert {"bn1.running_mean", "bn1.running_var"} <= names

    def test_loss_decreases_over_first_steps(self):
        rng = np.random.default_rng(15)
        net = tiny_network(rng, dtype=np.float64)
        opt = Sgd(net.params(), 1e-3, 0.9, 0.0)
        x = rng.standard_normal((16, 6))
        labels = rng.integers(0, 3, size=16)
        losses = []
        for step in range(10):
            opt.zero_grads()
            logits = net.forward(x, train=True, rng=np.random.default_rng(99))
            loss, grad = softmax_cross_entropy(logits, labels)
            losses.append(loss)
            net.backward(grad)
            opt.step()
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_duplicate_layer_names_rejected(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match="duplicate"):
            Network(
                [
                    FullyConnected(2, 2, rng, name="fc"),
                    FullyConnected(2, 2, rng, name="fc"),
                ]
            )


class TestGradCheckHarness:
    def test_catches_sign_flip(self):
        rng = np.random.default_rng(17)

        class Corrupted:
            def __init__(self):
                self.inner = FullyConnected(4, 3, rng, dtype=np.float64)

            def params(self):
                return self.inner.params()

            def forward(self, x, train=False, rng=None):
                return self.inner.forward(x, train=train)

            def backward(self, upstream):
                self.inner.backward(upstream)
                self.inner.weight.grad *= -1.0  # deliberate fault

        report = grad_check(Corrupted(), rng.standard_normal((3, 4)))
        assert report["fc.weight"] >= 0.1

    def test_report_keys_are_block_names(self):
        rng = np.random.default_rng(18)
        fc = FullyConnected(3, 2, rng, name="probe", dtype=np.float64)
        report = grad_check(fc, rng.standard_normal((2, 3)))
        assert set(report) == {"probe.weight", "probe.bias", "input"}

    def test_catches_input_sign_flip(self):
        class Flipped(FullyConnected):
            def backward(self, upstream):
                return -super().backward(upstream)  # deliberate fault

        rng = np.random.default_rng(19)
        fc = Flipped(4, 3, rng, dtype=np.float64)
        assert grad_check(fc, rng.standard_normal((3, 4)))["input"] >= 0.1
