"""A minimal dense network stack: parameter tensors, fully connected / batch
norm / ReLU / dropout layers, softmax cross-entropy, SGD with momentum and
weight decay, and a finite-difference gradient checker that audits every
gradient a fragment returns: its parameter blocks and, when its backward
returns one, its input gradient.

Parameters are stored in 32-bit floats (what the checkpoint format holds, so
save/load is lossless); activations flow in float64. Gradient buffers
accumulate across a batch; the cross-entropy gradient already carries the
1/batch factor, so accumulated sums arrive at the optimizer as batch means
and Sgd.step applies them as-is.
"""

from __future__ import annotations

import numpy as np

# BatchNorm's running-stats decay and variance floor; checkpoints hold
# neither, so a model is always rebuilt with these
BN_MOMENTUM = 0.9
BN_EPSILON = 1e-5


class Tensor:
    """A parameter block: values plus the same-shape gradient buffer it owns.

    Wraps the given values by reference (no copy), so external owners like a
    probing filter bank share them with the optimizer. `decay` marks
    whether weight decay applies; biases, batch-norm scales, and probing
    locations are exempt. `rate` multiplies the optimizer's learning rate
    for this block alone: probing locations live in voxel units (0 to R-1)
    while every other block is unit-scale, so they take a larger step. The
    multiplier acts in the optimizer, never on `grad`, which keeps holding
    the true gradient.
    """

    def __init__(self, values, name="", decay=True, rate=1.0):
        self.values = np.asarray(values)
        if self.values.ndim > 3:
            raise ValueError(f"rank {self.values.ndim} tensor; at most 3 supported")
        self.grad = np.zeros_like(self.values)
        self.name = name
        self.decay = decay
        self.rate = float(rate)

    @property
    def shape(self):
        return self.values.shape

    def zero_grad(self):
        self.grad[:] = 0


class FullyConnected:
    """y = x W^T + b with W of shape (out, in), Xavier-uniform initialized."""

    def __init__(self, in_dim, out_dim, rng, name="fc", dtype=np.float32):
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        w = rng.uniform(-bound, bound, size=(out_dim, in_dim)).astype(dtype)
        self.weight = Tensor(w, name=f"{name}.weight")
        self.bias = Tensor(np.zeros(out_dim, dtype=dtype), name=f"{name}.bias", decay=False)
        self.name = name
        self._x = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.weight.shape[1]:
            raise ValueError(f"{self.name}: input {x.shape} vs weight {self.weight.shape}")
        self._x = x
        return x @ self.weight.values.T.astype(np.float64) + self.bias.values

    def backward(self, upstream):
        if self._x is None:
            raise RuntimeError(f"{self.name}: backward before forward")
        upstream = np.asarray(upstream, dtype=np.float64)
        self.weight.grad += upstream.T @ self._x
        self.bias.grad += upstream.sum(axis=0)
        return upstream @ self.weight.values.astype(np.float64)


class BatchNorm:
    """Per-feature batch normalization: train mode normalizes by batch
    statistics (variance with denominator N) and maintains running stats by
    exponential moving average; eval mode applies the running stats."""

    def __init__(self, features, name="bn", dtype=np.float32):
        self.gamma = Tensor(np.ones(features, dtype=dtype), name=f"{name}.gamma", decay=False)
        self.beta = Tensor(np.zeros(features, dtype=dtype), name=f"{name}.beta", decay=False)
        self.running_mean = np.zeros(features, dtype=dtype)
        self.running_var = np.ones(features, dtype=dtype)
        self.name = name
        self._cache = None

    def params(self):
        return [self.gamma, self.beta]

    def state(self):
        return {
            f"{self.name}.running_mean": self.running_mean,
            f"{self.name}.running_var": self.running_var,
        }

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=np.float64)
        if train:
            if x.shape[0] < 2:
                raise ValueError(f"{self.name}: batch norm needs a batch of >= 2 in train mode")
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
            xhat = (x - mean) * inv_std
            m = BN_MOMENTUM
            self.running_mean[:] = m * self.running_mean + (1 - m) * mean
            self.running_var[:] = m * self.running_var + (1 - m) * var
            self._cache = (xhat, inv_std)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var.astype(np.float64) + BN_EPSILON)
            xhat = (x - self.running_mean) * inv_std
            self._cache = None
        return self.gamma.values * xhat + self.beta.values

    def backward(self, upstream):
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward requires a train-mode forward")
        xhat, inv_std = self._cache
        upstream = np.asarray(upstream, dtype=np.float64)
        b = upstream.shape[0]
        self.gamma.grad += (upstream * xhat).sum(axis=0)
        self.beta.grad += upstream.sum(axis=0)
        dxhat = upstream * self.gamma.values
        return (
            inv_std
            / b
            * (b * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        )


class ReLU:
    def __init__(self, name="relu"):
        self.name = name
        self._mask = None

    def params(self):
        return []

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, upstream):
        return np.where(self._mask, np.asarray(upstream, dtype=np.float64), 0.0)


class Dropout:
    """Inverted dropout: zero with probability `rate` and scale survivors by
    1/(1-rate) in train mode, identity in eval mode. The mask comes from the
    generator passed to forward, so determinism is the caller's seed."""

    def __init__(self, rate=0.5, name="dropout"):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.name = name
        self._mask = None

    def params(self):
        return []

    def forward(self, x, train=False, rng=None):
        x = np.asarray(x, dtype=np.float64)
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError(f"{self.name}: train-mode dropout needs a generator")
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, upstream):
        upstream = np.asarray(upstream, dtype=np.float64)
        return upstream if self._mask is None else upstream * self._mask


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch plus the logit gradients
    (softmax - one-hot) / batch. Row maxima are subtracted first, so huge
    logits cannot overflow."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(f"logits {logits.shape} vs labels {labels.shape}")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label outside class range")
    b = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(b), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


class Sgd:
    """Momentum SGD: g' = g + decay*w (decay-exempt blocks skip the second
    term); v = momentum*v - lr*rate*g'; w += v, where lr is the learning
    rate and rate the block's own multiplier (1 for all but the voxel-unit
    probing locations). The caller checks the three settings' ranges
    (`TrainConfig` does). Velocities live in the same dtype as their
    parameters so checkpoints capture them losslessly."""

    def __init__(self, params, learning_rate, momentum, weight_decay):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {sorted(names)}")
        self.params = list(params)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocities = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        for p, v in zip(self.params, self.velocities):
            g = p.grad
            if p.decay and self.weight_decay:
                g = g + self.weight_decay * p.values
            v *= self.momentum
            v -= (self.learning_rate * p.rate * g).astype(v.dtype, copy=False)
            p.values += v

    def zero_grads(self):
        for p in self.params:
            p.zero_grad()


class Network:
    """An ordered layer stack ending in softmax cross-entropy."""

    def __init__(self, layers):
        self.layers = list(layers)
        names = [p.name for p in self.params()]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {sorted(names)}")

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x, train=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, upstream):
        for layer in reversed(self.layers):
            upstream = layer.backward(upstream)
        return upstream

    def state_blocks(self):
        """Every array a checkpoint must capture, name -> array, in a fixed
        order: parameters first, then auxiliary state (running stats)."""
        blocks = {}
        for p in self.params():
            blocks[p.name] = p.values
        for layer in self.layers:
            if hasattr(layer, "state"):
                blocks.update(layer.state())
        return blocks


def block_error(analytic, numeric):
    """Max elementwise relative error with a floor at 1e-3 of the block's
    dominant magnitude, so near-zero entries are judged at block scale
    instead of amplifying finite-difference noise."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.size == 0:
        return 0.0
    scale = max(np.abs(analytic).max(), np.abs(numeric).max())
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-3 * scale + 1e-12)
    return float((np.abs(analytic - numeric) / denom).max())


def numeric_gradient(loss, values, step):
    """Central finite differences of the scalar `loss()` with respect to
    every entry of the array `values`, probed `step` either side. Each
    entry is perturbed in place and restored, so `loss` must read `values`
    itself. Returns a float64 array of the shape of `values`."""
    numeric = np.zeros(values.shape, dtype=np.float64)
    for i in np.ndindex(values.shape):
        keep = values[i]
        values[i] = keep + step
        hi = loss()
        values[i] = keep - step
        lo = loss()
        values[i] = keep
        numeric[i] = (hi - lo) / (2.0 * step)
    return numeric


def grad_check(fragment, x, labels=None, step=1e-4, seed=0):
    """Compare a fragment's analytic gradients against central finite
    differences (`numeric_gradient`, probe step `step`), returning
    {block name: max rel error}.

    The fragment provides params() / forward / backward, and its forward
    takes `x` as given (a list of fields for a probing layer). When its
    backward returns an array, the report also holds an `input` entry: that
    array against the finite differences over `x`, which must then be a
    float64 array. When labels are given the loss is the fragment's softmax
    cross-entropy; otherwise a fixed random projection of the output, which
    exercises every output entry. The projection comes from a stream of its
    own, `default_rng((seed, 1))`, so it never repeats a caller's draws from
    `default_rng(seed)` (the same stream as `(seed, 0)`). Stochastic layers
    must be given the same generator stream on every call, which this
    harness guarantees by reseeding per evaluation.
    """
    out = fragment.forward(x, train=True, rng=np.random.default_rng(seed + 1))
    projection = np.random.default_rng((seed, 1)).standard_normal(out.shape)

    def loss():
        y = fragment.forward(x, train=True, rng=np.random.default_rng(seed + 1))
        if labels is None:
            return float((y * projection).sum())
        return float(softmax_cross_entropy(y, labels)[0])

    for p in fragment.params():
        p.zero_grad()
    y = fragment.forward(x, train=True, rng=np.random.default_rng(seed + 1))
    if labels is None:
        dx = fragment.backward(projection)
    else:
        dx = fragment.backward(softmax_cross_entropy(y, labels)[1])

    report = {}
    for p in fragment.params():
        analytic = p.grad.astype(np.float64).copy()
        numeric = numeric_gradient(loss, p.values, step)
        report[p.name or f"block{len(report)}"] = block_error(analytic, numeric)
    if dx is not None:
        report["input"] = block_error(dx, numeric_gradient(loss, x, step))
    return report
