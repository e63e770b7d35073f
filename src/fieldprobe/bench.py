"""Cost-model witness: probing time vs dense 3D convolution time.

The point being demonstrated: a probing layer touches C*N points no
matter how large the field is, so its runtime is (nearly) agnostic to
resolution, while a dense convolution slides over S^3 positions and S
grows linearly with resolution at fixed stride, giving a cubic blow-up.
The convolution here is a deliberately naive direct implementation (no
FFT, no im2col); it witnesses the scaling law, it is not a production
kernel.
"""

from __future__ import annotations

import dataclasses
import platform
import time

import numpy as np

from .field import Field3D, ROLE_DISTANCE, ROLE_GENERIC
from .probing import InitConfig, ProbingLayer, init_filter_bank, mac_count

BENCH_HEADER = "resolution,kind,mean_ms,std_ms,macs,bytes"

WARMUPS = 3


@dataclasses.dataclass(frozen=True)
class ConvConfig:
    """A cubic kernel slid over S positions per axis. `positions` is the
    stock count; `run_bench` sets the count its stride fits in each
    resolution."""

    kernel: int = 6
    channels_out: int = 48
    positions: int = 12

    def __post_init__(self):
        if self.kernel < 1:
            raise ValueError("kernel must be >= 1")
        if self.channels_out < 1:
            raise ValueError("channels_out must be >= 1")
        if self.positions < 1:
            raise ValueError("positions must be >= 1")

    def macs(self):
        """Multiply-accumulates for one single-channel input volume."""
        return self.kernel ** 3 * self.channels_out * self.positions ** 3


def conv3d_reference(volume, cfg: ConvConfig, weights, stride):
    """Direct dense 3D convolution, forward only.

    `volume` is a cubic (R, R, R) array with one input channel; `weights`
    is (C_out, K, K, K). The kernel slides `stride` voxels between its S
    positions per axis, which must satisfy (S-1)*stride + K <= R.
    Evaluates every sliding position as one patch-times-weights product,
    which is the honest naive cost. Returns (C_out, S, S, S) in float64.
    """
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim != 3 or len(set(volume.shape)) != 1:
        raise ValueError("volume must be cubic (R, R, R), got %s"
                         % (volume.shape,))
    weights = np.asarray(weights, dtype=np.float64)
    k = cfg.kernel
    if weights.shape != (cfg.channels_out, k, k, k):
        raise ValueError("weights must be (C_out, K, K, K) = %s, got %s"
                         % ((cfg.channels_out, k, k, k), weights.shape))
    s = cfg.positions
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if (s - 1) * stride + k > volume.shape[0]:
        raise ValueError("%d positions of kernel %d at stride %d do not fit "
                         "in resolution %d" % (s, k, stride, volume.shape[0]))
    flat = weights.reshape(cfg.channels_out, -1)
    out = np.empty((cfg.channels_out, s, s, s), dtype=np.float64)
    for iz in range(s):
        z0 = iz * stride
        for iy in range(s):
            y0 = iy * stride
            for ix in range(s):
                x0 = ix * stride
                patch = volume[z0:z0 + k, y0:y0 + k, x0:x0 + k].reshape(-1)
                out[:, iz, iy, ix] = flat @ patch
    return out


@dataclasses.dataclass
class BenchRow:
    resolution: int
    kind: str
    mean_ms: float
    std_ms: float
    macs: int
    bytes: int
    reps: int


@dataclasses.dataclass
class BenchReport:
    rows: list
    machine: str

    def row(self, resolution, kind):
        for row in self.rows:
            if row.resolution == resolution and row.kind == kind:
                return row
        raise KeyError("no row for (%r, %r)" % (resolution, kind))

    def time_ratio(self, kind, high_resolution, low_resolution):
        return (self.row(high_resolution, kind).mean_ms
                / self.row(low_resolution, kind).mean_ms)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# %s\n" % self.machine)
            handle.write(BENCH_HEADER + "\n")
            for row in self.rows:
                handle.write("%d,%s,%.6f,%.6f,%d,%d\n"
                             % (row.resolution, row.kind, row.mean_ms,
                                row.std_ms, row.macs, row.bytes))
        return path


def _machine_info():
    return "%s | python %s | numpy %s" % (
        platform.platform(), platform.python_version(), np.__version__)


def _time_callable(fn, reps):
    """Mean/std wall milliseconds per call over >= `reps` measurements.

    Each measurement runs the callable enough times to fill 1 ms, which
    the monotonic clock resolves (auto-scaled inner loop), then divides
    back down to a single call. The callable must be warm.
    """
    reps = max(10, int(reps))
    t0 = time.perf_counter()
    fn()
    probe = max(time.perf_counter() - t0, 1e-9)
    inner = max(1, int(np.ceil(1e-3 / probe)))
    samples = np.empty(reps, dtype=np.float64)
    for i in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples[i] = (time.perf_counter() - t0) / inner
    return float(samples.mean() * 1e3), float(samples.std() * 1e3), reps


def _probing_setup(init_cfg, resolution, channel_count, rng):
    bank = init_filter_bank(init_cfg, resolution,
                            channel_count=channel_count, dtype=np.float32)
    sigma = 0.1 * (resolution - 4)
    layer = ProbingLayer(bank, sigma)
    roles = np.full(channel_count, ROLE_GENERIC, dtype=np.uint8)
    roles[0] = ROLE_DISTANCE
    values = rng.standard_normal(
        (channel_count,) + (resolution,) * 3).astype(np.float32)
    field = Field3D(values, roles)
    field.gradients  # the precomputed stack is field preparation, not layer cost

    def once():
        out = layer.forward([field], train=True)
        layer.backward(out)

    touched = (field.values.nbytes + field.gradients.nbytes
               + bank.locations.nbytes + bank.weights.nbytes)
    return once, mac_count(bank), touched


def _conv_setup(conv_cfg, stride, resolution, rng):
    volume = rng.standard_normal((resolution,) * 3)
    weights = rng.standard_normal((conv_cfg.channels_out,)
                                  + (conv_cfg.kernel,) * 3)

    def once():
        conv3d_reference(volume, conv_cfg, weights, stride)

    return once, conv_cfg.macs(), volume.nbytes + weights.nbytes


def run_bench(resolutions, init_cfg=None, conv_cfg=None, stride=2,
              channel_count=4, reps=10, seed=0):
    """Time probing forward+backward and conv forward at each resolution.

    The convolution keeps `stride`, so its position count S grows with
    resolution, reproducing the cubic blow-up. The probing bank is
    re-initialized per resolution but its MAC count never changes. The
    bytes column counts input plus parameter bytes one pass reads.
    """
    resolutions = [int(r) for r in resolutions]
    if not resolutions:
        raise ValueError("need at least one resolution")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    init_cfg = init_cfg or InitConfig()
    conv_cfg = conv_cfg or ConvConfig()
    setups = []
    for resolution in resolutions:
        rng = np.random.default_rng((seed, resolution))
        if resolution < conv_cfg.kernel + stride:
            raise ValueError("resolution %d too small for kernel %d at "
                             "stride %d" % (resolution, conv_cfg.kernel,
                                            stride))
        positions = (resolution - conv_cfg.kernel) // stride + 1
        cfg_r = dataclasses.replace(conv_cfg, positions=positions)
        setups.append((resolution, "probing") + _probing_setup(
            init_cfg, resolution, channel_count, rng))
        setups.append((resolution, "conv")
                      + _conv_setup(cfg_r, stride, resolution, rng))
    # Warm every resolution before any row is timed: the first row timed
    # on a cold heap reads slow, which biases t(high)/t(low) low.
    for _, _, fn, _, _ in setups:
        for _ in range(WARMUPS):
            fn()
    rows = []
    for resolution, kind, fn, macs, touched in setups:
        mean_ms, std_ms, done = _time_callable(fn, reps)
        rows.append(BenchRow(resolution=resolution, kind=kind,
                             mean_ms=mean_ms, std_ms=std_ms, macs=macs,
                             bytes=touched, reps=done))
    return BenchReport(rows=rows, machine=_machine_info())
