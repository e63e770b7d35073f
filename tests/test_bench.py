"""Tests for the probing-vs-convolution cost benchmark."""

import itertools
import types

import numpy as np
import pytest

from fieldprobe import bench
from fieldprobe.bench import (BENCH_HEADER, BenchReport, BenchRow, ConvConfig,
                              conv3d_reference, run_bench)
from fieldprobe.probing import InitConfig


def brute_conv(volume, weights, stride):
    """Six nested loops, scalar accumulation. Slow on purpose."""
    c_out = weights.shape[0]
    k = weights.shape[1]
    r = volume.shape[0]
    s = (r - k) // stride + 1
    out = np.zeros((c_out, s, s, s), dtype=np.float64)
    for c in range(c_out):
        for iz in range(s):
            for iy in range(s):
                for ix in range(s):
                    acc = 0.0
                    for dz in range(k):
                        for dy in range(k):
                            for dx in range(k):
                                acc += (volume[iz * stride + dz,
                                               iy * stride + dy,
                                               ix * stride + dx]
                                        * weights[c, dz, dy, dx])
                    out[c, iz, iy, ix] = acc
    return out


class TestConvConfig:

    def test_defaults(self):
        cfg = ConvConfig()
        assert (cfg.kernel, cfg.channels_out, cfg.positions) == (6, 48, 12)

    @pytest.mark.parametrize("bad", [
        dict(kernel=0), dict(channels_out=0), dict(positions=-1),
    ])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            ConvConfig(**bad)

    def test_mac_count_full_scale_settings(self):
        # 6^3 * 48 * 12^3 = 216 * 48 * 1728
        assert ConvConfig(kernel=6, channels_out=48,
                          positions=12).macs() == 17_915_904

    def test_mac_count_tiny(self):
        assert ConvConfig(kernel=1, channels_out=1, positions=1).macs() == 1
        assert ConvConfig(kernel=2, channels_out=3, positions=4).macs() == \
            8 * 3 * 64


class TestConvReference:

    def test_unit_kernel_subsamples(self):
        # K=1 with an all-ones 1x1x1 kernel just reads the volume at the
        # sliding positions.
        rng = np.random.default_rng(0)
        volume = rng.standard_normal((8, 8, 8))
        cfg = ConvConfig(kernel=1, channels_out=1, positions=4)
        out = conv3d_reference(volume, cfg, np.ones((1, 1, 1, 1)), 2)
        np.testing.assert_array_equal(out[0], volume[::2, ::2, ::2][:4, :4, :4])

    def test_constant_input(self):
        # Constant input c: every output is c times the kernel sum.
        rng = np.random.default_rng(1)
        weights = rng.standard_normal((3, 3, 3, 3))
        volume = np.full((9, 9, 9), 2.5)
        out = conv3d_reference(volume, ConvConfig(3, 3, 4), weights, 2)
        want = 2.5 * weights.reshape(3, -1).sum(axis=1)
        want = np.broadcast_to(want[:, None, None, None], out.shape)
        np.testing.assert_allclose(out, want, rtol=1e-12)

    @pytest.mark.parametrize("resolution,kernel,stride", [
        (8, 3, 2), (8, 2, 2), (7, 3, 4), (6, 2, 1), (5, 5, 1),
    ])
    def test_matches_brute_force_exactly(self, resolution, kernel, stride):
        # Integer-valued inputs keep every partial sum an exact float64
        # integer, so the vectorized path and the scalar loops must agree
        # bit for bit.
        positions = (resolution - kernel) // stride + 1
        rng = np.random.default_rng((resolution, kernel, positions))
        volume = rng.integers(-4, 5, size=(resolution,) * 3).astype(np.float64)
        weights = rng.integers(-3, 4, size=(2,) + (kernel,) * 3).astype(
            np.float64)
        cfg = ConvConfig(kernel=kernel, channels_out=2, positions=positions)
        got = conv3d_reference(volume, cfg, weights, stride)
        want = brute_conv(volume, weights, stride)
        np.testing.assert_array_equal(got, want)

    def test_matches_brute_force_float(self):
        rng = np.random.default_rng(7)
        volume = rng.standard_normal((8, 8, 8))
        weights = rng.standard_normal((2, 3, 3, 3))
        cfg = ConvConfig(kernel=3, channels_out=2, positions=3)
        got = conv3d_reference(volume, cfg, weights, 2)
        want = brute_conv(volume, weights, 2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_output_shape(self):
        out = conv3d_reference(np.zeros((16, 16, 16)), ConvConfig(6, 5, 6),
                               np.zeros((5, 6, 6, 6)), 2)
        assert out.shape == (5, 6, 6, 6)
        assert out.dtype == np.float64

    @pytest.mark.parametrize("resolution,kernel,positions,stride", [
        (16, 6, 6, 2),   # (6-1)*2 + 6 = 16, a tight fit
        (8, 3, 3, 2),
        (64, 6, 12, 5),  # (12-1)*5 + 6 = 61
        (4, 4, 1, 1),    # one position covers the whole volume
    ])
    def test_placement_fits(self, resolution, kernel, positions, stride):
        cfg = ConvConfig(kernel=kernel, channels_out=1, positions=positions)
        out = conv3d_reference(np.zeros((resolution,) * 3), cfg,
                               np.zeros((1,) + (kernel,) * 3), stride)
        assert out.shape == (1, positions, positions, positions)

    @pytest.mark.parametrize("resolution,kernel,positions,stride", [
        (16, 6, 12, 1),  # (12-1)*1 + 6 = 17 > 16
        (16, 6, 6, 3),
        (8, 9, 1, 1),
    ])
    def test_does_not_fit(self, resolution, kernel, positions, stride):
        cfg = ConvConfig(kernel=kernel, channels_out=1, positions=positions)
        with pytest.raises(ValueError, match="do not fit"):
            conv3d_reference(np.zeros((resolution,) * 3), cfg,
                             np.zeros((1,) + (kernel,) * 3), stride)

    def test_rejects_zero_stride(self):
        with pytest.raises(ValueError, match="stride"):
            conv3d_reference(np.zeros((8, 8, 8)), ConvConfig(2, 1, 3),
                             np.zeros((1, 2, 2, 2)), 0)

    def test_rejects_bad_volume(self):
        cfg = ConvConfig(2, 1, 2)
        with pytest.raises(ValueError, match="cubic"):
            conv3d_reference(np.zeros((4, 4)), cfg, np.zeros((1, 2, 2, 2)), 1)
        with pytest.raises(ValueError, match="cubic"):
            conv3d_reference(np.zeros((4, 4, 5)), cfg, np.zeros((1, 2, 2, 2)),
                             1)

    def test_rejects_bad_weights(self):
        cfg = ConvConfig(2, 1, 2)
        with pytest.raises(ValueError, match="weights"):
            conv3d_reference(np.zeros((4, 4, 4)), cfg, np.zeros((1, 3, 3, 3)),
                             1)
        with pytest.raises(ValueError, match="weights"):
            conv3d_reference(np.zeros((4, 4, 4)), cfg, np.zeros((2, 2, 2, 2)),
                             1)


def tiny_bench(**overrides):
    kwargs = dict(
        resolutions=[8, 12],
        init_cfg=InitConfig(grid_divisions=1, filters_per_cell=2,
                            points_per_filter=3, seed=3),
        conv_cfg=ConvConfig(kernel=2, channels_out=2, positions=3),
        channel_count=1,
        reps=10,
    )
    kwargs.update(overrides)
    return run_bench(**kwargs)


@pytest.fixture(scope="module")
def report():
    return tiny_bench()


class TestRunBench:

    def test_rows_cover_grid(self, report):
        kinds = {(row.resolution, row.kind) for row in report.rows}
        assert kinds == {(8, "probing"), (12, "probing"),
                         (8, "conv"), (12, "conv")}

    def test_times_positive(self, report):
        for row in report.rows:
            assert row.mean_ms > 0.0
            assert row.std_ms >= 0.0
            assert row.reps >= 10

    def test_probing_macs_constant(self, report):
        macs = {row.macs for row in report.rows if row.kind == "probing"}
        assert macs == {2 * 3 * 1}

    def test_conv_macs_grow_with_fixed_stride(self, report):
        # S = (R - 2) // 2 + 1: R=8 -> 4, R=12 -> 6
        assert report.row(8, "conv").macs == 8 * 2 * 4 ** 3
        assert report.row(12, "conv").macs == 8 * 2 * 6 ** 3

    def test_bytes_positive_and_resolution_bound(self, report):
        assert report.row(12, "probing").bytes > report.row(8, "probing").bytes
        assert report.row(12, "conv").bytes > report.row(8, "conv").bytes

    def test_time_ratio_helper(self, report):
        assert report.time_ratio("probing", 12, 8) > 0.0
        with pytest.raises(KeyError):
            report.row(9, "probing")

    def test_convolution_keeps_the_requested_stride(self, monkeypatch):
        # (10 - 2) // 3 + 1 = 3 positions, which would also fit at stride 4
        strides = set()
        reference = bench.conv3d_reference

        def spy(volume, cfg, weights, stride):
            strides.add(stride)
            return reference(volume, cfg, weights, stride)

        monkeypatch.setattr(bench, "conv3d_reference", spy)
        report = tiny_bench(resolutions=[10], stride=3)
        assert strides == {3}
        assert report.row(10, "conv").macs == 8 * 2 * 3 ** 3

    def test_fixed_stride_rejects_small_resolution(self):
        with pytest.raises(ValueError, match="too small"):
            tiny_bench(resolutions=[3])

    def test_needs_resolutions(self):
        with pytest.raises(ValueError, match="resolution"):
            tiny_bench(resolutions=[])

    def test_every_resolution_runs_before_timing(self, monkeypatch):
        # the first row timed on a cold heap reads slow, so no sample may
        # be taken before every resolution's kernels have run
        events = []
        ticks = itertools.count()

        def clock():
            events.append("clock")
            return next(ticks) * 1e-3

        def kernel(tag, resolution):
            def once():
                events.append((tag, resolution))
            return once

        monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=clock))
        monkeypatch.setattr(bench, "_probing_setup",
                            lambda init, r, t, rng: (kernel("probing", r), 1, 1))
        monkeypatch.setattr(bench, "_conv_setup",
                            lambda cfg, stride, r, rng: (kernel("conv", r), 1, 1))
        report = tiny_bench(resolutions=[8, 12, 16])
        assert {row.resolution for row in report.rows} == {8, 12, 16}
        first = events.index("clock")
        assert set(events[:first]) == {(kind, r) for kind in ("probing", "conv")
                                       for r in (8, 12, 16)}

    def test_csv_layout(self, report, tmp_path):
        path = report.to_csv(tmp_path / "bench.csv")
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0].startswith("# ")
        assert "numpy" in lines[0]
        assert lines[1] == BENCH_HEADER
        assert lines[1] == "resolution,kind,mean_ms,std_ms,macs,bytes"
        assert len(lines) == 2 + len(report.rows)
        first = lines[2].split(",")
        assert len(first) == 6
        assert int(first[0]) == report.rows[0].resolution
        assert first[1] == report.rows[0].kind
        assert float(first[2]) > 0.0
        assert int(first[4]) == report.rows[0].macs

    def test_report_determinism_of_structure(self):
        # Timing numbers vary run to run; structure and cost columns do not.
        a = tiny_bench()
        b = tiny_bench()
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.resolution, ra.kind, ra.macs, ra.bytes) == \
                (rb.resolution, rb.kind, rb.macs, rb.bytes)
