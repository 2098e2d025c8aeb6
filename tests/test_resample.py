"""Anti-aliased downsampling, bicubic upsampling, degradation, matching."""

import tracemalloc

import numpy as np
import pytest

from panfuse import (
    Raster,
    downsample_antialias,
    downsample_antialias_adjoint,
    histogram_match,
    upsample,
    wald_degrade,
)
from panfuse.errors import DegenerateInputError, ShapeMismatchError, UsageError
from helpers import (
    PAN_FAULTS,
    brute_force_blur,
    brute_force_downsample,
    gaussian_taps,
    random_raster,
    scale_pair,
)


class TestDownsample:
    def test_constant_preserved(self):
        for ratio in (1, 2, 4):
            c = Raster(np.full((16, 16, 3), 0.37))
            out = downsample_antialias(c, ratio)
            assert np.abs(out.data - 0.37).max() < 1e-9

    def test_output_dims(self):
        out = downsample_antialias(random_raster(0, 64, 32, 2), 4)
        assert out.data.shape == (16, 8, 2)

    def test_ratio_one_is_blur_only(self):
        arr = random_raster(1, 10, 10, 1).data
        out = downsample_antialias(Raster(arr), 1)
        want = brute_force_blur(arr, gaussian_taps(2, 0.5))
        assert out.data.shape == arr.shape
        assert np.abs(out.data - want).max() < 1e-12

    def test_impulse_matches_brute_force(self):
        arr = np.zeros((8, 8, 1))
        arr[3, 4, 0] = 1.0
        got = downsample_antialias(Raster(arr), 4).data
        want = brute_force_downsample(arr, 4)
        assert got.shape == (2, 2, 1)
        assert np.abs(got - want).max() < 1e-12

    def test_random_matches_brute_force(self):
        arr = random_raster(2, 12, 12, 2).data
        got = downsample_antialias(Raster(arr), 2).data
        want = brute_force_downsample(arr, 2)
        assert np.abs(got - want).max() < 1e-12

    def test_non_divisible_dims_rejected(self):
        with pytest.raises(ShapeMismatchError):
            downsample_antialias(random_raster(0, 10, 10, 1), 4)

    def test_bad_ratio_rejected(self):
        with pytest.raises(UsageError):
            downsample_antialias(random_raster(0, 8, 8, 1), 0)


class TestDownsampleAdjoint:
    # (4, 4) at 4 and (2, 2) at 2 are shorter than the kernel radius 2*ratio,
    # so a border folds back onto the image more than once; (6, 9) at 3 has a
    # side equal to it.
    @pytest.mark.parametrize(
        "dims,ratio",
        [((16, 16), 4), ((8, 8), 4), ((12, 8), 2), ((4, 4), 4), ((6, 9), 3), ((2, 2), 2)],
    )
    def test_dot_product_identity(self, dims, ratio):
        # <D x, y> == <x, D^T y> characterizes the exact adjoint
        h, w = dims
        x = random_raster(3, h, w, 3)
        y = random_raster(4, h // ratio, w // ratio, 3)
        lhs = float(np.sum(downsample_antialias(x, ratio).data * y.data))
        rhs = float(np.sum(x.data * downsample_antialias_adjoint(y, ratio).data))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestUpsample:
    def test_constant_preserved(self):
        c = Raster(np.full((8, 8, 2), 0.61))
        out = upsample(c, 4)
        assert out.data.shape == (32, 32, 2)
        assert np.abs(out.data - 0.61).max() < 1e-12

    def test_ratio_one_identity(self):
        r = random_raster(5, 9, 9, 3)
        assert np.array_equal(upsample(r, 1).data, r.data)

    def test_linear_ramp_reproduced_interior(self):
        n, ratio = 16, 4
        x = np.linspace(0.1, 0.9, n)
        arr = np.tile(x[None, :, None], (n, 1, 1))
        out = upsample(Raster(arr), ratio).data[:, :, 0]
        xf = (np.arange(n * ratio) + 0.5) / ratio - 0.5
        want = np.interp(xf, np.arange(n), x)
        margin = 3 * ratio
        err = np.abs(out - want[None, :])[margin:-margin, margin:-margin]
        assert err.max() < 1e-6

    def test_output_clipped(self):
        arr = np.zeros((8, 8, 1))
        arr[4, 4, 0] = 1.0  # cubic overshoot would exceed 1 without clipping
        out = upsample(Raster(arr), 2).data
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bad_ratio_rejected(self):
        with pytest.raises(UsageError):
            upsample(random_raster(0, 8, 8, 1), 0)


class TestWaldDegrade:
    def test_factor_four_dims(self):
        hrms = random_raster(6, 256, 256, 4)
        pan = random_raster(7, 256, 256, 1)
        lrms, lrpan, reference = wald_degrade(hrms, pan, 4)
        assert lrms.data.shape == (64, 64, 4)
        assert lrpan.data.shape == (64, 64, 1)
        assert reference is hrms

    def test_constant_inputs(self):
        hrms = Raster(np.full((16, 16, 2), 0.4))
        pan = Raster(np.full((16, 16, 1), 0.7))
        lrms, lrpan, _ = wald_degrade(hrms, pan, 2)
        assert np.abs(lrms.data - 0.4).max() < 1e-9
        assert np.abs(lrpan.data - 0.7).max() < 1e-9

    def test_composition_matches_direct_calls(self):
        hrms = random_raster(8, 32, 32, 3)
        pan = random_raster(9, 32, 32, 1)
        lrms, lrpan, _ = wald_degrade(hrms, pan, 4)
        assert np.array_equal(lrms.data, downsample_antialias(hrms, 4).data)
        assert np.array_equal(lrpan.data, downsample_antialias(pan, 4).data)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            wald_degrade(random_raster(0, 32, 32, 2), random_raster(1, 16, 16, 1), 4)

    @pytest.mark.parametrize("fault", PAN_FAULTS)
    def test_scale_pair_faults(self, fault):
        _, pan, hrms = scale_pair(fault)
        with pytest.raises(ShapeMismatchError):
            wald_degrade(hrms, pan, 4)

    def test_ratio_below_two_rejected(self):
        with pytest.raises(UsageError):
            wald_degrade(random_raster(0, 16, 16, 2), random_raster(1, 16, 16, 1), 1)


class TestHistogramMatch:
    def test_output_moments_match_target(self):
        rng = np.random.default_rng(10)
        src = Raster((0.5 + 0.1 * rng.standard_normal((64, 64)))[:, :, None])
        target = Raster((0.2 + 0.05 * rng.standard_normal((64, 64)))[:, :, None])
        out = histogram_match(src, target)
        assert abs(out.data.mean() - target.data.mean()) < 1e-9
        assert abs(out.data.std() - target.data.std()) < 1e-9

    def test_already_matching_unchanged(self):
        src = random_raster(11, 16, 16, 1)
        out = histogram_match(src, src)
        assert np.abs(out.data - src.data).max() < 1e-12

    def test_idempotent(self):
        src = random_raster(12, 16, 16, 1)
        target = random_raster(13, 16, 16, 1)
        once = histogram_match(src, target)
        twice = histogram_match(once, target)
        assert np.abs(twice.data - once.data).max() < 1e-12

    def test_constant_source_rejected(self):
        const = Raster(np.full((8, 8, 1), 0.5))
        with pytest.raises(DegenerateInputError):
            histogram_match(const, random_raster(14, 8, 8, 1))

    def test_constant_target_maps_to_its_mean(self):
        src = random_raster(15, 8, 8, 1)
        const = Raster(np.full((8, 8, 1), 0.3))
        out = histogram_match(src, const)
        assert np.abs(out.data - 0.3).max() < 1e-12

    def test_multiband_rejected(self):
        with pytest.raises(ShapeMismatchError):
            histogram_match(random_raster(0, 8, 8, 2), random_raster(1, 8, 8, 1))

    @pytest.mark.parametrize("shape", [(64, 64), (256, 300), (1024, 97)])
    def test_same_bits_as_the_whole_plane_formula(self, shape):
        """Leaf-wise moments and an in-place map give the bits of numpy's
        ``mean`` and ``std`` and the plain expression, over several leaves."""
        rng = np.random.default_rng(shape[1])
        src, target = (Raster(rng.random(shape)) for _ in range(2))
        s, t = src.data, target.data
        want = (s - s.mean()) * (t.std() / s.std()) + t.mean()
        assert histogram_match(src, target).data.tobytes() == want.tobytes()

    def test_holds_its_output_and_under_a_mebibyte(self):
        """No deviation plane and no second output-sized temporary: a 1024 x
        1024 match peaks below its output plus 1 MiB."""
        rng = np.random.default_rng(31)
        src, target = (Raster(rng.random((1024, 1024))) for _ in range(2))
        tracemalloc.start()
        try:
            out = histogram_match(src, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.data.nbytes + 2**20
