"""The polyphase resampling and row-strip metrics against their earlier bodies.

Each ``old_*`` function below is the code path as it was written before
downsampling evaluated the blur only at kept pixels, its adjoint stopped
zero-upsampling, and SSIM and SAM ran in row strips. They are test-only
oracles: the resampling must match them bit for bit, and SSIM and SAM within
1e-14 (only the order of the final sums changed).
"""

import numpy as np
import pytest

from panfuse import (
    Raster,
    downsample_antialias,
    downsample_antialias_adjoint,
    metric_sam,
    metric_ssim,
)
from panfuse.errors import ShapeMismatchError
from panfuse.resample import _gaussian_kernel, _reflect


def old_correlate_axis(arr, kernel, axis):
    n = arr.shape[axis]
    pad = kernel.size // 2
    padded = np.take(arr, _reflect(np.arange(-pad, n + pad), n), axis=axis)
    out = np.zeros(arr.shape, dtype=np.float64)
    sl = [slice(None)] * arr.ndim
    for j, kj in enumerate(kernel):
        sl[axis] = slice(j, j + n)
        out += kj * padded[tuple(sl)]
    return out


def old_correlate_axis_adjoint(grad, kernel, axis):
    n = grad.shape[axis]
    pad = kernel.size // 2
    shape = list(grad.shape)
    shape[axis] = n + 2 * pad
    scattered = np.zeros(shape, dtype=np.float64)
    sl = [slice(None)] * grad.ndim
    for j, kj in enumerate(kernel):
        sl[axis] = slice(j, j + n)
        scattered[tuple(sl)] += kj * grad
    idx = _reflect(np.arange(-pad, n + pad), n)
    moved = np.moveaxis(scattered, axis, 0)
    out = np.zeros((n,) + moved.shape[1:], dtype=np.float64)
    np.add.at(out, idx, moved)
    return np.moveaxis(out, 0, axis)


def old_downsample(data, ratio):
    kernel = _gaussian_kernel(2 * ratio, ratio / 2.0)
    arr = old_correlate_axis(old_correlate_axis(data, kernel, 0), kernel, 1)
    if ratio > 1:
        arr = arr[::ratio, ::ratio, :]
    return arr


def old_downsample_adjoint(grad, ratio, height, width):
    kernel = _gaussian_kernel(2 * ratio, ratio / 2.0)
    z = np.zeros((height, width, grad.shape[2]), dtype=np.float64)
    z[::ratio, ::ratio, :] = grad
    z = old_correlate_axis_adjoint(z, kernel, 1)
    return old_correlate_axis_adjoint(z, kernel, 0)


def old_ssim(f, g):
    c1, c2 = 0.01**2, 0.03**2
    t = np.arange(-5, 6, dtype=np.float64)
    kernel = np.exp(-0.5 * (t / 1.5) ** 2)
    kernel /= kernel.sum()

    def window_mean(x):
        k = kernel.size
        rows = x.shape[0] - k + 1
        out = np.zeros((rows, x.shape[1]), dtype=np.float64)
        for j, kj in enumerate(kernel):
            out += kj * x[j : j + rows, :]
        cols = x.shape[1] - k + 1
        final = np.zeros((rows, cols), dtype=np.float64)
        for j, kj in enumerate(kernel):
            final += kj * out[:, j : j + cols]
        return final

    band_means = []
    for b in range(f.shape[2]):
        x, y = f[:, :, b], g[:, :, b]
        mu_x, mu_y = window_mean(x), window_mean(y)
        var_x = window_mean(x * x) - mu_x * mu_x
        var_y = window_mean(y * y) - mu_y * mu_y
        cov_xy = window_mean(x * y) - mu_x * mu_y
        ssim_map = ((2 * mu_x * mu_y + c1) * (2 * cov_xy + c2)) / (
            (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        )
        band_means.append(ssim_map.mean())
    return float(np.mean(band_means))


def old_sam(f, g):
    eps = 1e-12
    nf = np.sqrt(np.sum(f * f, axis=2))
    ng = np.sqrt(np.sum(g * g, axis=2))
    mask = (nf >= eps) & (ng >= eps)
    u = np.divide(f, nf[:, :, None], out=np.zeros_like(f), where=mask[:, :, None])
    v = np.divide(g, ng[:, :, None], out=np.zeros_like(g), where=mask[:, :, None])
    diff = np.sqrt(np.sum((u - v) ** 2, axis=2))
    summ = np.sqrt(np.sum((u + v) ** 2, axis=2))
    angles = 2.0 * np.arctan2(diff, summ)
    angles[~mask] = 0.0
    return float(angles.mean())


# (height, width, ratio); several have a side shorter than the 2*ratio
# kernel radius, so a border folds back onto the image more than once.
RESAMPLE_SHAPES = [
    (1, 1, 1), (1, 3, 1), (5, 7, 1),
    (2, 2, 2), (4, 6, 2), (12, 8, 2),
    (6, 9, 3), (3, 3, 3), (96, 33, 3),
    (4, 4, 4), (8, 12, 4), (64, 40, 4),
]


@pytest.mark.parametrize("height, width, ratio", RESAMPLE_SHAPES)
@pytest.mark.parametrize("bands", [1, 3])
def test_downsample_matches_old_body(height, width, ratio, bands):
    rng = np.random.default_rng(height * 1000 + width * 10 + ratio + bands)
    x = rng.random((height, width, bands))
    got = downsample_antialias(Raster(x), ratio).data
    assert np.array_equal(got, old_downsample(x, ratio))


@pytest.mark.parametrize("height, width, ratio", RESAMPLE_SHAPES)
@pytest.mark.parametrize("bands", [1, 3])
def test_downsample_adjoint_matches_old_body(height, width, ratio, bands):
    rng = np.random.default_rng(height * 1000 + width * 10 + ratio + bands + 7)
    y = rng.standard_normal((height // ratio, width // ratio, bands))
    got = downsample_antialias_adjoint(Raster(y), ratio, height, width).data
    assert np.array_equal(got, old_downsample_adjoint(y, ratio, height, width))


def metric_pair(height, width, bands, seed):
    """A fused/reference pair in [0, 1] with zero-norm pixels in each image,
    one of them shared, so the SAM mask has every combination."""
    rng = np.random.default_rng(seed)
    f = rng.random((height, width, bands))
    g = np.clip(f + 0.2 * rng.standard_normal(f.shape), 0.0, 1.0)
    f[0, 0] = g[0, 0] = 0.0
    f[height - 1, width // 2] = 0.0
    g[height // 2, width - 1] = 0.0
    return f, g


# Heights and widths that are not multiples of any strip height.
METRIC_SHAPES = [(11, 11), (11, 40), (75, 23), (150, 13)]


@pytest.mark.parametrize("height, width", METRIC_SHAPES)
@pytest.mark.parametrize("bands", [1, 3, 4, 5])
def test_ssim_matches_old_body(height, width, bands):
    f, g = metric_pair(height, width, bands, seed=height + width + bands)
    assert abs(metric_ssim(Raster(f), Raster(g)) - old_ssim(f, g)) <= 1e-14
    assert abs(metric_ssim(Raster(f), Raster(f)) - old_ssim(f, f)) <= 1e-14


@pytest.mark.parametrize("height, width", METRIC_SHAPES)
@pytest.mark.parametrize("bands", [1, 3, 4, 5])
def test_sam_matches_old_body(height, width, bands):
    f, g = metric_pair(height, width, bands, seed=height * width + bands)
    if bands == 1:
        with pytest.raises(ShapeMismatchError):
            metric_sam(Raster(f), Raster(g))
        return
    assert abs(metric_sam(Raster(f), Raster(g)) - old_sam(f, g)) <= 1e-14
