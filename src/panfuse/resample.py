"""Resampling primitives: anti-aliased downsampling, bicubic upsampling,
reduced-scale degradation, and moment-based histogram matching.

The separable filters are written directly in numpy (symmetric boundary,
gather + slice accumulation) so that the exact adjoint of the
blur-then-decimate operator is available for analytic loss gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ShapeMismatchError, UsageError
from .raster import Raster

_STD_EPS = 1e-12


def _reflect_indices(n: int, pad: int) -> np.ndarray:
    """Symmetric (half-sample) boundary index map for [-pad, n + pad)."""
    idx = np.arange(-pad, n + pad)
    m = np.mod(idx, 2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


def _correlate_axis(arr: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Correlate ``arr`` with a 1-D kernel along ``axis``, symmetric borders."""
    n = arr.shape[axis]
    pad = kernel.size // 2
    padded = np.take(arr, _reflect_indices(n, pad), axis=axis)
    out = np.zeros(arr.shape, dtype=np.float64)
    sl = [slice(None)] * arr.ndim
    for j, kj in enumerate(kernel):
        sl[axis] = slice(j, j + n)
        out += kj * padded[tuple(sl)]
    return out


def _correlate_axis_adjoint(grad: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Exact adjoint of :func:`_correlate_axis` (scatter then boundary fold)."""
    n = grad.shape[axis]
    pad = kernel.size // 2
    shape = list(grad.shape)
    shape[axis] = n + 2 * pad
    scattered = np.zeros(shape, dtype=np.float64)
    sl = [slice(None)] * grad.ndim
    for j, kj in enumerate(kernel):
        sl[axis] = slice(j, j + n)
        scattered[tuple(sl)] += kj * grad
    idx = _reflect_indices(n, pad)
    moved = np.moveaxis(scattered, axis, 0)
    out = np.zeros((n,) + moved.shape[1:], dtype=np.float64)
    np.add.at(out, idx, moved)
    return np.moveaxis(out, 0, axis)


def _gaussian_kernel(radius: int, sigma: float) -> np.ndarray:
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    return k / k.sum()


def downsample_antialias(x: Raster, ratio: int) -> Raster:
    """Gaussian low-pass (sigma = ratio/2, radius 2*ratio) then decimate.

    Dimensions must be divisible by ``ratio``. The kernel is normalized,
    so constants are preserved exactly up to rounding. ``ratio == 1``
    applies the blur without decimation.
    """
    if ratio < 1:
        raise UsageError(f"ratio must be >= 1, got {ratio}")
    if x.height % ratio or x.width % ratio:
        raise ShapeMismatchError(
            f"dims {x.height}x{x.width} not divisible by ratio {ratio}"
        )
    kernel = _gaussian_kernel(2 * ratio, ratio / 2.0)
    arr = _correlate_axis(_correlate_axis(x.data, kernel, 0), kernel, 1)
    if ratio > 1:
        arr = arr[::ratio, ::ratio, :]
    return Raster(arr)


def downsample_antialias_adjoint(grad: Raster, ratio: int, height: int, width: int) -> Raster:
    """Adjoint of :func:`downsample_antialias`: zero-upsample, then apply the
    transposed blur. Needed to backpropagate losses evaluated at reduced scale.
    """
    if ratio < 1:
        raise UsageError(f"ratio must be >= 1, got {ratio}")
    if (grad.height * ratio, grad.width * ratio) != (height, width):
        raise ShapeMismatchError(
            f"adjoint target {height}x{width} is not ratio {ratio} times "
            f"{grad.height}x{grad.width}"
        )
    kernel = _gaussian_kernel(2 * ratio, ratio / 2.0)
    z = np.zeros((height, width, grad.bands), dtype=np.float64)
    z[::ratio, ::ratio, :] = grad.data
    z = _correlate_axis_adjoint(z, kernel, 1)
    z = _correlate_axis_adjoint(z, kernel, 0)
    return Raster(z)


def _catmull_rom_weights(frac: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cubic convolution weights (a = -0.5) for taps at offsets -1, 0, 1, 2."""
    f = frac
    w_m1 = -0.5 * (1 + f) ** 3 + 2.5 * (1 + f) ** 2 - 4 * (1 + f) + 2
    w_0 = 1.5 * f**3 - 2.5 * f**2 + 1
    w_1 = 1.5 * (1 - f) ** 3 - 2.5 * (1 - f) ** 2 + 1
    w_2 = -0.5 * (2 - f) ** 3 + 2.5 * (2 - f) ** 2 - 4 * (2 - f) + 2
    return w_m1, w_0, w_1, w_2


def _cubic_axis(arr: np.ndarray, ratio: int, axis: int) -> np.ndarray:
    n = arr.shape[axis]
    pos = (np.arange(n * ratio) + 0.5) / ratio - 0.5
    base = np.floor(pos).astype(np.int64)
    weights = _catmull_rom_weights(pos - base)
    shape = [1] * arr.ndim
    shape[axis] = n * ratio
    out_shape = list(arr.shape)
    out_shape[axis] = n * ratio
    out = np.zeros(out_shape, dtype=np.float64)
    for offset, w in zip((-1, 0, 1, 2), weights):
        idx = base + offset
        m = np.mod(idx, 2 * n)
        idx = np.where(m < n, m, 2 * n - 1 - m)
        out += w.reshape(shape) * np.take(arr, idx, axis=axis)
    return out


def upsample(x: Raster, ratio: int) -> Raster:
    """Bicubic (Catmull-Rom) upsampling by an integer factor.

    Symmetric borders, output clipped to [0, 1]. ``ratio == 1`` is the
    identity.
    """
    if ratio < 1:
        raise UsageError(f"ratio must be >= 1, got {ratio}")
    if ratio == 1:
        return x
    arr = _cubic_axis(_cubic_axis(x.data, ratio, 0), ratio, 1)
    return Raster(np.clip(arr, 0.0, 1.0))


def wald_degrade(hrms: Raster, pan: Raster, ratio: int) -> tuple[Raster, Raster, Raster]:
    """Reduced-scale evaluation setup: degrade both inputs by ``ratio``.

    Returns (lrms, lrpan, reference) where reference is the untouched
    ``hrms``, so a fusion of (lrms, lrpan) is directly comparable to it.
    """
    if ratio < 2:
        raise UsageError(f"degradation ratio must be >= 2, got {ratio}")
    if pan.bands != 1:
        raise ShapeMismatchError("pan must be single band")
    if (pan.height, pan.width) != (hrms.height, hrms.width):
        raise ShapeMismatchError(
            f"pan dims {pan.height}x{pan.width} != hrms dims {hrms.height}x{hrms.width}"
        )
    lrms = downsample_antialias(hrms, ratio)
    lrpan = downsample_antialias(pan, ratio)
    return lrms, lrpan, hrms


def histogram_match(src: Raster, target: Raster) -> Raster:
    """Affine rescale of ``src`` to the mean and standard deviation of ``target``.

    The moment form of histogram matching: fast, differentiable, and the
    convention used throughout component-substitution fusion. A constant
    source has no spread to rescale and is rejected; a constant target
    simply maps everything onto its mean.
    """
    if src.bands != 1 or target.bands != 1:
        raise ShapeMismatchError("histogram_match expects single-band rasters")
    s = src.data
    mu_s, sd_s = s.mean(), s.std()
    mu_t, sd_t = target.data.mean(), target.data.std()
    if sd_s < _STD_EPS:
        raise DegenerateInputError("histogram_match: source has zero variance")
    return Raster((s - mu_s) * (sd_t / sd_s) + mu_t)
