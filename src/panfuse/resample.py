"""Resampling primitives: anti-aliased downsampling, bicubic upsampling,
reduced-scale degradation, and moment-based histogram matching.

The separable filters are written directly in numpy (symmetric boundary,
gather + slice accumulation) so that the exact adjoint of the
blur-then-decimate operator is available for analytic loss gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ShapeMismatchError, UsageError
from .raster import Raster, _check_scale_pair

_STD_EPS = 1e-12


def _reflect(idx: np.ndarray, n: int) -> np.ndarray:
    """Fold indices into [0, n) with the symmetric (half-sample) boundary."""
    m = np.mod(idx, 2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


def _correlate_axis(
    arr: np.ndarray, kernel: np.ndarray, axis: int, step: int = 1
) -> np.ndarray:
    """Correlate ``arr`` with a 1-D kernel along ``axis``, symmetric borders,
    evaluated only at every ``step``-th position (0, step, 2*step, ...).

    Each kept output sums the same taps in the same order as the full
    correlation, so decimating afterwards gives bit-identical values.
    """
    n = arr.shape[axis]
    pad = kernel.size // 2
    padded = np.take(arr, _reflect(np.arange(-pad, n + pad), n), axis=axis)
    shape = list(arr.shape)
    shape[axis] = len(range(0, n, step))
    out = np.zeros(shape, dtype=np.float64)
    sl = [slice(None)] * arr.ndim
    for j, kj in enumerate(kernel):
        sl[axis] = slice(j, j + n, step)
        out += kj * padded[tuple(sl)]
    return out


def _correlate_axis_adjoint(
    grad: np.ndarray, kernel: np.ndarray, axis: int, step: int = 1
) -> np.ndarray:
    """Exact transpose of :func:`_correlate_axis` with the same ``step``; the
    result is ``step`` times longer than ``grad`` along ``axis``.

    ``grad`` is scattered straight into the padded axis, then the 2*pad
    border rows are folded back through the symmetric boundary. Every input
    row receives its contributions in increasing padded-row order, so the
    sums match a scatter-then-fold over the full grid bit for bit, also when
    a border folds more than once (n < pad).
    """
    n = grad.shape[axis] * step
    pad = kernel.size // 2
    shape = list(grad.shape)
    shape[axis] = n + 2 * pad
    # Axis-first views of arrays kept in the caller's layout, which the next
    # pass reads in row order.
    g = np.moveaxis(grad, axis, 0)
    scattered = np.moveaxis(np.zeros(shape, dtype=np.float64), axis, 0)
    for j, kj in enumerate(kernel):
        scattered[j : j + n : step] += kj * g
    src = _reflect(np.arange(-pad, n + pad), n)
    # The left border precedes the interior in padded-row order; sum it apart
    # first. Addition commutes, so adding it to the interior is then exact.
    left = np.zeros((min(n, pad),) + g.shape[1:], dtype=np.float64)
    for p in range(pad):
        left[src[p]] += scattered[p]
    out = scattered[pad : pad + n]
    out[: left.shape[0]] += left
    for p in range(pad + n, n + 2 * pad):
        out[src[p]] += scattered[p]
    return np.moveaxis(out, 0, axis)


def _gaussian_kernel(radius: int, sigma: float) -> np.ndarray:
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    return k / k.sum()


def _downsample(arr: np.ndarray, ratio: int) -> np.ndarray:
    """:func:`downsample_antialias` of an H x W (x B) array, as a fresh array."""
    kernel = _gaussian_kernel(2 * ratio, ratio / 2.0)
    return _correlate_axis(_correlate_axis(arr, kernel, 0, ratio), kernel, 1, ratio)


def _downsample_adjoint(grad: np.ndarray, ratio: int) -> np.ndarray:
    """:func:`downsample_antialias_adjoint` of an array, as a fresh array."""
    kernel = _gaussian_kernel(2 * ratio, ratio / 2.0)
    z = _correlate_axis_adjoint(grad, kernel, 1, ratio)
    return _correlate_axis_adjoint(z, kernel, 0, ratio)


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
    return Raster._adopt(_downsample(x.data, ratio))


def downsample_antialias_adjoint(grad: Raster, ratio: int, height: int, width: int) -> Raster:
    """Adjoint of :func:`downsample_antialias`: the transposed decimating
    blur, axis 1 then axis 0. Needed to backpropagate losses evaluated at
    reduced scale.
    """
    if ratio < 1:
        raise UsageError(f"ratio must be >= 1, got {ratio}")
    if (grad.height * ratio, grad.width * ratio) != (height, width):
        raise ShapeMismatchError(
            f"adjoint target {height}x{width} is not ratio {ratio} times "
            f"{grad.height}x{grad.width}"
        )
    return Raster._adopt(_downsample_adjoint(grad.data, ratio))


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
        out += w.reshape(shape) * np.take(arr, _reflect(base + offset, n), axis=axis)
    return out


def _upsample(arr: np.ndarray, ratio: int) -> np.ndarray:
    """:func:`upsample` of an H x W (x B) array into a fresh array the caller
    owns; at ``ratio == 1`` an unclipped copy."""
    if ratio == 1:
        return arr.copy()
    out = _cubic_axis(_cubic_axis(arr, ratio, 0), ratio, 1)
    return np.clip(out, 0.0, 1.0, out=out)


def upsample(x: Raster, ratio: int) -> Raster:
    """Bicubic (Catmull-Rom) upsampling by an integer factor.

    Symmetric borders, output clipped to [0, 1]. ``ratio == 1`` is the
    identity.
    """
    if ratio < 1:
        raise UsageError(f"ratio must be >= 1, got {ratio}")
    if ratio == 1:
        return x
    return Raster._adopt(_upsample(x.data, ratio))


def wald_degrade(hrms: Raster, pan: Raster, ratio: int) -> tuple[Raster, Raster, Raster]:
    """Reduced-scale evaluation setup: degrade both inputs by ``ratio``.

    Returns (lrms, lrpan, reference) where reference is the untouched
    ``hrms``, so a fusion of (lrms, lrpan) is directly comparable to it.
    """
    if ratio < 2:
        raise UsageError(f"degradation ratio must be >= 2, got {ratio}")
    _check_scale_pair(hrms, pan, 1)
    lrms = downsample_antialias(hrms, ratio)
    lrpan = downsample_antialias(pan, ratio)
    return lrms, lrpan, hrms


def _match_moments(src: np.ndarray, target: np.ndarray) -> np.ndarray:
    """:func:`histogram_match` of two arrays, as a fresh array."""
    mu_s, sd_s = src.mean(), src.std()
    mu_t, sd_t = target.mean(), target.std()
    if sd_s < _STD_EPS:
        raise DegenerateInputError("histogram_match: source has zero variance")
    return (src - mu_s) * (sd_t / sd_s) + mu_t


def histogram_match(src: Raster, target: Raster) -> Raster:
    """Affine rescale of ``src`` to the mean and standard deviation of ``target``.

    The moment form of histogram matching: fast, differentiable, and the
    convention used throughout component-substitution fusion. A constant
    source has no spread to rescale and is rejected; a constant target
    simply maps everything onto its mean.
    """
    if src.bands != 1 or target.bands != 1:
        raise ShapeMismatchError("histogram_match expects single-band rasters")
    return Raster._adopt(_match_moments(src.data, target.data))

