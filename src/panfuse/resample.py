"""Resampling primitives: anti-aliased downsampling, bicubic upsampling,
reduced-scale degradation, and moment-based histogram matching.

The separable filters are written directly in numpy (symmetric boundary,
gather + slice accumulation) so that the exact adjoint of the
blur-then-decimate operator is available for analytic loss gradients. On a
training patch (:func:`_on_patch`) the losses' blur and its adjoint are two
dense products instead, within 8 eps of the taps' sums of magnitudes.
"""

from __future__ import annotations

import functools

import numpy as np

from ._strips import _STRIP_ELEMENTS, _row_strips
from .errors import DegenerateInputError, ShapeMismatchError
from .raster import _EPS, Raster, _check_bands, _check_scale_pair, _clip_unit, _frozen, _moments
from .raster import _positive_int


def _reflect(idx: np.ndarray, n: int) -> np.ndarray:
    """Fold indices into [0, n) with the symmetric (half-sample) boundary."""
    m = np.mod(idx, 2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


def _correlate_span(
    arr: np.ndarray, kernel: np.ndarray, axis: int, step: int, span: slice
) -> np.ndarray:
    """The outputs ``span`` of ``arr`` correlated with a 1-D kernel along ``axis``
    (symmetric borders) at every ``step``-th position. Only the reflected inputs
    they read are gathered, and each output sums the same taps in the same order
    into zeros as the whole axis would, so the bits are those of the whole axis."""
    pad, m = kernel.size // 2, span.stop - span.start
    idx = np.arange(span.start * step - pad, (span.stop - 1) * step + pad + 1)
    padded = np.take(arr, _reflect(idx, arr.shape[axis]), axis=axis)
    out = np.zeros(arr.shape[:axis] + (m,) + arr.shape[axis + 1 :], dtype=np.float64)
    for j, kj in enumerate(kernel):
        out += kj * padded[(slice(None),) * axis + (slice(j, j + (m - 1) * step + 1, step),)]
    return out


def _separable(arr: np.ndarray, kernel: np.ndarray, step: int) -> np.ndarray:
    """:func:`_correlate_span` along axis 0, then axis 1, of an H x W (x B)
    array, with the same bits, one :func:`_row_strips` strip of output rows
    at a time: a strip gathers only the input rows it reads, so memory is the
    output plus a few strips."""
    height = len(range(0, arr.shape[0], step))
    out = np.empty((height, len(range(0, arr.shape[1], step))) + arr.shape[2:], dtype=np.float64)
    for rows in _row_strips(height, arr.shape[1], arr[0, 0].size):
        strip = _correlate_span(arr, kernel, 0, step, rows)
        out[rows] = _correlate_span(strip, kernel, 1, step, slice(0, out.shape[1]))
    return out


def _correlate_rows_adjoint(grad: np.ndarray, kernel: np.ndarray, step: int) -> np.ndarray:
    """Exact transpose of :func:`_correlate_span` along axis 0 with the same
    ``step``; the result has ``step`` times as many rows as ``grad``.

    ``grad`` is scattered straight into the padded rows, then the 2*pad
    border rows are folded back through the symmetric boundary. Every input
    row receives its contributions in increasing padded-row order, so the
    sums match a scatter-then-fold over the full grid bit for bit, also when
    a border folds more than once (n < pad).
    """
    n = grad.shape[0] * step
    pad = kernel.size // 2
    scattered = np.zeros((n + 2 * pad,) + grad.shape[1:], dtype=np.float64)
    for j, kj in enumerate(kernel):
        scattered[j : j + n : step] += kj * grad
    src = _reflect(np.arange(-pad, n + pad), n)
    # The left border precedes the interior in padded-row order; sum it apart
    # first. Addition commutes, so adding it to the interior is then exact.
    left = np.zeros((min(n, pad),) + grad.shape[1:], dtype=np.float64)
    for p in range(pad):
        left[src[p]] += scattered[p]
    out = scattered[pad : pad + n]
    out[: left.shape[0]] += left
    for p in range(pad + n, n + 2 * pad):
        out[src[p]] += scattered[p]
    return out


@functools.lru_cache(maxsize=32)
def _gaussian_kernel(radius: int, sigma: float) -> np.ndarray:
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (t / sigma) ** 2)
    k /= k.sum()
    return _frozen(k)  # cached: every caller shares this array


def _downsample(arr: np.ndarray, ratio: int) -> np.ndarray:
    """:func:`downsample_antialias` of an H x W (x B) array, as a fresh array:
    the decimating blur of :func:`_separable`, one row strip at a time."""
    return _separable(arr, _gaussian_kernel(2 * ratio, ratio / 2.0), ratio)


def _on_patch(height: int, width: int, bands: int) -> bool:
    """Whether an H x W x B image is a training patch: max(H, W)² · B fits one
    strip, so neither of its blur matrices is larger than a strip."""
    return max(height, width) ** 2 * bands <= _STRIP_ELEMENTS


@functools.lru_cache(maxsize=32)
def _blur_matrix(n: int, ratio: int) -> np.ndarray:
    """The read-only (n / ratio) x n decimating blur of the tap loop's weights, borders folded."""
    kernel = _gaussian_kernel(2 * ratio, ratio / 2.0)
    return _frozen(_correlate_span(np.eye(n), kernel, 0, ratio, slice(0, n // ratio)))


def _loss_downsample(arr: np.ndarray, ratio: int) -> np.ndarray:
    """The losses' downsample of an H x W x B array, as a fresh array: on a
    training patch ``D_h · X · D_wᵀ`` per band, within ``8 * eps`` of the tap
    loop applied to ``|arr|`` (plus 2**-1070), else :func:`_downsample`, whose
    tap loops keep a constant exactly constant."""
    height, width, bands = arr.shape
    if not _on_patch(height, width, bands):
        return _downsample(arr, ratio)
    left, right = _blur_matrix(height, ratio), _blur_matrix(width, ratio)
    return right @ (left @ arr.reshape(height, -1)).reshape(left.shape[0], width, bands)


def _downsample_adjoint(grad: np.ndarray, ratio: int) -> np.ndarray:
    """:func:`downsample_antialias_adjoint` of an h x w x B array, as a fresh
    array: on a training patch ``D_hᵀ · G · D_w``, the transpose of
    :func:`_loss_downsample`. Elsewhere each pass runs down the rows of a
    C-ordered, axis-first copy, so its adds stream whole rows; along axis 1
    of an H x W x B cube they would stride over runs of B values."""
    height, width, bands = grad.shape[0] * ratio, grad.shape[1] * ratio, grad.shape[2]
    if _on_patch(height, width, bands):
        left, right = _blur_matrix(height, ratio), _blur_matrix(width, ratio)
        return (left.T @ (right.T @ grad).reshape(grad.shape[0], -1)).reshape(height, width, bands)
    kernel = _gaussian_kernel(2 * ratio, ratio / 2.0)
    z = _correlate_rows_adjoint(np.ascontiguousarray(np.swapaxes(grad, 0, 1)), kernel, ratio)
    return _correlate_rows_adjoint(np.ascontiguousarray(np.swapaxes(z, 0, 1)), kernel, ratio)


def downsample_antialias(x: Raster, ratio: int) -> Raster:
    """Gaussian low-pass (sigma = ratio/2, radius 2*ratio) then decimate.

    Dimensions must be divisible by ``ratio``. The kernel is normalized,
    so constants are preserved exactly up to rounding. ``ratio == 1``
    applies the blur without decimation.
    """
    ratio = _positive_int("ratio", ratio)
    if x.height % ratio or x.width % ratio:
        raise ShapeMismatchError(
            f"dims {x.height}x{x.width} not divisible by ratio {ratio}"
        )
    return Raster._adopt(_downsample(x.data, ratio))


def downsample_antialias_adjoint(grad: Raster, ratio: int) -> Raster:
    """Adjoint of :func:`downsample_antialias`, an h x w x B ``grad`` to an
    (h * ratio) x (w * ratio) x B raster: the transposed decimating blur, axis 1
    then axis 0, to backpropagate losses evaluated at reduced scale. On a training
    patch (:func:`_on_patch`) it is two dense products within 8 eps of the taps'
    sums of magnitudes."""
    return Raster._adopt(_downsample_adjoint(grad.data, _positive_int("ratio", ratio)))


def _catmull_rom_weights(frac: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cubic convolution weights (a = -0.5) for taps at offsets -1, 0, 1, 2."""
    f = frac
    w_m1 = -0.5 * (1 + f) ** 3 + 2.5 * (1 + f) ** 2 - 4 * (1 + f) + 2
    w_0 = 1.5 * f**3 - 2.5 * f**2 + 1
    w_1 = 1.5 * (1 - f) ** 3 - 2.5 * (1 - f) ** 2 + 1
    w_2 = -0.5 * (2 - f) ** 3 + 2.5 * (2 - f) ** 2 - 4 * (2 - f) + 2
    return w_m1, w_0, w_1, w_2


def _cubic_taps(n: int, ratio: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(source index, weight) of each tap at offsets -1, 0, 1, 2 for the
    ``n * ratio`` outputs of a bicubic axis of length ``n``."""
    pos = (np.arange(n * ratio) + 0.5) / ratio - 0.5
    base = np.floor(pos).astype(np.int64)
    weights = _catmull_rom_weights(pos - base)
    return [(_reflect(base + offset, n), w) for offset, w in zip((-1, 0, 1, 2), weights)]


def _upsample(arr: np.ndarray, ratio: int) -> np.ndarray:
    """:func:`upsample` of an H x W (x B) array into a fresh array the caller
    owns; at ``ratio == 1`` an unclipped copy.

    Both bicubic passes run per :func:`_row_strips` strip of output rows,
    straight into the preallocated output.
    """
    if ratio == 1:
        return arr.copy()
    height, width = arr.shape[0] * ratio, arr.shape[1] * ratio
    row_taps, col_taps = _cubic_taps(arr.shape[0], ratio), _cubic_taps(arr.shape[1], ratio)
    trailing = (1,) * (arr.ndim - 2)
    out = np.empty((height, width) + arr.shape[2:], dtype=np.float64)
    for rows in _row_strips(height, width, arr[0, 0].size):
        strip = np.zeros((rows.stop - rows.start,) + arr.shape[1:], dtype=np.float64)
        for idx, w in row_taps:
            strip += w[rows].reshape((-1, 1) + trailing) * np.take(arr, idx[rows], axis=0)
        dst = out[rows]
        dst[...] = 0.0
        for idx, w in col_taps:
            dst += w.reshape((1, -1) + trailing) * np.take(strip, idx, axis=1)
        _clip_unit(dst)
    return out


def upsample(x: Raster, ratio: int) -> Raster:
    """Bicubic (Catmull-Rom) upsampling by an integer factor.

    Symmetric borders, output clipped to [0, 1]; at ``ratio == 1`` the
    result is an equal copy of ``x``, unclipped.
    """
    ratio = _positive_int("ratio", ratio)
    return Raster._adopt(_upsample(x.data, ratio))


def wald_degrade(hrms: Raster, pan: Raster, ratio: int) -> tuple[Raster, Raster, Raster]:
    """Reduced-scale evaluation setup: degrade both inputs by ``ratio``.

    Returns (lrms, lrpan, reference) where reference is the untouched
    ``hrms``, so a fusion of (lrms, lrpan) is directly comparable to it.
    """
    ratio = _positive_int("degradation ratio", ratio, 2)
    _check_scale_pair(hrms, pan, 1)
    lrms = downsample_antialias(hrms, ratio)
    lrpan = downsample_antialias(pan, ratio)
    return lrms, lrpan, hrms


def _match_coefficients(src: np.ndarray, target: np.ndarray) -> tuple[np.float64, ...]:
    """(mu_s, sd_t / sd_s, mu_t) of :func:`histogram_match`, from the
    :func:`_moments` of two C-contiguous arrays."""
    mu_s, var_s = _moments(src)
    mu_t, var_t = _moments(target)
    sd_s = np.sqrt(var_s)
    if sd_s < _EPS:
        raise DegenerateInputError("histogram_match: source has zero variance")
    return mu_s, np.sqrt(var_t) / sd_s, mu_t


def _matched(src: np.ndarray, coefficients: tuple[np.float64, ...]) -> np.ndarray:
    """``(src - mu_s) * scale + mu_t`` for ``src`` a plane or any slice of
    one, as a fresh array written in place."""
    mu_s, scale, mu_t = coefficients
    out = np.subtract(src, mu_s)
    out *= scale
    out += mu_t
    return out


def histogram_match(src: Raster, target: Raster) -> Raster:
    """Affine rescale of ``src`` to the mean and standard deviation of ``target``.

    The moment form of histogram matching: fast, differentiable, and the
    convention used throughout component-substitution fusion. A constant
    source has no spread to rescale and is rejected; a constant target
    simply maps everything onto its mean.
    """
    _check_bands("histogram_match source", src.bands, 1, exact=True)
    _check_bands("histogram_match target", target.bands, 1, exact=True)
    return Raster._adopt(_matched(src.data, _match_coefficients(src.data, target.data)))

