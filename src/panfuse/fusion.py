"""Classical pansharpening baselines sharing one input contract.

Component substitution (GIHS, Brovey, PCA, Gram-Schmidt) and multiresolution
analysis (high-pass filter injection), written as one detail injection
(Vivone et al., IEEE TGRS 2015): fused = clip(ms_up + g * detail, 0, 1), with
ms_up the upsampled multispectral cube. Component substitution chooses an
intensity I and gain g and injects detail = P_matched - I, where P_matched is
the pan band histogram-matched to I. HPF injects P - lowpass(P) with g = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._strips import _row_strips
from .errors import DegenerateInputError
from .raster import _EPS, Raster, _Carrier, _band_sum, _check_bands, _check_scale_pair, _choice
from .raster import _moments
from .resample import _downsample, _match_coefficients, _matched, _separable, _upsample

GS_LR_PAN_MODES = ("weighted-mean", "blur-decimate", "mmse")


@dataclass(frozen=True, eq=False)
class FusionInput(_Carrier):
    """A (lrms, pan) pair with the resolution ratio between them."""

    lrms: Raster
    pan: Raster
    ratio: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", _check_scale_pair(self.lrms, self.pan, self.ratio))


def _plane(cube: np.ndarray, fill: Callable[[np.ndarray, np.ndarray], object]) -> np.ndarray:
    """An H x W plane of an H x W x B cube, written strip by strip:
    ``fill(strip, out)`` writes the strip's rows of the plane into ``out``."""
    plane = np.empty(cube.shape[:2], dtype=np.float64)
    for rows in _row_strips(*cube.shape):
        fill(cube[rows], plane[rows])
    return plane


def _band_mean(cube: np.ndarray) -> np.ndarray:
    """The per-pixel band mean of an H x W x B cube, with the bits of
    ``np.mean(cube, axis=2)``: the band sum over the band count."""
    bands = cube.shape[2]
    return _plane(cube, lambda s, out: np.divide(_band_sum(s), bands, out=out))


def _detail(pan: np.ndarray, intensity: np.ndarray) -> Callable[[slice], np.ndarray]:
    """The component-substitution detail P_matched - I, as a function of a row
    slice: the moments of ``pan`` and ``intensity`` are taken now, and each
    call matches only its rows of the pan, so no matched plane is built. A
    call reads ``intensity`` when it runs."""
    coefficients = _match_coefficients(pan, intensity)

    def rows_detail(rows: slice) -> np.ndarray:
        matched = _matched(pan[rows], coefficients)
        return np.subtract(matched, intensity[rows], out=matched)

    return rows_detail


def _inject(
    ms_up: np.ndarray,
    gain: float | np.ndarray | Callable[[np.ndarray, slice], np.ndarray],
    detail: np.ndarray | Callable[[slice], np.ndarray],
) -> Raster:
    """clip(ms_up + gain * detail, 0, 1), the step every method ends with.

    ``ms_up`` is the upsampled cube the method owns; the sum and the clip are
    written into it one strip of rows at a time, and it becomes the output.
    ``gain`` is a scalar or per band, or a function of a strip and its rows
    that returns the strip's per-pixel, per-band gain before the sum is
    added; ``detail`` is an H x W plane, or a function of a strip's rows that
    returns those rows of one (:func:`_detail`).
    """
    for rows in _row_strips(*ms_up.shape):
        s = ms_up[rows]
        g = gain(s, rows) if callable(gain) else gain
        d = detail(rows) if callable(detail) else detail[rows]
        s += g * d[:, :, None]
        np.clip(s, 0.0, 1.0, out=s)
    return Raster._adopt(ms_up)


def fuse_gihs(fin: FusionInput) -> Raster:
    """Generalized intensity-hue-saturation fusion (additive form).

    The intensity is the equal-weight band mean, which folds the NIR band
    into the substitution instead of restricting it to three color bands.
    """
    _check_bands("gihs", fin.lrms.bands, 3)
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    intensity = _band_mean(ms_up)
    return _inject(ms_up, 1.0, _detail(fin.pan.data[:, :, 0], intensity))


def fuse_brovey(fin: FusionInput) -> Raster:
    """Brovey transform: band-ratio-preserving multiplicative injection."""
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    intensity = _band_mean(ms_up)
    detail = _detail(fin.pan.data[:, :, 0], intensity)  # the moments of I before its guard
    intensity += _EPS  # the guard: g divides by it, so the detail subtracts the same I
    return _inject(ms_up, lambda s, rows: s / intensity[rows, :, None], detail)


def _pca_basis(cube: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pca_basis` of an H x W x B array.

    The band sums and the centered cross products are summed strip by strip,
    so no centered copy of the cube is made.
    """
    strips = _row_strips(*cube.shape)
    n = cube.shape[0] * cube.shape[1]
    if n < 2:
        raise DegenerateInputError("pca: band covariance needs at least 2 pixels")
    means = sum(np.einsum("ijk->k", cube[rows]) for rows in strips) / n
    cov = np.zeros((cube.shape[2], cube.shape[2]), dtype=np.float64)
    for rows in strips:
        d = (cube[rows] - means).reshape(-1, cube.shape[2])
        cov += d.T @ d
    cov /= n - 1
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    if vals[0] <= 0 or vals[-1] <= 1e-10 * vals[0]:
        raise DegenerateInputError("pca: band covariance is singular")
    if vecs[:, 0].sum() < 0:
        vecs = vecs.copy()
        vecs[:, 0] = -vecs[:, 0]
    return means, vals, vecs


def pca_basis(ms: Raster) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band means plus eigendecomposition of the band covariance.

    Returns (means, eigenvalues, eigenvectors) with eigenvalues descending
    and eigenvectors as columns. The leading eigenvector's sign is fixed so
    its loadings sum to a nonnegative value; otherwise the substitution
    direction would be arbitrary.
    """
    return _pca_basis(ms.data)


def fuse_pca(fin: FusionInput) -> Raster:
    """Principal-component substitution fusion.

    The pan band is histogram matched to the first principal component and
    replaces it. With an orthonormal basis, substituting in score space and
    projecting back equals injecting P_matched - PC1 along the first
    eigenvector, so I = PC1 score and g = first eigenvector.
    """
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    means, _, vecs = _pca_basis(ms_up)
    pc1 = _plane(ms_up, lambda s, out: np.matmul(s - means, vecs[:, 0], out=out))
    return _inject(ms_up, vecs[:, 0], _detail(fin.pan.data[:, :, 0], pc1))


def mmse_band_weights(lrms: Raster, pan: Raster, ratio: int) -> np.ndarray:
    """Least-squares band weights matching the downsampled pan.

    Solves min_w ||downsample(pan) - sum_b w_b * lrms_b||^2 without a
    nonnegativity constraint.
    """
    ratio = _check_scale_pair(lrms, pan, ratio)
    a = lrms.data.reshape(-1, lrms.bands)
    y = _downsample(pan.data, ratio).ravel()
    weights, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank < lrms.bands:
        raise DegenerateInputError("mmse weights: rank-deficient band system")
    return weights


def fuse_gs(fin: FusionInput, lr_pan_mode: str = "weighted-mean") -> Raster:
    """Gram-Schmidt fusion in the equivalent injection-gain form.

    ``lr_pan_mode`` selects the synthetic low-resolution intensity:
    ``weighted-mean`` (equal-weight band mean), ``blur-decimate``
    (degraded pan, re-upsampled), or ``mmse`` (band weights fitted to the
    downsampled pan, the enhanced-GS variant). Per-band gains are
    cov(band, intensity) / var(intensity).
    """
    lr_pan_mode = _choice("gs lr-pan mode", lr_pan_mode, GS_LR_PAN_MODES)
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    pan2d = fin.pan.data[:, :, 0]
    if lr_pan_mode == "weighted-mean":
        intensity = _band_mean(ms_up)
    elif lr_pan_mode == "blur-decimate":
        intensity = _upsample(_downsample(pan2d, fin.ratio), fin.ratio)
    else:
        weights = mmse_band_weights(fin.lrms, fin.pan, fin.ratio)
        intensity = _plane(ms_up, lambda s, out: np.matmul(s, weights, out=out))

    mean_i, var_i = _moments(intensity)
    if np.sqrt(var_i) < _EPS:
        raise DegenerateInputError("gs: intensity surrogate has zero variance")
    # cov(band, I) = sum(b * (I - mean_i)) / n: the deviations sum to zero, so
    # the band means drop out. The deviations are taken a strip at a time.
    strips = _row_strips(*ms_up.shape)
    cross = sum(
        (intensity[s] - mean_i).ravel() @ ms_up[s].reshape(-1, ms_up.shape[2]) for s in strips
    )
    gains = cross / intensity.size / var_i
    return _inject(ms_up, gains, _detail(pan2d, intensity))


def fuse_hpf(fin: FusionInput) -> Raster:
    """High-pass filter fusion: add the pan's box-filter residual to every band.

    The box kernel is (2*ratio + 1) squared, so the extracted detail scales
    with the resolution gap. The pan band is used as is, without histogram
    matching. The low-pass is taken per row strip of the pan, and the
    residual in place over it.
    """
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    k = 2 * fin.ratio + 1
    pan2d = fin.pan.data[:, :, 0]
    detail = _separable(pan2d, np.full(k, 1.0 / k), 1)
    return _inject(ms_up, 1.0, np.subtract(pan2d, detail, out=detail))
