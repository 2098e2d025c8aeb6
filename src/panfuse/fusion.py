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

import numpy as np

from .errors import DegenerateInputError, UsageError
from .raster import Raster, _check_scale_pair
from .resample import _STD_EPS, _correlate_axis, _downsample, _match_moments, _upsample

GS_LR_PAN_MODES = ("weighted-mean", "blur-decimate", "mmse")


@dataclass(frozen=True)
class FusionInput:
    """A (lrms, pan) pair with the resolution ratio between them."""

    lrms: Raster
    pan: Raster
    ratio: int

    def __post_init__(self) -> None:
        _check_scale_pair(self.lrms, self.pan, self.ratio)


def _inject(ms_up: np.ndarray, gain: np.ndarray | float, detail: np.ndarray) -> Raster:
    """clip(ms_up + gain * detail, 0, 1), the step every method ends with.

    ``ms_up`` is the upsampled cube the method owns; the sum and the clip are
    written into it, and it becomes the output. ``gain`` is a scalar, per
    band, or per pixel and band; ``detail`` is H x W.
    """
    ms_up += gain * detail[:, :, None]
    return Raster._adopt(np.clip(ms_up, 0.0, 1.0, out=ms_up))


def fuse_gihs(fin: FusionInput) -> Raster:
    """Generalized intensity-hue-saturation fusion (additive form).

    The intensity is the equal-weight band mean, which folds the NIR band
    into the substitution instead of restricting it to three color bands.
    """
    if fin.lrms.bands < 3:
        raise UsageError(f"gihs requires at least 3 bands, got {fin.lrms.bands}")
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    intensity = ms_up.mean(axis=2)
    return _inject(ms_up, 1.0, _match_moments(fin.pan.data[:, :, 0], intensity) - intensity)


def fuse_brovey(fin: FusionInput) -> Raster:
    """Brovey transform: band-ratio-preserving multiplicative injection."""
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    intensity = ms_up.mean(axis=2)
    guarded = intensity + 1e-12  # g divides by it, so detail subtracts the same I
    gain = ms_up / guarded[:, :, None]
    return _inject(ms_up, gain, _match_moments(fin.pan.data[:, :, 0], intensity) - guarded)


def _pca_basis(cube: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pca_basis` of an H x W x B array."""
    flat = cube.reshape(-1, cube.shape[2])
    means = flat.mean(axis=0)
    cov = np.atleast_2d(np.cov(flat, rowvar=False, ddof=1))
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
    pc1 = (ms_up - means) @ vecs[:, 0]
    return _inject(ms_up, vecs[:, 0], _match_moments(fin.pan.data[:, :, 0], pc1) - pc1)


def mmse_band_weights(lrms: Raster, pan: Raster, ratio: int) -> np.ndarray:
    """Least-squares band weights matching the downsampled pan.

    Solves min_w ||downsample(pan) - sum_b w_b * lrms_b||^2 without a
    nonnegativity constraint.
    """
    _check_scale_pair(lrms, pan, ratio)
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
    if lr_pan_mode not in GS_LR_PAN_MODES:
        raise UsageError(f"unknown gs lr-pan mode {lr_pan_mode!r}")
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    pan2d = fin.pan.data[:, :, 0]
    if lr_pan_mode == "weighted-mean":
        intensity = ms_up.mean(axis=2)
    elif lr_pan_mode == "blur-decimate":
        intensity = _upsample(_downsample(pan2d, fin.ratio), fin.ratio)
    else:
        weights = mmse_band_weights(fin.lrms, fin.pan, fin.ratio)
        intensity = np.tensordot(ms_up, weights, axes=([2], [0]))

    dev_i = intensity - intensity.mean()
    var_i = np.mean(dev_i * dev_i)
    if np.sqrt(var_i) < _STD_EPS:
        raise DegenerateInputError("gs: intensity surrogate has zero variance")
    dev_b = ms_up - ms_up.mean(axis=(0, 1))
    gains = np.mean(dev_b * dev_i[:, :, None], axis=(0, 1)) / var_i
    return _inject(ms_up, gains, _match_moments(pan2d, intensity) - intensity)


def fuse_hpf(fin: FusionInput) -> Raster:
    """High-pass filter fusion: add the pan's box-filter residual to every band.

    The box kernel is (2*ratio + 1) squared, so the extracted detail scales
    with the resolution gap. The pan band is used as is, without histogram
    matching.
    """
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    k = 2 * fin.ratio + 1
    kernel = np.full(k, 1.0 / k)
    pan2d = fin.pan.data[:, :, 0]
    lowpass = _correlate_axis(_correlate_axis(pan2d, kernel, 0), kernel, 1)
    return _inject(ms_up, 1.0, pan2d - lowpass)
