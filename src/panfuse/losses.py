"""Loss functions and regularizers as pure functions of rasters.

Pixel losses, the adversarial generator/discriminator objectives, the
spectral-angle regularizer at one and two resolutions, Gram-matrix and
perceptual losses, and the weighted combination. Every supported loss has
an analytic gradient with respect to the fused image plus a central
finite-difference oracle for verification.

Two of the published formulas are kept in both an as-printed and a
corrected form behind a ``mode`` argument: the spectral-angle loss (the
printed global form is not scale invariant and is not zero at identity) and
the discriminator loss (the printed form rewards rather than penalizes a
confident real score). The corrected variants are the defaults used by
the rest of the toolkit only where stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, ShapeMismatchError, UsageError
from .features import Extractor, extract_features
from .raster import Raster, _check_same_shape, _check_scale_pair
from .resample import _downsample, _downsample_adjoint

_EPS = 1e-12

SAM_MODES = ("cosine", "as_printed")
DISC_MODES = ("as_printed", "bce")
PIXEL_MODES = ("l1", "mse")


@dataclass(frozen=True)
class LossSpec:
    """Weights of the combined objective.

    alpha/beta weight the adversarial and reconstruction terms of the
    generator loss; eta1/eta2 weight the base objective and the
    regularizer in the combination.
    """

    alpha: float = 1.0
    beta: float = 1.0
    eta1: float = 1.0
    eta2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "eta1", "eta2"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"loss weight {name} must be finite")
        if self.eta1 < 0 or self.eta2 < 0:
            raise UsageError("eta1 and eta2 must be nonnegative")


@dataclass(frozen=True)
class GramMatrix:
    """Channel inner-product matrix of a feature map, normalized by pixel count."""

    matrix: np.ndarray
    n: int = field(default=0)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.float64, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"gram matrix must be square, got {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def unnormalized(self) -> np.ndarray:
        return self.matrix * self.n


def pixel_loss(a: Raster, b: Raster, mode: str) -> float:
    """Mean absolute ("l1") or mean squared ("mse") difference."""
    _check_same_shape(a, b)
    if mode not in PIXEL_MODES:
        raise UsageError(f"unknown pixel loss mode {mode!r}")
    diff = a.data - b.data
    if mode == "l1":
        return float(np.abs(diff).mean())
    return float((diff * diff).mean())


def generator_loss(
    d_scores: Sequence[float],
    fused: Sequence[Raster],
    reference: Sequence[Raster],
    spec: LossSpec,
) -> float:
    """Adversarial + l1 reconstruction objective of the generator.

    (1/n) * sum_i [-alpha * log d_i + beta * l1(fused_i, reference_i)].
    """
    if not (len(d_scores) == len(fused) == len(reference)):
        raise UsageError("d_scores, fused, and reference must have equal length")
    if len(fused) == 0:
        raise UsageError("generator loss needs at least one sample")
    total = 0.0
    for d, f, r in zip(d_scores, fused, reference):
        if d <= 0:
            raise DegenerateInputError(f"discriminator score {d} outside log domain")
        total += -spec.alpha * math.log(d) + spec.beta * pixel_loss(f, r, "l1")
    return total / len(fused)


def discriminator_loss(
    d_fake: Sequence[float], d_real: Sequence[float], mode: str = "as_printed"
) -> float:
    """Discriminator objective over paired fake/real scores.

    ``as_printed`` evaluates (1/n) * sum [1 - log d_fake + log d_real];
    ``bce`` is the standard binary cross entropy
    (1/n) * sum [-log(1 - d_fake) - log d_real].
    """
    if mode not in DISC_MODES:
        raise UsageError(f"unknown discriminator mode {mode!r}")
    if len(d_fake) != len(d_real):
        raise UsageError("d_fake and d_real must have equal length")
    if len(d_fake) == 0:
        raise UsageError("discriminator loss needs at least one sample")
    for d in list(d_fake) + list(d_real):
        if not 0.0 < d < 1.0:
            raise DegenerateInputError(f"discriminator score {d} outside (0, 1)")
    total = 0.0
    for df, dr in zip(d_fake, d_real):
        if mode == "as_printed":
            total += 1.0 - math.log(df) + math.log(dr)
        else:
            total += -math.log(1.0 - df) - math.log(dr)
    return total / len(d_fake)


def _sam_loss(f: np.ndarray, t: np.ndarray, mode: str) -> float:
    """:func:`sam_loss` of two H x W x B arrays of one shape."""
    if mode not in SAM_MODES:
        raise UsageError(f"unknown sam mode {mode!r}")
    if mode == "as_printed":
        return float(
            1.0 - np.sum(f * t) / (np.sum(f * f) * np.sum(t * t) + _EPS)
        )
    if f.shape[2] < 2:
        raise ShapeMismatchError("sam loss requires at least 2 bands")
    dots = np.sum(f * t, axis=2)
    norms = np.sqrt(np.sum(f * f, axis=2)) * np.sqrt(np.sum(t * t, axis=2))
    return max(float(np.mean(1.0 - dots / (norms + _EPS))), 0.0)


def sam_loss(fused: Raster, target: Raster, mode: str = "cosine") -> float:
    """Spectral-angle regularizer.

    ``cosine`` is the per-pixel form, mean of 1 - <f, t> / (|f| |t| + eps),
    which is zero at identity and scale invariant. ``as_printed``
    evaluates the global form 1 - sum(f*t) / (sum(f^2) * sum(t^2) + eps)
    exactly as published; it carries neither property.
    """
    _check_same_shape(fused, target)
    return _sam_loss(fused.data, target.data, mode)


def total_sam_loss(
    fused: Raster, reference: Raster, lrms: Raster, ratio: int, mode: str = "cosine"
) -> float:
    """Spectral-angle loss averaged over full and reduced resolution.

    0.5 * sam(fused, reference) + 0.5 * sam(downsample(fused), lrms).
    """
    _check_same_shape(fused, reference)
    _check_scale_pair(lrms, fused, ratio, pan=False)
    down = _downsample(fused.data, ratio)
    return 0.5 * _sam_loss(fused.data, reference.data, mode) + 0.5 * _sam_loss(
        down, lrms.data, mode
    )


def gram_matrix(f: Raster) -> GramMatrix:
    """Channel Gram matrix of a feature map, normalized by pixel count.

    Flattens to an (H*W) x C matrix F and returns F^T F / (H*W). The
    normalization keeps loss magnitudes resolution independent; the raw
    product is recoverable via :attr:`GramMatrix.unnormalized`.
    """
    n = f.height * f.width
    flat = f.data.reshape(n, f.bands)
    g = flat.T @ flat / n
    return GramMatrix(matrix=(g + g.T) / 2.0, n=n)


def gm_reconstruction_loss(fused: Raster, reference: Raster) -> float:
    """Frobenius distance between the band Gram matrices of two rasters."""
    _check_same_shape(fused, reference)
    delta = gram_matrix(fused).matrix - gram_matrix(reference).matrix
    return float(np.sqrt(np.sum(delta * delta)))


def gm_perceptual_loss(fused: Raster, reference: Raster, extractor: Extractor) -> float:
    """Frobenius distance between Gram matrices in feature space.

    With the identity extractor this reduces exactly to
    :func:`gm_reconstruction_loss`.
    """
    _check_same_shape(fused, reference)
    gf = gram_matrix(extract_features(fused, extractor)).matrix
    gr = gram_matrix(extract_features(reference, extractor)).matrix
    delta = gf - gr
    return float(np.sqrt(np.sum(delta * delta)))


def perceptual_loss(fused: Raster, reference: Raster, extractor: Extractor) -> float:
    """Euclidean (root-sum-square) distance between feature maps."""
    _check_same_shape(fused, reference)
    diff = extract_features(fused, extractor).data - extract_features(
        reference, extractor
    ).data
    return float(np.sqrt(np.sum(diff * diff)))


def combined_loss(base: float, regularizer: float, spec: LossSpec) -> float:
    """Weighted objective eta1 * base + eta2 * regularizer."""
    if not (math.isfinite(base) and math.isfinite(regularizer)):
        raise UsageError("combined loss inputs must be finite")
    return spec.eta1 * base + spec.eta2 * regularizer


def _sam_cosine_gradient(fused: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d/d fused of mean_p [1 - <f,t> / (|f| |t| + eps)]."""
    npix = fused.shape[0] * fused.shape[1]
    dots = np.sum(fused * target, axis=2)
    nf = np.sqrt(np.sum(fused * fused, axis=2))
    nt = np.sqrt(np.sum(target * target, axis=2))
    den = nf * nt + _EPS
    nf_safe = np.maximum(nf, _EPS)
    # d cos/d f_b = [t_b * den - dot * nt * f_b / nf] / den^2
    term = (
        target * den[:, :, None]
        - (dots * nt / nf_safe)[:, :, None] * fused
    ) / (den * den)[:, :, None]
    return -term / npix


def _gram_delta_gradient(
    fused: np.ndarray, delta: np.ndarray, fro: float
) -> np.ndarray:
    """d/d fused of ||G(fused) - G(ref)||_F given the Gram difference."""
    h, w, c = fused.shape
    n = h * w
    if fro == 0.0:
        return np.zeros_like(fused)
    flat = fused.reshape(n, c)
    grad = (2.0 / (n * fro)) * (flat @ delta)
    return grad.reshape(h, w, c)


def _l1_gradient(
    fused: Raster, reference: Raster, lrms: Raster | None, ratio: int | None
) -> np.ndarray:
    return np.sign(fused.data - reference.data) / fused.data.size


def _mse_gradient(
    fused: Raster, reference: Raster, lrms: Raster | None, ratio: int | None
) -> np.ndarray:
    return 2.0 * (fused.data - reference.data) / fused.data.size


def _sam_gradient(
    fused: Raster, reference: Raster, lrms: Raster | None, ratio: int | None
) -> np.ndarray:
    return _sam_cosine_gradient(fused.data, reference.data)


def _total_sam_gradient(
    fused: Raster, reference: Raster, lrms: Raster | None, ratio: int | None
) -> np.ndarray:
    if lrms is None or ratio is None:
        raise UsageError("total_sam gradient needs lrms and ratio")
    _check_scale_pair(lrms, fused, ratio, pan=False)
    grad_full = _sam_cosine_gradient(fused.data, reference.data)
    grad_low = _sam_cosine_gradient(_downsample(fused.data, ratio), lrms.data)
    return 0.5 * grad_full + 0.5 * _downsample_adjoint(grad_low, ratio)


def _gram_gradient(
    fused: Raster, reference: Raster, lrms: Raster | None, ratio: int | None
) -> np.ndarray:
    delta = gram_matrix(fused).matrix - gram_matrix(reference).matrix
    fro = float(np.sqrt(np.sum(delta * delta)))
    return _gram_delta_gradient(fused.data, delta, fro)


def _perceptual_gradient(
    fused: Raster, reference: Raster, lrms: Raster | None, ratio: int | None
) -> np.ndarray:
    diff = fused.data - reference.data
    norm = float(np.sqrt(np.sum(diff * diff)))
    if norm == 0.0:
        return np.zeros_like(diff)
    return diff / norm


# gradient id -> d loss / d fused of (fused, reference, lrms, ratio), as a
# fresh array. The "*_identity" entries hold for the identity extractor only.
GRADIENTS: dict[str, Callable[[Raster, Raster, Raster | None, int | None], np.ndarray]] = {
    "l1": _l1_gradient,
    "mse": _mse_gradient,
    "sam_cosine": _sam_gradient,
    "total_sam": _total_sam_gradient,
    "gm_reconstruction": _gram_gradient,
    "perceptual_identity": _perceptual_gradient,
    "gm_perceptual_identity": _gram_gradient,
}

GRADIENT_LOSSES = tuple(GRADIENTS)


def loss_gradient(
    loss_id: str,
    fused: Raster,
    reference: Raster,
    lrms: Raster | None = None,
    ratio: int | None = None,
) -> Raster:
    """Analytic gradient of a supported loss with respect to ``fused``.

    ``total_sam`` chains through the anti-aliased downsampling via its
    exact adjoint and needs ``lrms`` and ``ratio``. The l1 subgradient at
    zero difference is zero. Frobenius-norm losses return a zero raster
    at their (non-differentiable) minimum.
    """
    if loss_id not in GRADIENTS:
        raise UsageError(f"no analytic gradient for loss {loss_id!r}")
    _check_same_shape(fused, reference)
    return Raster._adopt(GRADIENTS[loss_id](fused, reference, lrms, ratio))


def finite_difference_gradient(
    loss: Callable[[Raster], float], fused: Raster, h: float
) -> Raster:
    """Central-difference gradient oracle, one loss pair per element.

    O(N) loss evaluations; intended for small verification instances.
    Elements are perturbed in fixed C order so results are deterministic.
    """
    if h <= 0:
        raise UsageError(f"step size must be positive, got {h}")
    base = fused.data.copy()
    grad = np.zeros_like(base)
    flat = base.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss(Raster(base))
        flat[i] = orig - h
        down = loss(Raster(base))
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return Raster(grad)


def gradient_check(
    loss: Callable[[Raster], float],
    analytic: Raster,
    fused: Raster,
    h: float = 1e-5,
) -> float:
    """Max elementwise relative error between analytic and FD gradients."""
    fd = finite_difference_gradient(loss, fused, h)
    ga, gf = analytic.data, fd.data
    rel = np.abs(ga - gf) / (np.abs(ga) + np.abs(gf) + 1e-8)
    return float(rel.max())
