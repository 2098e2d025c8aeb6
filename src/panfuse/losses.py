"""Loss functions and regularizers as pure functions of rasters.

Pixel losses, the adversarial generator/discriminator objectives, the
spectral-angle regularizer at one and two resolutions, Gram-matrix and
perceptual losses, and the weighted combination. ``LOSSES`` holds the
raster-pair losses; seven have an analytic gradient with respect to the fused
image in ``GRADIENTS``, verified by a central finite-difference oracle.

Two of the published formulas are kept in both an as-printed and a
corrected form behind a ``mode`` argument: the spectral-angle loss (the
printed global form is not scale invariant and is not zero at identity) and
the discriminator loss (the printed form rewards rather than penalizes a
confident real score). The corrected variants are the defaults used by
the rest of the toolkit only where stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateInputError, ParameterError, UsageError
from .features import IDENTITY, ConvStackSpec, Extractor, extract_features
from .raster import (
    _EPS,
    Raster,
    _Carrier,
    _LastTwo,
    _band_sum,
    _check_bands,
    _check_same_shape,
    _check_scale_pair,
    _choice,
    _finite_real,
    _finite_result,
    _frozen,
    _positive_int,
    _real,
    _real_array,
)
from .resample import _downsample, _downsample_adjoint

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
            object.__setattr__(self, name, _finite_real(f"loss weight {name}", getattr(self, name)))
        if self.eta1 < 0 or self.eta2 < 0:
            raise ParameterError("eta1 and eta2 must be nonnegative")


class LossContext(NamedTuple):
    """What a loss reads besides the (fused, reference) pair: the lrms and
    ratio of total SAM, and the extractor of the perceptual terms."""

    lrms: Raster | None = None
    ratio: int | None = None
    extractor: Extractor = IDENTITY


def _lrms_and_ratio(ctx: LossContext) -> tuple[Raster, int]:
    """The context of total SAM, which needs both its lrms and its ratio."""
    if ctx.lrms is None or ctx.ratio is None:
        raise UsageError("total-sam needs lrms and ratio")
    return ctx.lrms, ctx.ratio


@dataclass(frozen=True, eq=False)
class GramMatrix(_Carrier):
    """Channel inner-product matrix of a feature map, normalized by its
    pixel count ``n``, a positive integer."""

    matrix: np.ndarray
    n: int

    def __post_init__(self) -> None:
        m = _real_array("gram matrix", self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"gram matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n", _positive_int("pixel count", self.n))

    @property
    def unnormalized(self) -> np.ndarray:
        return self.matrix * self.n


@_finite_result
def pixel_loss(a: Raster, b: Raster, mode: str) -> float:
    """Mean absolute ("l1") or mean squared ("mse") difference."""
    _check_same_shape(a, b)
    mode = _choice("pixel loss mode", mode, PIXEL_MODES)
    diff = a.data - b.data
    if mode == "l1":
        return float(np.abs(diff).mean())
    return float((diff * diff).mean())


@_finite_result
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
        d = _real("discriminator score", d)
        if not (math.isfinite(d) and d > 0):
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
    mode = _choice("discriminator mode", mode, DISC_MODES)
    if len(d_fake) != len(d_real):
        raise UsageError("d_fake and d_real must have equal length")
    if len(d_fake) == 0:
        raise UsageError("discriminator loss needs at least one sample")
    scores = [_real("discriminator score", d) for d in (*d_fake, *d_real)]
    for d in scores:
        if not 0.0 < d < 1.0:
            raise DegenerateInputError(f"discriminator score {d} outside (0, 1)")
    total = 0.0
    for df, dr in zip(scores[: len(d_fake)], scores[len(d_fake) :]):
        if mode == "as_printed":
            total += 1.0 - math.log(df) + math.log(dr)
        else:
            total += -math.log(1.0 - df) - math.log(dr)
    return total / len(d_fake)


def _sam_parts(f: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The per-pixel ``<f, t>``, ``|f|`` and ``|t|`` of two H x W x B arrays of
    2 bands or more, read-only: what the cosine SAM value and gradient read."""
    _check_bands("sam loss", f.shape[2], 2)
    parts = _band_sum(f * t), np.sqrt(_band_sum(f * f)), np.sqrt(_band_sum(t * t))
    return tuple(_frozen(p) for p in parts)


def _sam_value(parts: tuple[np.ndarray, ...]) -> float:
    """The cosine SAM loss of its :func:`_sam_parts`."""
    dots, nf, nt = parts
    return max(float(np.mean(1.0 - dots / (nf * nt + _EPS))), 0.0)


def _sam_loss(f: np.ndarray, t: np.ndarray, mode: str) -> float:
    """:func:`sam_loss` of two H x W x B arrays of one shape."""
    if _choice("sam mode", mode, SAM_MODES) == "as_printed":
        return float(
            1.0 - np.sum(f * t) / (np.sum(f * f) * np.sum(t * t) + _EPS)
        )
    return _sam_value(_sam_parts(f, t))


@_finite_result
def sam_loss(fused: Raster, target: Raster, mode: str = "cosine") -> float:
    """Spectral-angle regularizer.

    ``cosine`` is the per-pixel form, mean of 1 - <f, t> / (|f| |t| + eps),
    which is zero at identity. The eps floor (``raster._EPS``) keeps it scale
    invariant only while |f| |t| >> eps; below that a pixel's loss goes to 1. ``as_printed``
    evaluates the global form 1 - sum(f*t) / (sum(f^2) * sum(t^2) + eps)
    exactly as published; it carries neither property.
    """
    _check_same_shape(fused, target)
    return _sam_loss(fused.data, target.data, mode)


@_finite_result
def total_sam_loss(
    fused: Raster, reference: Raster, lrms: Raster, ratio: int, mode: str = "cosine"
) -> float:
    """Spectral-angle loss averaged over full and reduced resolution.

    0.5 * sam(fused, reference) + 0.5 * sam(downsample(fused), lrms).
    """
    _check_same_shape(fused, reference)
    ratio = _check_scale_pair(lrms, fused, ratio, pan=False)
    if _choice("sam mode", mode, SAM_MODES) != "cosine":
        down = _downsample(fused.data, ratio)
        return 0.5 * _sam_loss(fused.data, reference.data, mode) + 0.5 * _sam_loss(
            down, lrms.data, mode
        )
    _, full, low = _total_sam_parts(fused, reference, lrms, ratio)
    return 0.5 * _sam_value(full) + 0.5 * _sam_value(low)


@_LastTwo
def _total_sam_parts(
    fused: Raster, reference: Raster, lrms: Raster, ratio: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The read-only downsample of ``fused`` and the :func:`_sam_parts` of
    (fused, reference) and (downsample, lrms): what the cosine total SAM and
    its gradient share."""
    down = _frozen(_downsample(fused.data, ratio))
    return down, _sam_parts(fused.data, reference.data), _sam_parts(down, lrms.data)


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
    """Frobenius distance between the band Gram matrices of two rasters:
    :func:`gm_perceptual_loss` with the identity extractor."""
    return gm_perceptual_loss(fused, reference, IDENTITY)


@_finite_result
def gm_perceptual_loss(fused: Raster, reference: Raster, extractor: Extractor) -> float:
    """Frobenius distance between Gram matrices in feature space."""
    _check_same_shape(fused, reference)
    return _gram_delta(fused, reference, extractor)[1]


@_LastTwo
def _gram_delta(
    fused: Raster, reference: Raster, extractor: Extractor
) -> tuple[np.ndarray, float]:
    """The read-only Gram difference of the features of ``fused`` and
    ``reference``, and its Frobenius norm: what the Gram loss and its
    gradient share."""
    gf = gram_matrix(extract_features(fused, extractor)).matrix
    gr = gram_matrix(extract_features(reference, extractor)).matrix
    delta = _frozen(gf - gr)
    return delta, float(np.sqrt(np.sum(delta * delta)))


@_finite_result
def perceptual_loss(fused: Raster, reference: Raster, extractor: Extractor) -> float:
    """Euclidean (root-sum-square) distance between feature maps."""
    _check_same_shape(fused, reference)
    diff = extract_features(fused, extractor).data - extract_features(
        reference, extractor
    ).data
    return float(np.sqrt(np.sum(diff * diff)))


@_finite_result
def combined_loss(base: float, regularizer: float, spec: LossSpec) -> float:
    """Weighted objective eta1 * base + eta2 * regularizer."""
    base = _finite_real("combined loss base", base)
    regularizer = _finite_real("combined loss regularizer", regularizer)
    return spec.eta1 * base + spec.eta2 * regularizer


def _sam_parts_gradient(
    fused: np.ndarray, target: np.ndarray, parts: tuple[np.ndarray, ...]
) -> np.ndarray:
    """d/d fused of mean_p [1 - <f,t> / (|f| |t| + eps)], given its :func:`_sam_parts`."""
    dots, nf, nt = parts
    npix = fused.shape[0] * fused.shape[1]
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


def _l1_gradient(fused: Raster, reference: Raster, ctx: LossContext) -> np.ndarray:
    return np.sign(fused.data - reference.data) / fused.data.size


def _mse_gradient(fused: Raster, reference: Raster, ctx: LossContext) -> np.ndarray:
    return 2.0 * (fused.data - reference.data) / fused.data.size


def _sam_gradient(fused: Raster, reference: Raster, ctx: LossContext) -> np.ndarray:
    return _sam_parts_gradient(fused.data, reference.data, _sam_parts(fused.data, reference.data))


def _total_sam_gradient(fused: Raster, reference: Raster, ctx: LossContext) -> np.ndarray:
    lrms, ratio = _lrms_and_ratio(ctx)
    ratio = _check_scale_pair(lrms, fused, ratio, pan=False)
    down, full, low = _total_sam_parts(fused, reference, lrms, ratio)
    grad_full = _sam_parts_gradient(fused.data, reference.data, full)
    grad_low = _sam_parts_gradient(down, lrms.data, low)
    return 0.5 * grad_full + 0.5 * _downsample_adjoint(grad_low, ratio)


def _gram_gradient(fused: Raster, reference: Raster, ctx: LossContext) -> np.ndarray:
    return _gram_delta_gradient(fused.data, *_gram_delta(fused, reference, IDENTITY))


def _perceptual_gradient(fused: Raster, reference: Raster, ctx: LossContext) -> np.ndarray:
    diff = fused.data - reference.data
    norm = float(np.sqrt(np.sum(diff * diff)))
    if norm == 0.0:
        return np.zeros_like(diff)
    return diff / norm


_Gradient = Callable[[Raster, Raster, LossContext], np.ndarray]


def _identity_only(gradient: _Gradient) -> _Gradient:
    """``gradient``, which holds only where the features are the pixels."""

    def checked(fused: Raster, reference: Raster, ctx: LossContext) -> np.ndarray:
        if isinstance(ctx.extractor, ConvStackSpec):
            raise UsageError("the perceptual gradients hold for the identity extractor only")
        _choice("extractor", ctx.extractor, (IDENTITY,))
        return gradient(fused, reference, ctx)

    return checked


# gradient id -> d loss / d fused of (fused, reference, ctx), as a fresh array.
GRADIENTS: dict[str, _Gradient] = {
    "l1": _l1_gradient,
    "mse": _mse_gradient,
    "sam_cosine": _sam_gradient,
    "total_sam": _total_sam_gradient,
    "gm_reconstruction": _gram_gradient,
    "perceptual_identity": _identity_only(_perceptual_gradient),
    "gm_perceptual_identity": _identity_only(_gram_gradient),
}

GRADIENT_LOSSES = tuple(GRADIENTS)


class Loss(NamedTuple):
    """A raster-pair loss: its value of (fused, reference, ctx), and the id of
    its analytic gradient in :data:`GRADIENTS`, or None."""

    value: Callable[[Raster, Raster, LossContext], float]
    gradient: str | None


# loss name -> Loss. The values look the public loss functions up when they
# run, not here, so rebinding a function in this module reaches the table.
LOSSES = {
    "l1": Loss(lambda f, r, ctx: pixel_loss(f, r, "l1"), "l1"),
    "mse": Loss(lambda f, r, ctx: pixel_loss(f, r, "mse"), "mse"),
    "sam": Loss(lambda f, r, ctx: sam_loss(f, r, "cosine"), "sam_cosine"),
    "sam-printed": Loss(lambda f, r, ctx: sam_loss(f, r, "as_printed"), None),
    "total-sam": Loss(
        lambda f, r, ctx: total_sam_loss(f, r, *_lrms_and_ratio(ctx), "cosine"), "total_sam"
    ),
    "perceptual": Loss(
        lambda f, r, ctx: perceptual_loss(f, r, ctx.extractor), "perceptual_identity"
    ),
    "gm-perceptual": Loss(
        lambda f, r, ctx: gm_perceptual_loss(f, r, ctx.extractor), "gm_perceptual_identity"
    ),
    "gm-reconstruction": Loss(lambda f, r, ctx: gm_reconstruction_loss(f, r), "gm_reconstruction"),
}


@_finite_result
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
    gradient = GRADIENTS[_choice("gradient loss id", loss_id, GRADIENT_LOSSES)]
    _check_same_shape(fused, reference)
    return Raster._adopt(gradient(fused, reference, LossContext(lrms, ratio)))


def finite_difference_gradient(
    loss: Callable[[Raster], float], fused: Raster, h: float
) -> Raster:
    """Central-difference gradient oracle, one loss pair per element.

    O(N) loss evaluations; intended for small verification instances.
    Elements are perturbed in fixed C order so results are deterministic.
    """
    h = _finite_real("step size", h, positive=True)
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
    """Max elementwise relative error ``|a - f| / (|a| + |f| + floor)`` of the
    analytic against the FD gradient. ``floor = eps**(2/3) * max(|L|, 1) / h``,
    with ``L`` the loss at ``fused`` and ``eps`` the float64 epsilon, is the
    gradient that the central difference's rounding, about ``eps * max(|L|, 1)
    / h``, leaves a relative ``eps**(1/3)`` (6e-6) in error; smaller elements
    are compared on that absolute scale. A step below ``sqrt(eps)``, where the
    floor lets even a sign-flipped gradient pass, breaks the step rule. An
    ``analytic`` of another shape than ``fused`` is refused, not broadcast."""
    if _finite_real("step size", h, positive=True) < math.sqrt(np.finfo(np.float64).eps):
        raise ParameterError(f"step size of a gradient check must be >= sqrt(eps), got {h}")
    _check_same_shape(analytic, fused)
    fd = finite_difference_gradient(loss, fused, h)
    floor = np.finfo(np.float64).eps ** (2 / 3) * max(abs(loss(fused)), 1.0) / h
    ga, gf = analytic.data, fd.data
    rel = np.abs(ga - gf) / (np.abs(ga) + np.abs(gf) + floor)
    return float(rel.max())
