"""The hot paths against their earlier bodies.

Each ``old_*`` function below is the code path as it was written before
downsampling evaluated the blur only at kept pixels, its adjoint stopped
zero-upsampling, SSIM, SAM and ERGAS ran in row strips (SSIM from four window
means with a folded kernel), ``synth_scene`` broadcast a row and a column
instead of a meshgrid, MSR payloads were written without a ``tobytes``
copy, the conv layer became one matmul per kernel tap, ``loss_gradient``
became one table, upsampling ran both bicubic passes per row strip, and QNR
took one stacked tile pass per scale instead of one per band pair. The
two-array tile core ``_tile_mean`` below is the one UIQI and Q4 used before
UIQI, Q4 and QNR shared one channel-stack core, and the folded-pair
``old_valid_window_mean`` is the SSIM window mean before each pass became one
einsum over a window view of the taps. They are test-only oracles:
the resampling, the scene, the written bytes and the gradients must match
them bit for bit, SSIM (and its window mean), SAM and ERGAS within 1e-14, QNR, Q4 and UIQI within
1e-12, and the conv features within 1e-12 of their largest magnitude (the
order of the sums changed). ``masked_apply_layer`` is the per-tap conv layer
before it padded into ``np.zeros`` and took its leaky ReLU as one max or min,
and ``np_sum_sam_loss``, ``np_sum_sam_parts`` and ``np_sum_sam_cosine_gradient``
are the SAM loss, its parts and its gradient before their band sums added band
slices in order; the new bodies, and the band mean built on the same sum, must
match them to the bit, zero signs included. ``strided_correlate_axis_adjoint``
is the downsample adjoint's pass before each pass ran down the rows of an
axis-first copy; the adjoint must match it to the bit, zero signs and
subnormals included.
``tnc_tile_index`` is the channel-stack tile core before each row of tiles
was laid out channel-major; the core must match it within 1e-12, with equal
counts of valid tiles. ``full_copy_hpf`` is HPF fusion before its low-pass
ran per row strip, with a reflected copy of the whole pan per pass; HPF, and
downsampling at shapes that span several row strips, must match their old
bodies to the bit, zero signs included.
"""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import panfuse
from panfuse import fusion, losses, metrics
from panfuse import (
    ConvLayer,
    ConvStackSpec,
    FusionInput,
    Raster,
    downsample_antialias,
    downsample_antialias_adjoint,
    extract_features,
    loss_gradient,
    metric_ergas,
    metric_q4,
    metric_qnr,
    metric_sam,
    metric_ssim,
    metric_uiqi,
    pan_from_weights,
    synth_scene,
    total_sam_loss,
    write_raster,
)
from panfuse._strips import _map_strips, _row_strips
from panfuse.errors import ShapeMismatchError
from panfuse.features import _apply_layer, _leaky_relu
from panfuse.losses import _EPS as LOSS_EPS
from panfuse.losses import (
    GRADIENT_LOSSES,
    GRADIENTS,
    _gram_delta_gradient,
    _sam_loss,
    _sam_parts,
    _sam_parts_gradient,
    gram_matrix,
)
from panfuse.metrics import _EPS
from panfuse.raster import _band_sum
from panfuse.resample import (
    _catmull_rom_weights,
    _downsample,
    _downsample_adjoint,
    _gaussian_kernel,
    _reflect,
    _upsample,
)
from helpers import same_bits


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


def old_valid_window_mean(x, kernel):
    """The folded-pair SSIM window mean: each pass adds the two inputs under a
    mirrored tap pair before scaling them, and takes the centre tap alone."""
    k = kernel.size
    c = k // 2
    rows, cols = x.shape[0] - k + 1, x.shape[1] - k + 1
    out = kernel[c] * x[c : c + rows]
    pair = np.empty_like(out)
    for j in range(c):
        np.add(x[j : j + rows], x[k - 1 - j : k - 1 - j + rows], out=pair)
        pair *= kernel[j]
        out += pair
    del pair
    final = kernel[c] * out[:, c : c + cols]
    pair = np.empty_like(final)
    for j in range(c):
        np.add(out[:, j : j + cols], out[:, k - 1 - j : k - 1 - j + cols], out=pair)
        pair *= kernel[j]
        final += pair
    return final


def old_window_mean_into(x, kernel, vertical, out):
    """``old_valid_window_mean`` called as SSIM's strips call the window mean:
    its result is copied into the start of the flat scratch ``out``."""
    want = old_valid_window_mean(x, kernel)
    got = out[: want.size].reshape(want.shape)
    got[...] = want
    return got


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


def old_ergas(f, g, ratio):
    diff = f - g
    rmse = np.sqrt(np.mean(diff * diff, axis=(0, 1)))
    mu = g.mean(axis=(0, 1))
    return float(100.0 / ratio * np.sqrt(np.mean((rmse / mu) ** 2)))


def old_synth_scene(width, height, bands, seed, pan_weights):
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(
        np.linspace(0.0, 1.0, height), np.linspace(0.0, 1.0, width), indexing="ij"
    )
    cube = np.empty((height, width, bands), dtype=np.float64)
    for b in range(bands):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        base = rng.uniform(0.35, 0.55)
        grad_amp = rng.uniform(0.1, 0.25)
        img = base + grad_amp * (
            (xx - 0.5) * np.cos(theta) + (yy - 0.5) * np.sin(theta)
        )
        for _ in range(6):
            cx, cy = rng.uniform(0.1, 0.9, size=2)
            rx, ry = rng.uniform(0.06, 0.25, size=2)
            phi = rng.uniform(0.0, np.pi)
            amp = rng.uniform(-0.3, 0.3)
            soft = rng.uniform(0.01, 0.05)
            dx, dy = xx - cx, yy - cy
            u = (dx * np.cos(phi) + dy * np.sin(phi)) / rx
            v = (-dx * np.sin(phi) + dy * np.cos(phi)) / ry
            d = np.sqrt(u * u + v * v)
            img += amp / (1.0 + np.exp(np.clip((d - 1.0) / soft, -60.0, 60.0)))
        cube[:, :, b] = np.clip(img, 0.0, 1.0)
    hrms = Raster(cube)
    return hrms, pan_from_weights(hrms, pan_weights)


def old_cubic_axis(arr, ratio, axis):
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


def old_upsample(arr, ratio):
    if ratio == 1:
        return arr.copy()
    out = old_cubic_axis(old_cubic_axis(arr, ratio, 0), ratio, 1)
    return np.clip(out, 0.0, 1.0, out=out)


# The two-array tile core that served UIQI and Q4 before one core took a
# channel stack for UIQI, Q4 and QNR alike, with its per-tile callbacks.
def _row_tiles(a: np.ndarray, r: int, block: int) -> np.ndarray:
    """The whole block x block tiles of rows ``r`` to ``r + block`` of an
    H x W x C array, as a (tiles, block * block, C) copy."""
    cols, channels = a.shape[1] // block, a.shape[2]
    row = a[r : r + block, : cols * block].reshape(block, cols, block, channels)
    return row.transpose(1, 0, 2, 3).copy().reshape(cols, block * block, channels)


def _check_block(height: int, width: int, block: int) -> None:
    if block > min(height, width):
        raise ShapeMismatchError(f"block {block} larger than image {height}x{width}")
    if block < 2:
        raise ShapeMismatchError("block must be >= 2 for tile statistics")


def _tile_mean(
    x: np.ndarray, y: np.ndarray, block: int, tile_q: Callable[..., tuple[np.ndarray, np.ndarray]]
) -> float:
    """Mean of a per-tile index over the distinct block x block tiles of two
    H x W x C arrays; partial edge tiles are left out.

    Each row of tiles is one strip of :func:`_map_strips`, and the rows'
    sums are added in row order. ``tile_q(mx, my, vx, vy, cxy)`` gets the
    per-tile band means (t, C), band variances (t, C) and cross-covariances
    ``cxy[t, i, j] = cov(x_i, y_j)`` (t, C, C), all with (n-1)
    normalization, and returns (values, valid). Invalid tiles are skipped;
    if no tile is valid the index is 1 for identical inputs and 0 otherwise.
    """
    height, width, _ = x.shape
    _check_block(height, width, block)
    n = block * block

    def tile_row(r: int) -> tuple[float, int]:
        tx, ty = _row_tiles(x, r, block), _row_tiles(y, r, block)
        # Skipped tiles may divide by zero; their values are dropped below.
        with np.errstate(divide="ignore", invalid="ignore"):
            mx, my = tx.mean(axis=1), ty.mean(axis=1)
            # The tile copies are this row's own, so deviations overwrite them.
            dx = np.subtract(tx, mx[:, None, :], out=tx)
            dy = np.subtract(ty, my[:, None, :], out=ty)
            vx = np.einsum("tnc,tnc->tc", dx, dx) / (n - 1)
            vy = np.einsum("tnc,tnc->tc", dy, dy) / (n - 1)
            cxy = np.matmul(dx.transpose(0, 2, 1), dy) / (n - 1)
            values, valid = tile_q(mx, my, vx, vy, cxy)
        return float(values[valid].sum()), int(np.count_nonzero(valid))

    total, count = 0.0, 0
    rows = range(0, height - block + 1, block)
    for row_total, row_count in _map_strips(lambda r, _: tile_row(r), rows, lambda: None):
        total += row_total
        count += row_count
    if count == 0:
        return 1.0 if np.array_equal(x, y) else 0.0
    return total / count


def _uiqi_tiles(mx, my, vx, vy, cxy) -> tuple[np.ndarray, np.ndarray]:
    return _uiqi(mx[:, 0], my[:, 0], vx[:, 0], vy[:, 0], cxy[:, 0, 0])


def _uiqi(mx, my, vx, vy, cxy) -> tuple[np.ndarray, np.ndarray]:
    """Per-tile UIQI values and validity from same-shape moment arrays."""
    den_var = vx + vy
    den_mean = mx * mx + my * my
    valid = (den_var >= _EPS) & (den_mean >= _EPS)
    return 4.0 * cxy * mx * my / (den_var * den_mean), valid


def _q4_tiles(mx, my, vx, vy, s) -> tuple[np.ndarray, np.ndarray]:
    var1, var2 = vx.sum(axis=1), vy.sum(axis=1)
    sigma1, sigma2 = np.sqrt(var1), np.sqrt(var2)
    # Quaternion covariance sum(d1 * conj(d2)) / (n-1), read off s[t, i, j] = cov(z1_i, z2_j).
    cov = np.stack(
        [
            s[:, 0, 0] + s[:, 1, 1] + s[:, 2, 2] + s[:, 3, 3],
            s[:, 1, 0] - s[:, 0, 1] + s[:, 3, 2] - s[:, 2, 3],
            s[:, 2, 0] - s[:, 0, 2] + s[:, 1, 3] - s[:, 3, 1],
            s[:, 3, 0] - s[:, 0, 3] + s[:, 2, 1] - s[:, 1, 2],
        ],
        axis=1,
    )
    mod_cov = np.sqrt(np.sum(cov * cov, axis=1))
    mod_mu1 = np.sqrt(np.sum(mx * mx, axis=1))
    mod_mu2 = np.sqrt(np.sum(my * my, axis=1))
    den_corr = sigma1 * sigma2
    den_var = var1 + var2
    den_mean = mod_mu1 * mod_mu1 + mod_mu2 * mod_mu2
    valid = (den_corr >= _EPS) & (den_var >= _EPS) & (den_mean >= _EPS)
    values = (
        (mod_cov / den_corr)
        * (2.0 * sigma1 * sigma2 / den_var)
        * (2.0 * mod_mu1 * mod_mu2 / den_mean)
    )
    return values, valid


def old_qnr(fused, lrms, pan, ratio, block):
    """Per-pair QNR: one tile-core pass per band pair and scale."""
    nbands = fused.bands
    lr_block = min(max(block // ratio, 4), lrms.height, lrms.width)
    pan_lr = _downsample(pan.data, ratio)

    def q_gap(hr_x, hr_y, lr_x, lr_y):
        return abs(
            _tile_mean(hr_x, hr_y, block, _uiqi_tiles)
            - _tile_mean(lr_x, lr_y, lr_block, _uiqi_tiles)
        )

    fb = [fused.data[:, :, b : b + 1] for b in range(nbands)]
    lb = [lrms.data[:, :, b : b + 1] for b in range(nbands)]
    pairs = list(itertools.combinations(range(nbands), 2))
    d_lambda = sum(q_gap(fb[i], fb[j], lb[i], lb[j]) for i, j in pairs) / len(pairs)
    d_lambda = min(max(d_lambda, 0.0), 1.0)
    d_s = sum(q_gap(fb[b], pan.data, lb[b], pan_lr) for b in range(nbands)) / nbands
    d_s = min(max(d_s, 0.0), 1.0)
    return (1.0 - d_lambda) * (1.0 - d_s), d_lambda, d_s


def old_apply_layer(arr, layer):
    k = layer.kernel_size
    pad = k // 2
    padded = np.pad(arr, ((pad, pad), (pad, pad), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(0, 1))
    windows = windows[:: layer.stride, :: layer.stride]
    out = np.einsum("hwcij,ocij->hwo", windows, layer.weights) + layer.bias
    return np.where(out > 0, out, layer.leaky_slope * out)


def old_extract_features(data, spec):
    for layer in spec.layers:
        data = old_apply_layer(data, layer)
    return data


def old_loss_gradient(loss_id, fused, reference, lrms=None, ratio=None):
    f, g = fused.data, reference.data
    nelem = f.size
    if loss_id == "l1":
        return Raster(np.sign(f - g) / nelem)
    if loss_id == "mse":
        return Raster(2.0 * (f - g) / nelem)
    if loss_id == "sam_cosine":
        return Raster(_sam_parts_gradient(f, g, _sam_parts(f, g)))
    if loss_id == "total_sam":
        down = downsample_antialias(fused, ratio).data
        grad_full = _sam_parts_gradient(f, g, _sam_parts(f, g))
        grad_low = _sam_parts_gradient(down, lrms.data, _sam_parts(down, lrms.data))
        pulled = downsample_antialias_adjoint(
            Raster(grad_low), ratio, fused.height, fused.width
        )
        return Raster(0.5 * grad_full + 0.5 * pulled.data)
    if loss_id in ("gm_reconstruction", "gm_perceptual_identity"):
        delta = gram_matrix(fused).matrix - gram_matrix(reference).matrix
        fro = float(np.sqrt(np.sum(delta * delta)))
        return Raster(_gram_delta_gradient(f, delta, fro))
    diff = f - g
    norm = float(np.sqrt(np.sum(diff * diff)))
    if norm == 0.0:
        return Raster(np.zeros_like(f))
    return Raster(diff / norm)


def old_msr_bytes(raster):
    header = (
        f'{{"width":{raster.width},"height":{raster.height},'
        f'"bands":{raster.bands},"dtype":"f64"}}'
    ).encode()
    payload = raster.data.astype("<f8").tobytes(order="C")
    return b"MSR1" + len(header).to_bytes(4, "little") + header + payload


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


# Wide shapes: the strip height comes from an element budget, so at 1030
# columns x 4 bands a strip is 7 rows (20 for SSIM, at least twice its halo)
# and (60, 1030) ends in a partial strip, as does (40, 300) x 4 bands
# (27-row strips over 30 output rows).
WIDE_SHAPES = [(12, 1030), (40, 300), (60, 1030)]


@pytest.mark.parametrize("height, width", WIDE_SHAPES)
@pytest.mark.parametrize("bands", [1, 4])
def test_ssim_wide_matches_old_body(height, width, bands):
    f, g = metric_pair(height, width, bands, seed=height + width + bands)
    assert abs(metric_ssim(Raster(f), Raster(g)) - old_ssim(f, g)) <= 1e-14
    assert abs(metric_ssim(Raster(f), Raster(f)) - old_ssim(f, f)) <= 1e-14


@st.composite
def ssim_pairs(draw):
    height, width = draw(st.integers(11, 64)), draw(st.integers(11, 64))
    bands, seed = draw(st.integers(1, 5)), draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.random((height, width, bands))
    relation = draw(st.sampled_from(["independent", "noisy", "inverted", "constant"]))
    if relation == "independent":
        b = rng.random(a.shape)
    elif relation == "noisy":
        b = np.clip(a + 0.05 * rng.standard_normal(a.shape), 0.0, 1.0)
    elif relation == "inverted":
        b = 1.0 - a
    else:
        b = np.full(a.shape, rng.random())
    return Raster(a), Raster(b)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(ssim_pairs())
def test_ssim_symmetric_bounded_and_one_on_itself(pair):
    a, b = pair
    value = metric_ssim(a, b)
    assert value == metric_ssim(b, a)
    assert -1.0 <= value <= 1.0
    assert abs(metric_ssim(a, a) - 1.0) <= 1e-12


@pytest.mark.parametrize("height", [11, 12, 18, 40])
@pytest.mark.parametrize("width", [11, 12, 1025])
@pytest.mark.parametrize("bands", [1, 3, 4, 8])
def test_window_mean_matches_folded_pair_body(height, width, bands):
    x = np.random.default_rng(height * width + bands).random((height, width, bands))
    kernel = metrics._ssim_window()
    vertical, out = np.empty((height - 10) * width * bands), np.empty(x.size)
    got = metrics._valid_window_mean(x, kernel, vertical, out)
    want = old_valid_window_mean(x, kernel)
    assert got.shape == want.shape == (height - 10, width - 10, bands)
    assert np.abs(got - want).max() <= 1e-14


# At 1025 columns an SSIM strip is 31 rows over 1 band and 20 (twice the
# halo) over 3, 4 and 8, so the 43 output rows of (53, 1025) end in a partial
# strip at every band count; (45, 12) is one strip and (11, 1025) one output
# row.
@pytest.mark.parametrize("height, width", [(53, 1025), (45, 12), (11, 1025)])
@pytest.mark.parametrize("bands", [1, 3, 4, 8])
def test_ssim_matches_folded_pair_window_mean(monkeypatch, height, width, bands):
    f, g = metric_pair(height, width, bands, seed=height + width * bands)
    got = metric_ssim(Raster(f), Raster(g))
    monkeypatch.setattr(metrics, "_valid_window_mean", old_window_mean_into)
    assert abs(got - metric_ssim(Raster(f), Raster(g))) <= 1e-14


def test_ssim_same_bits_at_one_and_two_blas_threads():
    """SSIM uses no BLAS call, so the BLAS thread count cannot change it."""
    script = (
        "import numpy as np\n"
        "from panfuse import Raster, metric_ssim\n"
        "rng = np.random.default_rng(11)\n"
        "f = rng.random((90, 300, 4))\n"
        "g = np.clip(f + 0.1 * rng.standard_normal(f.shape), 0.0, 1.0)\n"
        "print(metric_ssim(Raster(f), Raster(g)).hex())\n"
    )
    src = str(Path(panfuse.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        outputs.append(done.stdout.strip())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("height, width", METRIC_SHAPES + WIDE_SHAPES)
@pytest.mark.parametrize("bands", [1, 4])
def test_ergas_matches_old_body(height, width, bands):
    f, g = metric_pair(height, width, bands, seed=height * 7 + width + bands)
    g = 0.05 + 0.9 * g  # no zero band mean
    want = old_ergas(f, g, 4)
    assert abs(metric_ergas(Raster(f), Raster(g), 4) - want) <= 1e-14 * want
    assert metric_ergas(Raster(g), Raster(g), 4) == 0.0


@pytest.mark.parametrize("width, height", [(8, 8), (40, 9), (9, 33), (96, 64)])
@pytest.mark.parametrize("bands", [1, 3, 4])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_synth_scene_matches_old_body(width, height, bands, seed):
    weights = list(np.linspace(1.0, 2.0, bands))
    hrms, pan = synth_scene(width, height, bands, seed, weights)
    old_hrms, old_pan = old_synth_scene(width, height, bands, seed, weights)
    assert np.array_equal(hrms.data, old_hrms.data)
    assert np.array_equal(pan.data, old_pan.data)


# Odd and even sides, 2-D and 3-D; the wide and tall ones span several
# strips and end in a partial one (at ratio 4, (5, 300, 4) has 6-row strips
# over 20 output rows and (97, 131, 3) 20-row strips over 388).
UPSAMPLE_SHAPES = [(1, 1), (7, 5), (8, 6), (1, 1, 1), (9, 13, 3), (16, 16, 4), (5, 300, 4),
                   (97, 131, 3), (64, 64, 1)]


@pytest.mark.parametrize("shape", UPSAMPLE_SHAPES)
@pytest.mark.parametrize("ratio", [1, 2, 3, 4])
def test_upsample_matches_whole_array_body(shape, ratio):
    """Bit for bit, zero signs included; values outside [0, 1] exercise the clip."""
    x = np.random.default_rng(sum(shape) * ratio).uniform(-0.2, 1.2, shape)
    got, want = _upsample(x, ratio), old_upsample(x, ratio)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def qnr_case(height, width, bands, ratio, seed):
    hrms, pan = synth_scene(width, height, bands, seed, list(np.linspace(1.0, 2.0, bands)))
    lrms = downsample_antialias(hrms, ratio)
    noise = np.random.default_rng(seed).normal(0.0, 0.03, hrms.data.shape)
    return Raster(np.clip(hrms.data + noise, 0.0, 1.0)), lrms, pan


@pytest.mark.parametrize("height, width", [(64, 64), (72, 88), (128, 96)])
@pytest.mark.parametrize("bands", [2, 4, 5])
@pytest.mark.parametrize("ratio, block", [(2, 32), (4, 32), (4, 16)])
def test_qnr_matches_per_pair_body(height, width, bands, ratio, block):
    fused, lrms, pan = qnr_case(height, width, bands, ratio, height + width + bands)
    got = metric_qnr(fused, lrms, pan, ratio, block)
    want = old_qnr(fused, lrms, pan, ratio, block)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12


@pytest.mark.parametrize(
    "levels",
    [(0.5, 0.5, 0.5), (0.2, 0.2, 0.7), (0.3, 0.6, 0.9)],
    ids=["all-equal", "two-equal", "all-different"],
)
def test_qnr_constant_bands_match_per_pair_body(levels):
    """Constant bands skip every tile, so each pair falls back to 1 for equal
    bands and 0 for different ones, and the pan pairs to 0 or 1 likewise."""
    cube = np.stack([np.full((64, 64), v) for v in levels], axis=2)
    hrms, pan = Raster(cube), Raster(np.full((64, 64, 1), 0.5))
    lrms = downsample_antialias(hrms, 4)
    got = metric_qnr(hrms, lrms, pan, 4, 32)
    assert got == old_qnr(hrms, lrms, pan, 4, 32)


def test_qnr_one_constant_band_matches_per_pair_body():
    """Band 1 and the pan are one constant: their pair falls back to 1 at both
    scales, while the pairs of the other bands keep their tile values."""
    hrms, _ = synth_scene(96, 96, 4, 21, [1.0] * 4)
    cube = hrms.data.copy()
    cube[:, :, 1] = 0.4
    noise = np.random.default_rng(21).normal(0.0, 0.03, cube.shape)
    fused = np.clip(cube + noise, 0.0, 1.0)
    fused[:, :, 1] = 0.4
    lrms = downsample_antialias(Raster(cube), 4)
    pan = Raster(np.full((96, 96, 1), 0.4))
    got = metric_qnr(Raster(fused), lrms, pan, 4, 32)
    want = old_qnr(Raster(fused), lrms, pan, 4, 32)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
    pairs = list(itertools.combinations(range(5), 2))
    hr = metrics._tile_index((fused, pan.data), 32, metrics._uiqi(pairs), pairs)
    assert hr[pairs.index((1, 4))] == 1.0
    assert all(0.0 < abs(hr[pairs.index(p)]) < 1.0 for p in [(0, 2), (0, 3), (2, 3)])


# Shapes with partial edge tiles on one or both sides, and one without.
TILE_SHAPES = [(97, 130), (40, 33), (64, 64)]


def noisy_pair(height, width, bands, seed):
    rng = np.random.default_rng(seed)
    ref = rng.uniform(0.1, 0.9, (height, width, bands))
    return ref, np.clip(ref + rng.normal(0.0, 0.1, ref.shape), 0.0, 1.0)


@pytest.mark.parametrize("height, width", TILE_SHAPES)
@pytest.mark.parametrize("block", [2, 8, 32])
def test_q4_matches_two_array_tile_core(height, width, block):
    ref, fused = noisy_pair(height, width, 4, height * width + block)
    got = metric_q4(Raster(fused), Raster(ref), block)
    assert abs(got - _tile_mean(ref, fused, block, _q4_tiles)) <= 1e-12


@pytest.mark.parametrize("height, width", TILE_SHAPES)
@pytest.mark.parametrize("block", [2, 8, 32])
def test_uiqi_matches_two_array_tile_core(height, width, block):
    a, b = noisy_pair(height, width, 1, height + width + block)
    got = metric_uiqi(Raster(a), Raster(b), block)
    assert abs(got - _tile_mean(a, b, block, _uiqi_tiles)) <= 1e-12


@pytest.mark.parametrize("height, width", TILE_SHAPES)
@pytest.mark.parametrize("block", [2, 8, 32])
@pytest.mark.parametrize("channels", [(3, 1), (2, 1, 3)], ids=["two-part", "three-part"])
def test_stacked_pairs_match_two_array_tile_core(height, width, block, channels):
    """Every channel pair of a 2- or 3-part stack, against one two-array pass
    per pair; channels 1 and 3 share one constant and channel 4 holds
    another, so their three pairs fall back one by one."""
    rng = np.random.default_rng(height * width * block + len(channels))
    stack = rng.uniform(0.1, 0.9, (height, width, sum(channels)))
    stack[:, :, [1, 3]] = 0.3
    if stack.shape[2] > 4:
        stack[:, :, 4] = 0.6
    parts = tuple(np.split(stack, np.cumsum(channels)[:-1], axis=2))
    pairs = list(itertools.combinations(range(stack.shape[2]), 2))
    got = metrics._tile_index(parts, block, metrics._uiqi(pairs), pairs)
    want = [
        _tile_mean(stack[:, :, i : i + 1], stack[:, :, j : j + 1], block, _uiqi_tiles)
        for i, j in pairs
    ]
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
    assert got[pairs.index((1, 3))] == 1.0
    if stack.shape[2] > 4:
        assert got[pairs.index((1, 4))] == got[pairs.index((3, 4))] == 0.0


def tnc_tile_index(parts, block, tile_q, groups):
    """The channel-stack tile core with each row of tiles stacked as
    (tiles, block * block, C), so every per-tile reduction runs over an
    inner loop of C values."""
    height, width, _ = parts[0].shape
    _check_block(height, width, block)
    cols, n = width // block, block * block
    bounds = np.cumsum([0] + [p.shape[2] for p in parts])

    def tile_row(r):
        stack = np.empty((cols, n, bounds[-1]), dtype=np.float64)
        tiles = stack.reshape(cols, block, block, bounds[-1])
        for p, lo, hi in zip(parts, bounds, bounds[1:]):
            row = p[r : r + block, : cols * block].reshape(block, cols, block, hi - lo)
            tiles[..., lo:hi] = row.transpose(1, 0, 2, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = stack.mean(axis=1)
            d = np.subtract(stack, m[:, None, :], out=stack)
            v = np.einsum("tnc,tnc->tc", d, d) / (n - 1)
            cov = np.matmul(d.transpose(0, 2, 1), d) / (n - 1)
            values, valid = tile_q(m, v, cov)
        return np.where(valid, values, 0.0).sum(axis=0), np.count_nonzero(valid, axis=0)

    rows = range(0, height - block + 1, block)
    total, count = map(sum, zip(*_map_strips(lambda r, _: tile_row(r), rows, lambda: None)))
    channels = [p[:, :, c] for p in parts for c in range(p.shape[2])]

    def fallback(a, b):
        pairs = zip(np.atleast_1d(a), np.atleast_1d(b))
        same = (np.allclose(channels[i], channels[j], rtol=1e-9, atol=0.0) for i, j in pairs)
        return 1.0 if all(same) else 0.0

    return [
        float(total[k] / count[k]) if count[k] else fallback(a, b)
        for k, (a, b) in enumerate(groups)
    ]


def valid_counts(tile_q):
    """``tile_q`` and a list that gets each call's count of valid tiles per output."""
    counts = []

    def counted(m, v, cov):
        values, valid = tile_q(m, v, cov)
        counts.append(np.count_nonzero(valid, axis=0))
        return values, valid

    return counted, counts


def tile_case(height, width, channels, index, constant):
    """(parts, tile_q, groups) over a stack split into ``channels``: every
    channel pair (``uiqi``) or the first half against the second (``q2n``).
    ``constant`` is "none", "some" (channels 1 and the last share one
    constant, channel 0 holds another) or "all" (every tile degenerate)."""
    total = sum(channels)
    stack = np.random.default_rng(height * width + total).uniform(0.1, 0.9, (height, width, total))
    if constant == "some":
        stack[:, :, [1, total - 1]] = 0.3
        stack[:, :, 0] = 0.6
    elif constant == "all":
        stack[:, :, :] = np.linspace(0.2, 0.8, total)
        stack[:, :, -1] = stack[0, 0, 0]
    parts = tuple(np.split(stack, np.cumsum(channels)[:-1], axis=2))
    if index == "q2n":
        bands = total // 2
        return parts, metrics._q2n(bands), [(range(bands), range(bands, total))]
    pairs = list(itertools.combinations(range(total), 2))
    return parts, metrics._uiqi(pairs), pairs


# Channel splits of 2 to 17 channels; the even two-part splits also run as Q2^n.
TILE_SPLITS = [((1, 1), "uiqi"), ((1, 1), "q2n"), ((2, 1, 3), "uiqi"), ((4, 4), "q2n"),
               ((5, 1), "uiqi"), ((3, 4, 2), "uiqi"), ((8, 8), "q2n"), ((16, 1), "uiqi")]


@pytest.mark.parametrize("height, width", TILE_SHAPES)
@pytest.mark.parametrize("block", [2, 8, 32])
@pytest.mark.parametrize("channels, index", TILE_SPLITS,
                         ids=[f"{sum(c)}ch-{len(c)}part-{i}" for c, i in TILE_SPLITS])
@pytest.mark.parametrize("constant", ["none", "some", "all"])
def test_tile_index_matches_tnc_body(height, width, block, channels, index, constant):
    """Within 1e-12 of the (tiles, n, C) body, with the same valid tiles per
    output; constant channels fall back pair by pair, and a stack of constant
    channels skips every tile and falls back whole."""
    parts, tile_q, groups = tile_case(height, width, channels, index, constant)
    got_q, got_counts = valid_counts(tile_q)
    want_q, want_counts = valid_counts(tile_q)
    got = metrics._tile_index(parts, block, got_q, groups)
    want = tnc_tile_index(parts, block, want_q, groups)
    assert len(got) == len(want) == len(groups)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
    assert np.array_equal(sum(got_counts), sum(want_counts))
    if constant == "all":
        assert not np.any(sum(got_counts))
        assert got == want
    elif constant == "some" and index == "uiqi":
        last = sum(channels) - 1
        if last > 1:
            assert got[groups.index((1, last))] == 1.0
        assert got[groups.index((0, 1))] == 0.0


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 2), (16, 9, 4), (33, 17, 3)])
def test_written_bytes_match_old_writer(tmp_path, shape):
    raster = Raster(np.random.default_rng(sum(shape)).standard_normal(shape))
    path = tmp_path / "r.msr"
    write_raster(raster, path)
    assert path.read_bytes() == old_msr_bytes(raster)


def random_layer(rng, c_in, c_out, k, stride, slope=0.2):
    return ConvLayer(
        weights=rng.normal(0.0, 0.3, (c_out, c_in, k, k)),
        bias=rng.normal(0.0, 0.05, c_out),
        stride=stride,
        leaky_slope=slope,
    )


def assert_close_to_oracle(got, want):
    """Within 1e-12 of the oracle's largest magnitude, and the same shape."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# (height, width): a single pixel, sides shorter than the kernel, odd and
# non-square sides, and the benchmark's patch size.
CONV_SHAPES = [(1, 1), (2, 3), (7, 9), (64, 64), (33, 17)]


@pytest.mark.parametrize("height, width", CONV_SHAPES)
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("c_in, c_out", [(1, 1), (4, 8), (8, 3)])
def test_conv_layer_matches_einsum_body(height, width, k, stride, c_in, c_out):
    rng = np.random.default_rng(height * 1000 + width * 100 + k * 10 + stride + c_in * c_out)
    layer = random_layer(rng, c_in, c_out, k, stride)
    x = rng.random((height, width, c_in))
    assert_close_to_oracle(_apply_layer(x, layer), old_apply_layer(x, layer))


@pytest.mark.parametrize("k, stride", [(1, 1), (3, 2), (5, 3)])
def test_conv_layer_all_negative_takes_leaky_branch(k, stride):
    """Negative weights and bias on a positive input: every output is on the
    leaky branch, slope times the linear response."""
    rng = np.random.default_rng(k + stride)
    layer = ConvLayer(
        weights=-rng.random((3, 2, k, k)) - 0.1,
        bias=-rng.random(3) - 0.1,
        stride=stride,
        leaky_slope=0.3,
    )
    x = rng.random((9, 8, 2)) + 0.1
    got = _apply_layer(x, layer)
    assert np.all(got < 0)
    assert_close_to_oracle(got, old_apply_layer(x, layer))
    linear = ConvLayer(weights=layer.weights, bias=layer.bias, stride=stride, leaky_slope=1.0)
    assert_close_to_oracle(got, 0.3 * old_apply_layer(x, linear))


@st.composite
def stacks_and_inputs(draw, slopes=st.sampled_from([0.0, 0.2, 1.0, -0.5])):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    bands = draw(st.integers(1, 6))
    layers, c_in = [], bands
    for _ in range(draw(st.integers(1, 3))):
        c_out = draw(st.integers(1, 6))
        k, stride = draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, 3))
        slope = draw(slopes)
        layers.append(random_layer(rng, c_in, c_out, k, stride, slope))
        c_in = c_out
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    x = Raster(rng.random((height, width, bands)))
    return ConvStackSpec(bands=bands, layers=tuple(layers)), x


@settings(derandomize=True, deadline=None, max_examples=60)
@given(stacks_and_inputs())
def test_extract_features_matches_einsum_stack(case):
    spec, x = case
    got = extract_features(x, spec).data
    want = old_extract_features(x.data, spec)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), np.finfo(float).tiny)


def test_extract_features_same_bits_at_one_and_two_blas_threads():
    """Each output element sums its taps in one fixed order, whatever the
    BLAS thread count."""
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from panfuse import ConvLayer, ConvStackSpec, Raster, extract_features\n"
        "rng = np.random.default_rng(12)\n"
        "layers = tuple(\n"
        "    ConvLayer(rng.normal(0.0, 0.3, (o, i, 3, 3)), rng.normal(0.0, 0.05, o), s, 0.2)\n"
        "    for i, o, s in ((4, 8, 1), (8, 16, 2))\n"
        ")\n"
        "x = Raster(rng.random((64, 64, 4)))\n"
        "out = extract_features(x, ConvStackSpec(bands=4, layers=layers))\n"
        "print(hashlib.sha256(out.data.tobytes()).hexdigest())\n"
    )
    src = str(Path(panfuse.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        outputs.append(done.stdout.strip())
    assert outputs[0] == outputs[1]


def test_gradient_ids_kept_in_order():
    assert GRADIENT_LOSSES == tuple(GRADIENTS) == (
        "l1",
        "mse",
        "sam_cosine",
        "total_sam",
        "gm_reconstruction",
        "perceptual_identity",
        "gm_perceptual_identity",
    )


@pytest.mark.parametrize("loss_id", GRADIENT_LOSSES)
@pytest.mark.parametrize("height, width, bands", [(8, 8, 4), (12, 16, 3), (4, 20, 2)])
@pytest.mark.parametrize("same", [False, True])
def test_gradient_table_matches_old_if_chain(loss_id, height, width, bands, same):
    """Bit-equal to the old if-chain, also at identity, where the Frobenius
    gradients take their zero branch."""
    rng = np.random.default_rng(height * width + bands)
    fused = Raster(rng.random((height, width, bands)))
    reference = fused if same else Raster(rng.random((height, width, bands)))
    lrms = Raster(rng.random((height // 4, width // 4, bands)))
    got = loss_gradient(loss_id, fused, reference, lrms=lrms, ratio=4)
    want = old_loss_gradient(loss_id, fused, reference, lrms=lrms, ratio=4)
    assert np.array_equal(got.data, want.data)


def masked_apply_layer(arr, layer):
    """The per-tap conv layer before it padded into ``np.zeros``, laid its taps
    out once per layer and took the leaky ReLU as a max or min: ``np.pad``,
    taps per call, and the masked multiply."""
    k, s = layer.kernel_size, layer.stride
    pad = k // 2
    padded = np.pad(arr, ((pad, pad), (pad, pad), (0, 0)))
    h, w = (arr.shape[0] - 1) // s + 1, (arr.shape[1] - 1) // s + 1
    taps = np.ascontiguousarray(layer.weights.transpose(2, 3, 1, 0))
    out = np.empty((h, w, layer.out_channels))
    out[...] = layer.bias
    term = np.empty_like(out)
    for i in range(k):
        for j in range(k):
            np.matmul(padded[i::s, j::s][:h, :w], taps[i, j], out=term)
            out += term
    np.multiply(out, layer.leaky_slope, out=out, where=out <= 0)
    return out


def np_sum_sam_loss(f, t):
    """The cosine branch of ``_sam_loss`` with ``np.sum`` band reductions."""
    dots = np.sum(f * t, axis=2)
    norms = np.sqrt(np.sum(f * f, axis=2)) * np.sqrt(np.sum(t * t, axis=2))
    return max(float(np.mean(1.0 - dots / (norms + LOSS_EPS))), 0.0)


def np_sum_sam_parts(f, t):
    """``_sam_parts`` with ``np.sum`` band reductions."""
    parts = np.sum(f * t, axis=2), np.sqrt(np.sum(f * f, axis=2)), np.sqrt(np.sum(t * t, axis=2))
    for p in parts:
        p.flags.writeable = False
    return parts


def np_sum_sam_cosine_gradient(fused, target):
    """The cosine SAM gradient, ``_sam_parts_gradient`` of ``_sam_parts``, with
    ``np.sum`` band reductions."""
    npix = fused.shape[0] * fused.shape[1]
    dots = np.sum(fused * target, axis=2)
    nf = np.sqrt(np.sum(fused * fused, axis=2))
    nt = np.sqrt(np.sum(target * target, axis=2))
    den = nf * nt + LOSS_EPS
    nf_safe = np.maximum(nf, LOSS_EPS)
    term = (
        target * den[:, :, None]
        - (dots * nt / nf_safe)[:, :, None] * fused
    ) / (den * den)[:, :, None]
    return -term / npix


def signed_zero_cube(rng, shape, scale=1.0):
    """Normal values over many magnitudes, a third of them replaced by +0.0 or
    -0.0, with one all -0.0 pixel and one all +0.0 pixel."""
    cube = scale * rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    zeros = rng.random(shape) < 0.3
    cube[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    cube[0, 0] = -0.0
    cube[-1, -1] = 0.0
    return cube


BAND_COUNTS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16]
# Non-negative slopes, which the max or min form serves, and the sign-bit
# slopes, which keep the masked multiply.
SLOPES = [0.0, 0.2, 1.0, 2.5, 1e300, -0.5, -0.0]


@pytest.mark.parametrize("bands", BAND_COUNTS)
def test_band_sum_same_bits_as_np_sum(bands):
    rng = np.random.default_rng(bands)
    cube = signed_zero_cube(rng, (9, 13, bands))
    for view in (cube, cube[::2, 1::3], np.asfortranarray(cube)):
        assert same_bits(_band_sum(view), np.sum(view, axis=2))


@pytest.mark.parametrize("slope", SLOPES)
def test_leaky_relu_same_bits_as_masked_multiply(slope):
    rng = np.random.default_rng(7)
    x = signed_zero_cube(rng, (11, 10, 3))
    x[1, 1] = [5e-324, -5e-324, 1e308]
    got, want = x.copy(), x.copy()
    with np.errstate(over="ignore"):
        _leaky_relu(got, slope)
        np.multiply(want, slope, out=want, where=want <= 0)
    assert same_bits(got, want)


@pytest.mark.parametrize("slope", SLOPES)
@pytest.mark.parametrize("height, width", [(1, 1), (7, 9), (64, 64)])
@pytest.mark.parametrize("k, stride", [(1, 1), (3, 1), (3, 2), (5, 3)])
def test_conv_layer_same_bits_as_masked_body(slope, height, width, k, stride):
    rng = np.random.default_rng(height + k * 10 + stride)
    layer = random_layer(rng, 4, 8, k, stride, slope)
    x = signed_zero_cube(rng, (height, width, 4))
    with np.errstate(over="ignore"):
        assert same_bits(_apply_layer(x, layer), masked_apply_layer(x, layer))


@pytest.mark.parametrize("slope", SLOPES)
def test_conv_layer_passes_signed_zeros_like_masked_body(slope):
    """A 1 x 1 identity layer on a -0.0 bias hands the activation the input's
    zeros of both signs."""
    rng = np.random.default_rng(3)
    layer = ConvLayer(weights=np.eye(3)[:, :, None, None], bias=np.full(3, -0.0),
                      stride=1, leaky_slope=slope)
    x = signed_zero_cube(rng, (6, 5, 3))
    with np.errstate(over="ignore"):
        assert same_bits(_apply_layer(x, layer), masked_apply_layer(x, layer))


# The slopes above but 1e300, which would overflow a stack to inf.
STACK_SLOPES = st.one_of(st.sampled_from([0.0, 0.2, 1.0, 2.5, -0.5, -0.0]), st.floats(0.0, 4.0))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(stacks_and_inputs(STACK_SLOPES))
def test_extract_features_same_bits_as_masked_stack(case):
    spec, x = case
    want = x.data
    for layer in spec.layers:
        want = masked_apply_layer(want, layer)
    assert same_bits(extract_features(x, spec).data, want)


@pytest.mark.parametrize("bands", BAND_COUNTS[1:])
def test_sam_value_and_gradient_same_bits_as_np_sum_body(bands):
    rng = np.random.default_rng(100 + bands)
    f = signed_zero_cube(rng, (12, 10, bands), 1e-3)
    t = signed_zero_cube(rng, (12, 10, bands), 1e-3)
    t[1, 0] = -0.0  # a pixel where only the target is all -0.0
    for a, b in ((f, t), (t, f), (f, f)):
        assert same_bits(_sam_loss(a, b, "cosine"), np_sum_sam_loss(a, b))
        got = _sam_parts_gradient(a, b, _sam_parts(a, b))
        assert same_bits(got, np_sum_sam_cosine_gradient(a, b))


@pytest.mark.parametrize("bands", [2, 4, 8, 9])
def test_total_sam_same_bits_as_np_sum_body(monkeypatch, bands):
    """Total SAM's value and gradient, and the SAM gradient, against the same
    calls with ``losses._sam_parts``, where the band sums are taken, patched to
    ``np.sum`` reductions. Each run builds fresh rasters of the same values, so
    no memo entry of the first run answers the second."""
    rng = np.random.default_rng(bands)
    arrays = rng.random((16, 12, bands)), rng.random((16, 12, bands)), rng.random((4, 3, bands))

    def run():
        fused, reference, lrms = (Raster(a) for a in arrays)
        return (
            total_sam_loss(fused, reference, lrms, 4),
            loss_gradient("total_sam", fused, reference, lrms=lrms, ratio=4).data,
            loss_gradient("sam_cosine", fused, reference).data,
        )

    got = run()
    calls = []

    def patched(f, t):
        calls.append(f.shape)
        return np_sum_sam_parts(f, t)

    monkeypatch.setattr(losses, "_sam_parts", patched)
    for g, w in zip(got, run()):
        assert same_bits(g, w)
    # Total SAM's two scales, shared by its value and gradient, then the SAM gradient.
    assert calls == [(16, 12, bands), (4, 3, bands), (16, 12, bands)]


@pytest.mark.parametrize("bands", [2, 4, 8, 9])
def test_total_sam_same_bits_as_np_sum_parts(bands):
    """Total SAM's value and gradient on fresh rasters, which no memo entry
    answers, against np.sum parts at both scales, built here through the same
    downsample and its adjoint."""
    rng = np.random.default_rng(200 + bands)
    f, r, lr = rng.random((16, 12, bands)), rng.random((16, 12, bands)), rng.random((4, 3, bands))
    down = _downsample(f, 4)
    value = 0.5 * np_sum_sam_loss(f, r) + 0.5 * np_sum_sam_loss(down, lr)
    grad = 0.5 * np_sum_sam_cosine_gradient(f, r) + 0.5 * _downsample_adjoint(
        np_sum_sam_cosine_gradient(down, lr), 4
    )
    fused, reference, lrms = Raster(f), Raster(r), Raster(lr)
    assert same_bits(total_sam_loss(fused, reference, lrms, 4), value)
    assert same_bits(loss_gradient("total_sam", fused, reference, lrms, 4).data, grad)


@pytest.mark.parametrize("bands", [3, 4, 8, 9])
def test_band_mean_same_bits_as_np_mean(bands):
    """Over several row strips, with zeros of both signs."""
    rng = np.random.default_rng(bands)
    cube = signed_zero_cube(rng, (150, 90, bands))
    assert same_bits(fusion._band_mean(cube), np.mean(cube, axis=2))


@pytest.mark.parametrize("method", ["gihs", "brovey", "gs"])
@pytest.mark.parametrize("bands", [4, 8])
def test_band_mean_fusions_same_bits_as_np_mean(monkeypatch, method, bands):
    hrms, pan = synth_scene(128, 96, bands, 11, [1.0] * bands)
    fin = FusionInput(downsample_antialias(hrms, 4), pan, 4)
    fuse = getattr(fusion, f"fuse_{method}")
    got = fuse(fin).data
    monkeypatch.setattr(fusion, "_band_mean", lambda cube: np.mean(cube, axis=2))
    assert same_bits(got, fuse(fin).data)


def strided_correlate_axis_adjoint(grad, kernel, axis, step=1):
    """The downsample adjoint's axis pass before each pass ran down the rows
    of a C-ordered, axis-first copy: the same scatter and fold on strided
    axis-first views of arrays kept in the caller's layout."""
    n = grad.shape[axis] * step
    pad = kernel.size // 2
    shape = list(grad.shape)
    shape[axis] = n + 2 * pad
    g = np.moveaxis(grad, axis, 0)
    scattered = np.moveaxis(np.zeros(shape, dtype=np.float64), axis, 0)
    for j, kj in enumerate(kernel):
        scattered[j : j + n : step] += kj * g
    src = _reflect(np.arange(-pad, n + pad), n)
    left = np.zeros((min(n, pad),) + g.shape[1:], dtype=np.float64)
    for p in range(pad):
        left[src[p]] += scattered[p]
    out = scattered[pad : pad + n]
    out[: left.shape[0]] += left
    for p in range(pad + n, n + 2 * pad):
        out[src[p]] += scattered[p]
    return np.moveaxis(out, 0, axis)


def strided_downsample_adjoint(grad, ratio):
    kernel = _gaussian_kernel(2 * ratio, ratio / 2.0)
    z = strided_correlate_axis_adjoint(grad, kernel, 1, ratio)
    return strided_correlate_axis_adjoint(z, kernel, 0, ratio)


def planted_cube(rng, shape):
    """Normal values over many magnitudes, subnormals among them, with zeros
    of both signs planted, one all -0.0 pixel and one all +0.0 pixel."""
    cube = signed_zero_cube(rng, shape)
    cube.flat[rng.integers(0, cube.size, 3)] = [5e-324, -5e-324, 2.2e-308]
    return cube


# The resampling shapes above, plus ratios up to 16 on sides shorter and
# longer than the 2*ratio kernel radius.
ADJOINT_SHAPES = RESAMPLE_SHAPES + [
    (64, 64, 4), (16, 16, 8), (32, 32, 16), (16, 48, 16), (40, 24, 8), (25, 15, 5),
]


@pytest.mark.parametrize("height, width, ratio", ADJOINT_SHAPES)
@pytest.mark.parametrize("bands", range(1, 10))
def test_downsample_adjoint_same_bits_as_strided_body(height, width, ratio, bands):
    rng = np.random.default_rng(height * 1000 + width * 10 + ratio + bands)
    for grad in (planted_cube(rng, (height // ratio, width // ratio, bands)),
                 rng.random((height // ratio, width // ratio, bands))):
        got = downsample_antialias_adjoint(Raster(grad), ratio, height, width).data
        assert same_bits(got, strided_downsample_adjoint(grad, ratio))


@pytest.mark.parametrize("ratio", [1, 2, 3, 4, 8, 16])
def test_gaussian_kernel_is_built_once_and_read_only(ratio):
    kernel = _gaussian_kernel(2 * ratio, ratio / 2.0)
    assert _gaussian_kernel(2 * ratio, ratio / 2.0) is kernel
    assert kernel.flags.writeable is False
    t = np.arange(-2 * ratio, 2 * ratio + 1, dtype=np.float64)
    k = np.exp(-0.5 * (t / (ratio / 2.0)) ** 2)
    assert same_bits(kernel, k / k.sum())


@pytest.mark.parametrize("bands", [2, 4, 8, 9])
@pytest.mark.parametrize("gradient_first", [False, True])
def test_total_sam_same_bits_as_unshared_np_sum_body(bands, gradient_first):
    """Total SAM's value and gradient through the loss memo, in either order,
    against the ``np.sum`` SAM bodies, a downsample of their own and the
    strided adjoint."""
    rng = np.random.default_rng(200 + bands)
    fused = Raster(signed_zero_cube(rng, (16, 12, bands), 1e-3))
    reference = Raster(signed_zero_cube(rng, (16, 12, bands), 1e-3))
    lrms = Raster(rng.random((4, 3, bands)))
    down = _downsample(fused.data, 4)
    want_value = 0.5 * np_sum_sam_loss(fused.data, reference.data) + 0.5 * np_sum_sam_loss(
        down, lrms.data
    )
    want_grad = 0.5 * np_sum_sam_cosine_gradient(fused.data, reference.data) + (
        0.5 * strided_downsample_adjoint(np_sum_sam_cosine_gradient(down, lrms.data), 4)
    )
    for memo in (losses._total_sam_parts, losses._gram_delta):
        memo.entries = ()
    calls = [lambda: total_sam_loss(fused, reference, lrms, 4),
             lambda: loss_gradient("total_sam", fused, reference, lrms=lrms, ratio=4).data]
    got = [call() for call in (calls[::-1] if gradient_first else calls)]
    got_value, got_grad = got[::-1] if gradient_first else got
    assert same_bits(got_value, want_value)
    assert same_bits(got_grad, want_grad)


# (height, width, ratio, bands) of downsamples that cross row strips: several
# strips with a partial last one, widths above 1024 whose strips hold 1 to 3
# output rows, and sides shorter than the 2*ratio kernel radius, where a
# border folds back onto the image more than once inside one strip.
MULTI_STRIP_SHAPES = [
    (120, 255, 3, 4),   # 2 strips: 32 rows, then 8
    (200, 160, 2, 3),   # 2 strips: 68 rows, then 32
    (96, 1024, 4, 4),   # 3 strips of 8 rows
    (24, 1032, 4, 8),   # 2 strips of 3 rows
    (40, 2056, 8, 4),   # 3 rows, then 2
    (12, 4104, 4, 8),   # 3 strips of 1 row
    (6, 4104, 3, 8),    # 2 strips of 1 row; each strip folds its rows
    (4, 2052, 4, 4),    # one output row from 4 rows, folded more than once
    (2, 1030, 2, 4),    # one output row from 2 rows, folded more than once
    (320, 4, 4, 1),     # 4 columns, folded more than once along every row
]


@pytest.mark.parametrize("height, width, ratio, bands", MULTI_STRIP_SHAPES)
def test_multi_strip_downsample_same_bits_as_old_body(height, width, ratio, bands):
    rng = np.random.default_rng(height * 7 + width + ratio)
    x = signed_zero_cube(rng, (height, width, bands))
    got = downsample_antialias(Raster(x), ratio).data
    assert same_bits(got, old_downsample(x, ratio))


@pytest.mark.parametrize("height, width, ratio, bands", MULTI_STRIP_SHAPES)
def test_multi_strip_downsample_of_a_plane_same_bits_as_old_body(height, width, ratio, bands):
    """The 2-D pan plane that GS ``blur-decimate`` downsamples."""
    rng = np.random.default_rng(height * 5 + width + ratio)
    x = signed_zero_cube(rng, (height, width * bands))
    want = old_downsample(x[:, :, None], ratio)[:, :, 0]
    assert same_bits(_downsample(x, ratio), want)


def test_multi_strip_shapes_cross_strips():
    counts = [len(_row_strips(h // r, w, b)) for h, w, r, b in MULTI_STRIP_SHAPES]
    assert counts == [2, 2, 3, 2, 2, 3, 2, 1, 1, 1]
    assert {ratio for _, _, ratio, _ in MULTI_STRIP_SHAPES} == {2, 3, 4, 8}


def full_copy_hpf(fin):
    """HPF fusion with the whole-axis low-pass: a reflected copy of the whole
    pan per pass, and a full-size low-pass and residual."""
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    k = 2 * fin.ratio + 1
    kernel = np.full(k, 1.0 / k)
    pan2d = fin.pan.data[:, :, 0]
    detail = pan2d - old_correlate_axis(old_correlate_axis(pan2d, kernel, 0), kernel, 1)
    return np.clip(ms_up + 1.0 * detail[:, :, None], 0.0, 1.0)


# (lrms height, lrms width, ratio, row strips of the pan); every last strip
# is partial.
HPF_STRIP_SCENES = [(80, 64, 4, 3), (25, 256, 4, 4), (50, 700, 2, 5)]


@pytest.mark.parametrize("height, width, ratio, strips", HPF_STRIP_SCENES)
def test_multi_strip_hpf_same_bits_as_full_copy(height, width, ratio, strips):
    rng = np.random.default_rng(height + width + ratio)
    pan = rng.random((height * ratio, width * ratio, 1))
    pan[: 2 * ratio, :, 0] = -0.0
    fin = FusionInput(Raster(rng.random((height, width, 4))), Raster(pan), ratio)
    assert len(_row_strips(height * ratio, width * ratio, 1)) == strips
    assert same_bits(fusion.fuse_hpf(fin).data, full_copy_hpf(fin))


@pytest.mark.parametrize("size", [512, 1024])
def test_downsample_memory_is_the_output_and_a_few_strips(size):
    """No reflected copy of the whole input and no full-width intermediate:
    the allocation peak stays within 4 MiB of the output."""
    x = Raster(np.random.default_rng(size).random((size, size, 4)))
    downsample_antialias(x, 4)  # builds the cached kernel
    tracemalloc.start()
    try:
        out = downsample_antialias(x, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.data.nbytes + 4 * 2**20
