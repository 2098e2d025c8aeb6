"""Full-reference and no-reference quality metrics for fused imagery.

SAM, ERGAS, the Wang-Bovik universal image quality index, its hypercomplex
extension Q2^n for any band count (Q4 on 4), Gaussian-window SSIM, and the
QNR distortion pair, plus report assembly and CSV/JSON serialization.

All statistics over Q-index tiles use the unbiased (n-1) normalization,
and tiles are distinct (non-overlapping) blocks evaluated in fixed index
order so results are bit-deterministic.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._strips import _map_strips, _row_strips, _shaped
from .errors import DegenerateInputError, ShapeMismatchError, UsageError
from .raster import (
    _EPS,
    Raster,
    _LastTwo,
    _band_sum,
    _check_bands,
    _check_same_shape,
    _check_scale_pair,
    _finite_result,
    _frozen,
    _positive_int,
    _row_scratch,
    _rows,
)
from .resample import _downsample, _gaussian_kernel

METRIC_COLUMNS = ("ssim", "sam", "ergas", "q4", "qnr")


def _columns(q_order: int) -> tuple[str, ...]:
    return tuple(f"q{q_order}" if name == "q4" else name for name in METRIC_COLUMNS)


@dataclass(frozen=True)
class MetricReport:
    """One evaluated method: the five Table-style metric values.

    Value ranges: ssim in [-1, 1], sam in [0, pi] (radians), ergas >= 0,
    q4 in [0, 1] up to 8 bands (q2-q8), qnr in [0, 1]. ``q4`` is the Q2^n of order
    ``q_order``, which names its column: q2, q4, q8, q16 for 2, 3-4, 5-8, 9-16 bands.
    """

    method: str
    ssim: float
    sam: float
    ergas: float
    q4: float
    qnr: float
    q_order: int = 4

    def as_dict(self) -> dict[str, float | str]:
        values = (round(getattr(self, name), 6) for name in METRIC_COLUMNS)
        return {"method": self.method, **dict(zip(_columns(self.q_order), values))}


@_finite_result
def metric_sam(fused: Raster, reference: Raster) -> float:
    """Mean spectral angle between per-pixel band vectors, in radians.

    Pixels where either spectrum has near-zero norm contribute zero. The
    angle is evaluated with the two-argument arctangent of the normalized
    sum/difference vectors, which is algebraically the arccos of the
    cosine similarity but avoids the catastrophic arccos cancellation
    near zero angle. Each :func:`_row_strips` strip sums its own angles, and
    the strip sums are added in strip order: the same bits on any CPU count.
    A strip works in three cube and four plane buffers of its thread's scratch.
    """
    _check_same_shape(fused, reference)
    _check_bands("sam", fused.bands, 2)
    strips = _row_strips(*fused.data.shape)
    plane = strips[0].stop * fused.width

    def scratch() -> tuple:
        cubes = [np.empty(plane * fused.bands) for _ in range(3)]
        planes = [np.empty(plane) for _ in range(2)] + [np.empty(plane, bool) for _ in range(2)]
        return *cubes, *planes, _row_scratch(reference.data, strips[0].stop)

    def strip(rows: slice, buffers: tuple) -> float:
        u, v, d, nf, ng, mask, ng_ok, g_rows = buffers
        f = _rows(fused.data, rows, d)  # a row file's strip is read into d's buffer
        g = _rows(reference.data, rows, g_rows)
        u, v, d = (_shaped(b, f.shape) for b in (u, v, d))
        nf, ng, mask, ng_ok = (_shaped(b, f.shape[:2]) for b in (nf, ng, mask, ng_ok))
        np.sqrt(_band_sum(np.multiply(f, f, out=u), nf), out=nf)
        np.sqrt(_band_sum(np.multiply(g, g, out=u), ng), out=ng)
        np.greater_equal(nf, _EPS, out=mask)
        mask &= np.greater_equal(ng, _EPS, out=ng_ok)
        u.fill(0.0)
        np.divide(f, nf[:, :, None], out=u, where=mask[:, :, None])
        v.fill(0.0)
        np.divide(g, ng[:, :, None], out=v, where=mask[:, :, None])
        np.subtract(u, v, out=d)  # over f's rows, which are no longer needed
        s = np.add(u, v, out=u)
        diff = np.sqrt(_band_sum(np.multiply(d, d, out=d), nf), out=nf)
        summ = np.sqrt(_band_sum(np.multiply(s, s, out=s), ng), out=ng)
        # Masked pixels have u = v = 0, so their angle is atan2(0, 0) = 0.
        return 2.0 * float(np.arctan2(diff, summ, out=diff).sum())

    return sum(_map_strips(strip, strips, scratch)) / (fused.height * fused.width)


@_finite_result
def metric_ergas(fused: Raster, reference: Raster, ratio: int) -> float:
    """Dimensionless global relative synthesis error.

    100 * (1/ratio) * sqrt(mean_b(RMSE_b^2 / mu_b^2)) with mu_b the
    reference band means. Zero band means make the relative error
    undefined and are rejected. The squared errors and the reference band
    sums are summed per band in row strips, so no full-size difference array
    is made and the reference is read once. A strip's difference is its
    thread's one scratch cube.
    """
    ratio = _positive_int("ratio", ratio)
    _check_same_shape(fused, reference)
    strips = _row_strips(*fused.data.shape)

    def scratch() -> tuple:
        rows = strips[0].stop
        return np.empty(rows * fused.width * fused.bands), _row_scratch(reference.data, rows)

    def strip(rows: slice, buffers: tuple) -> tuple[np.ndarray, np.ndarray]:
        d, g_rows = buffers
        g = _rows(reference.data, rows, g_rows)
        f = _rows(fused.data, rows, d)  # a row file's strip is read into d's buffer
        d = np.subtract(f, g, out=_shaped(d, f.shape))
        return np.einsum("ijk,ijk->k", d, d), np.einsum("ijk->k", g)

    sq_err, ref_sum = map(sum, zip(*_map_strips(strip, strips, scratch)))
    pixels = fused.height * fused.width
    rmse = np.sqrt(sq_err / pixels)
    mu = ref_sum / pixels
    if np.any(np.abs(mu) < _EPS):
        raise DegenerateInputError("ergas: reference band mean is zero")
    return float(100.0 / ratio * np.sqrt(np.mean((rmse / mu) ** 2)))


def _tile_index(
    parts: tuple[np.ndarray, ...],
    block: int,
    tile_q: Callable[..., tuple[np.ndarray, np.ndarray]],
    groups: Sequence[tuple],
) -> list[float]:
    """Means of P per-tile indexes over the distinct block x block tiles of the
    channel stack of ``parts`` (H x W x C_k arrays); partial edge tiles are
    left out.

    Each row of tiles is one strip of :func:`_map_strips`: it is copied once
    into its thread's channel-major (tiles, C, block * block) scratch, so the
    means, deviations and variances run along contiguous pixels, its
    deviations are taken in place, and the covariance is one ``d @ d.T`` per
    tile. A row-file part's rows are read into that thread's scratch too.
    ``tile_q(m, v, cov)`` gets the per-tile channel means (t, C),
    variances (t, C) and covariances ``cov[t, i, j] = cov(c_i, c_j)``
    (t, C, C), all with (n-1) normalization, and returns (values, valid),
    each (t, P). The valid values of each output are summed in tile-row
    order. ``groups[k]`` is output k's two channel groups, each a channel
    index or a sequence of them: if no tile of output k is valid, its index
    is 1 when the two groups are equal within a relative 1e-9 (``np.allclose``,
    no absolute term): a constant that resampling moved by an ulp stays equal.
    The channels are compared strip by strip through :func:`raster._rows`, so
    a part may be a :class:`raster._RowFile`.
    """
    height, width, _ = parts[0].shape
    block = _positive_int("block", block)
    if block > min(height, width):
        raise ShapeMismatchError(f"block {block} larger than image {height}x{width}")
    if block < 2:
        raise ShapeMismatchError("block must be >= 2 for tile statistics")
    cols, n = width // block, block * block
    bounds = np.cumsum([0] + [p.shape[2] for p in parts])

    def scratch() -> tuple:
        return np.empty((cols, bounds[-1], n)), [_row_scratch(p, block) for p in parts]

    def tile_row(r: int, buffers: tuple) -> tuple[np.ndarray, np.ndarray]:
        stack, reads = buffers
        tiles = stack.reshape(cols, bounds[-1], block, block)
        for p, p_rows, lo, hi in zip(parts, reads, bounds, bounds[1:]):
            row = _rows(p, slice(r, r + block), p_rows)[:, : cols * block]
            tiles[:, lo:hi] = row.reshape(block, cols, block, hi - lo).transpose(1, 3, 0, 2)
        # Skipped tiles may divide by zero; their values are dropped below.
        with np.errstate(divide="ignore", invalid="ignore"):
            m = stack.mean(axis=2)
            d = np.subtract(stack, m[:, :, None], out=stack)
            v = np.einsum("tcn,tcn->tc", d, d) / (n - 1)
            cov = np.matmul(d, d.transpose(0, 2, 1)) / (n - 1)
            values, valid = tile_q(m, v, cov)
        return np.where(valid, values, 0.0).sum(axis=0), np.count_nonzero(valid, axis=0)

    tile_rows = range(0, height - block + 1, block)
    total, count = map(sum, zip(*_map_strips(tile_row, tile_rows, scratch)))
    channels = [(k, c) for k, p in enumerate(parts) for c in range(p.shape[2])]
    strips = _row_strips(height, width, max(p.shape[2] for p in parts))
    first, second = ([_row_scratch(p, strips[0].stop) for p in parts] for _ in range(2))

    def close(i: int, j: int) -> bool:
        """``np.allclose`` of channels i and j, strip by strip over every strip."""
        (a, c), (b, d) = channels[i], channels[j]
        return all([
            np.allclose(_rows(parts[a], rows, first[a])[:, :, c],
                        _rows(parts[b], rows, second[b])[:, :, d], rtol=1e-9, atol=0.0)
            for rows in strips
        ])

    def fallback(a, b) -> float:
        pairs = zip(np.atleast_1d(a), np.atleast_1d(b))
        return 1.0 if all(close(i, j) for i, j in pairs) else 0.0

    return [
        float(total[k] / count[k]) if count[k] else fallback(a, b)
        for k, (a, b) in enumerate(groups)
    ]


def _uiqi(pairs: Sequence[tuple[int, int]]) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """The per-tile UIQI of each channel pair (i, j), as a :func:`_tile_index`
    callback."""
    i, j = np.array(pairs).T

    def tile_q(m, v, cov) -> tuple[np.ndarray, np.ndarray]:
        mx, my = m[:, i], m[:, j]
        den_var = v[:, i] + v[:, j]
        den_mean = mx * mx + my * my
        valid = (den_var >= _EPS) & (den_mean >= _EPS)
        return 4.0 * cov[:, i, j] * mx * my / (den_var * den_mean), valid

    return tile_q


@_finite_result
def metric_uiqi(a: Raster, b: Raster, block: int) -> float:
    """Universal image quality index on distinct block x block tiles.

    Per tile: Q = 4*cov*mean_a*mean_b / ((var_a + var_b) * (mean_a^2 +
    mean_b^2)), the product of correlation, luminance, and contrast
    terms. Tiles with a vanishing denominator factor are skipped; if
    every tile is degenerate the index is 1 for inputs equal within a
    relative 1e-9 and 0 otherwise.
    """
    _check_same_shape(a, b)
    _check_bands("uiqi", a.bands, 1, exact=True)
    return _tile_index((a.data, b.data), block, _uiqi([(0, 1)]), [(0, 1)])[0]


@functools.cache
def _conj_signs(bands: int) -> np.ndarray:
    """S with e_i * conj(e_j) = S[i, j] * e_(i xor j) in the Cayley-Dickson
    algebra of the least dimension n = 2^k >= ``bands``: M_1 = [[1]] and M_2m
    = [[M, M^T], [M c, -M^T c]] give e_i * e_j = M[i, j] * e_(i xor j), where
    ``M c`` multiplies column q by c[q] (1 for q = 0, else -1), and S = M c."""
    m = np.ones((1, 1))
    while True:
        c = np.where(np.arange(len(m)) == 0, 1.0, -1.0)
        if len(m) >= bands:
            return _frozen(m * c)  # cached: every caller shares this array
        m = np.block([[m, m.T], [m * c, -m.T * c]])


def _q2n(bands: int) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """Per-tile Q2^n of channels 0..B-1 (z1) against B..2B-1 (z2), for :func:`_tile_index`:
    component k of the covariance sums S[i, j] * cov(z1_i, z2_j) over i xor j = k;
    the zero-padded channels add nothing, so only the B x B corner of S is used."""
    sign = _conj_signs(bands)
    i, j = np.indices((bands, bands))
    table = np.zeros((len(sign), bands, bands))
    table[i ^ j, i, j] = sign[i, j]

    def tile_q(m, v, cov) -> tuple[np.ndarray, np.ndarray]:
        mx, my = m[:, :bands], m[:, bands:]
        var1, var2 = v[:, :bands].sum(axis=1), v[:, bands:].sum(axis=1)
        q = np.einsum("tij,kij->tk", cov[:, :bands, bands:], table)
        mod_cov = np.sqrt(np.sum(q * q, axis=1))
        mod_mu1 = np.sqrt(np.sum(mx * mx, axis=1))
        mod_mu2 = np.sqrt(np.sum(my * my, axis=1))
        den_corr = np.sqrt(var1) * np.sqrt(var2)
        den_var = var1 + var2
        den_mean = mod_mu1 * mod_mu1 + mod_mu2 * mod_mu2
        valid = (den_corr >= _EPS) & (den_var >= _EPS) & (den_mean >= _EPS)
        corr, contrast = mod_cov / den_corr, 2.0 * den_corr / den_var
        values = corr * contrast * (2.0 * mod_mu1 * mod_mu2 / den_mean)
        return values[:, None], valid[:, None]

    return tile_q


@_finite_result
def metric_q2n(fused: Raster, reference: Raster, block: int) -> float:
    """Hypercomplex quality index Q2^n (Alparone et al. 2004; Garzelli and Nencini
    2009): a pixel's B >= 2 bands are one Cayley-Dickson number of order 2^ceil(log2 B)
    (complex for 2 bands, octonion for 5-8); tiles are scored, skipped and averaged as
    in :func:`metric_uiqi`, with hypercomplex moments. Q in [0, 1] up to 8 bands only."""
    _check_same_shape(fused, reference)
    bands = _check_bands("q2n", fused.bands, 2)
    groups = [(range(bands), range(bands, 2 * bands))]
    return _tile_index((reference.data, fused.data), block, _q2n(bands), groups)[0]


def metric_q4(fused: Raster, reference: Raster, block: int) -> float:
    """Quaternion quality index: :func:`metric_q2n` of exactly 4-band imagery."""
    _check_bands("q4", fused.bands, 4, exact=True)
    return metric_q2n(fused, reference, block)


def _ssim_window() -> np.ndarray:
    """SSIM's 11-tap Gaussian (sigma 1.5): the cached taps of the resampler."""
    return _gaussian_kernel(5, 1.5)


def _valid_window_mean(
    x: np.ndarray, kernel: np.ndarray, vertical: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Separable valid-mode correlation with a 1-D kernel over the first two
    axes of an H x W x B array, into the flat scratch ``out`` through the flat
    scratch ``vertical``: the first (H - k + 1) * W * B values of ``vertical``
    and the first (H - k + 1) * (W - k + 1) * B of ``out`` are written.

    Each pass is one ``einsum`` over a window view of the taps. The
    horizontal pass reads the (rows, W * B) array in windows of
    ``(k - 1) * B + 1`` values and keeps every B-th one, the same band of the
    k neighbouring columns. einsum runs without ``optimize``, so no BLAS call.
    """
    k = kernel.size
    rows, width, bands = x.shape[0] - k + 1, x.shape[1], x.shape[2]
    cols = width - k + 1
    window = sliding_window_view(x, k, axis=0)
    vertical = np.einsum("rwbk,k->rwb", window, kernel, out=_shaped(vertical, (rows, width, bands)))
    flat = vertical.reshape(rows, width * bands)
    taps = sliding_window_view(flat, (k - 1) * bands + 1, axis=1)[:, : cols * bands, ::bands]
    return np.einsum("rik,k->ri", taps, kernel, out=_shaped(out, (rows, cols * bands))).reshape(
        rows, cols, bands
    )


@_finite_result
def metric_ssim(fused: Raster, reference: Raster) -> float:
    """Mean structural similarity over an 11x11 Gaussian window (sigma 1.5).

    Constants C1 = (0.01*L)^2 and C2 = (0.03*L)^2 with dynamic range
    L = 1 for [0, 1] data. The map is computed in valid mode (no border
    extrapolation) per band, then averaged over map and bands.

    Four window means give the map: mu_x, mu_y, E[x^2 + y^2] and E[xy], with
    var_x + var_y = E[x^2 + y^2] - (mu_x^2 + mu_y^2) and cov = E[xy] -
    mu_x*mu_y; every term is symmetric in x and y, so swapping the inputs
    gives the same bits. The map is evaluated in the :func:`_row_strips`
    strips of output rows across all bands, each at least twice the 10-row
    window halo (a strip then reads at most 1.5 times its output rows), and
    the strips' band sums are added in strip order. A strip works in five
    buffers of its thread's scratch: two of its input rows, one of the
    vertical pass and two of its output rows.
    """
    _check_same_shape(fused, reference)
    if min(fused.height, fused.width) < 11:
        raise ShapeMismatchError(
            f"image {fused.height}x{fused.width} smaller than 11x11 ssim window"
        )
    c1, c2 = 0.01**2, 0.03**2
    kernel = _ssim_window()
    halo = kernel.size - 1
    rows, cols = fused.height - halo, fused.width - halo
    strips = _row_strips(rows, fused.width, fused.bands, 2 * halo)

    def scratch() -> tuple:
        out_rows, width, bands = strips[0].stop, fused.width, fused.bands
        inputs = [np.empty((out_rows + halo) * width * bands) for _ in range(2)]
        outputs = [np.empty(out_rows * cols * bands) for _ in range(2)]
        y_rows = _row_scratch(reference.data, out_rows + halo)
        return *inputs, np.empty(out_rows * width * bands), *outputs, y_rows

    def strip(out_rows: slice, buffers: tuple) -> np.ndarray:
        a, p, vertical, e, m, y_rows = buffers
        in_rows = slice(out_rows.start, out_rows.stop + halo)
        x = _rows(fused.data, in_rows, a)  # a row file's strip is read into a's buffer
        y = _rows(reference.data, in_rows, y_rows)
        # ((2 mu_xy + C1)(2 (E[xy] - mu_xy) + C2)) / ((mu_sq + C1)(E[x^2 + y^2]
        # - mu_sq + C2)) with mu_xy = mu_x mu_y and mu_sq = mu_x^2 + mu_y^2,
        # each step in place in a buffer whose value is no longer needed.
        mu_x = _valid_window_mean(x, kernel, vertical, m)
        mu_y = _valid_window_mean(y, kernel, vertical, p)
        mu_xy = np.multiply(mu_x, mu_y, out=_shaped(e, mu_x.shape))
        mu_sq = np.multiply(mu_x, mu_x, out=mu_x)
        mu_sq += np.multiply(mu_y, mu_y, out=mu_y)
        e_xy = _valid_window_mean(np.multiply(x, y, out=_shaped(p, x.shape)), kernel, vertical, p)
        e_xy -= mu_xy
        e_xy *= 2
        e_xy += c2
        mu_xy *= 2
        mu_xy += c1
        mu_xy *= e_xy
        prod = np.multiply(y, y, out=_shaped(p, y.shape))
        prod += np.multiply(x, x, out=_shaped(a, x.shape))  # y*y + x*x: the bits of x*x + y*y
        e_sq = _valid_window_mean(prod, kernel, vertical, a)
        e_sq -= mu_sq
        e_sq += c2
        mu_sq += c1
        mu_sq *= e_sq
        mu_xy /= mu_sq
        return mu_xy.sum(axis=(0, 1))

    band_sums = sum(_map_strips(strip, strips, scratch))
    return float(np.mean(band_sums / (rows * cols)))


def _qnr_pairs(nbands: int) -> list[tuple[int, int]]:
    """QNR's channel pairs over a band stack with the pan as channel ``nbands``:
    each unordered band pair once (Q is symmetric), then each band with the pan."""
    return [*itertools.combinations(range(nbands), 2), *((b, nbands) for b in range(nbands))]


@_LastTwo
def _qnr_low(lrms: Raster, pan: Raster, ratio: int, lr_block: int) -> tuple[float, ...]:
    """The low-resolution side of :func:`metric_qnr`: the Q index of each
    :func:`_qnr_pairs` pair over ``lrms`` and the pan downsampled by ``ratio``,
    in ``lr_block`` tiles. It does not depend on the fused image, so every
    method evaluated against one (lrms, pan) pair shares it."""
    pairs = _qnr_pairs(lrms.bands)
    pan_lr = _downsample(pan.data, ratio)
    return tuple(_tile_index((lrms.data, pan_lr), lr_block, _uiqi(pairs), pairs))


@_finite_result
def metric_qnr(
    fused: Raster, lrms: Raster, pan: Raster, ratio: int, block: int
) -> tuple[float, float, float]:
    """No-reference quality: (qnr, d_lambda, d_s).

    D_lambda compares inter-band Q indexes of the fused image against the
    low-resolution original; D_s compares each band's Q against the pan at
    both scales (the pan is degraded by ``ratio`` for the low-resolution
    side). Both distortions are clamped to [0, 1] and combined as
    QNR = (1 - D_lambda) * (1 - D_s).
    """
    ratio = _check_scale_pair(lrms, pan, ratio)
    _check_scale_pair(lrms, fused, ratio, pan=False)
    nbands = _check_bands("qnr", fused.bands, 2)
    block = _positive_int("block", block)
    lr_block = min(max(block // ratio, 4), lrms.height, lrms.width)
    pairs = _qnr_pairs(nbands)
    hr = _tile_index((fused.data, pan.data), block, _uiqi(pairs), pairs)
    lr = _qnr_low(lrms, pan, ratio, lr_block)
    gaps = [abs(q_hr - q_lr) for q_hr, q_lr in zip(hr, lr)]

    npairs = len(pairs) - nbands
    d_lambda = sum(gaps[:npairs]) / npairs
    d_lambda = min(max(d_lambda, 0.0), 1.0)

    d_s = sum(gaps[npairs:]) / nbands
    d_s = min(max(d_s, 0.0), 1.0)

    return (1.0 - d_lambda) * (1.0 - d_s), d_lambda, d_s


def build_report(
    method: str,
    fused: Raster,
    reference: Raster,
    lrms: Raster,
    pan: Raster,
    ratio: int,
) -> MetricReport:
    """Evaluate all five metrics for one fused result and assemble a row.

    Q-index blocks default to 32, clamped to the image size. ``fused`` may be
    a :class:`raster._RowFile`: every metric reads it by row slices only.
    """
    block = min(32, fused.height, fused.width)
    qnr, _, _ = metric_qnr(fused, lrms, pan, ratio, block)
    return MetricReport(
        method=method,
        ssim=metric_ssim(fused, reference),
        sam=metric_sam(fused, reference),
        ergas=metric_ergas(fused, reference, ratio),
        q4=metric_q2n(fused, reference, block),
        qnr=qnr,
        q_order=len(_conj_signs(fused.bands)),
    )


def reports_to_csv(reports: Iterable[MetricReport]) -> str:
    """Six-decimal CSV with header ``method,ssim,sam,ergas,q<n>,qnr``, the
    Q2^n column named by the reports' one ``q_order`` (q4 for no report).
    ``reports`` is read once, so a generator gives every row."""
    reports = list(reports)
    orders = {rep.q_order for rep in reports} or {4}
    if len(orders) > 1:
        raise UsageError(f"reports of Q2^n orders {sorted(orders)} cannot share one CSV")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["method", *_columns(orders.pop())])
    writer.writerows([r.method, *(f"{getattr(r, n):.6f}" for n in METRIC_COLUMNS)] for r in reports)
    return out.getvalue()


def reports_to_json(reports: list[MetricReport]) -> str:
    """JSON array of rows, rounded to the same 6 decimals as the CSV."""
    return json.dumps([rep.as_dict() for rep in reports], indent=2) + "\n"
