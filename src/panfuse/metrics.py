"""Full-reference and no-reference quality metrics for fused imagery.

SAM, ERGAS, the Wang-Bovik universal image quality index, its quaternion
extension Q4, Gaussian-window SSIM, and the QNR spectral/spatial
distortion pair, plus report assembly and CSV/JSON serialization.

All statistics over Q-index tiles use the unbiased (n-1) normalization,
and tiles are distinct (non-overlapping) blocks evaluated in fixed index
order so results are bit-deterministic.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, ShapeMismatchError
from .raster import Raster, _check_same_shape, _check_scale_pair
from .resample import _downsample

_EPS = 1e-12

# Elements per strip array for SSIM, SAM and ERGAS: 32 Ki float64 values
# (256 KiB), so a strip's few temporaries stay within one core's L2 cache
# at any image width (8 rows at 1024 x 4 bands, 32 at 256 x 4).
_STRIP_ELEMENTS = 32 * 1024

METRIC_COLUMNS = ("ssim", "sam", "ergas", "q4", "qnr")


@dataclass(frozen=True)
class MetricReport:
    """One evaluated method: the five Table-style metric values.

    Value ranges: ssim in [-1, 1], sam in [0, pi] (radians), ergas >= 0,
    q4 in [-1, 1], qnr in [0, 1].
    """

    method: str
    ssim: float
    sam: float
    ergas: float
    q4: float
    qnr: float

    def as_dict(self) -> dict[str, float | str]:
        row: dict[str, float | str] = {"method": self.method}
        for name in METRIC_COLUMNS:
            row[name] = round(getattr(self, name), 6)
        return row


def _strip_rows(raster: Raster) -> int:
    """Rows of ``raster`` that fill one strip of ``_STRIP_ELEMENTS`` values."""
    return max(1, _STRIP_ELEMENTS // (raster.width * raster.bands))


def metric_sam(fused: Raster, reference: Raster) -> float:
    """Mean spectral angle between per-pixel band vectors, in radians.

    Pixels where either spectrum has near-zero norm contribute zero. The
    angle is evaluated with the two-argument arctangent of the normalized
    sum/difference vectors, which is algebraically the arccos of the
    cosine similarity but avoids the catastrophic arccos cancellation
    near zero angle. Angles are computed in row strips of about
    ``_STRIP_ELEMENTS`` values so the per-strip temporaries stay small.
    """
    _check_same_shape(fused, reference)
    if fused.bands < 2:
        raise ShapeMismatchError("sam requires at least 2 bands")
    angles = np.empty((fused.height, fused.width), dtype=np.float64)
    step = _strip_rows(fused)
    for r in range(0, fused.height, step):
        f = fused.data[r : r + step]
        g = reference.data[r : r + step]
        nf = np.sqrt(np.einsum("ijk,ijk->ij", f, f))
        ng = np.sqrt(np.einsum("ijk,ijk->ij", g, g))
        mask = (nf >= _EPS) & (ng >= _EPS)
        u = np.divide(f, nf[:, :, None], out=np.zeros_like(f), where=mask[:, :, None])
        v = np.divide(g, ng[:, :, None], out=np.zeros_like(g), where=mask[:, :, None])
        d, s = u - v, u + v
        diff = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
        summ = np.sqrt(np.einsum("ijk,ijk->ij", s, s))
        # Masked pixels have u = v = 0, so their angle is atan2(0, 0) = 0.
        angles[r : r + step] = 2.0 * np.arctan2(diff, summ)
    return float(angles.mean())


def metric_ergas(fused: Raster, reference: Raster, ratio: int) -> float:
    """Dimensionless global relative synthesis error.

    100 * (1/ratio) * sqrt(mean_b(RMSE_b^2 / mu_b^2)) with mu_b the
    reference band means. Zero band means make the relative error
    undefined and are rejected. The squared errors are summed per band in
    row strips, so no full-size difference array is made.
    """
    _check_same_shape(fused, reference)
    sq_err = np.zeros(fused.bands, dtype=np.float64)
    step = _strip_rows(fused)
    for r in range(0, fused.height, step):
        d = fused.data[r : r + step] - reference.data[r : r + step]
        sq_err += np.einsum("ijk,ijk->k", d, d)
    rmse = np.sqrt(sq_err / (fused.height * fused.width))
    mu = reference.data.mean(axis=(0, 1))
    if np.any(np.abs(mu) < _EPS):
        raise DegenerateInputError("ergas: reference band mean is zero")
    return float(100.0 / ratio * np.sqrt(np.mean((rmse / mu) ** 2)))


def _tile_mean(
    x: np.ndarray, y: np.ndarray, block: int, tile_q: Callable[..., tuple[np.ndarray, np.ndarray]]
) -> float:
    """Mean of a per-tile index over the distinct block x block tiles of two
    H x W x C arrays; partial edge tiles are left out.

    Tiles are walked one row of tiles at a time. ``tile_q(mx, my, vx, vy,
    cxy)`` gets the per-tile band means (t, C), band variances (t, C) and
    cross-covariances ``cxy[t, i, j] = cov(x_i, y_j)`` (t, C, C), all with
    (n-1) normalization, and returns (values, valid). Invalid tiles are
    skipped; if no tile is valid the index is 1 for identical inputs and 0
    otherwise.
    """
    height, width, channels = x.shape
    if block > min(height, width):
        raise ShapeMismatchError(f"block {block} larger than image {height}x{width}")
    if block < 2:
        raise ShapeMismatchError("block must be >= 2 for tile statistics")
    n, cols = block * block, width // block

    def row_tiles(a: np.ndarray, r: int) -> np.ndarray:
        row = a[r : r + block, : cols * block].reshape(block, cols, block, channels)
        return row.transpose(1, 0, 2, 3).reshape(cols, n, channels)

    total, count = 0.0, 0
    # Skipped tiles may divide by zero; their values are dropped below.
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(0, height - block + 1, block):
            tx, ty = row_tiles(x, r), row_tiles(y, r)
            mx, my = tx.mean(axis=1), ty.mean(axis=1)
            dx, dy = tx - mx[:, None, :], ty - my[:, None, :]
            vx = np.einsum("tnc,tnc->tc", dx, dx) / (n - 1)
            vy = np.einsum("tnc,tnc->tc", dy, dy) / (n - 1)
            cxy = np.matmul(dx.transpose(0, 2, 1), dy) / (n - 1)
            values, valid = tile_q(mx, my, vx, vy, cxy)
            total += float(values[valid].sum())
            count += int(np.count_nonzero(valid))
    if count == 0:
        return 1.0 if np.array_equal(x, y) else 0.0
    return total / count


def _uiqi_tiles(mx, my, vx, vy, cxy) -> tuple[np.ndarray, np.ndarray]:
    mx, my, vx, vy, cxy = mx[:, 0], my[:, 0], vx[:, 0], vy[:, 0], cxy[:, 0, 0]
    den_var = vx + vy
    den_mean = mx * mx + my * my
    valid = (den_var >= _EPS) & (den_mean >= _EPS)
    return 4.0 * cxy * mx * my / (den_var * den_mean), valid


def metric_uiqi(a: Raster, b: Raster, block: int) -> float:
    """Universal image quality index on distinct block x block tiles.

    Per tile: Q = 4*cov*mean_a*mean_b / ((var_a + var_b) * (mean_a^2 +
    mean_b^2)), the product of correlation, luminance, and contrast
    terms. Tiles with a vanishing denominator factor are skipped; if
    every tile is degenerate the index is 1 for identical inputs and 0
    otherwise.
    """
    _check_same_shape(a, b)
    if a.bands != 1:
        raise ShapeMismatchError("uiqi expects single-band rasters")
    return _tile_mean(a.data, b.data, block, _uiqi_tiles)


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


def metric_q4(fused: Raster, reference: Raster, block: int) -> float:
    """Quaternion quality index for exactly 4-band imagery.

    Each pixel's bands form a quaternion z = b0 + b1*i + b2*j + b3*k.
    Per tile the index is the product of the quaternion correlation
    modulus, a contrast term, and a mean-bias term; tiles are averaged.
    Degenerate tiles are skipped as in :func:`metric_uiqi`.
    """
    _check_same_shape(fused, reference)
    if fused.bands != 4:
        raise ShapeMismatchError(f"q4 requires exactly 4 bands, got {fused.bands}")
    return _tile_mean(reference.data, fused.data, block, _q4_tiles)


def _ssim_window() -> np.ndarray:
    t = np.arange(-5, 6, dtype=np.float64)
    k = np.exp(-0.5 * (t / 1.5) ** 2)
    return k / k.sum()


def _valid_window_mean(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable valid-mode correlation with a symmetric 1-D kernel over the
    first two axes of an H x W x B array.

    Each pass adds the two inputs under a mirrored tap pair before scaling
    them, ``k_j * (a[j] + a[k-1-j])``, and takes the centre tap alone.
    """
    k = kernel.size
    c = k // 2
    rows, cols = x.shape[0] - k + 1, x.shape[1] - k + 1
    out = kernel[c] * x[c : c + rows]
    for j in range(c):
        out += kernel[j] * (x[j : j + rows] + x[k - 1 - j : k - 1 - j + rows])
    final = kernel[c] * out[:, c : c + cols]
    for j in range(c):
        final += kernel[j] * (out[:, j : j + cols] + out[:, k - 1 - j : k - 1 - j + cols])
    return final


def metric_ssim(fused: Raster, reference: Raster) -> float:
    """Mean structural similarity over an 11x11 Gaussian window (sigma 1.5).

    Constants C1 = (0.01*L)^2 and C2 = (0.03*L)^2 with dynamic range
    L = 1 for [0, 1] data. The map is computed in valid mode (no border
    extrapolation) per band, then averaged over map and bands.

    Four window means give the map: mu_x, mu_y, E[x^2 + y^2] and E[xy], with
    var_x + var_y = E[x^2 + y^2] - (mu_x^2 + mu_y^2) and cov = E[xy] -
    mu_x*mu_y; every term is symmetric in x and y, so swapping the inputs
    gives the same bits. The map is evaluated in strips of output rows
    across all bands, sized so each strip array holds about
    ``_STRIP_ELEMENTS`` values, and summed per band strip by strip.
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
    step = _strip_rows(fused)
    band_sums = np.zeros(fused.bands, dtype=np.float64)
    for r in range(0, rows, step):
        x = fused.data[r : r + step + halo]
        y = reference.data[r : r + step + halo]
        mu_x = _valid_window_mean(x, kernel)
        mu_y = _valid_window_mean(y, kernel)
        e_sq = _valid_window_mean(x * x + y * y, kernel)
        e_xy = _valid_window_mean(x * y, kernel)
        mu_xy = mu_x * mu_y
        mu_sq = mu_x * mu_x + mu_y * mu_y
        ssim_map = ((2 * mu_xy + c1) * (2 * (e_xy - mu_xy) + c2)) / (
            (mu_sq + c1) * (e_sq - mu_sq + c2)
        )
        band_sums += ssim_map.sum(axis=(0, 1))
    return float(np.mean(band_sums / (rows * cols)))


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
    _check_scale_pair(lrms, pan, ratio)
    _check_scale_pair(lrms, fused, ratio, pan=False)
    nbands = fused.bands
    if nbands < 2:
        raise ShapeMismatchError("qnr requires at least 2 bands")
    lr_block = min(max(block // ratio, 4), lrms.height, lrms.width)
    pan_lr = _downsample(pan.data, ratio)

    def q_gap(hr_x, hr_y, lr_x, lr_y) -> float:
        return abs(
            _tile_mean(hr_x, hr_y, block, _uiqi_tiles)
            - _tile_mean(lr_x, lr_y, lr_block, _uiqi_tiles)
        )

    fb = [fused.data[:, :, b : b + 1] for b in range(nbands)]
    lb = [lrms.data[:, :, b : b + 1] for b in range(nbands)]
    # Q is symmetric, so each unordered band pair is visited once.
    pairs = list(itertools.combinations(range(nbands), 2))
    d_lambda = sum(q_gap(fb[i], fb[j], lb[i], lb[j]) for i, j in pairs) / len(pairs)
    d_lambda = min(max(d_lambda, 0.0), 1.0)

    d_s = sum(q_gap(fb[b], pan.data, lb[b], pan_lr) for b in range(nbands)) / nbands
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

    Q-index blocks default to 32, clamped to the image size.
    """
    block = min(32, fused.height, fused.width)
    qnr, _, _ = metric_qnr(fused, lrms, pan, ratio, block)
    return MetricReport(
        method=method,
        ssim=metric_ssim(fused, reference),
        sam=metric_sam(fused, reference),
        ergas=metric_ergas(fused, reference, ratio),
        q4=metric_q4(fused, reference, block),
        qnr=qnr,
    )


def reports_to_csv(reports: list[MetricReport]) -> str:
    """Six-decimal CSV with header ``method,ssim,sam,ergas,q4,qnr``."""
    lines = ["method," + ",".join(METRIC_COLUMNS)]
    for rep in reports:
        values = ",".join(f"{getattr(rep, name):.6f}" for name in METRIC_COLUMNS)
        lines.append(f"{rep.method},{values}")
    return "\n".join(lines) + "\n"


def reports_to_json(reports: list[MetricReport]) -> str:
    """JSON array of rows, rounded to the same 6 decimals as the CSV."""
    return json.dumps([rep.as_dict() for rep in reports], indent=2) + "\n"
