"""Full-reference and no-reference quality metrics for fused imagery.

SAM, ERGAS, the Wang-Bovik universal image quality index, its quaternion
extension Q4, Gaussian-window SSIM, and the QNR spectral/spatial
distortion pair, plus report assembly and CSV/JSON serialization.

All statistics over Q-index tiles use the unbiased (n-1) normalization,
and tiles are distinct (non-overlapping) blocks evaluated in fixed index
order so results are bit-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ShapeMismatchError
from .raster import Raster, _check_same_shape
from .resample import downsample_antialias

_EPS = 1e-12

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


def metric_sam(fused: Raster, reference: Raster) -> float:
    """Mean spectral angle between per-pixel band vectors, in radians.

    Pixels where either spectrum has near-zero norm contribute zero. The
    angle is evaluated with the two-argument arctangent of the normalized
    sum/difference vectors, which is algebraically the arccos of the
    cosine similarity but avoids the catastrophic arccos cancellation
    near zero angle.
    """
    _check_same_shape(fused, reference)
    if fused.bands < 2:
        raise ShapeMismatchError("sam requires at least 2 bands")
    f, g = fused.data, reference.data
    nf = np.sqrt(np.sum(f * f, axis=2))
    ng = np.sqrt(np.sum(g * g, axis=2))
    mask = (nf >= _EPS) & (ng >= _EPS)
    u = np.divide(f, nf[:, :, None], out=np.zeros_like(f), where=mask[:, :, None])
    v = np.divide(g, ng[:, :, None], out=np.zeros_like(g), where=mask[:, :, None])
    diff = np.sqrt(np.sum((u - v) ** 2, axis=2))
    summ = np.sqrt(np.sum((u + v) ** 2, axis=2))
    angles = 2.0 * np.arctan2(diff, summ)
    angles[~mask] = 0.0
    return float(angles.mean())


def metric_ergas(fused: Raster, reference: Raster, ratio: int) -> float:
    """Dimensionless global relative synthesis error.

    100 * (1/ratio) * sqrt(mean_b(RMSE_b^2 / mu_b^2)) with mu_b the
    reference band means. Zero band means make the relative error
    undefined and are rejected.
    """
    _check_same_shape(fused, reference)
    diff = fused.data - reference.data
    rmse = np.sqrt(np.mean(diff * diff, axis=(0, 1)))
    mu = reference.data.mean(axis=(0, 1))
    if np.any(np.abs(mu) < _EPS):
        raise DegenerateInputError("ergas: reference band mean is zero")
    return float(100.0 / ratio * np.sqrt(np.mean((rmse / mu) ** 2)))


def _tile_origins(height: int, width: int, block: int) -> list[tuple[int, int]]:
    return [
        (r, c)
        for r in range(0, height - block + 1, block)
        for c in range(0, width - block + 1, block)
    ]


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
    if block > min(a.height, a.width):
        raise ShapeMismatchError(
            f"block {block} larger than image {a.height}x{a.width}"
        )
    if block < 2:
        raise ShapeMismatchError("block must be >= 2 for tile statistics")
    x2d, y2d = a.data[:, :, 0], b.data[:, :, 0]
    n = block * block
    total, count = 0.0, 0
    for r, c in _tile_origins(a.height, a.width, block):
        x = x2d[r : r + block, c : c + block].ravel()
        y = y2d[r : r + block, c : c + block].ravel()
        mx, my = x.mean(), y.mean()
        dx, dy = x - mx, y - my
        vx = np.dot(dx, dx) / (n - 1)
        vy = np.dot(dy, dy) / (n - 1)
        cxy = np.dot(dx, dy) / (n - 1)
        den_var = vx + vy
        den_mean = mx * mx + my * my
        if den_var < _EPS or den_mean < _EPS:
            continue
        total += 4.0 * cxy * mx * my / (den_var * den_mean)
        count += 1
    if count == 0:
        return 1.0 if np.array_equal(a.data, b.data) else 0.0
    return float(total / count)


def _quat_mult(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion arrays with components on the last axis."""
    a0, a1, a2, a3 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    b0, b1, b2, b3 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ],
        axis=-1,
    )


def _quat_conj(q: np.ndarray) -> np.ndarray:
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


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
    if block > min(fused.height, fused.width):
        raise ShapeMismatchError(
            f"block {block} larger than image {fused.height}x{fused.width}"
        )
    if block < 2:
        raise ShapeMismatchError("block must be >= 2 for tile statistics")
    n = block * block
    total, count = 0.0, 0
    for r, c in _tile_origins(fused.height, fused.width, block):
        z1 = reference.data[r : r + block, c : c + block, :].reshape(n, 4)
        z2 = fused.data[r : r + block, c : c + block, :].reshape(n, 4)
        mu1, mu2 = z1.mean(axis=0), z2.mean(axis=0)
        d1, d2 = z1 - mu1, z2 - mu2
        var1 = np.sum(np.sum(d1 * d1, axis=1)) / (n - 1)
        var2 = np.sum(np.sum(d2 * d2, axis=1)) / (n - 1)
        sigma1, sigma2 = np.sqrt(var1), np.sqrt(var2)
        cov = _quat_mult(d1, _quat_conj(d2)).sum(axis=0) / (n - 1)
        mod_cov = np.sqrt(np.sum(cov * cov))
        mod_mu1 = np.sqrt(np.sum(mu1 * mu1))
        mod_mu2 = np.sqrt(np.sum(mu2 * mu2))
        den_corr = sigma1 * sigma2
        den_var = var1 + var2
        den_mean = mod_mu1 * mod_mu1 + mod_mu2 * mod_mu2
        if den_corr < _EPS or den_var < _EPS or den_mean < _EPS:
            continue
        total += (
            (mod_cov / den_corr)
            * (2.0 * sigma1 * sigma2 / den_var)
            * (2.0 * mod_mu1 * mod_mu2 / den_mean)
        )
        count += 1
    if count == 0:
        return 1.0 if np.array_equal(fused.data, reference.data) else 0.0
    return float(total / count)


def _ssim_window() -> np.ndarray:
    t = np.arange(-5, 6, dtype=np.float64)
    k = np.exp(-0.5 * (t / 1.5) ** 2)
    return k / k.sum()


def _valid_window_mean(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable valid-mode correlation with a symmetric 1-D kernel."""
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


def metric_ssim(fused: Raster, reference: Raster) -> float:
    """Mean structural similarity over an 11x11 Gaussian window (sigma 1.5).

    Constants C1 = (0.01*L)^2 and C2 = (0.03*L)^2 with dynamic range
    L = 1 for [0, 1] data. The map is computed in valid mode (no border
    extrapolation) per band, then averaged over map and bands.
    """
    _check_same_shape(fused, reference)
    if min(fused.height, fused.width) < 11:
        raise ShapeMismatchError(
            f"image {fused.height}x{fused.width} smaller than 11x11 ssim window"
        )
    c1, c2 = 0.01**2, 0.03**2
    kernel = _ssim_window()
    band_means = []
    for b in range(fused.bands):
        x = fused.data[:, :, b]
        y = reference.data[:, :, b]
        mu_x = _valid_window_mean(x, kernel)
        mu_y = _valid_window_mean(y, kernel)
        var_x = _valid_window_mean(x * x, kernel) - mu_x * mu_x
        var_y = _valid_window_mean(y * y, kernel) - mu_y * mu_y
        cov_xy = _valid_window_mean(x * y, kernel) - mu_x * mu_y
        ssim_map = ((2 * mu_x * mu_y + c1) * (2 * cov_xy + c2)) / (
            (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        )
        band_means.append(ssim_map.mean())
    return float(np.mean(band_means))


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
    if pan.bands != 1:
        raise ShapeMismatchError("pan must be single band")
    if (fused.height, fused.width) != (pan.height, pan.width):
        raise ShapeMismatchError("fused dims must match pan dims")
    if (fused.height, fused.width) != (ratio * lrms.height, ratio * lrms.width):
        raise ShapeMismatchError("fused dims must be ratio * lrms dims")
    if fused.bands != lrms.bands:
        raise ShapeMismatchError("fused and lrms band counts differ")
    nbands = fused.bands
    if nbands < 2:
        raise ShapeMismatchError("qnr requires at least 2 bands")
    lr_block = min(max(block // ratio, 4), lrms.height, lrms.width)

    def q_hr(x: np.ndarray, y: np.ndarray) -> float:
        return metric_uiqi(Raster(x[:, :, None]), Raster(y[:, :, None]), block)

    def q_lr(x: np.ndarray, y: np.ndarray) -> float:
        return metric_uiqi(Raster(x[:, :, None]), Raster(y[:, :, None]), lr_block)

    d_lambda = 0.0
    for i in range(nbands):
        for j in range(nbands):
            if i == j:
                continue
            d_lambda += abs(
                q_hr(fused.data[:, :, i], fused.data[:, :, j])
                - q_lr(lrms.data[:, :, i], lrms.data[:, :, j])
            )
    d_lambda = min(max(d_lambda / (nbands * (nbands - 1)), 0.0), 1.0)

    pan_lr = downsample_antialias(pan, ratio)
    d_s = 0.0
    for b in range(nbands):
        d_s += abs(
            q_hr(fused.data[:, :, b], pan.data[:, :, 0])
            - q_lr(lrms.data[:, :, b], pan_lr.data[:, :, 0])
        )
    d_s = min(max(d_s / nbands, 0.0), 1.0)

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
