"""The strip-wise metrics against their bodies from before each strip wrote
into its thread's scratch.

The ``old_*`` functions below are SSIM, SAM and ERGAS, the SSIM window mean
and the tile core of UIQI, Q2^n and QNR as they were when every strip made
its own temporaries and a row-file strip was read into a fresh array. They
are test-only oracles: each metric must give the same bits (``float.hex``)
over a ``Raster``, over a ``raster._RowFile`` on either side, and with its
inputs swapped. The oracles run their strips in order on the calling
thread, which gave the same bits as the strip runner on any CPU count.
"""

import contextlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from panfuse import Raster, metric_ergas, metric_q2n, metric_qnr, metric_sam, metric_ssim
from panfuse import metrics, raster, write_raster
from panfuse._strips import _row_strips
from panfuse.errors import ShapeMismatchError
from panfuse.metrics import _EPS, _ssim_window
from panfuse.raster import _band_sum, _positive_int
from test_metrics import SAM_SHAPES, _sam_pair


def old_sam(fused, reference):
    def strip(rows):
        f = fused.data[rows]
        g = reference.data[rows]
        nf = np.sqrt(_band_sum(f * f))
        ng = np.sqrt(_band_sum(g * g))
        mask = (nf >= _EPS) & (ng >= _EPS)
        u = np.divide(f, nf[:, :, None], out=np.zeros_like(f), where=mask[:, :, None])
        del f
        v = np.divide(g, ng[:, :, None], out=np.zeros_like(g), where=mask[:, :, None])
        d = u - v
        s = np.add(u, v, out=u)
        diff = np.sqrt(_band_sum(np.multiply(d, d, out=d)))
        summ = np.sqrt(_band_sum(np.multiply(s, s, out=s)))
        return 2.0 * float(np.arctan2(diff, summ, out=diff).sum())

    strips = _row_strips(*fused.data.shape)
    return sum([strip(rows) for rows in strips]) / (fused.height * fused.width)


def old_ergas(fused, reference, ratio):
    def strip(rows):
        g = reference.data[rows]
        d = fused.data[rows] - g
        return np.einsum("ijk,ijk->k", d, d), np.einsum("ijk->k", g)

    strips = _row_strips(*fused.data.shape)
    sq_err, ref_sum = map(sum, zip(*[strip(rows) for rows in strips]))
    pixels = fused.height * fused.width
    rmse = np.sqrt(sq_err / pixels)
    mu = ref_sum / pixels
    return float(100.0 / ratio * np.sqrt(np.mean((rmse / mu) ** 2)))


def old_valid_window_mean(x, kernel):
    k = kernel.size
    vertical = np.einsum("rwbk,k->rwb", sliding_window_view(x, k, axis=0), kernel)
    rows, width, bands = vertical.shape
    cols = width - k + 1
    flat = vertical.reshape(rows, width * bands)
    taps = sliding_window_view(flat, (k - 1) * bands + 1, axis=1)[:, : cols * bands, ::bands]
    return np.einsum("rik,k->ri", taps, kernel).reshape(rows, cols, bands)


def old_ssim(fused, reference):
    c1, c2 = 0.01**2, 0.03**2
    kernel = _ssim_window()
    halo = kernel.size - 1
    rows, cols = fused.height - halo, fused.width - halo

    def strip(out_rows):
        x = fused.data[out_rows.start : out_rows.stop + halo]
        y = reference.data[out_rows.start : out_rows.stop + halo]
        prod = x * x
        prod += y * y
        e_sq = old_valid_window_mean(prod, kernel)
        e_xy = old_valid_window_mean(np.multiply(x, y, out=prod), kernel)
        del prod
        mu_x = old_valid_window_mean(x, kernel)
        mu_y = old_valid_window_mean(y, kernel)
        mu_xy = mu_x * mu_y
        mu_sq = np.multiply(mu_x, mu_x, out=mu_x)
        mu_sq += np.multiply(mu_y, mu_y, out=mu_y)
        e_xy -= mu_xy
        e_xy *= 2
        e_xy += c2
        mu_xy *= 2
        mu_xy += c1
        mu_xy *= e_xy
        e_sq -= mu_sq
        e_sq += c2
        mu_sq += c1
        mu_sq *= e_sq
        mu_xy /= mu_sq
        return mu_xy.sum(axis=(0, 1))

    strips = _row_strips(rows, fused.width, fused.bands, 2 * halo)
    band_sums = sum([strip(out_rows) for out_rows in strips])
    return float(np.mean(band_sums / (rows * cols)))


def old_tile_index(parts, block, tile_q, groups):
    height, width, _ = parts[0].shape
    block = _positive_int("block", block)
    if block > min(height, width):
        raise ShapeMismatchError(f"block {block} larger than image {height}x{width}")
    if block < 2:
        raise ShapeMismatchError("block must be >= 2 for tile statistics")
    cols, n = width // block, block * block
    bounds = np.cumsum([0] + [p.shape[2] for p in parts])

    def tile_row(r):
        stack = np.empty((cols, bounds[-1], n), dtype=np.float64)
        tiles = stack.reshape(cols, bounds[-1], block, block)
        for p, lo, hi in zip(parts, bounds, bounds[1:]):
            row = p[r : r + block, : cols * block].reshape(block, cols, block, hi - lo)
            tiles[:, lo:hi] = row.transpose(1, 3, 0, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = stack.mean(axis=2)
            d = np.subtract(stack, m[:, :, None], out=stack)
            v = np.einsum("tcn,tcn->tc", d, d) / (n - 1)
            cov = np.matmul(d, d.transpose(0, 2, 1)) / (n - 1)
            values, valid = tile_q(m, v, cov)
        return np.where(valid, values, 0.0).sum(axis=0), np.count_nonzero(valid, axis=0)

    rows = range(0, height - block + 1, block)
    total, count = map(sum, zip(*[tile_row(r) for r in rows]))
    channels = [(p, c) for p in parts for c in range(p.shape[2])]
    strips = _row_strips(height, width, max(p.shape[2] for p in parts))

    def close(i, j):
        (p, c), (q, d) = channels[i], channels[j]
        return all([
            np.allclose(p[rows][:, :, c], q[rows][:, :, d], rtol=1e-9, atol=0.0)
            for rows in strips
        ])

    def fallback(a, b):
        pairs = zip(np.atleast_1d(a), np.atleast_1d(b))
        return 1.0 if all(close(i, j) for i, j in pairs) else 0.0

    return [
        float(total[k] / count[k]) if count[k] else fallback(a, b)
        for k, (a, b) in enumerate(groups)
    ]


# How a metric's two cube inputs are given: both in memory, the fused one as
# a row file, swapped, and swapped with the row file in the reference's place.
SOURCES = ["raster", "row-file", "swapped", "swapped-row-file"]


@contextlib.contextmanager
def inputs(tmp_path, fused, reference, source):
    """The (fused, reference) pair of ``source``, with its row file open."""
    write_raster(fused, tmp_path / "f.msr")
    with raster._RowFile(tmp_path / "f.msr") as rows:
        yield {
            "raster": (fused, reference),
            "row-file": (rows, reference),
            "swapped": (reference, fused),
            "swapped-row-file": (reference, rows),
        }[source]


def hexes(*values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("shape", list(SAM_SHAPES.values()), ids=list(SAM_SHAPES))
def test_strip_metrics_same_bits_as_old_bodies(tmp_path, shape, source):
    """SAM, ERGAS and (from 11 x 11 on) SSIM over a partial last strip, 1030
    columns, one row or one column, 2 to 9 bands, and zero pixels."""
    fused, reference = _sam_pair(*shape, seed=sum(shape) + 1)
    with inputs(tmp_path, fused, reference, source) as (x, y):
        got = [metric_sam(x, y), metric_ergas(x, y, 4)]
        want = [old_sam(x, y), old_ergas(x, y, 4)]
        if min(shape[:2]) >= 11:
            got.append(metric_ssim(x, y))
            want.append(old_ssim(x, y))
        assert hexes(*got) == hexes(*want)


def tile_case(height, width, bands, ratio, constant):
    """(fused, reference, lrms, pan); with ``constant``, fused bands 0 and 1
    hold one constant and band 2 another, so some band pairs have no valid
    tile and fall back to comparing their channels."""
    rng = np.random.default_rng(height * width + bands)
    reference = 0.1 + 0.8 * rng.random((height, width, bands))
    fused = np.clip(reference + 0.05 * rng.standard_normal(reference.shape), 0.0, 1.0)
    if constant:
        fused[:, :, :2] = 0.5
        fused[:, :, 2:3] = 0.25
    lrms = 0.1 + 0.8 * rng.random((height // ratio, width // ratio, bands))
    pan = 0.1 + 0.8 * rng.random((height, width, 1))
    return tuple(map(Raster, (fused, reference, lrms, pan)))


# (height, width, bands, ratio, constant): ``build_report``'s block of 32 over
# partial edge tiles, and blocks clamped to 24 and 20 by the image size (and
# to 6 and 10 on QNR's low-resolution side).
TILE_CASES = {
    "block-32": (97, 130, 4, 1, False),
    "block-32-constant-bands": (97, 130, 4, 1, True),
    "block-32-ratio-4-8-bands": (64, 96, 8, 4, False),
    "block-32-2-bands": (40, 33, 2, 1, False),
    "clamped-24": (24, 40, 4, 4, False),
    "clamped-20-3-bands": (20, 36, 3, 2, True),
}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("case", list(TILE_CASES.values()), ids=list(TILE_CASES))
def test_q2n_same_bits_as_old_tile_core(tmp_path, monkeypatch, case, source):
    fused, reference, _, _ = tile_case(*case)
    block = min(32, fused.height, fused.width)
    with inputs(tmp_path, fused, reference, source) as (x, y):
        got = metric_q2n(x, y, block)
        monkeypatch.setattr(metrics, "_tile_index", old_tile_index)
        assert hexes(got) == hexes(metric_q2n(x, y, block))


@pytest.mark.parametrize("source", ["raster", "row-file"])
@pytest.mark.parametrize("case", list(TILE_CASES.values()), ids=list(TILE_CASES))
def test_qnr_same_bits_as_old_tile_core(tmp_path, monkeypatch, case, source):
    """Both scales of QNR. The oracle runs on copies of the lrms and the pan,
    so neither call reads the other's remembered low-resolution side."""
    fused, reference, lrms, pan = tile_case(*case)
    ratio, block = case[3], min(32, fused.height, fused.width)
    with inputs(tmp_path, fused, reference, source) as (x, _):
        got = metric_qnr(x, lrms, pan, ratio, block)
        monkeypatch.setattr(metrics, "_tile_index", old_tile_index)
        want = metric_qnr(x, Raster(lrms.data), Raster(pan.data), ratio, block)
    assert hexes(*got) == hexes(*want)
