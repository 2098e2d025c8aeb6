"""The hot paths against their earlier bodies.

Each ``old_*`` function below is the code path as it was written before
downsampling evaluated the blur only at kept pixels, its adjoint stopped
zero-upsampling, SSIM, SAM and ERGAS ran in row strips (SSIM from four window
means with a folded kernel), ``synth_scene`` broadcast a row and a column
instead of a meshgrid, and MSR payloads were written without a ``tobytes``
copy. They are test-only oracles: the resampling, the scene and the written
bytes must match them bit for bit, and SSIM, SAM and ERGAS within 1e-14 (the
order of the sums changed).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import panfuse
from panfuse import (
    Raster,
    downsample_antialias,
    downsample_antialias_adjoint,
    metric_ergas,
    metric_sam,
    metric_ssim,
    pan_from_weights,
    synth_scene,
    write_raster,
)
from panfuse.errors import ShapeMismatchError
from panfuse.resample import _gaussian_kernel, _reflect


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
# columns x 4 bands a strip is 7 rows and (60, 1030) ends in a partial strip,
# as does (40, 300) x 4 bands (27-row strips over 30 output rows).
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


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 2), (16, 9, 4), (33, 17, 3)])
def test_written_bytes_match_old_writer(tmp_path, shape):
    raster = Raster(np.random.default_rng(sum(shape)).standard_normal(shape))
    path = tmp_path / "r.msr"
    write_raster(raster, path)
    assert path.read_bytes() == old_msr_bytes(raster)
