"""The shared injection core against the earlier per-method fusion bodies.

Each ``old_*`` function below is the method as it was written before the five
fusions shared one ``ms_up + g * detail`` step. They are test-only oracles:
the library output must stay within 1e-12 of them on seeded scenes.
``whole_cube_*`` are gihs, brovey and hpf as they were before intensities,
gains and injection ran one row strip at a time, with the whole-cube
``whole_cube_inject``; those three methods must match them bit for bit.
``whole_cube_pca_basis`` is the band means and ``np.cov`` covariance before
they were summed strip by strip.
"""

import numpy as np
import pytest

from panfuse import (
    FusionInput,
    Raster,
    downsample_antialias,
    fuse_brovey,
    fuse_gihs,
    fuse_gs,
    fuse_hpf,
    fuse_pca,
    histogram_match,
    mmse_band_weights,
    pca_basis,
    synth_scene,
    upsample,
    wald_degrade,
)
from panfuse.fusion import GS_LR_PAN_MODES
from panfuse.resample import _correlate_axis, _match_moments, _upsample


def _matched_pan(pan, target):
    return histogram_match(pan, Raster(target[:, :, None])).data[:, :, 0]


def old_gihs(fin):
    ms_up = upsample(fin.lrms, fin.ratio)
    intensity = ms_up.data.mean(axis=2)
    matched = _matched_pan(fin.pan, intensity)
    fused = ms_up.data + (matched - intensity)[:, :, None]
    return np.clip(fused, 0.0, 1.0)


def old_brovey(fin):
    ms_up = upsample(fin.lrms, fin.ratio)
    intensity = ms_up.data.mean(axis=2)
    matched = _matched_pan(fin.pan, intensity)
    gain = matched / (intensity + 1e-12)
    return np.clip(ms_up.data * gain[:, :, None], 0.0, 1.0)


def old_pca(fin):
    ms_up = upsample(fin.lrms, fin.ratio)
    means, _, vecs = pca_basis(ms_up)
    flat = ms_up.data.reshape(-1, ms_up.bands)
    scores = (flat - means) @ vecs
    pc1 = scores[:, 0].reshape(ms_up.height, ms_up.width)
    scores[:, 0] = _matched_pan(fin.pan, pc1).ravel()
    fused = (scores @ vecs.T + means).reshape(ms_up.data.shape)
    return np.clip(fused, 0.0, 1.0)


def old_gs(fin, lr_pan_mode):
    ms_up = upsample(fin.lrms, fin.ratio)
    if lr_pan_mode == "weighted-mean":
        intensity = ms_up.data.mean(axis=2)
    elif lr_pan_mode == "blur-decimate":
        lrpan = downsample_antialias(fin.pan, fin.ratio)
        intensity = upsample(lrpan, fin.ratio).data[:, :, 0]
    else:
        weights = mmse_band_weights(fin.lrms, fin.pan, fin.ratio)
        intensity = np.tensordot(ms_up.data, weights, axes=([2], [0]))
    dev_i = intensity - intensity.mean()
    var_i = np.mean(dev_i * dev_i)
    dev_b = ms_up.data - ms_up.data.mean(axis=(0, 1))
    gains = np.mean(dev_b * dev_i[:, :, None], axis=(0, 1)) / var_i
    matched = _matched_pan(fin.pan, intensity)
    fused = ms_up.data + gains[None, None, :] * (matched - intensity)[:, :, None]
    return np.clip(fused, 0.0, 1.0)


def old_hpf(fin):
    ms_up = upsample(fin.lrms, fin.ratio)
    k = 2 * fin.ratio + 1
    kernel = np.full(k, 1.0 / k)
    pan2d = fin.pan.data[:, :, 0]
    lowpass = _correlate_axis(_correlate_axis(pan2d, kernel, 0), kernel, 1)
    detail = pan2d - lowpass
    return np.clip(ms_up.data + detail[:, :, None], 0.0, 1.0)


CASES = {
    "gihs": (fuse_gihs, old_gihs),
    "brovey": (fuse_brovey, old_brovey),
    "pca": (fuse_pca, old_pca),
    "hpf": (fuse_hpf, old_hpf),
    **{
        f"gs-{mode}": (
            lambda fin, mode=mode: fuse_gs(fin, mode),
            lambda fin, mode=mode: old_gs(fin, mode),
        )
        for mode in GS_LR_PAN_MODES
    },
}


def seeded_input(seed, ratio, bands):
    """A synthetic scene degraded by ``ratio`` (the scene itself at ratio 1)."""
    weights = np.random.default_rng(seed).uniform(0.5, 2.0, bands)
    hrms, pan = synth_scene(32, 32, bands, seed, weights)
    lrms = hrms if ratio == 1 else wald_degrade(hrms, pan, ratio)[0]
    return FusionInput(lrms=lrms, pan=pan, ratio=ratio)


@pytest.mark.parametrize("bands", [3, 4])
@pytest.mark.parametrize("ratio", [1, 2, 4])
@pytest.mark.parametrize("method", list(CASES))
def test_injection_core_matches_old_body(method, ratio, bands):
    new, old = CASES[method]
    for seed in (101, 202):
        fin = seeded_input(seed + 10 * ratio + bands, ratio, bands)
        assert np.abs(new(fin).data - old(fin)).max() <= 1e-12


def seeded_scene(seed, ratio, bands, height, width):
    """A synthetic ``height`` x ``width`` scene degraded by ``ratio``."""
    weights = np.random.default_rng(seed).uniform(0.5, 2.0, bands)
    hrms, pan = synth_scene(width, height, bands, seed, weights)
    return FusionInput(lrms=wald_degrade(hrms, pan, ratio)[0], pan=pan, ratio=ratio)


# At 136 columns a strip is 80 rows over 3 bands, 60 over 4 and 30 over 8, so
# 200 rows span several strips and end in a partial one.
@pytest.mark.parametrize("bands", [3, 4, 8])
@pytest.mark.parametrize("ratio", [2, 4])
@pytest.mark.parametrize("method", list(CASES))
def test_strip_fusion_matches_old_body(method, ratio, bands):
    new, old = CASES[method]
    fin = seeded_scene(300 + 10 * ratio + bands, ratio, bands, 200, 136)
    assert np.abs(new(fin).data - old(fin)).max() <= 1e-12


def whole_cube_inject(ms_up, gain, detail):
    ms_up += gain * detail[:, :, None]
    return np.clip(ms_up, 0.0, 1.0, out=ms_up)


def whole_cube_gihs(fin):
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    intensity = ms_up.mean(axis=2)
    return whole_cube_inject(
        ms_up, 1.0, _match_moments(fin.pan.data[:, :, 0], intensity) - intensity
    )


def whole_cube_brovey(fin):
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    intensity = ms_up.mean(axis=2)
    guarded = intensity + 1e-12
    gain = ms_up / guarded[:, :, None]
    return whole_cube_inject(
        ms_up, gain, _match_moments(fin.pan.data[:, :, 0], intensity) - guarded
    )


def whole_cube_hpf(fin):
    ms_up = _upsample(fin.lrms.data, fin.ratio)
    k = 2 * fin.ratio + 1
    kernel = np.full(k, 1.0 / k)
    pan2d = fin.pan.data[:, :, 0]
    lowpass = _correlate_axis(_correlate_axis(pan2d, kernel, 0), kernel, 1)
    return whole_cube_inject(ms_up, 1.0, pan2d - lowpass)


WHOLE_CUBE = {
    "gihs": (fuse_gihs, whole_cube_gihs),
    "brovey": (fuse_brovey, whole_cube_brovey),
    "hpf": (fuse_hpf, whole_cube_hpf),
}


@pytest.mark.parametrize("bands", [3, 4, 8])
@pytest.mark.parametrize("ratio", [2, 4])
@pytest.mark.parametrize("method", list(WHOLE_CUBE))
def test_strip_injection_same_bits_as_whole_cube(method, ratio, bands):
    new, old = WHOLE_CUBE[method]
    fin = seeded_scene(500 + 10 * ratio + bands, ratio, bands, 200, 136)
    got, want = new(fin).data, old(fin)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def whole_cube_pca_basis(cube):
    flat = cube.reshape(-1, cube.shape[2])
    vals, vecs = np.linalg.eigh(np.atleast_2d(np.cov(flat, rowvar=False, ddof=1)))
    order = np.argsort(vals)[::-1]
    vecs = vecs[:, order]
    if vecs[:, 0].sum() < 0:
        vecs[:, 0] = -vecs[:, 0]
    return flat.mean(axis=0), vals[order], vecs


@pytest.mark.parametrize("bands", [3, 4, 8])
def test_strip_pca_basis_matches_whole_cube(bands):
    cube = upsample(seeded_scene(700 + bands, 4, bands, 200, 136).lrms, 4)
    got, want = pca_basis(cube), whole_cube_pca_basis(cube.data)
    assert np.abs(got[0] - want[0]).max() <= 1e-12
    assert np.abs(got[1] - want[1]).max() <= 1e-12 * want[1][0]
    # Columns past the first may flip sign; the first is fixed by convention.
    assert np.abs(np.abs(got[2]) - np.abs(want[2])).max() <= 1e-12
    assert np.abs(got[2][:, 0] - want[2][:, 0]).max() <= 1e-12
