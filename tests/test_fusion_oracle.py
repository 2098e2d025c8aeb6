"""The shared injection core against the earlier per-method fusion bodies.

Each ``old_*`` function below is the method as it was written before the five
fusions shared one ``ms_up + g * detail`` step. They are test-only oracles:
the library output must stay within 1e-12 of them on seeded scenes.
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
from panfuse.resample import _correlate_axis


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
