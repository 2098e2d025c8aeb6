"""Classical fusion baselines: formula oracles and exact-recovery cases."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from panfuse import (
    FusionInput,
    Raster,
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
from panfuse.errors import DegenerateInputError, ShapeMismatchError, UsageError
from panfuse.fusion import GS_LR_PAN_MODES
from helpers import PAN_FAULTS, random_raster, scale_pair

FUSERS = {
    "gihs": fuse_gihs,
    "brovey": fuse_brovey,
    "pca": fuse_pca,
    "gs": fuse_gs,
    "hpf": fuse_hpf,
}


def scene_with_mean_pan(seed, size=32, bands=4):
    """Scene whose pan equals the equal-weight band mean exactly at r=1."""
    hrms, pan = synth_scene(size, size, bands, seed, [1.0] * bands)
    return FusionInput(lrms=hrms, pan=pan, ratio=1), hrms


class TestFusionInput:
    def test_dims_validated(self):
        with pytest.raises(ShapeMismatchError):
            FusionInput(lrms=random_raster(0, 8, 8, 4), pan=random_raster(1, 24, 24, 1), ratio=4)

    def test_pan_must_be_single_band(self):
        with pytest.raises(ShapeMismatchError):
            FusionInput(lrms=random_raster(0, 8, 8, 4), pan=random_raster(1, 16, 16, 2), ratio=2)

    def test_ratio_validated(self):
        with pytest.raises(UsageError):
            FusionInput(lrms=random_raster(0, 8, 8, 4), pan=random_raster(1, 8, 8, 1), ratio=0)

    @pytest.mark.parametrize("fault", PAN_FAULTS)
    def test_scale_pair_faults(self, fault):
        lrms, pan, _ = scale_pair(fault)
        with pytest.raises(ShapeMismatchError):
            FusionInput(lrms=lrms, pan=pan, ratio=4)


# Every method and every gs mode, each a FusionInput -> Raster callable.
ALL_FUSIONS = {
    **{name: fn for name, fn in FUSERS.items() if name != "gs"},
    **{f"gs-{mode}": (lambda fin, mode=mode: fuse_gs(fin, mode)) for mode in GS_LR_PAN_MODES},
}


@pytest.mark.parametrize("ratio", [1, 4])
@pytest.mark.parametrize("method", list(ALL_FUSIONS))
def test_fusion_owns_its_output_and_leaves_inputs_alone(method, ratio):
    """Injection writes into the upsampled cube the method allocated: never
    into the inputs, not even at ratio 1 where upsampling is a copy."""
    hrms, pan = synth_scene(32, 32, 4, 23, [1.0, 2.0, 1.0, 0.5])
    lrms = hrms if ratio == 1 else wald_degrade(hrms, pan, ratio)[0]
    fin = FusionInput(lrms=lrms, pan=pan, ratio=ratio)
    lrms_bytes, pan_bytes = lrms.data.tobytes(), pan.data.tobytes()
    out = ALL_FUSIONS[method](fin)
    assert lrms.data.tobytes() == lrms_bytes
    assert pan.data.tobytes() == pan_bytes
    assert not np.shares_memory(out.data, fin.lrms.data)
    assert not np.shares_memory(out.data, fin.pan.data)
    assert not out.data.flags.writeable


@pytest.fixture(scope="module")
def input_512():
    hrms, pan = synth_scene(512, 512, 4, 29, [1.0, 2.0, 2.0, 1.0])
    return FusionInput(lrms=wald_degrade(hrms, pan, 4)[0], pan=pan, ratio=4)


@pytest.mark.parametrize("method", list(ALL_FUSIONS))
def test_fusion_peak_memory_within_output_bound(input_512, method):
    """Intensities, gains and injection work strip by strip, so besides the
    output cube a fusion holds only H x W planes and strip temporaries: its
    traced peak stays within 2.25 times the output cube's bytes."""
    tracemalloc.start()
    try:
        out = ALL_FUSIONS[method](input_512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * out.data.nbytes


@pytest.mark.parametrize("method", list(ALL_FUSIONS))
def test_fusion_holds_its_output_and_one_plane(input_512, method):
    """The moments are summed from strip-sized leaves, the detail is matched
    one strip at a time and the output is checked one strip at a time, so
    besides the output cube a fusion holds one H x W plane and strip
    temporaries."""
    ALL_FUSIONS[method](input_512)  # fills the Gaussian kernel cache outside the trace
    tracemalloc.start()
    try:
        out = ALL_FUSIONS[method](input_512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = out.data.nbytes // out.bands
    assert peak < out.data.nbytes + plane + 1.5 * 2**20


@pytest.mark.parametrize("method", list(ALL_FUSIONS))
def test_fusion_leaves_no_reference_cycle(input_512, method):
    """With the cyclic collector off, the traced memory falls back to almost
    nothing once the output is deleted: no cycle (such as a recursive nested
    function) keeps an intensity or a pan plane alive."""
    ALL_FUSIONS[method](input_512)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        out = ALL_FUSIONS[method](input_512)
        del out
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert current < 64 * 2**10


class TestGihs:
    def test_zero_injection_when_pan_equals_intensity(self):
        fin, hrms = scene_with_mean_pan(3)
        fused = fuse_gihs(fin)
        assert np.abs(fused.data - hrms.data).max() < 1e-6

    def test_injection_formula_hand_values(self):
        # one pixel of the additive update: F_b = clip(M_b + (P' - I))
        ms = np.array([0.2, 0.4, 0.6, 0.8])
        assert np.array_equal(
            np.clip(ms + (1.0 - 0.5), 0.0, 1.0), [0.7, 0.9, 1.0, 1.0]
        )

    def test_matches_formula_oracle(self):
        hrms, pan = synth_scene(32, 32, 4, 17, [1.0, 2.0, 1.0, 0.5])
        lrms, _, _ = wald_degrade(hrms, pan, 2)
        fin = FusionInput(lrms=lrms, pan=pan, ratio=2)
        fused = fuse_gihs(fin)
        ms_up = upsample(lrms, 2)
        intensity = ms_up.data.mean(axis=2)
        matched = histogram_match(pan, Raster(intensity[:, :, None])).data[:, :, 0]
        want = np.clip(ms_up.data + (matched - intensity)[:, :, None], 0.0, 1.0)
        assert np.abs(fused.data - want).max() < 1e-12

    def test_constant_scene_any_pan_returns_constant(self):
        const = Raster(np.full((8, 8, 4), 0.42))
        fin = FusionInput(lrms=const, pan=random_raster(5, 8, 8, 1), ratio=1)
        fused = fuse_gihs(fin)
        assert np.abs(fused.data - 0.42).max() < 1e-12

    def test_needs_three_bands(self):
        fin = FusionInput(lrms=random_raster(0, 8, 8, 2), pan=random_raster(1, 8, 8, 1), ratio=1)
        with pytest.raises(ShapeMismatchError, match=r"^gihs requires at least 3 bands, got 2$"):
            fuse_gihs(fin)


class TestBrovey:
    def test_identity_when_pan_equals_intensity(self):
        fin, hrms = scene_with_mean_pan(7)
        fused = fuse_brovey(fin)
        assert np.abs(fused.data - hrms.data).max() < 1e-6

    def test_multiplicative_formula_hand_values(self):
        # gain P'/I = 0.5/0.25 doubles every band
        ms = np.array([0.1, 0.2, 0.3, 0.4])
        gain = 0.5 / (0.25 + 1e-12)
        assert np.allclose(np.clip(ms * gain, 0, 1), [0.2, 0.4, 0.6, 0.8], atol=1e-9)

    def test_matches_formula_oracle(self):
        hrms, pan = synth_scene(32, 32, 4, 19, [1.0, 1.0, 2.0, 2.0])
        lrms, _, _ = wald_degrade(hrms, pan, 2)
        fin = FusionInput(lrms=lrms, pan=pan, ratio=2)
        fused = fuse_brovey(fin)
        ms_up = upsample(lrms, 2)
        intensity = ms_up.data.mean(axis=2)
        matched = histogram_match(pan, Raster(intensity[:, :, None])).data[:, :, 0]
        want = np.clip(
            ms_up.data * (matched / (intensity + 1e-12))[:, :, None], 0.0, 1.0
        )
        assert np.abs(fused.data - want).max() < 1e-12

    def test_band_ratios_preserved(self):
        hrms, pan = synth_scene(16, 16, 4, 23, [1, 1, 1, 1])
        shifted = Raster(np.clip(pan.data * 0.8 + 0.1, 0, 1))
        fused = fuse_brovey(FusionInput(lrms=hrms, pan=shifted, ratio=1))
        f, m = fused.data, hrms.data
        unclipped = np.all((f > 1e-9) & (f < 1 - 1e-9), axis=2)
        mask = (m[:, :, 3] > 0.05) & unclipped
        # wherever no clipping hit, F_b/F_c == M_b/M_c
        got = f[:, :, 0][mask] / f[:, :, 3][mask]
        want = m[:, :, 0][mask] / m[:, :, 3][mask]
        assert mask.sum() > 10
        assert np.abs(got - want).max() < 1e-6


class TestPca:
    def test_roundtrip_without_substitution(self):
        hrms, _ = synth_scene(32, 32, 4, 9, [1, 1, 1, 1])
        means, _, vecs = pca_basis(hrms)
        flat = hrms.data.reshape(-1, 4)
        rec = ((flat - means) @ vecs) @ vecs.T + means
        assert np.abs(rec - flat).max() < 1e-9

    def test_known_two_band_covariance(self):
        # centered rows {±1.5*(1,1), ±(√3/2)*(1,-1)} give covariance [[2,1],[1,2]]
        s, t = 1.5, math.sqrt(3) / 2
        rows = np.array([[s, s], [-s, -s], [t, -t], [-t, t]])
        cov = rows.T @ rows / 3
        assert np.allclose(cov, [[2, 1], [1, 2]], atol=1e-12)
        _, vals, vecs = pca_basis(Raster(rows.reshape(2, 2, 2)))
        assert np.allclose(vals, [3.0, 1.0], atol=1e-12)
        inv_sqrt2 = 1 / math.sqrt(2)
        assert np.allclose(np.abs(vecs[:, 0]), inv_sqrt2, atol=1e-12)
        assert np.allclose(np.abs(vecs[:, 1]), inv_sqrt2, atol=1e-12)
        assert vecs[:, 0].sum() >= 0  # sign convention

    def test_substitution_with_pc1_is_identity(self):
        hrms, _ = synth_scene(32, 32, 4, 9, [1, 1, 1, 1])
        means, _, vecs = pca_basis(hrms)
        scores = (hrms.data.reshape(-1, 4) - means) @ vecs
        pc1 = Raster(scores[:, 0].reshape(32, 32, 1))
        fused = fuse_pca(FusionInput(lrms=hrms, pan=pc1, ratio=1))
        assert np.abs(fused.data - hrms.data).max() < 1e-6

    def test_constant_scene_rejected(self):
        const = Raster(np.full((8, 8, 4), 0.5))
        fin = FusionInput(lrms=const, pan=random_raster(1, 8, 8, 1), ratio=1)
        with pytest.raises(DegenerateInputError):
            fuse_pca(fin)

    def test_one_pixel_rejected(self):
        with pytest.raises(DegenerateInputError, match="at least 2 pixels"):
            pca_basis(Raster(np.full((1, 1, 3), 0.5)))


class TestGs:
    @pytest.mark.parametrize("fault", PAN_FAULTS)
    def test_mmse_weights_scale_pair_faults(self, fault):
        lrms, pan, _ = scale_pair(fault)
        with pytest.raises(ShapeMismatchError):
            mmse_band_weights(lrms, pan, 4)

    def test_zero_detail_when_pan_equals_intensity(self):
        fin, hrms = scene_with_mean_pan(13)
        fused = fuse_gs(fin, "weighted-mean")
        assert np.abs(fused.data - hrms.data).max() < 1e-6

    def test_single_band_gain_is_one(self):
        # B=1: g = cov(M,M)/var(M) = 1, so F = matched pan
        ms = random_raster(21, 16, 16, 1, lo=0.3, hi=0.7)
        pan = random_raster(22, 16, 16, 1, lo=0.3, hi=0.7)
        fused = fuse_gs(FusionInput(lrms=ms, pan=pan, ratio=1), "weighted-mean")
        want = np.clip(histogram_match(pan, ms).data, 0, 1)
        assert np.abs(fused.data - want).max() < 1e-9

    def test_mmse_recovers_synthesis_weights(self):
        w_true = np.array([0.1, 0.4, 0.3, 0.2])
        hrms, _ = synth_scene(64, 64, 4, 21, [1, 1, 1, 1])
        pan = Raster(np.tensordot(hrms.data, w_true, axes=([2], [0]))[:, :, None])
        lrms, _, _ = wald_degrade(hrms, pan, 4)
        w_est = mmse_band_weights(lrms, pan, 4)
        assert np.abs(w_est - w_true).max() < 1e-6

    def test_lr_pan_modes_differ(self):
        hrms, pan = synth_scene(32, 32, 4, 31, [1, 2, 2, 1])
        lrms, _, _ = wald_degrade(hrms, pan, 2)
        fin = FusionInput(lrms=lrms, pan=pan, ratio=2)
        outs = [fuse_gs(fin, mode).data for mode in ("weighted-mean", "blur-decimate", "mmse")]
        assert not np.array_equal(outs[0], outs[1])
        assert not np.array_equal(outs[0], outs[2])

    def test_unknown_mode_rejected(self):
        fin, _ = scene_with_mean_pan(13)
        with pytest.raises(UsageError):
            fuse_gs(fin, "nearest")

    def test_constant_intensity_rejected(self):
        const = Raster(np.full((8, 8, 4), 0.5))
        fin = FusionInput(lrms=const, pan=random_raster(1, 8, 8, 1), ratio=1)
        with pytest.raises(DegenerateInputError):
            fuse_gs(fin, "weighted-mean")


class TestHpf:
    def test_constant_pan_returns_upsampled_ms(self):
        hrms, _ = synth_scene(16, 16, 4, 33, [1, 1, 1, 1])
        pan = Raster(np.full((16, 16, 1), 0.5))
        fused = fuse_hpf(FusionInput(lrms=hrms, pan=pan, ratio=1))
        assert np.abs(fused.data - hrms.data).max() < 1e-12

    def test_detail_has_near_zero_mean(self):
        ms = Raster(np.full((64, 64, 2), 0.5))
        pan = random_raster(35, 64, 64, 1, lo=0.3, hi=0.7)
        fused = fuse_hpf(FusionInput(lrms=ms, pan=pan, ratio=1))
        detail = fused.data[:, :, 0] - 0.5
        assert abs(detail.mean()) < 1e-3

    def test_kernel_footprint_is_nine_by_nine_at_ratio_four(self):
        # impulse pan: the box residual spreads over exactly (2r+1)^2 pixels
        ms = Raster(np.full((8, 8, 2), 0.5))
        pan_arr = np.full((32, 32, 1), 0.5)
        pan_arr[16, 16, 0] = 0.75
        fused = fuse_hpf(FusionInput(lrms=ms, pan=Raster(pan_arr), ratio=4))
        detail = fused.data[:, :, 0] - 0.5
        touched = np.argwhere(np.abs(detail) > 1e-12)
        assert touched[:, 0].max() - touched[:, 0].min() == 8
        assert touched[:, 1].max() - touched[:, 1].min() == 8


class TestSharedContracts:
    @pytest.mark.parametrize("method", sorted(FUSERS))
    def test_output_dims_bands_and_range(self, method):
        hrms, pan = synth_scene(32, 32, 4, 41, [1, 1, 2, 1])
        lrms, _, _ = wald_degrade(hrms, pan, 4)
        fused = FUSERS[method](FusionInput(lrms=lrms, pan=pan, ratio=4))
        assert fused.data.shape == (32, 32, 4)
        assert fused.data.min() >= 0.0 and fused.data.max() <= 1.0

    @pytest.mark.parametrize("method", sorted(FUSERS))
    def test_deterministic(self, method):
        hrms, pan = synth_scene(32, 32, 4, 43, [1, 1, 1, 1])
        lrms, _, _ = wald_degrade(hrms, pan, 2)
        fin = FusionInput(lrms=lrms, pan=pan, ratio=2)
        assert np.array_equal(FUSERS[method](fin).data, FUSERS[method](fin).data)
