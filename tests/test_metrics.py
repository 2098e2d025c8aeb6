"""Quality metrics against hand computations and brute-force tile oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panfuse import (
    MetricReport,
    Raster,
    build_report,
    downsample_antialias,
    metric_ergas,
    metric_q4,
    metric_qnr,
    metric_sam,
    metric_ssim,
    metric_uiqi,
    pan_from_weights,
    reports_to_csv,
    reports_to_json,
    synth_scene,
)
from panfuse.errors import DegenerateInputError, ShapeMismatchError
from helpers import CUBE_FAULTS, PAN_FAULTS, random_raster, scale_pair


def uiqi_tile_oracle(x, y):
    """Straight transcription of the Q formula on one flat tile."""
    n = x.size
    mx, my = x.mean(), y.mean()
    vx = ((x - mx) ** 2).sum() / (n - 1)
    vy = ((y - my) ** 2).sum() / (n - 1)
    cxy = ((x - mx) * (y - my)).sum() / (n - 1)
    return 4 * cxy * mx * my / ((vx + vy) * (mx * mx + my * my))


def quat_mult(a, b):
    return (
        a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
        a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
        a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
        a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
    )


def q4_tile_oracle(ref, fus):
    """Loop-based quaternion quality index on one (n, 4) tile pair."""
    n = ref.shape[0]
    mu1, mu2 = ref.mean(axis=0), fus.mean(axis=0)
    d1, d2 = ref - mu1, fus - mu2
    var1 = sum(float(np.dot(d1[i], d1[i])) for i in range(n)) / (n - 1)
    var2 = sum(float(np.dot(d2[i], d2[i])) for i in range(n)) / (n - 1)
    cov = np.zeros(4)
    for i in range(n):
        conj = (d2[i][0], -d2[i][1], -d2[i][2], -d2[i][3])
        cov += np.array(quat_mult(tuple(d1[i]), conj))
    cov /= n - 1
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    m1 = math.sqrt(float(np.dot(mu1, mu1)))
    m2 = math.sqrt(float(np.dot(mu2, mu2)))
    return (
        (math.sqrt(float(np.dot(cov, cov))) / (s1 * s2))
        * (2 * s1 * s2 / (var1 + var2))
        * (2 * m1 * m2 / (m1 * m1 + m2 * m2))
    )


def uiqi_loop_oracle(a, b, block):
    """Pre-tile-core metric_uiqi: one Python iteration per tile."""
    x2d, y2d = a.data[:, :, 0], b.data[:, :, 0]
    n = block * block
    total, count = 0.0, 0
    for r in range(0, a.height - block + 1, block):
        for c in range(0, a.width - block + 1, block):
            x = x2d[r : r + block, c : c + block].ravel()
            y = y2d[r : r + block, c : c + block].ravel()
            mx, my = x.mean(), y.mean()
            dx, dy = x - mx, y - my
            vx, vy = np.dot(dx, dx) / (n - 1), np.dot(dy, dy) / (n - 1)
            cxy = np.dot(dx, dy) / (n - 1)
            if vx + vy < 1e-12 or mx * mx + my * my < 1e-12:
                continue
            total += 4.0 * cxy * mx * my / ((vx + vy) * (mx * mx + my * my))
            count += 1
    if count == 0:
        return 1.0 if np.array_equal(a.data, b.data) else 0.0
    return total / count


def qnr_oracle(fused, lrms, pan, ratio, block):
    """Pre-tile-core metric_qnr: ordered band pairs, each Q over Raster-wrapped
    band slices."""
    nbands = fused.bands
    lr_block = min(max(block // ratio, 4), lrms.height, lrms.width)

    def q(x, y, blk):
        return uiqi_loop_oracle(Raster(x[:, :, None]), Raster(y[:, :, None]), blk)

    d_lambda = 0.0
    for i in range(nbands):
        for j in range(nbands):
            if i != j:
                d_lambda += abs(
                    q(fused.data[:, :, i], fused.data[:, :, j], block)
                    - q(lrms.data[:, :, i], lrms.data[:, :, j], lr_block)
                )
    d_lambda = min(max(d_lambda / (nbands * (nbands - 1)), 0.0), 1.0)
    pan_lr = downsample_antialias(pan, ratio)
    d_s = 0.0
    for b in range(nbands):
        d_s += abs(
            q(fused.data[:, :, b], pan.data[:, :, 0], block)
            - q(lrms.data[:, :, b], pan_lr.data[:, :, 0], lr_block)
        )
    d_s = min(max(d_s / nbands, 0.0), 1.0)
    return (1.0 - d_lambda) * (1.0 - d_s), d_lambda, d_s


def full_tiles(height, width, block):
    """Origins of the whole block x block tiles, row-major."""
    return [
        (r, c)
        for r in range(0, height - block + 1, block)
        for c in range(0, width - block + 1, block)
    ]


class TestSam:
    def test_identical_is_zero(self):
        x = random_raster(0, 16, 16, 4)
        assert metric_sam(x, x) == 0.0

    def test_quarter_pi_hand_case(self):
        f = Raster(np.array([[[1.0, 0.0, 0.0, 0.0]]]))
        g = Raster(np.array([[[1.0, 1.0, 0.0, 0.0]]]))
        assert abs(metric_sam(f, g) - math.pi / 4) < 1e-12

    def test_scale_invariance(self):
        x = random_raster(1, 12, 12, 4, lo=0.1, hi=0.9)
        scaled = Raster(x.data * 0.37)
        assert abs(metric_sam(scaled, x)) < 1e-9
        y = random_raster(2, 12, 12, 4, lo=0.1, hi=0.9)
        assert abs(metric_sam(Raster(x.data * 2.5), y) - metric_sam(x, y)) < 1e-9

    def test_per_pixel_scale_invariance(self):
        x = random_raster(30, 12, 12, 4, lo=0.1, hi=0.9)
        y = random_raster(31, 12, 12, 4, lo=0.1, hi=0.9)
        gains = 0.2 + 3.0 * np.random.default_rng(32).random((12, 12, 1))
        assert abs(metric_sam(Raster(x.data * gains), y) - metric_sam(x, y)) < 1e-9

    def test_symmetric(self):
        x = random_raster(3, 10, 10, 4)
        y = random_raster(4, 10, 10, 4)
        assert abs(metric_sam(x, y) - metric_sam(y, x)) < 1e-12

    def test_range(self):
        x = random_raster(5, 10, 10, 4)
        y = random_raster(6, 10, 10, 4)
        assert 0.0 <= metric_sam(x, y) <= math.pi

    def test_zero_norm_pixels_contribute_zero(self):
        f = np.zeros((1, 2, 4))
        g = np.zeros((1, 2, 4))
        f[0, 0] = [1, 0, 0, 0]
        g[0, 0] = [0, 1, 0, 0]  # pi/2; second pixel all-zero contributes 0
        assert abs(metric_sam(Raster(f), Raster(g)) - math.pi / 4) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            metric_sam(random_raster(0, 8, 8, 4), random_raster(1, 8, 8, 3))

    def test_needs_two_bands(self):
        with pytest.raises(ShapeMismatchError):
            metric_sam(random_raster(0, 8, 8, 1), random_raster(1, 8, 8, 1))


class TestErgas:
    def test_identical_is_zero(self):
        x = random_raster(7, 16, 16, 4)
        assert metric_ergas(x, x, 4) == 0.0

    def test_constant_offset_closed_form(self):
        ref = Raster(np.full((4, 4, 1), 10.0))
        fus = Raster(np.full((4, 4, 1), 12.0))
        assert abs(metric_ergas(fus, ref, 4) - 5.0) < 1e-12

    def test_homogeneous_of_degree_one(self):
        ref = random_raster(8, 16, 16, 3, lo=0.2, hi=0.8)
        delta = random_raster(9, 16, 16, 3, lo=-0.05, hi=0.05)
        one = metric_ergas(Raster(ref.data + delta.data), ref, 4)
        two = metric_ergas(Raster(ref.data + 2 * delta.data), ref, 4)
        assert abs(two - 2 * one) < 1e-9

    def test_zero_band_mean_rejected(self):
        zero = Raster(np.zeros((8, 8, 2)))
        with pytest.raises(DegenerateInputError):
            metric_ergas(random_raster(10, 8, 8, 2), zero, 4)


class TestUiqi:
    def test_identical_nonconstant_is_one(self):
        x = random_raster(11, 16, 16, 1)
        assert abs(metric_uiqi(x, x, 8) - 1.0) < 1e-12

    def test_reflection_about_mean_is_minus_one(self):
        # b = 2*mean(a) - a keeps the means equal and flips correlation
        a = random_raster(12, 8, 8, 1, lo=0.3, hi=0.7)
        b = Raster(2 * a.data.mean() - a.data)
        got = metric_uiqi(a, b, 8)
        want = uiqi_tile_oracle(a.data.ravel(), b.data.ravel())
        assert abs(got - want) < 1e-12
        assert abs(got + 1.0) < 1e-9

    def test_luminance_shift_penalized(self):
        a = random_raster(13, 8, 8, 1, lo=0.2, hi=0.6)
        b = Raster(a.data + 0.1)
        got = metric_uiqi(a, b, 8)
        want = uiqi_tile_oracle(a.data.ravel(), b.data.ravel())
        assert abs(got - want) < 1e-12
        assert got < 1.0

    def test_tile_average_matches_oracle(self):
        a = random_raster(14, 16, 16, 1)
        b = random_raster(15, 16, 16, 1)
        got = metric_uiqi(a, b, 8)
        tiles = []
        for r in (0, 8):
            for c in (0, 8):
                tiles.append(
                    uiqi_tile_oracle(
                        a.data[r : r + 8, c : c + 8, 0].ravel(),
                        b.data[r : r + 8, c : c + 8, 0].ravel(),
                    )
                )
        assert abs(got - np.mean(tiles)) < 1e-12

    def test_symmetric(self):
        a = random_raster(16, 16, 16, 1)
        b = random_raster(17, 16, 16, 1)
        assert abs(metric_uiqi(a, b, 8) - metric_uiqi(b, a, 8)) < 1e-12

    def test_degenerate_tiles_fall_back(self):
        const = Raster(np.full((8, 8, 1), 0.5))
        assert metric_uiqi(const, const, 8) == 1.0
        other = Raster(np.full((8, 8, 1), 0.25))
        assert metric_uiqi(const, other, 8) == 0.0

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(2, 40),
        width=st.integers(2, 40),
        block_frac=st.floats(0.0, 1.0),
    )
    def test_property_tile_mean_and_symmetry(self, seed, height, width, block_frac):
        block = 2 + int(block_frac * (min(height, width) - 2))
        a = random_raster(seed, height, width, 1)
        b = random_raster(seed + 1, height, width, 1)
        want = np.mean([
            uiqi_tile_oracle(a.data[r : r + block, c : c + block, 0].ravel(),
                             b.data[r : r + block, c : c + block, 0].ravel())
            for r, c in full_tiles(height, width, block)
        ])
        got = metric_uiqi(a, b, block)
        assert abs(got - want) < 1e-12
        assert abs(got - metric_uiqi(b, a, block)) < 1e-12

    def test_block_larger_than_image_rejected(self):
        with pytest.raises(ShapeMismatchError):
            metric_uiqi(random_raster(0, 8, 8, 1), random_raster(1, 8, 8, 1), 16)


class TestQ4:
    def test_identical_nonconstant_is_one(self):
        x = random_raster(18, 64, 64, 4)
        assert abs(metric_q4(x, x, 32) - 1.0) < 1e-9

    def test_single_tile_matches_oracle(self):
        a = random_raster(19, 8, 8, 4)
        b = random_raster(20, 8, 8, 4)
        got = metric_q4(a, b, 8)
        want = q4_tile_oracle(a.data.reshape(-1, 4), b.data.reshape(-1, 4))
        assert abs(got - want) < 1e-12

    def test_noise_band_strictly_lowers_index(self):
        ref = random_raster(21, 32, 32, 4)
        noisy = ref.data.copy()
        noisy[:, :, 2] = np.random.default_rng(99).random((32, 32))
        assert metric_q4(Raster(noisy), ref, 16) < metric_q4(ref, ref, 16)

    def test_global_gain_penalized(self):
        ref = random_raster(22, 16, 16, 4, lo=0.1, hi=0.6)
        gained = Raster(np.clip(ref.data * 1.5, 0, 1))
        got = metric_q4(gained, ref, 16)
        want = q4_tile_oracle(
            ref.data.reshape(-1, 4), gained.data.reshape(-1, 4)
        )
        assert abs(got - want) < 1e-12
        assert got < 1.0

    def test_partial_and_constant_tiles_match_oracle(self):
        block, height, width = 16, 40, 56  # 2 x 3 whole tiles plus partial edges
        ref = random_raster(23, height, width, 4).data.copy()
        fus = random_raster(24, height, width, 4).data.copy()
        constant = {(0, 0), (16, 32)}  # zero-variance tiles are skipped
        for r, c in constant:
            ref[r : r + block, c : c + block] = 0.4
            fus[r : r + block, c : c + block] = 0.6
        want = np.mean([
            q4_tile_oracle(ref[r : r + block, c : c + block].reshape(-1, 4),
                           fus[r : r + block, c : c + block].reshape(-1, 4))
            for r, c in full_tiles(height, width, block)
            if (r, c) not in constant
        ])
        assert abs(metric_q4(Raster(fus), Raster(ref), block) - want) < 1e-12

    def test_requires_four_bands(self):
        with pytest.raises(ShapeMismatchError):
            metric_q4(random_raster(0, 8, 8, 3), random_raster(1, 8, 8, 3), 8)


class TestSsim:
    def test_identical_is_one(self):
        x = random_raster(23, 32, 32, 4)
        assert abs(metric_ssim(x, x) - 1.0) < 1e-12

    def test_constant_pair_closed_form(self):
        d = 0.2
        ref = Raster(np.full((16, 16, 1), 0.5))
        fus = Raster(np.full((16, 16, 1), 0.5 + d))
        c1 = 0.01**2
        want = (2 * 0.5 * (0.5 + d) + c1) / (0.25 + (0.5 + d) ** 2 + c1)
        assert abs(metric_ssim(fus, ref) - want) < 1e-12

    def test_inverted_ramp_goes_negative(self):
        n = 32
        ramp = np.tile(np.linspace(0.0, 1.0, n)[None, :, None], (n, 1, 1))
        ref = Raster(ramp)
        fus = Raster(1.0 - ramp)
        assert metric_ssim(fus, ref) < 0.0

    def test_image_smaller_than_window_rejected(self):
        with pytest.raises(ShapeMismatchError):
            metric_ssim(random_raster(0, 8, 8, 1), random_raster(1, 8, 8, 1))


class TestQnr:
    def _consistent_scene(self, seed=5, size=128, ratio=4):
        hrms, pan = synth_scene(size, size, 4, seed, [1, 2, 2, 1])
        lrms = downsample_antialias(hrms, ratio)
        return hrms, lrms, pan

    def test_distortions_bounded(self):
        hrms, lrms, pan = self._consistent_scene()
        shuffled = np.random.default_rng(0).permutation(hrms.data.reshape(-1, 4))
        fused = Raster(shuffled.reshape(hrms.data.shape))
        qnr, d_lambda, d_s = metric_qnr(fused, lrms, pan, 4, 32)
        assert 0.0 <= d_lambda <= 1.0
        assert 0.0 <= d_s <= 1.0
        assert 0.0 <= qnr <= 1.0

    def test_consistent_fusion_scores_high(self):
        hrms, lrms, pan = self._consistent_scene()
        qnr, _, _ = metric_qnr(hrms, lrms, pan, 4, 32)
        assert qnr > 0.9

    def test_spatial_shuffle_hurts(self):
        hrms, lrms, pan = self._consistent_scene()
        qnr_good, _, ds_good = metric_qnr(hrms, lrms, pan, 4, 32)
        rng = np.random.default_rng(1)
        perm = rng.permutation(hrms.height * hrms.width)
        shuffled = hrms.data.reshape(-1, 4)[perm].reshape(hrms.data.shape)
        qnr_bad, _, ds_bad = metric_qnr(Raster(shuffled), lrms, pan, 4, 32)
        assert ds_bad > ds_good
        assert qnr_bad < qnr_good

    @pytest.mark.parametrize("bands", [3, 5])
    @pytest.mark.parametrize("ratio", [2, 4])
    @pytest.mark.parametrize("height, width", [(64, 64), (72, 88)])
    def test_matches_ordered_pair_oracle(self, bands, ratio, height, width):
        hrms, pan = synth_scene(width, height, bands, 40 + bands, [1.0] * bands)
        lrms = downsample_antialias(hrms, ratio)
        noise = np.random.default_rng(bands * ratio).normal(0.0, 0.03, hrms.data.shape)
        fused = Raster(np.clip(hrms.data + noise, 0.0, 1.0))
        got = metric_qnr(fused, lrms, pan, ratio, 32)
        want = qnr_oracle(fused, lrms, pan, ratio, 32)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12

    def test_all_constant_scene_skips_every_tile(self):
        hrms = Raster(np.full((72, 88, 3), 0.5))
        pan = Raster(np.full((72, 88, 1), 0.5))
        lrms = downsample_antialias(hrms, 4)
        got = metric_qnr(hrms, lrms, pan, 4, 32)
        assert got == qnr_oracle(hrms, lrms, pan, 4, 32)
        assert got[0] == 1.0

    def test_dimension_mismatch(self):
        hrms, lrms, pan = self._consistent_scene(size=64)
        with pytest.raises(ShapeMismatchError):
            metric_qnr(hrms, lrms, pan, 2, 32)

    @pytest.mark.parametrize("fault", PAN_FAULTS + CUBE_FAULTS)
    def test_scale_pair_faults(self, fault):
        lrms, pan, fused = scale_pair(fault)
        with pytest.raises(ShapeMismatchError):
            metric_qnr(fused, lrms, pan, 4, 8)


class TestReport:
    def _ideal_inputs(self, seed=6, size=64, ratio=4):
        hrms, pan = synth_scene(size, size, 4, seed, [1, 1, 1, 1])
        lrms = downsample_antialias(hrms, ratio)
        return hrms, lrms, pan

    def test_ideal_row(self):
        ref, lrms, pan = self._ideal_inputs()
        rep = build_report("ideal", ref, ref, lrms, pan, 4)
        assert abs(rep.ssim - 1.0) < 1e-9
        assert abs(rep.sam) < 1e-9
        assert abs(rep.ergas) < 1e-9
        assert abs(rep.q4 - 1.0) < 1e-9
        assert rep.qnr > 0.9

    def test_report_values_in_declared_ranges(self):
        ref, lrms, pan = self._ideal_inputs(seed=8)
        fused = Raster(np.clip(ref.data + 0.05, 0, 1))
        rep = build_report("offset", fused, ref, lrms, pan, 4)
        assert -1.0 <= rep.ssim <= 1.0
        assert 0.0 <= rep.sam <= math.pi
        assert rep.ergas >= 0.0
        assert -1.0 <= rep.q4 <= 1.0
        assert 0.0 <= rep.qnr <= 1.0

    def test_csv_row_format(self):
        rep = MetricReport(
            method="gihs",
            ssim=0.812915,
            sam=0.098976,
            ergas=5.592451,
            q4=0.794797,
            qnr=0.938389,
        )
        text = reports_to_csv([rep])
        lines = text.strip().split("\n")
        assert lines[0] == "method,ssim,sam,ergas,q4,qnr"
        assert lines[1] == "gihs,0.812915,0.098976,5.592451,0.794797,0.938389"

    def test_json_and_csv_encode_identical_values(self):
        ref, lrms, pan = self._ideal_inputs(seed=9)
        fused = Raster(np.clip(ref.data * 0.9 + 0.03, 0, 1))
        rep = build_report("x", fused, ref, lrms, pan, 4)
        csv_row = reports_to_csv([rep]).strip().split("\n")[1].split(",")
        json_row = json.loads(reports_to_json([rep]))[0]
        for i, name in enumerate(("ssim", "sam", "ergas", "q4", "qnr")):
            assert float(csv_row[i + 1]) == json_row[name]

    def test_two_methods_deterministic_rows(self):
        ref, lrms, pan = self._ideal_inputs(seed=10)
        fused = Raster(np.clip(ref.data + 0.02, 0, 1))
        a = build_report("m", fused, ref, lrms, pan, 4)
        b = build_report("m", fused, ref, lrms, pan, 4)
        assert a == b
