"""Loss values against closed forms and compositional oracles."""

import math

import numpy as np
import pytest

from panfuse import (
    GramMatrix,
    IDENTITY,
    LossSpec,
    Raster,
    combined_loss,
    discriminator_loss,
    downsample_antialias,
    generator_loss,
    gm_perceptual_loss,
    gm_reconstruction_loss,
    gram_matrix,
    loss_gradient,
    perceptual_loss,
    pixel_loss,
    sam_loss,
    total_sam_loss,
)
from panfuse.errors import DegenerateInputError, ShapeMismatchError, UsageError
from helpers import CUBE_FAULTS, random_raster, scale_pair


class TestPixelLoss:
    def test_zero_at_identity(self):
        x = random_raster(0, 8, 8, 3)
        assert pixel_loss(x, x, "l1") == 0.0
        assert pixel_loss(x, x, "mse") == 0.0

    def test_constant_offset_closed_forms(self):
        a = random_raster(1, 8, 8, 2)
        b = Raster(a.data + 0.5)
        assert abs(pixel_loss(a, b, "l1") - 0.5) < 1e-12
        assert abs(pixel_loss(a, b, "mse") - 0.25) < 1e-12

    def test_homogeneity(self):
        a = random_raster(2, 8, 8, 2)
        d = random_raster(3, 8, 8, 2, lo=-0.1, hi=0.1)
        l1_one = pixel_loss(Raster(a.data + d.data), a, "l1")
        l1_two = pixel_loss(Raster(a.data + 2 * d.data), a, "l1")
        mse_one = pixel_loss(Raster(a.data + d.data), a, "mse")
        mse_two = pixel_loss(Raster(a.data + 2 * d.data), a, "mse")
        assert abs(l1_two - 2 * l1_one) < 1e-12
        assert abs(mse_two - 4 * mse_one) < 1e-12

    def test_unknown_mode(self):
        x = random_raster(4, 4, 4, 1)
        with pytest.raises(UsageError):
            pixel_loss(x, x, "l3")


class TestGeneratorLoss:
    def test_perfect_generator_is_zero(self):
        x = random_raster(5, 8, 8, 4)
        spec = LossSpec(alpha=1.0, beta=1.0)
        assert generator_loss([1.0], [x], [x], spec) == 0.0

    def test_adversarial_term(self):
        x = random_raster(6, 8, 8, 4)
        spec = LossSpec(alpha=1.0, beta=0.0)
        assert abs(generator_loss([math.exp(-1)], [x], [x], spec) - 1.0) < 1e-12

    def test_reconstruction_term(self):
        a = random_raster(7, 8, 8, 4)
        b = Raster(a.data + 0.5)
        spec = LossSpec(alpha=0.0, beta=2.0)
        assert abs(generator_loss([0.5], [a], [b], spec) - 1.0) < 1e-12

    def test_nonpositive_score_rejected(self):
        x = random_raster(8, 4, 4, 2)
        with pytest.raises(DegenerateInputError):
            generator_loss([0.0], [x], [x], LossSpec())

    def test_length_mismatch_rejected(self):
        x = random_raster(9, 4, 4, 2)
        with pytest.raises(UsageError):
            generator_loss([0.5, 0.5], [x], [x], LossSpec())


class TestDiscriminatorLoss:
    def test_as_printed_at_half(self):
        assert abs(discriminator_loss([0.5], [0.5], "as_printed") - 1.0) < 1e-12

    def test_bce_at_half(self):
        want = 2 * math.log(2)
        assert abs(discriminator_loss([0.5], [0.5], "bce") - want) < 1e-12

    def test_bce_perfect_discriminator_approaches_zero(self):
        assert discriminator_loss([1e-9], [1.0 - 1e-9], "bce") < 1e-6

    def test_out_of_domain_rejected(self):
        with pytest.raises(DegenerateInputError):
            discriminator_loss([1.0], [0.5], "bce")
        with pytest.raises(DegenerateInputError):
            discriminator_loss([0.5], [0.0], "as_printed")


class TestSamLoss:
    def test_cosine_zero_at_identity(self):
        x = random_raster(10, 8, 8, 4, lo=0.1, hi=0.9)
        assert sam_loss(x, x, "cosine") < 1e-9

    def test_orthogonal_pixel_is_one(self):
        f = Raster(np.array([[[1.0, 0.0, 0.0, 0.0]]]))
        t = Raster(np.array([[[0.0, 1.0, 0.0, 0.0]]]))
        assert abs(sam_loss(f, t, "cosine") - 1.0) < 1e-12

    def test_cosine_scale_invariant(self):
        f = random_raster(11, 8, 8, 4, lo=0.1, hi=0.9)
        t = random_raster(12, 8, 8, 4, lo=0.1, hi=0.9)
        assert abs(sam_loss(Raster(2.7 * f.data), t, "cosine") - sam_loss(f, t, "cosine")) < 1e-9

    def test_as_printed_matches_global_formula(self):
        f = random_raster(13, 6, 6, 4)
        t = random_raster(14, 6, 6, 4)
        want = 1.0 - np.sum(f.data * t.data) / (
            np.sum(f.data**2) * np.sum(t.data**2) + 1e-12
        )
        assert abs(sam_loss(f, t, "as_printed") - want) < 1e-15

    def test_as_printed_not_zero_at_identity(self):
        # the printed global form lacks the square roots, so identity != 0
        x = random_raster(15, 6, 6, 4)
        assert abs(sam_loss(x, x, "as_printed")) > 1e-3

    def test_nonnegative(self):
        f = random_raster(16, 8, 8, 4)
        t = random_raster(17, 8, 8, 4)
        assert sam_loss(f, t, "cosine") >= 0.0


class TestTotalSamLoss:
    def test_zero_for_consistent_pair(self):
        ref = random_raster(18, 16, 16, 4, lo=0.1, hi=0.9)
        lrms = downsample_antialias(ref, 4)
        assert total_sam_loss(ref, ref, lrms, 4, "cosine") < 1e-9

    def test_half_weighting(self):
        fused = random_raster(19, 16, 16, 4, lo=0.1, hi=0.9)
        ref = fused  # full-resolution term is ~0
        lrms = random_raster(20, 4, 4, 4, lo=0.1, hi=0.9)
        low_term = sam_loss(downsample_antialias(fused, 4), lrms, "cosine")
        total = total_sam_loss(fused, ref, lrms, 4, "cosine")
        assert abs(total - 0.5 * low_term) < 1e-9

    def test_equals_compositional_oracle(self):
        fused = random_raster(21, 16, 16, 4)
        ref = random_raster(22, 16, 16, 4)
        lrms = random_raster(23, 4, 4, 4)
        want = 0.5 * sam_loss(fused, ref, "cosine") + 0.5 * sam_loss(
            downsample_antialias(fused, 4), lrms, "cosine"
        )
        assert abs(total_sam_loss(fused, ref, lrms, 4, "cosine") - want) < 1e-15

    def test_dims_validated(self):
        with pytest.raises(ShapeMismatchError):
            total_sam_loss(
                random_raster(0, 16, 16, 4),
                random_raster(1, 16, 16, 4),
                random_raster(2, 5, 5, 4),
                4,
            )

    @pytest.mark.parametrize("fault", CUBE_FAULTS)
    def test_scale_pair_faults(self, fault):
        lrms, _, fused = scale_pair(fault)
        with pytest.raises(ShapeMismatchError):
            total_sam_loss(fused, fused, lrms, 4)
        with pytest.raises(ShapeMismatchError):
            loss_gradient("total_sam", fused, fused, lrms=lrms, ratio=4)


class TestGramMatrix:
    def test_hand_computed_two_pixel_case(self):
        # feature rows (1,2) and (3,4): F^T F = [[10,14],[14,20]], /2 normalized
        f = Raster(np.array([[[1.0, 2.0]], [[3.0, 4.0]]]))
        g = gram_matrix(f)
        assert np.allclose(g.unnormalized, [[10, 14], [14, 20]], atol=1e-12)
        assert np.allclose(g.matrix, [[5, 7], [7, 10]], atol=1e-12)
        assert g.n == 2

    def test_zero_features_give_zero_matrix(self):
        assert np.all(gram_matrix(Raster(np.zeros((3, 3, 2)))).matrix == 0.0)

    def test_pixel_permutation_invariant(self):
        x = random_raster(24, 6, 6, 3)
        perm = np.random.default_rng(0).permutation(36)
        shuffled = Raster(x.data.reshape(36, 3)[perm].reshape(6, 6, 3))
        assert np.allclose(
            gram_matrix(x).matrix, gram_matrix(shuffled).matrix, atol=1e-12
        )

    def test_symmetric_psd(self):
        g = gram_matrix(random_raster(25, 8, 8, 4))
        assert np.abs(g.matrix - g.matrix.T).max() < 1e-12
        assert np.linalg.eigvalsh(g.matrix).min() >= -1e-9

    def test_square_enforced(self):
        with pytest.raises(ValueError):
            GramMatrix(matrix=np.ones((2, 3)), n=1)


class TestGramLosses:
    def test_zero_at_identity(self):
        x = random_raster(26, 8, 8, 3)
        assert gm_reconstruction_loss(x, x) == 0.0
        assert gm_perceptual_loss(x, x, IDENTITY) == 0.0

    def test_identity_extractor_collapses_to_reconstruction(self):
        for seed in range(50):
            f = random_raster(seed, 4, 4, 2)
            g = random_raster(seed + 1000, 4, 4, 2)
            assert abs(
                gm_perceptual_loss(f, g, IDENTITY) - gm_reconstruction_loss(f, g)
            ) < 1e-12

    def test_matches_dense_frobenius_oracle(self):
        f = random_raster(27, 4, 4, 2)
        g = random_raster(28, 4, 4, 2)
        n = 16
        gf = f.data.reshape(n, 2).T @ f.data.reshape(n, 2) / n
        gg = g.data.reshape(n, 2).T @ g.data.reshape(n, 2) / n
        want = math.sqrt(float(np.sum((gf - gg) ** 2)))
        assert abs(gm_reconstruction_loss(f, g) - want) < 1e-12

    def test_band_permutation_changes_gram(self):
        x = random_raster(29, 6, 6, 3)
        permuted = Raster(x.data[:, :, [2, 0, 1]])
        assert gm_reconstruction_loss(permuted, x) > 1e-3

    def test_scaling_identity(self):
        x = random_raster(30, 6, 6, 3)
        c = 1.7
        g_ref = gram_matrix(x).matrix
        want = abs(c * c - 1.0) * math.sqrt(float(np.sum(g_ref * g_ref)))
        got = gm_reconstruction_loss(Raster(c * x.data), x)
        assert abs(got - want) < 1e-9


class TestPerceptualLoss:
    def test_zero_at_identity(self):
        x = random_raster(31, 8, 8, 3)
        assert perceptual_loss(x, x, IDENTITY) == 0.0

    def test_identity_collapses_to_euclidean_norm(self):
        f = random_raster(32, 8, 8, 3)
        g = random_raster(33, 8, 8, 3)
        want = float(np.linalg.norm((f.data - g.data).ravel()))
        got = perceptual_loss(f, g, IDENTITY)
        assert abs(got - want) < 1e-9
        n = f.data.size
        assert abs(got - math.sqrt(n * pixel_loss(f, g, "mse"))) < 1e-9

    def test_linear_stack_scales_linearly(self):
        from panfuse import ConvLayer, ConvStackSpec

        rng = np.random.default_rng(34)
        layer = ConvLayer(
            weights=rng.standard_normal((2, 3, 3, 3)),
            bias=np.zeros(2),
            stride=1,
            leaky_slope=1.0,
        )
        spec = ConvStackSpec(bands=3, layers=(layer,))
        f = random_raster(35, 6, 6, 3)
        g = random_raster(36, 6, 6, 3)
        one = perceptual_loss(f, g, spec)
        three = perceptual_loss(Raster(3 * f.data), Raster(3 * g.data), spec)
        assert abs(three - 3 * one) < 1e-9


class TestCombinedLoss:
    def test_eta2_zero(self):
        spec = LossSpec(eta1=3.0, eta2=0.0)
        assert combined_loss(0.2, 9.9, spec) == pytest.approx(0.6, abs=1e-15)

    def test_unit_weights(self):
        spec = LossSpec(eta1=1.0, eta2=1.0)
        assert combined_loss(0.2, 0.3, spec) == pytest.approx(0.5, abs=1e-15)

    def test_linear_in_each_argument(self):
        spec = LossSpec(eta1=2.0, eta2=5.0)
        base = combined_loss(0.1, 0.2, spec)
        assert combined_loss(0.2, 0.2, spec) - base == pytest.approx(0.2, abs=1e-12)
        assert combined_loss(0.1, 0.4, spec) - base == pytest.approx(1.0, abs=1e-12)

    def test_negative_eta_rejected(self):
        with pytest.raises(UsageError):
            LossSpec(eta1=-1.0)
