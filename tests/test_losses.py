"""Loss values against closed forms and compositional oracles."""

import math
import sys
import threading

import numpy as np
import pytest

from panfuse import cli, losses
from panfuse import (
    ConvLayer,
    ConvStackSpec,
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
    write_raster,
)
from panfuse.errors import DegenerateInputError, ShapeMismatchError, UsageError
from helpers import CLONES, CUBE_FAULTS, random_raster, reborn_at_dead_id, same_bits, scale_pair


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

    @pytest.mark.parametrize("score", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_score_rejected(self, score):
        x = random_raster(8, 4, 4, 2)
        with pytest.raises(DegenerateInputError):
            generator_loss([0.5, score], [x, x], [x, x], LossSpec())

    def test_length_mismatch_rejected(self):
        x = random_raster(9, 4, 4, 2)
        with pytest.raises(UsageError):
            generator_loss([0.5, 0.5], [x], [x], LossSpec())

    def test_empty_inputs_rejected(self):
        with pytest.raises(UsageError, match="at least one sample"):
            generator_loss([], [], [], LossSpec())


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

    @pytest.mark.parametrize(
        "d_fake,d_real,message",
        [([0.5, 0.5], [0.5], "equal length"), ([], [], "at least one sample")],
        ids=["unequal-lengths", "empty"],
    )
    def test_bad_lengths_rejected(self, d_fake, d_real, message):
        with pytest.raises(UsageError, match=message):
            discriminator_loss(d_fake, d_real, "bce")


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

    def test_as_printed_equals_compositional_oracle(self):
        fused = random_raster(24, 16, 16, 4)
        ref = random_raster(25, 16, 16, 4)
        lrms = random_raster(26, 4, 4, 4)
        want = 0.5 * sam_loss(fused, ref, "as_printed") + 0.5 * sam_loss(
            downsample_antialias(fused, 4), lrms, "as_printed"
        )
        assert total_sam_loss(fused, ref, lrms, 4, "as_printed") == want

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


class TestOneBandSam:
    """The cosine SAM needs 2 bands: at 1 band its value and its gradient, at
    one resolution or two, are the same shape error (exit 3)."""

    FUSED = random_raster(27, 16, 16, 1, lo=0.1, hi=0.9)
    REF = random_raster(28, 16, 16, 1, lo=0.1, hi=0.9)
    LRMS = random_raster(29, 4, 4, 1, lo=0.1, hi=0.9)

    CALLS = {
        "sam_loss": lambda f, r, lr: sam_loss(f, r, "cosine"),
        "total_sam_loss": lambda f, r, lr: total_sam_loss(f, r, lr, 4, "cosine"),
        "loss_gradient-sam_cosine": lambda f, r, lr: loss_gradient("sam_cosine", f, r),
        "loss_gradient-total_sam": lambda f, r, lr: loss_gradient("total_sam", f, r, lr, 4),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_one_band_is_a_shape_error(self, call):
        with pytest.raises(ShapeMismatchError, match="at least 2 bands") as info:
            self.CALLS[call](self.FUSED, self.REF, self.LRMS)
        assert info.value.exit_code == 3

    def test_as_printed_takes_one_band(self):
        """The printed global form has no per-pixel angle, so no band floor."""
        assert math.isfinite(total_sam_loss(self.FUSED, self.REF, self.LRMS, 4, "as_printed"))

    def test_the_check_is_in_the_parts(self):
        """One check, in the core that the values and gradients all read."""
        with pytest.raises(ShapeMismatchError):
            losses._sam_parts(self.FUSED.data, self.REF.data)


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

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, 4.0, "4", None])
    def test_pixel_count_must_be_a_positive_integer(self, n):
        with pytest.raises(UsageError, match="pixel count"):
            GramMatrix(matrix=np.eye(2), n=n)

    def test_pixel_count_is_required(self):
        with pytest.raises(TypeError):
            GramMatrix(np.eye(2))

    def test_numpy_pixel_count_stored_as_int(self):
        g = GramMatrix(matrix=np.eye(2), n=np.int64(3))
        assert type(g.n) is int
        assert np.array_equal(g.unnormalized, 3.0 * np.eye(2))

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
    def test_a_copied_matrix_is_read_only_too(self, clone):
        g = gram_matrix(random_raster(26, 5, 5, 3))
        other = clone(g)
        assert same_bits(other.matrix, g.matrix) and other.n == g.n
        with pytest.raises(ValueError, match="read-only"):
            other.matrix[0, 0] = 1.0


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


@pytest.fixture
def empty_memos():
    """Both loss memos start and end the test empty."""
    memos = (losses._total_sam_parts, losses._gram_delta)
    for memo in memos:
        memo.entries = ()
    yield memos
    for memo in memos:
        memo.entries = ()


def count_calls(monkeypatch, name):
    """A list that grows by one on every call of ``losses.<name>``."""
    calls = []
    fn = getattr(losses, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(losses, name, counted)
    return calls


def sam_triple(seed, size=16, bands=4, ratio=4):
    """(fused, reference, lrms) for total SAM at ``ratio``."""
    return (
        random_raster(seed, size, size, bands),
        random_raster(seed + 1, size, size, bands),
        random_raster(seed + 2, size // ratio, size // ratio, bands),
    )


def two_layer_stack(seed):
    rng = np.random.default_rng(seed)
    layers = tuple(
        ConvLayer(weights=rng.normal(0.0, 0.3, (c_out, c_in, 3, 3)),
                  bias=rng.normal(0.0, 0.05, c_out), stride=stride, leaky_slope=0.2)
        for c_in, c_out, stride in ((4, 8, 1), (8, 16, 2))
    )
    return ConvStackSpec(bands=4, layers=layers)


def step_outputs(fused, reference, lrms, ratio=4, gradient_first=False):
    """The bits of total SAM and the Gram reconstruction loss, and of their
    gradients, computed in the given order."""

    def values():
        return [total_sam_loss(fused, reference, lrms, ratio), gm_reconstruction_loss(fused, reference)]

    def gradients():
        return [loss_gradient(g, fused, reference, lrms=lrms, ratio=ratio).data
                for g in ("total_sam", "gm_reconstruction")]

    if gradient_first:
        grads = gradients()
        return values() + grads
    return values() + gradients()


class TestLastTwo:
    """The memo rule itself: ints and strs by value, anything else by identity."""

    def test_key_rule(self):
        memo = losses._LastTwo(lambda *args: (object(),))
        a, b = random_raster(1, 2, 2, 1), random_raster(1, 2, 2, 1)
        first = memo(a, 4, "identity")
        assert memo(a, 4, "ident" + "ity") is first
        assert memo(b, 4, "identity") is not first
        assert memo(a, 4, "identity") is first
        assert memo(a, 2, "identity") is not first

    def test_a_str_and_an_object_in_one_place_never_match(self):
        memo = losses._LastTwo(lambda *args: (object(),))
        x, stack = random_raster(2, 8, 8, 4), two_layer_stack(3)
        by_name = memo(x, "identity")
        by_stack = memo(x, stack)
        assert by_stack is not by_name
        assert memo(x, stack) is by_stack and memo(x, "identity") is by_name


class TestLossMemo:
    """Total SAM and the Gram losses share their intermediates with their
    gradients through a memo keyed on the very rasters they were given."""

    def test_repeat_call_hits(self, empty_memos, monkeypatch):
        f, r, lr = sam_triple(10)
        downs = count_calls(monkeypatch, "_loss_downsample")
        grams = count_calls(monkeypatch, "gram_matrix")
        first = step_outputs(f, r, lr)
        again = step_outputs(f, r, lr)
        assert len(downs) == 1 and len(grams) == 2
        assert all(same_bits(a, b) for a, b in zip(first, again))
        assert losses._total_sam_parts(f, r, lr, 4) is losses._total_sam_parts(f, r, lr, 4)

    def test_values_are_read_only(self, empty_memos):
        f, r, lr = sam_triple(11)
        down, full, low = losses._total_sam_parts(f, r, lr, 4)
        delta, fro = losses._gram_delta(f, r, IDENTITY)
        for arr in (down, *full, *low, delta):
            assert arr.flags.writeable is False
        assert isinstance(fro, float)

    @pytest.mark.parametrize(
        "change",
        [
            lambda f, r, lr: (Raster(f.data), r, lr),
            lambda f, r, lr: (f, Raster(r.data), lr),
            lambda f, r, lr: (f, r, Raster(lr.data)),
            lambda f, r, lr: (f, r, random_raster(99, 4, 4, 4)),
            lambda f, r, lr: (f, random_raster(98, 16, 16, 4), lr),
        ],
        ids=["fused-copy", "reference-copy", "lrms-copy", "other-lrms", "other-reference"],
    )
    def test_any_other_raster_misses(self, empty_memos, monkeypatch, change):
        f, r, lr = sam_triple(12)
        step_outputs(f, r, lr)
        other = change(f, r, lr)
        downs = count_calls(monkeypatch, "_loss_downsample")
        grams = count_calls(monkeypatch, "gram_matrix")
        got = step_outputs(*other)
        assert len(downs) == 1
        assert len(grams) == (0 if other[0] is f and other[1] is r else 2)
        for memo in empty_memos:
            memo.entries = ()
        assert all(same_bits(a, b) for a, b in zip(got, step_outputs(*other)))

    def test_other_ratio_misses(self, empty_memos, monkeypatch):
        f, r, lr4 = sam_triple(13)
        lr2 = random_raster(16, 8, 8, 4)
        total_sam_loss(f, r, lr4, 4)
        downs = count_calls(monkeypatch, "_loss_downsample")
        total_sam_loss(f, r, lr2, 2)
        assert len(downs) == 1 and downs[0][1] == 2
        assert [key[3] for key, _ in losses._total_sam_parts.entries] == [2, 4]

    def test_other_extractor_misses(self, empty_memos, monkeypatch):
        f, r = random_raster(14, 16, 16, 4), random_raster(15, 16, 16, 4)
        stack, twin = two_layer_stack(7), two_layer_stack(7)
        grams = count_calls(monkeypatch, "gram_matrix")
        by_stack = gm_perceptual_loss(f, r, stack)
        by_identity = gm_perceptual_loss(f, r, IDENTITY)
        assert len(grams) == 4
        assert gm_perceptual_loss(f, r, twin) == by_stack
        assert len(grams) == 6
        assert gm_perceptual_loss(f, r, twin) == by_stack
        assert gm_reconstruction_loss(f, r) == by_identity
        assert len(grams) == 6

    def test_a_dead_raster_never_hits_even_at_its_old_id(self, empty_memos):
        _, r, lr = sam_triple(17)
        dead_bytes = random_raster(20, 16, 16, 4).data
        old, y = reborn_at_dead_id(dead_bytes, random_raster(21, 16, 16, 4).data,
                                   lambda x: total_sam_loss(x, r, lr, 4))
        got = total_sam_loss(y, r, lr, 4)
        for memo in empty_memos:
            memo.entries = ()
        assert got == total_sam_loss(y, r, lr, 4)
        assert got != old

    def test_at_most_two_entries(self, empty_memos, monkeypatch):
        triples = [sam_triple(30 + 3 * i) for i in range(4)]
        for f, r, lr in triples:
            step_outputs(f, r, lr)
            assert all(len(memo.entries) <= 2 for memo in empty_memos)
        newest = [tuple(ref() for ref in key[:3]) for key, _ in losses._total_sam_parts.entries]
        assert newest == [triples[3], triples[2]]
        downs = count_calls(monkeypatch, "_loss_downsample")
        step_outputs(*triples[2])
        assert downs == []
        step_outputs(*triples[1])
        assert len(downs) == 1

    @pytest.mark.parametrize("bands", [2, 4, 8, 9])
    def test_call_order_gives_the_same_bits(self, empty_memos, bands):
        f, r, lr = sam_triple(40 + bands, bands=bands)
        loss_first = step_outputs(f, r, lr)
        for memo in empty_memos:
            memo.entries = ()
        gradient_first = step_outputs(f, r, lr, gradient_first=True)
        cleared = []
        for i in range(4):
            for memo in empty_memos:
                memo.entries = ()
            cleared.append(step_outputs(f, r, lr)[i])
        for a, b, c in zip(loss_first, gradient_first, cleared):
            assert same_bits(a, b) and same_bits(a, c)

    def test_one_downsample_and_two_grams_per_patch(self, empty_memos, monkeypatch):
        """The gan-step-64 sequence on 8 patches: total SAM and its gradient,
        then the Gram reconstruction loss and its gradient."""
        patches = [sam_triple(60 + 3 * i, size=64) for i in range(8)]
        downs = count_calls(monkeypatch, "_loss_downsample")
        grams = count_calls(monkeypatch, "gram_matrix")
        for f, r, lr in patches:
            total_sam_loss(f, r, lr, 4)
            loss_gradient("total_sam", f, r, lrms=lr, ratio=4)
            gm_reconstruction_loss(f, r)
            loss_gradient("gm_reconstruction", f, r)
        assert len(downs) == 8
        assert len(grams) == 16

    def test_threads_sharing_the_memo_get_their_own_values(self, empty_memos):
        """More threads than the CI runner's cores, each computing its own
        patch over and over, switching as often as the interpreter allows."""
        triples = [sam_triple(80 + 3 * i, size=8) for i in range(4)]
        wants = []
        for t in triples:
            for memo in empty_memos:
                memo.entries = ()
            wants.append(step_outputs(*t))
        start = threading.Barrier(len(triples))
        wrong = []

        def work(triple, want):
            start.wait(timeout=10)
            for i in range(150):
                got = step_outputs(*triple, gradient_first=bool(i % 2))
                if not all(same_bits(a, b) for a, b in zip(got, want)):
                    wrong.append(triple)

        threads = [threading.Thread(target=work, args=pair) for pair in zip(triples, wants)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("name", ["total-sam", "gm-reconstruction"])
    def test_grad_check_misses_on_every_perturbed_raster(
        self, empty_memos, monkeypatch, tmp_path, capsys, name
    ):
        """The finite differences perturb fresh rasters, one loss each; a memo
        hit on any of them would fail the check."""
        f, r, lr = sam_triple(90)
        for raster, stem in ((f, "f"), (r, "r"), (lr, "lrms")):
            write_raster(raster, tmp_path / f"{stem}.msr")
        core = count_calls(
            monkeypatch, "_loss_downsample" if name == "total-sam" else "gram_matrix"
        )
        argv = ["loss", "--name", name, "--grad-check", "--lrms", tmp_path / "lrms.msr",
                "--ratio", 4, tmp_path / "f.msr", tmp_path / "r.msr"]
        assert cli.main([str(a) for a in argv]) == 0
        assert "PASS" in capsys.readouterr().out
        evaluations = 2 * f.data.size
        assert len(core) >= (1 if name == "total-sam" else 2) * evaluations
