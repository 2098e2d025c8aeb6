"""Analytic gradients against the central finite-difference oracle."""

import numpy as np
import pytest

from panfuse import (
    IDENTITY,
    ConvLayer,
    ConvStackSpec,
    LossSpec,
    Raster,
    combined_loss,
    finite_difference_gradient,
    gm_perceptual_loss,
    gm_reconstruction_loss,
    gradient_check,
    loss_gradient,
    perceptual_loss,
    pixel_loss,
    sam_loss,
    total_sam_loss,
)
from panfuse import cli, losses
from panfuse.errors import ShapeMismatchError, UsageError
from panfuse.losses import GRADIENTS, LOSSES, Loss, LossContext
from helpers import random_raster, separated_pair


def loss_cases(fused, reference, lrms):
    """(evaluator, analytic gradient) pairs for every supported loss id."""
    return {
        "l1": (
            lambda x: pixel_loss(x, reference, "l1"),
            loss_gradient("l1", fused, reference),
        ),
        "mse": (
            lambda x: pixel_loss(x, reference, "mse"),
            loss_gradient("mse", fused, reference),
        ),
        "sam_cosine": (
            lambda x: sam_loss(x, reference, "cosine"),
            loss_gradient("sam_cosine", fused, reference),
        ),
        "total_sam": (
            lambda x: total_sam_loss(x, reference, lrms, 4, "cosine"),
            loss_gradient("total_sam", fused, reference, lrms=lrms, ratio=4),
        ),
        "gm_reconstruction": (
            lambda x: gm_reconstruction_loss(x, reference),
            loss_gradient("gm_reconstruction", fused, reference),
        ),
        "perceptual_identity": (
            lambda x: perceptual_loss(x, reference, IDENTITY),
            loss_gradient("perceptual_identity", fused, reference),
        ),
        "gm_perceptual_identity": (
            lambda x: gm_perceptual_loss(x, reference, IDENTITY),
            loss_gradient("gm_perceptual_identity", fused, reference),
        ),
    }


class TestClosedForms:
    def test_mse_gradient_closed_form(self):
        f, g = separated_pair(0)
        grad = loss_gradient("mse", f, g)
        want = 2.0 * (f.data - g.data) / f.data.size
        assert np.abs(grad.data - want).max() < 1e-15

    def test_l1_gradient_is_scaled_sign(self):
        f, g = separated_pair(1)
        grad = loss_gradient("l1", f, g)
        want = np.sign(f.data - g.data) / f.data.size
        assert np.array_equal(grad.data, want)

    def test_sam_gradient_vanishes_at_identity(self):
        x = random_raster(2, 8, 8, 4, lo=0.2, hi=0.8)
        grad = loss_gradient("sam_cosine", x, x)
        assert np.abs(grad.data).max() < 1e-9

    def test_unsupported_loss_id(self):
        f, g = separated_pair(3)
        with pytest.raises(UsageError):
            loss_gradient("sam_printed", f, g)


class TestFiniteDifferenceOracle:
    def test_fd_matches_mse_closed_form(self):
        f, g = separated_pair(4)
        fd = finite_difference_gradient(lambda x: pixel_loss(x, g, "mse"), f, 1e-5)
        want = 2.0 * (f.data - g.data) / f.data.size
        assert np.abs(fd.data - want).max() < 1e-7

    def test_fd_is_linear_over_combined_loss(self):
        f, g = separated_pair(5)
        lrms = random_raster(6, 2, 2, 4, lo=0.1, hi=0.9)
        spec = LossSpec(eta1=2.0, eta2=3.0)

        def base(x):
            return pixel_loss(x, g, "mse")

        def reg(x):
            return sam_loss(x, g, "cosine")

        fd_combined = finite_difference_gradient(
            lambda x: combined_loss(base(x), reg(x), spec), f, 1e-5
        )
        fd_base = finite_difference_gradient(base, f, 1e-5)
        fd_reg = finite_difference_gradient(reg, f, 1e-5)
        want = spec.eta1 * fd_base.data + spec.eta2 * fd_reg.data
        assert np.abs(fd_combined.data - want).max() < 1e-8

    def test_second_order_convergence(self):
        # halving h shrinks central-difference error about 4x on a smooth loss
        f, g = separated_pair(7)
        exact = loss_gradient("sam_cosine", f, g).data
        err = {}
        for h in (1e-3, 5e-4):
            fd = finite_difference_gradient(lambda x: sam_loss(x, g, "cosine"), f, h)
            err[h] = np.abs(fd.data - exact).max()
        ratio = err[1e-3] / err[5e-4]
        assert 2.5 < ratio < 6.0

    def test_bad_step_rejected(self):
        f, g = separated_pair(8)
        with pytest.raises(UsageError):
            finite_difference_gradient(lambda x: pixel_loss(x, g, "l1"), f, 0.0)

    @pytest.mark.parametrize("h", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_step_rejected(self, h):
        f, g = separated_pair(8)
        with pytest.raises(UsageError, match="finite and positive"):
            finite_difference_gradient(lambda x: pixel_loss(x, g, "l1"), f, h)


class TestAnalyticVsFiniteDifference:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_losses_match_fd(self, seed):
        fused, reference = separated_pair(seed)
        lrms = random_raster(seed + 500, 2, 2, 4, lo=0.1, hi=0.9)
        for name, (fn, analytic) in loss_cases(fused, reference, lrms).items():
            max_rel = gradient_check(fn, analytic, fused, 1e-5)
            assert max_rel < 1e-4, f"{name} seed={seed}: max_rel={max_rel:.3e}"


class TestGradientCheckFloor:
    """The floor forgives the central differences' rounding, not wrong
    gradients: a random 32 x 32 x 4 pair over a one-pixel lrms at ratio 32,
    whose few near-zero gradient elements sit at the rounding level."""

    @pytest.fixture(scope="class")
    def case(self):
        fused, reference = random_raster(7, 32, 32, 4), random_raster(107, 32, 32, 4)
        lrms = random_raster(207, 1, 1, 4)

        def fn(x):
            return total_sam_loss(x, reference, lrms, 32, "cosine")

        analytic = loss_gradient("total_sam", fused, reference, lrms=lrms, ratio=32)
        return fn, analytic.data, fused, finite_difference_gradient(fn, fused, 1e-5)

    @staticmethod
    def check(monkeypatch, case, grad):
        """gradient_check of ``grad``, with the case's differences computed once."""
        fn, _, fused, fd = case
        monkeypatch.setattr(losses, "finite_difference_gradient", lambda *args: fd)
        return gradient_check(fn, Raster(grad), fused, 1e-5)

    def test_correct_gradient_passes(self, monkeypatch, case):
        assert self.check(monkeypatch, case, case[1]) < 1e-4

    def test_scaled_gradient_fails(self, monkeypatch, case):
        assert self.check(monkeypatch, case, case[1] * (1 + 1e-3)) >= 1e-4

    def test_median_element_sign_flip_fails(self, monkeypatch, case):
        flipped = case[1].copy()
        flat = flipped.reshape(-1)
        median = np.argsort(np.abs(flat))[flat.size // 2]
        flat[median] = -flat[median]
        assert self.check(monkeypatch, case, flipped) >= 1e-4


def test_gradient_check_refuses_an_analytic_gradient_of_another_shape():
    """A 1 x 1 x 1 raster holding the l1 gradient's one value would broadcast
    onto the 4 x 4 x 2 differences and pass."""
    reference = random_raster(3, 4, 4, 2, lo=0.1, hi=0.4)
    fused = Raster(reference.data + 0.5)
    with pytest.raises(ShapeMismatchError, match=r"\(1, 1, 1\) vs \(4, 4, 2\)"):
        gradient_check(lambda x: pixel_loss(x, reference, "l1"), Raster(np.full((1, 1, 1), 1 / 32)),
                       fused, 1e-5)


class TestLossTable:
    """One registry of raster-pair losses over one context."""

    @staticmethod
    def conv_stack():
        layer = ConvLayer(np.full((4, 4, 1, 1), 0.1), np.zeros(4), 1, 0.2)
        return ConvStackSpec(bands=4, layers=(layer,))

    def test_registry_is_the_cli_table(self):
        assert cli.LOSSES is LOSSES
        assert Loss._fields == ("value", "gradient")
        assert tuple(LOSSES) == (
            "l1", "mse", "sam", "sam-printed", "total-sam",
            "perceptual", "gm-perceptual", "gm-reconstruction",
        )

    def test_every_gradient_id_has_one_loss(self):
        ids = [loss.gradient for loss in LOSSES.values() if loss.gradient is not None]
        assert sorted(ids) == sorted(GRADIENTS)

    def test_context_defaults(self):
        assert LossContext() == (None, None, IDENTITY)

    @pytest.mark.parametrize("loss_id", list(GRADIENTS))
    def test_loss_gradient_is_the_table_entry(self, loss_id):
        fused, reference = separated_pair(7, height=8, width=8, bands=4)
        lrms = random_raster(8, 2, 2, 4, lo=0.1, hi=0.9)
        got = loss_gradient(loss_id, fused, reference, lrms=lrms, ratio=4)
        want = GRADIENTS[loss_id](fused, reference, LossContext(lrms, 4))
        assert np.array_equal(got.data, want)

    @pytest.mark.parametrize(
        "ctx", [LossContext(), LossContext(ratio=4), LossContext(lrms=random_raster(9, 2, 2, 4))],
        ids=["neither", "no-lrms", "no-ratio"],
    )
    def test_total_sam_needs_lrms_and_ratio(self, ctx):
        fused, reference = separated_pair(10, height=8, width=8, bands=4)
        with pytest.raises(UsageError, match="lrms and ratio"):
            LOSSES["total-sam"].value(fused, reference, ctx)
        with pytest.raises(UsageError, match="lrms and ratio"):
            GRADIENTS["total_sam"](fused, reference, ctx)

    @pytest.mark.parametrize("loss_id", ["perceptual_identity", "gm_perceptual_identity"])
    def test_perceptual_gradients_refuse_a_conv_stack(self, loss_id):
        fused, reference = separated_pair(11, height=8, width=8, bands=4)
        with pytest.raises(UsageError, match="identity extractor"):
            GRADIENTS[loss_id](fused, reference, LossContext(extractor=self.conv_stack()))

    def test_gm_reconstruction_gradient_ignores_the_extractor(self):
        fused, reference = separated_pair(12, height=8, width=8, bands=4)
        got = GRADIENTS["gm_reconstruction"](
            fused, reference, LossContext(extractor=self.conv_stack())
        )
        assert np.array_equal(got, loss_gradient("gm_reconstruction", fused, reference).data)
