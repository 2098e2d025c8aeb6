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
from panfuse.features import _apply_layer, _features_adjoint, extract_features
from panfuse.losses import GRADIENTS, LOSSES, Loss, LossContext
from helpers import directional_error, random_raster, separated_pair


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
        commands = next(a for a in cli._PARSER._actions if a.dest == "command")
        name = next(a for a in commands.choices["loss"]._actions if a.dest == "name")
        assert name.choices == (*LOSSES, "gen-adv", "disc")
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

    @pytest.mark.parametrize("name", ["perceptual", "gm-perceptual"])
    def test_perceptual_gradients_through_a_conv_stack(self, name):
        fused, reference = separated_pair(11, height=8, width=8, bands=4)
        value, grad_id = LOSSES[name]
        ctx = LossContext(extractor=self.conv_stack())
        analytic = Raster(GRADIENTS[grad_id](fused, reference, ctx))
        assert gradient_check(lambda x: value(x, reference, ctx), analytic, fused) < 1e-4

    def test_gm_reconstruction_gradient_ignores_the_extractor(self):
        fused, reference = separated_pair(12, height=8, width=8, bands=4)
        got = GRADIENTS["gm_reconstruction"](
            fused, reference, LossContext(extractor=self.conv_stack())
        )
        assert np.array_equal(got, loss_gradient("gm_reconstruction", fused, reference).data)


def random_stack(seed, bands, layers):
    """A conv stack of ``(out, k, stride, slope, bias mean)`` layers, with
    N(0, 0.4) weights and N(bias mean, 0.1) biases drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    built = []
    for out, k, stride, slope, bias in layers:
        built.append(ConvLayer(rng.normal(0.0, 0.4, (out, bands, k, k)),
                               bias + rng.normal(0.0, 0.1, out), stride, slope))
        bands = out
    return ConvStackSpec(bands=built[0].in_channels, layers=tuple(built))


def pre_activations(x, stack):
    """Each layer's pre-activation of ``x``: the layer at slope 1, where the
    leaky ReLU keeps every value."""
    arr, found = x.data, []
    for layer in stack.layers:
        found.append(_apply_layer(arr, ConvLayer(layer.weights, layer.bias, layer.stride, 1.0)))
        arr = _apply_layer(arr, layer)
    return found


# name -> ((height, width), bands, layers of random_stack): strides 1-3, odd and
# even sizes, kernels 1, 3 and 5, slopes 0, 0.2, 2.5 and -0.3, and a layer
# whose every pre-activation is negative.
STACK_CASES = {
    "stride-1-kernel-3-odd": ((9, 9), 3, ((4, 3, 1, 0.2, 0.0),)),
    "stride-2-kernel-5-even": ((10, 10), 2, ((3, 5, 2, -0.3, 0.0),)),
    "stride-3-kernel-1-odd-by-even": ((11, 8), 3, ((4, 1, 3, 2.5, 0.0),)),
    "stride-3-slope-0-even": ((16, 16), 2, ((3, 3, 3, 0.0, 0.0),)),
    "strides-1-2-kernels-3-5": ((12, 9), 3, ((4, 3, 1, 0.2, 0.0), (3, 5, 2, -0.3, 0.0))),
    "strides-2-3-kernels-1-3": ((16, 13), 2, ((4, 1, 2, 2.5, 0.0), (3, 3, 3, 0.0, 0.0))),
    "all-negative-layer": ((8, 8), 3, ((4, 3, 1, 0.2, -20.0), (3, 3, 2, -0.3, 0.0))),
}


class TestConvStackGradients:
    """The perceptual and Gram gradients through a conv stack, by the
    extractor's adjoint."""

    @pytest.mark.parametrize("name", ["perceptual", "gm-perceptual"])
    @pytest.mark.parametrize("case", list(STACK_CASES))
    def test_matches_finite_differences(self, case, name):
        (height, width), bands, layers = STACK_CASES[case]
        stack = random_stack(0, bands, layers)
        fused = random_raster(100, height, width, bands)
        reference = random_raster(200, height, width, bands)
        h = 1e-5
        # A central difference across a kink of the leaky ReLU is not its derivative.
        assert min(np.abs(pre).min() for pre in pre_activations(fused, stack)) > 100 * h
        if case == "all-negative-layer":
            assert (pre_activations(fused, stack)[0] < 0).all()
        value, grad_id = LOSSES[name]
        ctx = LossContext(extractor=stack)
        analytic = Raster(GRADIENTS[grad_id](fused, reference, ctx))
        assert gradient_check(lambda x: value(x, reference, ctx), analytic, fused, h) < 1e-4

    def test_adjoint_of_a_linear_layer(self):
        """<g, A x> = <A^T g, x> for a zero-bias layer at slope 1, over sizes 1-12,
        strides 1-3 and kernels 1, 3 and 5."""
        rng = np.random.default_rng(9)
        for size in range(1, 13):
            for stride in (1, 2, 3):
                for k in (1, 3, 5):
                    layer = ConvLayer(rng.normal(size=(3, 2, k, k)), np.zeros(3), stride, 1.0)
                    stack = ConvStackSpec(bands=2, layers=(layer,))
                    x = Raster(rng.normal(size=(size, size, 2)))
                    ax = extract_features(x, stack).data
                    g = rng.normal(size=ax.shape)
                    forward = float(np.sum(g * ax))
                    adjoint = float(np.sum(_features_adjoint(x, stack, g) * x.data))
                    assert abs(forward - adjoint) <= 1e-13 * abs(forward), (size, stride, k)

    @pytest.mark.parametrize("name", ["perceptual", "gm-perceptual"])
    def test_directional_check_at_the_benchmark_shape(self, name):
        """64 x 64 x 4 through the GAN step's two-layer stack (4 -> 8 at stride
        1, 8 -> 16 at stride 2, slope 0.2, float32 weights as a CSW file holds
        them): the gradient agrees with the central difference along 8 unit
        directions, and the gradient scaled by 1.001 does not."""
        rng = np.random.default_rng(7)
        layers = tuple(
            ConvLayer(rng.normal(0.0, 0.3, (c_out, c_in, 3, 3)).astype(np.float32),
                      rng.normal(0.0, 0.05, c_out).astype(np.float32), stride, 0.2)
            for c_in, c_out, stride in ((4, 8, 1), (8, 16, 2))
        )
        ctx = LossContext(extractor=ConvStackSpec(bands=4, layers=layers))
        fused, reference = separated_pair(41, height=64, width=64, bands=4)
        value, grad_id = LOSSES[name]
        grad = GRADIENTS[grad_id](fused, reference, ctx)

        def loss(x):
            return value(x, reference, ctx)

        assert directional_error(loss, grad, fused, seed=0) < 1e-5
        assert directional_error(loss, 1.001 * grad, fused, seed=0) > 1e-4
