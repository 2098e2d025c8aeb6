"""One rule for every integer parameter: a plain or numpy ``int`` at or above
its minimum, else a usage error (exit 2) that is also a ``ValueError``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panfuse import (
    ConvLayer,
    ConvStackSpec,
    FusionInput,
    Patch,
    PatchSet,
    Raster,
    downsample_antialias,
    downsample_antialias_adjoint,
    extract_features,
    fuse_gihs,
    loss_gradient,
    metric_ergas,
    metric_q4,
    metric_qnr,
    metric_uiqi,
    mmse_band_weights,
    patchify,
    synth_scene,
    total_sam_loss,
    upsample,
    wald_degrade,
)
from panfuse.errors import PanfuseError, ShapeMismatchError
from panfuse.raster import _positive_int
from helpers import random_raster

HR = random_raster(31, 16, 16, 4, lo=0.1, hi=0.9)
FUSED = random_raster(32, 16, 16, 4, lo=0.1, hi=0.9)
LR = random_raster(33, 4, 4, 4, lo=0.1, hi=0.9)
PAN = random_raster(34, 16, 16, 1, lo=0.1, hi=0.9)
PAN2 = random_raster(35, 16, 16, 1, lo=0.1, hi=0.9)


def _conv(stride=1, bands=1):
    layer = ConvLayer(np.full((1, 1, 1, 1), 0.5), np.zeros(1), stride, 0.2)
    return extract_features(PAN, ConvStackSpec(bands, (layer,)))


# public entry point and parameter -> (a call of that one integer, an integer it takes)
INTEGER_SITES = {
    "downsample_antialias ratio": (lambda v: downsample_antialias(HR, v), 4),
    "downsample_antialias_adjoint ratio": (lambda v: downsample_antialias_adjoint(LR, v), 4),
    "upsample ratio": (lambda v: upsample(LR, v), 4),
    "wald_degrade ratio": (lambda v: wald_degrade(HR, PAN, v), 4),
    "FusionInput ratio": (lambda v: fuse_gihs(FusionInput(LR, PAN, v)), 4),
    "mmse_band_weights ratio": (lambda v: mmse_band_weights(LR, PAN, v), 4),
    "metric_ergas ratio": (lambda v: metric_ergas(FUSED, HR, v), 4),
    "metric_qnr ratio": (lambda v: metric_qnr(FUSED, LR, PAN, v, 8), 4),
    "metric_qnr block": (lambda v: metric_qnr(FUSED, LR, PAN, 4, v), 8),
    "metric_q4 block": (lambda v: metric_q4(FUSED, HR, v), 8),
    "metric_uiqi block": (lambda v: metric_uiqi(PAN, PAN2, v), 8),
    "total_sam_loss ratio": (lambda v: total_sam_loss(FUSED, HR, LR, v), 4),
    "loss_gradient total_sam ratio": (lambda v: loss_gradient("total_sam", FUSED, HR, LR, v), 4),
    "patchify patch": (lambda v: patchify(LR, PAN, v, 4), 8),
    "patchify ratio": (lambda v: patchify(LR, PAN, 8, v), 4),
    "PatchSet ratio": (lambda v: PatchSet((Patch(LR, PAN, None),), v), 4),
    "synth_scene width": (lambda v: synth_scene(v, 8, 2, 0, [1, 1]), 8),
    "synth_scene height": (lambda v: synth_scene(8, v, 2, 0, [1, 1]), 8),
    "synth_scene bands": (lambda v: synth_scene(8, 8, v, 0, [1, 1]), 2),
    "synth_scene seed": (lambda v: synth_scene(8, 8, 2, v, [1, 1]), 3),
    "ConvLayer stride": (lambda v: _conv(stride=v), 2),
    "ConvStackSpec bands": (lambda v: _conv(bands=v), 1),
}

# Values no integer parameter takes as an integer, or below every minimum but a seed's.
NOT_INTEGERS = [True, np.True_, 4.0, 2.5, "4", None]
BELOW_MINIMUM = [0, -4]


def _bits(result) -> bytes:
    """Every number of ``result`` as bytes, in order, with a PatchSet's ratio
    by its repr, so a numpy integer kept as the ratio differs from an int."""
    if isinstance(result, Raster):
        return result.data.tobytes()
    if isinstance(result, PatchSet):
        rasters = [r for p in result.patches for r in p if r is not None]
        return _bits(rasters) + repr(result.ratio).encode()
    if isinstance(result, (tuple, list)):
        return b"".join(_bits(r) for r in result)
    return np.asarray(result, dtype=np.float64).tobytes()


def _site_and_value(site):
    accepted = INTEGER_SITES[site][1]
    values = [*NOT_INTEGERS, *BELOW_MINIMUM, accepted, np.int64(accepted)]
    return st.tuples(st.just(site), st.sampled_from(values))


class TestIntegerRule:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(draw=st.sampled_from(sorted(INTEGER_SITES)).flatmap(_site_and_value))
    def test_every_integer_parameter_follows_the_rule(self, draw):
        """A call returns or raises a usage error, never a TypeError or a
        ZeroDivisionError; a non-integer is never taken, and a numpy integer
        gives the bits of the plain int."""
        site, value = draw
        call = INTEGER_SITES[site][0]
        try:
            result = call(value)
        except PanfuseError as exc:
            assert exc.exit_code == 2, f"{site}={value!r}: {exc!r}"
            return
        assert not any(value is v for v in NOT_INTEGERS), f"{site} took {value!r}"
        if isinstance(value, np.integer):
            assert _bits(result) == _bits(call(int(value)))

    # Each was a raw TypeError, a ZeroDivisionError, or a value.
    FAULTS = [
        ("metric_ergas ratio", 0),
        ("metric_ergas ratio", -4),
        ("metric_ergas ratio", 2.5),
        ("metric_ergas ratio", True),
        ("downsample_antialias ratio", True),
        ("upsample ratio", True),
        *[(site, 2.5) for site in (
            "downsample_antialias ratio",
            "downsample_antialias_adjoint ratio",
            "upsample ratio",
            "wald_degrade ratio",
            "FusionInput ratio",
            "metric_qnr ratio",
            "metric_qnr block",
            "metric_q4 block",
            "total_sam_loss ratio",
            "loss_gradient total_sam ratio",
            "patchify patch",
            "synth_scene width",
            "synth_scene seed",
            "mmse_band_weights ratio",
        )],
    ]

    @pytest.mark.parametrize("site, value", FAULTS, ids=[f"{s}={v!r}" for s, v in FAULTS])
    def test_fault_is_a_usage_error(self, site, value):
        with pytest.raises(PanfuseError) as info:
            INTEGER_SITES[site][0](value)
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("value", [np.int64(4), np.uint8(4), np.int32(4)])
    def test_numpy_integer_comes_back_a_plain_int(self, value):
        assert type(_positive_int("ratio", value)) is int
        assert type(FusionInput(LR, PAN, value).ratio) is int
        assert type(PatchSet((), value).ratio) is int

    @pytest.mark.parametrize("value", [0, 2.5, True])
    def test_the_error_is_also_a_value_error(self, value):
        with pytest.raises(ValueError, match="ratio"):
            _positive_int("ratio", value)

    def test_minimum(self):
        assert _positive_int("seed", 0, 0) == 0
        with pytest.raises(PanfuseError, match="ratio must be >= 2, got 1"):
            _positive_int("ratio", 1, 2)

    @pytest.mark.parametrize("block", [1, 17])
    def test_block_one_or_beyond_the_image_stays_a_shape_error(self, block):
        with pytest.raises(ShapeMismatchError):
            metric_q4(FUSED, HR, block)
