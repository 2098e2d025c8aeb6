"""One rule for every choice (a mode, a method's --lrpan, a gradient loss id,
an extractor name): a ``str`` among the accepted values, else a usage error
(exit 2) that is also a ``ValueError`` and names those values. One rule for
every band count an operation needs: at least (or exactly) so many bands,
else a shape error (exit 3). Discriminator scores follow the real rule's
type half."""

import argparse
import math
import re

import numpy as np
import pytest

from panfuse import (
    ConvLayer,
    ConvStackSpec,
    FusionInput,
    LossSpec,
    cli,
    discriminator_loss,
    extract_features,
    fuse_gihs,
    fuse_gs,
    generator_loss,
    gm_perceptual_loss,
    histogram_match,
    loss_gradient,
    metric_q2n,
    metric_q4,
    metric_qnr,
    metric_sam,
    metric_uiqi,
    perceptual_loss,
    pixel_loss,
    sam_loss,
    total_sam_loss,
)
from panfuse.errors import DegenerateInputError, ParameterError, ShapeMismatchError
from panfuse.fusion import GS_LR_PAN_MODES
from panfuse.losses import DISC_MODES, GRADIENTS, LOSSES, PIXEL_MODES, SAM_MODES
from panfuse.raster import _check_bands, _choice, _finite_real, _real
from helpers import random_raster

HR = random_raster(51, 8, 8, 4, lo=0.1, hi=0.9)
LR = random_raster(52, 4, 4, 4, lo=0.1, hi=0.9)
PAN = random_raster(53, 8, 8, 1, lo=0.1, hi=0.9)
OTHER = random_raster(59, 8, 8, 4, lo=0.1, hi=0.9)
GRADIENT_NAMES = [name for name, loss in LOSSES.items() if loss.gradient is not None]


class _Reached(Exception):
    """Raised where a CLI command, its choices accepted, goes on to read files."""


def _reached(*args):
    raise _Reached


def _cli_fuse(v, method="gs"):
    args = argparse.Namespace(method=method, lrpan=v, lrms="l.msr", pan="p.msr", name="fused")
    return cli.cmd_fuse(args)


def _cli_grad_check(v):
    return cli.cmd_loss(argparse.Namespace(name=v, grad_check=True))


# public entry point and argument -> (a call of that one choice, its accepted values)
CHOICE_SITES = {
    "pixel_loss mode": (lambda v: pixel_loss(HR, HR, v), PIXEL_MODES),
    "sam_loss mode": (lambda v: sam_loss(HR, HR, v), SAM_MODES),
    "total_sam_loss mode": (lambda v: total_sam_loss(HR, HR, LR, 2, v), SAM_MODES),
    "discriminator_loss mode": (lambda v: discriminator_loss([0.5], [0.5], v), DISC_MODES),
    "fuse_gs lr_pan_mode": (lambda v: fuse_gs(FusionInput(LR, PAN, 2), v), GS_LR_PAN_MODES),
    "loss_gradient loss_id": (lambda v: loss_gradient(v, HR, HR), tuple(GRADIENTS)),
    "extract_features extractor": (lambda v: extract_features(HR, v), ("identity",)),
    "perceptual_loss extractor": (lambda v: perceptual_loss(HR, HR, v), ("identity",)),
    "gm_perceptual_loss extractor": (lambda v: gm_perceptual_loss(HR, HR, v), ("identity",)),
    "cli fuse --lrpan": (_cli_fuse, GS_LR_PAN_MODES),
    "cli loss --grad-check --name": (_cli_grad_check, GRADIENT_NAMES),
}

# Values no choice takes, by name: no str, or a str that is no choice.
NOT_CHOICES = {
    "'nope'": "nope", "None": None, "True": True, "1": 1, "['l1']": ["l1"],
    "np.array(['l1', 'x'])": np.array(["l1", "x"]), "b'l1'": b"l1",
}

# None is how the CLI says that --lrpan was not given: the method's default.
CHOICE_CASES = [
    (site, name) for site in sorted(CHOICE_SITES) for name in NOT_CHOICES
    if (site, name) != ("cli fuse --lrpan", "None")
]


class TestChoiceRule:
    @pytest.mark.parametrize("site, name", CHOICE_CASES,
                             ids=[f"{s}={n}" for s, n in CHOICE_CASES])
    def test_every_choice_follows_the_rule(self, site, name):
        """The rule's own error, naming every accepted value, never an
        AttributeError, a TypeError, numpy's truth-value error or a taken value."""
        call, accepted = CHOICE_SITES[site]
        with pytest.raises(ParameterError) as info:
            call(NOT_CHOICES[name])
        assert info.value.exit_code == 2 and isinstance(info.value, ValueError)
        message = str(info.value)
        assert "must be one of" in message
        assert all(repr(choice) in message for choice in accepted)

    @pytest.mark.parametrize("site", sorted(CHOICE_SITES))
    def test_an_accepted_value_passes_the_rule(self, site, monkeypatch):
        call, accepted = CHOICE_SITES[site]
        if site.startswith("cli "):
            monkeypatch.setattr(cli, "_loss_inputs", _reached)
            monkeypatch.setattr(cli.raster, "read_raster", _reached)
            with pytest.raises(_Reached):
                call(accepted[0])
        else:
            call(accepted[-1])

    def test_the_lrpan_message_names_both_flags(self):
        with pytest.raises(ParameterError, match="--lrpan for --method hpf must be one of none"):
            _cli_fuse("mmse", method="hpf")

    def test_a_numpy_str_is_a_str(self):
        assert _choice("mode", np.str_("l1"), PIXEL_MODES) == "l1"
        assert pixel_loss(HR, OTHER, np.str_("l1")) == pixel_loss(HR, OTHER, "l1")

    def test_no_choices_reads_none(self):
        with pytest.raises(ParameterError, match="must be one of none; got 'mmse'"):
            _choice("--lrpan for --method hpf", "mmse", ())

    def test_grad_check_of_a_loss_without_gradient_exits_two(self, tmp_path, capsys):
        cli.main(["simulate", "--size", "16", "--out", str(tmp_path)])
        ms = str(tmp_path / "hrms.msr")
        assert cli.main(["loss", "--name", "sam-printed", "--grad-check", ms, ms]) == 2
        err = capsys.readouterr().err
        assert "'sam-printed'" in err and "'sam'" in err and "Traceback" not in err


def _stack(bands):
    layer = ConvLayer(np.full((2, bands, 1, 1), 0.5), np.zeros(2), 1, 0.2)
    return ConvStackSpec(bands, (layer,))


def _qnr(bands):
    lrms = random_raster(54, 4, 4, bands, lo=0.1, hi=0.9)
    fused = random_raster(55, 16, 16, bands, lo=0.1, hi=0.9)
    return metric_qnr(fused, lrms, random_raster(56, 16, 16, 1, lo=0.1, hi=0.9), 4, 8)


def _cube(bands, seed=57):
    return random_raster(seed, 8, 8, bands, lo=0.1, hi=0.9)


# what the error names -> (a call of that band count, the count it needs, exact)
BAND_SITES = {
    "pan": (lambda b: FusionInput(LR, _cube(b), 2), 1, True),
    "sam": (lambda b: metric_sam(_cube(b), _cube(b, 58)), 2, False),
    "uiqi": (lambda b: metric_uiqi(_cube(b), _cube(b, 58), 4), 1, True),
    "q2n": (lambda b: metric_q2n(_cube(b), _cube(b, 58), 4), 2, False),
    "q4": (lambda b: metric_q4(_cube(b), _cube(b, 58), 4), 4, True),
    "qnr": (_qnr, 2, False),
    "sam loss": (lambda b: sam_loss(_cube(b), _cube(b, 58), "cosine"), 2, False),
    "histogram_match source": (lambda b: histogram_match(_cube(b), _cube(1, 58)), 1, True),
    "histogram_match target": (lambda b: histogram_match(_cube(1), _cube(b, 58)), 1, True),
    "extractor": (lambda b: extract_features(_cube(b), _stack(4)), 4, True),
    "gihs": (lambda b: fuse_gihs(FusionInput(_cube(b), _cube(1, 58), 1)), 3, False),
}

# one band short, or, for a site that needs an exact count, one over too
BAND_CASES = [
    (what, got) for what, (_, need, exact) in sorted(BAND_SITES.items())
    for got in ([need - 1] if need > 1 else []) + ([need + 1] if exact else [])
]


class TestBandRule:
    @pytest.mark.parametrize("what, got", BAND_CASES, ids=[f"{w}-{g}" for w, g in BAND_CASES])
    def test_every_band_count_follows_the_rule(self, what, got):
        call, need, exact = BAND_SITES[what]
        wording = f"{what} requires {'exactly' if exact else 'at least'} {need} band"
        with pytest.raises(ShapeMismatchError) as info:
            call(got)
        assert info.value.exit_code == 3
        assert re.fullmatch(rf"{re.escape(wording)}s?, got {got}", str(info.value))

    @pytest.mark.parametrize("what", sorted(BAND_SITES))
    def test_the_count_it_needs_passes(self, what):
        call, need, _ = BAND_SITES[what]
        call(need)

    def test_plural_follows_the_count(self):
        with pytest.raises(ShapeMismatchError, match=r"^x requires exactly 1 band, got 2$"):
            _check_bands("x", 2, 1, exact=True)
        with pytest.raises(ShapeMismatchError, match=r"^x requires at least 2 bands, got 1$"):
            _check_bands("x", 1, 2)
        _check_bands("x", 9, 2)


SCORE_SITES = {
    "generator_loss": lambda v: generator_loss([v], [HR], [HR], LossSpec()),
    "discriminator_loss fake": lambda v: discriminator_loss([v], [0.5]),
    "discriminator_loss real": lambda v: discriminator_loss([0.5], [v], "bce"),
}

# The choice table's values less 1, a real score, plus a numeric string and numpy's bool.
NOT_SCORES = {
    **{name: v for name, v in NOT_CHOICES.items() if name != "1"},
    "'0.5'": "0.5", "np.True_": np.True_,
}
SCORE_CASES = [(site, name) for site in sorted(SCORE_SITES) for name in NOT_SCORES]


class TestScoreRule:
    @pytest.mark.parametrize("site, name", SCORE_CASES, ids=[f"{s}={n}" for s, n in SCORE_CASES])
    def test_every_score_is_a_real_number(self, site, name):
        """Was a raw TypeError, or a bool read as a score of 1.0."""
        with pytest.raises(ParameterError, match="discriminator score must be a real number"):
            SCORE_SITES[site](NOT_SCORES[name])

    @pytest.mark.parametrize("site", sorted(SCORE_SITES))
    @pytest.mark.parametrize("score", [math.nan, math.inf, -0.5, 0.0])
    def test_a_real_outside_the_domain_stays_degenerate(self, site, score):
        with pytest.raises(DegenerateInputError):
            SCORE_SITES[site](score)

    @pytest.mark.parametrize("site", sorted(SCORE_SITES))
    def test_a_numpy_score_gives_the_bits_of_the_float(self, site):
        assert SCORE_SITES[site](np.float64(0.25)) == SCORE_SITES[site](0.25)
        assert SCORE_SITES[site](np.float32(0.25)) == SCORE_SITES[site](0.25)

    def test_the_type_half_leaves_finiteness_to_the_real_rule(self):
        assert math.isnan(_real("score", math.nan)) and _real("score", np.int64(3)) == 3.0
        assert type(_real("score", np.float32(0.5))) is float
        with pytest.raises(ParameterError, match="must be finite"):
            _finite_real("weight", math.nan)
        with pytest.raises(ParameterError, match="must be finite"):
            _real("score", 10**400)
