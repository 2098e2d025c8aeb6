"""One rule for every carrier of arrays (a raster, a patch set, a fusion
input, a Gram matrix, a conv layer or stack): a copy, a deep copy or an
unpickle runs the constructor, so it is checked and read-only too, and a
carrier compares and hashes by identity, so ``==``, ``in``, ``index`` and dict
lookups never ask numpy for an array's truth value."""

import dataclasses

import numpy as np
import pytest

from panfuse import (
    ConvLayer, ConvStackSpec, FusionInput, GramMatrix, Patch, PatchSet, Raster, raster,
)
from panfuse.losses import LossContext
from helpers import CLONES

_RNG = np.random.default_rng(27)
_LRMS, _PAN, _REF = _RNG.random((2, 2, 4)), _RNG.random((4, 4, 1)), _RNG.random((4, 4, 4))
_WEIGHTS, _BIAS = _RNG.normal(0.0, 0.3, (3, 4, 3, 3)), _RNG.normal(0.0, 0.05, 3)

# carrier class -> () -> a new carrier of that class, built from the same arrays every call
CARRIERS = {
    Raster: lambda: Raster(_LRMS),
    PatchSet: lambda: PatchSet((Patch(Raster(_LRMS), Raster(_PAN), Raster(_REF)),), 2),
    FusionInput: lambda: FusionInput(Raster(_LRMS), Raster(_PAN), 2),
    GramMatrix: lambda: GramMatrix(np.eye(3) + 0.5, 4),
    ConvLayer: lambda: ConvLayer(_WEIGHTS, _BIAS, 1, 0.2),
    ConvStackSpec: lambda: ConvStackSpec(4, (ConvLayer(_WEIGHTS, _BIAS, 1, 0.2),)),
}
_IDS = [cls.__name__ for cls in CARRIERS]


def _arrays(obj):
    """Every array a carrier holds, through its fields, tuples and carriers."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def test_every_carrier_is_listed():
    assert set(CARRIERS) == set(raster._Carrier.__subclasses__())
    assert len(CARRIERS) == len(raster._Carrier.__subclasses__())


@pytest.mark.parametrize("cls", CARRIERS, ids=_IDS)
def test_equality_and_hash_are_identity(cls):
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__


@pytest.mark.parametrize("make", CARRIERS.values(), ids=_IDS)
def test_carriers_of_equal_arrays_compare_unequal(make):
    x, y = make(), make()
    assert (x == y) is False
    assert (x != y) is True


@pytest.mark.parametrize("make", CARRIERS.values(), ids=_IDS)
def test_a_carrier_is_found_by_identity(make):
    x, y = make(), make()
    assert x == x
    assert hash(x) == hash(x)
    assert x in [y, x]
    assert [y, x].index(x) == 1
    assert {x: 1}[x] == 1
    assert {y: 1}.get(x) is None


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
@pytest.mark.parametrize("cls", CARRIERS, ids=_IDS)
def test_a_clone_is_another_checked_read_only_carrier(monkeypatch, cls, clone):
    assert cls.__reduce__ is raster._Carrier.__reduce__
    x = CARRIERS[cls]()
    checked = []
    post_init = cls.__post_init__

    def counted(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    other = clone(x)
    assert type(other) is cls and other is not x and other != x
    assert any(c is other for c in checked)
    arrays = list(_arrays(other))
    assert arrays and len(arrays) == len(list(_arrays(x)))
    for got, want in zip(arrays, _arrays(x)):
        assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="read-only"):
            got.flat[0] = 0.5


def test_one_pixel_rasters_of_equal_value_are_unequal():
    """A 1 x 1 x 1 raster was the one shape whose value equality numpy
    answered; two of equal value are distinct rasters too."""
    assert Raster(np.full((1, 1, 1), 0.5)) != Raster(np.full((1, 1, 1), 0.5))


def test_patches_of_rasters_hash_and_compare():
    lrms, pan = Raster(_LRMS), Raster(_PAN)
    patch = Patch(lrms, pan, None)
    assert patch == Patch(lrms, pan, None)
    assert hash(patch) == hash(Patch(lrms, pan, None))
    assert patch != Patch(Raster(_LRMS), pan, None)
    assert {patch: 1}[Patch(lrms, pan, None)] == 1


def test_loss_contexts_of_rasters_hash_and_compare():
    lrms = Raster(_LRMS)
    ctx = LossContext(lrms, 4)
    assert ctx == LossContext(lrms, 4)
    assert hash(ctx) == hash(LossContext(lrms, 4))
    assert ctx != LossContext(Raster(_LRMS), 4)
    assert ctx != LossContext(lrms, 2)
    assert [LossContext(Raster(_LRMS), 4), ctx].index(ctx) == 1
