"""Shared test fixtures: seeded rasters, brute-force reference filters, CLI runs."""

import copy
import math
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import panfuse
from panfuse import Raster


def run_cli(*args, cwd=None, pin=None):
    """Run ``python -m panfuse`` on the same panfuse package the tests import,
    so the suite works from a checkout without installing it; with ``pin``,
    under ``taskset -c pin``."""
    src = str(Path(panfuse.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    prefix = ["taskset", "-c", pin] if pin else []
    return subprocess.run(
        [*prefix, sys.executable, "-m", "panfuse", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def framed(magic, header, payload=b""):
    """MSR/CSW file bytes: magic, u32 header length, header bytes, payload."""
    return magic + struct.pack("<I", len(header)) + header + payload


# Any JSON value, small integers (valid dimensions) weighted in.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1, 4)
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def random_raster(seed, height, width, bands, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return Raster(lo + (hi - lo) * rng.random((height, width, bands)))


def separated_pair(seed, height=8, width=8, bands=4):
    """A (fused, reference) pair whose per-element gap stays away from zero,
    so l1-style losses are differentiable at the test point."""
    rng = np.random.default_rng(seed)
    f = 0.05 + 0.9 * rng.random((height, width, bands))
    gap = (0.02 + 0.18 * rng.random(f.shape)) * rng.choice([-1.0, 1.0], size=f.shape)
    return Raster(f), Raster(f + gap)


def reflect_index(i, n):
    """Symmetric (half-sample) reflection of index i into [0, n)."""
    m = i % (2 * n)
    return m if m < n else 2 * n - 1 - m


def gaussian_taps(radius, sigma):
    taps = np.array(
        [math.exp(-0.5 * (j / sigma) ** 2) for j in range(-radius, radius + 1)]
    )
    return taps / taps.sum()


def brute_force_blur(arr, taps):
    """Separable correlation with reflected borders, written as plain loops."""
    h, w, b = arr.shape
    radius = len(taps) // 2
    tmp = np.zeros_like(arr)
    for k in range(b):
        for y in range(h):
            for x in range(w):
                tmp[y, x, k] = sum(
                    taps[j] * arr[reflect_index(y - radius + j, h), x, k]
                    for j in range(len(taps))
                )
    out = np.zeros_like(arr)
    for k in range(b):
        for y in range(h):
            for x in range(w):
                out[y, x, k] = sum(
                    taps[j] * tmp[y, reflect_index(x - radius + j, w), k]
                    for j in range(len(taps))
                )
    return out


def brute_force_downsample(arr, ratio):
    """Gaussian blur (sigma=ratio/2, radius 2*ratio) then stride-ratio decimation."""
    taps = gaussian_taps(2 * ratio, ratio / 2.0)
    return brute_force_blur(arr, taps)[::ratio, ::ratio, :]


# Geometry faults of a (low-resolution, high-resolution) pair: a pan that is
# not single band or not ratio times the lrms, and a high-resolution cube that
# is not ratio times the lrms or has another band count.
PAN_FAULTS = ("pan-2-bands", "pan-off-by-one")
CUBE_FAULTS = ("cube-off-by-one", "cube-band-count")


def scale_pair(fault=None, ratio=4):
    """(lrms, pan, cube) around an 8 x 8 x 4 lrms, consistent at ``ratio``
    except for one named ``fault`` from PAN_FAULTS or CUBE_FAULTS."""
    hr = 8 * ratio
    pan_shape = {"pan-2-bands": (hr, hr, 2), "pan-off-by-one": (hr + 1, hr, 1)}
    cube_shape = {"cube-off-by-one": (hr, hr - 1, 4), "cube-band-count": (hr, hr, 3)}
    lrms = random_raster(0, 8, 8, 4)
    pan = random_raster(1, *pan_shape.get(fault, (hr, hr, 1)))
    cube = random_raster(2, *cube_shape.get(fault, (hr, hr, 4)))
    return lrms, pan, cube


def same_bits(got, want):
    """Equal shapes and equal bits, so +0.0 and -0.0 differ."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def computed_calls(monkeypatch, memo):
    """A list that gets the arguments of every call ``memo`` computes (a
    remembered call adds nothing), for the rest of the test."""
    calls = []
    compute = memo.compute

    def counted(*args):
        calls.append(args)
        return compute(*args)

    monkeypatch.setattr(memo, "compute", counted)
    return calls


def reborn_at_dead_id(dead_bytes, new_bytes, use):
    """(``use`` of a raster of ``dead_bytes`` that then died, a live raster of
    ``new_bytes`` at the dead raster's id): :func:`born_at_dead_id` for
    rasters."""
    return born_at_dead_id(lambda: Raster(dead_bytes), lambda: Raster._adopt(new_bytes), use)


def born_at_dead_id(make_dead, make_new, use):
    """(``use`` of an object from ``make_dead`` that then died, a live object
    from ``make_new`` at the dead object's id). Each candidate stays alive, so
    the next one takes another address, until one takes the dead object's;
    the allocator may hand that address to another object first, so a few
    dead objects are tried."""
    held = []
    for _ in range(20):
        x = make_dead()
        result, dead_id = use(x), id(x)
        del x
        for _ in range(1000):
            y = make_new()
            if id(y) == dead_id:
                return result, y
            held.append(y)
    raise AssertionError("no new object took a dead object's id")


# Every way to copy an object: each must go through the object's constructor.
CLONES = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}
