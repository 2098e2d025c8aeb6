"""The strip runner: result order, failures, nesting, concurrent callers, and
the same bits on one CPU as on two."""

import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import panfuse
from panfuse import Raster, _strips, downsample_antialias, metric_q4, metric_qnr, metric_uiqi
from panfuse._strips import _map_strips

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity control and at least 2 CPUs",
)


def run_script(script: str) -> str:
    src = str(Path(panfuse.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    return done.stdout


@pytest.mark.parametrize("n", [0, 1, 2, 7, 100])
def test_results_in_strip_order(n):
    starts = range(0, 3 * n, 3)
    assert _map_strips(lambda s: s * s, starts) == [s * s for s in starts]


@pytest.mark.parametrize("failing", [0, 5, 19])
def test_failure_is_raised_on_the_caller(failing):
    """Whichever thread runs the failing strip, the caller raises its error,
    and the helper is idle again afterwards."""

    def fn(s):
        if s == failing:
            raise ValueError(f"strip {s}")
        return s

    with pytest.raises(ValueError, match=f"strip {failing}"):
        _map_strips(fn, range(20))
    assert _map_strips(lambda s: -s, range(20)) == [-s for s in range(20)]


def test_helper_runs_under_the_callers_error_state(monkeypatch):
    """The first two strips wait for each other, so each thread runs one, and
    both see the caller's ``np.errstate``, which the helper thread never set."""
    monkeypatch.setattr(_strips, "_cpus", lambda: 2)
    both = threading.Barrier(2, timeout=30)

    def fn(s):
        if s < 2:
            both.wait()
        return threading.get_ident(), np.geterr()

    with np.errstate(over="raise", invalid="ignore", under="warn"):
        want = np.geterr()
        got = _map_strips(fn, range(4))
    assert len({thread for thread, _ in got}) == 2
    assert [state for _, state in got] == [want] * 4


def test_helper_failure_is_raised_on_the_caller(monkeypatch):
    """The two strips wait for each other, so the helper runs one of them; its
    error reaches the caller, whose own strip succeeded."""
    monkeypatch.setattr(_strips, "_cpus", lambda: 2)
    both, caller = threading.Barrier(2, timeout=30), threading.get_ident()

    def fn(s):
        both.wait()
        if threading.get_ident() != caller:
            raise ValueError(f"helper strip {s}")
        return s

    with pytest.raises(ValueError, match="^helper strip [01]$"):
        _map_strips(fn, range(2))
    assert _map_strips(lambda s: -s, range(20)) == [-s for s in range(20)]


def test_nested_runner_runs_inline():
    """A strip that calls the runner again finishes instead of waiting for
    the helper it runs on."""
    out = _map_strips(lambda s: sum(_map_strips(lambda t: s * t, range(4))), range(8))
    assert out == [6 * s for s in range(8)]


def test_concurrent_callers_share_the_helper():
    """More calling threads than cores, with a short switch interval: every
    caller still gets each of its own strips exactly once, in order."""
    results, errors = {}, []

    def caller(k):
        try:
            for _ in range(20):
                got = _map_strips(lambda s: (k, s), range(50))
                assert got == [(k, s) for s in range(50)]
            results[k] = True
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(results) == list(range(6))


def map_in_child() -> None:
    sys.exit(0 if _map_strips(lambda s: s + 1, range(10)) == list(range(1, 11)) else 1)


@needs_two_cpus
def test_forked_child_starts_its_own_helper():
    """A child forked after the helper started inherits no helper thread; its
    runner must not wait for the parent's."""
    _map_strips(lambda s: s, range(4))
    child = multiprocessing.get_context("fork").Process(target=map_in_child)
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
    assert not hung
    assert child.exitcode == 0


@pytest.mark.parametrize("block", [4, 8])
def test_degenerate_tile_rows_on_either_thread(block):
    """Every tile of a constant image divides by zero; the tile rows run on
    both threads, and each must ignore that under its own error state
    (warnings are errors in this suite)."""
    const = Raster(np.full((64, 64, 4), 0.5))
    band = Raster(const.data[:, :, :1])
    assert metric_q4(const, const, block) == 1.0
    assert metric_uiqi(band, band, block) == 1.0


@pytest.mark.parametrize("block", [16, 32])
def test_constant_scene_qnr_on_either_thread(block):
    """Every QNR pair of a constant scene falls back to 1 at both scales; the
    tile rows (8 or 4 per scale) run on both threads, each under its own
    error state."""
    const = Raster(np.full((128, 128, 4), 0.5))
    pan = Raster(np.full((128, 128, 1), 0.5))
    lrms = downsample_antialias(const, 4)
    assert metric_qnr(const, lrms, pan, 4, block) == (1.0, 0.0, 0.0)


def test_strip_rows_fill_the_element_budget():
    assert _strips._strip_rows(1024, 4) == 8
    assert _strips._strip_rows(256, 4) == 32
    assert _strips._strip_rows(10**6, 4) == 1


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    height=st.integers(1, 3000),
    width=st.integers(1, 5000),
    bands=st.integers(1, 8),
    min_rows=st.integers(1, 64),
)
def test_row_strips_tile_the_rows_once(height, width, bands, min_rows):
    """Contiguous slices that cover [0, height) exactly once, each but the
    last max(_strip_rows, min_rows) rows long."""
    strips = _strips._row_strips(height, width, bands, min_rows)
    step = max(_strips._strip_rows(width, bands), min_rows)
    assert strips[0].start == 0
    assert strips[-1].stop == height
    assert all(a.stop == b.start for a, b in zip(strips, strips[1:]))
    assert all(s.step is None for s in strips)
    assert all(s.stop - s.start == step for s in strips[:-1])
    assert 0 < strips[-1].stop - strips[-1].start <= step


# Hashes every output the strip runner or a strip loop produces, at sizes with
# many strips and tile rows, then reports whether the helper thread started.
DIGEST_SCRIPT = """
import hashlib, os, sys, threading
os.sched_setaffinity(0, {cpus})
import numpy as np
from panfuse import (Raster, downsample_antialias, metric_ergas, metric_q4, metric_qnr,
                     metric_sam, metric_ssim, synth_scene)
from panfuse.resample import _upsample
h = hashlib.sha256()
for size in (256, 300):
    hrms, pan = synth_scene(size, size, 4, 5, [1.0, 2.0, 2.0, 1.0])
    lrms = downsample_antialias(hrms, 4)
    up = _upsample(lrms.data, 4)
    fused = Raster(up)
    h.update(hrms.data.tobytes())
    h.update(pan.data.tobytes())
    h.update(up.tobytes())
    values = [metric_ssim(fused, hrms), metric_sam(fused, hrms), metric_ergas(fused, hrms, 4),
              metric_q4(fused, hrms, 32), *metric_qnr(fused, lrms, pan, 4, 32)]
    h.update(" ".join(v.hex() for v in values).encode())
print(h.hexdigest(), threading.active_count())
"""


@needs_two_cpus
def test_same_bits_on_one_and_two_cpus():
    two = sorted(os.sched_getaffinity(0))[:2]
    one_digest, one_threads = run_script(DIGEST_SCRIPT.format(cpus=set(two[:1]))).split()
    two_digest, two_threads = run_script(DIGEST_SCRIPT.format(cpus=set(two))).split()
    assert (one_threads, two_threads) == ("1", "2")  # the helper ran only on two CPUs
    assert one_digest == two_digest


# The calls of one benchmark GAN step (losses, gradients, conv features) and
# the scene set-up before it.
GAN_STEP_SCRIPT = """
import threading
import numpy as np
from panfuse import (ConvLayer, ConvStackSpec, LossSpec, Raster, combined_loss,
                     discriminator_loss, generator_loss, gm_perceptual_loss,
                     gm_reconstruction_loss, loss_gradient, patchify, perceptual_loss,
                     synth_scene, total_sam_loss, wald_degrade)
from panfuse import _strips
hrms, pan = synth_scene(128, 128, 4, 3, [1.0] * 4)
lrms, _, reference = wald_degrade(hrms, pan, 4)
patch = patchify(lrms, pan, 64, 4).patches[0]
rng = np.random.default_rng(0)
ref = Raster(reference.data[:64, :64])
fused = Raster(np.clip(ref.data + 0.02 * rng.standard_normal(ref.data.shape), 0.0, 1.0))
stack = ConvStackSpec(bands=4, layers=(
    ConvLayer(rng.normal(0.0, 0.3, (8, 4, 3, 3)), rng.normal(0.0, 0.05, 8), 1, 0.2),
    ConvLayer(rng.normal(0.0, 0.3, (16, 8, 3, 3)), rng.normal(0.0, 0.05, 16), 2, 0.2)))
tsam = total_sam_loss(fused, ref, patch.lrms, 4)
for loss_id in ("total_sam", "gm_reconstruction", "l1"):
    loss_gradient(loss_id, fused, ref, lrms=patch.lrms, ratio=4)
perc = perceptual_loss(fused, ref, stack)
gm_perceptual_loss(fused, ref, stack)
gm_reconstruction_loss(fused, ref)
combined_loss(perc, tsam, LossSpec())
generator_loss([0.3], [fused], [ref], LossSpec())
discriminator_loss([0.3], [0.7], "bce")
print(threading.active_count(), _strips._started)
"""


@needs_two_cpus
def test_gan_step_starts_no_helper():
    assert run_script(GAN_STEP_SCRIPT).split() == ["1", "False"]
