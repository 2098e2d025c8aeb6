"""The strip runner: result order, failures, nesting, concurrent callers, and
the same bits on one CPU as on two."""

import multiprocessing
import os
import platform
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path
from xml.etree import ElementTree

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


def no_scratch() -> None:
    """The scratch factory of a strip function that writes no buffer."""


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
    assert _map_strips(lambda s, _: s * s, starts, no_scratch) == [s * s for s in starts]


@pytest.mark.parametrize("failing", [0, 5, 19])
def test_failure_is_raised_on_the_caller(failing):
    """Whichever thread runs the failing strip, the caller raises its error,
    and the helper is idle again afterwards."""

    def fn(s, _):
        if s == failing:
            raise ValueError(f"strip {s}")
        return s

    with pytest.raises(ValueError, match=f"strip {failing}"):
        _map_strips(fn, range(20), no_scratch)
    assert _map_strips(lambda s, _: -s, range(20), no_scratch) == [-s for s in range(20)]


def test_helper_runs_under_the_callers_error_state(monkeypatch):
    """The first two strips wait for each other, so each thread runs one, and
    both see the caller's ``np.errstate``, which the helper thread never set."""
    monkeypatch.setattr(_strips, "_cpus", lambda: 2)
    both = threading.Barrier(2, timeout=30)

    def fn(s, _):
        if s < 2:
            both.wait()
        return threading.get_ident(), np.geterr()

    with np.errstate(over="raise", invalid="ignore", under="warn"):
        want = np.geterr()
        got = _map_strips(fn, range(4), no_scratch)
    assert len({thread for thread, _ in got}) == 2
    assert [state for _, state in got] == [want] * 4


def test_helper_failure_is_raised_on_the_caller(monkeypatch):
    """The two strips wait for each other, so the helper runs one of them; its
    error reaches the caller, whose own strip succeeded."""
    monkeypatch.setattr(_strips, "_cpus", lambda: 2)
    both, caller = threading.Barrier(2, timeout=30), threading.get_ident()

    def fn(s, _):
        both.wait()
        if threading.get_ident() != caller:
            raise ValueError(f"helper strip {s}")
        return s

    with pytest.raises(ValueError, match="^helper strip [01]$"):
        _map_strips(fn, range(2), no_scratch)
    assert _map_strips(lambda s, _: -s, range(20), no_scratch) == [-s for s in range(20)]


def test_failures_on_both_threads_raise_the_callers(monkeypatch):
    """The two strips wait for each other, so each thread runs one, and both
    fail: the caller raises its own error once the helper has finished."""
    monkeypatch.setattr(_strips, "_cpus", lambda: 2)
    both, caller = threading.Barrier(2, timeout=30), threading.get_ident()
    helper_finished = threading.Event()

    def fn(s, _):
        both.wait()
        if threading.get_ident() != caller:
            time.sleep(0.05)  # the caller's strip fails first
            helper_finished.set()
            raise ValueError(f"helper strip {s}")
        raise ValueError(f"caller strip {s}")

    with pytest.raises(ValueError, match="^caller strip [01]$"):
        _map_strips(fn, range(2), no_scratch)
    assert helper_finished.is_set()
    assert _map_strips(lambda s, _: -s, range(20), no_scratch) == [-s for s in range(20)]


def test_nested_runner_runs_inline():
    """A strip that calls the runner again finishes instead of waiting for
    the helper it runs on."""
    def fn(s, _):
        return sum(_map_strips(lambda t, _: s * t, range(4), no_scratch))

    out = _map_strips(fn, range(8), no_scratch)
    assert out == [6 * s for s in range(8)]


def test_concurrent_callers_share_the_helper():
    """More calling threads than cores, with a short switch interval: every
    caller still gets each of its own strips exactly once, in order."""
    results, errors = {}, []

    def caller(k):
        try:
            for _ in range(20):
                got = _map_strips(lambda s, _: (k, s), range(50), no_scratch)
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


@pytest.mark.parametrize("cpus, strips, threads", [(1, 8, 1), (2, 1, 1), (2, 8, 2)],
                         ids=["one-cpu", "one-strip", "helper"])
def test_scratch_is_made_on_the_caller_once_per_thread(monkeypatch, cpus, strips, threads):
    """The factory runs on the calling thread, once for each thread that runs
    strips, and each thread passes its own scratch to every strip it runs."""
    monkeypatch.setattr(_strips, "_cpus", lambda: cpus)
    caller, made = threading.get_ident(), []
    both = threading.Barrier(threads, timeout=30)

    def scratch():
        made.append((threading.get_ident(), object()))
        return made[-1][1]

    def fn(s, buffers):
        if s < threads:
            both.wait()  # the first strips wait for each other, so each thread runs one
        return threading.get_ident(), buffers

    got = _map_strips(fn, range(strips), scratch)
    assert [thread for thread, _ in made] == [caller] * threads
    assert len({thread for thread, _ in got}) == threads
    assert len({(thread, id(buffers)) for thread, buffers in got}) == threads
    assert {id(buffers) for _, buffers in got} == {id(buffers) for _, buffers in made}


def test_nested_runner_makes_its_scratch_on_its_own_thread(monkeypatch):
    """A strip that calls the runner again makes that call's scratch on its
    own thread: once on the helper, where the nested call runs inline, and
    twice on the calling thread, which shares the nested strips again."""
    monkeypatch.setattr(_strips, "_cpus", lambda: 2)
    both = threading.Barrier(2, timeout=30)

    def fn(s, _):
        if s < 2:
            both.wait()
        made = []
        inner = _map_strips(lambda t, b: b, range(4), lambda: made.append(threading.get_ident()))
        on_helper = getattr(_strips._on_helper, "active", False)
        return on_helper, made == [threading.get_ident()] * (1 if on_helper else 2), inner

    got = _map_strips(fn, range(4), no_scratch)
    assert {on_helper for on_helper, _, _ in got} == {False, True}
    assert all(ok and inner == [None] * 4 for _, ok, inner in got)


@pytest.mark.parametrize("failing_call", [1, 2])
def test_failing_scratch_raises_on_the_caller_before_any_job(monkeypatch, failing_call):
    """A factory that raises does so on the calling thread, before any strip
    runs and before a job is handed to the helper; the runner works after."""
    monkeypatch.setattr(_strips, "_cpus", lambda: 2)
    _map_strips(lambda s, _: s, range(4), no_scratch)  # the helper is running
    jobs = queue.SimpleQueue()
    monkeypatch.setattr(_strips, "_jobs", jobs)
    calls, ran = [], []

    def scratch():
        calls.append(threading.get_ident())
        if len(calls) == failing_call:
            raise MemoryError("no scratch")

    with pytest.raises(MemoryError, match="no scratch"):
        _map_strips(lambda s, _: ran.append(s), range(4), scratch)
    assert calls == [threading.get_ident()] * failing_call
    assert ran == [] and jobs.empty()
    monkeypatch.undo()
    assert _map_strips(lambda s, _: -s, range(20), no_scratch) == [-s for s in range(20)]


def test_concurrent_callers_never_share_scratch():
    """Calling threads that outnumber the cores each get, in every strip,
    scratch their own call made, and no scratch serves two calls."""
    made, errors, lock = [], [], threading.Lock()

    def caller(k):
        try:
            for _ in range(20):
                mine = []
                got = _map_strips(lambda s, b: b, range(50), lambda: mine.append([k]) or mine[-1])
                assert 1 <= len(mine) <= 2
                assert all(any(b is m for m in mine) for b in got)
                with lock:
                    made.extend(mine)
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
    assert len({id(b) for b in made}) == len(made)  # all alive, so one id per list


def map_in_child() -> None:
    got = _map_strips(lambda s, _: s + 1, range(10), no_scratch)
    sys.exit(0 if got == list(range(1, 11)) else 1)


@needs_two_cpus
def test_forked_child_starts_its_own_helper():
    """A child forked after the helper started inherits no helper thread; its
    runner must not wait for the parent's."""
    _map_strips(lambda s, _: s, range(4), no_scratch)
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


# Five fusions of a 512 x 512 x 4 scene and their reports, then glibc's
# account of this process's malloc arenas, written to a file as XML.
ARENA_SCRIPT = """
import ctypes, threading
from panfuse import FusionInput, build_report, fusion, synth_scene, wald_degrade
hrms, pan = synth_scene(512, 512, 4, 2000, [1.0] * 4)
lrms, _, reference = wald_degrade(hrms, pan, 4)
fin = FusionInput(lrms, pan, 4)
for fuse in (fusion.fuse_gihs, fusion.fuse_brovey, fusion.fuse_pca, fusion.fuse_gs, fusion.fuse_hpf):
    build_report(fuse.__name__, fuse(fin), reference, lrms, pan, 4)
libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
libc.fclose.argtypes = [ctypes.c_void_p]
stream = libc.fopen({path!r}.encode(), b"w")
libc.malloc_info(0, stream)
libc.fclose(stream)
print(threading.active_count())
"""


@needs_two_cpus
@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="reads glibc's malloc_info")
def test_helper_arena_holds_no_strip_temporaries(tmp_path):
    """glibc gives the helper thread its own malloc arena, which keeps what
    the helper frees. Every strip-sized array comes from the calling thread,
    so after five reports no arena but the main one holds more than 1 MiB."""
    path = tmp_path / "malloc.xml"
    assert run_script(ARENA_SCRIPT.format(path=str(path))).split() == ["2"]
    heaps = ElementTree.parse(path).getroot().iter("heap")
    held = {heap.get("nr"): int(heap.find("system[@type='current']").get("size")) for heap in heaps}
    assert "0" in held
    assert {nr: size for nr, size in held.items() if nr != "0" and size > 2**20} == {}


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
