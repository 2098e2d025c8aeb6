"""Span recording around panfuse's public functions, installed from outside.

The tracer rebinds every public function of the seven layer modules, in
every ``panfuse`` namespace that binds it (so ``fusion.upsample``, imported
from ``resample``, and intra-module calls such as ``metric_qnr`` ->
``metric_uiqi`` are both seen), and wraps ``Raster.__post_init__`` to count
constructs and validated bytes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("raster", "resample", "fusion", "metrics", "features", "losses", "cli")

# Span fields: name, layer, start, end, parent index (-1 at top), op id, bytes.
NAME, LAYER, START, END, PARENT, OP, NBYTES = range(7)


def _span_name(layer: str, attr: str) -> str:
    if layer == "cli" and attr.startswith("cmd_"):
        return f"cli.{attr[4:]}"
    return f"{layer}.{attr}"


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str, name_of=None, bytes_of=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                name_of(args, kwargs) if name_of else name,
                layer,
                0.0,
                0.0,
                stack[-1] if stack else -1,
                self.op,
                0,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if bytes_of is not None:
                span[NBYTES] = bytes_of(args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every public layer function in every panfuse namespace."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"panfuse.{layer}")
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name_of = bytes_of = None
                if (layer, attr) == ("losses", "loss_gradient"):
                    name_of = lambda a, kw: "losses.loss_gradient." + (
                        a[0] if a else kw["loss_id"]
                    )
                elif (layer, attr) == ("raster", "read_raster"):
                    bytes_of = lambda a, r: os.stat(a[0]).st_size
                elif (layer, attr) == ("raster", "write_raster"):
                    bytes_of = lambda a, r: os.stat(a[1]).st_size
                wrappers[fn] = self._wrap(
                    fn, _span_name(layer, attr), layer, name_of, bytes_of
                )
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "panfuse" and not mod_name.startswith("panfuse."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
        raster_cls = importlib.import_module("panfuse.raster").Raster
        self._set(
            raster_cls,
            "__post_init__",
            self._wrap(
                raster_cls.__post_init__,
                "raster.Raster",
                "raster",
                bytes_of=lambda a, r: a[0].data.nbytes,
            ),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "layer", "start", "end", "parent", "op", "bytes")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")

    def summarize(self, op_ms: list[float]) -> dict[str, float]:
        """Per-function and per-layer figures; ``op_ms[i]`` is op i's wall time.

        ``<fn>.ms`` is the median inclusive time per call, ``<fn>.calls``
        the median count per op, ``<layer>.self_ms`` the median per-op
        self time, and ``<layer>.share`` the layer's self time over all
        traced op time. ``bench.share`` is the rest, so the shares sum to 1.
        """
        n_ops = len(op_ms)
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        durations = defaultdict(list)
        calls = defaultdict(lambda: [0] * n_ops)
        self_s = defaultdict(lambda: [0.0] * n_ops)
        nbytes = defaultdict(lambda: [0] * n_ops)
        for span, below in zip(self.spans, child_s):
            name, op = span[NAME], span[OP]
            dur = span[END] - span[START]
            durations[name].append(dur * 1e3)
            calls[name][op] += 1
            self_s[span[LAYER]][op] += dur - below
            nbytes[name][op] += span[NBYTES]

        out: dict[str, float] = {}
        for name, values in durations.items():
            out[f"{name}.ms"] = statistics.median(values)
            out[f"{name}.calls"] = statistics.median(calls[name])
        total_s = sum(op_ms) / 1e3
        traced_share = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = statistics.median(self_s[layer]) * 1e3
            share = sum(self_s[layer]) / total_s
            out[f"{layer}.share"] = share
            traced_share += share
        out["bench.share"] = 1.0 - traced_share
        out["raster.io_bytes"] = statistics.median(
            r + w for r, w in zip(nbytes["raster.read_raster"], nbytes["raster.write_raster"])
        )
        out["raster.Raster.bytes"] = statistics.median(nbytes["raster.Raster"])
        out["calls_vary"] = sorted(
            name for name, per_op in calls.items() if len(set(per_op)) > 1
        )
        return out
