"""Spans and counts for the traced benchmark run.

A span is one call into a layer: a name (``<layer>.<what>``), a start and
end from ``time.perf_counter``, and the span that was open when it began
(its parent). Spans live in flat arrays while the run goes on and are
written out once at the end. Self time is a span's duration minus the
time its direct children cover; the run is single-threaded, so children
nest inside their parent and never overlap each other.

Instrumentation never edits the program. The traced run hands the tuners
traced versions of the hooks they already accept (the ``Objective`` and
``ConfigSpace`` instances, ``surrogate_fit``, the DDPG ``agent``) and
patches module attributes at their import sites for the duration of
:func:`patched` only.
"""
from __future__ import annotations

import json
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

NAN = float("nan")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()

    def _ix(self, name: str) -> int:
        ix = self._index.get(name)
        if ix is None:
            ix = self._index[name] = len(self.names)
            self.names.append(name)
        return ix

    @contextmanager
    def span(self, name: str):
        sid = len(self._start)
        self._name.append(self._ix(name))
        self._parent.append(self._stack[-1])
        self._end.append(NAN)
        self._stack.append(sid)
        self._start.append(time.perf_counter())
        try:
            yield
        finally:
            self._end[sid] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``.

        The body repeats :meth:`span` inline: wrapped calls run hundreds of
        thousands of times a pass, and the overhead lands in the spans.
        """
        ix = self._ix(name)
        add_name, add_parent = self._name.append, self._parent.append
        add_start, add_end = self._start.append, self._end.append
        starts, ends, stack, clock = self._start, self._end, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            add_name(ix)
            add_parent(stack[-1])
            add_end(NAN)
            stack.append(sid)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (summed duration), self seconds.

        Also per layer (the name up to the first dot): ``self_s``.
        """
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=float) - np.frombuffer(self._start, dtype=float)
        if np.isnan(dur).any():
            raise RuntimeError("summary() with spans still open")
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        spans = {
            n: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }
        layers: dict[str, float] = {}
        for n, s in spans.items():
            layer = n.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + s["self_s"]
        return {"spans": spans, "layers": layers}

    def dump(self, path: str, extra: dict) -> None:
        """Write the raw spans (``.npz``) and the summary (``.json``)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path + ".npz",
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=float),
            end=np.frombuffer(self._end, dtype=float),
        )
        with open(path + ".json", "w") as f:
            json.dump({**extra, **self.summary(), "counts": dict(self.counts)}, f, indent=1)


class Stopwatch:
    """Seconds spent in wrapped functions, without spans (for timed runs)."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        return timed


@contextmanager
def patched(recorder, targets):
    """Patch ``(module, attribute, span name)`` targets with ``recorder.wrap``
    for the block's duration."""
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Calls:
    """Calls into the program; with a tracer, each call is a span."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self._wrapped = {}

    def __call__(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        traced = self._wrapped.get(name)
        if traced is None:
            traced = self._wrapped[name] = self.tracer.wrap(name, fn)
        return traced(*args, **kwargs)


class TracedSurrogate:
    """A fitted surrogate whose ``predict`` calls are spans."""

    def __init__(self, tracer: Tracer, model, name: str):
        self._model = model
        self.predict = tracer.wrap(name, model.predict)
