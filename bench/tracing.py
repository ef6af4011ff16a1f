"""Per-layer tracing by wrapping public names of the drowsy package.

A Tracer swaps module attributes and class methods for wrappers that keep
one span stack. Each wrapper charges its layer the span's duration minus
the time of the spans nested inside it (self time), so the self times of
all layers never overlap. Generator functions are timed per resumption:
io.read_frames is charged for producing each frame, never for what the
consumer does between frames, and its `calls` count the items it yields.

Wrappers are installed only for the traced passes and restored after, so
untraced passes run the program's own functions.
"""

from __future__ import annotations

import functools
import os
import time

import drowsy.cli
import drowsy.eval
import drowsy.io
import drowsy.landmarks
import drowsy.metrics
import drowsy.pipeline
import drowsy.synth

#: Layers with `calls` and `self_s`, in report order.
LAYERS = (
    "io.read_frames",
    "landmarks.LandmarkFrame.validate",
    "landmarks.to_semantic",
    "metrics.compute_binocular_ear",
    "metrics.compute_mar",
    "metrics.compute_head_drop",
    "metrics.PerclosWindow.append",
    "metrics.PerclosWindow.perclos",
    "pipeline.run_session",
    "pipeline.Pipeline.step",
    "pipeline.SmoothingBuffer.push",
    "pipeline.SmoothingBuffer.smoothed",
    "pipeline.ChannelState.advance",
    "io.write_records",
    "io.write_events",
    "io.read_states",
    "io.load_external_states",
    "calibration.calibrate",
    "eval.evaluate_channel",
    "synth.iter_session",
    "io.write_frames",
    "io.write_labels",
)

#: Exact counters kept beside the layers.
COUNTERS = (
    "io.read_frames.bytes",
    "io.read_frames.points",
    "io.read_frames.face_frames",
    "pipeline.alerts",
    "pipeline.faceless_frames",
)


class Layer:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Span-stack tracer; install() patches, uninstall() restores."""

    def __init__(self):
        self.layers = {name: Layer() for name in LAYERS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for layer in self.layers.values():
            layer.calls = 0
            layer.self_s = 0.0
        for name in self.counters:
            self.counters[name] = 0

    # --- wrappers ------------------------------------------------------------

    def _function(self, fn, layer: Layer, on_result):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                layer.calls += 1
                layer.self_s += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _generator(self, fn, layer: Layer, on_call, on_result):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            inner = fn(*args, **kwargs)
            while True:
                child = [0.0]
                stack.append(child)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    layer.self_s += elapsed - child[0]
                    if stack:
                        stack[-1][0] += elapsed
                layer.calls += 1
                if on_result is not None:
                    on_result(args, item)
                yield item

        return traced

    def wrap(self, owner, attr: str, name: str, *, generator=False, on_call=None, on_result=None):
        """Replace owner.attr by a traced wrapper charging layer `name`.

        A name the package no longer has is recorded in `missing` and its
        layer reads zero, so the benchmark keeps running across refactors.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        layer = self.layers[name]
        if generator:
            wrapper = self._generator(original, layer, on_call, on_result)
        else:
            wrapper = self._function(original, layer, on_result)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer at the names its callers look up at call time."""
        self.missing = []
        counters = self.counters
        io, landmarks, metrics, pipeline = (
            drowsy.io,
            drowsy.landmarks,
            drowsy.metrics,
            drowsy.pipeline,
        )

        def source_bytes(args):
            source = args[0]
            if hasattr(source, "name") and isinstance(source.name, str):
                counters["io.read_frames.bytes"] += os.path.getsize(source.name)

        def frame_points(args, frame):
            counters["io.read_frames.points"] += len(frame.points)
            counters["io.read_frames.face_frames"] += frame.face_present

        def step_outcome(args, result):
            counters["pipeline.alerts"] += len(result[1])
            counters["pipeline.faceless_frames"] += not args[1].face_present

        self.wrap(io, "read_frames", "io.read_frames", generator=True,
                  on_call=source_bytes, on_result=frame_points)
        self.wrap(landmarks.LandmarkFrame, "__post_init__", "landmarks.LandmarkFrame.validate")
        # pipeline and metrics import these names, so both bindings are wrapped
        for module in (pipeline, metrics):
            self.wrap(module, "to_semantic", "landmarks.to_semantic")
            self.wrap(module, "compute_binocular_ear", "metrics.compute_binocular_ear")
            self.wrap(module, "compute_mar", "metrics.compute_mar")
            self.wrap(module, "compute_head_drop", "metrics.compute_head_drop")
        self.wrap(metrics.PerclosWindow, "append", "metrics.PerclosWindow.append")
        self.wrap(metrics.PerclosWindow, "perclos", "metrics.PerclosWindow.perclos")
        for module in (drowsy.cli, drowsy.eval):
            self.wrap(module, "run_session", "pipeline.run_session")
        self.wrap(pipeline.Pipeline, "step", "pipeline.Pipeline.step", on_result=step_outcome)
        self.wrap(pipeline.SmoothingBuffer, "push", "pipeline.SmoothingBuffer.push")
        self.wrap(pipeline.SmoothingBuffer, "smoothed", "pipeline.SmoothingBuffer.smoothed")
        self.wrap(pipeline.ChannelState, "advance", "pipeline.ChannelState.advance")
        self.wrap(io, "write_records", "io.write_records")
        self.wrap(io, "write_events", "io.write_events")
        self.wrap(io, "read_states", "io.read_states", generator=True)
        self.wrap(io, "load_external_states", "io.load_external_states")
        self.wrap(drowsy.cli, "calibrate", "calibration.calibrate")
        self.wrap(drowsy.eval, "evaluate_channel", "eval.evaluate_channel")
        self.wrap(drowsy.synth, "iter_session", "synth.iter_session", generator=True)
        self.wrap(io, "write_frames", "io.write_frames")
        self.wrap(io, "write_labels", "io.write_labels")
