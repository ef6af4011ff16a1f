"""Tests of the benchmark itself, at a tiny size.

Run from the repository root: python3 -m pytest bench -q
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import pytest

import drowsy.pipeline
import drowsy.synth
from drowsy.landmarks import DLIB68, MESH468, SEMANTIC, LandmarkFrame, builtin_scheme_map, to_semantic

import run
import workloads as wl
from tracing import Tracer

TINY_STREAM = wl.Spec("stream", SEMANTIC, layout=(wl.REGULAR,))
TINY_MESH = wl.Spec("stream", MESH468, layout=(wl.CLUSTER,))
TINY_COMPARE = wl.Spec("compare", drivers=2, layout=(wl.REGULAR,))


def _distinct_semantic_frame() -> LandmarkFrame:
    points = tuple((100.0 + 10.0 * i, 50.0 + 3.0 * i) for i in range(19))
    return LandmarkFrame(t=0.5, scheme=SEMANTIC, points=points, face_present=True)


@pytest.mark.parametrize("scheme", [MESH468, DLIB68])
def test_embedding_maps_each_role_index(scheme):
    frame = _distinct_semantic_frame()
    embedded = wl.embedder(scheme)(frame)
    target = builtin_scheme_map(scheme)
    roles = (
        target.eye_left_indices + target.eye_right_indices + target.mouth_indices
        + (target.nose_tip_index,)
    )
    assert [embedded.points[i] for i in roles] == list(frame.points)
    assert wl.role_pairs(scheme) == tuple(enumerate(roles))
    assert to_semantic(embedded) == to_semantic(frame)
    faceless = wl.embedder(scheme)(LandmarkFrame(t=1.0, scheme=SEMANTIC, points=(), face_present=False))
    assert faceless.scheme == scheme and faceless.points == ()


def test_schemes_give_byte_identical_outputs(tmp_path):
    workload = wl.make_workload("tiny", 3, TINY_MESH)
    paths = workload.setup(str(tmp_path))
    workload.prepare(paths, str(tmp_path))
    result = workload.run_pass(paths)
    workload.check(paths, result)
    assert result.failed == 0
    assert workload.checks == {
        "oracle alerts equal the scripted episodes": True,
        "dlib68 outputs equal the semantic stream": True,
    }
    assert workload.expected_alerts["perclos_high"] == 1


def test_flipped_record_byte_counts_as_one_failed_frame(tmp_path):
    workload = wl.make_workload("tiny", 5, TINY_STREAM)
    paths = workload.setup(str(tmp_path))
    workload.prepare(paths, str(tmp_path))
    result = workload.run_pass(paths)
    workload.check(paths, result)
    assert result.failed == 0
    clean = result.digest

    with open(paths["records"], "rb") as src:
        data = bytearray(src.read())
    at = data.index(b'"ear": 0.') + len(b'"ear": 0.')
    data[at] = ord("9") if data[at] != ord("9") else ord("8")
    with open(paths["records"], "wb") as sink:
        sink.write(data)
    workload.check(paths, result)
    assert result.failed == 1
    assert result.digest != clean


def test_compare_checks_external_accuracy_per_driver(tmp_path):
    workload = wl.make_workload("tiny", 9, TINY_COMPARE)
    paths = workload.setup(str(tmp_path))
    result = workload.run_pass(paths)
    workload.check(paths, result)
    assert (result.operations, result.failed) == (2, 0)
    workload.expected_accuracy[1] = {"eye": 0.0, "mouth": 0.0}
    workload.check(paths, result)
    assert result.failed == 1


def test_wrapped_layers_count_calls(tmp_path):
    workload = wl.make_workload("tiny", 5, TINY_STREAM)
    paths = workload.setup(str(tmp_path))
    tracer = Tracer()
    tracer.install()
    try:
        buffer = drowsy.pipeline.SmoothingBuffer(4)
        buffer.push(1.0)
        buffer.push(2.0)
        workload.run_pass(paths)
    finally:
        tracer.uninstall()
    frames = workload.frames
    faceless = sum(not f.face_present for f in drowsy.synth.iter_frames(workload.script))
    calls = {name: layer.calls for name, layer in tracer.layers.items()}
    assert calls["io.read_frames"] == frames
    assert calls["landmarks.LandmarkFrame.validate"] == frames
    assert calls["pipeline.Pipeline.step"] == frames
    assert calls["io.write_records"] == frames
    assert calls["landmarks.to_semantic"] == frames - faceless
    assert calls["pipeline.SmoothingBuffer.push"] == 3 * (frames - faceless) + 2
    assert calls["pipeline.ChannelState.advance"] == 5 * (frames - faceless) + 2 * faceless
    assert calls["io.write_events"] == sum(workload.expected_alerts.values())
    assert tracer.counters["pipeline.faceless_frames"] == faceless
    assert not tracer.missing
    assert drowsy.pipeline.Pipeline.step.__qualname__ == "Pipeline.step"
    assert not hasattr(drowsy.pipeline.Pipeline.step, "__wrapped__")


def _declared():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as src:
        return json.load(src)


def test_untraced_result_names_every_end_to_end_metric():
    result = run.measure("tiny", 11, 0.2, False, TINY_STREAM)
    assert result["correct"], result["checks"]
    line = json.loads(run._result_line(result))
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_layers_and_remainder_sum_to_pass_wall():
    result = run.measure("tiny", 11, 0.2, True, TINY_STREAM)
    assert result["correct"], result["checks"]
    metrics = result["per_layer"]
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    pass_layers = [
        value for name, (value, _) in metrics.items()
        if name.endswith(".self_s") and name[: -len(".self_s")] not in run.SETUP_LAYERS
    ]
    untraced = metrics["trace.untraced_s"][0]
    assert 0.0 <= untraced < metrics["trace.pass_s"][0]
    assert sum(pass_layers) + untraced == pytest.approx(metrics["trace.pass_s"][0], rel=1e-9)
    traced_walls = [p["wall_s"] for p in result["passes_raw"][result["passes"]:]]
    assert metrics["trace.pass_s"][0] in traced_walls
    assert metrics["pipeline.passes_per_frame"][0] == 1.0
    assert metrics["io.read_frames.calls"][0] == result["frames_per_pass"]
