"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; without -s pytest still reports them through its own verdicts.
"""

import io as stdio
import json
import math
import os
import random
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout

import pytest

from drowsy import cli
from drowsy import io as dio
from drowsy.calibration import CalibrationConfig, calibrate, generalized_profile
from drowsy.errors import DrowsyError, PerclosUndefinedError
from drowsy.eval import CHANNEL_EYE, CHANNEL_MOUTH, ConfusionMatrix, accuracy, aggregate, compare, confusion
from drowsy.landmarks import to_semantic
from drowsy.metrics import (
    MetricSample,
    PerclosWindow,
    compute_ear,
    compute_head_drop,
    compute_mar,
    samples_from_frames,
)
from drowsy.pipeline import run_session
from drowsy.synth import (
    DriverParams,
    FrameLabel,
    ScriptEvent,
    SessionScript,
    generate,
    generate_population,
    iter_frames,
)

FRAME_PERIOD = 1.0 / 30.0


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number:2d} ({name}): PASS ({elapsed:.2f}s)")


def oracle_aspect_ratio(p):
    """Hand-arithmetic hexagon ratio: explicit squared differences, no shared code."""
    v1 = math.sqrt((p[1][0] - p[5][0]) ** 2 + (p[1][1] - p[5][1]) ** 2)
    v2 = math.sqrt((p[2][0] - p[4][0]) ** 2 + (p[2][1] - p[4][1]) ** 2)
    h = math.sqrt((p[0][0] - p[3][0]) ** 2 + (p[0][1] - p[3][1]) ** 2)
    return (v1 + v2) / (2.0 * h)


def random_hexagon(rng):
    pts = [(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(6)]
    while pts[0] == pts[3]:
        pts[3] = (rng.uniform(-100, 100), rng.uniform(-100, 100))
    return tuple(pts)


def test_criterion_1_metric_correctness():
    with criterion(1, "metric correctness"):
        start = time.perf_counter()
        rng = random.Random(101)
        for _ in range(1000):
            pts = random_hexagon(rng)
            expected = oracle_aspect_ratio(pts)
            assert abs(compute_ear(pts) - expected) <= 1e-9
            assert abs(compute_mar(pts) - expected) <= 1e-9
        symmetric_eye = ((0.0, 0.0), (1.0, 1.0), (3.0, 1.0), (4.0, 0.0), (3.0, -1.0), (1.0, -1.0))
        assert compute_ear(symmetric_eye) == 0.5
        symmetric_mouth = ((0.0, 0.0), (1.8, 1.0), (2.2, 1.0), (4.0, 0.0), (2.2, -1.0), (1.8, -1.0))
        assert compute_mar(symmetric_mouth) == 0.5
        closed = ((0.0, 0.0), (1.0, 0.3), (3.0, 0.4), (4.0, 0.0), (3.0, 0.4), (1.0, 0.3))
        assert compute_ear(closed) == 0.0
        assert compute_mar(closed) == 0.0
        assert time.perf_counter() - start < 1.0


def brute_force_perclos(samples):
    ts = [round(t * 1000.0) for t, _, _ in samples]
    total = closed = 0
    for i, (_, is_closed, monitored) in enumerate(samples):
        dur = ts[i + 1] - ts[i] if i + 1 < len(samples) else ts[i] - ts[i - 1]
        if monitored:
            total += dur
            if is_closed:
                closed += dur
    return None if total == 0 else 100.0 * closed / total


def test_criterion_2_invariance_suite():
    with criterion(2, "invariance suite"):
        start = time.perf_counter()
        rng = random.Random(202)
        for _ in range(1000):
            pts = random_hexagon(rng)
            angle = rng.uniform(-math.pi, math.pi)
            scale = rng.uniform(0.3, 3.0)
            dx, dy = rng.uniform(-50, 50), rng.uniform(-50, 50)
            c, s = math.cos(angle), math.sin(angle)
            moved = tuple(
                (scale * (c * x - s * y) + dx, scale * (s * x + c * y) + dy) for x, y in pts
            )
            assert abs(compute_ear(moved) - compute_ear(pts)) <= 1e-9
            assert abs(compute_mar(moved) - compute_mar(pts)) <= 1e-9

        from conftest import semantic_frame

        for _ in range(200):
            frame = semantic_frame(
                ear=rng.uniform(0.05, 0.5),
                mar=rng.uniform(0.1, 0.9),
                head_drop=rng.uniform(0.0, 1.2),
                inter_ocular=rng.uniform(50, 400),
            )
            scale = rng.uniform(0.2, 5.0)
            scaled = frame.__class__(
                t=frame.t,
                scheme=frame.scheme,
                points=tuple((scale * x, scale * y) for x, y in frame.points),
                face_present=True,
            )
            a = compute_head_drop(to_semantic(frame))
            b = compute_head_drop(to_semantic(scaled))
            assert abs(a - b) <= 1e-9

        for _ in range(1000):
            t = 0.0
            triples = []
            for _ in range(rng.randrange(2, 60)):
                t += rng.randrange(1, 150) / 1000.0
                monitored = rng.random() > 0.15
                closed = monitored and rng.random() > 0.5
                triples.append((round(t, 3), closed, monitored))
            window = PerclosWindow(duration_s=1e6)
            for triple in triples:
                window.append(*triple)
            expected = brute_force_perclos(triples)
            if expected is None:
                with pytest.raises(PerclosUndefinedError):
                    window.perclos()
            else:
                value = window.perclos()
                assert value == expected
                assert 0.0 <= value <= 100.0
        assert time.perf_counter() - start < 5.0


def test_criterion_3_calibration_exactness():
    with criterion(3, "calibration exactness"):
        start = time.perf_counter()
        constant = [
            MetricSample(t=i / 30.0, ear=0.32, mar=0.40, head_drop=0.60, face_present=True)
            for i in range(160)
        ]
        profile = calibrate(constant)
        assert abs(profile.ear_threshold - 0.75 * profile.baseline_ear) <= 1e-12
        assert abs(profile.mar_threshold - 1.40 * profile.baseline_mar) <= 1e-12
        assert abs(profile.baseline_ear - 0.32) <= 1e-12
        assert abs(profile.ear_threshold - 0.24) <= 1e-12
        assert abs(profile.mar_threshold - 0.56) <= 1e-12

        blinks = [
            MetricSample(t=5.4 + i / 30.0, ear=0.04, mar=0.40, head_drop=0.60, face_present=True)
            for i in range(16)
        ]
        polluted = calibrate(constant + blinks)
        assert abs(polluted.baseline_ear - profile.baseline_ear) <= 1e-12

        rng = random.Random(303)
        noisy = [
            MetricSample(
                t=i / 30.0,
                ear=0.30 + rng.uniform(-0.04, 0.04),
                mar=0.42 + rng.uniform(-0.04, 0.04),
                head_drop=0.58 + rng.uniform(-0.04, 0.04),
                face_present=True,
            )
            for i in range(180)
        ]
        reference = calibrate(noisy)
        for _ in range(100):
            shuffled = noisy[:]
            rng.shuffle(shuffled)
            assert calibrate(shuffled) == reference
        assert time.perf_counter() - start < 1.0


DRIVER = DriverParams(0.32, 0.40, 0.55, 200.0)


def calibrated_profile(seed=0):
    neutral = SessionScript(fps=30.0, duration_s=6.0, driver=DRIVER, seed=seed)
    frames, _ = generate(neutral)
    return calibrate(samples_from_frames(frames))


def test_criterion_4_debouncing_behavior():
    with criterion(4, "debouncing behavior"):
        start = time.perf_counter()
        profile = calibrated_profile()

        blinks = [ScriptEvent("blink", 5.0 + 3.0 * i, 5 * FRAME_PERIOD, 1.0) for i in range(10)]
        talks = [ScriptEvent("talk", 34.0 + 3.0 * i, 2.0, 1.0) for i in range(5)]
        quiet_script = SessionScript(
            fps=30.0, duration_s=50.0, driver=DRIVER, events=tuple(blinks + talks)
        )
        frames, _ = generate(quiet_script)
        result = run_session(frames, profile)
        assert result.events == []

        alert_script = SessionScript(
            fps=30.0,
            duration_s=30.0,
            driver=DRIVER,
            events=(
                ScriptEvent("sustained_closure", 20.0, 60 * FRAME_PERIOD, 1.0),
                ScriptEvent("yawn", 25.0, 60 * FRAME_PERIOD, 1.0),
            ),
        )
        frames, _ = generate(alert_script)
        result = run_session(frames, profile)
        kinds = sorted(e.kind for e in result.events)
        assert kinds == ["eyes_closed", "yawning"]
        (eyes,) = [e for e in result.events if e.kind == "eyes_closed"]
        (yawn,) = [e for e in result.events if e.kind == "yawning"]
        assert abs((eyes.emitted_t - eyes.onset_t) - 1.0) <= FRAME_PERIOD + 1e-9
        assert abs((yawn.emitted_t - yawn.onset_t) - 1.5) <= FRAME_PERIOD + 1e-9
        assert time.perf_counter() - start < 2.0


POPULATION_TEMPLATE = (
    ScriptEvent("blink", 10.0, 2 * FRAME_PERIOD, 1.0),
    ScriptEvent("sustained_closure", 20.0, 2.0, 1.0),
    ScriptEvent("blink", 40.0, 2 * FRAME_PERIOD, 1.0),
    ScriptEvent("yawn", 50.0, 2.0, 1.0),
    ScriptEvent("blink", 70.0, 2 * FRAME_PERIOD, 1.0),
    ScriptEvent("talk", 90.0, 4.0, 1.0),
    ScriptEvent("talk", 100.0, 4.0, 1.0),
    ScriptEvent("talk", 110.0, 4.0, 1.0),
)


def population_aggregate(noise_sigma):
    reports = []
    for script, frames, truth in generate_population(
        20,
        (0.18, 0.38),
        (0.30, 0.50),
        POPULATION_TEMPLATE,
        seed=7,
        duration_s=120.0,
        noise_sigma=noise_sigma,
    ):
        assert 0.18 <= script.driver.baseline_ear <= 0.38
        assert 0.30 <= script.driver.baseline_mar <= 0.50
        head = [f for f in frames if f.t <= 6.0]
        personalized = calibrate(samples_from_frames(head))
        reports.append(compare(frames, truth.labels, personalized, generalized_profile()))
    return aggregate(reports)


def test_criterion_5_personalization_benefit():
    with criterion(5, "personalization benefit"):
        start = time.perf_counter()
        noisy = population_aggregate(noise_sigma=1.0)
        for channel in (CHANNEL_EYE, CHANNEL_MOUTH):
            assert (
                noisy.mean_accuracy["personalized"][channel]
                > noisy.mean_accuracy["generalized"][channel]
            )
        clean = population_aggregate(noise_sigma=0.0)
        for channel in (CHANNEL_EYE, CHANNEL_MOUTH):
            assert clean.mean_accuracy["personalized"][channel] >= 99.0
            assert (
                clean.mean_accuracy["personalized"][channel]
                > clean.mean_accuracy["generalized"][channel]
            )
        assert time.perf_counter() - start < 30.0


def test_criterion_6_evaluation_consistency():
    with criterion(6, "evaluation consistency"):
        start = time.perf_counter()
        assert accuracy(ConfusionMatrix(tp=50, tn=45, fp=3, fn=2)) == 95.0
        rng = random.Random(606)
        for _ in range(100):
            n = rng.randrange(5, 200)
            labels = [
                FrameLabel(
                    t=i / 30.0,
                    face_present=True,
                    eye_closed=rng.random() < 0.3,
                    mouth_yawn=rng.random() < 0.2,
                    head_down=False,
                )
                for i in range(n)
            ]
            preds = [
                FrameLabel(
                    t=i / 30.0,
                    face_present=True,
                    eye_closed=rng.random() < 0.3,
                    mouth_yawn=rng.random() < 0.2,
                    head_down=False,
                )
                for i in range(n)
            ]
            for channel, attr in ((CHANNEL_EYE, "eye_closed"), (CHANNEL_MOUTH, "mouth_yawn")):
                matrix, excluded = confusion(preds, labels, channel)
                assert matrix.total + excluded == n
                correct = sum(
                    1
                    for p, l in zip(preds, labels)
                    if getattr(p, attr) == getattr(l, attr)
                )
                assert accuracy(matrix) == 100.0 * correct / n
        assert time.perf_counter() - start < 2.0


def test_criterion_7_identical_logic_property():
    with criterion(7, "identical-logic property"):
        start = time.perf_counter()
        sessions = [
            SessionScript(
                fps=30.0,
                duration_s=40.0,
                driver=DriverParams(0.30 + 0.02 * k, 0.38 + 0.02 * k, 0.55, 200.0),
                events=(
                    ScriptEvent("blink", 8.0, 0.1, 1.0),
                    ScriptEvent("sustained_closure", 14.0, 2.0, 1.0),
                    ScriptEvent("yawn", 22.0, 2.0, 1.0),
                    ScriptEvent("dropout", 30.0, 1.0, 1.0),
                    ScriptEvent("head_nod", 34.0, 3.0, 1.0),
                ),
                noise_sigma=0.4 * k,
                seed=700 + k,
            )
            for k in range(3)
        ]
        for script in sessions:
            frames, _ = generate(script)
            profile = calibrated_profile(seed=script.seed)
            threshold_run = run_session(frames, profile)
            threshold_log = stdio.StringIO()
            dio.write_events(threshold_log, threshold_run.events)
            states = {
                dio.quantize_ms(r.t): (r.eye_closed, r.mouth_yawn)
                for r in threshold_run.records
                if r.face_present
            }
            external_run = run_session(
                frames, profile, external=states
            )
            external_log = stdio.StringIO()
            dio.write_events(external_log, external_run.events)
            assert external_log.getvalue() == threshold_log.getvalue()
            assert external_run.records == threshold_run.records
        assert time.perf_counter() - start < 2.0


def mutate(line, rng):
    chars = list(line)
    for _ in range(rng.randrange(1, 5)):
        op = rng.randrange(4)
        pos = rng.randrange(len(chars)) if chars else 0
        if op == 0 and chars:
            chars[pos] = chr(rng.randrange(32, 127))
        elif op == 1 and chars:
            del chars[pos]
        elif op == 2:
            chars.insert(pos, chr(rng.randrange(32, 127)))
        else:
            chars = chars[:pos]
    return "".join(chars)


def test_criterion_8_round_trip_formats_and_fuzz():
    with criterion(8, "round-trip formats and fuzz"):
        start = time.perf_counter()
        script = SessionScript(
            fps=30.0,
            duration_s=10.0,
            driver=DRIVER,
            events=(
                ScriptEvent("blink", 2.0, 0.1, 1.0),
                ScriptEvent("yawn", 4.0, 1.5, 1.0),
                ScriptEvent("dropout", 7.0, 0.5, 1.0),
            ),
            noise_sigma=0.6,
            seed=808,
        )
        frames, truth = generate(script)
        profile = calibrated_profile()
        result = run_session(frames, profile)

        def round_trip(write, read, payload):
            sink = stdio.StringIO()
            write(sink, payload)
            first = sink.getvalue()
            again = stdio.StringIO()
            write(again, list(read(stdio.StringIO(first))))
            assert again.getvalue() == first
            return first

        frames_text = round_trip(dio.write_frames, dio.read_frames, frames)
        labels_text = round_trip(dio.write_labels, dio.read_states, truth.labels)
        events_text = round_trip(dio.write_events, dio.read_events, result.events)

        sink = stdio.StringIO()
        dio.write_profile(sink, profile)
        profile_text = sink.getvalue()
        sink2 = stdio.StringIO()
        dio.write_profile(sink2, dio.read_profile(stdio.StringIO(profile_text)))
        assert sink2.getvalue() == profile_text

        sink = stdio.StringIO()
        dio.write_script(sink, script)
        script_text = sink.getvalue()
        sink2 = stdio.StringIO()
        dio.write_script(sink2, dio.read_script(stdio.StringIO(script_text)))
        assert sink2.getvalue() == script_text

        line_readers = [
            (lambda text: list(dio.read_frames([text])), frames_text.splitlines()),
            (lambda text: list(dio.read_states([text])), labels_text.splitlines()),
            (lambda text: list(dio.read_events([text])), events_text.splitlines()),
            (lambda text: dio.read_profile(stdio.StringIO(text)), [profile_text]),
            (lambda text: dio.read_script(stdio.StringIO(text)), [script_text]),
        ]
        rng = random.Random(8088)
        fuzz_count = 0
        for reader, corpus in line_readers:
            for _ in range(2000):
                fuzz_count += 1
                mutated = mutate(rng.choice(corpus), rng)
                try:
                    reader(mutated)
                except DrowsyError:
                    pass  # structured rejection is the contract
        assert fuzz_count == 10000
        assert time.perf_counter() - start < 30.0


def test_criterion_9_throughput(tmp_path):
    with criterion(9, "throughput"):
        frames_n = 100_000
        script = SessionScript(
            fps=30.0,
            duration_s=frames_n / 30.0,
            driver=DRIVER,
            events=tuple(
                [ScriptEvent("sustained_closure", 200.0 + i * 300.0, 2.0, 1.0) for i in range(10)]
                + [ScriptEvent("yawn", 350.0 + i * 300.0, 2.0, 1.0) for i in range(10)]
            ),
            noise_sigma=0.5,
            seed=909,
        )
        frames_path = tmp_path / "throughput.frames.jsonl"
        with open(frames_path, "w") as sink:
            dio.write_frames(sink, iter_frames(script))
        profile = calibrated_profile()

        null = open(os.devnull, "w")
        start = time.perf_counter()
        with open(frames_path) as src:
            result = run_session(
                dio.read_frames(src),
                profile,
                on_event=lambda e: dio.write_events(null, [e]),
                on_record=lambda r: dio.write_records(null, [r]),
                collect=False,
            )
        elapsed = time.perf_counter() - start
        assert result.summary.frames == frames_n
        assert elapsed < 5.0, f"100k frames took {elapsed:.2f}s"
        print(f"[acceptance]   throughput: {frames_n / elapsed:,.0f} frames/s", end=" ")

        # memory stays bounded by buffer + window state, not stream length
        peaks = []
        for n in (5_000, 20_000):
            short = SessionScript(
                fps=30.0, duration_s=n / 30.0, driver=DRIVER, noise_sigma=0.5, seed=910
            )
            path = tmp_path / f"mem{n}.jsonl"
            with open(path, "w") as sink:
                dio.write_frames(sink, iter_frames(short))
            tracemalloc.start()
            with open(path) as src:
                run_session(
                    dio.read_frames(src),
                    profile,
                    on_record=lambda r: dio.write_records(null, [r]),
                    collect=False,
                )
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < 5_000_000
        assert peaks[1] < 2 * peaks[0] + 1_000_000


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI determinism"):
        script = SessionScript(
            fps=30.0,
            duration_s=30.0,
            driver=DRIVER,
            events=(
                ScriptEvent("sustained_closure", 18.0, 2.0, 1.0),
                ScriptEvent("yawn", 24.0, 2.0, 1.0),
            ),
            noise_sigma=0.3,
            seed=1010,
        )
        script_path = tmp_path / "session.script.json"
        with open(script_path, "w") as sink:
            dio.write_script(sink, script)
        neutral_path = tmp_path / "neutral.script.json"
        with open(neutral_path, "w") as sink:
            dio.write_script(sink, SessionScript(fps=30.0, duration_s=6.0, driver=DRIVER, seed=4))

        def run_all(tag):
            d = tmp_path / tag
            d.mkdir()
            outputs = {}

            def invoke(argv):
                captured = stdio.StringIO()
                with redirect_stdout(captured):
                    rc = cli.main(argv)
                assert rc == 0
                return captured.getvalue()

            invoke(["synth", "--script", str(neutral_path), "--seed", "4",
                    "--out", str(d / "neutral.jsonl"), "--labels", str(d / "neutral.labels.jsonl")])
            invoke(["synth", "--script", str(script_path),
                    "--out", str(d / "frames.jsonl"), "--labels", str(d / "labels.jsonl")])
            invoke(["calibrate", "--input", str(d / "neutral.jsonl"),
                    "--out", str(d / "profile.json")])
            outputs["run.stdout"] = invoke(
                ["run", "--input", str(d / "frames.jsonl"), "--profile", str(d / "profile.json"),
                 "--out", "-", "--records", str(d / "records.jsonl")]
            )
            outputs["eval.stdout"] = invoke(
                ["eval", "--pred", str(d / "records.jsonl"), "--labels", str(d / "labels.jsonl"),
                 "--channel", "eye", "--json", str(d / "eval.json")]
            )
            outputs["compare.stdout"] = invoke(
                ["compare", "--input", str(d / "frames.jsonl"), "--labels", str(d / "labels.jsonl"),
                 "--profile", str(d / "profile.json"), "--json", str(d / "compare.json")]
            )
            for name in ("neutral.jsonl", "frames.jsonl", "labels.jsonl", "profile.json",
                         "records.jsonl", "eval.json", "compare.json"):
                outputs[name] = (d / name).read_bytes()
            return outputs

        first = run_all("a")
        second = run_all("b")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"non-reproducible output: {name}"
