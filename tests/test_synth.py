import math
import random
import re
import struct

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drowsy import synth
from drowsy.errors import ScriptError
from drowsy.landmarks import SEMANTIC, LandmarkFrame, quantize_ms, to_semantic
from drowsy.metrics import compute_binocular_ear, compute_head_drop, compute_mar
from drowsy.synth import (
    EVENT_KINDS,
    DriverParams,
    FrameLabel,
    ScriptEvent,
    SessionScript,
    generate,
    generate_population,
    iter_frames,
    iter_session,
)

DRIVER = DriverParams(
    baseline_ear=0.32, baseline_mar=0.40, baseline_head_drop=0.55, inter_ocular_px=200.0
)


def script(duration=10.0, events=(), noise=0.0, seed=0, fps=30.0, driver=DRIVER):
    return SessionScript(
        fps=fps,
        duration_s=duration,
        driver=driver,
        events=tuple(events),
        noise_sigma=noise,
        seed=seed,
    )


class TestGenerate:
    def test_neutral_frames_realize_baselines(self):
        frames, truth = generate(script(duration=2.0))
        assert len(frames) == 60
        for frame in frames:
            sp = to_semantic(frame)
            assert compute_binocular_ear(sp) == pytest.approx(0.32, abs=1e-12)
            assert compute_mar(sp.mouth) == pytest.approx(0.40, abs=1e-12)
            assert compute_head_drop(sp) == pytest.approx(0.55, abs=1e-12)
        assert all(lab.face_present and not lab.eye_closed for lab in truth.labels)

    def test_blink_labels_exactly_three_frames(self):
        frames, truth = generate(
            script(events=[ScriptEvent("blink", start_t=1.0, length_s=0.1, intensity=1.0)])
        )
        closed = [lab for lab in truth.labels if lab.eye_closed]
        assert len(closed) == 3
        assert [lab.t for lab in closed] == [1.0, 1.033, 1.067]

    def test_full_closure_zeroes_ear(self):
        frames, truth = generate(
            script(events=[ScriptEvent("sustained_closure", 2.0, 1.0, 1.0)])
        )
        for frame, lab in zip(frames, truth.labels):
            ear = compute_binocular_ear(to_semantic(frame))
            if lab.eye_closed:
                assert ear == pytest.approx(0.0, abs=1e-12)
            else:
                assert ear == pytest.approx(0.32, abs=1e-12)

    def test_yawn_reaches_twice_baseline(self):
        frames, truth = generate(script(events=[ScriptEvent("yawn", 3.0, 2.0, 1.0)]))
        peak = max(compute_mar(to_semantic(f).mouth) for f in frames)
        assert peak == pytest.approx(2.0 * 0.40, abs=1e-12)
        assert sum(1 for lab in truth.labels if lab.mouth_yawn) == 60

    def test_talk_stays_below_personalized_threshold(self):
        frames, truth = generate(script(events=[ScriptEvent("talk", 1.0, 4.0, 1.0)]))
        mars = [compute_mar(to_semantic(f).mouth) for f in frames]
        assert max(mars) <= 1.3 * 0.40 + 1e-9
        assert max(mars) > 1.1 * 0.40  # it does oscillate upward
        assert not any(lab.mouth_yawn for lab in truth.labels)

    def test_head_nod_raises_drop(self):
        frames, truth = generate(script(events=[ScriptEvent("head_nod", 2.0, 1.0, 1.0)]))
        drops = [compute_head_drop(to_semantic(f)) for f in frames]
        assert max(drops) == pytest.approx(1.5 * 0.55, abs=1e-12)
        assert sum(1 for lab in truth.labels if lab.head_down) == 30

    def test_dropout_emits_faceless_frames(self):
        frames, truth = generate(script(events=[ScriptEvent("dropout", 4.0, 1.0, 1.0)]))
        faceless = [f for f in frames if not f.face_present]
        assert len(faceless) == 30
        assert all(f.points == () for f in faceless)
        assert all(
            lab.eye_closed is None for lab in truth.labels if not lab.face_present
        )

    def test_seed_determinism(self):
        s = script(events=[ScriptEvent("yawn", 3.0, 2.0, 1.0)], noise=0.8, seed=42)
        frames_a, truth_a = generate(s)
        frames_b, truth_b = generate(s)
        assert frames_a == frames_b
        assert truth_a.labels == truth_b.labels
        frames_c, _ = generate(script(events=s.events, noise=0.8, seed=43))
        assert frames_c != frames_a

    def test_metric_trajectory_round_trip(self):
        # generator and metrics modules as mutual oracles, noise-free
        events = [
            ScriptEvent("blink", 1.0, 0.1, 1.0),
            ScriptEvent("sustained_closure", 3.0, 1.0, 0.8),
            ScriptEvent("yawn", 5.0, 1.5, 1.0),
            ScriptEvent("head_nod", 7.0, 1.0, 0.6),
        ]
        frames, truth = generate(script(events=events))
        for frame, lab in zip(frames, truth.labels):
            sp = to_semantic(frame)
            expected_ear = 0.32
            if lab.eye_closed:
                active = [
                    ev for ev in events
                    if ev.kind in ("blink", "sustained_closure")
                    and ev.start_t <= frame.t < ev.start_t + ev.length_s
                ]
                expected_ear = 0.32 * min(1.0 - ev.intensity for ev in active)
            assert compute_binocular_ear(sp) == pytest.approx(expected_ear, abs=1e-9)
            if lab.head_down:
                assert compute_head_drop(sp) == pytest.approx(0.55 * 1.3, abs=1e-9)

    def test_iter_frames_matches_generate(self):
        s = script(events=[ScriptEvent("yawn", 3.0, 2.0, 1.0)], noise=0.5, seed=7)
        frames, _ = generate(s)
        assert list(iter_frames(s)) == frames


class TestScriptValidation:
    def test_event_outside_duration(self):
        with pytest.raises(ScriptError):
            script(duration=5.0, events=[ScriptEvent("yawn", 4.5, 1.0, 1.0)])

    @pytest.mark.parametrize("start", [1e306, 1e308], ids=["past-max-seconds", "sum-overflows"])
    def test_event_end_without_a_millisecond_key_is_outside(self, start):
        message = f"yawn at t={start} (length {start}) falls outside the session"
        with pytest.raises(ScriptError, match=re.escape(message)):
            script(duration=5.0, events=[ScriptEvent("yawn", start, start)])

    def test_unknown_kind(self):
        with pytest.raises(ScriptError):
            script(events=[ScriptEvent("sneeze", 1.0, 1.0, 1.0)])

    def test_intensity_range(self):
        with pytest.raises(ScriptError):
            script(events=[ScriptEvent("blink", 1.0, 0.1, 1.5)])

    def test_non_positive_fps(self):
        with pytest.raises(ScriptError):
            script(fps=0.0)

    def test_fps_above_the_millisecond_grid(self):
        # at 2000 fps frames 0 and 1 would both be written at t=0.000
        with pytest.raises(ScriptError, match="fps must be at most 1000"):
            script(fps=2000.0)
        assert [f.t for f in iter_frames(script(fps=1000.0, duration=0.003))] == [
            0.0, 0.001, 0.002
        ]

    def test_frame_count_overflow(self):
        with pytest.raises(ScriptError, match="frame count"):
            script(fps=1e200, duration=1e200)

    def test_frame_time_without_millisecond_key(self):
        # 100 frames, but frame 2 onward lies past the largest keyed time
        with pytest.raises(ScriptError, match="frame times must be at most"):
            script(fps=1e-305, duration=1e307)
        # frame 99 at 9.9e304 s still has a key
        assert script(fps=1e-303, duration=1e305).frame_count == 100

    def test_non_positive_baseline(self):
        with pytest.raises(ScriptError):
            script(driver=DriverParams(0.0, 0.4, 0.5))
        with pytest.raises(ScriptError, match="baseline head drop cannot be negative"):
            script(driver=DriverParams(0.3, 0.4, -0.1))

    def test_negative_noise(self):
        with pytest.raises(ScriptError, match="noise_sigma cannot be negative"):
            script(noise=-0.1)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(fps=math.nan), "fps must be finite, got nan"),
            (dict(duration=math.inf), "duration_s must be finite, got inf"),
            (dict(noise=math.nan), "noise_sigma must be finite, got nan"),
            (dict(driver=DriverParams(math.nan, 0.4, 0.5)), "driver.baseline_ear must be finite"),
            (dict(driver=DriverParams(0.3, 0.4, 0.5, -math.inf)),
             "driver.inter_ocular_px must be finite, got -inf"),
            (dict(events=[ScriptEvent("blink", math.nan, 0.1)]),
             r"events\[0\]\.start_t must be finite, got nan"),
            (dict(events=[ScriptEvent("yawn", 1.0, 1.0), ScriptEvent("talk", 2.0, math.nan)]),
             r"events\[1\]\.length_s must be finite, got nan"),
            (dict(events=[ScriptEvent("head_nod", 1.0, 1.0, math.nan)]),
             r"events\[0\]\.intensity must be finite, got nan"),
        ],
        ids=["fps", "duration", "noise", "baseline", "inter-ocular", "start", "length",
             "intensity"],
    )
    def test_non_finite_number_names_its_field(self, change, message):
        with pytest.raises(ScriptError, match=message):
            script(**change)

    def test_non_finite_check_runs_first(self):
        # fps 0 and an unknown kind would each be refused later on their own
        with pytest.raises(ScriptError, match=r"events\[0\]\.start_t must be finite"):
            script(fps=0.0, events=[ScriptEvent("sneeze", math.nan, 1.0)])

    def test_overflowing_coordinates_name_the_frame(self):
        s = script(noise=1e308)
        with pytest.raises(ScriptError) as err:
            next(iter_session(s))
        assert str(err.value) == "frame at t=0.000: landmark coordinates must be finite"


def bits(points):
    """The exact bits of each coordinate, so -0.0 and 0.0 differ."""
    return [struct.pack("<dd", x, y) for x, y in points]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    sigma=st.one_of(st.sampled_from([0.0, 5e-324, 1.0, 1e300]), st.floats(0.0, 1e3)),
    points=st.lists(st.tuples(FINITE, FINITE), max_size=25),
)
@example(seed=0, sigma=0.0, points=[(-0.0, -0.0)] * 4)
def test_noise_equals_successive_gauss_draws(seed, sigma, points):
    expected_rng = random.Random(seed)
    gauss = expected_rng.gauss
    expected = tuple((x + gauss(0.0, sigma), y + gauss(0.0, sigma)) for x, y in points)
    rng = random.Random(seed)
    assert bits(synth._add_noise(tuple(points), rng.random, sigma)) == bits(expected)
    assert rng.getstate() == expected_rng.getstate()


def reference_semantic_points(ear, mar, head_drop, inter_ocular):
    """The face builder as it wrote out each eye and the mouth point by point."""
    d = inter_ocular
    eye_w = synth._EYE_SPAN * d
    left_x = synth._FACE_CX - d / 2.0
    right_x = synth._FACE_CX + d / 2.0
    ey = synth._EYE_Y
    v = ear * eye_w / 2.0

    def eye(x0):
        xa = x0 + eye_w / 3.0
        xb = x0 + 2.0 * eye_w / 3.0
        return (
            (x0, ey),
            (xa, ey - v),
            (xb, ey - v),
            (x0 + eye_w, ey),
            (xb, ey + v),
            (xa, ey + v),
        )

    left_eye = eye(left_x)
    right_eye = eye(right_x - eye_w)

    mouth_w = synth._MOUTH_SPAN * d
    my = ey + synth._MOUTH_DROP * d
    vm = mar * mouth_w / 2.0
    xma = synth._FACE_CX - mouth_w / 6.0
    xmb = synth._FACE_CX + mouth_w / 6.0
    mouth = (
        (synth._FACE_CX - mouth_w / 2.0, my),
        (xma, my - vm),
        (xmb, my - vm),
        (synth._FACE_CX + mouth_w / 2.0, my),
        (xmb, my + vm),
        (xma, my + vm),
    )

    nose = (synth._FACE_CX, ey + head_drop * d)
    return left_eye + right_eye + mouth + (nose,)


def reference_iter_session(s):
    """The generator as it tested every event on every frame, drew noise from gauss
    and built each face with reference_semantic_points."""
    rng = random.Random(s.seed)
    gauss = rng.gauss
    sigma = s.noise_sigma
    driver = s.driver
    for i in range(s.frame_count):
        t = synth._frame_t(i, s.fps)
        eye_mult = mouth_mult = head_mult = 1.0
        face = True
        eye_closed = mouth_yawn = head_down = False
        for ev in s.events:
            if not (ev.start_t <= t < ev.start_t + ev.length_s):
                continue
            if ev.kind in ("blink", "sustained_closure"):
                eye_mult = min(eye_mult, 1.0 - ev.intensity)
                eye_closed = True
            elif ev.kind == "yawn":
                mouth_mult = max(mouth_mult, 1.0 + ev.intensity)
                mouth_yawn = True
            elif ev.kind == "talk":
                phase = 2.0 * math.pi * synth._TALK_HZ * (t - ev.start_t)
                wobble = 1.0 + ev.intensity * (
                    synth._TALK_MID - synth._TALK_AMP * math.cos(phase)
                )
                mouth_mult = max(mouth_mult, wobble)
            elif ev.kind == "head_nod":
                head_mult = max(head_mult, 1.0 + 0.5 * ev.intensity)
                head_down = True
            else:
                face = False
        if not face:
            yield (
                LandmarkFrame(t=t, scheme=SEMANTIC, points=(), face_present=False),
                FrameLabel(t, False, None, None, None),
            )
            continue
        points = reference_semantic_points(
            ear=driver.baseline_ear * eye_mult,
            mar=driver.baseline_mar * mouth_mult,
            head_drop=driver.baseline_head_drop * head_mult,
            inter_ocular=driver.inter_ocular_px,
        )
        if sigma > 0.0:
            points = tuple((x + gauss(0.0, sigma), y + gauss(0.0, sigma)) for x, y in points)
        yield (
            LandmarkFrame(t=t, scheme=SEMANTIC, points=points, face_present=True),
            FrameLabel(t, True, eye_closed, mouth_yawn, head_down),
        )


@st.composite
def event_scripts(draw):
    """Scripts whose unsorted events overlap, share starts and touch ends and frame times,
    for drivers whose baselines and inter-ocular distance run from 5e-324 to 1e100."""
    fps = draw(st.one_of(st.sampled_from([1.0, 30.0, 1000.0]), st.floats(1.0, 1000.0)))
    frames = draw(st.integers(1, 150))
    duration = frames / fps
    anchors = [0.0, duration]
    events = []
    for _ in range(draw(st.integers(0, 8))):
        frame_time = st.integers(0, frames).map(lambda i: synth._frame_t(i, fps))
        start = draw(st.one_of(st.sampled_from(anchors), frame_time, st.floats(0.0, duration)))
        if start >= duration:
            continue
        end = draw(st.one_of(st.sampled_from(anchors), frame_time, st.floats(start, duration)))
        length = end - start
        if length <= 0.0 or start + length > duration:
            continue
        kind = draw(st.sampled_from(EVENT_KINDS))
        intensity = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        events.append(ScriptEvent(kind, start, length, intensity))
        anchors += [start, end]
    sigma = draw(st.one_of(st.just(0.0), st.floats(1e-3, 5.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    # up to 1e100 each, no coordinate passes about 1e200, so every face is finite
    positive = st.floats(0.0, 1e100, exclude_min=True)
    driver = DriverParams(
        baseline_ear=draw(positive),
        baseline_mar=draw(positive),
        baseline_head_drop=draw(st.floats(0.0, 1e100)),
        inter_ocular_px=draw(positive),
    )
    return script(duration=duration, events=events, noise=sigma, seed=seed, fps=fps, driver=driver)


@settings(max_examples=150, deadline=None)
@given(event_scripts())
def test_iter_session_equals_full_scan_generator(s):
    got = list(iter_session(s))
    expected = list(reference_iter_session(s))
    assert [label for _, label in got] == [label for _, label in expected]
    assert [(f.t, f.face_present, bits(f.points)) for f, _ in got] == [
        (f.t, f.face_present, bits(f.points)) for f, _ in expected
    ]


@settings(max_examples=150, deadline=None)
@given(fps=st.floats(0.5, 2000.0), duration=st.floats(0.001, 1.0))
def test_accepted_script_frame_keys_strictly_increase(fps, duration):
    try:
        s = script(duration=duration, fps=fps)
    except ScriptError:
        return
    keys = [quantize_ms(frame.t) for frame in iter_frames(s)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@settings(max_examples=200, deadline=None)
@given(
    start_ms=st.integers(0, 10**7),
    length_ms=st.integers(1, 10**7),
    short_ms=st.integers(0, 10**7),
)
@example(start_ms=400, length_ms=800, short_ms=0)  # 0.4 + 0.8 > 1.2 in binary
@example(start_ms=400, length_ms=800, short_ms=1)
def test_event_end_is_checked_on_the_millisecond_grid(start_ms, length_ms, short_ms):
    # the session ends short_ms whole milliseconds before the event does
    assume(short_ms < start_ms + length_ms)
    event = ScriptEvent("yawn", start_ms / 1000.0, length_ms / 1000.0)
    duration = (start_ms + length_ms - short_ms) / 1000.0
    if short_ms == 0:
        assert script(duration=duration, events=[event]).events == (event,)
    else:
        message = f"yawn at t={event.start_t} (length {event.length_s}) falls outside the session"
        with pytest.raises(ScriptError, match=re.escape(message)):
            script(duration=duration, events=[event])


class TestPopulation:
    TEMPLATE = (ScriptEvent("yawn", 5.0, 1.0, 1.0),)

    def test_degenerate_range_collapses(self):
        (s, frames, truth), = list(
            generate_population(1, (0.3, 0.3), (0.4, 0.4), self.TEMPLATE, seed=1, duration_s=8.0)
        )
        assert s.driver.baseline_ear == 0.3
        assert s.driver.baseline_mar == 0.4

    def test_baselines_within_ranges(self):
        pop = list(
            generate_population(
                20, (0.18, 0.38), (0.30, 0.50), self.TEMPLATE, seed=5, duration_s=8.0
            )
        )
        assert len(pop) == 20
        for s, frames, truth in pop:
            assert 0.18 <= s.driver.baseline_ear <= 0.38
            assert 0.30 <= s.driver.baseline_mar <= 0.50
            assert s.events == self.TEMPLATE
        assert len({s.driver.baseline_ear for s, _, _ in pop}) == 20

    def test_fixed_seed_reproducible(self):
        def draw():
            return [
                (s.driver, f[0].points if f else None)
                for s, f, _ in generate_population(
                    5, (0.2, 0.4), (0.3, 0.5), self.TEMPLATE, seed=11, duration_s=8.0,
                    noise_sigma=0.5,
                )
            ]

        assert draw() == draw()

    def test_empty_range_rejected(self):
        with pytest.raises(ScriptError):
            list(generate_population(3, (0.4, 0.2), (0.3, 0.5), self.TEMPLATE, seed=1))

    def test_non_positive_range_rejected(self):
        with pytest.raises(ScriptError, match="baseline EAR range must be positive"):
            list(generate_population(3, (0.0, 0.2), (0.3, 0.5), self.TEMPLATE, seed=1))
        with pytest.raises(ScriptError, match="baseline MAR range must be positive"):
            list(generate_population(3, (0.2, 0.4), (-0.1, 0.5), self.TEMPLATE, seed=1))

    def test_population_size_validated(self):
        with pytest.raises(ScriptError):
            list(generate_population(0, (0.2, 0.4), (0.3, 0.5), self.TEMPLATE, seed=1))
