import inspect
import itertools
import math
import random
import re
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from drowsy import landmarks, metrics, pipeline
from drowsy.calibration import generalized_profile
from drowsy.errors import ConfigError, GeometryError, MissingLabelError, NoDataError
from drowsy.errors import StreamOrderError
from drowsy.landmarks import DLIB68_MAP, MESH468_MAP, POINT_COUNTS, SEMANTIC_MAP
from drowsy.landmarks import MAX_SECONDS, LandmarkFrame, SEMANTIC, SemanticPoints
from drowsy.landmarks import quantize_ms, to_semantic
from drowsy.metrics import compute_binocular_ear, compute_ear, compute_head_drop, compute_mar
from drowsy.metrics import PerclosWindow, metric_sample
from drowsy.pipeline import (
    ALL_EVENT_KINDS,
    ChannelState,
    FrameRecord,
    Pipeline,
    PipelineConfig,
    SessionSummary,
    SmoothingBuffer,
    run_session,
)

from conftest import coincident_corner_frame, semantic_frame, semantic_roles

FPS = 30.0


def grid_t(i, fps=FPS):
    return round(i * 1000.0 / fps) / 1000.0


def metric_frames(ear_values, mar=0.40, head=0.55, fps=FPS):
    frames = []
    for i, value in enumerate(ear_values):
        if value is None:
            frames.append(
                LandmarkFrame(t=grid_t(i, fps), scheme=SEMANTIC, points=(), face_present=False)
            )
        else:
            m = mar[i] if isinstance(mar, list) else mar
            frames.append(semantic_frame(t=grid_t(i, fps), ear=value, mar=m, head_drop=head))
    return frames


def profile():
    # thresholds matching a 0.32/0.40/0.60 driver under the default factors
    return generalized_profile(ear_threshold=0.24, mar_threshold=0.56, head_drop_limit=0.75)


class TestSmoothingBuffer:
    def test_constant(self):
        buf = SmoothingBuffer(15)
        for _ in range(15):
            buf.push(0.3)
        assert buf.smoothed() == 0.3

    def test_partial_fill_uses_present_values(self):
        buf = SmoothingBuffer(15)
        buf.push(0.2)
        buf.push(0.4)
        assert buf.smoothed() == pytest.approx(0.3, abs=1e-15)
        buf.push(0.9)
        assert buf.smoothed() == pytest.approx(0.5, abs=1e-15)

    def test_eviction_oldest_first(self):
        buf = SmoothingBuffer(15)
        values = [random.Random(2).uniform(0, 1) for _ in range(20)]
        for v in values:
            buf.push(v)
        tail = values[-15:]
        assert buf.smoothed() == pytest.approx(sum(tail) / 15.0, abs=1e-12)
        buf.push(2.0)
        assert buf.smoothed() == pytest.approx((sum(tail[1:]) + 2.0) / 15.0, abs=1e-12)

    def test_empty_buffer_error(self):
        with pytest.raises(NoDataError):
            SmoothingBuffer(3).smoothed()

    def test_mean_beyond_float_range_is_geometry_error(self):
        buf = SmoothingBuffer(3)
        buf.push(1.6e308)
        assert buf.smoothed() == 1.6e308
        buf.push(1.6e308)
        with pytest.raises(GeometryError, match="smoothed mean overflows"):
            buf.smoothed()


def huge_ear_frame(t):
    """A left-eye opening of 8e307 over a 0.5 width: EAR 1.6e308, finite on its own."""
    pts = list(semantic_frame(t=t).points)
    x0, y0 = pts[0]
    pts[3] = (x0 + 0.5, y0)
    for i, y in ((1, -4e307), (2, -4e307), (4, 4e307), (5, 4e307)):
        pts[i] = (pts[i][0], y)
    return LandmarkFrame(t, SEMANTIC, tuple(pts), True)


def test_step_names_the_frame_whose_smoothed_mean_overflows():
    pipe = Pipeline(profile())
    pipe.step(huge_ear_frame(0.0))  # binocular EAR about 8e307
    pipe.step(huge_ear_frame(0.033))
    with pytest.raises(GeometryError) as err:
        pipe.step(huge_ear_frame(0.067))  # three of them sum past float max
    assert str(err.value) == "frame at t=0.067: smoothed mean overflows"


CORNERS = "frame at t=2.500: degenerate face: eye corners coincide"


@pytest.mark.parametrize("m", [SEMANTIC_MAP, DLIB68_MAP, MESH468_MAP], ids=lambda m: m.scheme)
def test_coincident_eye_corners_are_refused_per_frame(m):
    frame = coincident_corner_frame(m)
    with pytest.raises(GeometryError) as err:
        Pipeline(profile()).step(frame)
    assert str(err.value) == CORNERS
    with pytest.raises(GeometryError) as err:
        metric_sample(frame)
    assert str(err.value) == CORNERS


def refused_frame(t, fault):
    """A face at t with one raw metric degenerate; its EAR would differ from the session's."""
    pts = list(semantic_frame(t=t, ear=0.45, mar=0.80).points)
    if fault == "eye":
        pts[3] = pts[0]  # the left eye's horizontal corners
    elif fault == "mouth":
        pts[15] = pts[12]  # the mouth's horizontal corners
    else:
        pts[9] = pts[0]  # the outer eye corners
    return LandmarkFrame(t, SEMANTIC, tuple(pts), True)


@pytest.mark.parametrize(
    "fault, message",
    [
        ("eye", "degenerate eye: horizontal corner points coincide"),
        ("mouth", "degenerate mouth: horizontal corner points coincide"),
        ("head", "degenerate face: eye corners coincide"),
    ],
)
def test_a_refused_frame_leaves_the_pipeline_unchanged(fault, message):
    frames = metric_frames([0.32] * 100 + [0.0] * 60 + [0.32] * 140)
    expected = run_session(frames, profile())
    pipe = Pipeline(profile())
    records, events = [], []
    for i, frame in enumerate(frames):
        if i == 150:  # between t=4.967 and t=5.000, inside the closure
            with pytest.raises(GeometryError) as err:
                pipe.step(refused_frame(4.98, fault))
            assert str(err.value) == f"frame at t=4.980: {message}"
        record, new_events = pipe.step(frame)
        records.append(record)
        events.extend(new_events)
    assert records == expected.records
    assert events == expected.events and events


def test_a_frame_without_its_external_state_leaves_the_pipeline_unchanged():
    frames = metric_frames([0.32] * 100 + [0.0] * 60 + [0.32] * 140)
    external = {quantize_ms(f.t): (60 <= i < 200, False) for i, f in enumerate(frames)}
    expected = run_session(frames, profile(), external=external)
    pipe = Pipeline(profile(), external=external)
    records, events = [], []
    for i, frame in enumerate(frames):
        if i == 150:  # between t=4.967 and t=5.000, with metrics unlike the session's
            with pytest.raises(MissingLabelError) as err:
                pipe.step(semantic_frame(t=4.98, ear=0.45, mar=0.80))
            assert str(err.value) == "no external state for frame at t=4.980"
        record, new_events = pipe.step(frame)
        records.append(record)
        events.extend(new_events)
    assert records == expected.records
    assert events == expected.events and events


def test_a_missing_external_state_is_reported_before_a_smoothing_overflow():
    pipe = Pipeline(profile(), external={0: (False, False), 33: (False, False)})
    pipe.step(huge_ear_frame(0.0))
    pipe.step(huge_ear_frame(0.033))
    # this frame's mean would overflow, and it has no external state either
    with pytest.raises(MissingLabelError):
        pipe.step(huge_ear_frame(0.067))
    # nothing was committed: the same frame is refused for the same reason,
    # not as a timestamp that fails to advance
    with pytest.raises(MissingLabelError):
        pipe.step(huge_ear_frame(0.067))


class TestChannelState:
    def run_machine(self, conditions, sustain_frames=30, rearm=15, fps=FPS):
        sustain_ms = round(sustain_frames * 1000.0 / fps)
        state = ChannelState(sustain_ms, rearm)
        fired = []
        for i, cond in enumerate(conditions):
            if state.advance(cond, round(grid_t(i) * 1000)):
                fired.append(i)
        return fired

    def test_short_episode_never_alerts(self):
        conds = [False] * 10 + [True] * 20 + [False] * 30
        assert self.run_machine(conds, sustain_frames=30) == []

    def test_long_episode_alerts_once(self):
        conds = [False] * 10 + [True] * 90 + [False] * 30
        fired = self.run_machine(conds, sustain_frames=30)
        assert len(fired) == 1
        assert fired[0] == pytest.approx(10 + 30, abs=1)

    def test_gap_shorter_than_rearm_merges_episodes(self):
        conds = [True] * 40 + [False] * 10 + [True] * 40
        assert len(self.run_machine(conds, sustain_frames=30, rearm=15)) == 1

    def test_gap_at_least_rearm_allows_second_alert(self):
        conds = [True] * 40 + [False] * 15 + [True] * 40
        assert len(self.run_machine(conds, sustain_frames=30, rearm=15)) == 2

    def test_zero_sustain_fires_on_onset_frame(self):
        fired = self.run_machine([False, True, True], sustain_frames=0)
        assert fired == [1]

    @given(
        st.lists(st.booleans(), min_size=1, max_size=200),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=30),
    )
    def test_debounce_properties(self, conds, sustain_frames, rearm):
        fired = self.run_machine(conds, sustain_frames=sustain_frames, rearm=rearm)
        episodes = sum(
            1 for i, c in enumerate(conds) if c and (i == 0 or not conds[i - 1])
        )
        assert len(fired) <= episodes
        # every alert fires after the condition held continuously >= sustain frames
        for i in fired:
            run = 0
            j = i
            while j >= 0 and conds[j]:
                run += 1
                j -= 1
            assert run >= sustain_frames + 1 or sustain_frames == 0

    @given(
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=0, max_value=20),
        st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=25)), max_size=40),
        st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=50),
    )
    def test_matches_three_phase_reference(self, sustain_ms, rearm, runs, gaps_ms):
        """Runs of equal conditions, one frame per step, gaps_ms cycled as frame spacing."""
        state = ChannelState(sustain_ms, rearm)
        reference = ThreePhaseChannel(sustain_ms, rearm)
        conditions = [condition for condition, length in runs for _ in range(length)]
        t_ms = 0
        for condition, gap_ms in zip(conditions, itertools.cycle(gaps_ms)):
            t_ms += gap_ms
            fired = state.advance(condition, t_ms)
            assert fired == reference.advance(condition, t_ms)
            if fired:
                assert state.onset_ms == reference.condition_since_ms
            assert (state.onset_ms is None) == (reference.phase == "normal")
            assert state.alerted == (reference.phase == "alerting")
            assert state.rearm_progress == reference.rearm_progress


class ThreePhaseChannel:
    """Oracle for ChannelState: the machine it replaced, with an explicit phase string."""

    def __init__(self, sustain_ms, rearm_frames):
        self.sustain_ms = sustain_ms
        self.rearm_frames = rearm_frames
        self.phase = "normal"
        self.condition_since_ms = None
        self.rearm_progress = 0

    def advance(self, condition, t_ms):
        if self.phase == "normal":
            if not condition:
                return False
            self.phase = "pending"
            self.condition_since_ms = t_ms
        if self.phase == "pending":
            if not condition:
                self.phase = "normal"
                self.condition_since_ms = None
                return False
            if t_ms - self.condition_since_ms >= self.sustain_ms:
                self.phase = "alerting"
                self.rearm_progress = 0
                return True
            return False
        if condition:
            self.rearm_progress = 0
            return False
        self.rearm_progress += 1
        if self.rearm_progress >= self.rearm_frames:
            self.phase = "normal"
            self.condition_since_ms = None
            self.rearm_progress = 0
        return False


class TestPipelineBehavior:
    def test_three_frame_blink_no_alert(self):
        ears = [0.32] * 30 + [0.0] * 3 + [0.32] * 57
        result = run_session(metric_frames(ears), profile())
        assert result.events == []
        assert all(not r.eye_closed for r in result.records)

    def test_sixty_frame_closure_single_event_with_sustain_spacing(self):
        # closure placed late so PERCLOS stays under its limit throughout
        n = 900
        ears = [0.32] * n
        for i in range(600, 660):
            ears[i] = 0.0
        result = run_session(metric_frames(ears), profile())
        eyes = [e for e in result.events if e.kind == "eyes_closed"]
        assert len(eyes) == 1
        assert {e.kind for e in result.events} == {"eyes_closed"}
        spacing = eyes[0].emitted_t - eyes[0].onset_t
        assert 1.0 <= spacing <= 1.0 + 1.0 / FPS + 1e-9
        assert eyes[0].value < eyes[0].threshold == 0.24

    def test_driver_missing_after_presence_sustain(self):
        frames = metric_frames([None] * 300)
        result = run_session(frames, profile())
        assert [e.kind for e in result.events] == ["driver_missing"]
        ev = result.events[0]
        assert ev.onset_t == 0.0
        assert ev.emitted_t == pytest.approx(3.0, abs=1.0 / FPS)
        assert result.summary.faceless_frames == 300

    def test_face_returning_cancels_pending_presence(self):
        values = [0.32] * 30 + [None] * 60 + [0.32] * 60
        result = run_session(metric_frames(values), profile())
        assert result.events == []

    def test_yawn_event_spacing(self):
        mars = [0.40] * 900
        for i in range(600, 660):
            mars[i] = 0.80
        frames = metric_frames([0.32] * 900, mar=mars)
        result = run_session(frames, profile())
        yawns = [e for e in result.events if e.kind == "yawning"]
        assert len(yawns) == 1
        spacing = yawns[0].emitted_t - yawns[0].onset_t
        assert 1.5 <= spacing <= 1.5 + 1.0 / FPS + 1e-9

    def test_head_down_event(self):
        frames = [
            semantic_frame(t=grid_t(i), ear=0.32, mar=0.40, head_drop=0.55 if i < 300 else 0.95)
            for i in range(600)
        ]
        result = run_session(frames, profile())
        heads = [e for e in result.events if e.kind == "head_down"]
        assert len(heads) == 1
        spacing = heads[0].emitted_t - heads[0].onset_t
        assert 2.0 <= spacing <= 2.0 + 1.0 / FPS + 1e-9

    def test_perclos_high_fires_once_per_episode(self):
        # 8 s of closure inside a 30 s window blows well past the 20% limit
        ears = [0.32] * 300 + [0.0] * 240 + [0.32] * 360
        result = run_session(metric_frames(ears), profile())
        perclos_events = [e for e in result.events if e.kind == "perclos_high"]
        assert len(perclos_events) == 1
        assert perclos_events[0].value > 20.0

    def test_faceless_frames_freeze_metric_channels(self):
        # a dropout mid-closure must not reset the pending eye episode clock
        values = [0.32] * 60 + [0.0] * 10 + [None] * 20 + [0.0] * 50 + [0.32] * 60
        result = run_session(metric_frames(values), profile())
        eyes = [e for e in result.events if e.kind == "eyes_closed"]
        assert len(eyes) == 1
        records = result.records
        # smoothed values persist unchanged across the dropout
        assert records[69].ear is not None
        for r in records[70:90]:
            assert r.ear is None and r.eye_closed is None

    def test_external_mode_equals_threshold_decisions(self):
        ears = [0.32] * 150 + [0.0] * 60 + [0.32] * 150
        mars = [0.40] * 160 + [0.80] * 70 + [0.40] * 130
        frames = metric_frames(ears, mar=mars)
        threshold_run = run_session(frames, profile())
        states = {
            round(r.t * 1000): (r.eye_closed, r.mouth_yawn)
            for r in threshold_run.records
            if r.face_present
        }
        external_run = run_session(frames, profile(), external=states)
        assert external_run.events == threshold_run.events
        assert external_run.records == threshold_run.records

    def test_external_missing_label(self):
        frames = metric_frames([0.32] * 40)
        states = {
            round(f.t * 1000): (False, False) for f in frames if f.t != frames[20].t
        }
        with pytest.raises(MissingLabelError) as err:
            run_session(frames, profile(), external=states)
        assert err.value.t == frames[20].t

    def test_empty_external_states_are_external_mode(self):
        frames = metric_frames([0.32] * 5)
        with pytest.raises(MissingLabelError) as err:
            run_session(frames, profile(), external={})
        assert err.value.t == frames[0].t

    def test_degenerate_config_reduces_to_raw_thresholds(self):
        rng = random.Random(17)
        ears = [rng.uniform(0.1, 0.4) for _ in range(200)]
        mars = [rng.uniform(0.3, 0.9) for _ in range(200)]
        frames = metric_frames(ears, mar=mars)
        config = PipelineConfig(
            buffer_capacity=1,
            sustain_eyes_s=0.0,
            sustain_mouth_s=0.0,
            sustain_head_s=0.0,
            sustain_presence_s=0.0,
            sustain_perclos_s=0.0,
        )
        result = run_session(frames, profile(), config)
        for frame, record in zip(frames, result.records):
            sp = to_semantic(frame)
            assert record.eye_closed == (compute_binocular_ear(sp) < 0.24)
            assert record.mouth_yawn == (compute_mar(sp.mouth) > 0.56)
            assert record.head_down == (compute_head_drop(sp) > 0.75)

    def test_decisions_invariant_under_uniform_scaling(self):
        ears = [0.32] * 60 + [0.05] * 60 + [0.32] * 60
        frames = metric_frames(ears)
        scaled = [
            LandmarkFrame(
                t=f.t,
                scheme=f.scheme,
                points=tuple((2.5 * x, 2.5 * y) for x, y in f.points),
                face_present=f.face_present,
            )
            for f in frames
        ]
        a = run_session(frames, profile())
        b = run_session(scaled, profile())
        assert [r.eye_closed for r in a.records] == [r.eye_closed for r in b.records]
        assert [e.kind for e in a.events] == [e.kind for e in b.events]

    def test_stream_order_enforced(self):
        frames = metric_frames([0.32] * 3)
        pipe = Pipeline(profile())
        pipe.step(frames[1])
        with pytest.raises(StreamOrderError):
            pipe.step(frames[1])
        with pytest.raises(StreamOrderError):
            pipe.step(frames[0])

    def test_empty_stream(self):
        result = run_session([], profile())
        assert result.events == [] and result.records == []
        assert result.summary.frames == 0
        assert all(v == 0 for v in result.summary.alerts.values())
        assert result.summary.final_perclos is None

    def test_scripted_two_yawns_one_closure_summary(self):
        mars = [0.40] * 1800
        for start in (600, 1200):
            for i in range(start, start + 60):
                mars[i] = 0.80
        ears = [0.32] * 1800
        for i in range(900, 960):
            ears[i] = 0.0
        result = run_session(metric_frames(ears, mar=mars), profile())
        counts = {k: v for k, v in result.summary.alerts.items() if v}
        assert counts == {"yawning": 2, "eyes_closed": 1}

    def test_determinism(self):
        ears = [0.32] * 100 + [0.0] * 60 + [0.32] * 100
        frames = metric_frames(ears)
        a = run_session(frames, profile())
        b = run_session(frames, profile())
        assert a.events == b.events
        assert a.records == b.records
        assert a.summary == b.summary
        assert a.summary.final_perclos == a.records[-1].perclos

    def test_sinks_without_collection(self):
        seen_records, seen_events = [], []
        # a closure, then a detector dropout longer than the presence sustain
        ears = [0.32] * 600 + [0.0] * 60 + [0.32] * 60 + [None] * 120 + [0.32] * 60
        frames = metric_frames(ears)
        result = run_session(
            frames,
            profile(),
            on_event=seen_events.append,
            on_record=seen_records.append,
            collect=False,
        )
        assert result.events == [] and result.records == []
        collected = run_session(frames, profile())
        assert seen_records == collected.records and seen_events == collected.events
        counted = SessionSummary(
            frames=len(seen_records),
            faceless_frames=sum(not r.face_present for r in seen_records),
            alerts={kind: sum(e.kind == kind for e in seen_events) for kind in ALL_EVENT_KINDS},
            final_perclos=seen_records[-1].perclos,
        )
        assert result.summary == collected.summary == counted
        assert list(result.summary.alerts) == list(ALL_EVENT_KINDS)  # README prints this order
        assert (counted.frames, counted.faceless_frames) == (900, 120)
        assert [e.kind for e in seen_events] == ["eyes_closed", "driver_missing"]

    def test_emitted_minus_onset_at_least_sustain(self):
        ears = ([0.32] * 60 + [0.0] * 60) * 4 + [0.32] * 60
        mars = [0.40] * 300 + [0.90] * 90 + [0.40] * 150
        result = run_session(metric_frames(ears, mar=mars), profile())
        config = PipelineConfig()
        sustain = {
            "eyes_closed": config.sustain_eyes_s,
            "yawning": config.sustain_mouth_s,
            "head_down": config.sustain_head_s,
            "driver_missing": config.sustain_presence_s,
            "perclos_high": config.sustain_perclos_s,
        }
        assert result.events
        for ev in result.events:
            assert ev.emitted_t - ev.onset_t >= sustain[ev.kind] - 1e-9


# Five distinct sustains on a 10 fps grid: each kind must wait exactly its own.
DISTINCT_SUSTAINS = {
    "eyes_closed": 0.5,
    "yawning": 0.7,
    "head_down": 0.9,
    "driver_missing": 1.1,
    "perclos_high": 0.3,
}


def episode_frames(fps=10.0):
    """Neutral frames around one 3 s episode per channel; eye closure also lifts PERCLOS."""
    frames = []
    for i in range(260):
        t = grid_t(i, fps)
        if 200 <= i < 230:
            frames.append(LandmarkFrame(t=t, scheme=SEMANTIC, points=(), face_present=False))
            continue
        ear = 0.0 if 50 <= i < 80 else 0.32
        mar = 0.90 if 100 <= i < 130 else 0.40
        head = 0.90 if 150 <= i < 180 else 0.55
        frames.append(semantic_frame(t=t, ear=ear, mar=mar, head_drop=head))
    return frames


def test_each_kind_waits_its_own_sustain():
    config = PipelineConfig(
        buffer_capacity=1,
        sustain_eyes_s=DISTINCT_SUSTAINS["eyes_closed"],
        sustain_mouth_s=DISTINCT_SUSTAINS["yawning"],
        sustain_head_s=DISTINCT_SUSTAINS["head_down"],
        sustain_presence_s=DISTINCT_SUSTAINS["driver_missing"],
        sustain_perclos_s=DISTINCT_SUSTAINS["perclos_high"],
    )
    assert config.sustains() == DISTINCT_SUSTAINS
    assert list(config.sustains()) == list(ALL_EVENT_KINDS)
    events = run_session(episode_frames(), profile(), config).events
    assert sorted(ev.kind for ev in events) == sorted(ALL_EVENT_KINDS)
    for ev in events:
        waited_ms = quantize_ms(ev.emitted_t) - quantize_ms(ev.onset_t)
        assert waited_ms == quantize_ms(DISTINCT_SUSTAINS[ev.kind]), ev
    (missing,) = [ev for ev in events if ev.kind == "driver_missing"]
    assert missing.threshold == DISTINCT_SUSTAINS["driver_missing"]


def test_alerts_on_one_frame_come_out_in_kind_order():
    zero = PipelineConfig(
        buffer_capacity=1, sustain_eyes_s=0.0, sustain_mouth_s=0.0, sustain_head_s=0.0,
        sustain_presence_s=0.0, sustain_perclos_s=0.1,
    )
    pipe = Pipeline(profile(), zero)
    assert pipe.step(semantic_frame(t=0.0, ear=0.32, mar=0.40, head_drop=0.55))[1] == ()
    # eyes, mouth and head fire at onset; PERCLOS (50 %) starts pending
    _, events = pipe.step(semantic_frame(t=0.1, ear=0.0, mar=0.90, head_drop=0.90))
    assert [ev.kind for ev in events] == ["eyes_closed", "yawning", "head_down"]
    # the face vanishes as PERCLOS completes its sustain: presence still comes first
    _, events = pipe.step(LandmarkFrame(t=0.2, scheme=SEMANTIC, points=(), face_present=False))
    assert [ev.kind for ev in events] == ["driver_missing", "perclos_high"]
    instant = PipelineConfig(
        buffer_capacity=1, sustain_eyes_s=0.0, sustain_mouth_s=0.0, sustain_head_s=0.0,
        sustain_perclos_s=0.0,
    )
    pipe = Pipeline(profile(), instant)
    pipe.step(semantic_frame(t=0.0, ear=0.32, mar=0.40, head_drop=0.55))
    _, events = pipe.step(semantic_frame(t=0.1, ear=0.0, mar=0.90, head_drop=0.90))
    assert [ev.kind for ev in events] == [
        kind for kind in ALL_EVENT_KINDS if kind != "driver_missing"
    ]


def test_pipeline_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(buffer_capacity=0)
    with pytest.raises(ConfigError):
        PipelineConfig(sustain_eyes_s=-1.0)
    with pytest.raises(ConfigError):
        PipelineConfig(perclos_limit=150.0)
    with pytest.raises(ConfigError):
        PipelineConfig(rearm_frames=-1)


def test_buffer_capacity_is_bounded_by_the_largest_deque():
    # deque(maxlen=...) takes at most sys.maxsize; one more is a ConfigError, not an OverflowError
    Pipeline(profile(), PipelineConfig(buffer_capacity=sys.maxsize))
    with pytest.raises(ConfigError, match=f"buffer capacity must be from 1 to {sys.maxsize}"):
        PipelineConfig(buffer_capacity=sys.maxsize + 1)


@pytest.mark.parametrize(
    "seconds", [0.0, -1.0, 0.0004, 0.0005, 0.001, 30.0, MAX_SECONDS, 1e306, math.inf, math.nan]
)
def test_perclos_window_rule_is_the_windows_own(seconds):
    # PipelineConfig refuses exactly the durations PerclosWindow refuses
    try:
        PerclosWindow(seconds)
    except ValueError:
        with pytest.raises(ConfigError):
            PipelineConfig(perclos_window_s=seconds)
    else:
        assert PipelineConfig(perclos_window_s=seconds).perclos_window_s == seconds


@pytest.mark.parametrize(
    "field",
    ["sustain_eyes_s", "sustain_mouth_s", "sustain_head_s", "sustain_presence_s",
     "sustain_perclos_s", "perclos_window_s"],
)
def test_durations_need_a_millisecond_key(field):
    # seconds * 1000 must stay finite for every duration the pipeline keys in milliseconds
    Pipeline(profile(), PipelineConfig(**{field: MAX_SECONDS}))
    message = "PERCLOS window must be" if field == "perclos_window_s" else "sustain durations must"
    for seconds in (math.nextafter(MAX_SECONDS, math.inf), 1e306, 1e308):
        with pytest.raises(ConfigError, match=message):
            PipelineConfig(**{field: seconds})


def test_frame_record_is_an_immutable_record_in_field_order():
    (record,) = run_session(metric_frames([0.32]), profile()).records
    assert FrameRecord._fields == (
        "t", "face_present", "ear", "mar", "head_drop",
        "eye_closed", "mouth_yawn", "head_down", "perclos",
    )
    for name in FrameRecord._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == FrameRecord(*record) and hash(record) == hash(FrameRecord(*record))


def code_names() -> dict:
    """module.[Class.]name of each function and method defined in the decision-path modules."""
    names = {}
    for module in (landmarks, metrics, pipeline):
        prefix = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                names[obj.__code__] = f"{prefix}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    # a named tuple's __new__ is a staticmethod, a property wraps fget
                    fn = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(fn):
                        names[fn.__code__] = f"{prefix}.{obj.__name__}.{attr}"
    return names


def python_calls(fn, *args) -> list:
    """The Python functions entered while fn(*args) runs, in call order."""
    names = code_names()
    entered = []

    def profile_hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.append(names.get(code, f"{code.co_filename}:{code.co_name}"))

    previous = sys.getprofile()
    sys.setprofile(profile_hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return entered


# Every Python call of one face frame's decision step, in order. The bench
# tracer wraps the public ones; the rest carry the rules they own. A call
# that holds no rule (compute_ear between compute_binocular_ear and
# _aspect_ratio, a named tuple's __new__) costs each frame ~0.15 us.
FACE_STEP_CALLS = [
    "pipeline.Pipeline.step",
    "landmarks.quantize_ms",
    "landmarks.to_semantic",
    "metrics.compute_binocular_ear",
    "metrics._aspect_ratio",
    "metrics._aspect_ratio",
    "metrics.compute_mar",
    "metrics._aspect_ratio",
    "metrics.compute_head_drop",
    *["pipeline.SmoothingBuffer.push"] * 3,
    *["pipeline.SmoothingBuffer.smoothed"] * 3,
    "pipeline.threshold_states",
    *["pipeline.ChannelState.advance"] * 3,  # eyes, mouth, head: advanced where decided
    "metrics.PerclosWindow.append",
    "metrics.PerclosWindow.perclos",
    *["pipeline.ChannelState.advance"] * 2,  # presence, PERCLOS: every frame
]

# The same step with external states: one state lookup on the frame's key
# takes the place of the threshold decision.
EXTERNAL_FACE_STEP_CALLS = [
    "pipeline.Pipeline.step",
    "landmarks.quantize_ms",
    "landmarks.to_semantic",
    "metrics.compute_binocular_ear",
    "metrics._aspect_ratio",
    "metrics._aspect_ratio",
    "metrics.compute_mar",
    "metrics._aspect_ratio",
    "metrics.compute_head_drop",
    "pipeline.external_state",
    *["pipeline.SmoothingBuffer.push"] * 3,
    *["pipeline.SmoothingBuffer.smoothed"] * 3,
    *["pipeline.ChannelState.advance"] * 3,
    "metrics.PerclosWindow.append",
    "metrics.PerclosWindow.perclos",
    *["pipeline.ChannelState.advance"] * 2,
]

# A faceless step freezes the eye, mouth and head channels: it only keys the
# frame, feeds the PERCLOS window and advances the presence and PERCLOS channels.
FACELESS_STEP_CALLS = [
    "pipeline.Pipeline.step",
    "landmarks.quantize_ms",
    "metrics.PerclosWindow.append",
    "metrics.PerclosWindow.perclos",
    *["pipeline.ChannelState.advance"] * 2,
]

METRIC_SAMPLE_CALLS = [
    "metrics.metric_sample",
    "landmarks.to_semantic",
    "metrics.compute_binocular_ear",
    "metrics._aspect_ratio",
    "metrics._aspect_ratio",
    "metrics.compute_mar",
    "metrics._aspect_ratio",
    "metrics.compute_head_drop",
    "metrics.MetricSample.__init__",
]


def test_face_step_makes_only_the_calls_that_hold_a_rule():
    pipe = Pipeline(profile())
    pipe.step(semantic_frame(t=0.0))  # the PERCLOS window needs a sample before this one
    assert python_calls(pipe.step, semantic_frame(t=0.033)) == FACE_STEP_CALLS


def test_external_face_step_makes_only_the_calls_that_hold_a_rule():
    pipe = Pipeline(profile(), external={0: (False, False), 33: (False, False)})
    pipe.step(semantic_frame(t=0.0))
    assert python_calls(pipe.step, semantic_frame(t=0.033)) == EXTERNAL_FACE_STEP_CALLS


def test_faceless_step_makes_only_the_calls_that_hold_a_rule():
    pipe = Pipeline(profile())
    pipe.step(semantic_frame(t=0.0))  # a monitored sample, so PERCLOS is defined
    faceless = LandmarkFrame(t=0.033, scheme=SEMANTIC, points=(), face_present=False)
    assert python_calls(pipe.step, faceless) == FACELESS_STEP_CALLS


def test_metric_sample_makes_only_the_calls_that_hold_a_rule():
    assert python_calls(metric_sample, semantic_frame(t=0.0)) == METRIC_SAMPLE_CALLS


def test_call_names_cover_the_hops_a_test_must_catch():
    names = set(code_names().values())
    assert {"metrics.compute_ear", "landmarks.SemanticPoints.__new__",
            "pipeline.FrameRecord.__new__"} <= names


SCHEME_MAPS = {m.scheme: m for m in (SEMANTIC_MAP, DLIB68_MAP, MESH468_MAP)}

# full-range finite coordinates, plus values that make corners coincide or distances overflow
coordinate = st.one_of(
    st.sampled_from([0.0, 1.0, -1e308, 1e308]),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)
semantic_points = st.lists(st.tuples(coordinate, coordinate), min_size=19, max_size=19)
OVERFLOWING_EYE = [(0.0, 0.0), (1.0, -1.7e308), (2.0, -1.0), (3.0, 0.0), (2.0, 1.0), (1.0, 1.7e308)]


def outcome(compute):
    """A metric's exact bits, or the text of the GeometryError it raises."""
    try:
        return compute().hex()
    except GeometryError as exc:
        return str(exc)


@pytest.mark.parametrize("scheme", list(SCHEME_MAPS))
@given(points=semantic_points, seed=st.integers(min_value=0))
@example(points=[(0.0, 0.0)] * 19, seed=0)  # every eye degenerate
@example(points=OVERFLOWING_EYE + [(float(i), 0.0) for i in range(13)], seed=0)
def test_hot_path_builds_the_same_values_as_the_reference_forms(scheme, points, seed):
    filler = random.Random(seed).uniform
    embedded = [(filler(-1e3, 1e3), filler(-1e3, 1e3)) for _ in range(POINT_COUNTS[scheme])]
    for i, p in zip(semantic_roles(SCHEME_MAPS[scheme]), points):
        embedded[i] = p
    frame = LandmarkFrame(t=0.5, scheme=scheme, points=tuple(embedded), face_present=True)

    sp = to_semantic(frame)
    assert type(sp) is SemanticPoints
    assert sp == SemanticPoints(*sp) and hash(sp) == hash(SemanticPoints(*sp))
    assert outcome(lambda: compute_binocular_ear(sp)) == outcome(
        lambda: compute_ear(sp.left_eye) / 2.0 + compute_ear(sp.right_eye) / 2.0
    )

    faceless = LandmarkFrame(t=1.0, scheme=scheme, points=(), face_present=False)
    pipe = Pipeline(profile())
    try:
        records = [pipe.step(frame)[0]]
    except GeometryError as exc:  # the step refuses a frame as metric_sample does
        with pytest.raises(GeometryError, match=f"^{re.escape(str(exc))}$"):
            metric_sample(frame)
        records = []
    records.append(pipe.step(faceless)[0])
    for record in records:
        assert type(record) is FrameRecord
        assert record == FrameRecord(*record) and hash(record) == hash(FrameRecord(*record))
