import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drowsy.calibration import generalized_profile
from drowsy.errors import ConfigError, MissingLabelError, NoDataError, StreamOrderError
from drowsy.landmarks import LandmarkFrame, SEMANTIC, to_semantic
from drowsy.metrics import compute_binocular_ear, compute_head_drop, compute_mar
from drowsy.pipeline import (
    ChannelState,
    Pipeline,
    PipelineConfig,
    SmoothingBuffer,
    run_session,
)

from conftest import semantic_frame

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
        assert len(buf) == 2

    def test_eviction_oldest_first(self):
        buf = SmoothingBuffer(15)
        values = [random.Random(2).uniform(0, 1) for _ in range(20)]
        for v in values:
            buf.push(v)
        tail = values[-15:]
        assert buf.smoothed() == pytest.approx(sum(tail) / 15.0, abs=1e-12)
        assert len(buf) == 15

    def test_empty_buffer_error(self):
        with pytest.raises(NoDataError):
            SmoothingBuffer(3).smoothed()


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

    def test_sinks_without_collection(self):
        seen_records, seen_events = [], []
        ears = [0.32] * 600 + [0.0] * 60 + [0.32] * 240
        result = run_session(
            metric_frames(ears),
            profile(),
            on_event=seen_events.append,
            on_record=seen_records.append,
            collect=False,
        )
        assert result.events == [] and result.records == []
        assert len(seen_records) == 900
        assert [e.kind for e in seen_events] == ["eyes_closed"]
        assert result.summary.alerts["eyes_closed"] == 1

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


def test_pipeline_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(buffer_capacity=0)
    with pytest.raises(ConfigError):
        PipelineConfig(sustain_eyes_s=-1.0)
    with pytest.raises(ConfigError):
        PipelineConfig(perclos_limit=150.0)
    with pytest.raises(ConfigError):
        PipelineConfig(rearm_frames=-1)
