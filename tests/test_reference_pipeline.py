"""run_session against the plain reference implementation in reference_pipeline.py."""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drowsy.calibration import generalized_profile
from drowsy.errors import DrowsyError
from drowsy.landmarks import POINT_COUNTS, LandmarkFrame
from drowsy.pipeline import PipelineConfig, run_session

from conftest import semantic_frame, semantic_roles
from reference_pipeline import KINDS, SCHEME_MAPS, reference_session

millis = st.integers(min_value=0, max_value=3000).map(lambda m: m / 1000.0)
seconds = st.one_of(st.just(0.0), millis, st.floats(min_value=0.0, max_value=3.0))

configs = st.builds(
    PipelineConfig,
    buffer_capacity=st.integers(min_value=1, max_value=30),
    sustain_eyes_s=seconds,
    sustain_mouth_s=seconds,
    sustain_head_s=seconds,
    sustain_presence_s=seconds,
    sustain_perclos_s=seconds,
    rearm_frames=st.integers(min_value=0, max_value=20),
    # short, so that samples leave the window; 1 ms steps put samples on its edge
    perclos_window_s=st.integers(min_value=1, max_value=2000).map(lambda m: m / 1000.0),
    perclos_limit=st.one_of(
        st.sampled_from([0.0, 25.0, 50.0, 100.0]), st.floats(min_value=0.0, max_value=100.0)
    ),
)

# (EAR threshold, MAR threshold, head-drop limit)
thresholds = st.tuples(
    st.floats(min_value=0.05, max_value=0.45), st.floats(min_value=0.2, max_value=0.9),
    st.floats(min_value=0.3, max_value=1.0),
)

# (face present?, frames, the same face on every frame?, the same gap between frames?)
segments = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=20), st.booleans(), st.booleans()),
    min_size=1,
    max_size=6,
)


def gap_ms(rng):
    """A jittered frame interval, mostly near 33 ms, sometimes short or a long gap."""
    roll = rng.random()
    if roll < 0.1:
        return rng.randint(500, 4000)
    if roll < 0.25:
        return rng.randint(1, 20)
    return rng.randint(25, 45)


def build_session(scheme, segs, seed, external_states):
    """Frames with irregular, sub-millisecond jittered times; external states keyed by ms."""
    rng = random.Random(seed)
    filler = [(rng.uniform(-500, 500), rng.uniform(-500, 500)) for _ in range(POINT_COUNTS[scheme])]
    roles = semantic_roles(SCHEME_MAPS[scheme])
    frames, external = [], {}
    t_ms = rng.randint(1, 1000)
    for face, count, hold, regular in segs:
        pose = dict(
            ear=rng.uniform(0.05, 0.45), mar=rng.uniform(0.2, 0.9),
            head_drop=rng.uniform(0.3, 1.0), inter_ocular=rng.uniform(50.0, 300.0),
        )
        step = gap_ms(rng)
        states = (rng.random() < 0.5, rng.random() < 0.5)
        points = None
        for _ in range(count):
            t = (t_ms + rng.uniform(-0.4, 0.4)) / 1000.0  # keyed to t_ms
            if not face:
                frames.append(LandmarkFrame(t=t, scheme=scheme, points=(), face_present=False))
            else:
                if points is None or not hold:
                    sem = [(x + rng.gauss(0, 0.3), y + rng.gauss(0, 0.3))
                           for x, y in semantic_frame(**pose).points]
                    points = list(filler)
                    for i, p in zip(roles, sem):
                        points[i] = p
                    points = tuple(points)
                frames.append(LandmarkFrame(t=t, scheme=scheme, points=points, face_present=True))
                external[t_ms] = states
                states = (states[0] != (rng.random() < 0.1), states[1] != (rng.random() < 0.1))
            t_ms += step if regular else gap_ms(rng)
    return frames, external if external_states else None


def bits(value):
    """A value's exact form: floats by their bits, everything else with its type."""
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def exact(rows):
    return [tuple(bits(v) for v in row) for row in rows]


@pytest.mark.parametrize("scheme", list(SCHEME_MAPS))
@settings(max_examples=60, deadline=None)
@given(
    segs=segments,
    seed=st.integers(min_value=0),
    config=configs,
    external_states=st.booleans(),
    # each threshold, and the PERCLOS limit, is a drawn value or the value one
    # frame compares against it, so that the frame meets it exactly
    ties=st.tuples(*[st.one_of(st.none(), st.integers(min_value=0))] * 4),
    drawn=thresholds,
)
def test_run_session_matches_the_reference(
    scheme, segs, seed, config, external_states, ties, drawn
):
    frames, external = build_session(scheme, segs, seed, external_states)
    # smoothed values do not depend on the thresholds, nor PERCLOS on its limit
    records, _ = reference_session(frames, generalized_profile(), config, external)
    smoothed = [r[2:5] for r in records if r[1]]
    profile = generalized_profile(*[
        d if tie is None or not smoothed else smoothed[tie % len(smoothed)][i]
        for i, (tie, d) in enumerate(zip(ties, drawn))
    ])
    records, _ = reference_session(frames, profile, config, external)
    percloses = [r[8] for r in records if r[8] is not None]
    if ties[3] is not None and percloses:
        config = dataclasses.replace(config, perclos_limit=percloses[ties[3] % len(percloses)])

    result = run_session(frames, profile, config, external)
    records, events = reference_session(frames, profile, config, external)

    assert exact(result.records) == exact(records)
    assert exact(dataclasses.astuple(ev) for ev in result.events) == exact(events)
    summary = result.summary
    assert summary.frames == len(frames)
    assert summary.faceless_frames == sum(not f.face_present for f in frames)
    assert summary.alerts == {kind: sum(ev[0] == kind for ev in events) for kind in KINDS}
    assert bits(summary.final_perclos) == bits(records[-1][-1])


@pytest.mark.parametrize("scheme", list(SCHEME_MAPS))
@settings(max_examples=30, deadline=None)
@given(
    segs=segments,
    seed=st.integers(min_value=0),
    config=configs,
    external_states=st.booleans(),
    drawn=thresholds,
)
def test_alarm_free_run_matches_the_reference_without_its_alarms(
    scheme, segs, seed, config, external_states, drawn
):
    frames, external = build_session(scheme, segs, seed, external_states)
    profile = generalized_profile(*drawn)
    fired = []

    result = run_session(frames, profile, config, external, on_event=fired.append, alarms=False)
    records, _ = reference_session(frames, profile, config, external)

    assert exact(result.records) == exact(r[:-1] + (None,) for r in records)
    assert result.events == fired == []
    summary = result.summary
    assert summary.frames == len(frames)
    assert summary.faceless_frames == sum(not f.face_present for f in frames)
    assert summary.alerts == dict.fromkeys(KINDS, 0)
    assert summary.final_perclos is None


def faulty_face(scheme, t, fault):
    """A face at t under scheme whose metrics a step refuses, alone or with its neighbour.

    "eye", "mouth" and "head" make the left eye's, the mouth's or the outer
    eye corners coincide. "overflow" gives a finite MAR of 1.6e308: two of
    them in one smoothing buffer sum past the largest float.
    """
    sem = list(semantic_frame().points)
    if fault == "eye":
        sem[3] = sem[0]
    elif fault == "mouth":
        sem[15] = sem[12]
    elif fault == "head":
        sem[9] = sem[0]
    else:
        x0, y0 = sem[12]
        sem[12:18] = [(x0, y0), (x0 + 0.1, -4e307), (x0 + 0.2, -4e307),
                      (x0 + 0.5, y0), (x0 + 0.2, 4e307), (x0 + 0.1, 4e307)]
    points = [(float(i), float(-i)) for i in range(POINT_COUNTS[scheme])]
    for i, p in zip(semantic_roles(SCHEME_MAPS[scheme]), sem):
        points[i] = p
    return LandmarkFrame(t=t, scheme=scheme, points=tuple(points), face_present=True)


def with_faults(frames, external, faults):
    """The session with each (position, fault) applied, in order, to copies of its inputs.

    "order" repeats a frame's time on a faceless frame right after it;
    "missing" drops a frame's external state; the others replace the frame
    with faulty_face, and "overflow" replaces the next one too.
    """
    frames = list(frames)
    external = None if external is None else dict(external)
    for position, fault in faults:
        i = position % len(frames)
        frame = frames[i]
        if fault == "order":
            frames.insert(i + 1, LandmarkFrame(frame.t, frame.scheme, (), False))
        elif fault == "missing":
            if external is not None:
                external.pop(round(frame.t * 1000.0), None)
        else:
            for j in range(i, min(i + (2 if fault == "overflow" else 1), len(frames))):
                frames[j] = faulty_face(frame.scheme, frames[j].t, fault)
    return frames, external


def outcome(frames, profile, config, external, alarms):
    """The records a run hands on, then the type and text of the error that ends it, if any."""
    records = []
    try:
        run_session(frames, profile, config, external, on_record=records.append,
                    collect=False, alarms=alarms)
    except DrowsyError as exc:
        return records, type(exc), str(exc)
    return records, None, None


@pytest.mark.parametrize("scheme", list(SCHEME_MAPS))
@settings(max_examples=30, deadline=None)
@given(
    segs=segments,
    seed=st.integers(min_value=0),
    config=configs,
    external_states=st.booleans(),
    faults=st.lists(
        st.tuples(
            st.integers(min_value=0),
            st.sampled_from(["eye", "mouth", "head", "overflow", "missing", "order"]),
        ),
        min_size=1,
        max_size=3,
    ),
)
# a faceless frame's time repeated: the alarm-free step must commit faceless frames too
@example(
    segs=[(True, 2, True, True), (False, 2, True, True), (True, 2, True, True)],
    seed=0, config=PipelineConfig(), external_states=True, faults=[(3, "order")],
)
def test_alarm_free_run_refuses_the_frame_the_full_run_refuses(
    scheme, segs, seed, config, external_states, faults
):
    frames, external = build_session(scheme, segs, seed, external_states)
    frames, external = with_faults(frames, external, faults)
    profile = generalized_profile()

    full_records, *full_error = outcome(frames, profile, config, external, alarms=True)
    free_records, *free_error = outcome(frames, profile, config, external, alarms=False)

    assert free_error == full_error
    assert exact(free_records) == exact(r._replace(perclos=None) for r in full_records)
