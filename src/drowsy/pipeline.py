"""Streaming inference core: smoothing, decisions, alarm channels, alerts.

Raw metrics are averaged over a trailing frame buffer before any threshold
comparison, so blinks and speech do not flip decisions. Each alarm channel
runs an independent debounced state machine (ChannelState) and is named by
the alert kind it emits (ALL_EVENT_KINDS, in per-frame evaluation order).
A channel is normal until its condition appears, then pending from that
onset (onset_ms); a condition that holds continuously for the channel's
sustain duration emits one alert and leaves the channel alerting
(alerted), and the channel is normal again only after the condition has
been absent for a fixed number of frames. Threshold comparisons are
strict, so a value exactly at its threshold never triggers.

Faceless frames freeze the eye/mouth/head channels (buffers keep their
contents, state machines do not advance) and feed only the presence
channel; a detector dropout therefore cannot fabricate metric transitions.
Wall-clock time keeps running while a channel is frozen, so a condition
that is pending when the face vanishes and still present when it returns
counts the gap toward its sustain time.

A pipeline holds decision state only; run_session derives the session
totals. Serialize step() calls; separate instances are fully independent.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import asdict, dataclass
from math import fsum
from typing import Callable, Iterable, Mapping, NamedTuple

from .calibration import CalibrationProfile, require_finite
from .errors import ConfigError, GeometryError, MissingLabelError, NoDataError
from .errors import PerclosUndefinedError, StreamOrderError
from .landmarks import MAX_SECONDS, LandmarkFrame, quantize_ms, to_semantic
from .metrics import PerclosWindow, compute_binocular_ear, compute_head_drop, compute_mar

#: The alert kind of each alarm channel, in the fixed per-frame evaluation order.
ALL_EVENT_KINDS = ("eyes_closed", "yawning", "head_down", "driver_missing", "perclos_high")


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    buffer_capacity: int = 15
    sustain_eyes_s: float = 1.0
    sustain_mouth_s: float = 1.5
    sustain_head_s: float = 2.0
    sustain_presence_s: float = 3.0
    sustain_perclos_s: float = 0.0
    rearm_frames: int = 15
    perclos_window_s: float = 30.0
    perclos_limit: float = 20.0

    def __post_init__(self):
        require_finite(asdict(self))
        if not 1 <= self.buffer_capacity <= sys.maxsize:  # the largest deque maxlen
            raise ConfigError(f"buffer capacity must be from 1 to {sys.maxsize}")
        sustains = self.sustains().values()
        if min(sustains) < 0.0:
            raise ConfigError("sustain durations cannot be negative")
        if max(sustains) > MAX_SECONDS:
            raise ConfigError(f"sustain durations must be at most {MAX_SECONDS!r} s")
        if self.rearm_frames < 0:
            raise ConfigError("re-arm frame count cannot be negative")
        try:
            PerclosWindow(self.perclos_window_s)  # the window owns its duration rule
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0.0 <= self.perclos_limit <= 100.0:
            raise ConfigError("PERCLOS limit is a percentage")

    def sustains(self) -> dict[str, float]:
        """Each alert kind's sustain duration in seconds, in ALL_EVENT_KINDS order."""
        return dict(zip(ALL_EVENT_KINDS, (
            self.sustain_eyes_s,
            self.sustain_mouth_s,
            self.sustain_head_s,
            self.sustain_presence_s,
            self.sustain_perclos_s,
        )))


class SmoothingBuffer:
    """Trailing buffer of raw values; smoothed() is the mean of what it holds.

    Holds at most `capacity` values, evicting oldest first; with fewer values
    than capacity the mean uses exactly the values present. `capacity` must
    be at least 1, which PipelineConfig checks.
    """

    __slots__ = ("_values",)

    def __init__(self, capacity: int):
        self._values: deque[float] = deque(maxlen=capacity)

    def push(self, value: float) -> None:
        self._values.append(value)

    def smoothed(self) -> float:
        values = self._values
        if not values:
            raise NoDataError("smoothing buffer is empty")
        # exactly-rounded sum: a constant buffer averages to the constant
        try:
            return fsum(values) / len(values)
        except OverflowError:
            raise GeometryError("smoothed mean overflows") from None


@dataclass(slots=True)
class ChannelState:
    """Debounce state machine for one alarm channel.

    Normal while onset_ms is None. A frame with the condition starts an
    episode: onset_ms holds its time and the channel is pending. A pending
    episode that ends before its sustain duration falls back to normal
    without alerting; one that lasts it fires the episode's one alert and
    the channel is alerting (alerted). An alerting channel returns to
    normal after rearm_frames consecutive frames without the condition;
    rearm_progress counts them and is 0 whenever the channel is not
    alerting.
    """

    sustain_ms: int
    rearm_frames: int
    onset_ms: int | None = None
    alerted: bool = False
    rearm_progress: int = 0

    def advance(self, condition: bool, t_ms: int) -> bool:
        """Feed one frame's condition; True exactly when an alert fires now."""
        if self.alerted:
            if condition:
                self.rearm_progress = 0
                return False
            self.rearm_progress += 1
            if self.rearm_progress >= self.rearm_frames:
                self.onset_ms = None
                self.alerted = False
                self.rearm_progress = 0
            return False
        if not condition:
            self.onset_ms = None
            return False
        if self.onset_ms is None:
            self.onset_ms = t_ms
        # checked on the onset frame too, so a zero-sustain channel alerts at once
        self.alerted = t_ms - self.onset_ms >= self.sustain_ms
        return self.alerted


@dataclass(frozen=True, slots=True)
class AlertEvent:
    """One debounced warning with the evidence present at emission."""

    kind: str
    onset_t: float
    emitted_t: float
    value: float
    threshold: float


def threshold_states(profile: CalibrationProfile, ear: float, mar: float) -> tuple[bool, bool]:
    """Threshold decision on smoothed metrics: (eye closed?, yawning?).

    Comparisons are strict, so a value exactly at its threshold is neither.
    """
    return ear < profile.ear_threshold, mar > profile.mar_threshold


def external_state(
    states: Mapping[int, tuple[bool, bool]], t_ms: int, t: float
) -> tuple[bool, bool]:
    """An external classifier's (eye closed?, yawning?) for the frame at t.

    States are keyed by millisecond timestamp; t_ms is the frame's int
    key, quantize_ms(t), and t names the frame in the MissingLabelError.
    Every face-present frame must have one.
    """
    try:
        return states[t_ms]
    except KeyError:
        raise MissingLabelError(t) from None


class FrameRecord(NamedTuple):
    """Per-frame pipeline output: smoothed metrics plus channel decisions.

    A named tuple, built once per frame: immutable, compared and hashed by
    its fields, and several times cheaper to construct than a frozen
    dataclass, whose __init__ sets each field through object.__setattr__.
    Pipeline.step builds it with tuple.__new__ from the nine fields in
    order, which skips the Python-level __new__ the named tuple defines;
    the result equals FrameRecord(*fields).
    """

    t: float
    face_present: bool
    ear: float | None
    mar: float | None
    head_drop: float | None
    eye_closed: bool | None
    mouth_yawn: bool | None
    head_down: bool | None
    perclos: float | None


class Pipeline:
    """Single-session streaming state machine; feed frames through step().

    It holds only what its decisions read (the buffers, the PERCLOS window,
    the channels, the last timestamp), no totals. With `external` states,
    eye/mouth decisions come from external_state() instead of
    threshold_states(); all other logic is the same either way.
    """

    def __init__(
        self,
        profile: CalibrationProfile,
        config: PipelineConfig | None = None,
        external: Mapping[int, tuple[bool, bool]] | None = None,
    ):
        self.profile = profile
        self.config = config or PipelineConfig()
        self.external = external
        cap = self.config.buffer_capacity
        self._ear_buf = SmoothingBuffer(cap)
        self._mar_buf = SmoothingBuffer(cap)
        self._head_buf = SmoothingBuffer(cap)
        self._window = PerclosWindow(self.config.perclos_window_s)

        sustains = self.config.sustains()
        rearm = self.config.rearm_frames
        self._channels = {kind: ChannelState(quantize_ms(s), rearm) for kind, s in sustains.items()}
        self._last_t_ms: int | None = None

    def _emit(self, kind: str, t_ms: int, value: float, threshold: float) -> AlertEvent:
        onset_t = self._channels[kind].onset_ms / 1000.0
        return AlertEvent(kind, onset_t, t_ms / 1000.0, value, threshold)

    def step(self, frame: LandmarkFrame) -> tuple[FrameRecord, tuple[AlertEvent, ...]]:
        """Feed one frame; returns its record and the alerts it fired.

        Refusals first: the order check, then a face frame's raw metrics
        and, with external states, its state lookup, all before any state
        changes, so a refused frame leaves the pipeline as it was. Then the
        commit; then a face frame smooths, decides and advances the eye,
        mouth and head channels (a faceless frame leaves them frozen); then
        every frame feeds the PERCLOS window and the presence and PERCLOS
        channels. A smoothing mean that overflows is refused after the
        commit, with the raw values already buffered; a frame that also
        lacks its external state reports the missing state.

        The frame's int millisecond key, quantize_ms(frame.t), is taken once:
        the order check, the external state lookup, the PERCLOS window and
        every channel run on it.
        """
        t = frame.t
        t_ms = quantize_ms(t)
        if self._last_t_ms is not None and t_ms <= self._last_t_ms:
            raise StreamOrderError(
                f"frame at t={t:.3f} does not advance past t={self._last_t_ms / 1000.0:.3f}"
            )
        face = frame.face_present
        events: list[AlertEvent] = []
        if face:
            try:
                sp = to_semantic(frame)
                ear = compute_binocular_ear(sp)
                mar = compute_mar(sp.mouth)
                head = compute_head_drop(sp)
                if self.external is not None:
                    eye_closed, mouth_yawn = external_state(self.external, t_ms, t)
                self._last_t_ms = t_ms
                self._ear_buf.push(ear)
                self._mar_buf.push(mar)
                self._head_buf.push(head)
                s_ear = self._ear_buf.smoothed()
                s_mar = self._mar_buf.smoothed()
                s_head = self._head_buf.smoothed()
            except GeometryError as exc:
                raise GeometryError(f"frame at t={t:.3f}: {exc}") from None
            profile = self.profile
            if self.external is None:
                eye_closed, mouth_yawn = threshold_states(profile, s_ear, s_mar)
            head_down = s_head > profile.head_drop_limit
            if self._channels["eyes_closed"].advance(eye_closed, t_ms):
                events.append(self._emit("eyes_closed", t_ms, s_ear, profile.ear_threshold))
            if self._channels["yawning"].advance(mouth_yawn, t_ms):
                events.append(self._emit("yawning", t_ms, s_mar, profile.mar_threshold))
            if self._channels["head_down"].advance(head_down, t_ms):
                events.append(self._emit("head_down", t_ms, s_head, profile.head_drop_limit))
        else:
            self._last_t_ms = t_ms
            s_ear = s_mar = s_head = None
            eye_closed = mouth_yawn = head_down = None

        self._window.append(t_ms, face and eye_closed, face)
        try:
            perclos_value = self._window.perclos()
        except PerclosUndefinedError:
            perclos_value = None

        presence = self._channels["driver_missing"]
        if presence.advance(not face, t_ms):
            absent_s = (t_ms - presence.onset_ms) / 1000.0
            # the alert reports its sustain time as its threshold
            events.append(
                self._emit("driver_missing", t_ms, absent_s, self.config.sustain_presence_s)
            )

        perclos_high = perclos_value is not None and perclos_value > self.config.perclos_limit
        if self._channels["perclos_high"].advance(perclos_high, t_ms):
            events.append(
                self._emit("perclos_high", t_ms, perclos_value, self.config.perclos_limit)
            )

        record = tuple.__new__(
            FrameRecord,
            (t, face, s_ear, s_mar, s_head, eye_closed, mouth_yawn, head_down, perclos_value),
        )
        return record, tuple(events)


@dataclass(frozen=True, slots=True)
class SessionSummary:
    frames: int
    faceless_frames: int
    alerts: dict[str, int]
    final_perclos: float | None


@dataclass(frozen=True, slots=True)
class SessionResult:
    events: list[AlertEvent]
    records: list[FrameRecord]
    summary: SessionSummary


def run_session(
    frames: Iterable[LandmarkFrame],
    profile: CalibrationProfile,
    config: PipelineConfig | None = None,
    external: Mapping[int, tuple[bool, bool]] | None = None,
    on_event: Callable[[AlertEvent], None] | None = None,
    on_record: Callable[[FrameRecord], None] | None = None,
    collect: bool = True,
) -> SessionResult:
    """Fold step() over a frame stream; the summary counts what step() returns.

    That is the frames stepped, the records without a face and the events
    per kind, in ALL_EVENT_KINDS order; a frame step() refuses ends the run
    uncounted. Deterministic: equal inputs give equal records, events and
    summary. The summary holds no timing; a caller that wants throughput
    times the call itself. With collect=False nothing is accumulated (pass
    sinks instead), so memory stays bounded by the smoothing buffers and
    the PERCLOS window regardless of stream length.
    """
    pipe = Pipeline(profile, config, external)
    events: list[AlertEvent] = []
    records: list[FrameRecord] = []
    alerts = dict.fromkeys(ALL_EVENT_KINDS, 0)
    stepped = faceless = 0
    record = None
    for stepped, frame in enumerate(frames, 1):
        record, new_events = pipe.step(frame)
        if not record.face_present:
            faceless += 1
        if on_record is not None:
            on_record(record)
        if collect:
            records.append(record)
        for ev in new_events:
            alerts[ev.kind] += 1
            if on_event is not None:
                on_event(ev)
            if collect:
                events.append(ev)
    summary = SessionSummary(
        frames=stepped,
        faceless_frames=faceless,
        alerts=alerts,
        # the PERCLOS window is not touched after the last record is built
        final_perclos=None if record is None else record.perclos,
    )
    return SessionResult(events=events, records=records, summary=summary)
