"""Streaming inference core: smoothing, decisions, alarm channels, alerts.

Raw metrics are averaged over a trailing frame buffer before any threshold
comparison, so blinks and speech do not flip decisions. Each alarm channel
(eyes, mouth, head, presence, perclos) runs an independent debounced state
machine: a condition must hold continuously for the channel's sustain
duration before one alert is emitted, and the channel re-arms only after
the condition has been absent for a fixed number of frames. Threshold
comparisons are strict, so a value exactly at its threshold never triggers.

Faceless frames freeze the eye/mouth/head channels (buffers keep their
contents, state machines do not advance) and feed only the presence
channel; a detector dropout therefore cannot fabricate metric transitions.
Wall-clock time keeps running while a channel is frozen, so a condition
that is pending when the face vanishes and still present when it returns
counts the gap toward its sustain time.

A pipeline instance is single-writer mutable state: serialize step() calls.
Separate instances are fully independent.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass
from math import fsum
from typing import Callable, Iterable, Mapping, NamedTuple

from .calibration import CalibrationProfile, require_finite
from .errors import ConfigError, GeometryError, MissingLabelError, NoDataError
from .errors import PerclosUndefinedError, StreamOrderError
from .landmarks import LandmarkFrame, quantize_ms, to_semantic
from .metrics import PerclosWindow, compute_binocular_ear, compute_head_drop, compute_mar

CHANNEL_EYES = "eyes"
CHANNEL_MOUTH = "mouth"
CHANNEL_HEAD = "head"
CHANNEL_PRESENCE = "presence"
CHANNEL_PERCLOS = "perclos"

#: Alert kind emitted per channel, in the fixed per-frame evaluation order.
EVENT_KINDS = {
    CHANNEL_EYES: "eyes_closed",
    CHANNEL_MOUTH: "yawning",
    CHANNEL_HEAD: "head_down",
    CHANNEL_PRESENCE: "driver_missing",
    CHANNEL_PERCLOS: "perclos_high",
}
ALL_EVENT_KINDS = tuple(EVENT_KINDS.values())


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
        if self.buffer_capacity < 1:
            raise ConfigError("buffer capacity must be at least 1")
        sustains = (
            self.sustain_eyes_s,
            self.sustain_mouth_s,
            self.sustain_head_s,
            self.sustain_presence_s,
            self.sustain_perclos_s,
        )
        if min(sustains) < 0.0:
            raise ConfigError("sustain durations cannot be negative")
        if self.rearm_frames < 0:
            raise ConfigError("re-arm frame count cannot be negative")
        if self.perclos_window_s <= 0.0:
            raise ConfigError("PERCLOS window must be positive")
        if not 0.0 <= self.perclos_limit <= 100.0:
            raise ConfigError("PERCLOS limit is a percentage")


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

    def __len__(self) -> int:
        return len(self._values)


PHASE_NORMAL = "normal"
PHASE_PENDING = "pending"
PHASE_ALERTING = "alerting"


@dataclass(slots=True)
class ChannelState:
    """Debounce state machine for one alarm channel.

    Phases cycle normal -> pending -> alerting -> normal; a pending episode
    that ends before its sustain duration falls back to normal without
    alerting. Exactly one alert is emitted per continuous episode.
    """

    sustain_ms: int
    rearm_frames: int
    phase: str = PHASE_NORMAL
    condition_since_ms: int | None = None
    rearm_progress: int = 0

    def advance(self, condition: bool, t_ms: int) -> bool:
        """Feed one frame's condition; True exactly when an alert fires now."""
        if self.phase == PHASE_NORMAL:
            if not condition:
                return False
            self.phase = PHASE_PENDING
            self.condition_since_ms = t_ms
            # fall through so a zero-sustain channel alerts immediately
        if self.phase == PHASE_PENDING:
            if not condition:
                self.phase = PHASE_NORMAL
                self.condition_since_ms = None
                return False
            if t_ms - self.condition_since_ms >= self.sustain_ms:
                self.phase = PHASE_ALERTING
                self.rearm_progress = 0
                return True
            return False
        # alerting: stay quiet until the condition has been gone long enough
        if condition:
            self.rearm_progress = 0
            return False
        self.rearm_progress += 1
        if self.rearm_progress >= self.rearm_frames:
            self.phase = PHASE_NORMAL
            self.condition_since_ms = None
            self.rearm_progress = 0
        return False


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


def external_state(states: Mapping[int, tuple[bool, bool]], t: float) -> tuple[bool, bool]:
    """An external classifier's (eye closed?, yawning?) for the frame at t.

    States are keyed by millisecond timestamp; every face-present frame
    must have one.
    """
    try:
        return states[quantize_ms(t)]
    except KeyError:
        raise MissingLabelError(t) from None


class FrameRecord(NamedTuple):
    """Per-frame pipeline output: smoothed metrics plus channel decisions.

    A named tuple, built once per frame: immutable, compared and hashed by
    its fields, and several times cheaper to construct than a frozen
    dataclass, whose __init__ sets each field through object.__setattr__.
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

    With `external` states, eye/mouth decisions come from external_state()
    instead of threshold_states(); all other logic is the same either way.
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

        config = self.config
        rearm = config.rearm_frames
        sustains = {
            CHANNEL_EYES: config.sustain_eyes_s,
            CHANNEL_MOUTH: config.sustain_mouth_s,
            CHANNEL_HEAD: config.sustain_head_s,
            CHANNEL_PRESENCE: config.sustain_presence_s,
            CHANNEL_PERCLOS: config.sustain_perclos_s,
        }
        self._channels = {
            channel: ChannelState(quantize_ms(sustain_s), rearm)
            for channel, sustain_s in sustains.items()
        }
        self._last_t_ms: int | None = None
        self.frames = 0
        self.faceless_frames = 0
        self.alert_counts = {kind: 0 for kind in ALL_EVENT_KINDS}

    def _emit(self, channel: str, t_ms: int, value: float, threshold: float) -> AlertEvent:
        state = self._channels[channel]
        kind = EVENT_KINDS[channel]
        self.alert_counts[kind] += 1
        return AlertEvent(
            kind=kind,
            onset_t=state.condition_since_ms / 1000.0,
            emitted_t=t_ms / 1000.0,
            value=value,
            threshold=threshold,
        )

    def step(self, frame: LandmarkFrame) -> tuple[FrameRecord, tuple[AlertEvent, ...]]:
        t = frame.t
        t_ms = quantize_ms(t)
        if self._last_t_ms is not None and t_ms <= self._last_t_ms:
            raise StreamOrderError(
                f"frame at t={t:.3f} does not advance past t={self._last_t_ms / 1000.0:.3f}"
            )
        self._last_t_ms = t_ms
        self.frames += 1
        profile = self.profile
        events: list[AlertEvent] = []

        face = frame.face_present
        if face:
            sp = to_semantic(frame)
            try:
                self._ear_buf.push(compute_binocular_ear(sp))
                self._mar_buf.push(compute_mar(sp.mouth))
                self._head_buf.push(compute_head_drop(sp))
                s_ear = self._ear_buf.smoothed()
                s_mar = self._mar_buf.smoothed()
                s_head = self._head_buf.smoothed()
            except GeometryError as exc:
                raise GeometryError(f"frame at t={t:.3f}: {exc}") from None
            if self.external is None:
                eye_closed, mouth_yawn = threshold_states(profile, s_ear, s_mar)
            else:
                eye_closed, mouth_yawn = external_state(self.external, t)
            head_down = s_head > profile.head_drop_limit
        else:
            self.faceless_frames += 1
            s_ear = s_mar = s_head = None
            eye_closed = mouth_yawn = head_down = None

        self._window.append(t, closed=bool(eye_closed) if face else False, monitored=face)
        try:
            perclos_value = self._window.perclos()
        except PerclosUndefinedError:
            perclos_value = None

        if face:
            if self._channels[CHANNEL_EYES].advance(eye_closed, t_ms):
                events.append(self._emit(CHANNEL_EYES, t_ms, s_ear, profile.ear_threshold))
            if self._channels[CHANNEL_MOUTH].advance(mouth_yawn, t_ms):
                events.append(self._emit(CHANNEL_MOUTH, t_ms, s_mar, profile.mar_threshold))
            if self._channels[CHANNEL_HEAD].advance(head_down, t_ms):
                events.append(self._emit(CHANNEL_HEAD, t_ms, s_head, profile.head_drop_limit))

        presence = self._channels[CHANNEL_PRESENCE]
        if presence.advance(not face, t_ms):
            absent_s = (t_ms - presence.condition_since_ms) / 1000.0
            events.append(
                self._emit(CHANNEL_PRESENCE, t_ms, absent_s, self.config.sustain_presence_s)
            )

        perclos_high = perclos_value is not None and perclos_value > self.config.perclos_limit
        if self._channels[CHANNEL_PERCLOS].advance(perclos_high, t_ms):
            events.append(
                self._emit(CHANNEL_PERCLOS, t_ms, perclos_value, self.config.perclos_limit)
            )

        record = FrameRecord(
            t, face, s_ear, s_mar, s_head, eye_closed, mouth_yawn, head_down, perclos_value
        )
        return record, tuple(events)

    def final_perclos(self) -> float | None:
        try:
            return self._window.perclos()
        except PerclosUndefinedError:
            return None


@dataclass(frozen=True, slots=True)
class SessionSummary:
    frames: int
    faceless_frames: int
    alerts: dict[str, int]
    final_perclos: float | None
    throughput_fps: float


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
    """Fold step() over a frame stream.

    Deterministic for a given stream and configuration. With collect=False
    nothing is accumulated (pass sinks instead), so memory stays bounded by
    the smoothing buffers and the PERCLOS window regardless of stream length.
    """
    pipe = Pipeline(profile, config, external)
    events: list[AlertEvent] = []
    records: list[FrameRecord] = []
    start = time.perf_counter()
    for frame in frames:
        record, new_events = pipe.step(frame)
        if on_record is not None:
            on_record(record)
        if collect:
            records.append(record)
        for ev in new_events:
            if on_event is not None:
                on_event(ev)
            if collect:
                events.append(ev)
    elapsed = time.perf_counter() - start
    summary = SessionSummary(
        frames=pipe.frames,
        faceless_frames=pipe.faceless_frames,
        alerts=dict(pipe.alert_counts),
        final_perclos=pipe.final_perclos(),
        throughput_fps=pipe.frames / elapsed if elapsed > 0 else 0.0,
    )
    return SessionResult(events=events, records=records, summary=summary)
