"""Ground-truth-labeled synthetic landmark sessions from event scripts.

Frames are emitted in the semantic scheme. Geometry is synthesized by
scaling the vertical point pairs of canonical eye/mouth hexagons, which
inverts the aspect-ratio formulas in closed form: a frame scripted at a
given EAR/MAR measures back to that value (to floating-point precision)
before noise. Horizontal spans stay fixed.

Event envelopes are rectangular over [start_t, start_t + length_s), except
talk events, which oscillate the mouth ratio below the yawn range:
  blink / sustained_closure  eye ratio scaled by (1 - intensity)
  yawn                       mouth ratio scaled by (1 + intensity)
  talk                       mouth ratio oscillates up to 1.3x baseline
  head_nod                   head-drop ratio scaled by (1 + 0.5 * intensity)
  dropout                    face_present = False, no points
Talk tops out below the 1.4x personalized mouth threshold by construction,
so talk frames are labeled (and should be classified) as not yawning.
Events are swept in start order: a frame combines the events whose
interval holds its time, with min/max on the ratios and or on the labels,
so the order of the script's events changes nothing.

Noise is N(0, noise_sigma) added to x and then y of each point, frame
after frame, and equals successive Random(seed).gauss(0.0, noise_sigma)
draws bit for bit: each point takes one Box-Muller pair (Box & Muller
1958) by Random.gauss's own formula, the cosine half on x and the sine
half on y, which leaves the generator in the same state as the two calls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from math import cos, log, sin, sqrt
from typing import Callable, Iterable, Iterator

from .calibration import require_finite
from .errors import ScriptError
from .landmarks import MAX_SECONDS, SEMANTIC, LandmarkFrame, Point, check_timestamp, quantize_ms

EVENT_BLINK = "blink"
EVENT_CLOSURE = "sustained_closure"
EVENT_YAWN = "yawn"
EVENT_TALK = "talk"
EVENT_HEAD_NOD = "head_nod"
EVENT_DROPOUT = "dropout"
EVENT_KINDS = (EVENT_BLINK, EVENT_CLOSURE, EVENT_YAWN, EVENT_TALK, EVENT_HEAD_NOD, EVENT_DROPOUT)

_EYE_EVENTS = (EVENT_BLINK, EVENT_CLOSURE)

# Canonical face proportions relative to the inter-ocular distance.
_FACE_CX = 320.0
_EYE_Y = 240.0
_EYE_SPAN = 0.35
_MOUTH_SPAN = 0.45
_MOUTH_DROP = 0.62
_TALK_HZ = 2.5
_TALK_MID = 0.25
_TALK_AMP = 0.05

# Frame rate and head-drop baseline of every generate_population driver.
_POPULATION_FPS = 30.0
_POPULATION_HEAD_DROP = 0.55


@dataclass(frozen=True, slots=True)
class DriverParams:
    baseline_ear: float
    baseline_mar: float
    baseline_head_drop: float
    inter_ocular_px: float = 200.0


@dataclass(frozen=True, slots=True)
class ScriptEvent:
    kind: str
    start_t: float
    length_s: float
    intensity: float = 1.0


@dataclass(frozen=True, slots=True)
class SessionScript:
    fps: float
    duration_s: float
    driver: DriverParams
    events: tuple[ScriptEvent, ...] = ()
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        parts = [("", self), ("driver.", self.driver)]
        parts += [(f"events[{i}].", ev) for i, ev in enumerate(self.events)]
        require_finite(
            {prefix + f.name: getattr(obj, f.name) for prefix, obj in parts for f in fields(obj)},
            ScriptError,
        )
        if self.fps <= 0.0 or self.duration_s <= 0.0:
            raise ScriptError("fps and duration must be positive")
        if not math.isfinite(self.fps * self.duration_s):
            raise ScriptError("frame count fps * duration_s must be finite")
        if self.fps > 1000.0:
            raise ScriptError("fps must be at most 1000: frames are timed on the millisecond grid")
        try:
            check_timestamp(_frame_t(max(self.frame_count - 1, 0), self.fps))
        except (OverflowError, ValueError):
            raise ScriptError(f"frame times must be at most {MAX_SECONDS!r} s") from None
        if self.noise_sigma < 0.0:
            raise ScriptError("noise_sigma cannot be negative")
        d = self.driver
        if min(d.baseline_ear, d.baseline_mar, d.inter_ocular_px) <= 0.0:
            raise ScriptError("driver baselines and inter-ocular distance must be positive")
        if d.baseline_head_drop < 0.0:
            raise ScriptError("baseline head drop cannot be negative")
        for ev in self.events:
            if ev.kind not in EVENT_KINDS:
                raise ScriptError(f"unknown event kind {ev.kind!r}")
            if not 0.0 <= ev.intensity <= 1.0:
                raise ScriptError(f"{ev.kind} intensity must lie in [0, 1]")
            # compared on the millisecond grid, so 0.4 + 0.8 ends at 1.2; an end
            # past MAX_SECONDS has no millisecond key (quantize_ms would overflow)
            end = ev.start_t + ev.length_s
            past_end = end > self.duration_s and (
                end > MAX_SECONDS or quantize_ms(end) > quantize_ms(self.duration_s)
            )
            if ev.start_t < 0.0 or ev.length_s <= 0.0 or past_end:
                raise ScriptError(
                    f"{ev.kind} at t={ev.start_t} (length {ev.length_s}) falls outside the session"
                )

    @property
    def frame_count(self) -> int:
        return round(self.duration_s * self.fps)


def _frame_t(i: int, fps: float) -> float:
    """Frame i's time, on the millisecond grid; no later frame has an earlier time."""
    return round(1000.0 * i / fps) / 1000.0


@dataclass(frozen=True, slots=True)
class FrameLabel:
    """One frame's ground truth: face presence, then the eye, mouth and head states.

    A label is built once per label line and per synthesized frame, so the
    class writes its own __init__: it stores each field through the field's
    slot descriptor, about 0.3 microseconds less per label than the
    generated frozen __init__, which calls object.__setattr__ per field. A
    label has no check to run.
    """

    t: float
    face_present: bool
    eye_closed: bool | None
    mouth_yawn: bool | None
    head_down: bool | None

    def __init__(
        self,
        t: float,
        face_present: bool,
        eye_closed: bool | None,
        mouth_yawn: bool | None,
        head_down: bool | None,
    ):
        _set_t(self, t)
        _set_face_present(self, face_present)
        _set_eye_closed(self, eye_closed)
        _set_mouth_yawn(self, mouth_yawn)
        _set_head_down(self, head_down)


# the slot descriptors FrameLabel.__init__ stores through, in field order
_set_t, _set_face_present, _set_eye_closed, _set_mouth_yawn, _set_head_down = (
    vars(FrameLabel)[f.name].__set__ for f in fields(FrameLabel)
)


@dataclass(frozen=True, slots=True)
class GroundTruth:
    labels: list[FrameLabel]


def _hexagon(x1: float, xa: float, xb: float, x4: float, y: float, v: float) -> tuple[Point, ...]:
    """p1..p6 of the ratio hexagon: corners x1, x4 on y, pairs at xa, xb v above and below."""
    return ((x1, y), (xa, y - v), (xb, y - v), (x4, y), (xb, y + v), (xa, y + v))


def _semantic_points(
    ear: float, mar: float, head_drop: float, inter_ocular: float
) -> tuple[Point, ...]:
    """Canonical semantic-scheme face realizing the requested metric values."""
    d = inter_ocular
    eye_w = _EYE_SPAN * d
    ey = _EYE_Y
    v = ear * eye_w / 2.0
    left = _FACE_CX - d / 2.0
    right = _FACE_CX + d / 2.0 - eye_w
    mouth_w = _MOUTH_SPAN * d
    return (
        _hexagon(left, left + eye_w / 3.0, left + 2.0 * eye_w / 3.0, left + eye_w, ey, v)
        + _hexagon(right, right + eye_w / 3.0, right + 2.0 * eye_w / 3.0, right + eye_w, ey, v)
        + _hexagon(
            _FACE_CX - mouth_w / 2.0,
            _FACE_CX - mouth_w / 6.0,
            _FACE_CX + mouth_w / 6.0,
            _FACE_CX + mouth_w / 2.0,
            ey + _MOUTH_DROP * d,
            mar * mouth_w / 2.0,
        )
        + ((_FACE_CX, ey + head_drop * d),)
    )


_TWOPI = 2.0 * math.pi


def _add_noise(
    points: tuple[Point, ...], rand: Callable[[], float], sigma: float
) -> tuple[Point, ...]:
    """points plus N(0, sigma) on x and then y of each point.

    One Box-Muller pair per point, computed exactly as Random.gauss
    computes it, so the values and rand's generator state equal those of
    two successive gauss(0.0, sigma) calls per point.
    """
    noisy = []
    append = noisy.append
    for x, y in points:
        x2pi = rand() * _TWOPI
        g2rad = sqrt(-2.0 * log(1.0 - rand()))
        append((x + (0.0 + cos(x2pi) * g2rad * sigma), y + (0.0 + sin(x2pi) * g2rad * sigma)))
    return tuple(noisy)


def iter_session(script: SessionScript) -> Iterator[tuple[LandmarkFrame, FrameLabel]]:
    """Yield (frame, ground-truth label) pairs one at a time, in order.

    Raises ScriptError naming the frame whose coordinates leave float range.
    """
    rand = random.Random(script.seed).random
    sigma = script.noise_sigma
    driver = script.driver
    # frame times never decrease, so an event joins `active` once its start
    # is reached and leaves it for good once its end is passed
    pending = sorted(script.events, key=lambda ev: ev.start_t, reverse=True)
    active: list[ScriptEvent] = []
    for i in range(script.frame_count):
        t = _frame_t(i, script.fps)
        while pending and pending[-1].start_t <= t:
            active.append(pending.pop())
        if active:
            active = [ev for ev in active if t < ev.start_t + ev.length_s]

        eye_mult = 1.0
        mouth_mult = 1.0
        head_mult = 1.0
        face = True
        eye_closed = mouth_yawn = head_down = False
        for ev in active:
            if ev.kind in _EYE_EVENTS:
                eye_mult = min(eye_mult, 1.0 - ev.intensity)
                eye_closed = True
            elif ev.kind == EVENT_YAWN:
                mouth_mult = max(mouth_mult, 1.0 + ev.intensity)
                mouth_yawn = True
            elif ev.kind == EVENT_TALK:
                phase = 2.0 * math.pi * _TALK_HZ * (t - ev.start_t)
                wobble = 1.0 + ev.intensity * (_TALK_MID - _TALK_AMP * math.cos(phase))
                mouth_mult = max(mouth_mult, wobble)
            elif ev.kind == EVENT_HEAD_NOD:
                head_mult = max(head_mult, 1.0 + 0.5 * ev.intensity)
                head_down = True
            else:  # dropout
                face = False

        if face:
            points = _semantic_points(
                ear=driver.baseline_ear * eye_mult,
                mar=driver.baseline_mar * mouth_mult,
                head_drop=driver.baseline_head_drop * head_mult,
                inter_ocular=driver.inter_ocular_px,
            )
            if sigma > 0.0:
                points = _add_noise(points, rand, sigma)
        else:
            points = ()
            eye_closed = mouth_yawn = head_down = None
        try:
            frame = LandmarkFrame(t=t, scheme=SEMANTIC, points=points, face_present=face)
        except ValueError as exc:
            raise ScriptError(f"frame at t={t:.3f}: {exc}") from None
        yield frame, FrameLabel(t, face, eye_closed, mouth_yawn, head_down)


def generate(script: SessionScript) -> tuple[list[LandmarkFrame], GroundTruth]:
    """Realize a script into frames plus per-frame ground truth.

    Episode ground truth is the script's own `events`.
    """
    frames: list[LandmarkFrame] = []
    labels: list[FrameLabel] = []
    for frame, label in iter_session(script):
        frames.append(frame)
        labels.append(label)
    return frames, GroundTruth(labels=labels)


def iter_frames(script: SessionScript) -> Iterator[LandmarkFrame]:
    """Stream frames only; memory stays flat for very long sessions."""
    for frame, _ in iter_session(script):
        yield frame


def generate_population(
    n: int,
    baseline_ear_range: tuple[float, float],
    baseline_mar_range: tuple[float, float],
    events: Iterable[ScriptEvent],
    seed: int,
    duration_s: float = 60.0,
    noise_sigma: float = 0.0,
) -> Iterator[tuple[SessionScript, list[LandmarkFrame], GroundTruth]]:
    """Seeded population of drivers sharing one event template.

    Baselines are drawn uniformly from the given ranges; each driver gets an
    independent noise stream derived from the population seed. All drivers
    share one frame rate, head-drop baseline and inter-ocular distance.
    Yields lazily so large populations never sit in memory at once.
    """
    if n < 1:
        raise ScriptError("population size must be at least 1")
    for name, (lo, hi) in (("EAR", baseline_ear_range), ("MAR", baseline_mar_range)):
        if lo > hi:
            raise ScriptError(f"empty baseline {name} range ({lo}, {hi})")
        if lo <= 0.0:
            raise ScriptError(f"baseline {name} range must be positive")
    event_template = tuple(events)
    rng = random.Random(seed)
    for _ in range(n):
        ear_b = rng.uniform(*baseline_ear_range)
        mar_b = rng.uniform(*baseline_mar_range)
        driver_seed = rng.randrange(2**32)
        script = SessionScript(
            fps=_POPULATION_FPS,
            duration_s=duration_s,
            driver=DriverParams(
                baseline_ear=ear_b,
                baseline_mar=mar_b,
                baseline_head_drop=_POPULATION_HEAD_DROP,
            ),
            events=event_template,
            noise_sigma=noise_sigma,
            seed=driver_seed,
        )
        frames, truth = generate(script)
        yield script, frames, truth
