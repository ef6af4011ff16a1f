"""Pure geometric fatigue metrics: EAR, MAR, head-drop ratio, PERCLOS.

The eye and mouth ratios share one hexagon convention: with points
p1..p6 where (p1, p4) are the horizontal corners and (p2, p6), (p3, p5)
the vertical pairs,

    ratio = (|p2 - p6| + |p3 - p5|) / (2 * |p1 - p4|)

using Euclidean distances. Eyes score high when open and near zero when
closed; the mouth ratio rises sharply during yawns. Both are invariant
under translation, rotation, and uniform scaling.

Finite coordinates can lie far enough apart to overflow a distance or a
ratio. Each ratio is checked once, so a metric is a finite float or a
GeometryError, never inf or nan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import dist, inf, isfinite
from typing import Iterable, Iterator

from .errors import GeometryError, PerclosUndefinedError, StreamOrderError
from .landmarks import LandmarkFrame, Point, SemanticPoints, quantize_ms, to_semantic


def _aspect_ratio(pts: tuple[Point, ...], what: str) -> float:
    p1, p2, p3, p4, p5, p6 = pts
    width = 2.0 * dist(p1, p4)
    if width == 0.0:
        raise GeometryError(f"degenerate {what}: horizontal corner points coincide")
    ratio = (dist(p2, p6) + dist(p3, p5)) / width
    if not isfinite(ratio) or width == inf:  # an infinite width reads any opening as 0
        raise GeometryError(f"{what} aspect ratio overflows")
    return ratio


def compute_ear(eye: tuple[Point, ...]) -> float:
    """Eye aspect ratio of one six-point eye hexagon."""
    return _aspect_ratio(eye, "eye")


def compute_mar(mouth: tuple[Point, ...]) -> float:
    """Mouth aspect ratio of the six inner-lip points."""
    return _aspect_ratio(mouth, "mouth")


def compute_binocular_ear(sp: SemanticPoints) -> float:
    """Mean of left and right eye aspect ratios (averaging damps one-eye noise).

    Each ratio is halved before the sum, so two finite ratios cannot
    overflow their mean. Halving a normal float is exact, so the result is
    bit-equal to (left + right) / 2 wherever that is normal and finite.
    """
    return compute_ear(sp.left_eye) / 2.0 + compute_ear(sp.right_eye) / 2.0


def compute_head_drop(sp: SemanticPoints) -> float:
    """Nose-below-eye-line distance normalized by inter-ocular distance.

    Positive when the nose sits below eye level (y grows downward); dividing
    by the outer-corner distance makes the ratio camera-distance independent.
    """
    c0 = sp.left_eye[0]
    c1 = sp.right_eye[3]
    inter_ocular = dist(c0, c1)
    if inter_ocular == 0.0:
        raise GeometryError("degenerate face: eye corners coincide")
    eye_level = (c0[1] + c1[1]) / 2.0
    ratio = (sp.nose_tip[1] - eye_level) / inter_ocular
    if not isfinite(ratio) or inter_ocular == inf:
        raise GeometryError("head-drop ratio overflows")
    return ratio


@dataclass(frozen=True, slots=True)
class MetricSample:
    """Per-frame raw metric values; all three are absent on faceless frames."""

    t: float
    ear: float | None
    mar: float | None
    head_drop: float | None
    face_present: bool


def metric_sample(frame: LandmarkFrame) -> MetricSample:
    sp = to_semantic(frame)
    if sp is None:
        return MetricSample(t=frame.t, ear=None, mar=None, head_drop=None, face_present=False)
    try:
        ear, mar = compute_binocular_ear(sp), compute_mar(sp.mouth)
        head_drop = compute_head_drop(sp)
    except GeometryError as exc:
        raise GeometryError(f"frame at t={frame.t:.3f}: {exc}") from None
    return MetricSample(t=frame.t, ear=ear, mar=mar, head_drop=head_drop, face_present=True)


def samples_from_frames(frames: Iterable[LandmarkFrame]) -> Iterator[MetricSample]:
    for frame in frames:
        yield metric_sample(frame)


class PerclosWindow:
    """Rolling window of per-frame eye states with duration-weighted PERCLOS.

    Each sample holds from its own timestamp until the next sample arrives;
    the newest sample is assumed to persist for one more interval equal to
    its preceding gap, so uniformly spaced samples all carry equal weight.
    Durations are summed in integer milliseconds (the package-wide timestamp
    resolution), which keeps the totals exact. A window needs at least two
    samples before any time can be attributed.

    Single-owner mutable state; do not share one window between pipelines.
    """

    __slots__ = ("duration_ms", "_samples", "_closed_ms", "_monitored_ms")

    def __init__(self, duration_s: float):
        if duration_s <= 0.0 or quantize_ms(duration_s) == 0:
            raise ValueError("window duration must be positive on the millisecond grid")
        self.duration_ms = quantize_ms(duration_s)
        self._samples: deque[tuple[int, bool, bool]] = deque()
        self._closed_ms = 0
        self._monitored_ms = 0

    @property
    def samples(self) -> list[tuple[float, bool, bool]]:
        """Window contents as (t_seconds, closed, monitored), oldest first."""
        return [(t / 1000.0, c, m) for t, c, m in self._samples]

    def append(self, t: float, closed: bool, monitored: bool) -> None:
        if closed and not monitored:
            raise ValueError("a closed sample must be monitored")
        t_ms = quantize_ms(t)
        samples = self._samples
        if samples:
            last_t, last_closed, last_monitored = samples[-1]
            if t_ms <= last_t:
                raise StreamOrderError(
                    f"sample at t={t:.3f} does not advance past t={last_t / 1000.0:.3f}"
                )
            gap = t_ms - last_t
            if last_monitored:
                self._monitored_ms += gap
                if last_closed:
                    self._closed_ms += gap
        samples.append((t_ms, closed, monitored))
        cutoff = t_ms - self.duration_ms
        while samples[0][0] < cutoff:
            old_t, old_closed, old_monitored = samples.popleft()
            gap = samples[0][0] - old_t
            if old_monitored:
                self._monitored_ms -= gap
                if old_closed:
                    self._closed_ms -= gap

    def perclos(self) -> float:
        """Percentage of monitored window time spent closed, in [0, 100]."""
        samples = self._samples
        if len(samples) < 2:
            raise PerclosUndefinedError("window holds no attributable time yet")
        last_t, last_closed, last_monitored = samples[-1]
        trailing = last_t - samples[-2][0]
        total = self._monitored_ms + (trailing if last_monitored else 0)
        if total == 0:
            raise PerclosUndefinedError("no monitored samples in window")
        closed = self._closed_ms + (trailing if last_closed else 0)
        return 100.0 * closed / total
