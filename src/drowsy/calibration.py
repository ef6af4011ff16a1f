"""Per-driver calibration: neutral-pose baselines and derived thresholds.

A short recording of the driver sitting still (eyes open, mouth closed)
yields baseline EAR/MAR/head-drop values; thresholds are fixed fractions
of those baselines. Drivers blink during calibration, so baselines are
10%-trimmed means rather than plain means: up to a tenth of outlier
samples at either extreme cannot move the baseline.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping

from .errors import CalibrationError, ConfigError, DrowsyError, GeometryError
from .landmarks import MAX_SECONDS, quantize_ms
from .metrics import MetricSample

TRIM_FRACTION = 0.10


def require_finite(
    values: Mapping[str, object], error: type[DrowsyError] = ConfigError
) -> None:
    """Raise `error` naming the first float value that is nan or infinite."""
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class CalibrationConfig:
    duration_s: float = 5.0
    min_samples: int = 30
    # threshold factors applied to the neutral baselines
    ear_factor: float = 0.75
    mar_factor: float = 1.40
    head_factor: float = 1.25

    def __post_init__(self):
        require_finite(asdict(self))
        if self.duration_s > MAX_SECONDS:
            raise ConfigError(f"calibration duration must be at most {MAX_SECONDS!r} s")
        if self.duration_s <= 0.0 or quantize_ms(self.duration_s) == 0 or self.min_samples < 1:
            raise ConfigError(
                "calibration duration (on the millisecond grid) and minimum sample count "
                "must be positive"
            )
        if min(self.ear_factor, self.mar_factor, self.head_factor) <= 0.0:
            raise ConfigError("threshold factors must be positive")


@dataclass(frozen=True, slots=True)
class CalibrationProfile:
    """Driver baselines plus the thresholds the pipeline compares against.

    Threshold fields are exact products factor * baseline. A generalized
    profile encodes fixed population thresholds with unit factors and
    personalized=False; the pipeline treats both kinds identically.
    """

    baseline_ear: float
    baseline_mar: float
    baseline_head_drop: float
    ear_threshold: float
    mar_threshold: float
    head_drop_limit: float
    ear_factor: float
    mar_factor: float
    head_factor: float
    frames_used: int
    duration_s: float
    personalized: bool = True


def _profile(
    baselines: tuple[float, float, float],
    factors: tuple[float, float, float],
    frames_used: int,
    duration_s: float,
    personalized: bool,
) -> CalibrationProfile:
    """The profile whose EAR, MAR and head-drop thresholds are factor * baseline."""
    names = ("ear_threshold", "mar_threshold", "head_drop_limit")
    thresholds = {name: f * b for name, f, b in zip(names, factors, baselines)}
    require_finite(thresholds)  # a finite factor times a finite baseline can overflow
    return CalibrationProfile(
        *baselines, *thresholds.values(), *factors, frames_used, duration_s, personalized
    )


def trimmed_mean(values: list[float]) -> float:
    """Mean after discarding the lowest and highest TRIM_FRACTION of values."""
    if not values:
        raise ValueError("trimmed_mean of empty sequence")
    k = int(TRIM_FRACTION * len(values))
    core = sorted(values)[k: len(values) - k]
    # fsum keeps the baseline exactly rounded, so constant input gives the
    # constant back and shuffled input gives bit-identical results
    try:
        return math.fsum(core) / len(core)
    except OverflowError:
        raise GeometryError(f"trimmed mean of {len(core)} values overflows") from None


def _covered_ms(samples: list[MetricSample]) -> int:
    # Zero-order-hold coverage: every sample holds until the next one, the
    # final sample for one repeat of its preceding gap. A 5 s recording at
    # 30 fps (150 frames) spans 4967 ms on the millisecond grid and its last
    # gap is 34 ms, so it covers 5001 ms.
    if len(samples) < 2:
        return 0
    ts = [quantize_ms(s.t) for s in samples]
    return (ts[-1] - ts[0]) + (ts[-1] - ts[-2])


def lead_in(frames: Iterable, duration_s: float) -> tuple[Iterator, list]:
    """The whole stream, and its lead-in: every item within duration_s of the first.

    The one rule for the calibration window, on the millisecond key of each
    item's t, read once. Items come in time order, as read_frames keeps them:
    the stream is read up to the first item past the lead-in, and the items
    read are handed out again ahead of the rest.
    """
    items = iter(frames)
    head = list(islice(items, 1))
    end = quantize_ms(head[0].t) + quantize_ms(duration_s) if head else 0
    for item in items:
        if quantize_ms(item.t) > end:
            return chain(head, (item,), items), head
        head.append(item)
    return iter(head), head


def calibrate(samples: Iterable[MetricSample], config: CalibrationConfig | None = None) -> CalibrationProfile:
    """Derive a personalized profile from neutral-pose metric samples.

    Order-insensitive: permuting the input yields an identical profile.
    The caller picks the window; lead_in is the rule that picks a stream's.
    Raises CalibrationError when the recording is too short or holds fewer
    face-present samples than config.min_samples.
    """
    if config is None:
        config = CalibrationConfig()
    all_samples = list(samples)
    face = [s for s in all_samples if s.face_present]
    if len(face) < config.min_samples:
        raise CalibrationError(
            f"insufficient calibration samples: {len(face)} face-present frames, "
            f"need at least {config.min_samples}"
        )
    covered = _covered_ms(sorted(all_samples, key=lambda s: s.t))
    needed = quantize_ms(config.duration_s)
    if covered < needed:
        raise CalibrationError(
            f"insufficient calibration duration: recording covers {covered / 1000.0:.3f} s, "
            f"need {config.duration_s:.3f} s"
        )
    try:
        baseline_ear = trimmed_mean([s.ear for s in face])
        baseline_mar = trimmed_mean([s.mar for s in face])
        baseline_head = trimmed_mean([s.head_drop for s in face])
    except GeometryError as exc:
        ts = [s.t for s in face]
        raise GeometryError(f"frames t={min(ts):.3f}..{max(ts):.3f}: {exc}") from None
    return _profile(
        (baseline_ear, baseline_mar, baseline_head),
        (config.ear_factor, config.mar_factor, config.head_factor),
        frames_used=len(face),
        duration_s=covered / 1000.0,
        personalized=True,
    )


def generalized_profile(
    ear_threshold: float = 0.21,
    mar_threshold: float = 0.60,
    head_drop_limit: float = 0.80,
) -> CalibrationProfile:
    """Fixed population-threshold profile (unit factors, personalized=False).

    The default thresholds are population-wide fallbacks for the
    non-personalized mode, drawn from common practice, not derived from any
    dataset; override them per deployment.
    """
    require_finite(locals())  # exactly the three parameters at this point
    if min(ear_threshold, mar_threshold, head_drop_limit) <= 0.0:
        raise ConfigError("generalized thresholds must be positive")
    thresholds = (ear_threshold, mar_threshold, head_drop_limit)
    return _profile(thresholds, (1.0, 1.0, 1.0), frames_used=0, duration_s=0.0, personalized=False)
