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
from typing import Iterable, Mapping

from .errors import CalibrationError, ConfigError
from .landmarks import quantize_ms
from .metrics import MetricSample

#: Threshold factors applied to the neutral baselines.
DEFAULT_EAR_FACTOR = 0.75
DEFAULT_MAR_FACTOR = 1.40
DEFAULT_HEAD_FACTOR = 1.25

DEFAULT_DURATION_S = 5.0
DEFAULT_MIN_SAMPLES = 30

#: Population-wide fallback thresholds for the non-personalized mode.
#: Repo defaults drawn from common practice, not derived from any dataset;
#: override per deployment.
GENERALIZED_EAR_THRESHOLD = 0.21
GENERALIZED_MAR_THRESHOLD = 0.60
GENERALIZED_HEAD_DROP_LIMIT = 0.80

TRIM_FRACTION = 0.10


def require_finite(values: Mapping[str, object]) -> None:
    """Raise ConfigError naming the first float value that is nan or infinite."""
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class CalibrationConfig:
    duration_s: float = DEFAULT_DURATION_S
    min_samples: int = DEFAULT_MIN_SAMPLES
    ear_factor: float = DEFAULT_EAR_FACTOR
    mar_factor: float = DEFAULT_MAR_FACTOR
    head_factor: float = DEFAULT_HEAD_FACTOR

    def __post_init__(self):
        require_finite(asdict(self))
        if self.duration_s <= 0.0 or self.min_samples < 1:
            raise ConfigError("calibration duration and minimum sample count must be positive")
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


def trimmed_mean(values: list[float]) -> float:
    """Mean after discarding the lowest and highest TRIM_FRACTION of values."""
    if not values:
        raise ValueError("trimmed_mean of empty sequence")
    k = int(TRIM_FRACTION * len(values))
    core = sorted(values)[k: len(values) - k]
    # fsum keeps the baseline exactly rounded, so constant input gives the
    # constant back and shuffled input gives bit-identical results
    return math.fsum(core) / len(core)


def _covered_ms(samples: list[MetricSample]) -> int:
    # Zero-order-hold coverage: every sample holds until the next one, the
    # final sample for one repeat of its preceding gap. A 5 s recording at
    # 30 fps therefore covers exactly 5000 ms.
    if len(samples) < 2:
        return 0
    ts = [quantize_ms(s.t) for s in samples]
    return (ts[-1] - ts[0]) + (ts[-1] - ts[-2])


def calibrate(samples: Iterable[MetricSample], config: CalibrationConfig | None = None) -> CalibrationProfile:
    """Derive a personalized profile from neutral-pose metric samples.

    Order-insensitive: permuting the input yields an identical profile.
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
    baseline_ear = trimmed_mean([s.ear for s in face])
    baseline_mar = trimmed_mean([s.mar for s in face])
    baseline_head = trimmed_mean([s.head_drop for s in face])
    return CalibrationProfile(
        baseline_ear=baseline_ear,
        baseline_mar=baseline_mar,
        baseline_head_drop=baseline_head,
        ear_threshold=config.ear_factor * baseline_ear,
        mar_threshold=config.mar_factor * baseline_mar,
        head_drop_limit=config.head_factor * baseline_head,
        ear_factor=config.ear_factor,
        mar_factor=config.mar_factor,
        head_factor=config.head_factor,
        frames_used=len(face),
        duration_s=covered / 1000.0,
        personalized=True,
    )


def generalized_profile(
    ear_threshold: float = GENERALIZED_EAR_THRESHOLD,
    mar_threshold: float = GENERALIZED_MAR_THRESHOLD,
    head_drop_limit: float = GENERALIZED_HEAD_DROP_LIMIT,
) -> CalibrationProfile:
    """Fixed population-threshold profile (unit factors, personalized=False)."""
    require_finite(locals())  # exactly the three parameters at this point
    if min(ear_threshold, mar_threshold, head_drop_limit) <= 0.0:
        raise ConfigError("generalized thresholds must be positive")
    return CalibrationProfile(
        baseline_ear=ear_threshold,
        baseline_mar=mar_threshold,
        baseline_head_drop=head_drop_limit,
        ear_threshold=ear_threshold,
        mar_threshold=mar_threshold,
        head_drop_limit=head_drop_limit,
        ear_factor=1.0,
        mar_factor=1.0,
        head_factor=1.0,
        frames_used=0,
        duration_s=0.0,
        personalized=False,
    )
