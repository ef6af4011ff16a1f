import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drowsy.calibration import (
    CalibrationConfig,
    calibrate,
    generalized_profile,
    trimmed_mean,
)
from drowsy.errors import CalibrationError, ConfigError, GeometryError
from drowsy.metrics import MetricSample


def constant_samples(n=150, span_s=5.0, ear=0.32, mar=0.40, head=0.60, face=True, t0=0.0):
    # n samples covering span_s seconds under the hold-until-next convention
    step = span_s / n
    return [
        MetricSample(
            t=round((t0 + i * step) * 1000.0) / 1000.0,
            ear=ear if face else None,
            mar=mar if face else None,
            head_drop=head if face else None,
            face_present=face,
        )
        for i in range(n)
    ]


class TestCalibrate:
    def test_constant_input_exact_factor_relations(self):
        profile = calibrate(constant_samples())
        assert profile.baseline_ear == pytest.approx(0.32, abs=1e-12)
        assert profile.baseline_mar == pytest.approx(0.40, abs=1e-12)
        assert profile.baseline_head_drop == pytest.approx(0.60, abs=1e-12)
        assert profile.ear_threshold == 0.75 * profile.baseline_ear
        assert profile.mar_threshold == 1.40 * profile.baseline_mar
        assert profile.head_drop_limit == 1.25 * profile.baseline_head_drop
        assert profile.ear_threshold == pytest.approx(0.24, abs=1e-12)
        assert profile.mar_threshold == pytest.approx(0.56, abs=1e-12)
        assert profile.head_drop_limit == pytest.approx(0.75, abs=1e-12)
        assert profile.ear_threshold < profile.baseline_ear
        assert profile.mar_threshold > profile.baseline_mar
        assert profile.personalized

    def test_identity_factors_give_baselines(self):
        config = CalibrationConfig(ear_factor=1.0, mar_factor=1.0, head_factor=1.0)
        profile = calibrate(constant_samples(), config)
        assert profile.ear_threshold == profile.baseline_ear
        assert profile.mar_threshold == profile.baseline_mar
        assert profile.head_drop_limit == profile.baseline_head_drop

    def test_blink_outliers_fall_in_trimmed_tail(self):
        samples = constant_samples(n=150)
        blinks = [
            MetricSample(t=5.1 + i * 0.033, ear=0.05, mar=0.40, head_drop=0.60, face_present=True)
            for i in range(10)
        ]
        profile = calibrate(samples + blinks)
        # brute-force trimmed mean over the constructed list
        ears = sorted([s.ear for s in samples + blinks])
        k = int(0.10 * len(ears))
        expected = math.fsum(ears[k:-k]) / len(ears[k:-k])
        assert profile.baseline_ear == expected
        assert profile.baseline_ear == pytest.approx(0.32, abs=1e-12)

    def test_permutation_invariance(self):
        rng = random.Random(3)
        base = [
            MetricSample(
                t=i * 0.04,
                ear=0.30 + rng.uniform(-0.05, 0.05),
                mar=0.40 + rng.uniform(-0.05, 0.05),
                head_drop=0.60 + rng.uniform(-0.05, 0.05),
                face_present=True,
            )
            for i in range(200)
        ]
        reference = calibrate(base)
        for _ in range(100):
            shuffled = base[:]
            rng.shuffle(shuffled)
            assert calibrate(shuffled) == reference

    def test_insufficient_face_samples(self):
        with pytest.raises(CalibrationError):
            calibrate(constant_samples(n=20))

    def test_insufficient_duration(self):
        with pytest.raises(CalibrationError):
            calibrate(constant_samples(n=60, span_s=2.0))

    def test_all_faceless_input(self):
        with pytest.raises(CalibrationError):
            calibrate(constant_samples(face=False))

    def test_baseline_beyond_float_range_is_geometry_error(self):
        # each ratio is finite, their sum is not: an input error, not a failed calibration
        with pytest.raises(GeometryError) as err:
            calibrate(constant_samples(mar=1e307))
        assert str(err.value) == "frames t=0.000..4.967: trimmed mean of 120 values overflows"

    def test_coverage_counts_trailing_hold(self):
        # 150 frames at 30 fps: last frame at 4.967 s + one 33 ms hold = 5.0 s
        samples = [
            MetricSample(
                t=round(i * 1000.0 / 30.0) / 1000.0,
                ear=0.32,
                mar=0.40,
                head_drop=0.60,
                face_present=True,
            )
            for i in range(150)
        ]
        profile = calibrate(samples)
        assert profile.frames_used == 150
        assert profile.duration_s >= 5.0


@given(scale=st.floats(min_value=0.1, max_value=10.0))
def test_scaling_monotonicity(scale):
    base = constant_samples(n=60, span_s=6.0, ear=0.28)
    scaled = [
        MetricSample(
            t=s.t, ear=s.ear * scale, mar=s.mar, head_drop=s.head_drop, face_present=True
        )
        for s in base
    ]
    p0 = calibrate(base)
    p1 = calibrate(scaled)
    assert p1.baseline_ear == pytest.approx(scale * p0.baseline_ear, rel=1e-12)
    assert p1.ear_threshold == pytest.approx(scale * p0.ear_threshold, rel=1e-12)


def test_trim_bound_property():
    rng = random.Random(9)
    for _ in range(50):
        n_core = rng.randrange(50, 300)
        value = rng.uniform(0.1, 0.6)
        core = [value] * n_core
        n_out = rng.randrange(0, int(0.10 * n_core) + 1)
        low_or_high = rng.random() < 0.5
        outliers = [value * 0.01 if low_or_high else value * 50.0] * n_out
        total = core + outliers
        if int(0.10 * len(total)) < n_out:
            continue
        assert trimmed_mean(total) == pytest.approx(value, abs=1e-12)


class TestGeneralizedProfile:
    def test_defaults(self):
        p = generalized_profile()
        assert p.ear_threshold == 0.21
        assert p.mar_threshold == 0.60
        assert p.head_drop_limit == 0.80
        assert not p.personalized
        assert p.frames_used == 0

    def test_override_pass_through(self):
        assert generalized_profile(ear_threshold=0.25).ear_threshold == 0.25

    def test_factor_relations_hold_with_unit_factors(self):
        p = generalized_profile()
        assert p.ear_threshold == p.ear_factor * p.baseline_ear
        assert p.mar_threshold == p.mar_factor * p.baseline_mar
        assert p.head_drop_limit == p.head_factor * p.baseline_head_drop

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            generalized_profile(ear_threshold=0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        CalibrationConfig(duration_s=0.0)
    with pytest.raises(ConfigError):
        CalibrationConfig(min_samples=0)
    with pytest.raises(ConfigError):
        CalibrationConfig(ear_factor=-0.5)
