import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drowsy.errors import GeometryError, PerclosUndefinedError, StreamOrderError
from drowsy.landmarks import MAX_SECONDS, SEMANTIC, LandmarkFrame, SemanticPoints, quantize_ms
from drowsy.landmarks import to_semantic
from drowsy.metrics import (
    PerclosWindow,
    compute_binocular_ear,
    compute_ear,
    compute_head_drop,
    compute_mar,
    metric_sample,
)

from conftest import hexagon, semantic_frame

# Frozen hand-arithmetic oracle values, computed coordinate by coordinate
# before the implementation existed (sqrt of explicit squared differences).
EAR_ORACLE_POINTS = ((0.0, 0.0), (0.8, 0.22), (2.0, 0.25), (3.0, 0.0), (2.1, -0.15), (0.9, -0.18))
EAR_ORACLE_VALUE = 0.13743685418725538
MAR_ORACLE_POINTS = ((10.0, 5.0), (11.2, 3.9), (12.6, 3.7), (14.1, 5.2), (12.7, 6.8), (11.3, 6.4))
MAR_ORACLE_VALUE = 0.6825556782170636


class TestEar:
    def test_symmetric_configuration_is_half(self):
        eye = ((0.0, 0.0), (1.0, 1.0), (3.0, 1.0), (4.0, 0.0), (3.0, -1.0), (1.0, -1.0))
        assert compute_ear(eye) == 0.5

    def test_closed_eye_is_zero(self):
        eye = ((0.0, 0.0), (1.0, 0.3), (3.0, 0.4), (4.0, 0.0), (3.0, 0.4), (1.0, 0.3))
        assert compute_ear(eye) == 0.0

    def test_hand_arithmetic_oracle(self):
        assert compute_ear(EAR_ORACLE_POINTS) == pytest.approx(EAR_ORACLE_VALUE, abs=1e-12)

    def test_coincident_corners_degenerate(self):
        eye = ((1.0, 1.0), (1.2, 2.0), (1.4, 2.0), (1.0, 1.0), (1.4, 0.0), (1.2, 0.0))
        with pytest.raises(GeometryError):
            compute_ear(eye)


class TestBinocularEar:
    def test_mean_of_equal_eyes(self):
        sp = to_semantic(semantic_frame(ear=0.5))
        assert compute_binocular_ear(sp) == pytest.approx(0.5, abs=1e-12)

    def test_one_closed_one_open(self):
        left = hexagon(4.0, 0.0)
        right = hexagon(4.0, 4.0 * 0.5, x0=10.0)
        sp = SemanticPoints(
            left_eye=left,
            right_eye=right,
            mouth=hexagon(6.0, 3.0, y0=20.0),
            nose_tip=(7.0, 10.0),
        )
        assert compute_binocular_ear(sp) == pytest.approx(0.25, abs=1e-12)

    def test_composes_single_eye_results(self):
        rng = random.Random(7)
        for _ in range(50):
            left = hexagon(rng.uniform(2, 8), rng.uniform(0.1, 3), x0=rng.uniform(-5, 5))
            right = hexagon(rng.uniform(2, 8), rng.uniform(0.1, 3), x0=rng.uniform(10, 20))
            sp = SemanticPoints(
                left_eye=left,
                right_eye=right,
                mouth=hexagon(6.0, 3.0, y0=30.0),
                nose_tip=(7.0, 12.0),
            )
            expected = (compute_ear(left) + compute_ear(right)) / 2.0
            assert compute_binocular_ear(sp) == expected


def with_points(pts, **moved):
    """pts with the points at the given p<i> positions (1-based, as in the formula) replaced."""
    pts = list(pts)
    for name, point in moved.items():
        pts[int(name[1:]) - 1] = point
    return tuple(pts)


class TestOverflow:
    # finite coordinates so far apart that a distance or a ratio leaves float range

    @pytest.mark.parametrize("compute, what", [(compute_ear, "eye"), (compute_mar, "mouth")])
    def test_opening_beyond_float_range_is_rejected(self, compute, what):
        pts = with_points(hexagon(4.0, 1.0), p2=(4 / 3, -1.7e308), p6=(4 / 3, 1.7e308))
        with pytest.raises(GeometryError) as err:
            compute(pts)
        assert str(err.value) == f"{what} aspect ratio overflows"

    @pytest.mark.parametrize("p4", [(1e308, 0.0), (2e307, 1e308)], ids=["distance", "doubled"])
    def test_infinite_width_is_rejected_not_read_as_closed(self, p4):
        # 2 * |p1 - p4| overflows: the opening would otherwise divide to 0.0
        pts = with_points(hexagon(4.0, 1.0), p1=(-1e308, 0.0), p4=p4)
        with pytest.raises(GeometryError, match="eye aspect ratio overflows"):
            compute_ear(pts)

    def test_binocular_mean_of_two_huge_ratios_is_finite(self):
        eye = with_points(
            hexagon(0.5, 1.0),
            p2=(0.2, -4e307), p3=(0.3, -4e307), p5=(0.3, 4e307), p6=(0.2, 4e307),
        )
        right = tuple((x + 10.0, y) for x, y in eye)
        sp = SemanticPoints(eye, right, hexagon(6.0, 3.0, y0=20.0), (7.0, 10.0))
        assert compute_ear(eye) == compute_ear(right) == 1.6e308  # finite ratios are kept
        assert compute_binocular_ear(sp) == 1.6e308

    @pytest.mark.parametrize(
        "left_corner, right_corner, nose",
        [
            ((-50.0, -1.7e308), (50.0, -1.7e308), (0.0, 1.7e308)),  # the drop overflows
            ((-1e308, 0.0), (1e308, 0.0), (0.0, 55.0)),  # the inter-ocular distance overflows
        ],
        ids=["drop", "inter-ocular"],
    )
    def test_head_drop_beyond_float_range_is_rejected(self, left_corner, right_corner, nose):
        sp = to_semantic(semantic_frame())
        broken = SemanticPoints(
            left_eye=(left_corner,) + sp.left_eye[1:],
            right_eye=sp.right_eye[:3] + (right_corner,) + sp.right_eye[4:],
            mouth=sp.mouth,
            nose_tip=nose,
        )
        with pytest.raises(GeometryError) as err:
            compute_head_drop(broken)
        assert str(err.value) == "head-drop ratio overflows"

    def test_metric_sample_names_the_frame(self):
        frame = semantic_frame(t=1.5)
        pts = with_points(frame.points, p2=(0.0, -1.7e308), p6=(0.0, 1.7e308))
        with pytest.raises(GeometryError) as err:
            metric_sample(LandmarkFrame(1.5, SEMANTIC, pts, True))
        assert str(err.value) == "frame at t=1.500: eye aspect ratio overflows"


class TestMar:
    def test_symmetric_configuration_is_half(self):
        mouth = ((0.0, 0.0), (1.8, 1.0), (2.2, 1.0), (4.0, 0.0), (2.2, -1.0), (1.8, -1.0))
        assert compute_mar(mouth) == 0.5

    def test_shut_mouth_is_zero(self):
        mouth = ((0.0, 0.0), (1.8, 0.2), (2.2, 0.2), (4.0, 0.0), (2.2, 0.2), (1.8, 0.2))
        assert compute_mar(mouth) == 0.0

    def test_hand_arithmetic_oracle(self):
        assert compute_mar(MAR_ORACLE_POINTS) == pytest.approx(MAR_ORACLE_VALUE, abs=1e-12)

    def test_coincident_corners_degenerate(self):
        mouth = ((2.0, 2.0), (2.0, 3.0), (2.5, 3.0), (2.0, 2.0), (2.5, 1.0), (2.0, 1.0))
        with pytest.raises(GeometryError):
            compute_mar(mouth)


class TestHeadDrop:
    def test_unit_inter_ocular(self):
        sp = to_semantic(semantic_frame(head_drop=1.0, inter_ocular=1.0))
        assert compute_head_drop(sp) == pytest.approx(1.0, abs=1e-12)

    def test_nose_on_eye_line_is_zero(self):
        sp = to_semantic(semantic_frame(head_drop=0.0))
        assert compute_head_drop(sp) == 0.0

    def test_uniform_scaling_invariance(self):
        frame = semantic_frame(head_drop=0.62)
        scaled = frame.points
        scaled = tuple((3.7 * x, 3.7 * y) for x, y in scaled)
        frame_scaled = frame.__class__(
            t=frame.t, scheme=frame.scheme, points=scaled, face_present=True
        )
        a = compute_head_drop(to_semantic(frame))
        b = compute_head_drop(to_semantic(frame_scaled))
        assert b == pytest.approx(a, abs=1e-12)

    def test_coincident_eye_corners_degenerate(self):
        sp = to_semantic(semantic_frame())
        # the right eye's outer corner (p4) collapses onto the left eye's (p1)
        right_eye = sp.right_eye[:3] + (sp.left_eye[0],) + sp.right_eye[4:]
        broken = SemanticPoints(
            left_eye=sp.left_eye,
            right_eye=right_eye,
            mouth=sp.mouth,
            nose_tip=sp.nose_tip,
        )
        with pytest.raises(GeometryError) as err:
            compute_head_drop(broken)
        assert str(err.value) == "degenerate face: eye corners coincide"


def rigid_transform(points, angle, scale, dx, dy):
    c, s = math.cos(angle), math.sin(angle)
    return tuple(
        (scale * (c * x - s * y) + dx, scale * (s * x + c * y) + dy) for x, y in points
    )


@given(
    width=st.floats(min_value=1.0, max_value=50.0),
    opening=st.floats(min_value=0.0, max_value=40.0),
    angle=st.floats(min_value=-math.pi, max_value=math.pi),
    scale=st.floats(min_value=0.25, max_value=4.0),
    dx=st.floats(min_value=-100.0, max_value=100.0),
    dy=st.floats(min_value=-100.0, max_value=100.0),
)
def test_aspect_ratio_rigid_invariance(width, opening, angle, scale, dx, dy):
    pts = hexagon(width, opening)
    moved = rigid_transform(pts, angle, scale, dx, dy)
    assert compute_ear(moved) == pytest.approx(compute_ear(pts), abs=1e-9)
    assert compute_mar(moved) == pytest.approx(compute_mar(pts), abs=1e-9)


def test_aspect_ratio_vertical_pair_swap_symmetry():
    rng = random.Random(11)
    for _ in range(100):
        p = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(6)]
        if p[0] == p[3]:
            continue
        swapped = (p[0], p[2], p[1], p[3], p[5], p[4])  # (2,6) <-> (3,5)
        assert compute_ear(tuple(p)) == compute_ear(swapped)


class TestMetricSample:
    def test_absent_exactly_when_faceless(self, neutral_frame):
        present = metric_sample(neutral_frame)
        assert present.face_present
        assert None not in (present.ear, present.mar, present.head_drop)
        gone = metric_sample(
            neutral_frame.__class__(t=1.0, scheme="semantic", points=(), face_present=False)
        )
        assert not gone.face_present
        assert (gone.ear, gone.mar, gone.head_drop) == (None, None, None)

    def test_non_negative(self, neutral_frame):
        s = metric_sample(neutral_frame)
        assert s.ear >= 0.0 and s.mar >= 0.0


def brute_force_perclos(samples):
    """Independent duration re-summation over (t, closed, monitored) triples."""
    ts = [round(t * 1000.0) for t, _, _ in samples]
    total = closed = 0
    for i, (_, is_closed, monitored) in enumerate(samples):
        if i + 1 < len(samples):
            dur = ts[i + 1] - ts[i]
        else:
            dur = ts[i] - ts[i - 1]
        if monitored:
            total += dur
            if is_closed:
                closed += dur
    if total == 0:
        return None
    return 100.0 * closed / total


class TestPerclos:
    def build(self, triples, duration_s=1e6):
        w = PerclosWindow(duration_s)
        for t, closed, monitored in triples:
            w.append(quantize_ms(t), closed, monitored)
        return w

    def test_all_closed_is_100(self):
        w = self.build([(i * 0.1, True, True) for i in range(10)])
        assert w.perclos() == 100.0

    def test_none_closed_is_0(self):
        w = self.build([(i * 0.1, False, True) for i in range(10)])
        assert w.perclos() == 0.0

    def test_three_of_ten_is_30(self):
        triples = [(i * 0.1, i in (2, 5, 9), True) for i in range(10)]
        w = self.build(triples)
        assert w.perclos() == 30.0

    def test_matches_brute_force_on_random_windows(self):
        rng = random.Random(23)
        for _ in range(300):
            t = 0.0
            triples = []
            for _ in range(rng.randrange(2, 40)):
                t += rng.randrange(1, 200) / 1000.0
                monitored = rng.random() > 0.2
                closed = monitored and rng.random() > 0.5
                triples.append((round(t, 3), closed, monitored))
            expected = brute_force_perclos(triples)
            w = self.build(triples)
            if expected is None:
                with pytest.raises(PerclosUndefinedError):
                    w.perclos()
            else:
                assert w.perclos() == expected
                assert 0.0 <= w.perclos() <= 100.0

    def test_eviction_keeps_window_bounded_and_consistent(self):
        w = PerclosWindow(1.0)
        rng = random.Random(5)
        t = 0.0
        triples = []
        for _ in range(500):
            t += rng.randrange(10, 100) / 1000.0
            monitored = rng.random() > 0.1
            triples.append((round(t, 3), monitored and rng.random() > 0.6, monitored))
            w.append(quantize_ms(triples[-1][0]), *triples[-1][1:])
            # the window keeps each sample at most 1000 ms older than the newest
            cutoff = quantize_ms(triples[-1][0]) - 1000
            in_window = [s for s in triples if quantize_ms(s[0]) >= cutoff]
            expected = brute_force_perclos(in_window)
            if expected is None:
                with pytest.raises(PerclosUndefinedError):
                    w.perclos()
            else:
                assert w.perclos() == expected

    def test_insufficient_data(self):
        w = PerclosWindow(10.0)
        with pytest.raises(PerclosUndefinedError):
            w.perclos()
        w.append(quantize_ms(0.0), False, True)
        with pytest.raises(PerclosUndefinedError):
            w.perclos()
        # two samples, neither monitored: still undefined
        w2 = self.build([(0.0, False, False), (0.1, False, False)])
        with pytest.raises(PerclosUndefinedError):
            w2.perclos()

    def test_out_of_order_rejected(self):
        w = self.build([(0.0, False, True), (0.1, False, True)])
        with pytest.raises(StreamOrderError):
            w.append(quantize_ms(0.1), False, True)

    @pytest.mark.parametrize("duration_s", [0.0, -1.0, 0.0004, 0.0005])
    def test_window_duration_must_be_positive(self, duration_s):
        with pytest.raises(ValueError, match="must be positive"):
            PerclosWindow(duration_s)

    @pytest.mark.parametrize("duration_s", [1e306, math.inf, math.nan])
    def test_window_duration_must_have_a_millisecond_key(self, duration_s):
        # checked before the key is taken: 1e306 s and inf have none, nan compares false
        with pytest.raises(ValueError, match=re.escape(f"positive and at most {MAX_SECONDS!r} s")):
            PerclosWindow(duration_s)

    def test_closed_requires_monitored(self):
        w = PerclosWindow(10.0)
        with pytest.raises(ValueError):
            w.append(quantize_ms(0.0), True, False)
