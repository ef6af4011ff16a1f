import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from drowsy.errors import ConfigError, GeometryError
from drowsy.landmarks import (
    DLIB68,
    DLIB68_MAP,
    MESH468,
    MESH468_MAP,
    POINT_COUNTS,
    SEMANTIC,
    SEMANTIC_MAP,
    LandmarkFrame,
    SemanticPoints,
    builtin_scheme_map,
    to_semantic,
)

from conftest import semantic_frame


def faceless(t=0.0, scheme=SEMANTIC):
    return LandmarkFrame(t=t, scheme=scheme, points=(), face_present=False)


class TestLandmarkFrame:
    def test_point_count_enforced_per_scheme(self):
        for scheme, count in POINT_COUNTS.items():
            pts = tuple((float(i), 0.0) for i in range(count))
            frame = LandmarkFrame(t=0.0, scheme=scheme, points=pts, face_present=True)
            assert len(frame.points) == count
            with pytest.raises(ValueError):
                LandmarkFrame(t=0.0, scheme=scheme, points=pts[:-1], face_present=True)

    def test_faceless_frame_has_no_points(self):
        assert faceless().points == ()
        with pytest.raises(ValueError):
            LandmarkFrame(t=0.0, scheme=SEMANTIC, points=((1.0, 2.0),), face_present=False)

    def test_rejects_non_finite(self):
        good = [(float(i), 0.0) for i in range(19)]
        for bad in (math.inf, -math.inf, math.nan):
            for at in (0, 9, 18):
                for axis in (0, 1):
                    pts = list(good)
                    pts[at] = (bad, 0.0) if axis == 0 else (float(at), bad)
                    with pytest.raises(ValueError, match="landmark coordinates must be finite"):
                        LandmarkFrame(0.0, SEMANTIC, tuple(pts), True)
                    # validity is the frame's own decision: no caller can vouch for the points
                    with pytest.raises(TypeError):
                        LandmarkFrame(0.0, SEMANTIC, tuple(pts), True, finite=True)
        with pytest.raises(ValueError):
            LandmarkFrame(t=float("inf"), scheme=SEMANTIC, points=(), face_present=False)
        with pytest.raises(ValueError):
            LandmarkFrame(t=-1.0, scheme=SEMANTIC, points=(), face_present=False)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            LandmarkFrame(t=0.0, scheme="dlib5", points=(), face_present=False)


class TestSchemeMaps:
    def test_builtin_dlib68_mouth_is_inner_lip(self):
        m = builtin_scheme_map(DLIB68)
        assert m.mouth_indices == (60, 62, 63, 64, 65, 66)
        assert m.eye_left_indices == (36, 37, 38, 39, 40, 41)
        assert m.eye_right_indices == (42, 43, 44, 45, 46, 47)
        assert m.eye_corner_indices == (36, 45)

    def test_builtin_mesh468_indices_distinct(self):
        m = builtin_scheme_map(MESH468)
        core = (
            m.eye_left_indices + m.eye_right_indices + m.mouth_indices + (m.nose_tip_index,)
        )
        assert len(set(core)) == 19

    def test_semantic_needs_no_map(self):
        with pytest.raises(ConfigError):
            builtin_scheme_map(SEMANTIC)

    @pytest.mark.parametrize(
        "m, corners",
        [(DLIB68_MAP, (36, 45)), (MESH468_MAP, (33, 263)), (SEMANTIC_MAP, (0, 9))],
        ids=[DLIB68, MESH468, SEMANTIC],
    )
    def test_builtin_map_invariants(self, m, corners):
        groups = (m.eye_left_indices, m.eye_right_indices, m.mouth_indices)
        assert all(len(group) == 6 for group in groups)
        core = m.eye_left_indices + m.eye_right_indices + m.mouth_indices + (m.nose_tip_index,)
        assert len(set(core)) == 19
        n = POINT_COUNTS[m.scheme]
        assert all(isinstance(i, int) and 0 <= i < n for i in core)
        # the outer corners are hexagon members (left p1, right p4), not extra points
        assert m.eye_corner_indices == corners


class TestToSemantic:
    def test_faceless_gives_absent(self):
        assert to_semantic(faceless()) is None
        assert to_semantic(faceless(scheme=DLIB68)) is None

    def test_semantic_identity_pass_through(self):
        frame = semantic_frame()
        sp = to_semantic(frame)
        assert sp.left_eye == frame.points[0:6]
        assert sp.right_eye == frame.points[6:12]
        assert sp.mouth == frame.points[12:18]
        assert sp.nose_tip == frame.points[18]

    def test_semantic_points_are_immutable_in_field_order(self):
        sp = to_semantic(semantic_frame())
        assert SemanticPoints._fields == ("left_eye", "right_eye", "mouth", "nose_tip")
        for name in SemanticPoints._fields:
            with pytest.raises(AttributeError):
                setattr(sp, name, ())
        by_keyword = SemanticPoints(
            left_eye=sp.left_eye, right_eye=sp.right_eye, mouth=sp.mouth, nose_tip=sp.nose_tip
        )
        assert by_keyword == sp and hash(by_keyword) == hash(sp)

    def test_dlib68_left_eye_selection(self):
        # sentinel coordinates at 36..41 must pass through untouched, in order
        pts = [(float(i), float(i) / 7.0) for i in range(68)]
        sentinels = tuple((1000.0 + i, -17.0 - i) for i in range(6))
        pts[36:42] = sentinels
        frame = LandmarkFrame(t=0.0, scheme=DLIB68, points=tuple(pts), face_present=True)
        sp = to_semantic(frame)
        assert sp.left_eye == sentinels

    @pytest.mark.parametrize("m", [SEMANTIC_MAP, DLIB68_MAP, MESH468_MAP], ids=lambda m: m.scheme)
    def test_coincident_eye_corners_rejected(self, m):
        # embed a semantic face, then collapse the right outer corner onto the left one
        roles = m.eye_left_indices + m.eye_right_indices + m.mouth_indices + (m.nose_tip_index,)
        pts = [(float(i), float(-i)) for i in range(POINT_COUNTS[m.scheme])]
        for i, p in zip(roles, semantic_frame().points):
            pts[i] = p
        left, right = m.eye_corner_indices
        pts[right] = pts[left]
        frame = LandmarkFrame(t=2.5, scheme=m.scheme, points=tuple(pts), face_present=True)
        with pytest.raises(GeometryError) as err:
            to_semantic(frame)
        assert str(err.value) == "degenerate frame at t=2.500: eye corners coincide"


coordinate = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
point = st.tuples(coordinate, coordinate)


@given(st.tuples(*([point] * 19)))
def test_to_semantic_is_pure_selection(points):
    assume(points[0] != points[9])  # outer eye corners must be distinct
    frame = LandmarkFrame(t=0.0, scheme=SEMANTIC, points=points, face_present=True)
    sp = to_semantic(frame)
    selected = sp.left_eye + sp.right_eye + sp.mouth + (sp.nose_tip,)
    assert selected == points


@pytest.mark.parametrize("scheme", [DLIB68, MESH468])
@given(points=st.tuples(*([point] * 19)), seed=st.integers(min_value=0))
def test_scheme_routes_to_builtin_map(scheme, points, seed):
    # semantic point i goes to the index its role has in the scheme's builtin map
    assume(points[0] != points[9])  # outer eye corners must be distinct
    semantic = LandmarkFrame(t=0.0, scheme=SEMANTIC, points=points, face_present=True)
    m = builtin_scheme_map(scheme)
    roles = m.eye_left_indices + m.eye_right_indices + m.mouth_indices + (m.nose_tip_index,)
    filler = random.Random(seed).uniform
    embedded = [(filler(-1e6, 1e6), filler(-1e6, 1e6)) for _ in range(POINT_COUNTS[scheme])]
    for i, p in zip(roles, points):
        embedded[i] = p
    frame = LandmarkFrame(t=0.0, scheme=scheme, points=tuple(embedded), face_present=True)
    assert to_semantic(frame) == to_semantic(semantic)
