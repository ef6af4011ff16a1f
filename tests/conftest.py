"""Shared geometry builders for the test suite."""

import pytest

from drowsy.landmarks import POINT_COUNTS, SEMANTIC, LandmarkFrame


def hexagon(width: float, opening: float, x0: float = 0.0, y0: float = 0.0):
    """Six points in aspect-ratio order whose ratio is opening/width...

    ...when both vertical pairs are separated by `opening` and the corners by
    `width`: (opening + opening) / (2 * width).
    """
    return (
        (x0, y0),
        (x0 + width / 3.0, y0 - opening / 2.0),
        (x0 + 2.0 * width / 3.0, y0 - opening / 2.0),
        (x0 + width, y0),
        (x0 + 2.0 * width / 3.0, y0 + opening / 2.0),
        (x0 + width / 3.0, y0 + opening / 2.0),
    )


def semantic_frame(t=0.0, ear=0.32, mar=0.40, head_drop=0.55, inter_ocular=100.0):
    """A face-present semantic frame realizing the given metric values."""
    eye_w = 0.35 * inter_ocular
    left = hexagon(eye_w, ear * eye_w, x0=-inter_ocular / 2.0)
    right = hexagon(eye_w, ear * eye_w, x0=inter_ocular / 2.0 - eye_w)
    mouth_w = 0.45 * inter_ocular
    mouth = hexagon(mouth_w, mar * mouth_w, x0=-mouth_w / 2.0, y0=0.62 * inter_ocular)
    nose = (0.0, head_drop * inter_ocular)
    return LandmarkFrame(
        t=t,
        scheme=SEMANTIC,
        points=left + right + mouth + (nose,),
        face_present=True,
    )


def semantic_roles(scheme_map):
    """The indices of scheme_map's points in semantic order: eyes, mouth, nose tip."""
    m = scheme_map
    return m.eye_left_indices + m.eye_right_indices + m.mouth_indices + (m.nose_tip_index,)


def coincident_corner_frame(scheme_map, t=2.5):
    """A face under scheme_map whose right outer eye corner lies on the left one.

    A semantic face embedded at the map's indices, other points filled in,
    then p4 of the right eye moved onto p1 of the left eye. Every eye and
    mouth hexagon keeps a nonzero width, so only the head-drop ratio, which
    divides by the outer-corner distance, is degenerate.
    """
    pts = [(float(i), float(-i)) for i in range(POINT_COUNTS[scheme_map.scheme])]
    for i, p in zip(semantic_roles(scheme_map), semantic_frame().points):
        pts[i] = p
    left, right = scheme_map.eye_corner_indices
    pts[right] = pts[left]
    return LandmarkFrame(t=t, scheme=scheme_map.scheme, points=tuple(pts), face_present=True)


@pytest.fixture
def neutral_frame():
    return semantic_frame()
