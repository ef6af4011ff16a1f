"""Landmark frames, indexing schemes, and the adapter onto named semantic points.

Coordinates are 2-D image coordinates with y increasing downward, so "nose
below eye level" is a positive vertical difference. Depth components in
source data are not represented here; parsers drop them.

Each eye is described by the six-point hexagon convention used for aspect
ratios: index 1 and 4 are the horizontal corners, pairs (2, 6) and (3, 5)
are the upper/lower vertical pairs. The mouth uses the same six-point
convention over the inner-lip landmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .errors import ConfigError, GeometryError

Point = tuple[float, float]

DLIB68 = "dlib68"
MESH468 = "mesh468"
SEMANTIC = "semantic"

#: Points per scheme. The semantic scheme carries the 19 distinct points the
#: metrics consume: 6 per eye, 6 inner-lip, and the nose tip; the outer eye
#: corners are the corner members of the eye hexagons, not extra points.
POINT_COUNTS = {DLIB68: 68, MESH468: 468, SEMANTIC: 19}


def quantize_ms(t: float) -> int:
    """Seconds to integer milliseconds, the package-wide timestamp resolution.

    The one key every stream is aligned on and every duration is summed in.
    """
    return round(t * 1000.0)


def check_timestamp(t: float) -> float:
    """The one timestamp rule, for frames and state lines: t, if finite and non-negative."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"timestamp must be finite and non-negative, got {t!r}")
    return t


@dataclass(frozen=True, slots=True)
class LandmarkFrame:
    """One timestamped set of 2-D facial landmarks under a declared scheme.

    Construction is validation, and the only place a frame's validity is
    decided: a known scheme, a timestamp check_timestamp accepts, then for a
    face frame the scheme's point count and finite coordinates. The checks
    run in that fixed order, so a frame with several faults always reports
    the same one.
    """

    t: float
    scheme: str
    points: tuple[Point, ...]
    face_present: bool

    def __post_init__(self):
        if self.scheme not in POINT_COUNTS:
            raise ValueError(f"unknown landmark scheme {self.scheme!r}")
        check_timestamp(self.t)
        if self.face_present:
            expected = POINT_COUNTS[self.scheme]
            if len(self.points) != expected:
                raise ValueError(
                    f"scheme {self.scheme} requires {expected} points, got {len(self.points)}"
                )
            isfinite = math.isfinite
            for x, y in self.points:
                if not (isfinite(x) and isfinite(y)):
                    raise ValueError("landmark coordinates must be finite")
        elif self.points:
            raise ValueError("faceless frame must carry no points")


class SemanticPoints(NamedTuple):
    """Scheme-independent named points consumed by every metric.

    Eye tuples follow the hexagon ordering described in the module docstring;
    the mouth tuple holds the inner-lip hexagon in the same ordering. The
    outer eye corners are hexagon members, not separate fields:
    `left_eye[0]` and `right_eye[3]`.

    A named tuple, built once per face frame: immutable, compared and
    hashed by its fields, and several times cheaper to construct than a
    frozen dataclass, whose __init__ sets each field through
    object.__setattr__.
    """

    left_eye: tuple[Point, ...]
    right_eye: tuple[Point, ...]
    mouth: tuple[Point, ...]
    nose_tip: Point


@dataclass(frozen=True, slots=True)
class SchemeMap:
    """The builtin indices of one scheme's points for each semantic role.

    Every frame is read through the map of its own scheme; there is no
    override. Eye/mouth index groups and the nose tip are pairwise disjoint.
    The outer eye corners are not stored: `eye_corner_indices` derives them
    from the eye hexagons.
    """

    scheme: str
    eye_left_indices: tuple[int, ...]
    eye_right_indices: tuple[int, ...]
    mouth_indices: tuple[int, ...]
    nose_tip_index: int

    @property
    def eye_corner_indices(self) -> tuple[int, int]:
        """The outer eye corners, derived from the hexagons: p1 left, p4 right."""
        return self.eye_left_indices[0], self.eye_right_indices[3]


#: Builtin map for the 68-point layout (0-based indices). Eyes are named by
#: image side: the image-left eye occupies 36..41 with its outer corner at 36,
#: the image-right eye 42..47 with its outer corner at 45. Mouth roles are the
#: inner-lip points: corners 60/64, upper pair 62/63, lower pair 66/65.
DLIB68_MAP = SchemeMap(
    scheme=DLIB68,
    eye_left_indices=(36, 37, 38, 39, 40, 41),
    eye_right_indices=(42, 43, 44, 45, 46, 47),
    mouth_indices=(60, 62, 63, 64, 65, 66),
    nose_tip_index=30,
)

#: Builtin map for the 468-point face mesh, image-side naming as above.
#: The six-point eye sets and inner-lip set are the widely used aspect-ratio
#: landmark choices for this mesh; the mesh itself does not prescribe them.
MESH468_MAP = SchemeMap(
    scheme=MESH468,
    eye_left_indices=(33, 160, 158, 133, 153, 144),
    eye_right_indices=(362, 385, 387, 263, 373, 380),
    mouth_indices=(78, 81, 311, 308, 402, 178),
    nose_tip_index=1,
)

#: Identity map for frames already in the semantic layout:
#: points 0..5 left eye, 6..11 right eye, 12..17 mouth, 18 nose tip.
SEMANTIC_MAP = SchemeMap(
    scheme=SEMANTIC,
    eye_left_indices=(0, 1, 2, 3, 4, 5),
    eye_right_indices=(6, 7, 8, 9, 10, 11),
    mouth_indices=(12, 13, 14, 15, 16, 17),
    nose_tip_index=18,
)

_BUILTIN = {DLIB68: DLIB68_MAP, MESH468: MESH468_MAP, SEMANTIC: SEMANTIC_MAP}


def builtin_scheme_map(scheme: str) -> SchemeMap:
    """Return the builtin map for dlib68 or mesh468.

    Semantic frames need no map (SEMANTIC_MAP is the identity); asking for
    one is treated as a configuration mistake.
    """
    if scheme == SEMANTIC:
        raise ConfigError("semantic frames need no scheme map")
    try:
        return _BUILTIN[scheme]
    except KeyError:
        raise ConfigError(f"no builtin map for scheme {scheme!r}") from None


# itemgetter runs the index selection in C; one set of selectors per scheme
_SELECTORS = {
    scheme: (
        itemgetter(*m.eye_left_indices),
        itemgetter(*m.eye_right_indices),
        itemgetter(*m.mouth_indices),
        m.nose_tip_index,
    )
    for scheme, m in _BUILTIN.items()
}


def to_semantic(frame: LandmarkFrame) -> SemanticPoints | None:
    """Select the named semantic points out of a frame; None when no face.

    The frame is read through the builtin map of its own scheme. A pure
    selection: output coordinates are exactly input coordinates.
    """
    if not frame.face_present:
        return None
    pts = frame.points
    left_of, right_of, mouth_of, nose_i = _SELECTORS[frame.scheme]
    left_eye = left_of(pts)
    right_eye = right_of(pts)
    if left_eye[0] == right_eye[3]:
        raise GeometryError(f"degenerate frame at t={frame.t:.3f}: eye corners coincide")
    return SemanticPoints(left_eye, right_eye, mouth_of(pts), pts[nose_i])
