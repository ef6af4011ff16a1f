"""LandmarkFrame and FrameLabel write their own __init__; it behaves as the generated one.

Each class is checked against a twin that dataclass builds from the same
fields, frozen and slotted, with the generated __init__ and, for
LandmarkFrame, the same __post_init__.
"""

import dataclasses
import inspect
import io as stdio
import math

import pytest

from drowsy import io as dio
from drowsy.landmarks import DLIB68, MESH468, SEMANTIC, LandmarkFrame
from drowsy.synth import FrameLabel

from conftest import semantic_frame


def generated_twin(cls):
    """cls's fields in a new frozen, slotted dataclass of the same name, __init__ generated."""
    namespace = {}
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    fields = [(f.name, f.type) for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(
        cls.__name__, fields, namespace=namespace, frozen=True, slots=True
    )


FACE = semantic_frame(t=0.5).points

VALID = [
    (LandmarkFrame, (0.5, SEMANTIC, FACE, True)),
    (LandmarkFrame, (1.25, DLIB68, (), False)),
    (FrameLabel, (0.5, True, False, True, None)),
    (FrameLabel, (1.25, False, None, None, None)),
]
VALID_IDS = ["face-frame", "faceless-frame", "face-label", "faceless-label"]


@pytest.mark.parametrize("cls, args", VALID, ids=VALID_IDS)
def test_positional_and_keyword_construction_match_the_generated_init(cls, args):
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    reference = generated_twin(cls)(*args)
    assert tuple(getattr(by_position, name) for name in names) == args
    assert by_position == by_keyword
    assert repr(by_position) == repr(by_keyword) == repr(reference)
    assert hash(by_position) == hash(by_keyword) == hash(reference) == hash(args)
    # equality also compares the class, as the generated __eq__ does
    assert by_position != reference
    assert not hasattr(by_position, "__dict__")


@pytest.mark.parametrize("cls, args", VALID, ids=VALID_IDS)
def test_argument_errors_match_the_generated_init(cls, args):
    twin = generated_twin(cls)
    for bad_call in (
        lambda c: c(*args[:-1]),
        lambda c: c(*args, None),
        lambda c: c(*args[1:], t=args[0]),
        lambda c: c(*args, extra=1),
    ):
        with pytest.raises(TypeError):
            bad_call(cls)
        with pytest.raises(TypeError):
            bad_call(twin)


@pytest.mark.parametrize("cls, args", VALID, ids=VALID_IDS)
def test_replace_builds_the_same_class(cls, args):
    value = cls(*args)
    moved = dataclasses.replace(value, t=7.5)
    assert type(moved) is cls
    assert moved == cls(7.5, *args[1:])
    assert dataclasses.replace(value) == value


@pytest.mark.parametrize("cls, args", VALID, ids=VALID_IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args):
    value = cls(*args)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, f.name)
    assert value == cls(*args)


@pytest.fixture
def post_init_calls(monkeypatch):
    """The t of each frame whose __post_init__ runs, through a wrapper set on the class.

    The benchmark's tracer counts validation through such a wrapper.
    """
    calls = []
    original = LandmarkFrame.__post_init__

    def counting(self):
        calls.append(self.t)
        original(self)

    monkeypatch.setattr(LandmarkFrame, "__post_init__", counting)
    return calls


def test_post_init_runs_once_per_frame(post_init_calls):
    frame = LandmarkFrame(0.5, SEMANTIC, FACE, True)
    LandmarkFrame(t=0.75, scheme=DLIB68, points=(), face_present=False)
    dataclasses.replace(frame, t=1.0)
    with pytest.raises(ValueError):
        LandmarkFrame(2.0, SEMANTIC, FACE[:-1], True)
    assert post_init_calls == [0.5, 0.75, 1.0, 2.0]


def test_every_frame_read_is_validated_once(post_init_calls):
    frames = [semantic_frame(t=0.1), LandmarkFrame(0.2, SEMANTIC, (), False), semantic_frame(t=0.3)]
    out = stdio.StringIO()
    dio.write_frames(out, frames)
    post_init_calls.clear()
    read = list(dio.read_frames(stdio.StringIO(out.getvalue())))
    assert [frame.t for frame in read] == post_init_calls == [0.1, 0.2, 0.3]


INVALID_FRAMES = {
    "unknown-scheme": (0.5, "dlib5", (), False),
    "unhashable-scheme": (0.5, ["semantic"], (), False),
    "scheme-not-a-string": (0.5, None, (), False),
    "negative-t": (-1.0, SEMANTIC, (), False),
    "infinite-t": (math.inf, SEMANTIC, (), False),
    "nan-t": (math.nan, SEMANTIC, FACE, True),
    "t-without-a-millisecond-key": (1e306, SEMANTIC, (), False),
    "t-not-a-number": ("0.5", SEMANTIC, (), False),
    "one-point-short": (0.5, SEMANTIC, FACE[:-1], True),
    "face-without-points": (0.5, MESH468, (), True),
    "infinite-x": (0.5, SEMANTIC, ((math.inf, 0.0),) + FACE[1:], True),
    "nan-y": (0.5, SEMANTIC, FACE[:18] + ((0.0, math.nan),), True),
    "three-coordinates": (0.5, SEMANTIC, ((0.0, 0.0, 0.0),) + FACE[1:], True),
    "points-on-a-faceless-frame": (0.5, SEMANTIC, FACE, False),
    "bad-scheme-and-t": (-1.0, "dlib5", FACE, True),
    "bad-t-and-count": (math.inf, SEMANTIC, FACE[:3], True),
}


@pytest.mark.parametrize("args", INVALID_FRAMES.values(), ids=INVALID_FRAMES.keys())
def test_invalid_frame_raises_what_the_generated_init_raises(args):
    with pytest.raises(Exception) as ours:
        LandmarkFrame(*args)
    with pytest.raises(Exception) as generated:
        generated_twin(LandmarkFrame)(*args)
    assert type(ours.value) is type(generated.value)
    assert str(ours.value) == str(generated.value)
