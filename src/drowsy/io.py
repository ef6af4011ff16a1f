"""File formats: landmark streams, profiles, label/state streams, scripts, logs.

All streams are JSON lines, one object per line, parsed independently, so
processing stays line-at-a-time and memory-bounded. Written numbers use a
fixed shape (timestamps at millisecond precision, coordinates and metric
values at six decimals; documents use shortest-round-trip floats), which
makes every writer canonical: write -> read -> write is byte-identical,
and identical runs produce identical bytes.

Line formats (field order as written):
  frames   {"t": 1.234, "scheme": "semantic", "face": true, "points": [[x, y], ...]}
  labels   {"t": 1.234, "face": true, "eye": "open|closed", "mouth": "yawn|normal", "head": "up|down"}
           ("head" is optional and left out when unknown)
  records  face labels plus "ear", "mar", "head_drop", "perclos", faceless ones
           plus "perclos" only (null: a face record's missing metric, or a
           PERCLOS that the window cannot give yet)
  events   {"kind": "...", "onset_t": 1.2, "emitted_t": 2.2, "value": 0.1, "threshold": 0.2}

Every frame, label and record line is one "%" from a table of format
strings, keyed by the shape of the line: a frame's scheme and face, a
label's state tail (see below), a record's state tail and null values.

Documents are single JSON objects, and write_document is their one
writer: it adds FORMAT_VERSION as "format_version", then writes sorted
keys, two-space indent and a final newline. A profile's or a script's keys
are the fields of its dataclass (CalibrationProfile plus "created_at";
SessionScript with nested DriverParams and ScriptEvent objects), so the
dataclass is the schema: every float field is read as a finite number. The
eval and compare reports use the same writer; a report's channel entry
holds the fields of eval.ChannelEval. Unknown keys are ignored on read and
never emitted on write, and a missing one reads "missing field 'name'". A
third coordinate in frame points (mesh depth) is accepted on read and
dropped.

A state line's text after its timestamp is one of 13 tails: the faceless
one, keyed False, and one per face-present (eye, mouth, head). One table,
built from EYE_STATES, MOUTH_STATES and HEAD_STATES, holds them; the
label and record tables are built from it, and the state readers look a
line of the written shape {"t": <fraction><tail>} up in its inverse, so a
line written as write_labels writes it skips the decoder and converts only
its timestamp. Every other line, records included, takes the full decode.
Nothing is remembered between lines, so values, messages and line numbers
do not depend on what was read before.

Alignment between streams is defined at millisecond resolution:
landmarks.quantize_ms is the single timestamp key used everywhere.
"""

from __future__ import annotations

import json
import math
import os
import re
import time as _time
from contextlib import contextmanager
from dataclasses import asdict, fields
from itertools import chain, product, starmap
from typing import IO, Iterable, Iterator

from .calibration import CalibrationProfile
from .errors import ConfigError, ParseError, StreamOrderError, VersionError
from .landmarks import POINT_COUNTS, LandmarkFrame, Point, check_timestamp, quantize_ms
from .pipeline import ALL_EVENT_KINDS, AlertEvent, FrameRecord
from .synth import DriverParams, FrameLabel, ScriptEvent, SessionScript

FORMAT_VERSION = 1

EYE_STATES = {"open": False, "closed": True}
MOUTH_STATES = {"normal": False, "yawn": True}
HEAD_STATES = {"up": False, "down": True}


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


# one decoder for every line (json.loads with parse_constant= builds one per call)
_decoder = json.JSONDecoder(parse_constant=_reject_constant)
_loads = _decoder.decode
_scan = _decoder.scan_once


# the decoder recurses once per nesting level, so a deep enough line would
# escape every reader as a RecursionError
_TOO_DEEP = "JSON nested too deeply"


def _decode(line: str):
    """Decode one stripped line with a single scanner call.

    decode() adds two whitespace scans that a stripped line does not need.
    A line the scanner does not take whole goes back through _loads, so
    every error message is decode()'s, except for nesting beyond the
    recursion limit, which reads _TOO_DEEP.
    """
    try:
        obj, end = _scan(line, 0)
    except (StopIteration, ValueError):
        return _loads(line)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    if end != len(line):
        return _loads(line)
    return obj


def _number(obj: dict, key: str) -> float:
    """A number field as a float; beyond float range it reads as +-inf, as 1e400 does."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite(obj: dict, key: str) -> float:
    """A number field that must be finite (timestamps have their own check)."""
    value = _number(obj, key)
    if not math.isfinite(value):
        raise ValueError(f"field {key!r} must be finite, got {value!r}")
    return value


def _boolean(obj: dict, key: str) -> bool:
    value = obj[key]
    if not isinstance(value, bool):
        raise ValueError(f"field {key!r} must be a boolean")
    return value


def _lines(source: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) pairs; a blank line is left to _line_error."""
    return enumerate(map(str.strip, source), 1)


def _message(exc: Exception) -> str:
    """The text of a reader's error; a KeyError is a field the object lacks."""
    if isinstance(exc, KeyError):
        return f"missing field {exc.args[0]!r}"
    return str(exc)


def _line_error(exc: Exception, line: str, line_no: int) -> ParseError:
    """The ParseError for a line a reader rejected: a blank line fails to decode."""
    return ParseError(_message(exc) if line else "blank line", line_no)


# --- landmark frame streams -------------------------------------------------

def _convert_points(raw_points: list) -> tuple[Point, ...]:
    """A decoded points array as (x, y) floats.

    The general path: it takes ints as well as floats, drops a depth
    component and raises on anything that is not [x, y] or [x, y, z]
    numbers, at the first bad point.
    """
    points = []
    append = points.append
    for p in raw_points:
        if type(p) is not list or not 2 <= len(p) <= 3:
            raise ValueError("each point must be [x, y] or [x, y, z]")
        x, y = p[0], p[1]
        if type(x) is not float or type(y) is not float:
            # exact type checks: json numbers only (bool is not a coordinate)
            if type(x) is not float and type(x) is not int:
                raise ValueError("point coordinates must be numbers")
            if type(y) is not float and type(y) is not int:
                raise ValueError("point coordinates must be numbers")
            x, y = float(x), float(y)  # OverflowError for a huge integer
        append((x, y))
    return tuple(points)


def _points(raw_points: list) -> tuple[Point, ...]:
    """_convert_points, with a fast path for arrays of [x, y] float pairs.

    The written form of every frame. One loop unpacks each pair and checks
    that both coordinates are exactly floats; then the pairs become tuples
    in C. In a decoded JSON array two floats can only come from a
    two-element list (a dict or a string unpacks to strings), so the fast
    path accepts exactly the arrays _convert_points accepts unchanged. Any
    other array, including one whose unpacking raises, goes through
    _convert_points, so its values and errors are that path's.
    """
    try:
        for x, y in raw_points:
            if type(x) is not float or type(y) is not float:
                break
        else:
            return tuple(map(tuple, raw_points))
    except (TypeError, ValueError):
        pass
    return _convert_points(raw_points)


def read_frames(source: Iterable[str]) -> Iterator[LandmarkFrame]:
    """Parse a frame stream; timestamps must strictly increase.

    The reader checks the line's shape, its scheme and each coordinate's
    type; LandmarkFrame decides the rest (timestamp, point count, finite
    coordinates).
    """
    last_ms: int | None = None
    for line_no, line in _lines(source):
        try:
            obj = _decode(line)
            if not isinstance(obj, dict):
                raise ValueError("frame line must be a JSON object")
            t = obj["t"]
            if type(t) is not float:
                t = _number(obj, "t")
            scheme = obj["scheme"]
            # an array or object is no scheme, and unhashable
            if type(scheme) is not str or scheme not in POINT_COUNTS:
                raise ValueError(f"unknown scheme {scheme!r}")
            face = obj["face"]
            if type(face) is not bool:
                face = _boolean(obj, "face")
            raw_points = obj["points"]
            if not isinstance(raw_points, list):
                raise ValueError("points must be an array")
            frame = LandmarkFrame(t, scheme, _points(raw_points), face)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise _line_error(exc, line, line_no) from None
        t_ms = quantize_ms(frame.t)
        if last_ms is not None and t_ms <= last_ms:
            raise StreamOrderError(
                f"timestamp {frame.t:.3f} does not advance past {last_ms / 1000.0:.3f}", line_no
            )
        last_ms = t_ms
        yield frame


# Every frame line, one "%" away from (t, x, y, x, y, ...), keyed by scheme
# and face (a LandmarkFrame holds exactly its scheme's point count, and a
# faceless one none); "%.6f" writes the same text as f"{v:.6f}" for float,
# int and bool coordinates.
_FRAME_FORMATS = {
    (scheme, face): f'{{"t": %.3f, "scheme": "{scheme}", "face": {"true" if face else "false"}, '
    f'"points": [{", ".join(["[%.6f, %.6f]"] * (count if face else 0))}]}}\n'
    for scheme, count in POINT_COUNTS.items()
    for face in (False, True)
}


def write_frames(sink: IO[str], frames: Iterable[LandmarkFrame]) -> None:
    for frame in frames:
        line = _FRAME_FORMATS[frame.scheme, frame.face_present]
        sink.write(line % (frame.t, *chain.from_iterable(frame.points)))


# --- label / external-state / record streams --------------------------------

def _parse_state(obj: dict, key: str, table: dict[str, bool]) -> bool:
    value = obj[key]
    # an array or object is no state, and unhashable
    if type(value) is not str or value not in table:
        raise ValueError(f"field {key!r} must be one of {sorted(table)}, got {value!r}")
    return table[value]


def _state_fields(obj: dict) -> tuple:
    """The fields after the timestamp of a decoded state line, in FrameLabel order."""
    face = obj["face"]
    if type(face) is not bool:
        face = _boolean(obj, "face")
    if not face:
        return False, None, None, None
    eye = _parse_state(obj, "eye", EYE_STATES)
    mouth = _parse_state(obj, "mouth", MOUTH_STATES)
    head = _parse_state(obj, "head", HEAD_STATES) if "head" in obj else None
    return True, eye, mouth, head


# The written text of each state line between the timestamp and the closing brace
# ("head" left out when unknown), keyed face and (eye, mouth, head): False if faceless.
_HEAD_TEXTS = {None: "", **{flag: f', "head": "{name}"' for name, flag in HEAD_STATES.items()}}
_STATE_TAILS = {
    (eye, mouth, head): f', "face": true, "eye": "{eye_name}", "mouth": "{mouth_name}"{head_text}'
    for eye_name, eye in EYE_STATES.items()
    for mouth_name, mouth in MOUTH_STATES.items()
    for head, head_text in _HEAD_TEXTS.items()
} | {False: ', "face": false'}

# The inverse, closing brace included: written tail -> fields after the timestamp.
_TAIL_FIELDS = {
    tail + "}": (True, *states) if states else (False, None, None, None)
    for states, tail in _STATE_TAILS.items()
}

# The written head of a state line: a JSON number with a fraction and no
# exponent (float() reads it exactly as the decoder does), then the rest.
_state_head = re.compile(r'\{"t": (-?(?:0|[1-9][0-9]*)\.[0-9]+)(.*)', re.DOTALL).match


def _states(source: Iterable[str]) -> Iterator[tuple]:
    """The fields of each label/state line, in FrameLabel order.

    A line whose tail _TAIL_FIELDS holds costs one regex match and one
    float(); any other line is decoded whole, so its values, messages and
    the order in which its faults are reported are the full decode's.
    """
    for line_no, line in _lines(source):
        try:
            head = _state_head(line)
            fields = None if head is None else _TAIL_FIELDS.get(head[2])
            if fields is not None:
                t = check_timestamp(float(head[1]))
            else:
                obj = _decode(line)
                if not isinstance(obj, dict):
                    raise ValueError("state line must be a JSON object")
                t = obj["t"]
                if type(t) is not float:
                    t = _number(obj, "t")
                t = check_timestamp(t)
                fields = _state_fields(obj)
        except (ValueError, KeyError, TypeError) as exc:
            raise _line_error(exc, line, line_no) from None
        yield (t, *fields)


def read_states(source: Iterable[str]) -> Iterator[FrameLabel]:
    """Parse label/state lines; face-present lines need eye and mouth states."""
    return starmap(FrameLabel, _states(source))


def load_external_states(source: Iterable[str]) -> dict[int, tuple[bool, bool]]:
    """Build the per-frame external classifier map keyed by millisecond timestamp.

    _states yields one tuple per line (a blank line raises), so counting
    the tuples from 1 numbers the lines.
    """
    states: dict[int, tuple[bool, bool]] = {}
    for line_no, (t, face, eye, mouth, _) in enumerate(_states(source), 1):
        if not face:
            continue
        key = quantize_ms(t)
        if key in states:
            raise ParseError(f"duplicate external state at t={t:.3f}", line_no)
        states[key] = (eye, mouth)
    return states


# Every label line, one "%" away from its t, keyed as _STATE_TAILS is (so a
# face-present label without an eye or mouth state has no line).
_LABEL_FORMATS = {states: f'{{"t": %.3f{tail}}}\n' for states, tail in _STATE_TAILS.items()}


def write_labels(sink: IO[str], labels: Iterable) -> None:
    """Write per-frame labels; accepts any objects with the state attributes."""
    for lab in labels:
        line = _LABEL_FORMATS[lab.face_present and (lab.eye_closed, lab.mouth_yawn, lab.head_down)]
        sink.write(line % lab.t)


# A written value: "%.6f" (the text of f"{v:.6f}" for float, int and bool),
# or for None "null%.0s", which writes null and consumes the argument.
_VALUE_FORMATS = {False: "%.6f", True: "null%.0s"}


def _record_format(states, absent: tuple[bool, ...]) -> str:
    """The line of a record with these states; absent says which of its four values are None."""
    ear, mar, head_drop, perclos = (_VALUE_FORMATS[a] for a in absent)
    metrics = "%.0s%.0s%.0s"  # a faceless line consumes its metrics unwritten
    if states:
        metrics = f', "ear": {ear}, "mar": {mar}, "head_drop": {head_drop}'
    return f'{{"t": %.3f{_STATE_TAILS[states]}{metrics}, "perclos": {perclos}}}\n'


# Every record line, one "%" away from (t, ear, mar, head_drop, perclos),
# keyed as _STATE_TAILS is and by which of the four are None.
_RECORD_FORMATS = {
    (states, *absent): _record_format(states, absent)
    for states in _STATE_TAILS
    for absent in product((False, True), repeat=4)
}


def write_records(sink: IO[str], records: Iterable[FrameRecord]) -> None:
    """Write per-frame pipeline records (a superset of the label format).

    A face-present record needs eye and mouth states; a faceless one
    writes only its t and perclos.
    """
    for t, face, ear, mar, head_drop, eye, mouth, head, perclos in records:
        line = _RECORD_FORMATS[
            face and (eye, mouth, head), ear is None, mar is None, head_drop is None, perclos is None
        ]
        sink.write(line % (t, ear, mar, head_drop, perclos))


# --- event logs ---------------------------------------------------------------

def write_events(sink: IO[str], events: Iterable[AlertEvent]) -> None:
    for ev in events:
        sink.write(
            f'{{"kind": "{ev.kind}", "onset_t": {ev.onset_t:.3f}, '
            f'"emitted_t": {ev.emitted_t:.3f}, "value": {ev.value:.6f}, '
            f'"threshold": {ev.threshold:.6f}}}\n'
        )


def read_events(source: Iterable[str]) -> Iterator[AlertEvent]:
    last_emitted: float | None = None
    for line_no, line in _lines(source):
        try:
            obj = _decode(line)
            if not isinstance(obj, dict):
                raise ValueError("event line must be a JSON object")
            kind = obj["kind"]
            if kind not in ALL_EVENT_KINDS:
                raise ValueError(f"unknown event kind {kind!r}")
            onset = _finite(obj, "onset_t")
            emitted = _finite(obj, "emitted_t")
            if emitted < onset:
                raise ValueError("emitted_t cannot precede onset_t")
            event = AlertEvent(
                kind=kind,
                onset_t=onset,
                emitted_t=emitted,
                value=_finite(obj, "value"),
                threshold=_finite(obj, "threshold"),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise _line_error(exc, line, line_no) from None
        if last_emitted is not None and event.emitted_t < last_emitted:
            raise ParseError("event log must be ordered by emitted_t", line_no)
        last_emitted = event.emitted_t
        yield event


# --- documents: calibration profiles and session scripts -----------------------

def write_document(sink: IO[str], doc: dict) -> None:
    """Write doc and its FORMAT_VERSION canonically: sorted keys, two-space indent, newline."""
    sink.write(json.dumps({**doc, "format_version": FORMAT_VERSION}, sort_keys=True, indent=2))
    sink.write("\n")


def _read_document(source: IO[str], what: str) -> dict:
    """Parse one document: a JSON object carrying the supported format_version."""
    try:
        doc = _loads(source.read())
        if not isinstance(doc, dict):
            raise ValueError(f"{what} must be a JSON object")
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from None
    except RecursionError:
        raise ParseError(f"{what}: {_TOO_DEEP}") from None
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported {what} format_version {version!r}")
    return doc


def _floats(cls, obj: dict) -> dict[str, float]:
    """The float fields of document dataclass cls, read from obj in field order."""
    # annotations are strings here (from __future__ import annotations)
    return {f.name: _finite(obj, f.name) for f in fields(cls) if f.type == "float"}


def default_created_at() -> str:
    """Reproducible creation stamp: SOURCE_DATE_EPOCH (integer seconds), else the epoch."""
    raw = os.environ.get("SOURCE_DATE_EPOCH", "0")
    try:
        return _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime(int(raw)))
    except (ValueError, OverflowError, OSError):
        raise ConfigError(
            f"SOURCE_DATE_EPOCH must be an integer number of seconds in range, got {raw!r}"
        ) from None


def write_profile(sink: IO[str], profile: CalibrationProfile) -> None:
    write_document(sink, {"created_at": default_created_at(), **asdict(profile)})


def read_profile(source: IO[str]) -> CalibrationProfile:
    doc = _read_document(source, "profile")
    try:
        floats = _floats(CalibrationProfile, doc)
        frames_used = doc["frames_used"]
        if isinstance(frames_used, bool) or not isinstance(frames_used, int) or frames_used < 0:
            raise ValueError("frames_used must be a non-negative integer")
        personalized = _boolean(doc, "personalized")
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"profile: {_message(exc)}") from None
    return CalibrationProfile(frames_used=frames_used, personalized=personalized, **floats)


def write_script(sink: IO[str], script: SessionScript) -> None:
    write_document(sink, asdict(script))


@contextmanager
def _within(name: str):
    """Prefix a fault raised while reading a nested object with its name, as events[1]."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{name}: {_message(exc)}") from None


def read_script(source: IO[str]) -> SessionScript:
    doc = _read_document(source, "script")
    try:
        driver_doc = doc["driver"]
        if not isinstance(driver_doc, dict):
            raise ValueError("driver must be an object")
        with _within("driver"):
            driver = DriverParams(**_floats(DriverParams, driver_doc))
        events_doc = doc["events"]
        if not isinstance(events_doc, list):
            raise ValueError("events must be an array")
        events = []
        for i, ev in enumerate(events_doc):
            if not isinstance(ev, dict):
                raise ValueError("each event must be an object")
            with _within(f"events[{i}]"):
                if not isinstance(ev.get("kind"), str):
                    raise ValueError("event kind must be a string")
                events.append(ScriptEvent(kind=ev["kind"], **_floats(ScriptEvent, ev)))
        seed = doc["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError("seed must be an integer")
        return SessionScript(
            driver=driver, events=tuple(events), seed=seed, **_floats(SessionScript, doc)
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"script: {_message(exc)}") from None
