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
  records  labels plus "ear", "mar", "head_drop", "perclos" (null when absent)
  events   {"kind": "...", "onset_t": 1.2, "emitted_t": 2.2, "value": 0.1, "threshold": 0.2}

Documents (single canonical JSON object): calibration profiles and session
scripts, both carrying format_version. Unknown keys are ignored on read and
never emitted on write. A third coordinate in frame points (mesh depth) is
accepted on read and dropped.

Alignment between streams is defined at millisecond resolution:
landmarks.quantize_ms is the single timestamp key used everywhere.
"""

from __future__ import annotations

import json
import math
import os
import time as _time
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .calibration import CalibrationProfile
from .errors import ParseError, StreamOrderError, VersionError
from .landmarks import POINT_COUNTS, LandmarkFrame, quantize_ms
from .pipeline import ALL_EVENT_KINDS, AlertEvent
from .synth import DriverParams, ScriptEvent, SessionScript

FORMAT_VERSION = 1

EYE_STATES = {"open": False, "closed": True}
MOUTH_STATES = {"normal": False, "yawn": True}
HEAD_STATES = {"up": False, "down": True}


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _loads(line: str):
    return json.loads(line, parse_constant=_reject_constant)


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
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            raise ParseError("blank line", line_no)
        yield line_no, line


# --- landmark frame streams -------------------------------------------------

def read_frames(source: Iterable[str]) -> Iterator[LandmarkFrame]:
    """Parse a frame stream; timestamps must strictly increase."""
    last_ms: int | None = None
    for line_no, line in _lines(source):
        try:
            obj = _loads(line)
            if not isinstance(obj, dict):
                raise ValueError("frame line must be a JSON object")
            t = _number(obj, "t")
            scheme = obj["scheme"]
            if scheme not in POINT_COUNTS:
                raise ValueError(f"unknown scheme {scheme!r}")
            face = _boolean(obj, "face")
            raw_points = obj["points"]
            if not isinstance(raw_points, list):
                raise ValueError("points must be an array")
            points = []
            append = points.append
            for p in raw_points:
                if type(p) is not list or not 2 <= len(p) <= 3:
                    raise ValueError("each point must be [x, y] or [x, y, z]")
                x, y = p[0], p[1]
                # exact type checks: json numbers only (bool is not a coordinate)
                if type(x) is not float and type(x) is not int:
                    raise ValueError("point coordinates must be numbers")
                if type(y) is not float and type(y) is not int:
                    raise ValueError("point coordinates must be numbers")
                append((float(x), float(y)))  # OverflowError for a huge integer
            frame = LandmarkFrame(t=t, scheme=scheme, points=tuple(points), face_present=face)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ParseError(str(exc), line_no) from None
        t_ms = quantize_ms(frame.t)
        if last_ms is not None and t_ms <= last_ms:
            raise StreamOrderError(
                f"timestamp {frame.t:.3f} does not advance past {last_ms / 1000.0:.3f}", line_no
            )
        last_ms = t_ms
        yield frame


def write_frames(sink: IO[str], frames: Iterable[LandmarkFrame]) -> int:
    n = 0
    for frame in frames:
        pts = ", ".join(f"[{x:.6f}, {y:.6f}]" for x, y in frame.points)
        face = "true" if frame.face_present else "false"
        sink.write(
            f'{{"t": {frame.t:.3f}, "scheme": "{frame.scheme}", "face": {face}, "points": [{pts}]}}\n'
        )
        n += 1
    return n


# --- label / external-state / record streams --------------------------------

@dataclass(frozen=True, slots=True)
class StateRecord:
    """One parsed label or external-state line (channel states as booleans)."""

    t: float
    face_present: bool
    eye_closed: bool | None
    mouth_yawn: bool | None
    head_down: bool | None


def _parse_state(obj: dict, key: str, table: dict[str, bool]) -> bool:
    value = obj[key]
    if value not in table:
        raise ValueError(f"field {key!r} must be one of {sorted(table)}, got {value!r}")
    return table[value]


def read_states(source: Iterable[str]) -> Iterator[StateRecord]:
    """Parse label/state lines; face-present lines need eye and mouth states."""
    for line_no, line in _lines(source):
        try:
            obj = _loads(line)
            if not isinstance(obj, dict):
                raise ValueError("state line must be a JSON object")
            t = _number(obj, "t")
            if not (math.isfinite(t) and t >= 0.0):
                raise ValueError(f"timestamp must be finite and non-negative, got {t!r}")
            face = _boolean(obj, "face")
            if face:
                eye = _parse_state(obj, "eye", EYE_STATES)
                mouth = _parse_state(obj, "mouth", MOUTH_STATES)
                head = _parse_state(obj, "head", HEAD_STATES) if "head" in obj else None
            else:
                eye = mouth = head = None
            yield StateRecord(
                t=t, face_present=face, eye_closed=eye, mouth_yawn=mouth, head_down=head
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(str(exc), line_no) from None


def load_external_states(source: Iterable[str]) -> dict[int, tuple[bool, bool]]:
    """Build the per-frame external classifier map keyed by millisecond timestamp."""
    states: dict[int, tuple[bool, bool]] = {}
    for rec in read_states(source):
        if not rec.face_present:
            continue
        key = quantize_ms(rec.t)
        if key in states:
            raise ParseError(f"duplicate external state at t={rec.t:.3f}")
        states[key] = (rec.eye_closed, rec.mouth_yawn)
    return states


def _json_names(table: dict[str, bool]) -> dict[bool | None, str]:
    # reverse of a state table: flag -> quoted JSON name, None -> null
    names: dict[bool | None, str] = {flag: f'"{name}"' for name, flag in table.items()}
    names[None] = "null"
    return names


_EYE_JSON = _json_names(EYE_STATES)
_MOUTH_JSON = _json_names(MOUTH_STATES)
_HEAD_JSON = _json_names(HEAD_STATES)


def _opt6(value: float | None) -> str:
    return "null" if value is None else f"{value:.6f}"


def _state_line(rec, with_metrics: bool) -> str:
    """One label line, or with_metrics one record line (labels plus metrics)."""
    if rec.face_present:
        line = (
            f'{{"t": {rec.t:.3f}, "face": true, "eye": {_EYE_JSON[rec.eye_closed]}, '
            f'"mouth": {_MOUTH_JSON[rec.mouth_yawn]}'
        )
        if rec.head_down is not None:
            line += f', "head": {_HEAD_JSON[rec.head_down]}'
        if with_metrics:
            line += (
                f', "ear": {_opt6(rec.ear)}, "mar": {_opt6(rec.mar)}, '
                f'"head_drop": {_opt6(rec.head_drop)}, "perclos": {_opt6(rec.perclos)}'
            )
    else:
        line = f'{{"t": {rec.t:.3f}, "face": false'
        if with_metrics:
            line += f', "perclos": {_opt6(rec.perclos)}'
    return line + "}\n"


def write_labels(sink: IO[str], labels: Iterable) -> int:
    """Write per-frame labels; accepts any objects with the state attributes."""
    n = 0
    for lab in labels:
        sink.write(_state_line(lab, False))
        n += 1
    return n


def write_records(sink: IO[str], records: Iterable) -> int:
    """Write per-frame pipeline records (a superset of the label format)."""
    n = 0
    for rec in records:
        sink.write(_state_line(rec, True))
        n += 1
    return n


# --- event logs ---------------------------------------------------------------

def write_events(sink: IO[str], events: Iterable[AlertEvent]) -> int:
    n = 0
    for ev in events:
        sink.write(
            f'{{"kind": "{ev.kind}", "onset_t": {ev.onset_t:.3f}, '
            f'"emitted_t": {ev.emitted_t:.3f}, "value": {ev.value:.6f}, '
            f'"threshold": {ev.threshold:.6f}}}\n'
        )
        n += 1
    return n


def read_events(source: Iterable[str]) -> Iterator[AlertEvent]:
    last_emitted: float | None = None
    for line_no, line in _lines(source):
        try:
            obj = _loads(line)
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
            raise ParseError(str(exc), line_no) from None
        if last_emitted is not None and event.emitted_t < last_emitted:
            raise ParseError("event log must be ordered by emitted_t", line_no)
        last_emitted = event.emitted_t
        yield event


# --- calibration profiles -----------------------------------------------------

_PROFILE_FLOATS = (
    "baseline_ear",
    "baseline_mar",
    "baseline_head_drop",
    "ear_threshold",
    "mar_threshold",
    "head_drop_limit",
    "ear_factor",
    "mar_factor",
    "head_factor",
    "duration_s",
)


def default_created_at() -> str:
    """Reproducible creation stamp: honors SOURCE_DATE_EPOCH, else the epoch."""
    epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
    return _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime(epoch))


def write_profile(sink: IO[str], profile: CalibrationProfile, created_at: str | None = None) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "created_at": created_at if created_at is not None else default_created_at(),
        "frames_used": profile.frames_used,
        "personalized": profile.personalized,
    }
    for key in _PROFILE_FLOATS:
        doc[key] = getattr(profile, key)
    sink.write(json.dumps(doc, sort_keys=True, indent=2))
    sink.write("\n")


def read_profile(source: IO[str]) -> CalibrationProfile:
    try:
        doc = _loads(source.read())
        if not isinstance(doc, dict):
            raise ValueError("profile must be a JSON object")
    except ValueError as exc:
        raise ParseError(f"profile: {exc}") from None
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported profile format_version {version!r}")
    try:
        fields = {key: _finite(doc, key) for key in _PROFILE_FLOATS}
        frames_used = doc["frames_used"]
        if isinstance(frames_used, bool) or not isinstance(frames_used, int) or frames_used < 0:
            raise ValueError("frames_used must be a non-negative integer")
        personalized = _boolean(doc, "personalized")
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"profile: {exc}") from None
    return CalibrationProfile(frames_used=frames_used, personalized=personalized, **fields)


# --- session scripts ------------------------------------------------------------

def write_script(sink: IO[str], script: SessionScript) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "fps": script.fps,
        "duration_s": script.duration_s,
        "driver": {
            "baseline_ear": script.driver.baseline_ear,
            "baseline_mar": script.driver.baseline_mar,
            "baseline_head_drop": script.driver.baseline_head_drop,
            "inter_ocular_px": script.driver.inter_ocular_px,
        },
        "events": [
            {
                "kind": ev.kind,
                "start_t": ev.start_t,
                "length_s": ev.length_s,
                "intensity": ev.intensity,
            }
            for ev in script.events
        ],
        "noise_sigma": script.noise_sigma,
        "seed": script.seed,
    }
    sink.write(json.dumps(doc, sort_keys=True, indent=2))
    sink.write("\n")


def read_script(source: IO[str]) -> SessionScript:
    try:
        doc = _loads(source.read())
        if not isinstance(doc, dict):
            raise ValueError("script must be a JSON object")
    except ValueError as exc:
        raise ParseError(f"script: {exc}") from None
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported script format_version {version!r}")
    try:
        driver_doc = doc["driver"]
        if not isinstance(driver_doc, dict):
            raise ValueError("driver must be an object")
        driver = DriverParams(
            baseline_ear=_finite(driver_doc, "baseline_ear"),
            baseline_mar=_finite(driver_doc, "baseline_mar"),
            baseline_head_drop=_finite(driver_doc, "baseline_head_drop"),
            inter_ocular_px=_finite(driver_doc, "inter_ocular_px"),
        )
        events_doc = doc["events"]
        if not isinstance(events_doc, list):
            raise ValueError("events must be an array")
        events = []
        for ev in events_doc:
            if not isinstance(ev, dict):
                raise ValueError("each event must be an object")
            if not isinstance(ev.get("kind"), str):
                raise ValueError("event kind must be a string")
            events.append(
                ScriptEvent(
                    kind=ev["kind"],
                    start_t=_finite(ev, "start_t"),
                    length_s=_finite(ev, "length_s"),
                    intensity=_finite(ev, "intensity"),
                )
            )
        seed = doc["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError("seed must be an integer")
        return SessionScript(
            fps=_finite(doc, "fps"),
            duration_s=_finite(doc, "duration_s"),
            driver=driver,
            events=tuple(events),
            noise_sigma=_finite(doc, "noise_sigma"),
            seed=seed,
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"script: {exc}") from None
