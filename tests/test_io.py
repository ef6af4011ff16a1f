import dataclasses
import io as stdio
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drowsy import io as dio
from drowsy.calibration import CalibrationProfile, calibrate, generalized_profile
from drowsy.errors import MissingLabelError, ParseError, StreamOrderError, VersionError
from drowsy.landmarks import POINT_COUNTS, LandmarkFrame
from drowsy.metrics import MetricSample
from drowsy.pipeline import AlertEvent, FrameRecord, run_session
from drowsy.synth import DriverParams, FrameLabel, ScriptEvent, SessionScript, generate


def sample_script(noise=0.0, seed=3):
    return SessionScript(
        fps=30.0,
        duration_s=6.0,
        driver=DriverParams(0.32, 0.40, 0.55, 200.0),
        events=(
            ScriptEvent("blink", 1.0, 0.1, 1.0),
            ScriptEvent("yawn", 3.0, 1.0, 1.0),
            ScriptEvent("dropout", 5.0, 0.5, 1.0),
        ),
        noise_sigma=noise,
        seed=seed,
    )


def dump_frames(frames):
    sink = stdio.StringIO()
    dio.write_frames(sink, frames)
    return sink.getvalue()


class TestFrameStream:
    def test_write_read_write_byte_identical(self):
        frames, _ = generate(sample_script(noise=0.7))
        first = dump_frames(frames)
        reread = list(dio.read_frames(stdio.StringIO(first)))
        second = dump_frames(reread)
        assert first == second

    def test_round_trip_preserves_fields(self):
        frames, _ = generate(sample_script())
        reread = list(dio.read_frames(stdio.StringIO(dump_frames(frames))))
        assert len(reread) == len(frames)
        for a, b in zip(frames, reread):
            assert (a.t, a.scheme, a.face_present) == (b.t, b.scheme, b.face_present)
            for (xa, ya), (xb, yb) in zip(a.points, b.points):
                assert xb == pytest.approx(xa, abs=5e-7)
                assert yb == pytest.approx(ya, abs=5e-7)

    def test_faceless_line(self):
        line = '{"t": 0.100, "scheme": "semantic", "face": false, "points": []}'
        (frame,) = dio.read_frames([line])
        assert not frame.face_present and frame.points == ()

    def test_wrong_point_count_names_line(self):
        good = '{"t": 0.0, "scheme": "semantic", "face": false, "points": []}'
        bad = '{"t": 0.1, "scheme": "dlib68", "face": true, "points": %s}' % (
            json.dumps([[0.0, 0.0]] * 67)
        )
        with pytest.raises(ParseError) as err:
            list(dio.read_frames([good, bad]))
        assert err.value.line_no == 2
        assert "line 2" in str(err.value)

    def test_non_increasing_t_names_line(self):
        lines = [
            '{"t": 0.5, "scheme": "semantic", "face": false, "points": []}',
            '{"t": 0.5, "scheme": "semantic", "face": false, "points": []}',
        ]
        with pytest.raises(StreamOrderError) as err:
            list(dio.read_frames(lines))
        assert err.value.line_no == 2

    def test_depth_component_parsed_and_dropped(self):
        pts = json.dumps([[float(i), 1.0, 9.9] for i in range(19)])
        line = f'{{"t": 0.0, "scheme": "semantic", "face": true, "points": {pts}}}'
        (frame,) = dio.read_frames([line])
        assert frame.points[3] == (3.0, 1.0)

    def test_non_finite_rejected(self):
        line = '{"t": 0.0, "scheme": "semantic", "face": false, "points": [], "x": NaN}'
        with pytest.raises(ParseError):
            list(dio.read_frames([line]))

    @pytest.mark.parametrize(
        "line",
        [
            '{"t": 1%s, "scheme": "semantic", "face": false, "points": []}' % ("0" * 400),
            '{"t": 0.0, "scheme": "semantic", "face": true, "points": %s}'
            % json.dumps([[10**400 if i == 3 else 1.0, 1.0] for i in range(19)]),
        ],
        ids=["timestamp", "coordinate"],
    )
    def test_integer_beyond_float_range_rejected(self, line):
        with pytest.raises(ParseError) as err:
            list(dio.read_frames([line]))
        assert err.value.line_no == 1

    def test_unknown_keys_ignored(self):
        line = '{"t": 0.0, "scheme": "semantic", "face": false, "points": [], "note": "hi"}'
        (frame,) = dio.read_frames([line])
        assert not frame.face_present

    def test_blank_line_rejected(self):
        with pytest.raises(ParseError):
            list(dio.read_frames(["", '{"t": 0.0}']))


class TestProfileFile:
    def make_profile(self):
        samples = [
            MetricSample(t=i / 30.0, ear=0.317, mar=0.412, head_drop=0.577, face_present=True)
            for i in range(200)
        ]
        return calibrate(samples)

    def test_round_trip_byte_identical(self):
        profile = self.make_profile()
        sink = stdio.StringIO()
        dio.write_profile(sink, profile)
        first = sink.getvalue()
        reread = dio.read_profile(stdio.StringIO(first))
        sink2 = stdio.StringIO()
        dio.write_profile(sink2, reread)
        assert sink2.getvalue() == first
        assert reread == profile

    def test_threshold_relation_survives_persistence(self):
        profile = self.make_profile()
        sink = stdio.StringIO()
        dio.write_profile(sink, profile)
        reread = dio.read_profile(stdio.StringIO(sink.getvalue()))
        assert reread.ear_threshold == reread.ear_factor * reread.baseline_ear
        assert reread.mar_threshold == reread.mar_factor * reread.baseline_mar

    def test_version_mismatch(self):
        profile = self.make_profile()
        sink = stdio.StringIO()
        dio.write_profile(sink, profile)
        doc = json.loads(sink.getvalue())
        doc["format_version"] = 99
        with pytest.raises(VersionError):
            dio.read_profile(stdio.StringIO(json.dumps(doc)))

    def test_missing_field(self):
        profile = self.make_profile()
        sink = stdio.StringIO()
        dio.write_profile(sink, profile)
        doc = json.loads(sink.getvalue())
        del doc["baseline_ear"]
        with pytest.raises(ParseError):
            dio.read_profile(stdio.StringIO(json.dumps(doc)))

    def test_created_at_honors_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert dio.default_created_at() == "2023-11-14T22:13:20Z"
        monkeypatch.delenv("SOURCE_DATE_EPOCH")
        assert dio.default_created_at() == "1970-01-01T00:00:00Z"


DOCUMENT_FIELDS = [
    (cls, f.name)
    for cls in (CalibrationProfile, DriverParams, ScriptEvent, SessionScript)
    for f in dataclasses.fields(cls)
]


@pytest.mark.parametrize(
    "cls, name", DOCUMENT_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in DOCUMENT_FIELDS]
)
def test_out_of_range_number_in_any_document_field_is_parse_error(cls, name):
    sink = stdio.StringIO()
    if cls is CalibrationProfile:
        dio.write_profile(sink, generalized_profile())
        read = dio.read_profile
    else:
        dio.write_script(sink, sample_script())
        read = dio.read_script
    doc = json.loads(sink.getvalue())
    if cls is DriverParams:
        target = doc["driver"]
    elif cls is ScriptEvent:
        target = doc["events"][0]
    else:
        target = doc
    assert name in target  # the writer emits every dataclass field
    target[name] = math.inf
    text = json.dumps(doc).replace("Infinity", "1e400")
    with pytest.raises(ParseError, match=name):
        read(stdio.StringIO(text))


class TestLabelStream:
    def test_truth_round_trip(self):
        _, truth = generate(sample_script())
        sink = stdio.StringIO()
        dio.write_labels(sink, truth.labels)
        first = sink.getvalue()
        reread = list(dio.read_states(stdio.StringIO(first)))
        assert reread == truth.labels
        sink2 = stdio.StringIO()
        dio.write_labels(sink2, reread)
        assert sink2.getvalue() == first

    def test_bad_enum_rejected(self):
        line = '{"t": 0.0, "face": true, "eye": "shut", "mouth": "normal"}'
        with pytest.raises(ParseError) as err:
            list(dio.read_states([line]))
        assert "shut" in str(err.value)

    def test_head_optional(self):
        line = '{"t": 0.0, "face": true, "eye": "open", "mouth": "normal"}'
        (rec,) = dio.read_states([line])
        assert rec.head_down is None

    def test_headless_line_round_trips(self):
        lines = (
            '{"t": 0.000, "face": true, "eye": "open", "mouth": "normal"}\n'
            '{"t": 0.033, "face": true, "eye": "closed", "mouth": "yawn", "head": "down"}\n'
            '{"t": 0.067, "face": false}\n'
        )
        sink = stdio.StringIO()
        dio.write_labels(sink, dio.read_states(stdio.StringIO(lines)))
        first = sink.getvalue()
        assert first == lines
        sink2 = stdio.StringIO()
        dio.write_labels(sink2, dio.read_states(stdio.StringIO(first)))
        assert sink2.getvalue() == first

    def test_faceless_line_has_no_states(self):
        (rec,) = dio.read_states(['{"t": 0.4, "face": false}'])
        assert rec.face_present is False
        assert rec.eye_closed is None

    def test_missing_required_state(self):
        with pytest.raises(ParseError):
            list(dio.read_states(['{"t": 0.0, "face": true, "eye": "open"}']))


class TestExternalStates:
    def test_load_skips_faceless_and_keys_by_ms(self):
        lines = [
            '{"t": 0.000, "face": true, "eye": "open", "mouth": "normal"}',
            '{"t": 0.033, "face": false}',
            '{"t": 0.067, "face": true, "eye": "closed", "mouth": "yawn"}',
        ]
        states = dio.load_external_states(lines)
        assert states == {0: (False, False), 67: (True, True)}

    def test_duplicate_timestamp_rejected(self):
        lines = [
            '{"t": 0.0, "face": true, "eye": "open", "mouth": "normal"}',
            '{"t": 0.0, "face": true, "eye": "open", "mouth": "normal"}',
        ]
        with pytest.raises(ParseError):
            dio.load_external_states(lines)

    def test_gap_surfaces_as_missing_label_with_timestamp(self):
        frames, _ = generate(sample_script())
        result = run_session(frames, generalized_profile(0.24, 0.56, 0.75))
        lines = stdio.StringIO()
        dio.write_records(lines, result.records)
        all_states = dio.load_external_states(stdio.StringIO(lines.getvalue()))
        gap_t = frames[50].t
        del all_states[dio.quantize_ms(gap_t)]
        with pytest.raises(MissingLabelError) as err:
            run_session(
                frames,
                generalized_profile(0.24, 0.56, 0.75),
                external=all_states,
            )
        assert err.value.t == gap_t
        assert f"{gap_t:.3f}" in str(err.value)


class TestEventLog:
    def events(self):
        return [
            AlertEvent("eyes_closed", 2.1, 3.1, 0.1532, 0.24),
            AlertEvent("yawning", 4.0, 5.5, 0.71, 0.56),
            AlertEvent("perclos_high", 6.0, 6.0, 25.5, 20.0),
        ]

    def test_round_trip_byte_identical(self):
        sink = stdio.StringIO()
        dio.write_events(sink, self.events())
        first = sink.getvalue()
        reread = list(dio.read_events(stdio.StringIO(first)))
        sink2 = stdio.StringIO()
        dio.write_events(sink2, reread)
        assert sink2.getvalue() == first

    def test_unknown_kind_rejected(self):
        line = '{"kind": "sneezing", "onset_t": 1.0, "emitted_t": 2.0, "value": 1.0, "threshold": 2.0}'
        with pytest.raises(ParseError):
            list(dio.read_events([line]))

    def test_emitted_before_onset_rejected(self):
        line = '{"kind": "yawning", "onset_t": 3.0, "emitted_t": 2.0, "value": 1.0, "threshold": 2.0}'
        with pytest.raises(ParseError):
            list(dio.read_events([line]))

    @pytest.mark.parametrize("field", ["onset_t", "emitted_t", "value", "threshold"])
    def test_non_finite_number_rejected(self, field):
        event = dict(kind="yawning", onset_t=1.0, emitted_t=2.0, value=1.0, threshold=2.0)
        event[field] = float("inf")
        line = json.dumps(event).replace("Infinity", "1e400")
        with pytest.raises(ParseError) as err:
            list(dio.read_events([line]))
        assert f"field '{field}' must be finite" in str(err.value)

    def test_order_violation_rejected(self):
        sink = stdio.StringIO()
        dio.write_events(sink, self.events()[::-1])
        with pytest.raises(ParseError):
            list(dio.read_events(stdio.StringIO(sink.getvalue())))


class TestRecords:
    def test_records_readable_as_states(self):
        frames, _ = generate(sample_script())
        result = run_session(frames, generalized_profile(0.24, 0.56, 0.75))
        sink = stdio.StringIO()
        dio.write_records(sink, result.records)
        reread = list(dio.read_states(stdio.StringIO(sink.getvalue())))
        assert len(reread) == len(result.records)
        for rec, state in zip(result.records, reread):
            assert state.eye_closed == rec.eye_closed
            assert state.mouth_yawn == rec.mouth_yawn
            assert state.face_present == rec.face_present


class TestScriptFile:
    def test_round_trip_byte_identical(self):
        sink = stdio.StringIO()
        dio.write_script(sink, sample_script(noise=0.25, seed=99))
        first = sink.getvalue()
        script = dio.read_script(stdio.StringIO(first))
        sink2 = stdio.StringIO()
        dio.write_script(sink2, script)
        assert sink2.getvalue() == first
        assert script == sample_script(noise=0.25, seed=99)

    def test_bad_version(self):
        sink = stdio.StringIO()
        dio.write_script(sink, sample_script())
        doc = json.loads(sink.getvalue())
        doc["format_version"] = 0
        with pytest.raises(VersionError):
            dio.read_script(stdio.StringIO(json.dumps(doc)))

    def test_structural_garbage(self):
        with pytest.raises(ParseError):
            dio.read_script(stdio.StringIO("[1, 2, 3]"))
        with pytest.raises(ParseError):
            dio.read_script(stdio.StringIO("not json"))
        sink = stdio.StringIO()
        dio.write_script(sink, sample_script())
        doc = json.loads(sink.getvalue())
        doc["events"] = [7]
        with pytest.raises(ParseError, match="script: each event must be an object"):
            dio.read_script(stdio.StringIO(json.dumps(doc)))


def test_quick_fuzz_never_crashes():
    frames, truth = generate(sample_script())
    result = run_session(frames, generalized_profile(0.24, 0.56, 0.75))
    corpora = {}
    sink = stdio.StringIO()
    dio.write_frames(sink, frames[:5])
    corpora[dio.read_frames] = sink.getvalue().splitlines()
    sink = stdio.StringIO()
    dio.write_labels(sink, truth.labels[:5])
    corpora[dio.read_states] = sink.getvalue().splitlines()
    sink = stdio.StringIO()
    dio.write_events(sink, result.events)
    corpora[dio.read_events] = sink.getvalue().splitlines()

    rng = random.Random(1234)
    mutations = 0
    for reader, lines in corpora.items():
        for _ in range(120):
            line = rng.choice(lines) if lines else "{}"
            chars = list(line)
            for _ in range(rng.randrange(1, 4)):
                op = rng.randrange(3)
                pos = rng.randrange(len(chars)) if chars else 0
                if op == 0 and chars:
                    chars[pos] = chr(rng.randrange(32, 127))
                elif op == 1 and chars:
                    del chars[pos]
                else:
                    chars.insert(pos, chr(rng.randrange(32, 127)))
            mutated = "".join(chars)
            mutations += 1
            try:
                list(reader([mutated]))
            except (ParseError, StreamOrderError):
                pass
    assert mutations == 360


# --- reader equivalence --------------------------------------------------------
# read_frames, read_states and load_external_states decode each line with one
# scanner call (state lines with a known tail skip it), report blank lines
# from the decode error and convert [x, y] float points on a fast path. The
# properties below hold them to straightforward readers: a full decode() of
# every line, the per-point checks, then LandmarkFrame(...) or FrameLabel(...).


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


_reference_decode = json.JSONDecoder(parse_constant=_reject_constant).decode


def _reference_lines(source):
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            raise ParseError("blank line", line_no)
        yield line_no, line


def _reference_number(obj, key):
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _reference_boolean(obj, key):
    value = obj[key]
    if not isinstance(value, bool):
        raise ValueError(f"field {key!r} must be a boolean")
    return value


def reference_read_frames(source):
    last_ms = None
    for line_no, line in _reference_lines(source):
        try:
            obj = _reference_decode(line)
            if not isinstance(obj, dict):
                raise ValueError("frame line must be a JSON object")
            t = _reference_number(obj, "t")
            scheme = obj["scheme"]
            if scheme not in POINT_COUNTS:
                raise ValueError(f"unknown scheme {scheme!r}")
            face = _reference_boolean(obj, "face")
            raw_points = obj["points"]
            if not isinstance(raw_points, list):
                raise ValueError("points must be an array")
            points = []
            for p in raw_points:
                if type(p) is not list or not 2 <= len(p) <= 3:
                    raise ValueError("each point must be [x, y] or [x, y, z]")
                x, y = p[0], p[1]
                if type(x) is not float and type(x) is not int:
                    raise ValueError("point coordinates must be numbers")
                if type(y) is not float and type(y) is not int:
                    raise ValueError("point coordinates must be numbers")
                points.append((float(x), float(y)))
            frame = LandmarkFrame(t=t, scheme=scheme, points=tuple(points), face_present=face)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ParseError(str(exc), line_no) from None
        t_ms = dio.quantize_ms(frame.t)
        if last_ms is not None and t_ms <= last_ms:
            raise StreamOrderError(
                f"timestamp {frame.t:.3f} does not advance past {last_ms / 1000.0:.3f}", line_no
            )
        last_ms = t_ms
        yield frame


def _reference_state(obj, key, table):
    value = obj[key]
    if value not in table:
        raise ValueError(f"field {key!r} must be one of {sorted(table)}, got {value!r}")
    return table[value]


def reference_read_states(source):
    for line_no, line in _reference_lines(source):
        try:
            obj = _reference_decode(line)
            if not isinstance(obj, dict):
                raise ValueError("state line must be a JSON object")
            t = _reference_number(obj, "t")
            # t must have a millisecond key: t * 1000 finite, which also refuses nan and inf
            if not (math.isfinite(t * 1000.0) and t >= 0.0):
                raise ValueError(
                    f"timestamp must be finite and in [0, 1.7976931348623156e+305] s, got {t!r}"
                )
            face = _reference_boolean(obj, "face")
            if face:
                eye = _reference_state(obj, "eye", dio.EYE_STATES)
                mouth = _reference_state(obj, "mouth", dio.MOUTH_STATES)
                head = _reference_state(obj, "head", dio.HEAD_STATES) if "head" in obj else None
            else:
                eye = mouth = head = None
            yield FrameLabel(
                t=t, face_present=face, eye_closed=eye, mouth_yawn=mouth, head_down=head
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(str(exc), line_no) from None


def reference_load_external_states(source):
    states = {}
    for rec in reference_read_states(source):
        if not rec.face_present:
            continue
        key = dio.quantize_ms(rec.t)
        if key in states:
            raise ParseError(f"duplicate external state at t={rec.t:.3f}")
        states[key] = (rec.eye_closed, rec.mouth_yawn)
    return states


def _outcome(reader, lines):
    """What a reader makes of lines: its results (repr tells 1 from 1.0) or its error."""
    try:
        result = reader(lines)
        return "ok", repr(result if isinstance(result, dict) else list(result))
    except (ParseError, StreamOrderError) as exc:
        return type(exc).__name__, str(exc), exc.line_no


class _Number(str):
    """A JSON number kept as its source text."""


def _tree(value):
    """A decoded value as JSON token text, arrays as lists of token trees."""
    if isinstance(value, _Number):
        return str(value)
    if isinstance(value, list):
        return [_tree(v) for v in value]
    return json.dumps(value)


def _fields(line):
    """A written line as [key, token tree] pairs, in written order."""
    obj = json.loads(line, parse_float=_Number, parse_int=_Number)
    return [[key, _tree(value)] for key, value in obj.items()]


def _render(tree, comma):
    if isinstance(tree, str):
        return tree
    return "[" + comma.join(_render(t, comma) for t in tree) + "]"


CANONICAL = (", ", ": ", "", "")
SPACING = st.tuples(
    st.sampled_from([", ", ",", " ,  ", ",\t"]),
    st.sampled_from([": ", ":", " :\t", ":  "]),
    st.sampled_from(["", " ", "\t", "\x0c "]),
    st.sampled_from(["", " ", "\t\r", "  \x0b"]),
)
TRAILING_DATA = [" x", "{}", " 1", ", ", "  ]"]


def _line(fields, spacing, extra=""):
    comma, colon, lead, trail = spacing
    body = comma.join(f'"{key}"{colon}{_render(tree, comma)}' for key, tree in fields)
    return lead + "{" + body + "}" + extra + trail + "\n"


ODD_NUMBERS = ["1e400", "-1e400", "1" + "0" * 400, "-" + "9" * 400, "NaN", "Infinity", "7", "-0"]
NOT_NUMBERS = ["true", "false", "null", '"1.5"', "[1.0]", "{}"]
# 1e306 and its digits are finite, but have no millisecond key
KEYLESS_T = "1" + "0" * 306 + ".500"  # the written head form, so the state table path sees it
T_TOKENS = [
    "-0.5", "-1e400", "1e400", "1" + "0" * 400, '"0.1"', "true", "-0.0", "0.0", "1e306", KEYLESS_T
]
WHOLE_LINES = ["[1, 2]", "7", '"frame"', "null", "{", "not json", "]", "", "   "]


def _field(fields, key):
    return next((pair for pair in fields if pair[0] == key), None)


def _set_field(fields, key, tree):
    pair = _field(fields, key)
    if pair is None:
        fields.append([key, tree])
    else:
        pair[1] = tree


def _mutate_frame(data, fields):
    """Apply one drawn fault to a frame line's fields; a str return replaces the line."""
    kind = data.draw(st.sampled_from(
        ["coord", "depth", "arity", "count", "t", "face", "scheme", "points", "key", "line"]
    ))
    points = _field(fields, "points")
    pts = points[1] if points is not None and isinstance(points[1], list) else None
    if kind in ("coord", "depth", "arity", "count") and pts:
        i = data.draw(st.integers(0, len(pts) - 1))
        if kind == "coord" and isinstance(pts[i], list) and len(pts[i]) >= 2:
            pts[i][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(ODD_NUMBERS + NOT_NUMBERS))
        elif kind == "depth" and isinstance(pts[i], list):
            pts[i] = pts[i] + [data.draw(st.sampled_from(["0.250000", "-3", "true", "1e400"]))]
        elif kind == "arity" and isinstance(pts[i], list):
            pts[i] = data.draw(st.sampled_from([pts[i][:1], pts[i] + ["0", "0"], [], "5", "null"]))
        elif kind == "count":
            if data.draw(st.booleans()):
                del pts[i]
            else:
                pts.insert(i, pts[i])
    elif kind == "t":
        _set_field(fields, "t", data.draw(st.sampled_from(T_TOKENS)))
    elif kind == "face":
        _set_field(fields, "face", data.draw(st.sampled_from(["false", "true", "1", "null"])))
    elif kind == "scheme":
        tokens = ['"semantic"', '"dlib68"', '"mesh468"', '"bogus"', '["semantic"]', "1"]
        _set_field(fields, "scheme", data.draw(st.sampled_from(tokens)))
    elif kind == "points":
        _set_field(fields, "points", data.draw(st.sampled_from(["null", "{}", '"[]"', []])))
    elif kind == "key":
        del fields[data.draw(st.integers(0, len(fields) - 1))]
    elif kind == "line":
        return data.draw(st.sampled_from(WHOLE_LINES))
    return None


STATE_TOKENS = [
    '"open"', '"closed"', '"yawn"', '"normal"', '"up"', '"down"', '"shut"',
    "1", "true", "null", "[1]", "{}",
]


def _mutate_state(data, fields):
    """Apply one drawn fault to a label line's fields; a str return replaces the line."""
    kind = data.draw(st.sampled_from(["t", "face", "state", "key", "extra", "line"]))
    if kind == "t":
        _set_field(fields, "t", data.draw(st.sampled_from(T_TOKENS)))
    elif kind == "face":
        _set_field(fields, "face", data.draw(st.sampled_from(["false", "true", "1", "null"])))
    elif kind == "state":
        key = data.draw(st.sampled_from(["eye", "mouth", "head"]))
        _set_field(fields, key, data.draw(st.sampled_from(STATE_TOKENS)))
    elif kind == "key" and fields:
        del fields[data.draw(st.integers(0, len(fields) - 1))]
    elif kind == "extra":
        fields.append(["extra", "[1, 2]"])
    elif kind == "line":
        return data.draw(st.sampled_from(WHOLE_LINES))
    return None


def _mutated(data, lines, mutate):
    """Written lines, each re-spaced, some with up to three faults."""
    out = []
    for line in lines:
        fields = _fields(line)
        assert _line(fields, CANONICAL) == line  # the token trees rebuild the written line
        replaced = None
        extra = ""
        for _ in range(data.draw(st.integers(0, 3))):
            if data.draw(st.integers(0, 9)) == 0:
                extra = data.draw(st.sampled_from(TRAILING_DATA))
                continue
            replaced = mutate(data, fields)
            if replaced is not None:
                break
        if replaced is None:
            replaced = _line(fields, data.draw(SPACING), extra)
        out.append(replaced)
    return out


@st.composite
def written_frames(draw):
    scheme = draw(st.sampled_from(sorted(POINT_COUNTS)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    t_ms = draw(st.integers(0, 5000))
    frames = []
    for _ in range(draw(st.integers(1, 3))):
        face = rng.random() < 0.8
        count = POINT_COUNTS[scheme] if face else 0
        points = tuple((rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(count))
        frames.append(LandmarkFrame(t_ms / 1000.0, scheme, points, face))
        t_ms += rng.randrange(1, 100)
    sink = stdio.StringIO()
    dio.write_frames(sink, frames)
    return sink.getvalue().splitlines(keepends=True)


@st.composite
def written_labels(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    t_ms = draw(st.integers(0, 5000))
    labels = []
    for _ in range(draw(st.integers(1, 4))):
        face = rng.random() < 0.8
        labels.append(FrameLabel(
            t_ms / 1000.0,
            face,
            rng.random() < 0.5 if face else None,
            rng.random() < 0.5 if face else None,
            rng.choice([None, False, True]) if face else None,
        ))
        # a repeated timestamp now and then, for the duplicate-state check
        t_ms += rng.choice([0, 1, 33, 34])
    sink = stdio.StringIO()
    dio.write_labels(sink, labels)
    return sink.getvalue().splitlines(keepends=True)


@settings(max_examples=300, deadline=None)
@given(written_frames(), st.data())
def test_read_frames_equals_reference_reader(lines, data):
    assert _outcome(dio.read_frames, lines) == _outcome(reference_read_frames, lines)
    mutated = _mutated(data, lines, _mutate_frame)
    assert _outcome(dio.read_frames, mutated) == _outcome(reference_read_frames, mutated)


def _assert_state_readers_equal_reference(stream):
    assert _outcome(dio.read_states, stream) == _outcome(reference_read_states, stream)
    assert _outcome(dio.load_external_states, stream) == _outcome(
        reference_load_external_states, stream
    )


@settings(max_examples=300, deadline=None)
@given(written_labels(), st.data())
def test_state_readers_equal_reference_readers(lines, data):
    mutated = _mutated(data, lines, _mutate_state)
    for stream in (lines, mutated):
        _assert_state_readers_equal_reference(stream)


# --- the written state tails ---------------------------------------------------
# _states looks the text after {"t": N up in dio._TAIL_FIELDS, the inverse of
# the table the writers write from; every other line takes the full decode.

# every state a label can carry: faceless, then each face-present eye/mouth/head
STATE_LABELS = [FrameLabel(0.5, False, None, None, None)] + [
    FrameLabel(0.5, True, eye, mouth, head)
    for eye in (False, True) for mouth in (False, True) for head in (None, False, True)
]


def _written(writer, items):
    sink = stdio.StringIO()
    writer(sink, items)
    return sink.getvalue().splitlines(keepends=True)


def test_table_holds_one_tail_per_written_state():
    lines = _written(dio.write_labels, STATE_LABELS)
    tails = {line.removeprefix('{"t": 0.500').rstrip("\n") for line in lines}
    assert set(dio._TAIL_FIELDS) == tails and len(tails) == 13


def _no_decode(line):
    raise AssertionError(f"decoded {line!r}")


@pytest.mark.parametrize(
    "label", STATE_LABELS,
    ids=lambda lab: "faceless" if not lab.face_present
    else f"eye={lab.eye_closed}-mouth={lab.mouth_yawn}-head={lab.head_down}",
)
def test_written_state_is_read_back_through_the_table(label):
    lines = _written(dio.write_labels, [label])
    with mock.patch.object(dio, "_decode", _no_decode):
        assert list(dio.read_states(lines)) == [label] == list(reference_read_states(lines))


def test_state_readers_skip_the_decoder_on_written_labels():
    _, truth = generate(sample_script(noise=0.5))
    lines = _written(dio.write_labels, truth.labels)
    with mock.patch.object(dio, "_decode", wraps=dio._decode) as decode:
        labels = list(dio.read_states(lines))
        external = dio.load_external_states(lines)
    assert decode.call_count == 0
    assert labels == list(reference_read_states(lines))
    assert external == reference_load_external_states(lines)


@pytest.mark.parametrize("writer", [dio.write_labels, dio.write_records], ids=["labels", "records"])
@pytest.mark.parametrize("eye, mouth", [(None, False), (False, None)], ids=["eye", "mouth"])
def test_face_present_state_without_eye_or_mouth_is_not_written(writer, eye, mouth):
    # such a line ("eye": null) would be one that read_states refuses
    rec = FrameRecord(0.5, True, 0.3, 0.4, 0.5, eye, mouth, None, None)
    sink = stdio.StringIO()
    with pytest.raises(KeyError):
        writer(sink, [rec])
    assert sink.getvalue() == ""


LONG_DIGITS = "1" * 4301
OPEN_TAIL = '"face": true, "eye": "open", "mouth": "normal", "head": "up"}'


@pytest.mark.parametrize(
    "line",
    [
        f'{{"t": {LONG_DIGITS}, {OPEN_TAIL}',  # an int beyond the digit limit
        f'{{"t": {LONG_DIGITS}.5, {OPEN_TAIL}',  # a float that reads as inf
        f'{{"t": 1e400, {OPEN_TAIL}',
        f'{{"t": -0, {OPEN_TAIL}',
        f'{{"t": -0.0, {OPEN_TAIL}',
        f'{{"t": -0.500, {OPEN_TAIL}',
        f'{{"t": 7, {OPEN_TAIL}',
        '{"t": 1.500, "face": false, "t": 2.500}',  # the last "t" wins
        '{"t": 1.500, "face": false, "t": -2.500}',
        '{"t": 1.500, "face": false, "\\u0074": 3.500}',  # an escaped "t" is still "t"
        '{"t": 1.500, "face": false, "t": "x"}',
        f'{{"t": 01.5, {OPEN_TAIL}',
        f'{{"t": 1.500, {OPEN_TAIL} x',
        f'{{"t": 1.500, {OPEN_TAIL}{{}}',
        f'{{"t": 1.500, {OPEN_TAIL[:-1]}',
        "",
        "   \t",
        f'{{"t": 1.500, "note": [1, {{"t": 2}}], {OPEN_TAIL}',  # unknown keys are ignored
        '{"t": 1.500, "face": false, "eye": "shut"}',
        '{"t": 1.500, "face": true, "eye": "shut", "mouth": "normal"}',
        '{"t": 1.500, "face": 1}',
        '{"t": 1.500, "eye": "open"}',
        '{"t": 1.500, }',
        '{"t": 1.500, "face": false,}',
    ],
    ids=lambda line: line.replace(LONG_DIGITS, "<4301 digits>"),
)
def test_state_line_cases_equal_reference_reader(line):
    for stream in ([line], [f'{{"t": 9.000, {OPEN_TAIL}\n', line + "\n"]):
        _assert_state_readers_equal_reference(stream)


@pytest.mark.parametrize(
    "reader, first",
    [
        (dio.read_frames, '{"t": 0.000, "scheme": "semantic", "face": false, "points": []}'),
        (dio.read_states, '{"t": 0.000, "face": false}'),
        (dio.read_events, '{"kind": "eyes_closed", "onset_t": 1.000, "emitted_t": 2.000, '
                          '"value": 0.100000, "threshold": 0.200000}'),
    ],
    ids=["frames", "states", "events"],
)
@pytest.mark.parametrize("blank", ["", "\n", " \t\r\n", "\x0c"])
def test_blank_line_is_reported_with_its_number(reader, first, blank):
    with pytest.raises(ParseError) as err:
        list(reader([first + "\n", blank, first + "\n"]))
    assert str(err.value) == "line 2: blank line" and err.value.line_no == 2


DEEP = "[" * 100_000 + "]" * 100_000  # far beyond the recursion limit


@pytest.mark.parametrize(
    "reader, first, line",
    [
        (dio.read_frames, '{"t": 0.000, "scheme": "semantic", "face": false, "points": []}',
         '{"t": 0.100, "scheme": "semantic", "face": false, "points": ' + DEEP + "}"),
        # the written head of a state line, with a tail the table does not hold
        (dio.read_states, '{"t": 0.000, "face": false}',
         '{"t": 0.100, "face": false, "x": ' + DEEP + "}"),
        (dio.load_external_states, '{"t": 0.000, "face": false}', DEEP),
        (dio.read_events, '{"kind": "eyes_closed", "onset_t": 1.000, "emitted_t": 2.000, '
                          '"value": 0.100000, "threshold": 0.200000}', '{"kind": ' + DEEP + "}"),
    ],
    ids=["frames", "states", "external", "events"],
)
def test_nesting_beyond_the_recursion_limit_is_a_parse_error(reader, first, line):
    with pytest.raises(ParseError) as err:
        list(reader([first + "\n", line + "\n"]))
    assert str(err.value) == "line 2: JSON nested too deeply" and err.value.line_no == 2


@pytest.mark.parametrize(
    "reader, first, line",
    [
        (dio.read_frames, '{"t": 0.000, "scheme": "semantic", "face": false, "points": []}',
         '{"t": 1e306, "scheme": "semantic", "face": false, "points": []}'),
        (dio.read_states, '{"t": 0.000, "face": false}', f'{{"t": {KEYLESS_T}, "face": false}}'),
        (dio.read_states, '{"t": 0.000, "face": false}', '{"t": 1e306, "face": false}'),
        (dio.load_external_states, '{"t": 0.000, "face": false}',
         f'{{"t": {KEYLESS_T}, {OPEN_TAIL}'),
    ],
    ids=["frames", "states-table", "states-decode", "external"],
)
def test_timestamp_without_a_millisecond_key_is_a_parse_error(reader, first, line):
    with pytest.raises(ParseError) as err:
        list(reader([first + "\n", line + "\n"]))
    assert err.value.line_no == 2
    assert str(err.value) == (
        "line 2: timestamp must be finite and in [0, 1.7976931348623156e+305] s, got 1e+306"
    )


def test_document_nesting_beyond_the_recursion_limit_is_a_parse_error():
    text = '{"format_version": 1, "baseline_ear": ' + DEEP + "}\n"
    with pytest.raises(ParseError) as err:
        dio.read_profile(stdio.StringIO(text))
    assert str(err.value) == "profile: JSON nested too deeply"


def _semantic_line(t="0.500", face="true", points=None, tail=""):
    points = points if points is not None else ["[1.000000, 2.000000]"] * 19
    return f'{{"t": {t}, "scheme": "semantic", "face": {face}, "points": [{", ".join(points)}]}}{tail}'


HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "line, message",
    [
        # several faults: the per-point loop first, then t, then count, then finiteness
        (_semantic_line(t="-0.5", points=["[1e400, 2.0]"] * 19), "timestamp must be finite"),
        (_semantic_line(points=["[1e400, 2.0]"] * 18), "requires 19 points, got 18"),
        (_semantic_line(t="-0.5", points=[f"[{HUGE}, 2.0]"] * 19), "int too large to convert"),
        (_semantic_line(points=[f"[{HUGE}, 2.0]", '["1", 2.0]'] + ["[1.0, 2.0]"] * 17),
         "int too large to convert"),
        (_semantic_line(points=[f'[{HUGE}, "2"]'] + ["[1.0, 2.0]"] * 18),
         "point coordinates must be numbers"),
        (_semantic_line(face="false", points=["[1e400, 2.0]"]), "faceless frame must carry no points"),
        (_semantic_line(points=["[1.0, -1e400]"] + ["[1.0, 2.0]"] * 18),
         "landmark coordinates must be finite"),
        (_semantic_line(points=["[1.0, true]"] + ["[1.0, 2.0]"] * 18),
         "point coordinates must be numbers"),
        (_semantic_line(tail="   x"), "Extra data"),
        (_semantic_line(points=["[1.0, 2.0, true]"] * 19), None),  # depth is dropped unchecked
        (_semantic_line(points=["[1, 2]"] * 19).replace(", ", " ,\t"), None),
    ],
)
def test_read_frames_fault_precedence(line, message):
    outcome = _outcome(dio.read_frames, [line])
    assert outcome == _outcome(reference_read_frames, [line])
    if message is None:
        assert outcome[0] == "ok"
    else:
        assert outcome[0] == "ParseError" and message in outcome[1], outcome


# --- the point fast path ----------------------------------------------------------
# read_frames hands each decoded points array to dio._points, which turns
# [x, y] float pairs into tuples in C and sends every other array through
# the general loop dio._convert_points; both return the points tuple, and
# LandmarkFrame alone checks that the coordinates are finite. The arrays
# below are what the JSON decoder can produce: lists, dicts with string keys,
# strings, ints of any size, floats (1e400 decodes to inf), booleans and null.

COORDINATES = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf, 10**400, -(10**400), True, False, 7, -0.0]),
    st.integers(-(10**6), 10**6),
)
ODD_POINTS = st.one_of(
    st.lists(COORDINATES, min_size=3, max_size=3),  # mesh depth
    st.lists(COORDINATES, max_size=5),  # wrong lengths
    st.lists(st.one_of(COORDINATES, st.text(max_size=2), st.none()), min_size=2, max_size=2),
    st.text(max_size=3),  # a two-character string unpacks to two strings
    st.dictionaries(st.text(max_size=2), COORDINATES, max_size=3),
    st.lists(st.lists(COORDINATES, max_size=2), min_size=2, max_size=2),  # nested lists
    COORDINATES,
    st.none(),
)


@st.composite
def point_arrays(draw):
    """Mostly [x, y] float pairs (some infinite), with odd points at drawn positions."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    coordinate = st.one_of(finite, finite, finite, st.sampled_from([math.inf, -math.inf]))
    pair = st.lists(coordinate, min_size=2, max_size=2)
    points = draw(st.lists(pair, max_size=20))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(points)))
        points.insert(at, draw(st.one_of(pair, ODD_POINTS)))
    return points


def _points_outcome(convert, raw):
    """The returned points (repr tells 1 from 1.0 and -0.0 from 0.0), or the error.

    convert's whole result is compared, never unpacked: unpacking would raise
    the same error on both sides for most arrays, and compare nothing.
    """
    try:
        points = convert(raw)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)
    return "ok", repr(points)


@settings(max_examples=500, deadline=None)
@given(point_arrays())
def test_point_fast_path_equals_general_loop(raw):
    general = _points_outcome(dio._convert_points, raw)
    assert _points_outcome(dio._points, raw) == general
    if all(type(p) is list and len(p) == 2 and {type(c) for c in p} == {float} for p in raw):
        # the written form never reaches the general loop
        with mock.patch.object(dio, "_convert_points", side_effect=AssertionError("fell back")):
            assert _points_outcome(dio._points, raw) == general
