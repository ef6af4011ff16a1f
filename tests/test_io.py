import dataclasses
import io as stdio
import json
import math
import random

import pytest

from drowsy import io as dio
from drowsy.calibration import CalibrationProfile, calibrate, generalized_profile
from drowsy.errors import MissingLabelError, ParseError, StreamOrderError, VersionError
from drowsy.metrics import MetricSample
from drowsy.pipeline import AlertEvent, run_session
from drowsy.synth import DriverParams, ScriptEvent, SessionScript, generate


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
