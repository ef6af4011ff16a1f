import argparse
import dataclasses
import gc
import inspect
import io as stdio
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drowsy import cli
from drowsy import io as dio
from drowsy.calibration import CalibrationConfig, generalized_profile
from drowsy.pipeline import PipelineConfig
from drowsy.synth import DriverParams, ScriptEvent, SessionScript

DRIVER = DriverParams(0.32, 0.40, 0.55, 200.0)


def write_script_file(path, duration=30.0, events=(), noise=0.0, seed=5, ear=0.32, mar=0.40):
    script = SessionScript(
        fps=30.0,
        duration_s=duration,
        driver=DriverParams(ear, mar, 0.55, 200.0),
        events=tuple(events),
        noise_sigma=noise,
        seed=seed,
    )
    with open(path, "w") as fp:
        dio.write_script(fp, script)
    return script


SESSION_EVENTS = (
    ScriptEvent("blink", 10.0, 0.1, 1.0),
    ScriptEvent("sustained_closure", 18.0, 2.0, 1.0),
    ScriptEvent("yawn", 24.0, 2.0, 1.0),
)


@pytest.fixture
def workspace(tmp_path):
    """Calibration recording plus a scripted driving session, on disk."""
    calib_script = tmp_path / "calib.script.json"
    session_script = tmp_path / "session.script.json"
    write_script_file(calib_script, duration=6.0)
    write_script_file(session_script, duration=30.0, events=SESSION_EVENTS)
    paths = {
        "calib_frames": tmp_path / "calib.frames.jsonl",
        "calib_labels": tmp_path / "calib.labels.jsonl",
        "frames": tmp_path / "session.frames.jsonl",
        "labels": tmp_path / "session.labels.jsonl",
        "profile": tmp_path / "profile.json",
        "events": tmp_path / "events.jsonl",
        "records": tmp_path / "records.jsonl",
    }
    assert cli.main(
        ["synth", "--script", str(calib_script), "--out", str(paths["calib_frames"]),
         "--labels", str(paths["calib_labels"])]
    ) == 0
    assert cli.main(
        ["synth", "--script", str(session_script), "--out", str(paths["frames"]),
         "--labels", str(paths["labels"])]
    ) == 0
    assert cli.main(
        ["calibrate", "--input", str(paths["calib_frames"]), "--out", str(paths["profile"])]
    ) == 0
    return tmp_path, paths


class TestWorkflow:
    def test_calibrate_writes_exact_factor_profile(self, workspace):
        _, paths = workspace
        with open(paths["profile"]) as fp:
            profile = dio.read_profile(fp)
        assert profile.baseline_ear == pytest.approx(0.32, abs=1e-9)
        assert profile.ear_threshold == 0.75 * profile.baseline_ear
        assert profile.personalized

    def test_run_emits_expected_events(self, workspace, capsys):
        _, paths = workspace
        rc = cli.main(
            ["run", "--input", str(paths["frames"]), "--profile", str(paths["profile"]),
             "--out", str(paths["events"]), "--records", str(paths["records"])]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "eyes_closed=1" in err and "yawning=1" in err
        with open(paths["events"]) as fp:
            events = list(dio.read_events(fp))
        assert [e.kind for e in events] == ["eyes_closed", "yawning"]
        with open(paths["records"]) as fp:
            assert len(list(dio.read_states(fp))) == 900

    def test_eval_reports_accuracy(self, workspace, capsys, tmp_path):
        _, paths = workspace
        cli.main(
            ["run", "--input", str(paths["frames"]), "--profile", str(paths["profile"]),
             "--out", str(paths["events"]), "--records", str(paths["records"])]
        )
        capsys.readouterr()
        json_out = tmp_path / "eval.json"
        rc = cli.main(
            ["eval", "--pred", str(paths["records"]), "--labels", str(paths["labels"]),
             "--channel", "eye", "--json", str(json_out)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out and "confusion:" in out
        doc = json.loads(json_out.read_text())
        assert doc["channel"] == "eye"
        assert doc["accuracy"] > 95.0

    def test_compare_single_stream(self, workspace, capsys, tmp_path):
        _, paths = workspace
        json_out = tmp_path / "compare.json"
        rc = cli.main(
            ["compare", "--input", str(paths["frames"]), "--labels", str(paths["labels"]),
             "--profile", str(paths["profile"]), "--json", str(json_out)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Eye state detection" in out and "Yawning detection" in out
        doc = json.loads(json_out.read_text())
        assert doc["mode"] == "single"
        assert set(doc["methods"]) == {"generalized", "personalized"}

    def test_compare_population_directory(self, tmp_path, capsys):
        pop = tmp_path / "population"
        pop.mkdir()
        for i, ear in enumerate((0.20, 0.30, 0.36)):
            script_path = tmp_path / f"driver{i}.script.json"
            write_script_file(
                script_path, duration=30.0, events=SESSION_EVENTS, seed=100 + i, ear=ear
            )
            assert cli.main(
                ["synth", "--script", str(script_path),
                 "--out", str(pop / f"driver{i:02d}.frames.jsonl"),
                 "--labels", str(pop / f"driver{i:02d}.labels.jsonl")]
            ) == 0
        json_out = tmp_path / "population.json"
        rc = cli.main(["compare", "--input", str(pop), "--json", str(json_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 drivers" in out
        doc = json.loads(json_out.read_text())
        assert doc["mode"] == "population"
        assert len(doc["per_driver"]) == 3
        assert (
            doc["mean_accuracy"]["personalized"]["eye"]
            > doc["mean_accuracy"]["generalized"]["eye"]
        )

        # a <stem>.profile.json replaces auto-calibration for that driver only
        calib_script = tmp_path / "calib.script.json"
        write_script_file(calib_script, duration=6.0, ear=0.40)
        calib_frames = tmp_path / "calib.frames.jsonl"
        profile = pop / "driver02.profile.json"
        assert cli.main(
            ["synth", "--script", str(calib_script), "--out", str(calib_frames),
             "--labels", str(tmp_path / "calib.labels.jsonl")]
        ) == 0
        assert cli.main(["calibrate", "--input", str(calib_frames), "--out", str(profile)]) == 0
        assert cli.main(["compare", "--input", str(pop), "--json", str(json_out)]) == 0
        with_profile = json.loads(json_out.read_text())["per_driver"]
        single_out = tmp_path / "single.json"
        assert cli.main(
            ["compare", "--input", str(pop / "driver02.frames.jsonl"),
             "--labels", str(pop / "driver02.labels.jsonl"), "--profile", str(profile),
             "--json", str(single_out)]
        ) == 0
        capsys.readouterr()
        single = json.loads(single_out.read_text())["methods"]
        assert with_profile[2] == {
            method: {ch: entry["channels"][ch]["accuracy"] for ch in ("eye", "mouth")}
            for method, entry in single.items()
        }
        assert with_profile[2] != doc["per_driver"][2]
        assert with_profile[:2] == doc["per_driver"][:2]

    @pytest.mark.parametrize("external_stem", ["driver00", "driver01"])
    def test_compare_population_mixed_methods_is_input_error(
        self, tmp_path, capsys, external_stem
    ):
        pop = tmp_path / "population"
        pop.mkdir()
        script_path = tmp_path / "session.script.json"
        write_script_file(script_path, duration=10.0)
        for stem in ("driver00", "driver01"):
            assert cli.main(
                ["synth", "--script", str(script_path),
                 "--out", str(pop / f"{stem}.frames.jsonl"),
                 "--labels", str(pop / f"{stem}.labels.jsonl")]
            ) == 0
        # labels are valid external states: a perfect external classifier
        (pop / f"{external_stem}.external.jsonl").write_bytes(
            (pop / f"{external_stem}.labels.jsonl").read_bytes()
        )
        capsys.readouterr()
        json_out = tmp_path / "population.json"
        rc = cli.main(["compare", "--input", str(pop), "--json", str(json_out)])
        assert rc == 1
        captured = capsys.readouterr()
        two = ["generalized", "personalized"]
        three = two + ["external"]
        first, second = (three, two) if external_stem == "driver00" else (two, three)
        assert captured.err == (
            f"drowsy: reports score different methods: driver00 has {first}, "
            f"driver01 has {second}\n"
        )
        assert captured.out == ""
        assert not json_out.exists()

    @pytest.mark.parametrize("case", ["scored", "bad_second_driver", "caller_disabled"])
    def test_compare_restores_collector_state(self, tmp_path, capsys, monkeypatch, case):
        pop = tmp_path / "population"
        pop.mkdir()
        script_path = tmp_path / "session.script.json"
        write_script_file(script_path, duration=10.0)
        for stem in ("driver00", "driver01"):
            assert cli.main(
                ["synth", "--script", str(script_path),
                 "--out", str(pop / f"{stem}.frames.jsonl"),
                 "--labels", str(pop / f"{stem}.labels.jsonl")]
            ) == 0
        if case == "bad_second_driver":
            with open(pop / "driver01.frames.jsonl", "a") as sink:
                sink.write("{not json\n")
        capsys.readouterr()
        during = []

        def spy(*args, **kwargs):
            during.append(gc.isenabled())
            return compare(*args, **kwargs)

        compare = cli.compare
        monkeypatch.setattr(cli, "compare", spy)
        was_enabled = gc.isenabled()
        if case == "caller_disabled":
            gc.disable()
        try:
            rc = cli.main(["compare", "--input", str(pop)])
            after = gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()
        assert after is (case != "caller_disabled")
        if case == "bad_second_driver":
            assert rc == 1
            assert capsys.readouterr().err.startswith("drowsy: driver01: line 301:")
            assert during == [False]  # the first driver was scored, the second failed to parse
        else:
            assert rc == 0
            assert during == [False, False]

    def test_bell_rings_once_per_alert_and_changes_no_output(self, workspace, tmp_path, capsys):
        _, paths = workspace
        runs = []
        for flags in ([], ["--bell"]):
            events = tmp_path / f"events{len(flags)}.jsonl"
            records = tmp_path / f"records{len(flags)}.jsonl"
            assert cli.main(
                ["run", "--input", str(paths["frames"]), "--profile", str(paths["profile"]),
                 "--out", str(events), "--records", str(records), *flags]
            ) == 0
            bells = capsys.readouterr().err.count("\a")
            runs.append((events.read_bytes(), records.read_bytes(), bells))
        (events, records, quiet), (bell_events, bell_records, rung) = runs
        assert (bell_events, bell_records) == (events, records)
        assert quiet == 0 and rung == events.count(b"\n") == 2

    def test_run_external_mode_round_trip(self, workspace, tmp_path, capsys):
        _, paths = workspace
        cli.main(
            ["run", "--input", str(paths["frames"]), "--profile", str(paths["profile"]),
             "--out", str(paths["events"]), "--records", str(paths["records"])]
        )
        external_events = tmp_path / "external.events.jsonl"
        rc = cli.main(
            ["run", "--input", str(paths["frames"]), "--profile", str(paths["profile"]),
             "--external", str(paths["records"]), "--out", str(external_events)]
        )
        assert rc == 0
        assert external_events.read_bytes() == paths["events"].read_bytes()


class TestExitCodes:
    def test_short_recording_is_domain_failure(self, tmp_path, capsys):
        script_path = tmp_path / "short.json"
        write_script_file(script_path, duration=1.0)
        frames = tmp_path / "short.jsonl"
        labels = tmp_path / "short.labels.jsonl"
        cli.main(["synth", "--script", str(script_path), "--out", str(frames),
                  "--labels", str(labels)])
        rc = cli.main(["calibrate", "--input", str(frames), "--out", str(tmp_path / "p.json"),
                       "--duration", "5.0"])
        assert rc == 2
        assert "insufficient" in capsys.readouterr().err

    def test_one_frame_recording_is_domain_failure(self, workspace, tmp_path, capsys):
        _, paths = workspace
        one = tmp_path / "one.jsonl"
        one.write_text(paths["calib_frames"].read_text().splitlines(keepends=True)[0])
        out = tmp_path / "p.json"
        rc = cli.main(["calibrate", "--input", str(one), "--min-samples", "1", "--out", str(out)])
        assert rc == 2
        assert "recording covers 0.000 s" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_directory_without_frame_streams(self, tmp_path, capsys):
        (tmp_path / "d.labels.jsonl").write_text("")
        assert cli.main(["compare", "--input", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", f"drowsy: no *.frames.jsonl files under {tmp_path}\n")

    @pytest.mark.parametrize(
        "fault, rc, message",
        [
            ("label", 1, "b: line 7: field 'face' must be a boolean"),
            ("lead-in", 2, "b: insufficient calibration duration: recording covers 3.001 s, "
                           "need 5.000 s"),
            ("missing", 1, "b: [Errno 2] No such file or directory: '{dir}/b.labels.jsonl'"),
        ],
        ids=["label", "lead-in", "missing"],
    )
    def test_compare_directory_error_names_the_driver(self, tmp_path, capsys, fault, rc, message):
        pop = tmp_path / "pop"
        pop.mkdir()
        for stem in ("a", "b", "c"):
            script_path = tmp_path / f"{stem}.script.json"
            short = stem == "b" and fault == "lead-in"
            write_script_file(script_path, duration=3.0 if short else 8.0)
            assert cli.main(["synth", "--script", str(script_path),
                             "--out", str(pop / f"{stem}.frames.jsonl"),
                             "--labels", str(pop / f"{stem}.labels.jsonl")]) == 0
        labels = pop / "b.labels.jsonl"
        if fault == "label":
            lines = labels.read_text().splitlines(keepends=True)
            lines[6] = lines[6].replace('"face": true', '"face": 1')
            labels.write_text("".join(lines))
        elif fault == "missing":
            labels.unlink()
        capsys.readouterr()
        assert cli.main(["compare", "--input", str(pop)]) == rc
        assert capsys.readouterr() == ("", f"drowsy: {message.format(dir=pop)}\n")

    def test_parse_error_is_input_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        rc = cli.main(["calibrate", "--input", str(bad), "--out", str(tmp_path / "p.json")])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = cli.main(["calibrate", "--input", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "p.json")])
        assert rc == 1
        assert "nope.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "run --external"])
    def test_non_finite_state_timestamp_is_input_error(self, workspace, tmp_path, capsys, command):
        _, paths = workspace
        lines = paths["labels"].read_text().splitlines(keepends=True)
        lines[1] = re.sub(r'"t": [0-9.]+', '"t": 1e400', lines[1], count=1)
        states = tmp_path / "overflow.states.jsonl"
        states.write_text("".join(lines))
        if command == "eval":
            argv = ["eval", "--pred", str(states), "--labels", str(paths["labels"]),
                    "--channel", "eye"]
        else:
            argv = ["run", "--input", str(paths["frames"]), "--profile", str(paths["profile"]),
                    "--external", str(states), "--out", str(tmp_path / "events.jsonl")]
        assert cli.main(argv) == 1
        assert "line 2: timestamp must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("run", "ear_threshold", "1e400"),
            ("run", "mar_threshold", "-1" + "0" * 400),
            ("synth", "fps", "1e400"),
            ("synth", "noise_sigma", "1e400"),
        ],
        ids=["profile", "profile-integer", "script-fps", "script-noise"],
    )
    def test_non_finite_document_number_is_input_error(
        self, workspace, tmp_path, capsys, command, field, value
    ):
        _, paths = workspace
        source = paths["profile"] if command == "run" else tmp_path / "session.script.json"
        bad = tmp_path / ("overflow" + source.suffix)
        bad.write_text(re.sub(rf'"{field}": [^,\n]+', f'"{field}": {value}', source.read_text()))
        out = tmp_path / "out.jsonl"
        labels = tmp_path / "out.labels.jsonl"
        if command == "run":
            argv = ["run", "--input", str(paths["frames"]), "--profile", str(bad),
                    "--out", str(out)]
        else:
            argv = ["synth", "--script", str(bad), "--out", str(out), "--labels", str(labels)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("drowsy: ")
        assert f"field '{field}' must be finite" in err
        assert not out.exists() and not labels.exists()

    def test_script_frame_time_without_millisecond_key_is_input_error(self, tmp_path, capsys):
        # 100 frames, but 1000 * i / fps overflows from frame 2 on
        source = tmp_path / "keyless.script.json"
        with open(source, "w") as fp:
            dio.write_script(fp, SessionScript(fps=30.0, duration_s=1.0, driver=DRIVER))
        source.write_text(re.sub(r'"duration_s": [^,\n]+', '"duration_s": 1e307',
                                 re.sub(r'"fps": [^,\n]+', '"fps": 1e-305', source.read_text())))
        out = tmp_path / "out.jsonl"
        labels = tmp_path / "out.labels.jsonl"
        argv = ["synth", "--script", str(source), "--out", str(out), "--labels", str(labels)]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", "drowsy: frame times must be at most 1.7976931348623156e+305 s\n"
        )
        assert not out.exists() and not labels.exists()

    def test_script_frame_count_overflow_is_input_error(self, workspace, tmp_path, capsys):
        _, paths = workspace
        source = (tmp_path / "session.script.json").read_text()
        for field in ("fps", "duration_s"):
            source = re.sub(rf'"{field}": [^,\n]+', f'"{field}": 1e200', source)
        bad = tmp_path / "overflow.script.json"
        bad.write_text(source)
        out = tmp_path / "out.jsonl"
        labels = tmp_path / "out.labels.jsonl"
        argv = ["synth", "--script", str(bad), "--out", str(out), "--labels", str(labels)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("drowsy: ")
        assert "frame count" in err
        assert not out.exists() and not labels.exists()

    @pytest.mark.parametrize("epoch", ["abc", "", "1e9", "99999999999999999999"])
    def test_malformed_source_date_epoch_is_input_error(self, workspace, capsys, epoch,
                                                         monkeypatch):
        tmp_path, paths = workspace
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        out = tmp_path / "epoch.profile.json"
        rc = cli.main(["calibrate", "--input", str(paths["calib_frames"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("drowsy: ") and "SOURCE_DATE_EPOCH" in err, err
        assert not out.exists()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".drowsy-")]

    def test_malformed_source_date_epoch_is_checked_before_input(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
        out = tmp_path / "p.json"
        rc = cli.main(["calibrate", "--input", str(tmp_path / "missing.jsonl"), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("drowsy: ") and "SOURCE_DATE_EPOCH" in err, err
        assert "missing.jsonl" not in err
        assert not out.exists()

    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--frobnicate"])
        assert err.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 1

    def test_compare_single_without_profile(self, workspace, capsys):
        _, paths = workspace
        rc = cli.main(["compare", "--input", str(paths["frames"])])
        assert rc == 1
        assert "requires" in capsys.readouterr().err

    def test_alerts_do_not_change_exit_code(self, workspace, capsys):
        _, paths = workspace
        rc = cli.main(["run", "--input", str(paths["frames"]),
                       "--profile", str(paths["profile"]), "--out", "-"])
        assert rc == 0
        assert "eyes_closed" in capsys.readouterr().out

    def test_empty_input_empty_log_success(self, workspace, tmp_path, capsys):
        _, paths = workspace
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "empty.events.jsonl"
        rc = cli.main(["run", "--input", str(empty),
                       "--profile", str(paths["profile"]), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == ""


def overflow_stream(source, target, kind):
    """Rewrite every frame's left eye so that its metrics leave float range.

    "inf": p2/p6 at y = -+1.7e308, so the opening, and the EAR, is infinite.
    "huge": both vertical pairs at y = -+4e307 over corners 0.5 apart, so
    the EAR is 1.6e308: finite, but its running sums are not.
    """
    with open(source) as src:
        frames = list(dio.read_frames(src))
    edited = []
    for frame in frames:
        pts = list(frame.points)
        if kind == "inf":
            pts[1], pts[5] = (pts[1][0], -1.7e308), (pts[5][0], 1.7e308)
        else:
            pts[3] = (pts[0][0] + 0.5, pts[0][1])
            for i, y in ((1, -4e307), (2, -4e307), (4, 4e307), (5, 4e307)):
                pts[i] = (pts[i][0], y)
        edited.append(dataclasses.replace(frame, points=tuple(pts)))
    with open(target, "w") as sink:
        dio.write_frames(sink, edited)


OVERFLOWS = [
    ("inf", "run", "frame at t=0.000: eye aspect ratio overflows"),
    ("inf", "calibrate", "frame at t=0.000: eye aspect ratio overflows"),
    ("huge", "run", "frame at t=0.067: smoothed mean overflows"),
    ("huge", "calibrate", "frames t=0.000..5.967: trimmed mean of 144 values overflows"),
]


@pytest.mark.parametrize(
    "kind, command, message", OVERFLOWS, ids=[f"{k}-{c}" for k, c, _ in OVERFLOWS]
)
def test_overflowing_metrics_are_input_errors(workspace, capsys, kind, command, message):
    tmp_path, paths = workspace
    frames = tmp_path / f"{kind}.frames.jsonl"
    overflow_stream(paths["calib_frames"], frames, kind)
    outputs = [tmp_path / "out.jsonl", tmp_path / "records.jsonl"]
    if command == "run":
        argv = ["run", "--input", str(frames), "--profile", str(paths["profile"]),
                "--out", str(outputs[0]), "--records", str(outputs[1])]
    else:
        argv = ["calibrate", "--input", str(frames), "--out", str(outputs[0])]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"drowsy: {message}\n")
    assert not any(path.exists() for path in outputs)
    assert not list(tmp_path.glob(".drowsy-*"))


KEYLESS = "timestamp must be finite and in [0, 1.7976931348623156e+305] s, got 1e+306"


@pytest.mark.parametrize("command", ["run", "calibrate", "eval", "run --external"])
def test_timestamp_without_millisecond_key_is_input_error(workspace, capsys, command):
    tmp_path, paths = workspace
    source = paths["calib_frames"] if command in ("run", "calibrate") else paths["labels"]
    lines = source.read_text().splitlines(keepends=True)
    lines[1] = re.sub(r'"t": [0-9.]+', '"t": 1e306', lines[1], count=1)
    bad = tmp_path / ("keyless" + "".join(source.suffixes))
    bad.write_text("".join(lines))
    outputs = [tmp_path / "out.jsonl", tmp_path / "out.records.jsonl"]
    argv = {
        "run": ["run", "--input", str(bad), "--profile", str(paths["profile"]),
                "--out", str(outputs[0]), "--records", str(outputs[1])],
        "calibrate": ["calibrate", "--input", str(bad), "--out", str(outputs[0])],
        "eval": ["eval", "--pred", str(bad), "--labels", str(paths["labels"]),
                 "--channel", "eye", "--json", str(outputs[0])],
        "run --external": ["run", "--input", str(paths["frames"]),
                           "--profile", str(paths["profile"]), "--external", str(bad),
                           "--out", str(outputs[0]), "--records", str(outputs[1])],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"drowsy: line 2: {KEYLESS}\n")
    assert not any(path.exists() for path in outputs)
    assert not list(tmp_path.glob(".drowsy-*"))


@pytest.mark.parametrize("command", ["calibrate", "compare"])
def test_threshold_beyond_float_range_is_input_error(tmp_path, capsys, command):
    # a head-drop baseline of 1.2 times --head-factor 1.7e308 overflows
    script = SessionScript(fps=30.0, duration_s=6.0, driver=DriverParams(0.32, 0.40, 1.2, 200.0))
    script_path = tmp_path / "head.script.json"
    with open(script_path, "w") as fp:
        dio.write_script(fp, script)
    drivers = tmp_path / "drivers"
    drivers.mkdir()
    frames = drivers / "d1.frames.jsonl"
    assert cli.main(["synth", "--script", str(script_path), "--out", str(frames),
                     "--labels", str(drivers / "d1.labels.jsonl")]) == 0
    out = tmp_path / "out.json"
    if command == "calibrate":
        argv = ["calibrate", "--input", str(frames), "--out", str(out)]
    else:
        argv = ["compare", "--input", str(drivers), "--json", str(out)]
    capsys.readouterr()
    assert cli.main([*argv, "--head-factor", "1.7e308"]) == 1
    driver = "d1: " if command == "compare" else ""  # directory mode names the driver
    assert capsys.readouterr() == ("", f"drowsy: {driver}head_drop_limit must be finite, got inf\n")
    assert not out.exists()
    assert cli.main([*argv, "--head-factor", "1.4e308"]) == 0 and out.exists()


class TestOutputHygiene:
    def test_no_partial_output_on_failure(self, workspace, tmp_path):
        _, paths = workspace
        truncated = tmp_path / "truncated.jsonl"
        lines = paths["frames"].read_text().splitlines(keepends=True)
        truncated.write_text("".join(lines[:50]) + '{"t": broken\n')
        out = tmp_path / "events.out.jsonl"
        rc = cli.main(["run", "--input", str(truncated),
                       "--profile", str(paths["profile"]), "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert not list(tmp_path.glob(".drowsy-*"))
        # the final rename fails when the destination is a directory
        out_dir = tmp_path / "events.dir"
        out_dir.mkdir()
        rc = cli.main(["run", "--input", str(paths["frames"]),
                       "--profile", str(paths["profile"]), "--out", str(out_dir)])
        assert rc == 1
        assert out_dir.is_dir() and not list(out_dir.iterdir())
        assert not list(tmp_path.glob(".drowsy-*"))

    def test_stdout_as_destination(self, workspace, capsys):
        _, paths = workspace
        rc = cli.main(["calibrate", "--input", str(paths["calib_frames"]), "--out", "-"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format_version"] == 1

    def test_stdin_as_source(self, workspace, capsys, monkeypatch, tmp_path):
        _, paths = workspace
        monkeypatch.setattr("sys.stdin", stdio.StringIO(paths["calib_frames"].read_text()))
        rc = cli.main(["calibrate", "--input", "-", "--out", "-"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["personalized"] is True

        # single-stream compare reads any one of its streams from stdin
        sources = {
            "--input": paths["frames"],
            "--labels": paths["labels"],
            "--profile": paths["profile"],
            "--external": paths["labels"],  # a label stream is a valid external state stream
        }

        def compare(stdin_flag):
            argv = ["compare"]
            for flag, path in sources.items():
                argv += [flag, "-" if flag == stdin_flag else str(path)]
            if stdin_flag is not None:
                monkeypatch.setattr("sys.stdin", stdio.StringIO(sources[stdin_flag].read_text()))
            json_out = tmp_path / "compare.json"
            assert cli.main([*argv, "--json", str(json_out)]) == 0
            return capsys.readouterr().out, json_out.read_bytes()

        expected = compare(None)
        assert "external" in json.loads(expected[1])["methods"]
        for flag in ("--input", "--labels", "--external"):
            assert compare(flag) == expected, flag


RUN = ["run", "--input", "{frames}", "--profile", "{profile}"]
EVAL = ["eval", "--pred", "{labels}", "--labels", "{calib_labels}", "--channel", "eye"]
COMPARE = ["compare", "--input", "{frames}", "--labels", "{labels}", "--profile", "{profile}"]
SYNTH = ["synth", "--script", "{script}"]

# (argv, message): each refused before any file is opened, so nothing is written
PATH_CONFLICTS = [
    (RUN + ["--out", "{new}", "--records", "{new}"], "--out and --records name the same file"),
    (RUN + ["--out", "{new}", "--records", "{new_again}"], "--out and --records name the same"),
    (RUN + ["--out", "{frames}"], "--input and --out name the same file"),
    (RUN + ["--out", "{link}"], "--input and --out name the same file"),  # a symlink to frames
    (RUN + ["--out", "{hard_link}"], "--input and --out name the same file"),
    (RUN + ["--out", "{new}", "--records", "{profile}"], "--profile and --records name the same"),
    (RUN + ["--external", "{labels}", "--out", "{labels}"], "--external and --out name the same"),
    (["calibrate", "--input", "{calib_frames}", "--out", "{calib_frames}"],
     "--input and --out name the same file"),
    (SYNTH + ["--out", "{script}", "--labels", "{new}"], "--script and --out name the same file"),
    (SYNTH + ["--out", "{new}", "--labels", "{new}"], "--out and --labels name the same file"),
    (EVAL + ["--json", "{labels}"], "--pred and --json name the same file"),
    (EVAL + ["--json", "{calib_labels}"], "--labels and --json name the same file"),
    (COMPARE + ["--json", "{labels}"], "--labels and --json name the same file"),
    (COMPARE + ["--external", "{calib_labels}", "--json", "{calib_labels}"],
     "--external and --json name the same file"),
    (["compare", "--input", "{pop}", "--json", "{pop}/d.labels.jsonl"],
     "--input and --json name the same file: {pop}/d.labels.jsonl"),
    (["compare", "--input", "{pop}", "--json", "{pop}/d.profile.json"],
     "--input and --json name the same file: {pop}/d.profile.json"),
    # "-" is one stream per direction
    (COMPARE[:3] + ["--labels", "-", "--profile", "{profile}", "--external", "-"],
     "--labels and --external both read standard input"),
    (["run", "--input", "-", "--profile", "-"], "--input and --profile both read standard input"),
    (RUN + ["--out", "-", "--records", "-"], "--out and --records both write standard output"),
    (RUN + ["--records", "-"], "--out and --records both write standard output"),  # --out is -
    (SYNTH + ["--out", "-", "--labels", "-"], "--out and --labels both write standard output"),
    (["eval", "--pred", "-", "--labels", "-", "--channel", "eye"],
     "--pred and --labels both read standard input"),
    (EVAL + ["--json", "-"], "--json and the text report both write standard output"),
    (COMPARE + ["--json", "-"], "--json and the text report both write standard output"),
    # an empty path is refused, not read as a flag not given
    (RUN + ["--external", ""], "--external names an empty path"),
    (RUN + ["--records", ""], "--records names an empty path"),
    (EVAL + ["--json", ""], "--json names an empty path"),
    (COMPARE + ["--external", ""], "--external names an empty path"),
    (COMPARE + ["--json", ""], "--json names an empty path"),
    (["compare", "--input", "{pop}", "--json", ""], "--json names an empty path"),
]


class TestPathRules:
    @pytest.fixture
    def files(self, workspace):
        tmp_path, paths = workspace
        pop = tmp_path / "pop"
        pop.mkdir()
        for suffix, source in ((".frames.jsonl", "frames"), (".labels.jsonl", "labels"),
                               (".profile.json", "profile")):
            (pop / f"d{suffix}").write_bytes(paths[source].read_bytes())
        (tmp_path / "link.jsonl").symlink_to(paths["frames"])
        os.link(paths["frames"], tmp_path / "hard_link.jsonl")
        return tmp_path, {
            **{name: str(path) for name, path in paths.items()},
            "script": str(tmp_path / "session.script.json"),
            "new": str(tmp_path / "new.jsonl"),
            "new_again": str(tmp_path / "pop" / ".." / "new.jsonl"),
            "link": str(tmp_path / "link.jsonl"),
            "hard_link": str(tmp_path / "hard_link.jsonl"),
            "pop": str(pop),
        }

    @staticmethod
    def _tree(root):
        return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    @pytest.mark.parametrize(
        "argv, message", PATH_CONFLICTS, ids=[" ".join(argv) for argv, _ in PATH_CONFLICTS]
    )
    def test_conflicting_paths_are_refused_before_any_file_is_opened(
        self, files, argv, message, capsys, monkeypatch
    ):
        tmp_path, names = files
        before = self._tree(tmp_path)
        stdin = stdio.StringIO(open(names["frames"]).read())
        monkeypatch.setattr("sys.stdin", stdin)
        capsys.readouterr()
        rc = cli.main([arg.format(**names) for arg in argv])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("drowsy: " + message.format(**names)), err
        assert out == "" and stdin.tell() == 0
        assert self._tree(tmp_path) == before

    @pytest.mark.parametrize(
        "flag, value",
        [("--labels", "{labels}"), ("--profile", "{new}"), ("--external", "{labels}")],
    )
    def test_directory_compare_refuses_single_stream_flags(self, files, capsys, flag, value):
        tmp_path, names = files
        before = self._tree(tmp_path)
        capsys.readouterr()
        rc = cli.main(["compare", "--input", names["pop"], flag, value.format(**names)])
        assert rc == 1
        message = f"drowsy: {flag} does not apply to a directory --input\n"
        assert capsys.readouterr() == ("", message)
        assert self._tree(tmp_path) == before

    def test_distinct_paths_and_one_dash_per_direction_still_work(self, files, capsys,
                                                                 monkeypatch):
        tmp_path, names = files
        monkeypatch.setattr("sys.stdin", stdio.StringIO(open(names["labels"]).read()))
        # an input may repeat, and one stdin plus one stdout is fine
        argv = COMPARE[:3] + ["--labels", "-", "--profile", "{profile}",
                              "--external", "{labels}", "--json", "{new}"]
        assert cli.main([arg.format(**names) for arg in argv]) == 0
        assert "external" in capsys.readouterr().out
        assert cli.main(["compare", "--input", names["pop"],
                         "--json", names["pop"] + "/report.json"]) == 0


class TestDeterminism:
    def test_synth_reproducible(self, tmp_path):
        script_path = tmp_path / "s.json"
        write_script_file(script_path, duration=8.0, events=(ScriptEvent("yawn", 3.0, 1.0, 1.0),),
                          noise=0.5)
        outs = []
        for tag in ("a", "b"):
            frames = tmp_path / f"{tag}.frames.jsonl"
            labels = tmp_path / f"{tag}.labels.jsonl"
            assert cli.main(["synth", "--script", str(script_path), "--out", str(frames),
                             "--labels", str(labels)]) == 0
            outs.append((frames.read_bytes(), labels.read_bytes()))
        assert outs[0] == outs[1]

    def test_seed_override_changes_noise(self, tmp_path):
        script_path = tmp_path / "s.json"
        write_script_file(script_path, duration=8.0, noise=0.5, seed=1)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        cli.main(["synth", "--script", str(script_path), "--out", str(a),
                  "--labels", str(tmp_path / "la.jsonl")])
        cli.main(["synth", "--script", str(script_path), "--out", str(b),
                  "--labels", str(tmp_path / "lb.jsonl"), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()


# Every config flag: (commands, flag, config, field or parameter, bad value,
# expected error). The bad value is invalid for that flag alone.
CONFIG_FLAGS = [
    (("run", "compare"), "--buffer-capacity", PipelineConfig, "buffer_capacity", "0",
     "buffer capacity"),
    (("run", "compare"), "--sustain-eyes", PipelineConfig, "sustain_eyes_s", "-1",
     "sustain durations"),
    (("run", "compare"), "--sustain-mouth", PipelineConfig, "sustain_mouth_s", "-1",
     "sustain durations"),
    (("run", "compare"), "--sustain-head", PipelineConfig, "sustain_head_s", "-1",
     "sustain durations"),
    (("run", "compare"), "--sustain-presence", PipelineConfig, "sustain_presence_s", "-1",
     "sustain durations"),
    (("run", "compare"), "--sustain-perclos", PipelineConfig, "sustain_perclos_s", "-1",
     "sustain durations"),
    (("run", "compare"), "--rearm-frames", PipelineConfig, "rearm_frames", "-1", "re-arm"),
    (("run", "compare"), "--perclos-window", PipelineConfig, "perclos_window_s", "0",
     "PERCLOS window"),
    (("run", "compare"), "--perclos-limit", PipelineConfig, "perclos_limit", "101",
     "PERCLOS limit"),
    # positive, but 0 ms on the millisecond grid
    (("run", "compare"), "--perclos-window", PipelineConfig, "perclos_window_s", "0.0004",
     "PERCLOS window must be positive"),
    (("calibrate",), "--duration", CalibrationConfig, "duration_s", "0", "calibration duration"),
    (("compare",), "--calib-duration", CalibrationConfig, "duration_s", "0",
     "calibration duration"),
    (("calibrate",), "--duration", CalibrationConfig, "duration_s", "0.0004",
     "calibration duration (on the millisecond grid)"),
    (("compare",), "--calib-duration", CalibrationConfig, "duration_s", "0.0004",
     "calibration duration (on the millisecond grid)"),
    (("calibrate", "compare"), "--min-samples", CalibrationConfig, "min_samples", "0",
     "calibration duration"),
    (("calibrate", "compare"), "--ear-factor", CalibrationConfig, "ear_factor", "0",
     "threshold factors"),
    (("calibrate", "compare"), "--mar-factor", CalibrationConfig, "mar_factor", "0",
     "threshold factors"),
    (("calibrate", "compare"), "--head-factor", CalibrationConfig, "head_factor", "0",
     "threshold factors"),
    (("compare",), "--gen-ear", generalized_profile, "ear_threshold", "0",
     "generalized thresholds"),
    (("compare",), "--gen-mar", generalized_profile, "mar_threshold", "0",
     "generalized thresholds"),
    (("compare",), "--gen-head", generalized_profile, "head_drop_limit", "0",
     "generalized thresholds"),
    # non-finite values pass every comparison with nan; each float flag rejects them
    (("run", "compare"), "--sustain-eyes", PipelineConfig, "sustain_eyes_s", "inf",
     "sustain_eyes_s must be finite"),
    (("run", "compare"), "--sustain-mouth", PipelineConfig, "sustain_mouth_s", "nan",
     "sustain_mouth_s must be finite"),
    (("run", "compare"), "--sustain-head", PipelineConfig, "sustain_head_s", "inf",
     "sustain_head_s must be finite"),
    (("run", "compare"), "--sustain-presence", PipelineConfig, "sustain_presence_s", "nan",
     "sustain_presence_s must be finite"),
    (("run", "compare"), "--sustain-perclos", PipelineConfig, "sustain_perclos_s", "inf",
     "sustain_perclos_s must be finite"),
    (("run", "compare"), "--perclos-window", PipelineConfig, "perclos_window_s", "nan",
     "perclos_window_s must be finite"),
    (("run", "compare"), "--perclos-limit", PipelineConfig, "perclos_limit", "nan",
     "perclos_limit must be finite"),
    (("calibrate",), "--duration", CalibrationConfig, "duration_s", "inf",
     "duration_s must be finite"),
    (("compare",), "--calib-duration", CalibrationConfig, "duration_s", "inf",
     "duration_s must be finite"),
    (("calibrate", "compare"), "--ear-factor", CalibrationConfig, "ear_factor", "nan",
     "ear_factor must be finite"),
    (("calibrate", "compare"), "--mar-factor", CalibrationConfig, "mar_factor", "inf",
     "mar_factor must be finite"),
    (("calibrate", "compare"), "--head-factor", CalibrationConfig, "head_factor", "nan",
     "head_factor must be finite"),
    (("compare",), "--gen-ear", generalized_profile, "ear_threshold", "nan",
     "ear_threshold must be finite"),
    (("compare",), "--gen-mar", generalized_profile, "mar_threshold", "inf",
     "mar_threshold must be finite"),
    (("compare",), "--gen-head", generalized_profile, "head_drop_limit", "inf",
     "head_drop_limit must be finite"),
    # finite durations whose millisecond key (seconds * 1000) overflows
    (("run", "compare"), "--sustain-eyes", PipelineConfig, "sustain_eyes_s", "1e308",
     "sustain durations must be at most 1.7976931348623156e+305 s"),
    (("run", "compare"), "--sustain-head", PipelineConfig, "sustain_head_s", "1e308",
     "sustain durations must be at most"),
    (("run", "compare"), "--sustain-perclos", PipelineConfig, "sustain_perclos_s", "1e306",
     "sustain durations must be at most"),
    (("run", "compare"), "--perclos-window", PipelineConfig, "perclos_window_s", "1e308",
     "PERCLOS window must be positive and at most"),
    (("calibrate",), "--duration", CalibrationConfig, "duration_s", "1e308",
     "calibration duration must be at most"),
    (("compare",), "--calib-duration", CalibrationConfig, "duration_s", "1e308",
     "calibration duration must be at most"),
]

# Config groups in the order commands validate them; a bad value in an
# earlier group is reported even when later groups are bad too.
LATER_BAD_FLAGS = {
    PipelineConfig: ["--ear-factor", "0", "--gen-ear", "0"],
    CalibrationConfig: ["--gen-ear", "0"],
    generalized_profile: [],
}

MISSING_INPUTS = {
    "calibrate": ["--input", "missing.frames.jsonl"],
    "run": ["--input", "missing.frames.jsonl", "--profile", "missing.profile.json"],
    "compare": ["--input", "missing.frames.jsonl", "--labels", "missing.labels.jsonl",
                "--profile", "missing.profile.json"],
}


def _config_default(config, name):
    if dataclasses.is_dataclass(config):
        return {f.name: f.default for f in dataclasses.fields(config)}[name]
    return inspect.signature(config).parameters[name].default


@pytest.mark.parametrize(
    "commands, flag, config, name, bad, message",
    CONFIG_FLAGS,
    # a flag's first case is named by the flag alone, any later one by flag=value
    ids=[flag if all(other != flag for _, other, *_ in CONFIG_FLAGS[:i]) else f"{flag}={bad}"
         for i, (_, flag, _, _, bad, _) in enumerate(CONFIG_FLAGS)],
)
def test_config_flag_default_and_validation(
    commands, flag, config, name, bad, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    subcommands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    expected = _config_default(config, name)
    for command in commands:
        option = next(
            action for action in subcommands.choices[command]._actions
            if flag in action.option_strings
        )
        assert option.default == expected and type(option.default) is type(expected)
        assert option.type is type(expected)
        assert f"(default {expected})" in option.help

        later = LATER_BAD_FLAGS[config] if command == "compare" else []
        rc = cli.main([command, *MISSING_INPUTS[command], flag, bad, *later])
        err = capsys.readouterr().err
        assert rc == 1
        assert message in err, err
        assert "No such file" not in err


def test_invalid_flag_value_is_input_error(workspace, capsys):
    _, paths = workspace
    rc = cli.main(["run", "--input", str(paths["frames"]), "--profile", str(paths["profile"]),
                   "--out", "-", "--sustain-eyes", "-3"])
    assert rc == 1
    assert "sustain" in capsys.readouterr().err


def utf8_mode_stdin(data):
    """Standard input as the interpreter opens it in UTF-8 mode: it lets any byte through."""
    return stdio.TextIOWrapper(stdio.BytesIO(data), encoding="utf-8", errors="surrogateescape")


@pytest.mark.parametrize("command", ["run", "run stdin", "calibrate", "eval", "compare DIR"])
def test_input_that_is_not_utf8_is_input_error(workspace, capsys, monkeypatch, command):
    tmp_path, paths = workspace
    source = paths["labels"] if command == "eval" else paths["calib_frames"]
    data = source.read_bytes()
    middle = data.index(b"\n", len(data) // 2)  # past the text layer's first chunk
    data = data[:middle] + b"\xff" + data[middle:]
    bad = tmp_path / ("bad" + "".join(source.suffixes))
    bad.write_bytes(data)
    named = str(bad)
    outputs = [tmp_path / "out.jsonl", tmp_path / "out.records.jsonl"]
    if command == "run stdin":
        monkeypatch.setattr("sys.stdin", utf8_mode_stdin(data))
        named = "-"
    elif command == "compare DIR":
        pop = tmp_path / "pop"
        pop.mkdir()
        named = str(bad.rename(pop / "d.frames.jsonl"))
        (pop / "d.labels.jsonl").write_bytes(paths["calib_labels"].read_bytes())
    argv = {
        "run": ["run", "--input", named, "--profile", str(paths["profile"]),
                "--out", str(outputs[0]), "--records", str(outputs[1])],
        "calibrate": ["calibrate", "--input", named, "--out", str(outputs[0])],
        "eval": ["eval", "--pred", named, "--labels", str(paths["labels"]),
                 "--channel", "eye", "--json", str(outputs[0])],
        "compare DIR": ["compare", "--input", str(tmp_path / "pop"), "--json", str(outputs[0])],
    }[command.replace(" stdin", "")]
    capsys.readouterr()
    assert cli.main(argv) == 1
    driver = "d: " if command == "compare DIR" else ""  # directory mode names the driver
    assert capsys.readouterr() == ("", f"drowsy: {driver}{named}: not UTF-8 text\n")
    assert not any(path.exists() for path in outputs)
    assert not list(tmp_path.rglob(".drowsy-*"))


# Byte sequences that are not UTF-8: stray continuation and invalid bytes, a
# truncated sequence, an encoded surrogate, an overlong form, beyond U+10FFFF.
NOT_UTF8 = [b"\x80", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf",
            b"\xf4\x90\x80\x80"]


@st.composite
def damaged(draw, valid):
    """Random bytes, or valid bytes with bytes flipped, cut off or made invalid UTF-8."""
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(st.binary(max_size=400))
    data = bytearray(valid)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        edit = draw(st.sampled_from(["flip", "truncate", "not utf-8"]))
        if edit == "flip" and at < len(data):
            data[at] ^= draw(st.integers(min_value=1, max_value=255))
        elif edit == "truncate":
            del data[at:]
        elif edit == "not utf-8":
            data[at:at] = draw(st.sampled_from(NOT_UTF8))
    return bytes(data)


# Input name -> file name; a directory-mode compare reads the driver "d".
FUZZ_FILES = {
    "frames": "d.frames.jsonl",
    "labels": "d.labels.jsonl",
    "profile": "d.profile.json",
    "external": "d.external.jsonl",
    "records": "d.records.jsonl",
}
FUZZ_COMMANDS = {
    "calibrate": ["calibrate", "--input", "{frames}", "--out", "{out}"],
    "run": ["run", "--input", "{frames}", "--profile", "{profile}", "--external", "{external}",
            "--out", "{out}", "--records", "{out}.records"],
    "eval": ["eval", "--pred", "{records}", "--labels", "{labels}", "--channel", "eye",
             "--json", "{out}"],
    "compare": ["compare", "--input", "{frames}", "--labels", "{labels}", "--profile", "{profile}",
                "--external", "{external}", "--json", "{out}"],
    "compare DIR": ["compare", "--input", "{dir}", "--json", "{out}"],
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One small valid input of each kind, as bytes."""
    tmp_path = tmp_path_factory.mktemp("valid")
    script = tmp_path / "s.script.json"
    write_script_file(script, duration=6.0, events=(ScriptEvent("yawn", 5.0, 1.0, 1.0),))
    paths = {name: tmp_path / file for name, file in FUZZ_FILES.items()}
    assert cli.main(["synth", "--script", str(script), "--out", str(paths["frames"]),
                     "--labels", str(paths["labels"])]) == 0
    assert cli.main(["calibrate", "--input", str(paths["frames"]),
                     "--out", str(paths["profile"])]) == 0
    assert cli.main(["run", "--input", str(paths["frames"]), "--profile", str(paths["profile"]),
                     "--out", str(tmp_path / "events.jsonl"),
                     "--records", str(paths["records"])]) == 0
    paths["external"] = paths["labels"]  # a label stream is a valid external state stream
    return {name: path.read_bytes() for name, path in paths.items()}


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_no_input_ends_in_a_traceback(valid_inputs, command, data):
    """Damage one input of a command, read from a file or from stdin; main returns an exit code."""
    argv = FUZZ_COMMANDS[command]
    if command == "compare DIR":
        optional = data.draw(st.sets(st.sampled_from(["profile", "external"])))
        inputs = ["frames", "labels", *sorted(optional)]
    else:
        inputs = [name for name in FUZZ_FILES if "{" + name + "}" in argv]
    target = data.draw(st.sampled_from(inputs))
    content = data.draw(damaged(valid_inputs[target]))
    from_stdin = command != "compare DIR" and data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        names = {name: os.path.join(tmp, file) for name, file in FUZZ_FILES.items()}
        for name in inputs:
            with open(names[name], "wb") as sink:
                sink.write(content if name == target else valid_inputs[name])
        if from_stdin:
            names[target] = "-"
        names.update(dir=tmp, out=os.path.join(tmp, "out"))
        with (
            mock.patch("sys.stdin", utf8_mode_stdin(content)),
            redirect_stdout(stdio.StringIO()),
            redirect_stderr(stdio.StringIO()),
        ):
            try:
                rc = cli.main([arg.format(**names) for arg in argv])
            except SystemExit as exc:  # an argparse usage error
                rc = exc.code
    assert rc in (0, 1, 2)
