import argparse
import dataclasses
import gc
import hashlib
import inspect
import io as stdio
import itertools
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drowsy import cli
from drowsy import io as dio
from drowsy.calibration import CalibrationConfig, CalibrationProfile, generalized_profile
from drowsy.landmarks import DLIB68_MAP, MESH468_MAP, SEMANTIC_MAP
from drowsy.pipeline import PipelineConfig
from drowsy.synth import DriverParams, ScriptEvent, SessionScript

from conftest import coincident_corner_frame

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

    def test_undefined_recall_reads_n_a(self, workspace, capsys, tmp_path):
        # the calibration recording has no yawn, so the yawn recall is undefined
        _, paths = workspace
        records = tmp_path / "calib.records.jsonl"
        assert cli.main(["run", "--input", str(paths["calib_frames"]),
                         "--profile", str(paths["profile"]),
                         "--out", str(tmp_path / "calib.events.jsonl"),
                         "--records", str(records)]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--pred", str(records), "--labels", str(paths["calib_labels"]),
                         "--channel", "mouth"]) == 0
        assert capsys.readouterr().out == (
            "channel: mouth\n"
            "frames evaluated: 180 (excluded 0)\n"
            "accuracy: 100.00%\n"
            "confusion: tp=0 tn=180 fp=0 fn=0\n"
            "recall positive: n/a\n"
            "recall negative: 100.00%\n"
        )
        assert cli.main(["compare", "--input", str(paths["calib_frames"]),
                         "--labels", str(paths["calib_labels"]),
                         "--profile", str(paths["profile"])]) == 0
        out = capsys.readouterr().out
        assert out.count("    recall[yawn]=n/a recall[normal]=100.00%\n") == 2
        assert "n/a%" not in out

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

    @pytest.mark.parametrize("shift", [100.0, 1.7e9])
    def test_compare_auto_calibrates_from_each_drivers_first_frame(self, tmp_path, capsys, shift):
        # streams on a camera clock, in epoch seconds or cut from a longer drive
        base, moved = tmp_path / "base", tmp_path / "moved"
        base.mkdir()
        moved.mkdir()
        for i, ear in enumerate((0.24, 0.36)):
            script = tmp_path / f"d{i}.script.json"
            write_script_file(script, events=SESSION_EVENTS, noise=0.5, seed=10 + i, ear=ear)
            labels = base / f"d{i}.labels.jsonl"
            assert cli.main(["synth", "--script", str(script),
                             "--out", str(base / f"d{i}.frames.jsonl"),
                             "--labels", str(labels)]) == 0
            (base / f"d{i}.external.jsonl").write_bytes(labels.read_bytes())
            for kind, read, write in (("frames", dio.read_frames, dio.write_frames),
                                      ("labels", dio.read_states, dio.write_labels),
                                      ("external", dio.read_states, dio.write_labels)):
                name = f"d{i}.{kind}.jsonl"
                with open(base / name) as src, open(moved / name, "w") as dst:
                    write(dst, [dataclasses.replace(x, t=x.t + shift) for x in read(src)])
        reports = []
        for directory in (base, moved):
            json_out = tmp_path / f"{directory.name}.json"
            assert cli.main(["compare", "--input", str(directory), "--json", str(json_out)]) == 0
            reports.append((capsys.readouterr().out, json_out.read_bytes()))
        assert reports[0] == reports[1]

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
        differs = (
            "no external stream, driver00 has one" if external_stem == "driver00"
            else "an external stream, driver00 has none"
        )
        assert captured.err == f"drowsy: driver01 has {differs}\n"
        assert captured.out == ""
        assert not json_out.exists()

    @pytest.mark.parametrize(
        "case", ["scored", "bad_second_driver", "caller_disabled", "single_stream"]
    )
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
        argv = ["compare", "--input", str(pop)]
        if case == "bad_second_driver":
            with open(pop / "driver01.frames.jsonl", "a") as sink:
                sink.write("{not json\n")
        elif case == "single_stream":
            profile = tmp_path / "profile.json"
            frames = str(pop / "driver00.frames.jsonl")
            assert cli.main(["calibrate", "--input", frames, "--out", str(profile)]) == 0
            argv = ["compare", "--input", frames, "--labels", str(pop / "driver00.labels.jsonl"),
                    "--profile", str(profile)]
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
            rc = cli.main(argv)
            after = gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()
        assert after is (case != "caller_disabled")
        if case == "bad_second_driver":
            assert rc == 1
            assert capsys.readouterr().err.startswith("drowsy: driver01: line 301:")
            # both drivers reached compare; the second's frames failed to parse inside it
            assert during == [False, False]
        else:
            assert rc == 0
            assert during == ([False] if case == "single_stream" else [False, False])

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

    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_array_scheme_is_an_unknown_scheme(self, tmp_path, capsys, command):
        frames = tmp_path / "f.jsonl"
        frames.write_text('{"t": 0.100, "scheme": ["semantic"], "face": false, "points": []}\n')
        profile = tmp_path / "p.json"
        with open(profile, "w") as fp:
            dio.write_profile(fp, generalized_profile())
        args = {"run": ["--profile", str(profile)], "calibrate": ["--out", str(tmp_path / "o.json")]}
        assert cli.main([command, "--input", str(frames), *args[command]]) == 1
        assert capsys.readouterr() == ("", "drowsy: line 1: unknown scheme ['semantic']\n")

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

    @pytest.mark.parametrize("fault", ["missing-labels", "mixed-external"])
    def test_compare_directory_listing_faults_stop_before_scoring(
        self, workspace, capsys, monkeypatch, fault
    ):
        root, paths = workspace
        pop = root / "pop"
        pop.mkdir()
        for stem in ("a", "b", "c"):
            shutil.copy(paths["frames"], pop / f"{stem}.frames.jsonl")
            shutil.copy(paths["labels"], pop / f"{stem}.labels.jsonl")
        if fault == "missing-labels":
            (pop / "c.labels.jsonl").unlink()
            message = f"c: [Errno 2] No such file or directory: '{pop}/c.labels.jsonl'"
        else:
            shutil.copy(paths["labels"], pop / "c.external.jsonl")
            message = "c has an external stream, a has none"
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return compare(*args, **kwargs)

        compare = cli.compare
        monkeypatch.setattr(cli, "compare", spy)
        capsys.readouterr()
        assert cli.main(["compare", "--input", str(pop)]) == 1
        assert capsys.readouterr() == ("", f"drowsy: {message}\n")
        assert calls == []

    @pytest.mark.parametrize("suffix", ["profile.json", "external.jsonl"])
    def test_compare_dangling_driver_link_fails_as_a_missing_file(
        self, workspace, capsys, suffix
    ):
        # read as absent, the link would quietly auto-calibrate the driver or
        # drop its external column
        root, paths = workspace
        pop = root / "pop"
        pop.mkdir()
        shutil.copy(paths["frames"], pop / "a.frames.jsonl")
        shutil.copy(paths["labels"], pop / "a.labels.jsonl")
        (pop / f"a.{suffix}").symlink_to(root / "gone")
        capsys.readouterr()
        assert cli.main(["compare", "--input", str(pop)]) == 1
        assert capsys.readouterr() == (
            "", f"drowsy: a: [Errno 2] No such file or directory: '{pop}/a.{suffix}'\n"
        )

    def test_duplicate_external_state_names_its_line(self, tmp_path, capsys):
        # a 360-line label file written twice repeats t=0.000 at line 361
        pop = tmp_path / "pop"
        pop.mkdir()
        frames, labels = pop / "d0.frames.jsonl", pop / "d0.labels.jsonl"
        write_script_file(tmp_path / "d0.script.json", duration=12.0)
        assert cli.main(["synth", "--script", str(tmp_path / "d0.script.json"),
                         "--out", str(frames), "--labels", str(labels)]) == 0
        assert cli.main(["calibrate", "--input", str(frames),
                         "--out", str(tmp_path / "profile.json")]) == 0
        external = pop / "d0.external.jsonl"
        external.write_text(labels.read_text() * 2)
        message = "line 361: duplicate external state at t=0.000"
        capsys.readouterr()
        assert cli.main(["run", "--input", str(frames), "--profile", str(tmp_path / "profile.json"),
                         "--external", str(external), "--out", str(tmp_path / "events.jsonl")]) == 1
        assert capsys.readouterr() == ("", f"drowsy: {message}\n")
        assert cli.main(["compare", "--input", str(pop)]) == 1
        assert capsys.readouterr() == ("", f"drowsy: d0: {message}\n")

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

    def test_non_finite_event_number_names_its_event(self, workspace, tmp_path, capsys):
        source = tmp_path / "session.script.json"
        doc = json.loads(source.read_text())
        doc["events"][1]["start_t"] = math.inf
        bad = tmp_path / "overflow.script.json"
        bad.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        out, labels = tmp_path / "out.jsonl", tmp_path / "out.labels.jsonl"
        assert cli.main(["synth", "--script", str(bad), "--out", str(out),
                         "--labels", str(labels)]) == 1
        assert capsys.readouterr().err == (
            "drowsy: script: events[1]: field 'start_t' must be finite, got inf\n"
        )
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

    def test_script_coordinate_overflow_is_input_error(self, tmp_path, capsys):
        source = tmp_path / "loud.script.json"
        write_script_file(source, duration=2.0, noise=1e308)
        out = tmp_path / "out.jsonl"
        labels = tmp_path / "out.labels.jsonl"
        argv = ["synth", "--script", str(source), "--out", str(out), "--labels", str(labels)]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", "drowsy: frame at t=0.000: landmark coordinates must be finite\n"
        )
        assert not out.exists() and not labels.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loud.script.json"]

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
        assert " final_perclos=n/a throughput=" in capsys.readouterr().err


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


@pytest.mark.parametrize("m", [SEMANTIC_MAP, DLIB68_MAP, MESH468_MAP], ids=lambda m: m.scheme)
def test_coincident_eye_corners_are_an_input_error(workspace, capsys, m):
    tmp_path, paths = workspace
    frames = tmp_path / "corners.frames.jsonl"
    with open(frames, "w") as sink:
        dio.write_frames(sink, [coincident_corner_frame(m)])
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert cli.main(["run", "--input", str(frames), "--profile", str(paths["profile"]),
                     "--out", str(out)]) == 1
    message = "drowsy: frame at t=2.500: degenerate face: eye corners coincide\n"
    assert capsys.readouterr() == ("", message)
    assert not out.exists()


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


@pytest.mark.parametrize(
    "command, driver, flag, threshold",
    [
        # a head-drop baseline of 1.2 times --head-factor 1.7e308 overflows
        ("calibrate", DriverParams(0.32, 0.40, 1.2, 200.0), "--head-factor", "head_drop_limit"),
        # compare scores no head drop, so it takes no --head-factor; a MAR baseline overflows
        ("compare", DriverParams(0.32, 1.2, 0.55, 200.0), "--mar-factor", "mar_threshold"),
    ],
    ids=["calibrate", "compare"],
)
def test_threshold_beyond_float_range_is_input_error(
    tmp_path, capsys, command, driver, flag, threshold
):
    script = SessionScript(fps=30.0, duration_s=6.0, driver=driver)
    script_path = tmp_path / "d1.script.json"
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
    assert cli.main([*argv, flag, "1.7e308"]) == 1
    stem = "d1: " if command == "compare" else ""  # directory mode names the driver
    assert capsys.readouterr() == ("", f"drowsy: {stem}{threshold} must be finite, got inf\n")
    assert not out.exists()
    assert cli.main([*argv, flag, "1.4e308"]) == 0 and out.exists()


@pytest.fixture
def umask_027():
    previous = os.umask(0o027)
    yield
    os.umask(previous)


@pytest.fixture
def umask_077():
    previous = os.umask(0o077)
    yield
    os.umask(previous)


@pytest.fixture
def long_frames(workspace):
    """A 5,010-frame session, whose records outgrow the 256 KiB output buffer."""
    tmp_path, paths = workspace
    script = tmp_path / "long.script.json"
    write_script_file(script, duration=167.0, events=SESSION_EVENTS)
    frames = tmp_path / "long.frames.jsonl"
    assert cli.main(["synth", "--script", str(script), "--out", str(frames),
                     "--labels", str(tmp_path / "long.labels.jsonl")]) == 0
    return frames


def write_syscalls() -> int:
    """The write system calls this process has made so far, from /proc/self/io."""
    try:
        with open("/proc/self/io") as fp:
            fields = dict(line.split(":") for line in fp)
    except OSError:
        pytest.skip("/proc/self/io cannot be read")
    return int(fields["syscw"])


class TestOutputHygiene:
    @pytest.mark.parametrize("target", ["missing-directory", "existing-directory"])
    @pytest.mark.parametrize("command", ["eval", "compare", "compare-directory"])
    def test_json_that_cannot_be_created_leaves_stdout_empty(
        self, workspace, capsys, command, target
    ):
        root, paths = workspace
        pop = root / "pop"
        pop.mkdir()
        shutil.copy(paths["frames"], pop / "d.frames.jsonl")
        shutil.copy(paths["labels"], pop / "d.labels.jsonl")
        out = root / "out"
        out.mkdir()
        if target == "missing-directory":
            report = out / "missing" / "r.json"
        else:
            report = out / "r.json"
            report.mkdir()
        argv = {
            "eval": ["eval", "--pred", str(paths["labels"]), "--labels", str(paths["labels"]),
                     "--channel", "eye"],
            "compare": ["compare", "--input", str(paths["frames"]),
                        "--labels", str(paths["labels"]), "--profile", str(paths["profile"])],
            "compare-directory": ["compare", "--input", str(pop)],
        }[command]
        capsys.readouterr()
        assert cli.main([*argv, "--json", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("drowsy: [Errno ") and str(report) in captured.err
        assert list(out.rglob("*")) == ([] if target == "missing-directory" else [report])
        assert not list(root.rglob(".drowsy-*"))

    def test_record_stream_takes_few_write_calls(self, workspace, long_frames, capsys):
        # about 95 write calls with a 4 KiB buffer, one per ~53 records
        tmp_path, paths = workspace
        records = tmp_path / "long.records.jsonl"
        argv = ["run", "--input", str(long_frames), "--profile", str(paths["profile"]),
                "--out", str(tmp_path / "long.events.jsonl"), "--records", str(records)]
        before = write_syscalls()
        assert cli.main(argv) == 0
        writes = write_syscalls() - before
        assert records.stat().st_size > 2 * cli._OUT_BUFFER
        assert writes <= 10, writes

    def test_failure_after_a_flush_keeps_existing_outputs(self, workspace, long_frames):
        tmp_path, paths = workspace
        good = ["run", "--input", str(long_frames), "--profile", str(paths["profile"])]
        records = tmp_path / "long.records.jsonl"
        assert cli.main([*good, "--out", str(tmp_path / "e.jsonl"), "--records", str(records)]) == 0
        # the records before the bad line fill the buffer, which reaches the temp file
        assert records.stat().st_size > cli._OUT_BUFFER
        bad = tmp_path / "bad.frames.jsonl"
        bad.write_text(long_frames.read_text() + '{"t": broken\n')
        events = tmp_path / "events.jsonl"
        events.write_bytes(b"earlier events\n")
        before = records.read_bytes()
        rc = cli.main(["run", "--input", str(bad), "--profile", str(paths["profile"]),
                       "--out", str(events), "--records", str(records)])
        assert rc == 1
        assert events.read_bytes() == b"earlier events\n"
        assert records.read_bytes() == before
        assert not list(tmp_path.glob(".drowsy-*"))

    def test_new_output_mode_follows_the_umask(self, workspace, umask_027):
        tmp_path, paths = workspace
        out = tmp_path / "new.profile.json"
        assert cli.main(["calibrate", "--input", str(paths["calib_frames"]),
                         "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_overwritten_output_keeps_its_mode(self, workspace, umask_027):
        tmp_path, paths = workspace
        out = tmp_path / "old.profile.json"
        out.write_text("old\n")
        out.chmod(0o644)
        assert cli.main(["calibrate", "--input", str(paths["calib_frames"]),
                         "--out", str(out)]) == 0
        assert out.read_text() != "old\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_symlinked_output_writes_its_target(self, workspace, umask_077):
        tmp_path, paths = workspace
        target = tmp_path / "target.json"
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to("target.json")
        assert cli.main(["calibrate", "--input", str(paths["calib_frames"]),
                         "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == "target.json"
        assert json.loads(target.read_text())["personalized"] is True
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert not list(tmp_path.glob(".drowsy-*"))

    def test_dangling_symlinked_output_creates_its_target(self, workspace):
        tmp_path, paths = workspace
        (tmp_path / "sub").mkdir()
        link = tmp_path / "link.json"
        link.symlink_to("sub/target.json")
        assert cli.main(["calibrate", "--input", str(paths["calib_frames"]),
                         "--out", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads((tmp_path / "sub" / "target.json").read_text())["personalized"] is True
        assert not list(tmp_path.rglob(".drowsy-*"))

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
        # a directory destination is not a regular file, so it is opened in place and refused
        out_dir = tmp_path / "events.dir"
        out_dir.mkdir()
        rc = cli.main(["run", "--input", str(paths["frames"]),
                       "--profile", str(paths["profile"]), "--out", str(out_dir)])
        assert rc == 1
        assert out_dir.is_dir() and not list(out_dir.iterdir())
        assert not list(tmp_path.glob(".drowsy-*"))

    def test_temp_file_that_cannot_be_removed_keeps_the_failure(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        _, paths = workspace
        truncated = tmp_path / "truncated.jsonl"
        lines = paths["frames"].read_text().splitlines(keepends=True)
        truncated.write_text("".join(lines[:50]) + '{"t": broken\n')
        out = tmp_path / "events.out.jsonl"
        unlink = os.unlink

        def refuse_temp(path, *args, **kwargs):
            if os.path.basename(path).startswith(".drowsy-"):
                raise PermissionError(13, "Permission denied", path)
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", refuse_temp)
        capsys.readouterr()
        rc = cli.main(["run", "--input", str(truncated),
                       "--profile", str(paths["profile"]), "--out", str(out)])
        # the bad line is reported, not the failed removal, and the temp file stays behind
        assert rc == 1
        assert capsys.readouterr().err == (
            "drowsy: line 51: Expecting value: line 1 column 7 (char 6)\n"
        )
        assert not out.exists()
        assert len(list(tmp_path.glob(".drowsy-*"))) == 1

    def test_output_in_a_missing_directory_is_named_as_given(self, tmp_path, capsys):
        script = tmp_path / "s.script.json"
        write_script_file(script, duration=1.0)
        out = tmp_path / "missing" / "x.jsonl"
        rc = cli.main(["synth", "--script", str(script), "--out", str(out),
                       "--labels", str(tmp_path / "labels.jsonl")])
        assert rc == 1
        # the message open(path, "w") gives, not the name of the temp file beside it
        assert capsys.readouterr().err == (
            f"drowsy: [Errno 2] No such file or directory: {str(out)!r}\n"
        )
        assert [p.name for p in tmp_path.rglob("*")] == [script.name]

    @staticmethod
    def _read_all(fd, into):
        """Start a thread that reads fd to end of file into the list `into`, then closes it."""
        def read():
            with os.fdopen(fd, "rb") as fp:
                into.append(fp.read())

        thread = threading.Thread(target=read, daemon=True)
        thread.start()
        return thread

    def _records_of_a_regular_file(self, workspace):
        tmp_path, paths = workspace
        records = tmp_path / "regular.records.jsonl"
        assert cli.main(["run", "--input", str(paths["frames"]), "--profile", str(paths["profile"]),
                         "--out", str(tmp_path / "regular.events.jsonl"),
                         "--records", str(records)]) == 0
        return records.read_bytes()

    def test_fifo_output_is_written_in_place(self, workspace):
        tmp_path, paths = workspace
        expected = self._records_of_a_regular_file(workspace)
        fifo = tmp_path / "records.fifo"
        os.mkfifo(fifo)
        # neither open blocks; the kept write end lets the reader wait out the run
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        keeper = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        os.set_blocking(reader, True)
        got = []
        thread = self._read_all(reader, got)
        try:
            rc = cli.main(["run", "--input", str(paths["frames"]),
                           "--profile", str(paths["profile"]),
                           "--out", str(tmp_path / "events.jsonl"), "--records", str(fifo)])
        finally:
            os.close(keeper)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert rc == 0
        assert got == [expected]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert not list(tmp_path.glob(".drowsy-*"))

    def test_pipe_named_by_descriptor_is_written_in_place(self, workspace):
        tmp_path, paths = workspace
        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd on this platform")
        expected = self._records_of_a_regular_file(workspace)
        reader, writer = os.pipe()
        got = []
        thread = self._read_all(reader, got)
        try:
            rc = cli.main(["run", "--input", str(paths["frames"]),
                           "--profile", str(paths["profile"]),
                           "--out", str(tmp_path / "events.jsonl"),
                           "--records", f"/dev/fd/{writer}"])
        finally:
            os.close(writer)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert rc == 0
        assert got == [expected]
        assert not list(tmp_path.glob(".drowsy-*"))

    def test_dev_stdout_counts_as_standard_output(self, workspace):
        tmp_path, paths = workspace
        if not os.path.exists("/dev/stdout"):
            pytest.skip("no /dev/stdout on this platform")
        expected = self._records_of_a_regular_file(workspace)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        run = [sys.executable, "-m", "drowsy.cli", "run", "--input", str(paths["frames"]),
               "--profile", str(paths["profile"]), "--records", "/dev/stdout"]
        refused = subprocess.run(run, capture_output=True, env=env, timeout=60)
        assert refused.returncode == 1
        assert refused.stdout == b""
        assert refused.stderr == b"drowsy: --out and --records both write standard output\n"
        events = tmp_path / "events.jsonl"
        written = subprocess.run([*run, "--out", str(events)], capture_output=True, env=env,
                                 timeout=60)
        assert written.returncode == 0, written.stderr
        assert written.stdout == expected
        assert events.exists()

    @staticmethod
    def _drowsy(argv, **kwargs):
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        return subprocess.run([sys.executable, "-m", "drowsy.cli", *argv],
                              capture_output=True, env=env, timeout=60, **kwargs)

    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_dev_stdin_counts_as_standard_input_when_piped(self, workspace, command):
        tmp_path, paths = workspace
        if not os.path.exists("/dev/stdin"):
            pytest.skip("no /dev/stdin on this platform")
        out = tmp_path / "out.jsonl"
        if command == "run":
            argv = ["run", "--input", "/dev/stdin", "--profile", "-",
                    "--out", str(out), "--records", str(tmp_path / "records.out.jsonl")]
            piped = paths["profile"].read_bytes() + paths["frames"].read_bytes()
            message = b"drowsy: --input and --profile both read standard input\n"
        else:
            argv = ["eval", "--pred", "/dev/stdin", "--labels", "-", "--channel", "eye",
                    "--json", str(out)]
            piped = paths["labels"].read_bytes()
            message = b"drowsy: --pred and --labels both read standard input\n"
        refused = self._drowsy(argv, input=piped)
        assert (refused.returncode, refused.stdout, refused.stderr) == (1, b"", message)
        assert not list(tmp_path.glob("*.out.jsonl")) and not out.exists()
        assert not list(tmp_path.glob(".drowsy-*"))

    def test_dev_stdin_on_a_regular_file_may_be_named_again(self, workspace):
        _, paths = workspace
        if not os.path.exists("/dev/stdin"):
            pytest.skip("no /dev/stdin on this platform")
        labels = str(paths["labels"])
        expected = self._drowsy(["eval", "--pred", labels, "--labels", labels, "--channel", "eye"])
        assert expected.returncode == 0, expected.stderr
        assert len(expected.stdout.splitlines()) == 6
        with open(labels, "rb") as stdin:  # each open reads the file from its own offset
            got = self._drowsy(["eval", "--pred", "/dev/stdin", "--labels", "-",
                                "--channel", "eye"], stdin=stdin)
        assert got.returncode == 0, got.stderr
        assert got.stdout == expected.stdout

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
    # a driver's optional files are inputs even where absent: e has no profile
    (["compare", "--input", "{pop}", "--json", "{pop}/e.profile.json"],
     "--input and --json name the same file: {pop}/e.profile.json"),
    (["compare", "--input", "{pop}", "--json", "{pop}/d.external.jsonl"],
     "--input and --json name the same file: {pop}/d.external.jsonl"),
    (["compare", "--input", "{pop}", "--json", "{pop}/z.frames.jsonl"],
     "--json names a frame stream in the --input directory: {pop}/z.frames.jsonl"),
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
        for suffix, source in ((".frames.jsonl", "frames"), (".labels.jsonl", "labels")):
            (pop / f"e{suffix}").write_bytes(paths[source].read_bytes())
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
        # a frame-stream name outside the directory is an ordinary output
        assert cli.main(["compare", "--input", names["pop"],
                         "--json", str(tmp_path / "report.frames.jsonl")]) == 0


def subcommands() -> dict:
    """Each command's subparser, by command name."""
    return next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


def path_rule_cases():
    """(command, {flag: path}, message) for every pair of file arguments the rules refuse.

    Read from the parser's marks: each input and output naming one file,
    two outputs naming one file, and two "-" in one direction, the text
    report of eval and compare counting as an output that writes "-".
    """
    for command, parser in subcommands().items():
        marked = [action for action in parser._actions if action.type in (cli._In, cli._Out)]
        inputs = [a.option_strings[0] for a in marked if a.type is cli._In]
        outputs = [a.option_strings[0] for a in marked if a.type is cli._Out]
        report = ["the text report"] if isinstance(parser.get_default("report"), cli._Out) else []
        for a, b in [*itertools.product(inputs, outputs), *itertools.combinations(outputs, 2)]:
            yield command, {a: "{same}", b: "{same}"}, f"{a} and {b} name the same file: {{same}}"
        for names, verb in ((inputs, "read standard input"),
                            (outputs + report, "write standard output")):
            for a, b in itertools.combinations(names, 2):
                given = {flag: "-" for flag in (a, b) if flag.startswith("--")}
                yield command, given, f"{a} and {b} both {verb}"


PATH_RULE_CASES = list(path_rule_cases())


@pytest.mark.parametrize(
    "command, given, message",
    PATH_RULE_CASES,
    ids=[f"{command} " + " ".join(f"{flag}={path}" for flag, path in given.items())
         for command, given, _ in PATH_RULE_CASES],
)
def test_every_pair_of_file_arguments_follows_the_rules(
    command, given, message, tmp_path, monkeypatch, capsys
):
    # every other file argument names a distinct file that does not exist
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    same = str(tmp_path / "same")
    argv = [command]
    for action in subcommands()[command]._actions:
        flag = action.option_strings[0] if action.option_strings else None
        if action.type in (cli._In, cli._Out):
            argv += [flag, given.get(flag, str(tmp_path / flag[2:])).format(same=same)]
        elif action.required:
            argv += [flag, action.choices[0]]

    def refuse(path):
        raise AssertionError(f"opened {path}")

    monkeypatch.setattr(cli, "_open_in", refuse)
    monkeypatch.setattr(cli, "_open_out", refuse)
    stdin = stdio.StringIO("{}\n")
    monkeypatch.setattr("sys.stdin", stdin)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"drowsy: {message.format(same=same)}\n")
    assert stdin.tell() == 0 and not list(tmp_path.iterdir())


def test_path_rule_cases_cover_the_unlisted_pairs():
    cases = {(command, tuple(given)) for command, given, _ in PATH_RULE_CASES}
    assert {("synth", ("--script", "--labels")), ("run", ("--input", "--records")),
            ("run", ("--external", "--records")), ("compare", ("--profile", "--json")),
            ("eval", ("--json",)), ("compare", ("--json",))} <= cases


def unmarked_string_flags(parsers: dict) -> list:
    """Flags that take a string but are neither a marked file argument nor a choice."""
    return [
        (command, action.option_strings)
        for command, parser in parsers.items()
        for action in parser._actions
        if action.nargs != 0 and action.type in (None, str) and action.choices is None
    ]


def test_every_file_argument_is_marked():
    # an unmarked file flag would skip every path rule
    parsers = subcommands()
    assert unmarked_string_flags(parsers) == []
    for parser in parsers.values():
        for action in parser._actions:
            if action.type in (cli._In, cli._Out):
                assert action.option_strings == [f"--{action.dest}"], action.option_strings
    parsers["run"].add_argument("--stats", help="a file flag added without its mark")
    assert unmarked_string_flags(parsers) == [("run", ["--stats"])]


# one script with every event kind, overlapping events and noise
GOLDEN_SCRIPT = SessionScript(
    fps=30.0,
    duration_s=12.0,
    driver=DriverParams(0.31, 0.42, 0.55, 190.0),
    events=(
        ScriptEvent("talk", 1.0, 3.0, 0.8),
        ScriptEvent("blink", 2.0, 0.1, 1.0),
        ScriptEvent("yawn", 2.5, 2.0, 0.9),
        ScriptEvent("sustained_closure", 5.0, 2.0, 0.7),
        ScriptEvent("blink", 5.5, 0.2, 0.5),
        ScriptEvent("head_nod", 6.0, 2.0, 1.0),
        ScriptEvent("dropout", 8.0, 1.0, 1.0),
    ),
    noise_sigma=0.5,
    seed=2026,
)

# GOLDEN_SCRIPT's driver baselines with the default threshold factors
GOLDEN_PROFILE = CalibrationProfile(
    baseline_ear=0.31,
    baseline_mar=0.42,
    baseline_head_drop=0.55,
    ear_threshold=0.2325,
    mar_threshold=0.588,
    head_drop_limit=0.6875,
    ear_factor=0.75,
    mar_factor=1.40,
    head_factor=1.25,
    frames_used=150,
    duration_s=5.0,
)


def synth_golden(tmp_path):
    """GOLDEN_SCRIPT's frame and label streams, written by `drowsy synth`."""
    script_path = tmp_path / "golden.script.json"
    with open(script_path, "w") as fp:
        dio.write_script(fp, GOLDEN_SCRIPT)
    frames = tmp_path / "golden.frames.jsonl"
    labels = tmp_path / "golden.labels.jsonl"
    assert cli.main(["synth", "--script", str(script_path), "--out", str(frames),
                     "--labels", str(labels)]) == 0
    return frames, labels


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

    def test_synth_output_matches_golden_digest(self, tmp_path):
        # the digests pin the exact bytes that `drowsy synth` writes for GOLDEN_SCRIPT
        frames, labels = synth_golden(tmp_path)
        assert hashlib.sha256(frames.read_bytes()).hexdigest() == (
            "0e1816d320206a69100578ae6fd1a7d3d6572bf05c5f1216bc389c669af916cb"
        )
        assert hashlib.sha256(labels.read_bytes()).hexdigest() == (
            "bfe7860104a4b1634787d33b243136876cbee9daf5ff93a6830184ed35d000b1"
        )

    def test_run_outputs_match_golden_digest(self, tmp_path):
        # GOLDEN_SCRIPT's stream through `drowsy run` with GOLDEN_PROFILE: a 1 s
        # dropout, null PERCLOS on the first record and four alerts; the digests
        # pin the exact bytes of the record and event writers
        frames, _ = synth_golden(tmp_path)
        profile = tmp_path / "golden.profile.json"
        with open(profile, "w") as fp:
            dio.write_profile(fp, GOLDEN_PROFILE)
        records = tmp_path / "golden.records.jsonl"
        events = tmp_path / "golden.events.jsonl"
        assert cli.main(["run", "--input", str(frames), "--profile", str(profile),
                         "--records", str(records), "--out", str(events)]) == 0
        lines = records.read_text().splitlines()
        assert len(lines) == 360 and json.loads(lines[0])["perclos"] is None
        assert sum('"face": false' in line for line in lines) == 30
        assert len(events.read_text().splitlines()) == 4
        assert hashlib.sha256(records.read_bytes()).hexdigest() == (
            "c56a1f123d1a7a74b5b45ef03ebca27aa9bd1c8dabe15c6b192eb113e6278e17"
        )
        assert hashlib.sha256(events.read_bytes()).hexdigest() == (
            "a795a45a72e34d6c65c3aab7ba1ae043a134e63cb67642e90b2d8ccbb990d108"
        )

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
    (("run",), "--sustain-eyes", PipelineConfig, "sustain_eyes_s", "-1",
     "sustain durations"),
    (("run",), "--sustain-mouth", PipelineConfig, "sustain_mouth_s", "-1",
     "sustain durations"),
    (("run",), "--sustain-head", PipelineConfig, "sustain_head_s", "-1",
     "sustain durations"),
    (("run",), "--sustain-presence", PipelineConfig, "sustain_presence_s", "-1",
     "sustain durations"),
    (("run",), "--sustain-perclos", PipelineConfig, "sustain_perclos_s", "-1",
     "sustain durations"),
    (("run",), "--rearm-frames", PipelineConfig, "rearm_frames", "-1", "re-arm"),
    (("run",), "--perclos-window", PipelineConfig, "perclos_window_s", "0",
     "PERCLOS window"),
    (("run",), "--perclos-limit", PipelineConfig, "perclos_limit", "101",
     "PERCLOS limit"),
    # positive, but 0 ms on the millisecond grid
    (("run",), "--perclos-window", PipelineConfig, "perclos_window_s", "0.0004",
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
    (("calibrate",), "--head-factor", CalibrationConfig, "head_factor", "0",
     "threshold factors"),
    (("compare",), "--gen-ear", generalized_profile, "ear_threshold", "0",
     "generalized thresholds"),
    (("compare",), "--gen-mar", generalized_profile, "mar_threshold", "0",
     "generalized thresholds"),
    # non-finite values pass every comparison with nan; each float flag rejects them
    (("run",), "--sustain-eyes", PipelineConfig, "sustain_eyes_s", "inf",
     "sustain_eyes_s must be finite"),
    (("run",), "--sustain-mouth", PipelineConfig, "sustain_mouth_s", "nan",
     "sustain_mouth_s must be finite"),
    (("run",), "--sustain-head", PipelineConfig, "sustain_head_s", "inf",
     "sustain_head_s must be finite"),
    (("run",), "--sustain-presence", PipelineConfig, "sustain_presence_s", "nan",
     "sustain_presence_s must be finite"),
    (("run",), "--sustain-perclos", PipelineConfig, "sustain_perclos_s", "inf",
     "sustain_perclos_s must be finite"),
    (("run",), "--perclos-window", PipelineConfig, "perclos_window_s", "nan",
     "perclos_window_s must be finite"),
    (("run",), "--perclos-limit", PipelineConfig, "perclos_limit", "nan",
     "perclos_limit must be finite"),
    (("calibrate",), "--duration", CalibrationConfig, "duration_s", "inf",
     "duration_s must be finite"),
    (("compare",), "--calib-duration", CalibrationConfig, "duration_s", "inf",
     "duration_s must be finite"),
    (("calibrate", "compare"), "--ear-factor", CalibrationConfig, "ear_factor", "nan",
     "ear_factor must be finite"),
    (("calibrate", "compare"), "--mar-factor", CalibrationConfig, "mar_factor", "inf",
     "mar_factor must be finite"),
    (("calibrate",), "--head-factor", CalibrationConfig, "head_factor", "nan",
     "head_factor must be finite"),
    (("compare",), "--gen-ear", generalized_profile, "ear_threshold", "nan",
     "ear_threshold must be finite"),
    (("compare",), "--gen-mar", generalized_profile, "mar_threshold", "inf",
     "mar_threshold must be finite"),
    # finite durations whose millisecond key (seconds * 1000) overflows
    (("run",), "--sustain-eyes", PipelineConfig, "sustain_eyes_s", "1e308",
     "sustain durations must be at most 1.7976931348623156e+305 s"),
    (("run",), "--sustain-head", PipelineConfig, "sustain_head_s", "1e308",
     "sustain durations must be at most"),
    (("run",), "--sustain-perclos", PipelineConfig, "sustain_perclos_s", "1e306",
     "sustain durations must be at most"),
    (("run",), "--perclos-window", PipelineConfig, "perclos_window_s", "1e308",
     "PERCLOS window must be positive and at most"),
    (("calibrate",), "--duration", CalibrationConfig, "duration_s", "1e308",
     "calibration duration must be at most"),
    (("compare",), "--calib-duration", CalibrationConfig, "duration_s", "1e308",
     "calibration duration must be at most"),
    # one past sys.maxsize, the largest maxlen a smoothing buffer's deque takes
    (("run", "compare"), "--buffer-capacity", PipelineConfig, "buffer_capacity",
     str(sys.maxsize + 1), f"buffer capacity must be from 1 to {sys.maxsize}"),
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
    parsers = subcommands()
    expected = _config_default(config, name)
    for command in commands:
        option = next(
            action for action in parsers[command]._actions
            if flag in action.option_strings
        )
        # args holds the value only when given; the config supplies the default
        assert option.default is argparse.SUPPRESS
        assert option.type is type(expected)
        assert f"(default {expected})" in option.help

        later = LATER_BAD_FLAGS[config] if command == "compare" else []
        rc = cli.main([command, *MISSING_INPUTS[command], flag, bad, *later])
        err = capsys.readouterr().err
        assert rc == 1
        assert message in err, err
        assert "No such file" not in err


# compare scores per-frame eye and mouth decisions only: it raises no
# alerts, keeps no PERCLOS and scores no head drop, so it takes none of these
REMOVED_COMPARE_FLAGS = [
    "--sustain-eyes", "--sustain-mouth", "--sustain-head", "--sustain-presence",
    "--sustain-perclos", "--rearm-frames", "--perclos-window", "--perclos-limit",
    "--head-factor", "--gen-head",
]


@pytest.mark.parametrize("flag", REMOVED_COMPARE_FLAGS)
def test_compare_refuses_the_settings_it_cannot_use(workspace, capsys, flag):
    tmp_path, paths = workspace
    report = tmp_path / "compare.json"
    with pytest.raises(SystemExit) as err:
        cli.main(["compare", "--input", str(paths["frames"]), "--labels", str(paths["labels"]),
                  "--profile", str(paths["profile"]), "--json", str(report), flag, "1"])
    assert err.value.code == 1
    assert capsys.readouterr() == (
        "", f"usage: drowsy [-h] command ...\ndrowsy: error: unrecognized arguments: {flag} 1\n"
    )
    assert not report.exists() and not list(tmp_path.glob(".drowsy-*"))


def added_flags() -> list:
    """(command, flag) for every flag that build_parser adds through cli._add_flags."""
    added = []
    add_flags = cli._add_flags

    def record(parser, config, specs):
        added.extend((parser.prog.split()[-1], flag) for flag, _, _ in specs)
        add_flags(parser, config, specs)

    with mock.patch.object(cli, "_add_flags", record):
        cli.build_parser()
    return added


# A valid non-default value of each config flag, one that changes the
# result of every command that takes the flag on the GUARD_EVENTS inputs.
GUARD_VALUES = {
    "--buffer-capacity": "1",
    "--sustain-eyes": "0.5",
    "--sustain-mouth": "0.5",
    "--sustain-head": "0.5",
    "--sustain-presence": "0.5",
    "--sustain-perclos": "5",
    "--rearm-frames": "1000",  # the second closure comes before the eye channel re-arms
    "--perclos-window": "5",
    "--perclos-limit": "90",
    "--duration": "100",  # longer than the recording
    "--calib-duration": "10",  # the lead-in takes in part of the first closure
    "--min-samples": "5000",
    "--ear-factor": "0.5",
    "--mar-factor": "2",
    "--head-factor": "2",
    "--gen-ear": "0.1",
    "--gen-mar": "0.9",
}

# A closure long enough to lift PERCLOS over 20 %, a second closure, a
# yawn, a head nod and a dropout, after a 5 s neutral lead-in.
GUARD_EVENTS = (
    ScriptEvent("sustained_closure", 8.0, 8.0, 1.0),
    ScriptEvent("sustained_closure", 20.0, 2.0, 1.0),
    ScriptEvent("yawn", 25.0, 3.0, 1.0),
    ScriptEvent("head_nod", 29.0, 3.0, 1.0),
    ScriptEvent("dropout", 34.0, 4.0, 1.0),
)


@pytest.fixture(scope="module")
def guard_inputs(tmp_path_factory):
    """A neutral calibration recording, its profile, and three driver directories.

    drivers holds one driver without a profile; profiled, two drivers with
    one each; mixed, a driver without a profile and one with.
    """
    root = tmp_path_factory.mktemp("guard")
    drivers = root / "drivers"
    drivers.mkdir()
    for name, duration, events, out in (
        ("calib", 6.0, (), root / "calib.frames.jsonl"),
        ("session", 40.0, GUARD_EVENTS, drivers / "d0.frames.jsonl"),
    ):
        write_script_file(root / f"{name}.script.json", duration, events, noise=0.5)
        labels = out.with_name(out.name.replace(".frames.", ".labels."))
        assert cli.main(["synth", "--script", str(root / f"{name}.script.json"),
                         "--out", str(out), "--labels", str(labels)]) == 0
    with redirect_stderr(stdio.StringIO()):
        assert cli.main(["calibrate", "--input", str(root / "calib.frames.jsonl"),
                         "--out", str(root / "profile.json")]) == 0
    for name, profiled in (("profiled", ("d0", "d1")), ("mixed", ("d1",))):
        directory = root / name
        directory.mkdir()
        for stem in ("d0", "d1"):
            for kind in ("frames", "labels"):
                shutil.copy(drivers / f"d0.{kind}.jsonl", directory / f"{stem}.{kind}.jsonl")
            if stem in profiled:
                shutil.copy(root / "profile.json", directory / f"{stem}.profile.json")
    return root


def command_result(root, command, extra, out_dir) -> tuple:
    """Exit status, stdout and output file bytes of one command over the guard inputs."""
    out_dir.mkdir()
    argv = {
        "run": ["run", "--input", str(root / "drivers" / "d0.frames.jsonl"),
                "--profile", str(root / "profile.json"), "--out", str(out_dir / "events.jsonl"),
                "--records", str(out_dir / "records.jsonl")],
        "calibrate": ["calibrate", "--input", str(root / "calib.frames.jsonl"),
                      "--out", str(out_dir / "profile.json")],
        "compare": ["compare", "--input", str(root / "drivers"),
                    "--json", str(out_dir / "report.json")],
        "compare-mixed": ["compare", "--input", str(root / "mixed"),
                          "--json", str(out_dir / "report.json")],
        "compare-single": ["compare", "--input", str(root / "drivers" / "d0.frames.jsonl"),
                           "--labels", str(root / "drivers" / "d0.labels.jsonl"),
                           "--profile", str(root / "profile.json"),
                           "--json", str(out_dir / "report.json")],
    }[command]
    stdout = stdio.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stdio.StringIO()):
        rc = cli.main([*argv, *extra])
    return rc, stdout.getvalue(), {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


ADDED_FLAGS = added_flags()


@pytest.mark.parametrize("command, flag", ADDED_FLAGS,
                         ids=[f"{command} {flag}" for command, flag in ADDED_FLAGS])
def test_every_config_flag_can_change_its_command_result(guard_inputs, tmp_path, command, flag):
    # a flag that no value can change is a setting the command parses and ignores
    default = command_result(guard_inputs, command, [], tmp_path / "default")
    assert default[0] == 0
    changed = command_result(guard_inputs, command, [flag, GUARD_VALUES[flag]], tmp_path / "set")
    assert changed != default


# compare's flags that only auto-calibration reads; a single-stream compare
# requires --profile, so it refuses them, as does a directory whose every
# driver has a profile
SINGLE_STREAM_REFUSED = ["--calib-duration", "--min-samples", "--ear-factor", "--mar-factor"]
SINGLE_STREAM_FLAGS = [
    flag for command, flag in ADDED_FLAGS
    if command == "compare" and flag not in SINGLE_STREAM_REFUSED
]


@pytest.mark.parametrize("flag", SINGLE_STREAM_FLAGS)
def test_every_single_stream_compare_flag_can_change_its_report(guard_inputs, tmp_path, flag):
    default = command_result(guard_inputs, "compare-single", [], tmp_path / "default")
    assert default[0] == 0
    changed = command_result(
        guard_inputs, "compare-single", [flag, GUARD_VALUES[flag]], tmp_path / "set"
    )
    assert changed != default


@pytest.mark.parametrize("flag", SINGLE_STREAM_REFUSED)
def test_single_stream_compare_refuses_auto_calibration_flags(
    guard_inputs, tmp_path, capsys, flag
):
    assert ("compare", flag) in ADDED_FLAGS
    report = tmp_path / "report.json"
    drivers = guard_inputs / "drivers"
    rc = cli.main(["compare", "--input", str(drivers / "d0.frames.jsonl"),
                   "--labels", str(drivers / "d0.labels.jsonl"),
                   "--profile", str(guard_inputs / "profile.json"),
                   "--json", str(report), flag, GUARD_VALUES[flag]])
    assert rc == 1
    assert capsys.readouterr() == ("", f"drowsy: {flag} does not apply: every driver has a profile\n")
    assert not report.exists() and not list(tmp_path.glob(".drowsy-*"))


@pytest.mark.parametrize("flag", SINGLE_STREAM_REFUSED)
def test_profiled_directory_compare_refuses_auto_calibration_flags(
    guard_inputs, tmp_path, capsys, flag
):
    report = tmp_path / "report.json"
    rc = cli.main(["compare", "--input", str(guard_inputs / "profiled"),
                   "--json", str(report), flag, GUARD_VALUES[flag]])
    assert rc == 1
    assert capsys.readouterr() == ("", f"drowsy: {flag} does not apply: every driver has a profile\n")
    assert not report.exists() and not list(tmp_path.glob(".drowsy-*"))


@pytest.mark.parametrize("flag", SINGLE_STREAM_REFUSED)
def test_auto_calibration_flags_change_a_mixed_directory_report(guard_inputs, tmp_path, flag):
    # one driver without a profile is auto-calibrated, so each flag applies
    default = command_result(guard_inputs, "compare-mixed", [], tmp_path / "default")
    assert default[0] == 0
    changed = command_result(
        guard_inputs, "compare-mixed", [flag, GUARD_VALUES[flag]], tmp_path / "set"
    )
    assert changed != default


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
