"""The streaming `drowsy compare`: its outputs and faults against the materialized
oracle in reference_compare.py, on each side of a batch boundary, its file
attribution of UTF-8 faults, and its memory, in the command and in the library."""

import contextlib
import io as stdio
import itertools
import tracemalloc
from dataclasses import replace

import pytest

from drowsy import cli
from drowsy import io as dio
from drowsy.calibration import CalibrationConfig, calibrate, generalized_profile
from drowsy.eval import BATCH_FRAMES, compare
from drowsy.metrics import samples_from_frames
from drowsy.pipeline import PipelineConfig
from drowsy.synth import DriverParams, ScriptEvent, SessionScript, iter_session

import reference_compare

# 1,080 frames, so a run reads three batches of up to 512: the first holds the
# 5 s lead-in, and the faults fall on each side of both boundaries
SCRIPT = SessionScript(
    fps=30.0,
    duration_s=36.0,
    driver=DriverParams(0.27, 0.40, 0.55, 200.0),
    events=(
        ScriptEvent("sustained_closure", 12.0, 2.0, 1.0),
        ScriptEvent("yawn", 20.0, 2.0, 1.0),
        ScriptEvent("dropout", 30.0, 1.0, 1.0),
    ),
    noise_sigma=0.8,
    seed=6,
)


def session_lines(script=SCRIPT):
    """The frame and label lines of a synthesized session."""
    frames, labels = stdio.StringIO(), stdio.StringIO()
    for frame, label in iter_session(script):
        dio.write_frames(frames, [frame])
        dio.write_labels(labels, [label])
    return frames.getvalue().splitlines(True), labels.getvalue().splitlines(True)


def shift_label(lines, i, seconds):
    (label,) = dio.read_states([lines[i]])
    out = stdio.StringIO()
    dio.write_labels(out, [replace(label, t=label.t + seconds)])
    lines[i] = out.getvalue()


def degenerate_frame(lines, i):
    """A face frame whose left eye's outer corner lies on its inner one."""
    (frame,) = dio.read_frames([lines[i]])
    points = list(frame.points)
    points[3] = points[0]
    out = stdio.StringIO()
    dio.write_frames(out, [replace(frame, points=tuple(points))])
    lines[i] = out.getvalue()


def drop_face_state(lines):
    del lines[next(i for i in range(700, len(lines)) if '"face": true' in lines[i])]


# fault -> (file, edit of its line list); "utf8" puts a byte that is not UTF-8 in that file
FAULTS = {
    "frame-early": ("frames", lambda lines: lines.__setitem__(3, "{not json\n")),
    "frame-late": ("frames", lambda lines: lines.__setitem__(1070, '{"t": 35.7}\n')),
    "frame-utf8": ("frames", "utf8"),
    "degenerate": ("frames", lambda lines: degenerate_frame(lines, 800)),
    "order": ("frames", lambda lines: lines.insert(601, lines.pop(600))),
    "label-bad": ("labels", lambda lines: lines.__setitem__(
        500, lines[500].replace('"face": true', '"face": 1'))),
    "label-utf8": ("labels", "utf8"),
    "label-shift": ("labels", lambda lines: shift_label(lines, 900, 0.5)),
    "labels-short": ("labels", lambda lines: lines.__delitem__(slice(-3, None))),
    "labels-long": ("labels", lambda lines: lines.extend(lines[-2:])),
    "labels-faceless": ("labels", lambda lines: lines.__setitem__(
        slice(None), [f'{{"t": {line[6:line.index(",")]}, "face": false}}\n' for line in lines])),
    "external-bad": ("external", lambda lines: lines.__setitem__(10, "not json\n")),
    "external-duplicate": ("external", lambda lines: lines.insert(11, lines[10])),
    "external-missing": ("external", drop_face_state),
    "lead-in": ("args", ["--calib-duration", "100"]),
}
CASES = [(fault,) for fault in FAULTS] + list(itertools.combinations(FAULTS, 2))


def write_driver(directory, faults):
    """Driver d's frame, label and external streams with the faults made; returns extra argv."""
    frames, labels = session_lines()
    files = {"frames": frames, "labels": labels, "external": list(labels)}
    argv = []
    for fault in faults:
        name, edit = FAULTS[fault]
        if name == "args":
            argv += edit
        elif edit != "utf8":
            edit(files[name])
    not_utf8 = {FAULTS[fault][0] for fault in faults if FAULTS[fault][1] == "utf8"}
    for name, lines in files.items():
        data = "".join(lines).encode()
        if name in not_utf8:
            at = data.index(b"\n", len(data) * 2 // 3) + 1  # past the text layer's first chunk
            data = data[:at] + b"\xff" + data[at:]
        (directory / f"d.{name}.jsonl").write_bytes(data)
    return argv


def scored(score_driver, directory, calibration):
    """score_driver's report of driver d, or the type and message of its fault."""
    configs = (PipelineConfig(), calibration, generalized_profile())
    paths = [str(directory / f"d.{name}") for name in ("frames.jsonl", "labels.jsonl")]
    try:
        return score_driver(*paths, None, str(directory / "d.external.jsonl"), configs)
    except Exception as exc:
        return type(exc), str(exc)


def main_result(argv, out):
    """Exit code, stdout, stderr and --json bytes of one cli.main run."""
    stdout, stderr = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    report = out.read_bytes() if out.exists() else None
    if report is not None:
        out.unlink()
    return rc, stdout.getvalue(), stderr.getvalue(), report


@pytest.mark.parametrize("faults", CASES, ids="+".join)
def test_streamed_compare_equals_the_materialized_oracle(tmp_path, monkeypatch, faults):
    pop = tmp_path / "pop"
    pop.mkdir()
    extra = write_driver(pop, faults)
    calibration = CalibrationConfig(duration_s=100.0 if extra else 5.0)
    want = scored(reference_compare.score_driver, pop, calibration)
    assert scored(cli._score_driver, pop, calibration) == want

    out = tmp_path / "report.json"
    argv = ["compare", "--input", str(pop), "--json", str(out), *extra]
    got = main_result(argv, out)
    monkeypatch.setattr(cli, "_score_driver", reference_compare.score_driver)
    assert got == main_result(argv, out)
    assert (got[0] == 0) == (not isinstance(want, tuple))


# one frame short of one and two batches, each batch full (the last batch read
# is empty), and one frame over
BOUNDARY_FRAMES = [BATCH_FRAMES - 1, BATCH_FRAMES, BATCH_FRAMES + 1, 2 * BATCH_FRAMES,
                   2 * BATCH_FRAMES + 1]


def boundary_driver(directory, n):
    """Driver d's first n frames, labels and external states, and a profile from its first 150."""
    frames, labels = session_lines()
    assert n <= len(frames)
    for name, lines in (("frames", frames), ("labels", labels), ("external", labels)):
        (directory / f"d.{name}.jsonl").write_text("".join(lines[:n]))
    profile = calibrate(samples_from_frames(dio.read_frames(frames[:150])))
    with open(directory / "d.profile.json", "w", encoding="utf-8") as sink:
        dio.write_profile(sink, profile)
    return frames[:n], labels[:n], profile


@pytest.mark.parametrize("with_profile", [False, True], ids=["lead-in", "profile"])
@pytest.mark.parametrize("n", BOUNDARY_FRAMES)
def test_batch_boundaries_equal_the_materialized_oracle(tmp_path, n, with_profile):
    boundary_driver(tmp_path, n)
    configs = (PipelineConfig(), CalibrationConfig(), generalized_profile())
    paths = [str(tmp_path / f"d.{name}") for name in
             ("frames.jsonl", "labels.jsonl", "profile.json", "external.jsonl")]
    if not with_profile:
        paths[2] = None
    want = reference_compare.score_driver(*paths, configs)
    assert want.frames == n
    assert cli._score_driver(*paths, configs) == want


@pytest.mark.parametrize("n", BOUNDARY_FRAMES)
def test_library_compare_over_lists_equals_the_materialized_oracle(tmp_path, n):
    frame_lines, label_lines, profile = boundary_driver(tmp_path, n)
    args = (
        list(dio.read_frames(frame_lines)),
        list(dio.read_states(label_lines)),
        profile,
        generalized_profile(),
        dio.load_external_states(label_lines),
    )
    want = reference_compare.compare(*args)
    assert want.frames == n
    assert compare(*args) == want


@pytest.mark.parametrize("mode", ["single", "directory"])
@pytest.mark.parametrize("bad", [("frames",), ("labels",), ("frames", "labels")])
def test_utf8_fault_names_the_file_that_holds_it(tmp_path, capsys, mode, bad):
    pop = tmp_path / "pop"
    pop.mkdir()
    faults = [f"{'frame' if name == 'frames' else 'label'}-utf8" for name in bad]
    write_driver(pop, faults)
    (pop / "d.external.jsonl").unlink()
    frames, labels = (str(pop / f"d.{name}.jsonl") for name in ("frames", "labels"))
    if mode == "single":
        profile = tmp_path / "profile.json"
        calib = tmp_path / "calib.frames.jsonl"
        calib.write_text("".join(session_lines()[0][:200]))
        assert cli.main(["calibrate", "--input", str(calib), "--out", str(profile)]) == 0
        argv = ["compare", "--input", frames, "--labels", labels, "--profile", str(profile)]
        prefix = ""
    else:
        argv = ["compare", "--input", str(pop)]
        prefix = "d: "
    named = frames if "frames" in bad else labels
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"drowsy: {prefix}{named}: not UTF-8 text\n")


def traced_peak(directory) -> int:
    """The tracemalloc peak, in bytes, of one directory compare."""
    with contextlib.redirect_stdout(stdio.StringIO()):
        tracemalloc.start()
        try:
            assert cli.main(["compare", "--input", str(directory)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_compare_memory_does_not_grow_with_the_stream(tmp_path):
    # A materialized compare held about 2.2 KB per 19-point frame plus its
    # record and label, 65 MB more at 40k frames than at 10k. Streamed, a
    # run holds one batch of frames, records and labels whatever the stream
    # length. An external state stream would add its map, about 120 B per
    # frame (3.6 MB at 40k frames), so these drivers have none.
    peaks = []
    for seconds in (1000 / 30.0, 10_000 / 30.0, 40_000 / 30.0):
        driver = tmp_path / f"{round(seconds * 30)}"
        driver.mkdir()
        frames, labels = session_lines(replace(SCRIPT, duration_s=seconds))
        (driver / "d.frames.jsonl").write_text("".join(frames))
        (driver / "d.labels.jsonl").write_text("".join(labels))
        peaks.append(traced_peak(driver))
    # the first run also pays for one-time allocations, such as compiled patterns
    _, peak_10k, peak_40k = peaks
    assert abs(peak_40k - peak_10k) < 0.5e6, peaks
    assert peak_40k < 4e6, peaks


def library_peak(script) -> int:
    """The tracemalloc peak, in bytes, of library compare over generated frames and labels."""
    frames = (frame for frame, _ in iter_session(script))
    labels = (label for _, label in iter_session(script))
    profile = generalized_profile()
    tracemalloc.start()
    try:
        assert compare(frames, labels, profile, profile).frames == script.frame_count
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_library_compare_memory_does_not_grow_with_the_stream():
    # compare batches whatever frames it is given, so a generator is read one
    # batch at a time as a file is, and its records are scored batch by batch
    peaks = [
        library_peak(replace(SCRIPT, duration_s=n / SCRIPT.fps)) for n in (1000, 10_000, 40_000)
    ]
    # the first run also pays for one-time allocations
    _, peak_10k, peak_40k = peaks
    assert abs(peak_40k - peak_10k) < 0.5e6, peaks
