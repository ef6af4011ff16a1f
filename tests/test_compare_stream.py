"""The streaming `drowsy compare` and `drowsy eval`: their outputs and faults against
the materialized oracle in reference_compare.py, on each side of a batch boundary,
their file attribution of UTF-8 faults, how far they read their inputs after a fault,
and their memory, in the command and in the library."""

import collections
import contextlib
import functools
import io as stdio
import itertools
import os
import tracemalloc
from dataclasses import replace

import pytest

from drowsy import cli
from drowsy import io as dio
from drowsy.calibration import CalibrationConfig, calibrate, generalized_profile
from drowsy.errors import EvalError, MissingLabelError, ParseError
from drowsy.eval import BATCH_FRAMES, CHANNELS, compare, confusion
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


def make_faceless(lines):
    lines[:] = [f'{{"t": {line[6:line.index(",")]}, "face": false}}\n' for line in lines]


# eval fault -> edit of a label line list; "utf8" puts a byte that is not UTF-8 in the
# file and "missing" writes none. Faults are made in this order, so "faceless"
# rewrites whole label lines before another fault edits one.
EVAL_FAULTS = {
    "faceless": make_faceless,
    "early": lambda lines: lines.__setitem__(3, "{not json\n"),
    "late": lambda lines: lines.__setitem__(1070, '{"t": 35.7}\n'),
    "utf8": "utf8",
    "missing": "missing",
    "short": lambda lines: lines.__delitem__(slice(-3, None)),
    "long": lambda lines: lines.extend(lines[-2:]),
    "shift": lambda lines: shift_label(lines, 900, 0.5),
}
# no fault, each fault in either file, every --pred x --labels pair, and pairs
# of faults that --pred can hold together
EVAL_CASES = (
    [()]
    + [((name, fault),) for name in ("pred", "labels") for fault in EVAL_FAULTS]
    + [(("pred", a), ("labels", b)) for a in EVAL_FAULTS for b in EVAL_FAULTS]
    + [(("pred", a), ("pred", b)) for a, b in
       itertools.combinations(("faceless", "early", "late", "utf8", "shift"), 2)]
)


@functools.cache
def label_lines():
    return tuple(session_lines()[1])


def write_eval_inputs(directory, faults):
    """The --pred and --labels files, each the session's labels with its faults made."""
    paths = {}
    for name in ("pred", "labels"):
        paths[name] = path = directory / f"{name}.jsonl"
        made = {fault for side, fault in faults if side == name}
        if "missing" in made:
            continue
        lines = list(label_lines())
        for fault, edit in EVAL_FAULTS.items():
            if fault in made and callable(edit):
                edit(lines)
        data = "".join(lines).encode()
        if "utf8" in made:
            at = data.index(b"\n", len(data) * 2 // 3) + 1  # past the text layer's first chunk
            data = data[:at] + b"\xff" + data[at:]
        path.write_bytes(data)
    return paths


@pytest.mark.parametrize(
    "faults", EVAL_CASES, ids=lambda faults: "+".join(map("-".join, faults)) or "none"
)
def test_streamed_eval_equals_the_materialized_oracle(tmp_path, monkeypatch, faults):
    paths = write_eval_inputs(tmp_path, faults)
    out = tmp_path / "report.json"
    argv = ["eval", "--pred", str(paths["pred"]), "--labels", str(paths["labels"]),
            "--channel", "eye", "--json", str(out)]
    got = main_result(argv, out)
    monkeypatch.setattr(cli, "cmd_eval", reference_compare.cmd_eval)
    assert got == main_result(argv, out)
    if len(faults) < 2:  # the same fault in both files may cancel out
        assert (got[0] == 0) == (not faults), got


@pytest.mark.parametrize("faceless", [BATCH_FRAMES, None], ids=["first-batch", "every-label"])
def test_a_missing_external_state_is_kept_for_its_method_only(faceless):
    # An external state missing in the first batch stops only the external
    # method: with the first batch's labels faceless the other methods' matrices
    # fill from later batches, and the missing state is raised at the external
    # method's turn; with every label faceless, the generalized method's empty
    # matrix is raised first.
    frame_lines, lines = session_lines()
    frames = list(dio.read_frames(frame_lines))
    labels = list(dio.read_states(lines))
    labels[:faceless] = [replace(label, face_present=False, eye_closed=None, mouth_yawn=None,
                                 head_down=None) for label in labels[:faceless]]
    states = dio.load_external_states(lines)
    del states[sorted(states)[10]]  # the 11th face frame's
    profile = calibrate(samples_from_frames(frames[:150]))
    args = (labels, profile, generalized_profile(), states)

    def outcome(compare):
        try:
            return compare(frames, *args)
        except Exception as exc:
            return type(exc), str(exc)

    want = outcome(reference_compare.compare)
    assert want[0] is (MissingLabelError if faceless else EvalError), want
    assert outcome(compare) == want


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


def boundary_states(n):
    """The session's first n labels, and predictions from them with every 7th state flipped."""
    labels = list(dio.read_states(label_lines()[:n]))
    predictions = [
        replace(label, eye_closed=not label.eye_closed, mouth_yawn=not label.mouth_yawn)
        if label.face_present and i % 7 == 0 else label
        for i, label in enumerate(labels)
    ]
    return predictions, labels


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("n", BOUNDARY_FRAMES)
def test_library_confusion_over_iterators_equals_the_list_call(n, channel):
    predictions, labels = boundary_states(n)
    want = confusion(predictions, labels, channel)
    assert want == reference_compare.confusion(predictions, labels, channel)
    assert want[0].fp + want[0].fn > 0
    assert confusion(iter(predictions), (label for label in labels), channel) == want


@pytest.mark.parametrize("pred_n, label_n", [
    (BATCH_FRAMES, BATCH_FRAMES + 1), (BATCH_FRAMES + 1, BATCH_FRAMES),
    (2 * BATCH_FRAMES, 2 * BATCH_FRAMES - 1), (2 * BATCH_FRAMES - 1, 2 * BATCH_FRAMES),
])
def test_library_confusion_length_mismatch_on_a_batch_boundary(pred_n, label_n):
    predictions, _ = boundary_states(pred_n)
    _, labels = boundary_states(label_n)
    message = f"stream length mismatch: {pred_n} predictions vs {label_n} labels"
    with pytest.raises(EvalError, match=message):
        reference_compare.confusion(predictions, labels, "eye")
    with pytest.raises(EvalError) as err:
        confusion(iter(predictions), iter(labels), "eye")
    assert str(err.value) == message


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


def counting(monkeypatch):
    """Patch dio's frame and label readers to count, by file name, the lines each parses."""
    counts = collections.Counter()

    def counted(parse):
        def read(src):
            name = os.path.basename(src.name)

            def lines():
                for line in src:
                    counts[name] += 1
                    yield line

            return parse(lines())

        return read

    for name in ("read_frames", "read_states"):
        monkeypatch.setattr(dio, name, counted(getattr(dio, name)))
    return counts


def line_counts(directory, **counts):
    """counts by file name, a count of None being the file's every line."""
    return {
        name: len((directory / name).read_text().splitlines()) if n is None else n
        for name, n in counts.items()
    }


# A reader's fault stops the reading at that reader, so no later input is read;
# the block's own fault reads every input to its end, since a parse fault further
# on in any of them would outrank it. None is a whole file.
@pytest.mark.parametrize("fault, frames, labels", [
    ("frame-early", 4, 0),
    ("label-bad", None, 501),
    ("label-shift", None, None),
    ("labels-long", None, None),
])
def test_compare_reads_no_input_past_a_reader_fault(tmp_path, monkeypatch, fault, frames, labels):
    write_driver(tmp_path, [fault])
    counts = counting(monkeypatch)
    assert main_result(["compare", "--input", str(tmp_path)], tmp_path / "none.json")[0] == 1
    want = line_counts(tmp_path, **{"d.frames.jsonl": frames, "d.labels.jsonl": labels})
    assert {**dict.fromkeys(want, 0), **counts} == want


@pytest.mark.parametrize("side, edit, pred, labels", [
    ("pred", lambda lines: lines.__setitem__(0, "{not json\n"), 1, 0),
    ("labels", EVAL_FAULTS["early"], None, 4),
    ("labels", EVAL_FAULTS["shift"], None, None),
    ("pred", EVAL_FAULTS["short"], None, None),
], ids=["pred-first-line", "labels-early", "labels-shift", "pred-short"])
def test_eval_reads_no_input_past_a_reader_fault(tmp_path, monkeypatch, side, edit, pred, labels):
    files = {"pred": list(label_lines()), "labels": list(label_lines())}
    edit(files[side])
    for name, lines in files.items():
        (tmp_path / f"{name}.jsonl").write_text("".join(lines))
    counts = counting(monkeypatch)
    argv = ["eval", "--pred", str(tmp_path / "pred.jsonl"),
            "--labels", str(tmp_path / "labels.jsonl"), "--channel", "eye"]
    assert main_result(argv, tmp_path / "none.json")[0] == 1
    want = line_counts(tmp_path, **{"pred.jsonl": pred, "labels.jsonl": labels})
    assert {**dict.fromkeys(want, 0), **counts} == want


@pytest.mark.parametrize("frame_fault", [True, False], ids=["frame-fault", "no-frame-fault"])
def test_single_stream_compare_opens_its_frames_before_its_labels(tmp_path, capsys, frame_fault):
    # the frames are opened first, so their fault outranks a labels file that fails to open
    frames = boundary_driver(tmp_path, 200)[0]
    if frame_fault:
        frames[3] = "{not json\n"
        (tmp_path / "d.frames.jsonl").write_text("".join(frames))
    missing = tmp_path / "missing.labels.jsonl"
    argv = ["compare", "--input", str(tmp_path / "d.frames.jsonl"), "--labels", str(missing),
            "--profile", str(tmp_path / "d.profile.json")]
    if frame_fault:
        with pytest.raises(ParseError) as err:
            list(dio.read_frames(frames))
        message = str(err.value)
    else:
        message = f"[Errno 2] No such file or directory: '{missing}'"
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"drowsy: {message}\n")


def traced_peak(directory) -> int:
    """The tracemalloc peak, in bytes, of one directory compare."""
    with contextlib.redirect_stdout(stdio.StringIO()):
        tracemalloc.start()
        try:
            assert cli.main(["compare", "--input", str(directory)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


# Each memory test runs streams of 2, 4 and 16 batches (2 hold SCRIPT's events):
# the first run pays for one-time allocations, and the last two must peak alike.
# A path that holds a whole stream grows with the 12 batches (6,144 frames)
# between them.
BATCHES = (2, 4, 16)


def test_compare_memory_does_not_grow_with_the_stream(tmp_path):
    # A materialized compare held about 2.2 KB per 19-point frame plus its
    # record and label, 16.6 MB more at 16 batches than at 4. Streamed, a
    # run holds one batch of frames, records and labels whatever the stream
    # length. An external state stream would add its map, about 120 B per
    # frame, so these drivers have none.
    peaks = []
    for batches in BATCHES:
        driver = tmp_path / f"{batches}"
        driver.mkdir()
        script = replace(SCRIPT, duration_s=batches * BATCH_FRAMES / SCRIPT.fps)
        frames, labels = session_lines(script)
        (driver / "d.frames.jsonl").write_text("".join(frames))
        (driver / "d.labels.jsonl").write_text("".join(labels))
        peaks.append(traced_peak(driver))
    # the first run also pays for one-time allocations, such as compiled patterns
    _, peak_4, peak_16 = peaks
    assert abs(peak_16 - peak_4) < 0.5e6, peaks
    assert peak_16 < 4e6, peaks


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
        library_peak(replace(SCRIPT, duration_s=batches * BATCH_FRAMES / SCRIPT.fps))
        for batches in BATCHES
    ]
    # the first run also pays for one-time allocations
    _, peak_4, peak_16 = peaks
    assert abs(peak_16 - peak_4) < 0.5e6, peaks


def eval_peak(labels) -> int:
    """The tracemalloc peak, in bytes, of one eval of a label file against itself."""
    with contextlib.redirect_stdout(stdio.StringIO()):
        tracemalloc.start()
        try:
            argv = ["eval", "--pred", str(labels), "--labels", str(labels), "--channel", "eye"]
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_eval_memory_does_not_grow_with_the_stream(tmp_path):
    # A materialized eval held both streams whole, 1.4 MB more at 16 batches
    # than at 4; streamed, it holds one batch of predictions and labels
    peaks = []
    for batches in BATCHES:
        labels = tmp_path / f"{batches}.labels.jsonl"
        script = replace(SCRIPT, duration_s=batches * BATCH_FRAMES / SCRIPT.fps)
        labels.write_text("".join(session_lines(script)[1]))
        peaks.append(eval_peak(labels))
    # the first run also pays for one-time allocations
    _, peak_4, peak_16 = peaks
    assert abs(peak_16 - peak_4) < 0.5e6, peaks
