"""Command-line interface: calibrate, run, synth, eval, compare.

Exit codes: 0 success, 1 input or format error (including usage errors),
2 domain failure such as a failed calibration. Alerts are data, never
failures: cmd_run exits 0 however many warnings fired. build_parser marks
each file argument read or written, and the path rules follow from those
marks and are checked before any file is opened: no path is empty; "-" is
stdin or stdout for at most one input and one output per command (eval's
and compare's text report already writes stdout). A path that names the
file a standard stream reads or writes, such as /dev/stdin or /dev/stdout,
counts as "-", except a regular file on stdin, which a second open reads
from its own offset. No output names an input or another output (in a
directory compare, every driver's four files, present or not, and any new
<stem>.frames.jsonl there). Inputs are read as UTF-8; outputs are written
as _open_out says, through one 256 KiB buffer (a write system call per
~1,700 record lines). eval and compare read their streams through
_streams, which ranks faults as whole reads in turn would and reads no
further once a reader's fault decides the report, and create --json
before they write their text report, so a --json that cannot be created
leaves stdout empty.

Data outputs (stdout and files) are byte-reproducible given identical
inputs, flags, and seed; diagnostics on stderr may include timing and are
not. Profile creation stamps honor SOURCE_DATE_EPOCH.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import os
import stat
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import replace
from errno import ENOENT

from . import io as dio
from .calibration import CalibrationConfig, calibrate, generalized_profile, lead_in
from .errors import CalibrationError, ConfigError, DrowsyError, ParseError
from .eval import (
    CHANNELS,
    aggregate,
    channel_eval_doc,
    compare,
    evaluate_channel,
    format_pct,
    population_doc,
    render_population,
    render_report,
    report_doc,
)
from .metrics import samples_from_frames
from .pipeline import PipelineConfig, run_session
from .synth import iter_session


def _defaults(config) -> dict:
    """Parameter defaults of a config class or factory, in parameter order."""
    return {name: p.default for name, p in inspect.signature(config).parameters.items()}


# (flag, field or parameter, help); each flag takes its type and default from there
_BUFFER_FLAGS = (("--buffer-capacity", "buffer_capacity", "smoothing buffer length in frames"),)

# only run raises alerts, so only run takes the alarm and PERCLOS settings
_ALARM_FLAGS = (
    ("--sustain-eyes", "sustain_eyes_s", "seconds eyes must stay closed before alerting"),
    ("--sustain-mouth", "sustain_mouth_s", "seconds a yawn must last before alerting"),
    ("--sustain-head", "sustain_head_s", "seconds of head-down before alerting"),
    ("--sustain-presence", "sustain_presence_s", "seconds without a face before alerting"),
    ("--sustain-perclos", "sustain_perclos_s", "seconds over the PERCLOS limit before alerting"),
    ("--rearm-frames", "rearm_frames", "condition-free frames before a channel re-arms"),
    ("--perclos-window", "perclos_window_s", "PERCLOS rolling window in seconds"),
    ("--perclos-limit", "perclos_limit", "PERCLOS alarm threshold in percent"),
)

# compare scores eye and mouth decisions only, so only calibrate takes --head-factor
_RATIO_FACTOR_FLAGS = (
    ("--ear-factor", "ear_factor", "eye threshold as a fraction of baseline EAR"),
    ("--mar-factor", "mar_factor", "mouth threshold as a multiple of baseline MAR"),
)

_CALIBRATE_FLAGS = (
    ("--duration", "duration_s", "required recording coverage in seconds"),
    ("--min-samples", "min_samples", "minimum face-present frames"),
    *_RATIO_FACTOR_FLAGS,
    ("--head-factor", "head_factor", "head limit as a multiple of baseline head drop"),
)

# compare auto-calibrates only a driver without a profile; _drivers refuses
# these when every driver has one
_AUTO_CALIBRATE_FLAGS = (
    (
        "--calib-duration",
        "duration_s",
        "seconds of leading frames used to auto-calibrate drivers without a profile",
    ),
    ("--min-samples", "min_samples", "minimum face-present frames for auto-calibration"),
    *_RATIO_FACTOR_FLAGS,
)

_GENERALIZED_FLAGS = (
    ("--gen-ear", "ear_threshold", "generalized EAR threshold"),
    ("--gen-mar", "mar_threshold", "generalized MAR threshold"),
)


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1); 2 is reserved for domain failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_flags(parser: argparse.ArgumentParser, config, specs) -> None:
    """Add one flag per spec, typed from its field or parameter, whose default the help shows.

    args holds a flag's value only when the flag is given: _build leaves
    the default to the config itself, and a command can tell a given flag
    from its default.
    """
    defaults = _defaults(config)
    for flag, name, help_text in specs:
        default = defaults[name]
        parser.add_argument(
            flag,
            dest=name,
            type=type(default),
            default=argparse.SUPPRESS,
            help=f"{help_text} (default {default})",
        )


def _build(config, args: argparse.Namespace):
    """Call a config class or factory with the values its flags parsed into args.

    Construction validates, so every command builds its configs before it
    opens any file.
    """
    values = {name: getattr(args, name) for name in _defaults(config) if hasattr(args, name)}
    return config(**values)


@contextmanager
def _open_in(path: str):
    """Read an input as UTF-8 text; other bytes are an input error naming the input.

    The error is raised while a reader iterates the lines, outside its
    per-line handling, and is named by the innermost input open. The text
    layer decodes in chunks, so the message gives no byte offset.
    """
    try:
        if path == "-":
            # the interpreter's stdin may decode leniently (surrogateescape in
            # UTF-8 mode), which would let any byte through
            if hasattr(sys.stdin, "reconfigure"):
                sys.stdin.reconfigure(encoding="utf-8", errors="strict")
            yield sys.stdin
        else:
            with open(path, encoding="utf-8") as fp:
                yield fp
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path: str) -> ParseError:
    return ParseError(f"{path}: not UTF-8 text")


def _load(path, read):
    """read() of the input at path, opened through _open_in, or None when there is no path."""
    if not path:
        return None
    with _open_in(path) as src:
        return read(src)


@contextmanager
def _streams(*inputs):
    """Yield parse(lines of path) lazily for each (path, parse) of inputs, in whole-read order.

    The inputs are opened in that order. On a fault of the block, a failed
    open included, they are read on one by one in that order, and the first
    fault a reader meets, then or before, is raised in place of the
    block's; no later input is read. So the fault reported is the one
    that reading each input whole, in order, and then running the block
    would report first. A reader's UTF-8 fault is named after its input.
    """
    faults = {}

    def read(i, path, parse, src):
        try:
            yield from parse(src)
        except UnicodeDecodeError:
            faults[i] = _not_utf8(path)
            raise faults[i] from None
        except (DrowsyError, OSError) as exc:
            faults[i] = exc
            raise

    with ExitStack() as stack:
        readers = []
        try:
            for i, (path, parse) in enumerate(inputs):
                readers.append(read(i, path, parse, stack.enter_context(_open_in(path))))
            yield readers
        except (DrowsyError, OSError):
            for i, reader in enumerate(readers):
                for _ in reader:  # a fault the reader meets here leaves from here
                    pass
                if i in faults:
                    raise faults[i]
            raise


# A frame that waits on a write system call sets a record stream's p99
# latency. The default 4 KiB buffer passes every 8 KiB text chunk straight
# to write, one call per ~53 record lines; this one, one per ~1,700.
_OUT_BUFFER = 1 << 18


@contextmanager
def _open_out(path: str):
    """Write an output as UTF-8 text; the one place a drowsy command opens a file for writing.

    A path whose stat (which follows symlinks, as open does) finds a pipe,
    terminal or device is written in place, so a failing run may leave
    partial output there. A regular file or a new path is written through
    any symlink, atomically, with the permissions open(path, "w") leaves.
    """
    if path == "-":
        yield sys.stdout
        return
    try:
        st = os.stat(path)
    except OSError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w", encoding="utf-8", buffering=_OUT_BUFFER) as fp:
            yield fp
        return
    umask = os.umask(0)
    os.umask(umask)
    mode = 0o666 & ~umask if st is None else st.st_mode & 0o777
    real = os.path.realpath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".drowsy-", suffix=".part")
    except OSError as exc:  # name the path given, as open(path, "w") would, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        # mkstemp makes the file 0600 whatever the umask
        with os.fdopen(fd, "w", encoding="utf-8", buffering=_OUT_BUFFER) as fp:
            os.fchmod(fd, mode)
            yield fp
        os.replace(tmp, real)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


class _In(str):
    """A path a command reads; build_parser gives each input argument this type."""


class _Out(str):
    """A path a command writes; build_parser gives each output argument this type."""


def _files(args: argparse.Namespace, mark: type) -> list:
    """(name, path) of each given argument marked mark, in parser order."""
    marked = [(dest, path) for dest, path in vars(args).items() if isinstance(path, mark)]
    return [("the text report" if dest == "report" else f"--{dest}", path) for dest, path in marked]


def _as_dash(path: str, stream) -> str:
    """path, or "-" when it names the file stream reads or writes, as /dev/stdin does.

    A regular file on stdin stays a path: opened again, it reads from its
    own offset, so both readers see all of it.
    """
    try:
        st = os.fstat(stream.fileno())
        same = os.path.samestat(os.stat(path), st)
    except (AttributeError, OSError, ValueError):  # no such file, or no descriptor
        return path
    if stream is sys.stdin and stat.S_ISREG(st.st_mode):
        return path
    return "-" if same else path


def _check_paths(args: argparse.Namespace, drivers=None) -> None:
    """Refuse file arguments that would lose or garble data, before any file is opened.

    Inputs and outputs are the given arguments marked _In and _Out, with a
    directory compare's driver files in place of --input. No path may be
    empty, at most one input may read "-" (stdin) and one output write "-"
    (stdout; _as_dash reads /dev/stdin, /dev/stdout and the like as "-"),
    and an output may name no input and no other output.
    """
    inputs = _files(args, _In) if drivers is None else [("--input", p) for p in drivers]
    inputs = [(flag, _as_dash(path, sys.stdin)) for flag, path in inputs]
    outputs = [(flag, _as_dash(path, sys.stdout)) for flag, path in _files(args, _Out)]
    for flag, path in (*inputs, *outputs):
        if path == "":
            raise ConfigError(f"{flag} names an empty path")
    for pairs, verb in ((inputs, "read standard input"), (outputs, "write standard output")):
        dashes = [flag for flag, path in pairs if path == "-"]
        if len(dashes) > 1:
            raise ConfigError(f"{dashes[0]} and {dashes[1]} both {verb}")
    files = [(flag, path) for flag, path in inputs if path != "-"]
    for flag, path in outputs:
        if path == "-":
            continue
        for other, other_path in files:
            if _same_file(path, other_path):
                raise ConfigError(f"{other} and {flag} name the same file: {other_path}")
        files.append((flag, path))


# --- subcommands ---------------------------------------------------------------

def cmd_calibrate(args: argparse.Namespace) -> int:
    config = _build(CalibrationConfig, args)
    dio.default_created_at()  # a malformed SOURCE_DATE_EPOCH fails before any file is opened
    _check_paths(args)
    with _open_in(args.input) as src:
        profile = calibrate(samples_from_frames(dio.read_frames(src)), config)
    with _open_out(args.out) as sink:
        dio.write_profile(sink, profile)
    print(
        f"calibrated over {profile.frames_used} frames covering {profile.duration_s:.3f} s\n"
        f"baseline:  ear={profile.baseline_ear:.6f} mar={profile.baseline_mar:.6f} "
        f"head_drop={profile.baseline_head_drop:.6f}\n"
        f"threshold: ear={profile.ear_threshold:.6f} mar={profile.mar_threshold:.6f} "
        f"head_drop={profile.head_drop_limit:.6f}",
        file=sys.stderr,
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _build(PipelineConfig, args)
    _check_paths(args)
    profile = _load(args.profile, dio.read_profile)
    external = _load(args.external, dio.load_external_states)

    with _open_in(args.input) as frames_in, _open_out(args.out) as events_out:
        def on_event(event):
            dio.write_events(events_out, [event])
            if args.bell:
                sys.stderr.write("\a")
                sys.stderr.flush()

        with _open_out(args.records) if args.records else nullcontext() as records_out:
            on_record = None
            if records_out is not None:
                on_record = lambda rec: dio.write_records(records_out, [rec])
            start = time.perf_counter()
            result = run_session(
                dio.read_frames(frames_in),
                profile,
                config,
                external,
                on_event=on_event,
                on_record=on_record,
                collect=False,
            )
            elapsed = time.perf_counter() - start

    s = result.summary
    throughput = s.frames / elapsed if elapsed > 0 else 0.0
    alerts = " ".join(f"{kind}={count}" for kind, count in sorted(s.alerts.items()))
    print(
        f"frames={s.frames} faceless={s.faceless_frames} {alerts} "
        f"final_perclos={format_pct(s.final_perclos)} throughput={throughput:.0f} fps",
        file=sys.stderr,
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    _check_paths(args)
    script = _load(args.script, dio.read_script)
    if args.seed is not None:
        script = replace(script, seed=args.seed)
    with _open_out(args.out) as frames_out, _open_out(args.labels) as labels_out:
        for frame, label in iter_session(script):
            dio.write_frames(frames_out, [frame])
            dio.write_labels(labels_out, [label])
    print(
        f"generated {script.frame_count} frames at {script.fps:g} fps (seed {script.seed})",
        file=sys.stderr,
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    _check_paths(args)
    with _streams((args.pred, dio.read_states), (args.labels, dio.read_states)) as streams:
        result = evaluate_channel(*streams, args.channel)
    m = result.matrix
    text = (
        f"channel: {args.channel}\n"
        f"frames evaluated: {m.total} (excluded {result.excluded})\n"
        f"accuracy: {result.accuracy:.2f}%\n"
        f"confusion: tp={m.tp} tn={m.tn} fp={m.fp} fn={m.fn}\n"
        f"recall positive: {format_pct(result.recall_positive)}\n"
        f"recall negative: {format_pct(result.recall_negative)}\n"
    )
    _write_report(args, text, channel_eval_doc(args.channel, result))
    return 0


def _write_report(args: argparse.Namespace, text: str, doc: dict) -> None:
    """Write the text report to stdout and doc to --json, if given, which is opened first."""
    with _open_out(args.json) if args.json else nullcontext() as sink:
        sys.stdout.write(text)
        if sink is not None:
            dio.write_document(sink, doc)


def _score_driver(frames_path, labels_path, profile_path, external_path, configs):
    """Score one driver in one streaming pass; without a profile, calibrate from the leading frames.

    compare reads the frames file as it steps the frames (without a profile,
    calibration.lead_in, which owns the window, first reads those up to the
    end of the lead-in) and the labels file as it scores their records, so
    no frame, record or label outlives its batch. The profile, the frames, the
    labels and the external states are opened in that order, the two
    streams through _streams, so the fault reported is the one that reading
    them whole in that order, then calibrating and comparing, would report
    first.
    """
    pipeline_config, calibration_config, generalized = configs
    profile = _load(profile_path, dio.read_profile)
    with _streams((frames_path, dio.read_frames), (labels_path, dio.read_states)) as streams:
        frames, labels = streams
        external = _load(external_path, dio.load_external_states)
        if profile is None:
            frames, head = lead_in(frames, calibration_config.duration_s)
            profile = calibrate(samples_from_frames(head), calibration_config)
        return compare(
            frames,
            labels,
            personalized=profile,
            generalized=generalized,
            external_states=external,
            config=pipeline_config,
        )


def _drivers(args: argparse.Namespace) -> list:
    """(stem, frames, labels, profile, external) of each driver, every input rule checked.

    A single stream is one driver with stem None. A directory has one per
    <stem>.frames.jsonl, with None for an absent profile or external stream;
    a dangling link is present, and fails as any missing file does when opened.
    """
    suffix = ".frames.jsonl"
    inputs = None  # _check_paths reads the input flags
    if os.path.isdir(args.input):
        for flag, _ in _files(args, _In)[1:]:  # the directory names every driver's files
            raise ConfigError(f"{flag} does not apply to a directory --input")
        stems = sorted(
            name[: -len(suffix)]
            for name in os.listdir(args.input)
            if name.endswith(suffix)
        )
        if not stems:
            raise ConfigError(f"no *{suffix} files under {args.input}")
        # every driver file is an input, present or not, as a new <stem>.frames.jsonl would be
        names = (suffix, ".labels.jsonl", ".profile.json", ".external.jsonl")
        listed = [[os.path.join(args.input, stem + name) for name in names] for stem in stems]
        inputs = [path for paths in listed for path in paths]
        drivers = [
            (stem, frames, labels, *(p if os.path.lexists(p) else None for p in optional))
            for stem, (frames, labels, *optional) in zip(stems, listed)
        ]
    elif args.labels is None or args.profile is None:
        raise ConfigError("single-stream compare requires --labels and --profile")
    else:
        drivers = [(None, args.input, args.labels, args.profile, args.external)]
    if all(profile for _, _, _, profile, _ in drivers):
        for flag, name, _ in _AUTO_CALIBRATE_FLAGS:
            if hasattr(args, name):
                raise ConfigError(f"{flag} does not apply: every driver has a profile")
    _check_paths(args, inputs)
    if inputs is None:
        return drivers
    if args.json and args.json.endswith(suffix) and _same_file(
        os.path.dirname(os.path.abspath(args.json)), args.input
    ):
        raise ConfigError(f"--json names a frame stream in the --input directory: {args.json}")
    first, *_, first_external = drivers[0]
    for stem, _, labels, _, external in drivers:
        if not os.path.lexists(labels):
            raise ConfigError(f"{stem}: {FileNotFoundError(ENOENT, os.strerror(ENOENT), labels)}")
        if (external is None) != (first_external is None):
            has = ("an external stream", "none") if external else ("no external stream", "one")
            raise ConfigError(f"{stem} has {has[0]}, {first} has {has[1]}")
    return drivers


def cmd_compare(args: argparse.Namespace) -> int:
    # built in this order, so a bad pipeline flag is reported first
    configs = (
        _build(PipelineConfig, args),
        _build(CalibrationConfig, args),
        _build(generalized_profile, args),
    )
    drivers = _drivers(args)
    # Scoring pauses the collector. A batch in flight is about ten thousand container
    # objects (frames, points, records, labels), enough for collections that find
    # nothing: none is in a reference cycle, and reference counting frees each batch.
    enabled = gc.isenabled()
    gc.disable()
    try:
        reports = []
        for stem, *paths in drivers:
            try:
                reports.append(_score_driver(*paths, configs))
            except (DrowsyError, OSError) as exc:
                if stem is None:
                    raise
                # name the driver; a calibration failure keeps its exit code
                kind = CalibrationError if isinstance(exc, CalibrationError) else DrowsyError
                raise kind(f"{stem}: {exc}") from None
    finally:
        if enabled:
            gc.enable()
    if drivers[0][0] is None:  # a single stream
        _write_report(args, render_report(reports[0]), report_doc(reports[0]))
        return 0
    agg = aggregate(reports, [stem for stem, *_ in drivers])
    _write_report(args, render_population(agg), population_doc(agg))
    return 0


# --- parser wiring ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="drowsy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("calibrate", help="derive a personalized profile from a neutral recording")
    p.add_argument("--input", type=_In, required=True, help="landmark frame stream (JSONL, or -)")
    p.add_argument("--out", type=_Out, default="-", help="profile destination (default stdout)")
    _add_flags(p, CalibrationConfig, _CALIBRATE_FLAGS)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("run", help="stream frames through the monitoring pipeline")
    p.add_argument("--input", type=_In, required=True, help="landmark frame stream (JSONL, or -)")
    p.add_argument("--profile", type=_In, required=True, help="calibration profile (JSON, or -)")
    p.add_argument("--external", type=_In, help="external per-frame classifier states (JSONL)")
    p.add_argument(
        "--out", type=_Out, default="-", help="alert event log destination (default stdout)"
    )
    p.add_argument("--records", type=_Out, help="per-frame record log destination")
    p.add_argument("--bell", action="store_true", help="ring the terminal bell on each alert")
    _add_flags(p, PipelineConfig, _BUFFER_FLAGS + _ALARM_FLAGS)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="generate a labeled synthetic session from a script")
    p.add_argument("--script", type=_In, required=True, help="session script (JSON, or -)")
    p.add_argument("--out", type=_Out, required=True, help="frame stream destination")
    p.add_argument("--labels", type=_Out, required=True, help="ground-truth label destination")
    p.add_argument("--seed", type=int, default=None, help="override the script seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score per-frame predictions against labels")
    p.add_argument(
        "--pred", type=_In, required=True, help="prediction stream (records or labels JSONL)"
    )
    p.add_argument("--labels", type=_In, required=True, help="ground-truth labels (JSONL)")
    p.add_argument("--channel", required=True, choices=CHANNELS)
    p.add_argument("--json", type=_Out, help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_eval, report=_Out("-"))  # the text report

    p = sub.add_parser(
        "compare",
        help="generalized vs personalized (vs external) over one stream or a population dir",
    )
    p.add_argument(
        "--input",
        type=_In,
        required=True,
        help="frame stream, or a directory of <stem>.frames.jsonl / .labels.jsonl "
        "[/ .profile.json / .external.jsonl] per driver",
    )
    p.add_argument("--labels", type=_In, help="label stream (single-stream mode)")
    p.add_argument("--profile", type=_In, help="personalized profile (single-stream mode)")
    p.add_argument("--external", type=_In, help="external classifier states (single-stream mode)")
    p.add_argument("--json", type=_Out, help="also write the report as JSON to this path")
    _add_flags(p, CalibrationConfig, _AUTO_CALIBRATE_FLAGS)
    _add_flags(p, PipelineConfig, _BUFFER_FLAGS)
    _add_flags(p, generalized_profile, _GENERALIZED_FLAGS)
    p.set_defaults(func=cmd_compare, report=_Out("-"))  # the text report

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DrowsyError, OSError) as exc:
        print(f"drowsy: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CalibrationError) else 1


if __name__ == "__main__":
    sys.exit(main())
