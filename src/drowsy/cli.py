"""Command-line interface: calibrate, run, synth, eval, compare.

Exit codes: 0 success, 1 input or format error (including usage errors),
2 domain failure such as a failed calibration. Alerts are data, never
failures: cmd_run exits 0 however many warnings fired. Every file argument
accepts "-" for standard input/output, at most one input and one output
per command (eval's and compare's text report already writes stdout), no
output may name an input or another output, and no path may be empty;
these rules are checked before any file is opened. Inputs are read as
UTF-8. Output files are written atomically (temp file + rename), so a
failing run leaves no partial outputs behind.

Data outputs (stdout and files) are byte-reproducible given identical
inputs, flags, and seed; diagnostics on stderr may include timing and are
not. Profile creation stamps honor SOURCE_DATE_EPOCH.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import os
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace

from . import io as dio
from .calibration import CalibrationConfig, calibrate, generalized_profile
from .errors import CalibrationError, ConfigError, DrowsyError, ParseError
from .eval import (
    CHANNELS,
    aggregate,
    channel_eval_doc,
    compare,
    evaluate_channel,
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
_PIPELINE_FLAGS = (
    ("--buffer-capacity", "buffer_capacity", "smoothing buffer length in frames"),
    ("--sustain-eyes", "sustain_eyes_s", "seconds eyes must stay closed before alerting"),
    ("--sustain-mouth", "sustain_mouth_s", "seconds a yawn must last before alerting"),
    ("--sustain-head", "sustain_head_s", "seconds of head-down before alerting"),
    ("--sustain-presence", "sustain_presence_s", "seconds without a face before alerting"),
    ("--sustain-perclos", "sustain_perclos_s", "seconds over the PERCLOS limit before alerting"),
    ("--rearm-frames", "rearm_frames", "condition-free frames before a channel re-arms"),
    ("--perclos-window", "perclos_window_s", "PERCLOS rolling window in seconds"),
    ("--perclos-limit", "perclos_limit", "PERCLOS alarm threshold in percent"),
)

_FACTOR_FLAGS = (
    ("--ear-factor", "ear_factor", "eye threshold as a fraction of baseline EAR"),
    ("--mar-factor", "mar_factor", "mouth threshold as a multiple of baseline MAR"),
    ("--head-factor", "head_factor", "head limit as a multiple of baseline head drop"),
)

_CALIBRATE_FLAGS = (
    ("--duration", "duration_s", "required recording coverage in seconds"),
    ("--min-samples", "min_samples", "minimum face-present frames"),
) + _FACTOR_FLAGS

_AUTO_CALIBRATE_FLAGS = (
    (
        "--calib-duration",
        "duration_s",
        "seconds of leading frames used to auto-calibrate drivers without a profile",
    ),
    ("--min-samples", "min_samples", "minimum face-present frames for auto-calibration"),
)

_GENERALIZED_FLAGS = (
    ("--gen-ear", "ear_threshold", "generalized EAR threshold"),
    ("--gen-mar", "mar_threshold", "generalized MAR threshold"),
    ("--gen-head", "head_drop_limit", "generalized head-drop limit"),
)


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1); 2 is reserved for domain failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_flags(parser: argparse.ArgumentParser, config, specs) -> None:
    defaults = _defaults(config)
    for flag, name, help_text in specs:
        default = defaults[name]
        parser.add_argument(
            flag,
            dest=name,
            type=type(default),
            default=default,
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
    per-line handling. The text layer decodes in chunks, so the message
    gives no byte offset.
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
        raise ParseError(f"{path}: not UTF-8 text") from None


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".drowsy-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fp:
            yield fp
        os.replace(tmp, path)
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


_REPORT = ("the text report", "-")  # eval and compare print theirs on stdout


def _check_paths(inputs, outputs) -> None:
    """Refuse file arguments that would lose or garble data, before any file is opened.

    inputs and outputs are (flag, path) pairs; a None path is a flag not
    given, and an empty one is refused. At most one input may read "-"
    (stdin) and one output may write "-" (stdout), and an output may name
    no input and no other output.
    """
    for flag, path in (*inputs, *outputs):
        if path == "":
            raise ConfigError(f"{flag} names an empty path")
    for pairs, verb in ((inputs, "read standard input"), (outputs, "write standard output")):
        dashes = [flag for flag, path in pairs if path == "-"]
        if len(dashes) > 1:
            raise ConfigError(f"{dashes[0]} and {dashes[1]} both {verb}")
    files = [(flag, path) for flag, path in inputs if path not in (None, "-")]
    for flag, path in outputs:
        if path in (None, "-"):
            continue
        for other, other_path in files:
            if _same_file(path, other_path):
                raise ConfigError(f"{other} and {flag} name the same file: {other_path}")
        files.append((flag, path))


def _check_directory_flags(flags) -> None:
    """Refuse single-stream (flag, value) pairs in directory mode, before any file is opened.

    The directory names every driver's files, so a given flag would be ignored.
    """
    for flag, value in flags:
        if value is not None:
            raise ConfigError(f"{flag} does not apply to a directory --input")


# --- subcommands ---------------------------------------------------------------

def cmd_calibrate(args: argparse.Namespace) -> int:
    config = _build(CalibrationConfig, args)
    dio.default_created_at()  # a malformed SOURCE_DATE_EPOCH fails before any file is opened
    _check_paths([("--input", args.input)], [("--out", args.out)])
    with _open_in(args.input) as src:
        samples = list(samples_from_frames(dio.read_frames(src)))
    profile = calibrate(samples, config)
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
    _check_paths(
        [("--input", args.input), ("--profile", args.profile), ("--external", args.external)],
        [("--out", args.out), ("--records", args.records)],
    )
    with _open_in(args.profile) as src:
        profile = dio.read_profile(src)
    external = None
    if args.external:
        with _open_in(args.external) as src:
            external = dio.load_external_states(src)

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
    final = "n/a" if s.final_perclos is None else f"{s.final_perclos:.2f}%"
    print(
        f"frames={s.frames} faceless={s.faceless_frames} {alerts} "
        f"final_perclos={final} throughput={throughput:.0f} fps",
        file=sys.stderr,
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    _check_paths([("--script", args.script)], [("--out", args.out), ("--labels", args.labels)])
    with _open_in(args.script) as src:
        script = dio.read_script(src)
    if args.seed is not None:
        script = replace(script, seed=args.seed)
    with _open_out(args.out) as frames_out, _open_out(args.labels) as labels_out:
        n = 0
        for frame, label in iter_session(script):
            dio.write_frames(frames_out, [frame])
            dio.write_labels(labels_out, [label])
            n += 1
    print(f"generated {n} frames at {script.fps:g} fps (seed {script.seed})", file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    _check_paths(
        [("--pred", args.pred), ("--labels", args.labels)], [("--json", args.json), _REPORT]
    )
    with _open_in(args.pred) as src:
        predictions = list(dio.read_states(src))
    with _open_in(args.labels) as src:
        labels = list(dio.read_states(src))
    result = evaluate_channel(predictions, labels, args.channel)
    m = result.matrix
    rp = "n/a" if result.recall_positive is None else f"{result.recall_positive:.2f}%"
    rn = "n/a" if result.recall_negative is None else f"{result.recall_negative:.2f}%"
    print(
        f"channel: {args.channel}\n"
        f"frames evaluated: {m.total} (excluded {result.excluded})\n"
        f"accuracy: {result.accuracy:.2f}%\n"
        f"confusion: tp={m.tp} tn={m.tn} fp={m.fp} fn={m.fn}\n"
        f"recall positive: {rp}\n"
        f"recall negative: {rn}"
    )
    if args.json:
        _write_doc(args.json, channel_eval_doc(args.channel, result))
    return 0


def _write_doc(path: str, doc: dict) -> None:
    with _open_out(path) as sink:
        dio.write_document(sink, doc)


def _compare_one(frames_path, labels_path, profile_path, external_path, configs):
    """Score one driver with the cyclic garbage collector paused.

    One driver's frames, labels and records are tens of thousands of
    container objects per minute of stream, enough for dozens of
    collections that find nothing: none of them forms a reference cycle,
    and reference counting frees all of them when _score_driver returns,
    before the caller's collector state is restored.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _score_driver(frames_path, labels_path, profile_path, external_path, configs)
    finally:
        if enabled:
            gc.enable()


def _score_driver(frames_path, labels_path, profile_path, external_path, configs):
    """Score one driver; without a profile path, calibrate from the leading frames."""
    pipeline_config, calibration_config, generalized = configs
    profile = None
    if profile_path:
        with _open_in(profile_path) as src:
            profile = dio.read_profile(src)
    with _open_in(frames_path) as src:
        frames = list(dio.read_frames(src))
    with _open_in(labels_path) as src:
        labels = list(dio.read_states(src))
    external = None
    if external_path:
        with _open_in(external_path) as src:
            external = dio.load_external_states(src)
    if profile is None:
        head = [f for f in frames if f.t <= calibration_config.duration_s]
        profile = calibrate(samples_from_frames(head), calibration_config)
    return compare(
        frames,
        labels,
        personalized=profile,
        generalized=generalized,
        external_states=external,
        config=pipeline_config,
    )


def cmd_compare(args: argparse.Namespace) -> int:
    # built in this order, so a bad pipeline flag is reported first
    configs = (
        _build(PipelineConfig, args),
        _build(CalibrationConfig, args),
        _build(generalized_profile, args),
    )
    outputs = [("--json", args.json), _REPORT]
    single = [
        ("--labels", args.labels), ("--profile", args.profile), ("--external", args.external)
    ]
    if os.path.isdir(args.input):
        _check_directory_flags(single)
        suffix = ".frames.jsonl"
        stems = sorted(
            name[: -len(suffix)]
            for name in os.listdir(args.input)
            if name.endswith(suffix)
        )
        if not stems:
            raise ConfigError(f"no *{suffix} files under {args.input}")
        drivers = []
        for stem in stems:
            base = os.path.join(args.input, stem)
            optional = [base + ".profile.json", base + ".external.jsonl"]
            profile, external = (path if os.path.exists(path) else None for path in optional)
            drivers.append((base + suffix, base + ".labels.jsonl", profile, external))
        _check_paths([("--input", path) for driver in drivers for path in driver], outputs)
        reports = []
        for stem, driver in zip(stems, drivers):
            try:
                reports.append(_compare_one(*driver, configs))
            except (DrowsyError, OSError) as exc:
                # name the driver; a calibration failure keeps its exit code
                kind = CalibrationError if isinstance(exc, CalibrationError) else DrowsyError
                raise kind(f"{stem}: {exc}") from None
        agg = aggregate(reports, stems)
        sys.stdout.write(render_population(agg))
        doc = population_doc(agg)
    else:
        if args.labels is None or args.profile is None:
            raise ConfigError("single-stream compare requires --labels and --profile")
        _check_paths([("--input", args.input), *single], outputs)
        report = _compare_one(args.input, args.labels, args.profile, args.external, configs)
        sys.stdout.write(render_report(report))
        doc = report_doc(report)
    if args.json:
        _write_doc(args.json, doc)
    return 0


# --- parser wiring ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="drowsy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("calibrate", help="derive a personalized profile from a neutral recording")
    p.add_argument("--input", required=True, help="landmark frame stream (JSONL, or -)")
    p.add_argument("--out", default="-", help="profile destination (default stdout)")
    _add_flags(p, CalibrationConfig, _CALIBRATE_FLAGS)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("run", help="stream frames through the monitoring pipeline")
    p.add_argument("--input", required=True, help="landmark frame stream (JSONL, or -)")
    p.add_argument("--profile", required=True, help="calibration profile (JSON, or -)")
    p.add_argument("--external", help="external per-frame classifier states (JSONL)")
    p.add_argument("--out", default="-", help="alert event log destination (default stdout)")
    p.add_argument("--records", help="per-frame record log destination")
    p.add_argument("--bell", action="store_true", help="ring the terminal bell on each alert")
    _add_flags(p, PipelineConfig, _PIPELINE_FLAGS)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("synth", help="generate a labeled synthetic session from a script")
    p.add_argument("--script", required=True, help="session script (JSON, or -)")
    p.add_argument("--out", required=True, help="frame stream destination")
    p.add_argument("--labels", required=True, help="ground-truth label destination")
    p.add_argument("--seed", type=int, default=None, help="override the script seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score per-frame predictions against labels")
    p.add_argument("--pred", required=True, help="prediction stream (records or labels JSONL)")
    p.add_argument("--labels", required=True, help="ground-truth labels (JSONL)")
    p.add_argument("--channel", required=True, choices=CHANNELS)
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "compare",
        help="generalized vs personalized (vs external) over one stream or a population dir",
    )
    p.add_argument(
        "--input",
        required=True,
        help="frame stream, or a directory of <stem>.frames.jsonl / .labels.jsonl "
        "[/ .profile.json / .external.jsonl] per driver",
    )
    p.add_argument("--labels", help="label stream (single-stream mode)")
    p.add_argument("--profile", help="personalized profile (single-stream mode)")
    p.add_argument("--external", help="external classifier states (single-stream mode)")
    p.add_argument("--json", help="also write the report as JSON to this path")
    _add_flags(p, CalibrationConfig, _AUTO_CALIBRATE_FLAGS)
    _add_flags(p, PipelineConfig, _PIPELINE_FLAGS)
    _add_flags(p, CalibrationConfig, _FACTOR_FLAGS)
    _add_flags(p, generalized_profile, _GENERALIZED_FLAGS)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CalibrationError as exc:
        print(f"drowsy: {exc}", file=sys.stderr)
        return 2
    except DrowsyError as exc:
        print(f"drowsy: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"drowsy: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
