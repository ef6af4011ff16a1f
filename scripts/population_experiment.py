#!/usr/bin/env python3
"""Generalized vs personalized thresholds over a synthetic driver population.

Generates a seeded population of drivers with individual neutral baselines,
all performing the same scripted session (blinks, one sustained closure, one
yawn, talking), and writes each driver's <stem>.frames.jsonl and
<stem>.labels.jsonl into OUTDIR. It then scores the directory with
`drowsy compare --input OUTDIR --calib-duration CALIB_WINDOW`, which
calibrates each driver from their own neutral lead-in and scores the same
pipeline per frame against ground truth under fixed population thresholds
and under the personalized thresholds. The comparison goes to stdout and to
OUTDIR/report.txt, byte for byte, its JSON form to OUTDIR/report.json; the
exit code is compare's. A bad argument exits 1 with a `drowsy:` message
before any stream is written. Compare scores every driver in OUTDIR, so
start from an empty one.
"""

import argparse
import contextlib
import io
import os
import sys

from drowsy import cli
from drowsy import io as dio
from drowsy.calibration import CalibrationConfig
from drowsy.errors import DrowsyError
from drowsy.synth import ScriptEvent, generate_population

FRAME = 1.0 / 30.0

SESSION_TEMPLATE = (
    ScriptEvent("blink", 10.0, 2 * FRAME, 1.0),
    ScriptEvent("sustained_closure", 20.0, 2.0, 1.0),
    ScriptEvent("blink", 40.0, 2 * FRAME, 1.0),
    ScriptEvent("yawn", 50.0, 2.0, 1.0),
    ScriptEvent("blink", 70.0, 2 * FRAME, 1.0),
    ScriptEvent("talk", 90.0, 4.0, 1.0),
    ScriptEvent("talk", 100.0, 4.0, 1.0),
    ScriptEvent("talk", 110.0, 4.0, 1.0),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--drivers", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--noise-sigma", type=float, default=1.0)
    parser.add_argument("--ear-range", type=float, nargs=2, default=(0.18, 0.38))
    parser.add_argument("--mar-range", type=float, nargs=2, default=(0.30, 0.50))
    parser.add_argument("--calib-window", type=float, default=6.0)
    args = parser.parse_args()

    try:
        # compare's own check of --calib-duration, made before any stream is written
        CalibrationConfig(duration_s=args.calib_window)
        os.makedirs(args.outdir, exist_ok=True)
        template = tuple(
            ev for ev in SESSION_TEMPLATE if ev.start_t + ev.length_s <= args.duration
        )
        population = generate_population(
            args.drivers,
            tuple(args.ear_range),
            tuple(args.mar_range),
            template,
            seed=args.seed,
            duration_s=args.duration,
            noise_sigma=args.noise_sigma,
        )
        # the generator checks its arguments and each driver's script before it yields
        for i, (script, frames, truth) in enumerate(population):
            stem = os.path.join(args.outdir, f"driver{i:02d}")
            with open(stem + ".frames.jsonl", "w") as sink:
                dio.write_frames(sink, frames)
            with open(stem + ".labels.jsonl", "w") as sink:
                dio.write_labels(sink, truth.labels)
            print(
                f"driver {i:02d}: baseline ear={script.driver.baseline_ear:.3f} "
                f"mar={script.driver.baseline_mar:.3f}",
                file=sys.stderr,
            )
    except DrowsyError as exc:
        print(f"drowsy: {exc}", file=sys.stderr)
        return 1

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = cli.main(
            ["compare", "--input", args.outdir, "--calib-duration", repr(args.calib_window),
             "--json", os.path.join(args.outdir, "report.json")]
        )
    if code != 0:
        return code
    text = report.getvalue()
    with open(os.path.join(args.outdir, "report.txt"), "w") as sink:
        sink.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
