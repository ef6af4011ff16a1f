#!/usr/bin/env python3
"""Generalized vs personalized thresholds over a synthetic driver population.

Generates a seeded population of drivers with individual neutral baselines,
all performing the same scripted session (blinks, one sustained closure, one
yawn, talking). Each driver is calibrated from their own neutral lead-in,
then the identical pipeline is scored per frame against ground truth under
fixed population thresholds and under the personalized thresholds.

Writes per-driver streams into OUTDIR (the layout `drowsy compare --input
OUTDIR` consumes), plus report.txt and report.json with the aggregate.
"""

import argparse
import os
import sys

from drowsy import io as dio
from drowsy.calibration import calibrate, generalized_profile
from drowsy.eval import aggregate, compare, population_doc, render_population
from drowsy.metrics import samples_from_frames
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

    os.makedirs(args.outdir, exist_ok=True)
    template = tuple(
        ev for ev in SESSION_TEMPLATE if ev.start_t + ev.length_s <= args.duration
    )
    reports = []
    population = generate_population(
        args.drivers,
        tuple(args.ear_range),
        tuple(args.mar_range),
        template,
        seed=args.seed,
        duration_s=args.duration,
        noise_sigma=args.noise_sigma,
    )
    for i, (script, frames, truth) in enumerate(population):
        stem = os.path.join(args.outdir, f"driver{i:02d}")
        with open(stem + ".frames.jsonl", "w") as sink:
            dio.write_frames(sink, frames)
        with open(stem + ".labels.jsonl", "w") as sink:
            dio.write_labels(sink, truth.labels)

        head = [f for f in frames if f.t <= args.calib_window]
        personalized = calibrate(samples_from_frames(head))
        with open(stem + ".profile.json", "w") as sink:
            dio.write_profile(sink, personalized)

        reports.append(compare(frames, truth.labels, personalized, generalized_profile()))
        print(
            f"driver {i:02d}: baseline ear={script.driver.baseline_ear:.3f} "
            f"mar={script.driver.baseline_mar:.3f} "
            f"eye acc gen/pers = "
            f"{reports[-1].methods['generalized']['eye'].accuracy:5.1f}/"
            f"{reports[-1].methods['personalized']['eye'].accuracy:5.1f}",
            file=sys.stderr,
        )

    agg = aggregate(reports)
    text = render_population(agg)
    with open(os.path.join(args.outdir, "report.txt"), "w") as sink:
        sink.write(text)
    with open(os.path.join(args.outdir, "report.json"), "w") as sink:
        dio.write_document(sink, population_doc(agg))
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
