#!/usr/bin/env python3
"""The drowsy benchmark: end-to-end metrics per workload, per-layer on request.

Run from the repository root; the program is imported from ./src:

    python3 bench/run.py                                 # every workload
    python3 bench/run.py --workload stream-semantic --seed 1 --seconds 20 --trace 0

Each workload repeats its set-up SETUP_REPEATS times (setup_s is their
median), checks the program against an oracle, then runs closed-loop passes
over the same generated input for --seconds, checking every pass.
frames_per_s and cpu_us_per_frame are medians over passes. The latency
percentiles are taken over the frame intervals after replacing each
interval by its median across the passes (see workloads.interval_medians).
All timed figures are scaled to a reference machine (see reference.py).

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run
(half of --seconds untraced, half traced, for the overhead). A table with
sample counts goes before that line, and the whole result, with workload,
seed, frame count, Python version, nproc and the raw figures, goes to
.bench_work/BENCH_<workload>[.trace].json. The exit code is 1 when any
correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(BENCH, "expected.json")

#: End-to-end metrics: name -> unit. failed_frac is printed beside them; the
#: result line carries it as `failed` over `attempted`.
END_TO_END = {
    "frames_per_s": "1/s",
    "cpu_us_per_frame": "us",
    "frame_latency_p50_us": "us",
    "frame_latency_p99_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_program():
    sys.path.insert(0, SRC)
    try:
        import drowsy
    except ImportError as exc:
        sys.exit(f"bench: cannot import drowsy from {SRC}: {exc}")
    if not os.path.abspath(drowsy.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: drowsy imported from {drowsy.__file__}, not from {SRC}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def measure(name: str, seed: int, seconds: float, trace: bool, spec=None) -> dict:
    """Set up, check and time one workload; return the full result."""
    import workloads as wl
    from tracing import Tracer

    workload = wl.make_workload(name, seed, spec)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    tracer = Tracer() if trace else None
    setup_layers = {}
    setups = []  # (raw seconds, scale)
    plain, traced = [], []
    try:
        last_slice = reference.kernel_s(reference.SETUP_ITERATIONS)
        for rep in range(1 if trace else wl.SETUP_REPEATS):
            directory = os.path.join(workdir, f"setup{rep}")
            os.mkdir(directory)
            if tracer:
                tracer.install()
            start = time.perf_counter()
            paths = workload.setup(directory)
            raw = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
                setup_layers = {n: tracer.layers[n] for n in SETUP_LAYERS}
                tracer = Tracer()
            next_slice = reference.kernel_s(reference.SETUP_ITERATIONS)
            setups.append((raw, reference.scale(last_slice + next_slice, 2 * reference.SETUP_ITERATIONS)))
            last_slice = next_slice
            if rep + 1 < wl.SETUP_REPEATS and not trace:
                shutil.rmtree(directory)
        workload.prepare(paths, workdir)

        probe = wl.LatencyProbe()
        probe.install(*workload.probe_target)
        try:
            start = time.perf_counter()
            split = start + (seconds / 2 if trace else seconds)
            for passes, pass_tracer, until in ((plain, None, split), (traced, tracer, start + seconds)):
                while not passes or time.perf_counter() < until:
                    passes.append(_one_pass(workload, paths, probe, pass_tracer))
                if not trace:
                    break
        finally:
            probe.uninstall()
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    checks = workload.checks
    digests = {p.digest for p in passes}
    checks["every pass gives the same output"] = len(digests) == 1
    expected = _expected()
    if seed == expected["seed"]:
        checks[f"output digest equals the one recorded for seed {seed}"] = (
            digests == {expected["digests"].get(name)}
        )
    attempted = sum(p.operations for p in passes)
    failed = sum(p.failed for p in passes)
    checks["no failed operation"] = failed == 0
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "frames_per_pass": workload.frames,
        "passes": len(plain),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "digest": sorted(digests),
        "reference_iteration_s": reference.NOMINAL_ITERATION_S,
        "passes_raw": [p.raw for p in passes],
        "setups_raw": [{"s": raw, "scale": k} for raw, k in setups],
    }
    if trace:
        result["per_layer"] = _per_layer(plain, traced, setup_layers)
        result["missing_names"] = tracer.missing
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        medians = wl.interval_medians([p.intervals for p in plain])
        samples = len(medians) * len(plain)
        result["end_to_end"] = {
            "frames_per_s": (_median([p.frames / p.wall_s for p in plain]), len(plain)),
            "cpu_us_per_frame": (_median([p.cpu_s / p.frames * 1e6 for p in plain]), len(plain)),
            "frame_latency_p50_us": (wl.percentile(medians, 0.5) * 1e6, samples),
            "frame_latency_p99_us": (wl.percentile(medians, 0.99) * 1e6, samples),
            "peak_rss_mb": (peak_mb, 1),
            "setup_s": (_median([raw * k for raw, k in setups]), len(setups)),
        }
    return result


#: Layers that only the set-up runs; they are read from one traced set-up.
SETUP_LAYERS = ("synth.iter_session", "io.write_frames", "io.write_labels")


def _one_pass(workload, paths, probe, tracer):
    """Run, time and check one pass; figures exclude the reference slices.

    Traced passes take no slices inside (the tracer would charge them to
    io.read_frames), so their scale comes from longer slices around them.
    """
    import workloads as wl

    outer = reference.SLICE_ITERATIONS if tracer is None else reference.SETUP_ITERATIONS // 4
    probe.reset()
    probe.sampling = tracer is None
    probe.sample(outer)
    if tracer:
        tracer.install()
    gc_before = _gc_collections()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        result = workload.run_pass(paths)
    except RuntimeError as exc:
        # the program failed the whole pass: every operation in it failed
        print(f"bench: {exc}", file=sys.stderr)
        result = workload.failed_pass()
    finally:
        end = time.perf_counter()
        cpu_end = time.process_time()
        if tracer:
            tracer.uninstall()
    gc_count = _gc_collections() - gc_before
    probe.sample(outer)
    result.wall_s, result.cpu_s, intervals = probe.scaled(start, end, cpu, cpu_end)
    if tracer is None:
        result.intervals.extend(intervals)
    paused_wall, paused_cpu = probe.paused()
    result.raw = {
        "wall_s": end - start - paused_wall,
        "cpu_s": cpu_end - cpu - paused_cpu,
        "p50_us": wl.percentile(probe.intervals, 0.5) * 1e6,
        "p99_us": wl.percentile(probe.intervals, 0.99) * 1e6,
        "slices": len(probe.marks),
    }
    if not result.failed:
        workload.check(paths, result)
    if tracer:
        result.layers = {
            "layers": {n: (layer.calls, layer.self_s) for n, layer in tracer.layers.items()},
            "counters": dict(tracer.counters),
            "gc": gc_count,
        }
        tracer.reset()
    return result


def _per_layer(plain, traced, setup_layers) -> dict:
    """Per-layer figures of the traced pass with the median wall time."""
    import workloads as wl
    from tracing import LAYERS

    chosen = sorted(traced, key=lambda p: p.raw["wall_s"])[len(traced) // 2]
    layers = chosen.layers["layers"]
    counters = chosen.layers["counters"]
    metrics = {}
    for name in LAYERS:
        calls, self_s = layers[name]
        if name in SETUP_LAYERS:
            calls, self_s = setup_layers[name].calls, setup_layers[name].self_s
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    frames_read = layers["io.read_frames"][0]
    points = counters["io.read_frames.points"]
    metrics["io.read_frames.bytes"] = (counters["io.read_frames.bytes"], "bytes")
    metrics["io.read_frames.points"] = (points, "count")
    used = wl.ROLE_POINTS * counters["io.read_frames.face_frames"]
    metrics["landmarks.points_used_ratio"] = (used / points if points else 0.0, "ratio")
    steps = layers["pipeline.Pipeline.step"][0]
    metrics["pipeline.passes_per_frame"] = (steps / frames_read if frames_read else 0.0, "ratio")
    metrics["pipeline.alerts"] = (counters["pipeline.alerts"], "count")
    metrics["pipeline.faceless_frames"] = (counters["pipeline.faceless_frames"], "count")
    for key, value in chosen.write_bytes.items():
        metrics[key] = (value, "bytes")
    metrics["gc.collections"] = (chosen.layers["gc"], "count")
    plain_fps = _median([p.frames / p.wall_s for p in plain])
    traced_fps = _median([p.frames / p.wall_s for p in traced])
    metrics["trace.overhead_pct"] = (100.0 * (plain_fps / traced_fps - 1.0), "%")
    pass_self = sum(s for n, (_, s) in layers.items() if n not in SETUP_LAYERS)
    # layer self times are raw seconds, so they add up to the raw wall time
    wall_s = chosen.raw["wall_s"]
    metrics["trace.untraced_s"] = (wall_s - pass_self, "s")
    metrics["trace.pass_s"] = (wall_s, "s")
    return metrics


def _expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as src:
        return json.load(src)


def _print_table(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"frames/pass {result['frames_per_pass']}  passes {result['passes']}  "
          f"python {result['python']}  nproc {result['nproc']}")
    if "end_to_end" in result:
        frames = result["frames_per_pass"]
        latency = "frame intervals (of each interval's median over the passes)"
        what = {
            "frame_latency_p50_us": latency,
            "frame_latency_p99_us": latency,
            "peak_rss_mb": "process",
            "setup_s": "set-ups, median",
        }
        for name, (value, samples) in result["end_to_end"].items():
            detail = what.get(name, f"passes of {frames} frames, median")
            print(f"  {name:<22} {value:>14.4f} {END_TO_END[name]:<5} n={samples} {detail}")
    else:
        for name, (value, unit) in result["per_layer"].items():
            print(f"  {name:<44} {value:>16.6f} {unit}")
    print(f"  {'failed_frac':<22} {result['failed_frac']:>14.4f} -     "
          f"{result['failed']}/{result['attempted']} operations")
    for check, ok in result["checks"].items():
        print(f"  [{'ok' if ok else 'FAILED'}] {check}")


def _result_line(result: dict) -> str:
    if "end_to_end" in result:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, (value, _) in result["end_to_end"].items()
        }
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["per_layer"].items()}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def _run_all(args) -> int:
    """Every workload in its own process, so each gets its own peak RSS."""
    import workloads as wl

    ok = True
    for name in wl.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) if lines else "")
        sys.stderr.write(proc.stderr)
        ok = ok and proc.returncode == 0
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed passes per run, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for per-layer metrics")
    args = parser.parse_args(argv)
    _import_program()
    import workloads as wl

    if args.seed is None:
        args.seed = _expected()["seed"]
    if args.workload is None:
        return _run_all(args)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    suffix = ".trace" if args.trace else ""
    with open(os.path.join(WORK, f"BENCH_{args.workload}{suffix}.json"), "w", encoding="utf-8") as sink:
        json.dump(result, sink, indent=2)
        sink.write("\n")
    _print_table(result)
    print(_result_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
