"""Workloads of the drowsy benchmark: seeded inputs, timed passes, checks.

Each workload runs in one single-threaded process as a closed loop: the
program asks for the next frame only after the previous frame's record and
events are written, exactly as `drowsy run` and `drowsy compare` do, since
every pass calls `drowsy.cli.main` in process. The program only ever sees
files that the benchmark generated from --seed.

  stream-semantic     a long 19-point stream through `drowsy run`; the
                      pipeline, metrics, to_semantic and the writers carry
                      the largest share here, and it is the acceptance-gate
                      path.
  stream-mesh468      the same kind of script embedded into 468-point mesh
                      frames: 25x the JSON per frame, so parsing dominates
                      and pipeline changes should not move it.
  population-compare  `drowsy compare --input DIR` over a seeded population
                      with external states and auto-calibration: three
                      decision passes per frame, no record writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import time
from array import array
from dataclasses import dataclass, field, replace
from io import StringIO

import drowsy.cli
import drowsy.eval
import drowsy.io as dio
import drowsy.synth
from drowsy.landmarks import (
    DLIB68,
    MESH468,
    POINT_COUNTS,
    SEMANTIC,
    SEMANTIC_MAP,
    LandmarkFrame,
    builtin_scheme_map,
)
from drowsy.pipeline import ALL_EVENT_KINDS, run_session
from drowsy.synth import DriverParams, ScriptEvent, SessionScript

import reference

FPS = 30.0
#: Event-free start of every stream; the stream profile is calibrated on it.
LEAD_IN_S = 10.0
#: Part of the lead-in written out as the driver's neutral recording.
NEUTRAL_S = 6.0
#: Leading frames written out as the warm-up stream.
WARMUP_FRAMES = 600
BLINK_S = 2.0 / FPS
#: Each setup is repeated this many times and setup_s is their median.
SETUP_REPEATS = 3
#: Distinct points to_semantic reads from a face frame under any builtin map.
ROLE_POINTS = len(set(
    SEMANTIC_MAP.eye_left_indices + SEMANTIC_MAP.eye_right_indices + SEMANTIC_MAP.mouth_indices
    + (SEMANTIC_MAP.nose_tip_index,) + SEMANTIC_MAP.eye_corner_indices
))

# A regular block holds one episode of every kind with at least 3 s between
# them, so smoothing lags (4 frames in, 12 frames out for a closure) and the
# 15-frame re-arm never join two episodes. Its single 2 s closure keeps
# PERCLOS under 8 % of a 30 s window. The cluster block's five closures,
# 1.5 s apart, push PERCLOS over 20 % once at the third closure; PERCLOS
# then only decays, and blocks are laid out so that no other closure comes
# within 30 s of the cluster, so perclos_high fires exactly once.
REGULAR = "regular"
CLUSTER = "cluster"
BLOCK_SHIFT_S = 1.0
BLOCKS = {
    # name: (length_s, per-event jitter_s, ((kind, offset_s, length_s), ...))
    REGULAR: (
        60.0,
        0.3,
        (
            ("blink", 5.0, BLINK_S),
            ("sustained_closure", 10.0, 2.0),
            ("blink", 17.0, BLINK_S),
            ("yawn", 20.0, 2.5),
            ("talk", 27.0, 4.0),
            ("head_nod", 35.0, 3.0),
            ("blink", 42.0, BLINK_S),
            ("dropout", 45.0, 4.0),
            ("blink", 53.0, BLINK_S),
        ),
    ),
    CLUSTER: (80.0, 0.1, tuple(("sustained_closure", 20.0 + 3.5 * i, 2.0) for i in range(5))),
}
BLOCK_ALERTS = {
    REGULAR: {"eyes_closed": 1, "yawning": 1, "head_down": 1, "driver_missing": 1},
    CLUSTER: {"eyes_closed": 5, "perclos_high": 1},
}


@dataclass(frozen=True)
class Spec:
    """What one workload generates; tests shrink these sizes."""

    kind: str  # "stream" or "compare"
    scheme: str = SEMANTIC
    layout: tuple[str, ...] = ()
    drivers: int = 0


#: Sizes chosen so one pass takes about a second on a 2-core VM, which
#: gives the per-interval medians ten or more passes in a 20 s run.
WORKLOADS = {
    "stream-semantic": Spec("stream", SEMANTIC, layout=(REGULAR,) * 6 + (CLUSTER,) + (REGULAR,) * 6),
    "stream-mesh468": Spec("stream", MESH468, layout=(CLUSTER, REGULAR)),
    "population-compare": Spec("compare", drivers=4, layout=(REGULAR,)),
}


# --- generated inputs ---------------------------------------------------------

def build_script(seed: int, layout: tuple[str, ...], driver: DriverParams) -> tuple[SessionScript, dict]:
    """Seeded session script plus the alert count each kind must reach."""
    rng = random.Random(seed)
    events = []
    expected = dict.fromkeys(ALL_EVENT_KINDS, 0)
    start = LEAD_IN_S
    for block in layout:
        length, jitter, template = BLOCKS[block]
        shift = rng.uniform(-BLOCK_SHIFT_S, BLOCK_SHIFT_S)
        for kind, offset, span in template:
            at = start + offset + shift + rng.uniform(-jitter, jitter)
            events.append(ScriptEvent(kind, round(at, 3), span, 1.0))
        for kind, n in BLOCK_ALERTS[block].items():
            expected[kind] += n
        start += length
    script = SessionScript(
        fps=FPS,
        duration_s=start,
        driver=driver,
        events=tuple(events),
        noise_sigma=0.5,
        seed=rng.randrange(2**32),
    )
    return script, expected


def stream_script(seed: int, layout: tuple[str, ...]) -> tuple[SessionScript, dict]:
    rng = random.Random(seed)
    driver = DriverParams(
        baseline_ear=rng.uniform(0.26, 0.36),
        baseline_mar=rng.uniform(0.32, 0.46),
        baseline_head_drop=0.55,
        inter_ocular_px=rng.uniform(180.0, 220.0),
    )
    return build_script(rng.randrange(2**32), layout, driver)


def role_pairs(scheme: str) -> tuple[tuple[int, int], ...]:
    """(semantic index, scheme index) for every role of the builtin map."""
    target = builtin_scheme_map(scheme)
    pairs = []
    for src, dst in (
        (SEMANTIC_MAP.eye_left_indices, target.eye_left_indices),
        (SEMANTIC_MAP.eye_right_indices, target.eye_right_indices),
        (SEMANTIC_MAP.mouth_indices, target.mouth_indices),
        ((SEMANTIC_MAP.nose_tip_index,), (target.nose_tip_index,)),
    ):
        pairs.extend(zip(src, dst))
    mapping = dict(pairs)
    # the corner roles alias eye members; the embedding is exact only if the
    # scheme map aliases the same members as the semantic map
    corners = tuple(mapping[i] for i in SEMANTIC_MAP.eye_corner_indices)
    if corners != target.eye_corner_indices:
        raise ValueError(f"{scheme} eye corners {target.eye_corner_indices} are not {corners}")
    return tuple(pairs)


def embedder(scheme: str):
    """Frame transform from the semantic scheme into `scheme`.

    Role points land on the builtin map's indices; every other index holds
    a fixed filler point, so to_semantic of the result returns exactly the
    semantic frame's points.
    """
    if scheme == SEMANTIC:
        return lambda frame: frame
    pairs = role_pairs(scheme)
    filler_rng = random.Random(POINT_COUNTS[scheme])
    filler = [
        (filler_rng.uniform(150.0, 490.0), filler_rng.uniform(120.0, 420.0))
        for _ in range(POINT_COUNTS[scheme])
    ]

    def embed(frame: LandmarkFrame) -> LandmarkFrame:
        if not frame.face_present:
            return LandmarkFrame(t=frame.t, scheme=scheme, points=(), face_present=False)
        points = list(filler)
        src = frame.points
        for s, d in pairs:
            points[d] = src[s]
        return LandmarkFrame(t=frame.t, scheme=scheme, points=tuple(points), face_present=True)

    return embed


def write_stream(directory: str, script: SessionScript, scheme: str) -> dict:
    """Write frames, labels, neutral recording and warm-up stream; return paths."""
    paths = {
        name: os.path.join(directory, f"{name}.jsonl")
        for name in ("frames", "labels", "neutral", "warmup")
    }
    embed = embedder(scheme)
    with contextlib.ExitStack() as stack:
        sinks = {name: stack.enter_context(open(p, "w", encoding="utf-8")) for name, p in paths.items()}
        for i, (frame, label) in enumerate(drowsy.synth.iter_session(script)):
            frame = embed(frame)
            dio.write_frames(sinks["frames"], [frame])
            dio.write_labels(sinks["labels"], [label])
            if frame.t < NEUTRAL_S:
                dio.write_frames(sinks["neutral"], [frame])
            if i < WARMUP_FRAMES:
                dio.write_frames(sinks["warmup"], [frame])
    return paths


def population_scripts(seed: int, drivers: int, layout: tuple[str, ...]) -> list[tuple[SessionScript, int]]:
    """Drivers with stratified baseline EAR, so some always sit below the
    generalized threshold; each comes with the seed of its external states."""
    rng = random.Random(seed)
    out = []
    for i in range(drivers):
        driver = DriverParams(
            baseline_ear=0.18 + (i + rng.random()) * 0.20 / drivers,
            baseline_mar=rng.uniform(0.30, 0.50),
            baseline_head_drop=0.55,
            inter_ocular_px=rng.uniform(180.0, 220.0),
        )
        script, _ = build_script(rng.randrange(2**32), layout, driver)
        out.append((replace(script, noise_sigma=1.0), rng.randrange(2**32)))
    return out


#: Error rates of the simulated external classifier.
EXTERNAL_EYE_FLIP = 0.03
EXTERNAL_MOUTH_FLIP = 0.01


def write_population(directory: str, scripts: list) -> list[dict]:
    """Write <stem>.frames/.labels/.external.jsonl per driver (no profiles).

    Returns, per driver, the exact accuracies external mode must score:
    external states equal the labels except for seeded flips, and the
    pipeline passes external states through unchanged.
    """
    expected = []
    for i, (script, flip_seed) in enumerate(scripts):
        stem = os.path.join(directory, f"driver{i:02d}")
        rng = random.Random(flip_seed)
        face = eye_flips = mouth_flips = 0
        with open(stem + ".frames.jsonl", "w", encoding="utf-8") as frames_out, \
                open(stem + ".labels.jsonl", "w", encoding="utf-8") as labels_out, \
                open(stem + ".external.jsonl", "w", encoding="utf-8") as external_out:
            for frame, label in drowsy.synth.iter_session(script):
                dio.write_frames(frames_out, [frame])
                dio.write_labels(labels_out, [label])
                if label.face_present:
                    face += 1
                    flip_eye = rng.random() < EXTERNAL_EYE_FLIP
                    flip_mouth = rng.random() < EXTERNAL_MOUTH_FLIP
                    eye_flips += flip_eye
                    mouth_flips += flip_mouth
                    label = replace(
                        label,
                        eye_closed=label.eye_closed ^ flip_eye,
                        mouth_yawn=label.mouth_yawn ^ flip_mouth,
                    )
                dio.write_labels(external_out, [label])
        expected.append({
            "eye": 100.0 * (face - eye_flips) / face,
            "mouth": 100.0 * (face - mouth_flips) / face,
        })
    return expected


# --- digests --------------------------------------------------------------------

def _line_digest(line: bytes) -> bytes:
    return hashlib.blake2b(line, digest_size=8).digest()


class LineDigests:
    """Text sink keeping an 8-byte digest per line and a SHA-256 of it all."""

    def __init__(self):
        self.lines = bytearray()
        self.whole = hashlib.sha256()
        self._partial = b""

    def write(self, text) -> None:
        data = text.encode("utf-8") if isinstance(text, str) else text
        self.whole.update(data)
        *done, self._partial = (self._partial + data).split(b"\n")
        for line in done:
            self.lines += _line_digest(line)

    def __len__(self) -> int:
        return len(self.lines) // 8

    @classmethod
    def of_file(cls, path: str) -> "LineDigests":
        sink = cls()
        with open(path, "rb") as src:
            for chunk in iter(lambda: src.read(1 << 20), b""):
                sink.write(chunk)
        return sink


def mismatched_lines(got: LineDigests, want: LineDigests) -> int:
    """Lines that differ, plus lines missing or extra at the end."""
    n = min(len(got), len(want))
    a, b = got.lines, want.lines
    bad = sum(a[8 * i: 8 * i + 8] != b[8 * i: 8 * i + 8] for i in range(n))
    return bad + abs(len(got) - len(want))


def output_digest(records: LineDigests, events: LineDigests) -> str:
    h = hashlib.sha256(records.whole.digest())
    h.update(events.whole.digest())
    return h.hexdigest()


def _rounded(frame: LandmarkFrame) -> LandmarkFrame:
    # the coordinates a reader gets back from write_frames' six decimals
    points = tuple((float(f"{x:.6f}"), float(f"{y:.6f}")) for x, y in frame.points)
    return LandmarkFrame(t=frame.t, scheme=SEMANTIC, points=points, face_present=frame.face_present)


def oracle(script: SessionScript, profile) -> tuple[LineDigests, LineDigests, dict]:
    """Records and events of the semantic stream, computed in memory.

    No file parsing and no scheme embedding is involved, so every stream
    workload and scheme must reproduce these lines byte for byte.
    """
    records, events = LineDigests(), LineDigests()
    result = run_session(
        (_rounded(f) for f in drowsy.synth.iter_frames(script)),
        profile,
        on_record=lambda rec: dio.write_records(records, [rec]),
        on_event=lambda ev: dio.write_events(events, [ev]),
        collect=False,
    )
    return records, events, dict(result.summary.alerts)


# --- closed-loop passes ----------------------------------------------------------

def cli(argv: list[str]) -> str:
    """Run `drowsy` in process and return its standard output.

    Raises RuntimeError when it exits non-zero.
    """
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = drowsy.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"drowsy {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class LatencyProbe:
    """Stamps each request for the next frame of a wrapped frame iterator.

    An interval runs from the pipeline requesting frame i to it requesting
    frame i+1, so it covers parsing, the step and both writes. While
    `sampling` is on, every reference.CADENCE_S the probe also runs a
    reference kernel slice between two frames, outside every interval.
    The slices cut a pass into segments; scaled() scales each segment's
    wall time, CPU time and intervals by the speed of the slices at its
    two ends, which follows the host's speed through the pass.
    """

    def __init__(self):
        self.intervals = array("d")
        self.sampling = True
        self._patch = None
        self._due = 0.0
        self.reset()

    def reset(self) -> None:
        del self.intervals[:]
        # per slice: (intervals before it, seconds per iteration,
        #             wall start, wall end, cpu start, cpu end)
        self.marks: list[tuple[int, float, float, float, float, float]] = []

    def sample(self, iterations: int = reference.SLICE_ITERATIONS) -> None:
        """Run one reference slice and mark it."""
        cpu = time.process_time()
        start = time.perf_counter()
        per_iteration = reference.kernel_s(iterations) / iterations
        end = time.perf_counter()
        self.marks.append((len(self.intervals), per_iteration, start, end, cpu, time.process_time()))
        self._due = end + reference.CADENCE_S

    def frames(self, frames):
        intervals = self.intervals
        clock = time.perf_counter
        prev = clock()
        for frame in frames:
            yield frame
            now = clock()
            intervals.append(now - prev)
            if self.sampling and now >= self._due:
                self.sample()
                now = clock()
            prev = now

    def scaled(self, start: float, end: float, cpu_start: float, cpu_end: float):
        """(wall_s, cpu_s, intervals) of a pass between a slice taken just
        before `start` and one just after `end`, scaled segment by segment."""
        wall = cpu = 0.0
        values = []
        seg_wall, seg_cpu, first = start, cpu_start, 0
        for before, after in zip(self.marks, self.marks[1:]):
            factor = reference.scale(before[1] + after[1], 2)
            wall += (min(after[2], end) - seg_wall) * factor
            cpu += (min(after[4], cpu_end) - seg_cpu) * factor
            values.extend(v * factor for v in self.intervals[first: after[0]])
            seg_wall, seg_cpu, first = after[3], after[5], after[0]
        return wall, cpu, values

    def paused(self) -> tuple[float, float]:
        """Wall and CPU seconds of the slices inside the pass."""
        inner = self.marks[1:-1]
        return sum(m[3] - m[2] for m in inner), sum(m[5] - m[4] for m in inner)

    def install(self, owner, attr: str, arg_is_frames: bool) -> None:
        original = getattr(owner, attr)
        probe = self.frames
        if arg_is_frames:
            def hooked(frames, *args, **kwargs):
                return original(probe(frames), *args, **kwargs)
        else:
            def hooked(*args, **kwargs):
                return probe(original(*args, **kwargs))
        self._patch = (owner, attr, original)
        setattr(owner, attr, hooked)

    def uninstall(self) -> None:
        if self._patch is not None:
            owner, attr, original = self._patch
            setattr(owner, attr, original)
            self._patch = None


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile of the values (0.0 when there are none)."""
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))] if values else 0.0


def interval_medians(passes: list) -> list[float]:
    """Median of each frame interval across passes over the same input.

    Every pass does the same work frame by frame, so what the program does
    at a fixed frame (a buffer flush, an alert) slows the same interval in
    every pass, while a burst of load from other tenants slows different
    frames in each pass. The median over passes keeps the first and drops
    the second, so percentiles of these medians describe the program rather
    than the host. A cyclic collection whose timing carries over from the
    previous pass lands on different frames and is dropped too; it still
    shows in frames_per_s and cpu_us_per_frame.
    """
    n = min(len(p) for p in passes)
    return [statistics.median(p[i] for p in passes) for i in range(n)]


@dataclass
class PassResult:
    """One timed pass: frames for the rates, operations for failed_frac."""

    frames: int
    operations: int
    failed: int = 0
    digest: str = ""
    # scaled to the reference machine; `raw` keeps the figures as measured
    wall_s: float = 0.0
    cpu_s: float = 0.0
    intervals: array = field(default_factory=lambda: array("d"))
    raw: dict = field(default_factory=dict)
    write_bytes: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


class Workload:
    """Set-up, oracle, pass and check of one workload; `checks` collects
    the outcome of every check that is not a count of failed operations."""

    frames = 0
    operations = 0

    def __init__(self, spec: Spec):
        self.spec = spec
        self.checks: dict[str, bool] = {}

    def note(self, check: str, ok: bool) -> None:
        self.checks[check] = self.checks.get(check, True) and ok

    def new_pass(self) -> PassResult:
        return PassResult(self.frames, self.operations)

    def failed_pass(self) -> PassResult:
        return PassResult(self.frames, self.operations, failed=self.operations, digest="failed")


class StreamWorkload(Workload):
    """`drowsy run --input F --profile P --out E --records R`, pass after pass.

    Operations are frames; a frame fails when its record line or an event
    line differs from the oracle's, or an alert kind misses its count.
    """

    probe_target = (dio, "read_frames", False)

    def __init__(self, spec: Spec, seed: int):
        super().__init__(spec)
        self.script, self.expected_alerts = stream_script(seed, spec.layout)
        self.frames = self.operations = self.script.frame_count

    def setup(self, directory: str, scheme: str | None = None) -> dict:
        paths = write_stream(directory, self.script, scheme or self.spec.scheme)
        paths["profile"] = os.path.join(directory, "profile.json")
        paths["events"] = os.path.join(directory, "events.jsonl")
        paths["records"] = os.path.join(directory, "records.jsonl")
        cli(["calibrate", "--input", paths["neutral"], "--out", paths["profile"]])
        cli(["run", "--input", paths["warmup"], "--profile", paths["profile"],
             "--out", paths["events"], "--records", paths["records"]])
        return paths

    def prepare(self, paths: dict, directory: str) -> None:
        """Compute the in-memory oracle; on a mesh stream also check dlib68."""
        with open(paths["profile"], encoding="utf-8") as src:
            profile = dio.read_profile(src)
        self.want_records, self.want_events, alerts = oracle(self.script, profile)
        self.note("oracle alerts equal the scripted episodes", alerts == self.expected_alerts)
        if self.spec.scheme != SEMANTIC:
            other = os.path.join(directory, DLIB68)
            os.mkdir(other)
            dlib_paths = self.setup(other, DLIB68)
            result = self.run_pass(dlib_paths)
            self.check(dlib_paths, result)
            self.note("dlib68 outputs equal the semantic stream", result.failed == 0)
            shutil.rmtree(other)

    def run_pass(self, paths: dict) -> PassResult:
        cli(["run", "--input", paths["frames"], "--profile", paths["profile"],
             "--out", paths["events"], "--records", paths["records"]])
        return self.new_pass()

    def check(self, paths: dict, result: PassResult) -> None:
        records = LineDigests.of_file(paths["records"])
        events = LineDigests.of_file(paths["events"])
        failed = mismatched_lines(records, self.want_records)
        failed += mismatched_lines(events, self.want_events)
        counts = dict.fromkeys(ALL_EVENT_KINDS, 0)
        with open(paths["events"], encoding="utf-8") as src:
            for line in src:
                try:
                    kind = json.loads(line).get("kind")
                except ValueError:  # already counted as a mismatched line
                    continue
                counts[kind] = counts.get(kind, 0) + 1
        failed += sum(abs(counts.get(k, 0) - n) for k, n in self.expected_alerts.items())
        result.failed = min(self.frames, failed)
        result.digest = output_digest(records, events)
        result.write_bytes = {
            "io.write_records.bytes": os.path.getsize(paths["records"]),
            "io.write_events.bytes": os.path.getsize(paths["events"]),
        }


class CompareWorkload(Workload):
    """`drowsy compare --input DIR --json REPORT` over a seeded population.

    Operations are drivers; a driver fails when its external-mode accuracy
    is not the exact value its seeded flips imply. Every driver of a pass
    fails when personalized mean eye accuracy does not beat generalized.
    """

    probe_target = (drowsy.eval, "run_session", True)

    def __init__(self, spec: Spec, seed: int):
        super().__init__(spec)
        self.scripts = population_scripts(seed, spec.drivers, spec.layout)
        self.frames = sum(script.frame_count for script, _ in self.scripts)
        self.operations = len(self.scripts)

    def setup(self, directory: str) -> dict:
        population = os.path.join(directory, "population")
        warmup = os.path.join(directory, "warmup")
        os.mkdir(population)
        os.mkdir(warmup)
        self.expected_accuracy = write_population(population, self.scripts)
        for suffix in (".frames.jsonl", ".labels.jsonl", ".external.jsonl"):
            shutil.copyfile(
                os.path.join(population, "driver00" + suffix), os.path.join(warmup, "driver00" + suffix)
            )
        report = os.path.join(directory, "report.json")
        cli(["compare", "--input", warmup, "--json", report])
        return {"population": population, "report": report}

    def prepare(self, paths: dict, directory: str) -> None:
        pass

    def run_pass(self, paths: dict) -> PassResult:
        self._text = cli(["compare", "--input", paths["population"], "--json", paths["report"]])
        return self.new_pass()

    def check(self, paths: dict, result: PassResult) -> None:
        with open(paths["report"], "rb") as src:
            raw = src.read()
        h = hashlib.sha256(raw)
        h.update(self._text.encode("utf-8"))
        result.digest = h.hexdigest()
        doc = json.loads(raw)
        per_driver = doc["per_driver"]
        failed = abs(len(per_driver) - len(self.expected_accuracy))
        for got, want in zip(per_driver, self.expected_accuracy):
            failed += got["external"] != want
        mean = doc["mean_accuracy"]
        wins = mean["personalized"]["eye"] > mean["generalized"]["eye"]
        self.note("personalized mean eye accuracy beats generalized", wins)
        result.failed = failed if wins else self.operations
        result.write_bytes = {"io.write_records.bytes": 0, "io.write_events.bytes": 0}


def make_workload(name: str, seed: int, spec: Spec | None = None) -> Workload:
    spec = spec or WORKLOADS[name]
    return (StreamWorkload if spec.kind == "stream" else CompareWorkload)(spec, seed)
