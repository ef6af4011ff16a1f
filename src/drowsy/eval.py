"""Frame-level accuracy, confusion matrices, and the method comparison harness.

Evaluation is per frame: each frame's predicted channel state is compared
against its label. The positive class is "closed" for the eye channel and
"yawn" for the mouth channel. Frames whose label carries no face are not
classifiable and are excluded from the matrix, reported as a separate
count. Per-class recalls accompany each matrix so threshold behavior on
the rare class stays visible.

The comparison harness runs the pipeline once and decides its smoothed
metrics once per method: fixed population thresholds, personalized
thresholds, and optionally an externally supplied classifier stream. No
profile changes the smoothed metrics, so this equals one run per method.
That run skips the alarm stage, which the report never reads (see
pipeline.Pipeline), and keeps no records. compare() reads whatever frames
it is given BATCH_FRAMES at a time, and after each batch has been stepped
it scores the batch's records against the next labels: it checks their
alignment, keying a record's and a label's time only when the two floats
differ, then calls each method's decider once, in method order. A
decider returns the batch's (eye closed?, yawning?) pairs, faceless
records undecided, and its method's one tally counts them against the
labels' pairs; the report reads each channel's matrix out of it. So the
run holds one batch of frames, records and labels, and reading a batch
and scoring the one before fall on one frame per batch. The external
lookup is the only per-frame millisecond key taken after the run.
confusion() streams through the same scorer, with the predictions' own
states as its one decider, so the confusion-matrix summary has one
definition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from itertools import islice
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .calibration import CalibrationProfile
from .errors import EvalError, MissingLabelError
from .io import EYE_STATES, MOUTH_STATES
from .landmarks import MAX_SECONDS, quantize_ms
from .pipeline import PipelineConfig, external_state, run_session, threshold_states

CHANNEL_EYE = "eye"
CHANNEL_MOUTH = "mouth"
CHANNELS = (CHANNEL_EYE, CHANNEL_MOUTH)

#: the (eye closed?, yawning?) pair of a record or a label, in CHANNELS order
_PAIR = attrgetter("eye_closed", "mouth_yawn")
_STATES = {CHANNEL_EYE: EYE_STATES, CHANNEL_MOUTH: MOUTH_STATES}
_TIME = attrgetter("t")

METHOD_GENERALIZED = "generalized"
METHOD_PERSONALIZED = "personalized"
METHOD_EXTERNAL = "external"

_UNDECIDED = (None, None)

_APPROACH = {
    METHOD_GENERALIZED: "threshold-based",
    METHOD_PERSONALIZED: "threshold-based",
    METHOD_EXTERNAL: "learning-based",
}


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise EvalError("confusion counts cannot be negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def accuracy(matrix: ConfusionMatrix) -> float:
    """Correct predictions over all predictions, as a percentage."""
    if matrix.total == 0:
        raise EvalError("accuracy undefined for an empty matrix")
    return 100.0 * (matrix.tp + matrix.tn) / matrix.total


def _has_key(t: float) -> bool:
    """Whether t has a millisecond key: at most MAX_SECONDS in magnitude, so not nan or infinite."""
    return -MAX_SECONDS <= t <= MAX_SECONDS


def _alignment_fault(pred_times: list, label_times: list) -> EvalError | None:
    """The first fault of two equal-length time lists, or None when every pair aligns.

    A pair aligns when both times have a millisecond key and the keys are
    equal. Equal lists of keyed times align without a key taken; otherwise
    only unequal times are keyed, since equal floats have equal keys.
    """
    if pred_times == label_times and all(map(_has_key, pred_times)):
        return None
    for pred, lab in zip(pred_times, label_times):
        for side, t in (("prediction", pred), ("label", lab)):
            if not _has_key(t):
                return EvalError(f"{side} t={t!r} has no millisecond key")
        if pred != lab and quantize_ms(pred) != quantize_ms(lab):
            return EvalError(f"timestamp mismatch: prediction t={pred:.3f} vs label t={lab:.3f}")
    return None


def _summary(pairs: Counter, channel: str) -> tuple[ConfusionMatrix, int]:
    """The matrix and excluded count of channel over (guess, truth) counts of (eye, mouth) pairs.

    A state of None on either side has no face state and is excluded;
    otherwise a truthy state is the positive class.
    """
    i = CHANNELS.index(channel)
    tp = tn = fp = fn = excluded = 0
    for (guesses, truths), n in pairs.items():
        guess, truth = guesses[i], truths[i]
        if guess is None or truth is None:
            excluded += n
        elif guess:
            if truth:
                tp += n
            else:
                fp += n
        elif truth:
            fn += n
        else:
            tn += n
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn), excluded


@dataclass(frozen=True, slots=True)
class ChannelEval:
    """One channel's scores; its fields, the matrix nested, are the channel's report entry."""

    matrix: ConfusionMatrix
    accuracy: float
    recall_positive: float | None
    recall_negative: float | None
    excluded: int


def _channel_eval(matrix: ConfusionMatrix, excluded: int) -> ChannelEval:
    pos = matrix.tp + matrix.fn
    neg = matrix.tn + matrix.fp
    return ChannelEval(
        matrix=matrix,
        accuracy=accuracy(matrix),
        recall_positive=100.0 * matrix.tp / pos if pos else None,
        recall_negative=100.0 * matrix.tn / neg if neg else None,
        excluded=excluded,
    )


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    """One stream's scores: method -> channel -> ChannelEval, as in PopulationAggregate.pooled."""

    methods: dict[str, dict[str, ChannelEval]]
    frames: int


# Frames compare steps between two scorings: a batch is about 1.1 MB of
# 19-point frames and 27 MB of 468-point mesh frames (52.6 KB each).
BATCH_FRAMES = 512


def _batches(frames: Iterable, flush: Callable[[], None]) -> Iterator:
    """The frames, read BATCH_FRAMES at a time; flush() runs once a batch has been stepped.

    Each batch is let go before the next is read, and the flush and that
    read answer the same request for a frame.
    """
    frames = iter(frames)
    while batch := list(islice(frames, BATCH_FRAMES)):
        yield from batch
        del batch
        flush()


def _own_states(records: list) -> list:
    """The records' own state pairs: the run's decisions, or a prediction stream's."""
    return list(map(_PAIR, records))


def _thresholds(profile: CalibrationProfile) -> Callable:
    """The decider of profile's thresholds on each record's smoothed metrics."""
    def decide(records: list) -> list:
        return [threshold_states(profile, r.ear, r.mar) if r.face_present else _UNDECIDED
                for r in records]
    return decide


def _external(states: Mapping[int, tuple[bool, bool]]) -> Callable:
    """The decider of an external classifier's states; MissingLabelError names a face without one."""
    def decide(records: list) -> list:
        return [external_state(states, quantize_ms(r.t), r.t) if r.face_present else _UNDECIDED
                for r in records]
    return decide


class _Scores:
    """Running tallies: one count of (decision pair, label pair) pairs per method.

    deciders maps each method, in method order, to its decider: called once
    per batch, it returns the list of the batch's (eye closed?, yawning?)
    pairs, faceless records undecided, and the method's tally counts them
    against the labels' pairs in one update. flush() scores the records
    gathered so far against as many of the next labels and lets both go.
    After the first shortfall of labels or the first misaligned pair, a
    flush only counts; after its MissingLabelError, a method is no longer
    decided. check() counts the labels left over and raises what whole
    streams raise; report() then adds, method by method, an empty matrix
    or the method's missing state.
    """

    def __init__(self, labels: Iterable, deciders: Mapping[str, Callable]):
        self.labels = iter(labels)
        self.deciders = deciders
        self.counts = {method: Counter() for method in deciders}
        self.records: list = []
        self.frames = self.labelled = 0
        self.misaligned: EvalError | None = None
        self.missing: dict[str, MissingLabelError] = {}

    def flush(self) -> None:
        records = self.records
        labels = list(islice(self.labels, len(records)))
        self.frames += len(records)
        self.labelled += len(labels)
        if self.misaligned is None and self.labelled == self.frames:
            self.misaligned = _alignment_fault(list(map(_TIME, records)), list(map(_TIME, labels)))
            if self.misaligned is None:
                self._score(records, labels)
        records.clear()

    def _score(self, records: list, labels: list) -> None:
        truths = list(map(_PAIR, labels))
        for method, decide in self.deciders.items():
            if method in self.missing:
                continue
            try:
                self.counts[method].update(zip(decide(records), truths))
            except MissingLabelError as exc:
                self.missing[method] = exc

    def check(self) -> None:
        self.labelled += sum(1 for _ in self.labels)
        if self.labelled != self.frames:
            raise EvalError(
                f"stream length mismatch: {self.frames} predictions vs {self.labelled} labels"
            )
        if self.misaligned is not None:
            raise self.misaligned

    def report(self) -> ComparisonReport:
        self.check()
        # Method by method, so an earlier method's empty matrix is raised
        # before a later method's missing external state.
        methods = {}
        for method, counts in self.counts.items():
            if method in self.missing:
                raise self.missing[method]
            methods[method] = {ch: _channel_eval(*_summary(counts, ch)) for ch in CHANNELS}
        return ComparisonReport(methods=methods, frames=self.frames)


def confusion(
    predictions: Iterable, labels: Iterable, channel: str
) -> tuple[ConfusionMatrix, int]:
    """Count one channel's frame-level agreement; returns (matrix, excluded).

    Streams must be equal length with millisecond-aligned timestamps. Both
    are read BATCH_FRAMES at a time through compare's scorer, with the
    predictions' own states as its one decider. Excluded frames are those
    without a labeled (or predicted) face state.
    """
    if channel not in CHANNELS:
        raise EvalError(f"unknown channel {channel!r}")
    scores = _Scores(labels, {"predictions": _own_states})
    append = scores.records.append
    for prediction in _batches(predictions, scores.flush):
        append(prediction)
    scores.check()
    return _summary(scores.counts["predictions"], channel)


def evaluate_channel(predictions: Iterable, labels: Iterable, channel: str) -> ChannelEval:
    """One channel's scores of predictions against labels, both read as confusion() reads them."""
    return _channel_eval(*confusion(predictions, labels, channel))


def compare(
    frames: Iterable,
    labels: Iterable,
    personalized: CalibrationProfile,
    generalized: CalibrationProfile,
    external_states: Mapping[int, tuple[bool, bool]] | None = None,
    config: PipelineConfig | None = None,
) -> ComparisonReport:
    """Score every method per channel over one pipeline run of the frames.

    Frames are read BATCH_FRAMES at a time, and each batch's records are
    scored once it has been stepped; labels are read as records are
    scored. Errors are those of one run per method over the whole streams,
    in this order: the run's refusals, a length mismatch, the first
    misaligned pair, then method by method an empty matrix (EvalError) or,
    for external states, MissingLabelError for the first frame without one.
    """
    deciders = {METHOD_GENERALIZED: _thresholds(generalized), METHOD_PERSONALIZED: _own_states}
    if external_states is not None:
        deciders[METHOD_EXTERNAL] = _external(external_states)
    scores = _Scores(labels, deciders)
    # Keep this one run_session call: the benchmark's population-compare
    # latency probe wraps its frames argument, so each interval times a
    # frame's step, and reading a batch and scoring the one before fall on
    # one frame per batch. The report reads no alarm output, so the run
    # skips the alarm stage (see pipeline.Pipeline).
    run_session(
        _batches(frames, scores.flush), personalized, config,
        on_record=scores.records.append, collect=False, alarms=False,
    )
    return scores.report()


# --- population aggregation ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class PopulationAggregate:
    reports: list[ComparisonReport]
    mean_accuracy: dict[str, dict[str, float]]
    pooled: dict[str, dict[str, ChannelEval]]


def aggregate(
    reports: Sequence[ComparisonReport], names: Sequence[str] | None = None
) -> PopulationAggregate:
    """Mean per-driver accuracy plus pooled matrices across a population.

    Every report must score the same methods; otherwise EvalError names the
    first report and the first one that differs from it, by `names` (one
    per report, such as the driver stems; EvalError if the counts differ)
    or else as "report <index>".
    """
    if not reports:
        raise EvalError("cannot aggregate zero reports")
    if names is None:
        names = [f"report {i}" for i in range(len(reports))]
    elif len(names) != len(reports):
        raise EvalError(f"need one name per report, got {len(names)} for {len(reports)}")
    method_names = list(reports[0].methods)
    for name, report in zip(names, reports):
        if report.methods.keys() != reports[0].methods.keys():
            raise EvalError(
                f"reports score different methods: {names[0]} has {method_names}, "
                f"{name} has {list(report.methods)}"
            )
    mean_accuracy: dict[str, dict[str, float]] = {}
    pooled: dict[str, dict[str, ChannelEval]] = {}
    for method in method_names:
        mean_accuracy[method] = {}
        pooled[method] = {}
        for ch in CHANNELS:
            evals = [r.methods[method][ch] for r in reports]
            mean_accuracy[method][ch] = sum(e.accuracy for e in evals) / len(evals)
            matrix = ConfusionMatrix(
                tp=sum(e.matrix.tp for e in evals),
                tn=sum(e.matrix.tn for e in evals),
                fp=sum(e.matrix.fp for e in evals),
                fn=sum(e.matrix.fn for e in evals),
            )
            pooled[method][ch] = _channel_eval(matrix, sum(e.excluded for e in evals))
    return PopulationAggregate(
        reports=list(reports),
        mean_accuracy=mean_accuracy,
        pooled=pooled,
    )


# --- rendering ------------------------------------------------------------------

_CHANNEL_TITLE = {CHANNEL_EYE: "Eye state detection", CHANNEL_MOUTH: "Yawning detection"}


def format_pct(value: float | None) -> str:
    """A percentage that may be undefined, as text: "n/a" or "12.34%"."""
    return "n/a" if value is None else f"{value:.2f}%"


def _matrix_lines(method: str, channel: str, ev: ChannelEval) -> list[str]:
    m = ev.matrix
    name = {positive: state for state, positive in _STATES[channel].items()}
    pos, neg = name[True], name[False]
    return [
        f"  {method}/{channel}: tp={m.tp} tn={m.tn} fp={m.fp} fn={m.fn} excluded={ev.excluded}",
        f"    recall[{pos}]={format_pct(ev.recall_positive)} "
        f"recall[{neg}]={format_pct(ev.recall_negative)}",
    ]


def _accuracies(methods: Mapping[str, Mapping[str, ChannelEval]]) -> dict[str, dict[str, float]]:
    return {m: {ch: evals[ch].accuracy for ch in CHANNELS} for m, evals in methods.items()}


def _accuracy_tables(column: str, accuracies: Mapping[str, Mapping[str, float]]) -> list[str]:
    """One table per channel: each method's approach and accuracy."""
    out: list[str] = []
    for ch in CHANNELS:
        out.append(_CHANNEL_TITLE[ch])
        out.append(f"  {'Method':<14} {'Approach':<17} {column:>12}")
        for method, by_channel in accuracies.items():
            out.append(f"  {method:<14} {_APPROACH[method]:<17} {by_channel[ch]:>12.2f}")
        out.append("")
    return out


def _matrix_block(title: str, methods: Mapping[str, Mapping[str, ChannelEval]]) -> list[str]:
    out = [title]
    for method, evals in methods.items():
        for ch in CHANNELS:
            out.extend(_matrix_lines(method, ch, evals[ch]))
    out.append("")
    return out


def render_report(report: ComparisonReport) -> str:
    """Plain-text comparison tables, one per channel, plus confusion details."""
    return "\n".join(
        _accuracy_tables("Accuracy (%)", _accuracies(report.methods))
        + _matrix_block("Confusion matrices", report.methods)
    )


def render_population(agg: PopulationAggregate) -> str:
    return "\n".join(
        [f"Population comparison over {len(agg.reports)} drivers (mean frame accuracy)"]
        + _accuracy_tables("Mean acc (%)", agg.mean_accuracy)
        + _matrix_block("Pooled confusion matrices", agg.pooled)
    )


def _channels_doc(evals: Mapping[str, ChannelEval]) -> dict:
    return {ch: asdict(evals[ch]) for ch in CHANNELS}


def channel_eval_doc(channel: str, ev: ChannelEval) -> dict:
    """JSON-serializable evaluation document of one channel's ChannelEval."""
    return {"channel": channel, **asdict(ev)}


def report_doc(report: ComparisonReport) -> dict:
    """JSON-serializable comparison report document."""
    return {
        "mode": "single",
        "frames": report.frames,
        "methods": {
            method: {"approach": _APPROACH[method], "channels": _channels_doc(evals)}
            for method, evals in report.methods.items()
        },
    }


def population_doc(agg: PopulationAggregate) -> dict:
    return {
        "mode": "population",
        "drivers": len(agg.reports),
        "mean_accuracy": agg.mean_accuracy,
        "pooled": {method: _channels_doc(evals) for method, evals in agg.pooled.items()},
        "per_driver": [_accuracies(r.methods) for r in agg.reports],
    }
