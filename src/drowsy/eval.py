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
That run skips the alarm stage, which the report never reads (see pipeline.Pipeline).
It checks the alignment of records and labels once, and keys a record's
and a label's time only when the two floats differ. Then, one method at a
time in method order, it decides the face records in one comprehension
over threshold_states or external_state (the personalized decisions are
the run's own) and tallies that method's eye and mouth decisions, one
tally per channel. The external lookup is the only per-frame millisecond
key taken after the run. confusion() and compare() share that alignment
check and that tally, so the confusion-matrix summary has one definition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, Sequence

from .calibration import CalibrationProfile
from .errors import EvalError
from .io import EYE_STATES, MOUTH_STATES
from .landmarks import quantize_ms
from .pipeline import PipelineConfig, external_state, run_session, threshold_states

CHANNEL_EYE = "eye"
CHANNEL_MOUTH = "mouth"
CHANNELS = (CHANNEL_EYE, CHANNEL_MOUTH)

#: each channel's state on a record or a label, in CHANNELS order
_CHANNEL_STATE = {CHANNEL_EYE: attrgetter("eye_closed"), CHANNEL_MOUTH: attrgetter("mouth_yawn")}
_STATES = {CHANNEL_EYE: EYE_STATES, CHANNEL_MOUTH: MOUTH_STATES}

METHOD_GENERALIZED = "generalized"
METHOD_PERSONALIZED = "personalized"
METHOD_EXTERNAL = "external"

#: a decision is an (eye closed?, yawning?) pair, read per channel in CHANNELS order
_PAIR_STATES = (itemgetter(0), itemgetter(1))
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


def _check_aligned(predictions: Sequence, labels: Sequence) -> None:
    """Streams must be equal length with millisecond-aligned timestamps."""
    if len(predictions) != len(labels):
        raise EvalError(
            f"stream length mismatch: {len(predictions)} predictions vs {len(labels)} labels"
        )
    for pred, lab in zip(predictions, labels):
        # equal floats have equal keys, so only unequal times are keyed
        if pred.t != lab.t and quantize_ms(pred.t) != quantize_ms(lab.t):
            raise EvalError(f"timestamp mismatch: prediction t={pred.t:.3f} vs label t={lab.t:.3f}")


def _tally(guesses: Iterable, truths: Iterable) -> tuple[ConfusionMatrix, int]:
    """Count paired (guess, truth) states of one channel; returns (matrix, excluded).

    A pair with None on either side has no face state and is excluded;
    otherwise a truthy state is the positive class.
    """
    tp = tn = fp = fn = excluded = 0
    for (guess, truth), n in Counter(zip(guesses, truths)).items():
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


def confusion(
    predictions: Sequence, labels: Sequence, channel: str
) -> tuple[ConfusionMatrix, int]:
    """Count one channel's frame-level agreement; returns (matrix, excluded).

    Streams must be equal length with millisecond-aligned timestamps.
    Excluded frames are those without a labeled (or predicted) face state.
    """
    if channel not in _CHANNEL_STATE:
        raise EvalError(f"unknown channel {channel!r}")
    _check_aligned(predictions, labels)
    state = _CHANNEL_STATE[channel]
    return _tally(map(state, predictions), map(state, labels))


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


def evaluate_channel(predictions: Sequence, labels: Sequence, channel: str) -> ChannelEval:
    return _channel_eval(*confusion(predictions, labels, channel))


def _method_evals(
    decisions: Sequence, states: Iterable, truths: Sequence[list]
) -> dict[str, ChannelEval]:
    """One method's ChannelEval per channel: states[i] reads channel i from a decision."""
    return {
        ch: _channel_eval(*_tally(map(state, decisions), truth))
        for ch, state, truth in zip(CHANNELS, states, truths)
    }


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    """One stream's scores: method -> channel -> ChannelEval, as in PopulationAggregate.pooled."""

    methods: dict[str, dict[str, ChannelEval]]
    frames: int


def compare(
    frames: Sequence,
    labels: Sequence,
    personalized: CalibrationProfile,
    generalized: CalibrationProfile,
    external_states: Mapping[int, tuple[bool, bool]] | None = None,
    config: PipelineConfig | None = None,
) -> ComparisonReport:
    """Score every method per channel over one pipeline run of the frames.

    Errors are those of one run per method, in method order: metric errors,
    misaligned labels, then method by method an empty matrix (EvalError)
    or, for external states, MissingLabelError for the first frame without
    one.
    """
    # Keep this one run_session call over the materialized frame list: the
    # benchmark's population-compare latency probe wraps its frames argument,
    # so streaming parsed frames into it would time their parsing, and not
    # calling it would leave the probe's intervals empty. The report reads
    # no alarm output, so the run skips the alarm stage (see pipeline.Pipeline).
    records = run_session(frames, personalized, config, alarms=False).records
    _check_aligned(records, labels)
    truths = [list(map(state, labels)) for state in _CHANNEL_STATE.values()]
    # Each method is decided and then tallied before the next is decided, so
    # an earlier method's empty matrix is raised before a later method's
    # missing external state. Faceless frames stay undecided.
    methods = {
        METHOD_GENERALIZED: _method_evals(
            [threshold_states(generalized, r.ear, r.mar) if r.face_present else _UNDECIDED
             for r in records],
            _PAIR_STATES,
            truths,
        ),
        # the run's own decisions, None on faceless records
        METHOD_PERSONALIZED: _method_evals(records, _CHANNEL_STATE.values(), truths),
    }
    if external_states is not None:
        methods[METHOD_EXTERNAL] = _method_evals(
            [external_state(external_states, quantize_ms(r.t), r.t) if r.face_present
             else _UNDECIDED for r in records],
            _PAIR_STATES,
            truths,
        )
    return ComparisonReport(methods=methods, frames=len(frames))


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
    per report, such as the driver stems) or else as "report <index>".
    """
    if not reports:
        raise EvalError("cannot aggregate zero reports")
    if names is None:
        names = [f"report {i}" for i in range(len(reports))]
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
