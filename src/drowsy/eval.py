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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .calibration import CalibrationProfile
from .errors import EvalError
from .io import FORMAT_VERSION
from .landmarks import quantize_ms
from .pipeline import PipelineConfig, external_state, run_session, threshold_states
from .synth import FrameLabel

CHANNEL_EYE = "eye"
CHANNEL_MOUTH = "mouth"
CHANNELS = (CHANNEL_EYE, CHANNEL_MOUTH)

_CHANNEL_ATTR = {CHANNEL_EYE: "eye_closed", CHANNEL_MOUTH: "mouth_yawn"}
_POSITIVE_NAME = {CHANNEL_EYE: "closed", CHANNEL_MOUTH: "yawn"}
_NEGATIVE_NAME = {CHANNEL_EYE: "open", CHANNEL_MOUTH: "normal"}

METHOD_GENERALIZED = "generalized"
METHOD_PERSONALIZED = "personalized"
METHOD_EXTERNAL = "external"

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


def confusion(
    predictions: Sequence, labels: Sequence, channel: str
) -> tuple[ConfusionMatrix, int]:
    """Count one channel's frame-level agreement; returns (matrix, excluded).

    Streams must be equal length with millisecond-aligned timestamps.
    Excluded frames are those without a labeled (or predicted) face state.
    """
    if channel not in _CHANNEL_ATTR:
        raise EvalError(f"unknown channel {channel!r}")
    if len(predictions) != len(labels):
        raise EvalError(
            f"stream length mismatch: {len(predictions)} predictions vs {len(labels)} labels"
        )
    attr = _CHANNEL_ATTR[channel]
    tp = tn = fp = fn = 0
    excluded = 0
    for pred, lab in zip(predictions, labels):
        if quantize_ms(pred.t) != quantize_ms(lab.t):
            raise EvalError(f"timestamp mismatch: prediction t={pred.t:.3f} vs label t={lab.t:.3f}")
        truth = getattr(lab, attr)
        guess = getattr(pred, attr)
        if truth is None or guess is None:
            excluded += 1
            continue
        if guess:
            if truth:
                tp += 1
            else:
                fp += 1
        else:
            if truth:
                fn += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn), excluded


@dataclass(frozen=True, slots=True)
class ChannelEval:
    channel: str
    matrix: ConfusionMatrix
    accuracy: float
    recall_positive: float | None
    recall_negative: float | None
    excluded: int


def _channel_eval(channel: str, matrix: ConfusionMatrix, excluded: int) -> ChannelEval:
    pos = matrix.tp + matrix.fn
    neg = matrix.tn + matrix.fp
    return ChannelEval(
        channel=channel,
        matrix=matrix,
        accuracy=accuracy(matrix),
        recall_positive=100.0 * matrix.tp / pos if pos else None,
        recall_negative=100.0 * matrix.tn / neg if neg else None,
        excluded=excluded,
    )


def evaluate_channel(predictions: Sequence, labels: Sequence, channel: str) -> ChannelEval:
    matrix, excluded = confusion(predictions, labels, channel)
    return _channel_eval(channel, matrix, excluded)


@dataclass(frozen=True, slots=True)
class MethodEval:
    method: str
    approach: str
    channels: dict[str, ChannelEval]


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    methods: dict[str, MethodEval]
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
    then MissingLabelError for the first frame without an external state.
    """
    records = run_session(frames, personalized, config).records
    deciders = {
        METHOD_GENERALIZED: lambda r: threshold_states(generalized, r.ear, r.mar),
        METHOD_PERSONALIZED: None,  # the run's own decisions
    }
    if external_states is not None:
        deciders[METHOD_EXTERNAL] = lambda r: external_state(external_states, r.t)
    methods: dict[str, MethodEval] = {}
    for method, decide in deciders.items():
        # a re-decided prediction carries only the eye/mouth states
        predictions = records if decide is None else [
            FrameLabel(r.t, True, *decide(r), None) if r.face_present else r for r in records
        ]
        channels = {ch: evaluate_channel(predictions, labels, ch) for ch in CHANNELS}
        methods[method] = MethodEval(method=method, approach=_APPROACH[method], channels=channels)
    return ComparisonReport(methods=methods, frames=len(frames))


# --- population aggregation ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class PopulationAggregate:
    drivers: int
    reports: list[ComparisonReport]
    mean_accuracy: dict[str, dict[str, float]]
    pooled: dict[str, dict[str, ChannelEval]]


def aggregate(reports: Sequence[ComparisonReport]) -> PopulationAggregate:
    """Mean per-driver accuracy plus pooled matrices across a population."""
    if not reports:
        raise EvalError("cannot aggregate zero reports")
    method_names = list(reports[0].methods)
    mean_accuracy: dict[str, dict[str, float]] = {}
    pooled: dict[str, dict[str, ChannelEval]] = {}
    for method in method_names:
        mean_accuracy[method] = {}
        pooled[method] = {}
        for ch in CHANNELS:
            evals = [r.methods[method].channels[ch] for r in reports]
            mean_accuracy[method][ch] = sum(e.accuracy for e in evals) / len(evals)
            matrix = ConfusionMatrix(
                tp=sum(e.matrix.tp for e in evals),
                tn=sum(e.matrix.tn for e in evals),
                fp=sum(e.matrix.fp for e in evals),
                fn=sum(e.matrix.fn for e in evals),
            )
            pooled[method][ch] = _channel_eval(ch, matrix, sum(e.excluded for e in evals))
    return PopulationAggregate(
        drivers=len(reports),
        reports=list(reports),
        mean_accuracy=mean_accuracy,
        pooled=pooled,
    )


# --- rendering ------------------------------------------------------------------

_CHANNEL_TITLE = {CHANNEL_EYE: "Eye state detection", CHANNEL_MOUTH: "Yawning detection"}


def _fmt_pct(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def _matrix_lines(tag: str, ev: ChannelEval) -> list[str]:
    m = ev.matrix
    pos = _POSITIVE_NAME[ev.channel]
    neg = _NEGATIVE_NAME[ev.channel]
    return [
        f"  {tag}: tp={m.tp} tn={m.tn} fp={m.fp} fn={m.fn} excluded={ev.excluded}",
        f"    recall[{pos}]={_fmt_pct(ev.recall_positive)}% "
        f"recall[{neg}]={_fmt_pct(ev.recall_negative)}%",
    ]


def render_report(report: ComparisonReport) -> str:
    """Plain-text comparison tables, one per channel, plus confusion details."""
    out: list[str] = []
    for ch in CHANNELS:
        out.append(_CHANNEL_TITLE[ch])
        out.append(f"  {'Method':<14} {'Approach':<17} {'Accuracy (%)':>12}")
        for method, ev in report.methods.items():
            out.append(
                f"  {method:<14} {ev.approach:<17} {ev.channels[ch].accuracy:>12.2f}"
            )
        out.append("")
    out.append("Confusion matrices")
    for method, ev in report.methods.items():
        for ch in CHANNELS:
            out.extend(_matrix_lines(f"{method}/{ch}", ev.channels[ch]))
    out.append("")
    return "\n".join(out)


def render_population(agg: PopulationAggregate) -> str:
    out: list[str] = [f"Population comparison over {agg.drivers} drivers (mean frame accuracy)"]
    for ch in CHANNELS:
        out.append(_CHANNEL_TITLE[ch])
        out.append(f"  {'Method':<14} {'Approach':<17} {'Mean acc (%)':>12}")
        for method in agg.mean_accuracy:
            out.append(
                f"  {method:<14} {_APPROACH[method]:<17} {agg.mean_accuracy[method][ch]:>12.2f}"
            )
        out.append("")
    out.append("Pooled confusion matrices")
    for method, channels in agg.pooled.items():
        for ch in CHANNELS:
            out.extend(_matrix_lines(f"{method}/{ch}", channels[ch]))
    out.append("")
    return "\n".join(out)


def _channel_doc(ev: ChannelEval) -> dict:
    return {
        "accuracy": ev.accuracy,
        "matrix": {"tp": ev.matrix.tp, "tn": ev.matrix.tn, "fp": ev.matrix.fp, "fn": ev.matrix.fn},
        "recall_positive": ev.recall_positive,
        "recall_negative": ev.recall_negative,
        "excluded": ev.excluded,
    }


def channel_eval_doc(ev: ChannelEval) -> dict:
    """JSON-serializable single-channel evaluation document."""
    return {"format_version": FORMAT_VERSION, "channel": ev.channel, **_channel_doc(ev)}


def report_doc(report: ComparisonReport) -> dict:
    """JSON-serializable comparison report document."""
    return {
        "format_version": FORMAT_VERSION,
        "mode": "single",
        "frames": report.frames,
        "methods": {
            method: {
                "approach": ev.approach,
                "channels": {ch: _channel_doc(ev.channels[ch]) for ch in CHANNELS},
            }
            for method, ev in report.methods.items()
        },
    }


def population_doc(agg: PopulationAggregate) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "mode": "population",
        "drivers": agg.drivers,
        "mean_accuracy": agg.mean_accuracy,
        "pooled": {
            method: {ch: _channel_doc(channels[ch]) for ch in CHANNELS}
            for method, channels in agg.pooled.items()
        },
        "per_driver": [
            {
                method: {ch: r.methods[method].channels[ch].accuracy for ch in CHANNELS}
                for method in r.methods
            }
            for r in agg.reports
        ],
    }
