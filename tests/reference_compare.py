"""The materialized driver scoring of `drowsy compare`, kept as an oracle.

score_driver reads a driver's profile, frames, labels and external states
whole, calibrates from the leading frames when there is no profile, and
compares over lists: the order in which it meets the faults is the error
precedence the streaming cli._score_driver keeps. The functions are copies
of the materialized cli._score_driver and eval.compare and of the helpers
they call; nothing is imported from drowsy.cli or from the eval functions
under test, only the readers, the pipeline, calibration and the report's
data classes.
"""

import sys
from collections import Counter
from contextlib import contextmanager
from itertools import takewhile
from operator import attrgetter, itemgetter

from drowsy import io as dio
from drowsy.calibration import calibrate
from drowsy.errors import EvalError, ParseError
from drowsy.eval import ChannelEval, ComparisonReport, ConfusionMatrix, accuracy
from drowsy.landmarks import quantize_ms
from drowsy.metrics import samples_from_frames
from drowsy.pipeline import external_state, run_session, threshold_states

CHANNELS = ("eye", "mouth")
_CHANNEL_STATE = {"eye": attrgetter("eye_closed"), "mouth": attrgetter("mouth_yawn")}
_PAIR_STATES = (itemgetter(0), itemgetter(1))
_UNDECIDED = (None, None)


@contextmanager
def _open_in(path):
    try:
        if path == "-":
            if hasattr(sys.stdin, "reconfigure"):
                sys.stdin.reconfigure(encoding="utf-8", errors="strict")
            yield sys.stdin
        else:
            with open(path, encoding="utf-8") as fp:
                yield fp
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def score_driver(frames_path, labels_path, profile_path, external_path, configs):
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
        # the lead-in is every frame within the calibration duration of the
        # first, on millisecond keys; read_frames keeps time order, so it is a prefix
        end = quantize_ms(frames[0].t) + quantize_ms(calibration_config.duration_s) if frames else 0
        head = takewhile(lambda f: quantize_ms(f.t) <= end, frames)
        profile = calibrate(samples_from_frames(head), calibration_config)
    return compare(
        frames,
        labels,
        personalized=profile,
        generalized=generalized,
        external_states=external,
        config=pipeline_config,
    )


def _check_aligned(predictions, labels):
    """Streams must be equal length with millisecond-aligned timestamps."""
    if len(predictions) != len(labels):
        raise EvalError(
            f"stream length mismatch: {len(predictions)} predictions vs {len(labels)} labels"
        )
    for pred, lab in zip(predictions, labels):
        # equal floats have equal keys, so only unequal times are keyed
        if pred.t != lab.t and quantize_ms(pred.t) != quantize_ms(lab.t):
            raise EvalError(f"timestamp mismatch: prediction t={pred.t:.3f} vs label t={lab.t:.3f}")


def _tally(guesses, truths):
    """Count paired (guess, truth) states of one channel; returns (matrix, excluded)."""
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


def _channel_eval(matrix, excluded):
    pos = matrix.tp + matrix.fn
    neg = matrix.tn + matrix.fp
    return ChannelEval(
        matrix=matrix,
        accuracy=accuracy(matrix),
        recall_positive=100.0 * matrix.tp / pos if pos else None,
        recall_negative=100.0 * matrix.tn / neg if neg else None,
        excluded=excluded,
    )


def _method_evals(decisions, states, truths):
    """One method's ChannelEval per channel: states[i] reads channel i from a decision."""
    return {
        ch: _channel_eval(*_tally(map(state, decisions), truth))
        for ch, state, truth in zip(CHANNELS, states, truths)
    }


def compare(frames, labels, personalized, generalized, external_states=None, config=None):
    """Score every method per channel over one pipeline run of the frames."""
    records = run_session(frames, personalized, config, alarms=False).records
    _check_aligned(records, labels)
    truths = [list(map(state, labels)) for state in _CHANNEL_STATE.values()]
    # Each method is decided and then tallied before the next is decided, so
    # an earlier method's empty matrix is raised before a later method's
    # missing external state. Faceless frames stay undecided.
    methods = {
        "generalized": _method_evals(
            [threshold_states(generalized, r.ear, r.mar) if r.face_present else _UNDECIDED
             for r in records],
            _PAIR_STATES,
            truths,
        ),
        # the run's own decisions, None on faceless records
        "personalized": _method_evals(records, _CHANNEL_STATE.values(), truths),
    }
    if external_states is not None:
        methods["external"] = _method_evals(
            [external_state(external_states, quantize_ms(r.t), r.t) if r.face_present
             else _UNDECIDED for r in records],
            _PAIR_STATES,
            truths,
        )
    return ComparisonReport(methods=methods, frames=len(frames))
