import io as stdio
import json
import math
import random
from dataclasses import replace

import pytest

import drowsy.eval
from drowsy.calibration import calibrate, generalized_profile
from drowsy.errors import EvalError, MissingLabelError
from drowsy.eval import (
    CHANNEL_EYE,
    CHANNEL_MOUTH,
    CHANNELS,
    ComparisonReport,
    ConfusionMatrix,
    accuracy,
    aggregate,
    channel_eval_doc,
    compare,
    confusion,
    evaluate_channel,
    population_doc,
    render_population,
    render_report,
    report_doc,
)
from drowsy import io as dio
from drowsy.io import quantize_ms
from drowsy.landmarks import MAX_SECONDS
from drowsy.metrics import PerclosWindow, samples_from_frames
from drowsy.pipeline import ChannelState, PipelineConfig, run_session
from drowsy.synth import DriverParams, FrameLabel, ScriptEvent, SessionScript, generate


def lab(t, eye=False, mouth=False, face=True):
    return FrameLabel(
        t=t,
        face_present=face,
        eye_closed=eye if face else None,
        mouth_yawn=mouth if face else None,
        head_down=False if face else None,
    )


class TestAccuracy:
    def test_worked_example(self):
        assert accuracy(ConfusionMatrix(tp=50, tn=45, fp=3, fn=2)) == 95.0

    def test_perfect_classifier(self):
        assert accuracy(ConfusionMatrix(tp=7, tn=13, fp=0, fn=0)) == 100.0

    def test_empty_matrix_undefined(self):
        with pytest.raises(EvalError):
            accuracy(ConfusionMatrix(0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(EvalError):
            ConfusionMatrix(tp=-1, tn=0, fp=0, fn=0)


class TestConfusion:
    def test_identity_predictions(self):
        labels = [lab(i * 0.1, eye=i % 3 == 0) for i in range(30)]
        matrix, excluded = confusion(labels, labels, CHANNEL_EYE)
        assert matrix.fp == 0 and matrix.fn == 0
        assert excluded == 0
        assert matrix.total == 30

    def test_inverted_predictions(self):
        labels = [lab(i * 0.1, eye=i % 2 == 0) for i in range(30)]
        preds = [lab(i * 0.1, eye=i % 2 == 1) for i in range(30)]
        matrix, _ = confusion(preds, labels, CHANNEL_EYE)
        assert matrix.tp == 0 and matrix.tn == 0
        assert matrix.fp + matrix.fn == 30

    def test_hand_counted_ten_frames(self):
        truth = [False, False, True, True, True, False, False, True, False, False]
        guess = [False, True, True, True, False, False, False, True, False, False]
        labels = [lab(i * 0.1, eye=v) for i, v in enumerate(truth)]
        preds = [lab(i * 0.1, eye=v) for i, v in enumerate(guess)]
        matrix, excluded = confusion(preds, labels, CHANNEL_EYE)
        # counted by hand: tp frames 2,3,7; fn frame 4; fp frame 1; tn the rest
        assert matrix == ConfusionMatrix(tp=3, tn=5, fp=1, fn=1)
        assert excluded == 0
        assert accuracy(matrix) == 80.0

    def test_brute_force_recount_oracle(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randrange(5, 120)
            labels = [lab(i * 0.04, eye=rng.random() < 0.3) for i in range(n)]
            preds = [lab(i * 0.04, eye=rng.random() < 0.3) for i in range(n)]
            matrix, _ = confusion(preds, labels, CHANNEL_EYE)
            correct = sum(
                1 for p, l in zip(preds, labels) if p.eye_closed == l.eye_closed
            )
            assert matrix.total == n
            assert accuracy(matrix) == 100.0 * correct / n

    def test_permutation_invariance(self):
        rng = random.Random(4)
        labels = [lab(i * 0.05, eye=rng.random() < 0.4) for i in range(60)]
        preds = [lab(i * 0.05, eye=rng.random() < 0.4) for i in range(60)]
        base = accuracy(confusion(preds, labels, CHANNEL_EYE)[0])
        order = list(range(60))
        for _ in range(20):
            rng.shuffle(order)
            shuffled_p = [preds[i] for i in order]
            shuffled_l = [labels[i] for i in order]
            assert accuracy(confusion(shuffled_p, shuffled_l, CHANNEL_EYE)[0]) == base

    def test_no_face_labels_excluded_and_reported(self):
        labels = [lab(0.0), lab(0.1, face=False), lab(0.2, eye=True)]
        preds = [lab(0.0), lab(0.1, face=False), lab(0.2, eye=True)]
        matrix, excluded = confusion(preds, labels, CHANNEL_EYE)
        assert excluded == 1
        assert matrix.total == 2

    def test_length_mismatch(self):
        with pytest.raises(EvalError):
            confusion([lab(0.0)], [lab(0.0), lab(0.1)], CHANNEL_EYE)

    def test_timestamp_mismatch(self):
        with pytest.raises(EvalError):
            confusion([lab(0.0)], [lab(0.5)], CHANNEL_EYE)

    def test_unknown_channel(self):
        with pytest.raises(EvalError):
            confusion([], [], "eyebrow")


def driver_session(baseline_ear=0.20, baseline_mar=0.40, seed=8, noise=0.0):
    script = SessionScript(
        fps=30.0,
        duration_s=40.0,
        driver=DriverParams(baseline_ear, baseline_mar, 0.55, 200.0),
        events=(
            ScriptEvent("sustained_closure", 12.0, 2.0, 1.0),
            ScriptEvent("yawn", 20.0, 2.0, 1.0),
            ScriptEvent("dropout", 30.0, 1.0, 1.0),
        ),
        noise_sigma=noise,
        seed=seed,
    )
    return generate(script)


def personalized_for(frames):
    head = [f for f in frames if f.t <= 6.0]
    return calibrate(samples_from_frames(head))


class TestCompare:
    def test_personalized_beats_generalized_for_low_baseline_driver(self):
        frames, truth = driver_session(baseline_ear=0.20)
        personalized = personalized_for(frames)
        report = compare(frames, truth.labels, personalized, generalized_profile())
        gen_eye = report.methods["generalized"][CHANNEL_EYE].accuracy
        per_eye = report.methods["personalized"][CHANNEL_EYE].accuracy
        # 0.20 baseline sits under the fixed 0.21 threshold: every open frame
        # is miscalled by the generalized method
        assert gen_eye < 10.0
        assert per_eye > 95.0
        assert per_eye > gen_eye

    def test_external_equal_to_labels_scores_100(self):
        frames, truth = driver_session(baseline_ear=0.30)
        personalized = personalized_for(frames)
        states = {
            quantize_ms(l.t): (l.eye_closed, l.mouth_yawn)
            for l in truth.labels
            if l.face_present
        }
        report = compare(
            frames, truth.labels, personalized, generalized_profile(), external_states=states
        )
        ext = report.methods["external"]
        assert ext[CHANNEL_EYE].accuracy == 100.0
        assert ext[CHANNEL_MOUTH].accuracy == 100.0
        assert report_doc(report)["methods"]["external"]["approach"] == "learning-based"

    def test_external_equal_to_personalized_decisions_matches_column(self):
        frames, truth = driver_session(baseline_ear=0.30)
        personalized = personalized_for(frames)
        decisions = run_session(frames, personalized).records
        states = {
            quantize_ms(r.t): (r.eye_closed, r.mouth_yawn)
            for r in decisions
            if r.face_present
        }
        report = compare(
            frames, truth.labels, personalized, generalized_profile(), external_states=states
        )
        for ch in (CHANNEL_EYE, CHANNEL_MOUTH):
            assert report.methods["external"][ch] == report.methods["personalized"][ch]

    def test_excluded_dropout_frames_reported(self):
        frames, truth = driver_session()
        personalized = personalized_for(frames)
        report = compare(frames, truth.labels, personalized, generalized_profile())
        ev = report.methods["personalized"][CHANNEL_EYE]
        assert ev.excluded == 30
        assert ev.matrix.total == len(frames) - 30

    def test_report_rendering_and_doc(self):
        frames, truth = driver_session()
        personalized = personalized_for(frames)
        report = compare(frames, truth.labels, personalized, generalized_profile())
        text = render_report(report)
        assert "Eye state detection" in text
        assert "Yawning detection" in text
        assert "personalized" in text and "generalized" in text
        doc = report_doc(report)
        assert doc["methods"]["personalized"]["channels"]["eye"]["matrix"]["tp"] >= 0
        internal = doc["methods"]["generalized"]["channels"]["mouth"]
        m = internal["matrix"]
        recomputed = 100.0 * (m["tp"] + m["tn"]) / (m["tp"] + m["tn"] + m["fp"] + m["fn"])
        assert internal["accuracy"] == recomputed


def reference_compare(frames, labels, personalized, generalized, external_states, config):
    """Each method's own pipeline run, scored per channel."""
    runs = [("generalized", generalized, None), ("personalized", personalized, None)]
    if external_states is not None:
        runs.append(("external", personalized, external_states))
    methods = {}
    for method, profile, external in runs:
        records = run_session(frames, profile, config, external=external).records
        methods[method] = {ch: evaluate_channel(records, labels, ch) for ch in CHANNELS}
    return ComparisonReport(methods=methods, frames=len(frames))


def flipped_states(labels, seed, rate=0.1):
    """External states equal to the labels except for seeded flips."""
    rng = random.Random(seed)
    states = {}
    for l in labels:
        if l.face_present:
            flip_eye, flip_mouth = rng.random() < rate, rng.random() < rate
            states[quantize_ms(l.t)] = (l.eye_closed != flip_eye, l.mouth_yawn != flip_mouth)
    return states


class TestCompareReference:
    @pytest.mark.parametrize(
        "seed, baseline_ear, config",
        [
            (3, 0.20, None),
            (4, 0.27, PipelineConfig(buffer_capacity=4)),
            (5, 0.34, PipelineConfig(buffer_capacity=1, rearm_frames=0)),
        ],
    )
    def test_equals_one_pipeline_run_per_method(self, seed, baseline_ear, config):
        frames, truth = driver_session(baseline_ear=baseline_ear, seed=seed, noise=0.8)
        # a label that sees a face where the detector dropped out stays excluded
        labels = list(truth.labels)
        i = next(i for i, f in enumerate(frames) if not f.face_present)
        labels[i] = lab(labels[i].t)
        personalized = personalized_for(frames)
        for states in (flipped_states(labels, seed), None):
            args = (frames, labels, personalized, generalized_profile(), states, config)
            assert compare(*args) == reference_compare(*args)

    def test_missing_external_state_raises_for_the_same_frame(self):
        frames, truth = driver_session(baseline_ear=0.27, seed=6, noise=0.8)
        personalized = personalized_for(frames)
        states = flipped_states(truth.labels, 6)
        del states[quantize_ms(frames[400].t)]
        with pytest.raises(MissingLabelError) as full:
            run_session(frames, personalized, external=states)
        with pytest.raises(MissingLabelError) as err:
            compare(frames, truth.labels, personalized, generalized_profile(), states)
        assert err.value.t == full.value.t == frames[400].t


class TestCompareErrorPrecedence:
    """With several faults, compare reports the one a run per method reports first."""

    def inputs(self):
        frames, truth = driver_session(baseline_ear=0.27, seed=6, noise=0.8)
        states = flipped_states(truth.labels, 6)
        del states[quantize_ms(frames[400].t)]
        return frames, list(truth.labels), personalized_for(frames), states

    def test_misaligned_labels_before_missing_state(self):
        # half a second apart is a different key; so is one millisecond
        for offset in (0.5, 0.001):
            frames, labels, personalized, states = self.inputs()
            labels[700] = lab(labels[700].t + offset)
            with pytest.raises(EvalError) as err:
                compare(frames, labels, personalized, generalized_profile(), states)
            assert str(err.value) == (
                f"timestamp mismatch: prediction t={frames[700].t:.3f} "
                f"vs label t={labels[700].t:.3f}"
            )

    def test_length_mismatch_before_missing_state(self):
        frames, labels, personalized, states = self.inputs()
        with pytest.raises(EvalError) as err:
            compare(frames, labels[:-1], personalized, generalized_profile(), states)
        assert str(err.value) == (
            f"stream length mismatch: {len(frames)} predictions vs {len(frames) - 1} labels"
        )

    def test_empty_matrix_before_missing_state(self):
        # every label faceless: the generalized method, scored first, has an
        # empty matrix before the external method looks up its first state
        frames, labels, personalized, states = self.inputs()
        labels = [lab(l.t, face=False) for l in labels]
        with pytest.raises(EvalError) as err:
            compare(frames, labels, personalized, generalized_profile(), states)
        assert str(err.value) == "accuracy undefined for an empty matrix"

    def test_label_time_within_the_same_millisecond_aligns(self):
        frames, labels, personalized, _ = self.inputs()
        states = flipped_states(labels, 6)
        shifted = list(labels)
        for i in (0, 400, 700, len(labels) - 1):
            shifted[i] = replace(labels[i], t=labels[i].t + 0.0002)
            assert shifted[i].t != frames[i].t
            assert quantize_ms(shifted[i].t) == quantize_ms(frames[i].t)
        args = (personalized, generalized_profile(), states)
        assert compare(frames, shifted, *args) == compare(frames, labels, *args)

    def test_missing_state_alone(self):
        frames, labels, personalized, states = self.inputs()
        with pytest.raises(MissingLabelError) as err:
            compare(frames, labels, personalized, generalized_profile(), states)
        assert err.value.t == frames[400].t


# times with no millisecond key: round(t * 1000) is undefined or overflows
NO_KEY = [math.nan, math.inf, -math.inf, 2 * MAX_SECONDS, -2 * MAX_SECONDS]


@pytest.mark.parametrize("t", NO_KEY, ids=repr)
@pytest.mark.parametrize("side", ["prediction", "label", "both"])
def test_confusion_refuses_a_time_without_millisecond_key(t, side):
    good, bad = [lab(0.0), lab(0.1)], [lab(0.0), lab(t)]
    preds = bad if side in ("prediction", "both") else good
    labels = bad if side in ("label", "both") else good
    with pytest.raises(EvalError) as err:
        confusion(preds, labels, CHANNEL_EYE)
    # with the same time on both sides, the prediction is named
    named = "label" if side == "label" else "prediction"
    assert str(err.value) == f"{named} t={t!r} has no millisecond key"


@pytest.mark.parametrize("t", NO_KEY, ids=repr)
def test_compare_refuses_a_label_time_without_millisecond_key(t):
    # A prediction's time is its frame's, which LandmarkFrame and the
    # pipeline's own key refuse before the run ends; a label's is checked
    # in the alignment, so the fault ranks with a timestamp mismatch.
    frames, truth = driver_session()
    labels = list(truth.labels)
    labels[700] = replace(labels[700], t=t)
    with pytest.raises(EvalError) as err:
        compare(frames, labels, personalized_for(frames), generalized_profile())
    assert str(err.value) == f"label t={t!r} has no millisecond key"
    with pytest.raises(EvalError, match="stream length mismatch"):
        compare(frames, labels[:-1], personalized_for(frames), generalized_profile())


def test_compare_calls_run_session_once_with_every_frame(monkeypatch):
    # The benchmark's population-compare latency probe wraps the first
    # argument of drowsy.eval.run_session; splitting this call, or stepping
    # a frame that does not pass through that argument, would blank or
    # distort its figures.
    frames, truth = driver_session()
    personalized = personalized_for(frames)
    calls = []
    seen = []

    def spy(stepped, *args, **kwargs):
        calls.append(kwargs)

        def through(frames):
            for frame in frames:
                seen.append(frame)
                yield frame

        return run_session(through(stepped), *args, **kwargs)

    monkeypatch.setattr(drowsy.eval, "run_session", spy)
    states = flipped_states(truth.labels, 2)
    compare(frames, truth.labels, personalized, generalized_profile(), states)
    assert len(calls) == 1
    assert len(seen) == len(frames)
    assert all(got is given for got, given in zip(seen, frames))
    assert calls[0]["alarms"] is False


def test_compare_advances_no_channel_and_feeds_no_perclos_window(monkeypatch):
    frames, truth = driver_session(baseline_ear=0.27, seed=6, noise=0.8)
    personalized = personalized_for(frames)
    states = flipped_states(truth.labels, 6)
    args = (frames, truth.labels, personalized, generalized_profile(), states)
    expected = compare(*args)

    def alarm_stage(*args, **kwargs):
        raise AssertionError("compare reached the alarm stage")

    monkeypatch.setattr(ChannelState, "advance", alarm_stage)
    monkeypatch.setattr(PerclosWindow, "append", alarm_stage)
    with pytest.raises(AssertionError, match="alarm stage"):
        run_session(frames, personalized)  # the patches do reach a run with alarms
    assert compare(*args) == expected


class TestAggregate:
    def test_population_means_and_pooled_counts(self):
        reports = []
        for baseline in (0.20, 0.28, 0.36):
            frames, truth = driver_session(baseline_ear=baseline)
            personalized = personalized_for(frames)
            reports.append(compare(frames, truth.labels, personalized, generalized_profile()))
        agg = aggregate(reports)
        assert len(agg.reports) == 3
        per_eye = [r.methods["personalized"][CHANNEL_EYE].accuracy for r in reports]
        assert agg.mean_accuracy["personalized"][CHANNEL_EYE] == sum(per_eye) / 3.0
        pooled = agg.pooled["personalized"][CHANNEL_EYE].matrix
        assert pooled.total == sum(
            r.methods["personalized"][CHANNEL_EYE].matrix.total for r in reports
        )
        text = render_population(agg)
        assert "3 drivers" in text
        doc = population_doc(agg)
        assert len(doc["per_driver"]) == 3

    def test_empty_aggregate_rejected(self):
        with pytest.raises(EvalError):
            aggregate([])

    @pytest.mark.parametrize("external_first", [True, False])
    def test_mixed_method_sets_rejected(self, external_first):
        # one method set per population: a missing method would raise
        # KeyError, an extra one would drop out of the means
        labels = [lab(i * 0.1, eye=i % 3 == 0) for i in range(30)]
        evals = {ch: evaluate_channel(labels, labels, ch) for ch in CHANNELS}
        two = ComparisonReport(methods={"generalized": evals, "personalized": evals}, frames=30)
        three = ComparisonReport(methods={**two.methods, "external": evals}, frames=30)
        reports = [three, two] if external_first else [two, three]
        first, second = (list(r.methods) for r in reports)
        with pytest.raises(EvalError) as err:
            aggregate(reports, ["driver00", "driver01"])
        assert str(err.value) == (
            f"reports score different methods: driver00 has {first}, driver01 has {second}"
        )
        with pytest.raises(EvalError) as err:
            aggregate(reports)
        assert str(err.value) == (
            f"reports score different methods: report 0 has {first}, report 1 has {second}"
        )

    @pytest.mark.parametrize("names", [["driver00"], ["driver00", "driver01", "driver02"]])
    @pytest.mark.parametrize("external_first", [True, False])
    def test_a_name_per_report_or_refused(self, names, external_first):
        # before the method check: zip would cut the list short and skip later reports
        labels = [lab(i * 0.1, eye=i % 3 == 0) for i in range(30)]
        evals = {ch: evaluate_channel(labels, labels, ch) for ch in CHANNELS}
        two = ComparisonReport(methods={"generalized": evals, "personalized": evals}, frames=30)
        three = ComparisonReport(methods={**two.methods, "external": evals}, frames=30)
        reports = [three, two] if external_first else [two, three]
        with pytest.raises(EvalError) as err:
            aggregate(reports, names)
        assert str(err.value) == f"need one name per report, got {len(names)} for 2"


def test_evaluate_channel_recalls():
    labels = [lab(i * 0.1, eye=i < 4) for i in range(10)]
    preds = [lab(i * 0.1, eye=i < 3) for i in range(10)]
    ev = evaluate_channel(preds, labels, CHANNEL_EYE)
    assert ev.recall_positive == 75.0
    assert ev.recall_negative == 100.0


@pytest.mark.parametrize("channel", ["nose", None, ["eye"]], ids=repr)
@pytest.mark.parametrize("score", [confusion, evaluate_channel])
def test_an_unknown_channel_is_refused(score, channel):
    labels = [lab(0.0), lab(0.1)]
    with pytest.raises(EvalError) as err:
        score(labels, labels, channel)
    assert str(err.value) == f"unknown channel {channel!r}"


def small_report():
    labels = [lab(i * 0.1, eye=i % 3 == 0, mouth=i % 4 == 0) for i in range(30)]
    preds = [lab(i * 0.1, eye=i % 2 == 0) for i in range(30)]
    evals = {ch: evaluate_channel(preds, labels, ch) for ch in CHANNELS}
    return ComparisonReport(methods={"generalized": evals, "personalized": evals}, frames=30)


def test_channel_document_keys_are_pinned():
    # a new ChannelEval field changes every report: make it a deliberate format change
    report = small_report()
    doc = report_doc(report)
    pooled = population_doc(aggregate([report, report]))["pooled"]
    entries = [
        *(doc["methods"][m]["channels"][ch] for m in report.methods for ch in CHANNELS),
        *(pooled[m][ch] for m in report.methods for ch in CHANNELS),
    ]
    for ch in CHANNELS:
        single = channel_eval_doc(ch, report.methods["generalized"][ch])
        assert single.pop("channel") == ch
        entries.append(single)
    for entry in entries:
        assert sorted(entry) == ["accuracy", "excluded", "matrix", "recall_negative",
                                 "recall_positive"]
        assert sorted(entry["matrix"]) == ["fn", "fp", "tn", "tp"]
    eye = doc["methods"]["generalized"]["channels"][CHANNEL_EYE]
    ev = report.methods["generalized"][CHANNEL_EYE]
    assert eye["matrix"] == {"tp": ev.matrix.tp, "tn": ev.matrix.tn, "fp": ev.matrix.fp,
                             "fn": ev.matrix.fn}
    assert (eye["accuracy"], eye["excluded"]) == (ev.accuracy, ev.excluded)


def _written(write, value):
    sink = stdio.StringIO()
    write(sink, value)
    return sink.getvalue()


DOCUMENTS = {
    "profile": lambda: _written(dio.write_profile, generalized_profile()),
    "script": lambda: _written(dio.write_script, SessionScript(
        fps=30.0, duration_s=4.0, driver=DriverParams(0.32, 0.40, 0.55, 200.0),
        events=(ScriptEvent("yawn", 1.0, 1.0, 1.0),),
    )),
    "eval": lambda: _written(dio.write_document, channel_eval_doc(
        CHANNEL_EYE, small_report().methods["generalized"][CHANNEL_EYE]
    )),
    "compare-single": lambda: _written(dio.write_document, report_doc(small_report())),
    "compare-population": lambda: _written(
        dio.write_document, population_doc(aggregate([small_report(), small_report()]))
    ),
}


@pytest.mark.parametrize("kind", DOCUMENTS)
def test_every_document_is_written_with_format_version_1_once(kind):
    text = DOCUMENTS[kind]()
    assert text.count('"format_version"') == 1
    doc = json.loads(text)
    assert doc["format_version"] == 1
    # write_document owns the envelope: a version passed in is overwritten
    assert _written(dio.write_document, {**doc, "format_version": 99}) == text
