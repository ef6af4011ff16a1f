import pytest

from drowsy.errors import ScriptError
from drowsy.landmarks import to_semantic
from drowsy.metrics import compute_binocular_ear, compute_head_drop, compute_mar
from drowsy.synth import (
    DriverParams,
    ScriptEvent,
    SessionScript,
    generate,
    generate_population,
    iter_frames,
)

DRIVER = DriverParams(
    baseline_ear=0.32, baseline_mar=0.40, baseline_head_drop=0.55, inter_ocular_px=200.0
)


def script(duration=10.0, events=(), noise=0.0, seed=0, fps=30.0, driver=DRIVER):
    return SessionScript(
        fps=fps,
        duration_s=duration,
        driver=driver,
        events=tuple(events),
        noise_sigma=noise,
        seed=seed,
    )


class TestGenerate:
    def test_neutral_frames_realize_baselines(self):
        frames, truth = generate(script(duration=2.0))
        assert len(frames) == 60
        for frame in frames:
            sp = to_semantic(frame)
            assert compute_binocular_ear(sp) == pytest.approx(0.32, abs=1e-12)
            assert compute_mar(sp.mouth) == pytest.approx(0.40, abs=1e-12)
            assert compute_head_drop(sp) == pytest.approx(0.55, abs=1e-12)
        assert all(lab.face_present and not lab.eye_closed for lab in truth.labels)

    def test_blink_labels_exactly_three_frames(self):
        frames, truth = generate(
            script(events=[ScriptEvent("blink", start_t=1.0, length_s=0.1, intensity=1.0)])
        )
        closed = [lab for lab in truth.labels if lab.eye_closed]
        assert len(closed) == 3
        assert [lab.t for lab in closed] == [1.0, 1.033, 1.067]

    def test_full_closure_zeroes_ear(self):
        frames, truth = generate(
            script(events=[ScriptEvent("sustained_closure", 2.0, 1.0, 1.0)])
        )
        for frame, lab in zip(frames, truth.labels):
            ear = compute_binocular_ear(to_semantic(frame))
            if lab.eye_closed:
                assert ear == pytest.approx(0.0, abs=1e-12)
            else:
                assert ear == pytest.approx(0.32, abs=1e-12)

    def test_yawn_reaches_twice_baseline(self):
        frames, truth = generate(script(events=[ScriptEvent("yawn", 3.0, 2.0, 1.0)]))
        peak = max(compute_mar(to_semantic(f).mouth) for f in frames)
        assert peak == pytest.approx(2.0 * 0.40, abs=1e-12)
        assert sum(1 for lab in truth.labels if lab.mouth_yawn) == 60

    def test_talk_stays_below_personalized_threshold(self):
        frames, truth = generate(script(events=[ScriptEvent("talk", 1.0, 4.0, 1.0)]))
        mars = [compute_mar(to_semantic(f).mouth) for f in frames]
        assert max(mars) <= 1.3 * 0.40 + 1e-9
        assert max(mars) > 1.1 * 0.40  # it does oscillate upward
        assert not any(lab.mouth_yawn for lab in truth.labels)

    def test_head_nod_raises_drop(self):
        frames, truth = generate(script(events=[ScriptEvent("head_nod", 2.0, 1.0, 1.0)]))
        drops = [compute_head_drop(to_semantic(f)) for f in frames]
        assert max(drops) == pytest.approx(1.5 * 0.55, abs=1e-12)
        assert sum(1 for lab in truth.labels if lab.head_down) == 30

    def test_dropout_emits_faceless_frames(self):
        frames, truth = generate(script(events=[ScriptEvent("dropout", 4.0, 1.0, 1.0)]))
        faceless = [f for f in frames if not f.face_present]
        assert len(faceless) == 30
        assert all(f.points == () for f in faceless)
        assert all(
            lab.eye_closed is None for lab in truth.labels if not lab.face_present
        )

    def test_seed_determinism(self):
        s = script(events=[ScriptEvent("yawn", 3.0, 2.0, 1.0)], noise=0.8, seed=42)
        frames_a, truth_a = generate(s)
        frames_b, truth_b = generate(s)
        assert frames_a == frames_b
        assert truth_a.labels == truth_b.labels
        frames_c, _ = generate(script(events=s.events, noise=0.8, seed=43))
        assert frames_c != frames_a

    def test_metric_trajectory_round_trip(self):
        # generator and metrics modules as mutual oracles, noise-free
        events = [
            ScriptEvent("blink", 1.0, 0.1, 1.0),
            ScriptEvent("sustained_closure", 3.0, 1.0, 0.8),
            ScriptEvent("yawn", 5.0, 1.5, 1.0),
            ScriptEvent("head_nod", 7.0, 1.0, 0.6),
        ]
        frames, truth = generate(script(events=events))
        for frame, lab in zip(frames, truth.labels):
            sp = to_semantic(frame)
            expected_ear = 0.32
            if lab.eye_closed:
                active = [
                    ev for ev in events
                    if ev.kind in ("blink", "sustained_closure")
                    and ev.start_t <= frame.t < ev.start_t + ev.length_s
                ]
                expected_ear = 0.32 * min(1.0 - ev.intensity for ev in active)
            assert compute_binocular_ear(sp) == pytest.approx(expected_ear, abs=1e-9)
            if lab.head_down:
                assert compute_head_drop(sp) == pytest.approx(0.55 * 1.3, abs=1e-9)

    def test_iter_frames_matches_generate(self):
        s = script(events=[ScriptEvent("yawn", 3.0, 2.0, 1.0)], noise=0.5, seed=7)
        frames, _ = generate(s)
        assert list(iter_frames(s)) == frames


class TestScriptValidation:
    def test_event_outside_duration(self):
        with pytest.raises(ScriptError):
            script(duration=5.0, events=[ScriptEvent("yawn", 4.5, 1.0, 1.0)])

    def test_unknown_kind(self):
        with pytest.raises(ScriptError):
            script(events=[ScriptEvent("sneeze", 1.0, 1.0, 1.0)])

    def test_intensity_range(self):
        with pytest.raises(ScriptError):
            script(events=[ScriptEvent("blink", 1.0, 0.1, 1.5)])

    def test_non_positive_fps(self):
        with pytest.raises(ScriptError):
            script(fps=0.0)

    def test_frame_count_overflow(self):
        with pytest.raises(ScriptError, match="frame count"):
            script(fps=1e200, duration=1e200)

    def test_frame_time_without_millisecond_key(self):
        # 100 frames, but frame 2 onward lies past the largest keyed time
        with pytest.raises(ScriptError, match="frame times must be at most"):
            script(fps=1e-305, duration=1e307)
        # frame 99 at 9.9e304 s still has a key
        assert script(fps=1e-303, duration=1e305).frame_count == 100

    def test_non_positive_baseline(self):
        with pytest.raises(ScriptError):
            script(driver=DriverParams(0.0, 0.4, 0.5))
        with pytest.raises(ScriptError, match="baseline head drop cannot be negative"):
            script(driver=DriverParams(0.3, 0.4, -0.1))

    def test_negative_noise(self):
        with pytest.raises(ScriptError, match="noise_sigma cannot be negative"):
            script(noise=-0.1)


class TestPopulation:
    TEMPLATE = (ScriptEvent("yawn", 5.0, 1.0, 1.0),)

    def test_degenerate_range_collapses(self):
        (s, frames, truth), = list(
            generate_population(1, (0.3, 0.3), (0.4, 0.4), self.TEMPLATE, seed=1, duration_s=8.0)
        )
        assert s.driver.baseline_ear == 0.3
        assert s.driver.baseline_mar == 0.4

    def test_baselines_within_ranges(self):
        pop = list(
            generate_population(
                20, (0.18, 0.38), (0.30, 0.50), self.TEMPLATE, seed=5, duration_s=8.0
            )
        )
        assert len(pop) == 20
        for s, frames, truth in pop:
            assert 0.18 <= s.driver.baseline_ear <= 0.38
            assert 0.30 <= s.driver.baseline_mar <= 0.50
            assert s.events == self.TEMPLATE
        assert len({s.driver.baseline_ear for s, _, _ in pop}) == 20

    def test_fixed_seed_reproducible(self):
        def draw():
            return [
                (s.driver, f[0].points if f else None)
                for s, f, _ in generate_population(
                    5, (0.2, 0.4), (0.3, 0.5), self.TEMPLATE, seed=11, duration_s=8.0,
                    noise_sigma=0.5,
                )
            ]

        assert draw() == draw()

    def test_empty_range_rejected(self):
        with pytest.raises(ScriptError):
            list(generate_population(3, (0.4, 0.2), (0.3, 0.5), self.TEMPLATE, seed=1))

    def test_non_positive_range_rejected(self):
        with pytest.raises(ScriptError, match="baseline EAR range must be positive"):
            list(generate_population(3, (0.0, 0.2), (0.3, 0.5), self.TEMPLATE, seed=1))
        with pytest.raises(ScriptError, match="baseline MAR range must be positive"):
            list(generate_population(3, (0.2, 0.4), (-0.1, 0.5), self.TEMPLATE, seed=1))

    def test_population_size_validated(self):
        with pytest.raises(ScriptError):
            list(generate_population(0, (0.2, 0.4), (0.3, 0.5), self.TEMPLATE, seed=1))
