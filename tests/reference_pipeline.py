"""A plain reference implementation of the documented pipeline rules.

The oracle for drowsy.pipeline.run_session: lists and loops, with no
named tuples, lookup tables, incremental sums or fast paths. It takes
nothing from the program but the builtin scheme maps, which are data. Each
rule is written once, from its documentation:

- Timestamps are keyed in integer milliseconds: round(t * 1000).
- EAR and MAR of a six-point hexagon: (|p2 - p6| + |p3 - p5|) / (2 |p1 - p4|).
  The binocular EAR is left / 2 + right / 2.
- Head drop: the nose tip's height below the mean height of the outer eye
  corners, divided by the distance between those corners.
- Smoothing: the fsum mean of the last buffer_capacity raw values, taken
  over face frames only.
- Thresholds are strict: eye closed when EAR < threshold, yawning when
  MAR > threshold, head down when head drop > limit, PERCLOS high when
  PERCLOS > limit. External states replace the first two on face frames.
- PERCLOS integrates the step function of eye states over the window: the
  samples at most the window older than the newest one. Each sample holds
  until the next one; the newest holds for one more of its preceding gap.
  Faceless samples are not monitored.
- Each channel is normal, pending from the first frame with its condition,
  or alerting once the condition has held for its sustain. It alerts once
  per episode and is normal again after rearm_frames frames without the
  condition. Faceless frames freeze the eye, mouth and head channels.
"""

import math

from drowsy.landmarks import DLIB68_MAP, MESH468_MAP, SEMANTIC_MAP

KINDS = ["eyes_closed", "yawning", "head_down", "driver_missing", "perclos_high"]

SCHEME_MAPS = {m.scheme: m for m in (SEMANTIC_MAP, DLIB68_MAP, MESH468_MAP)}


def ms(t):
    return round(t * 1000.0)


def distance(p, q):
    return math.hypot(q[0] - p[0], q[1] - p[1])


def aspect_ratio(six):
    p1, p2, p3, p4, p5, p6 = six
    return (distance(p2, p6) + distance(p3, p5)) / (2.0 * distance(p1, p4))


def raw_metrics(frame):
    """(EAR, MAR, head drop) of a face frame, read through its scheme's indices."""
    m = SCHEME_MAPS[frame.scheme]
    pts = frame.points
    left = [pts[i] for i in m.eye_left_indices]
    right = [pts[i] for i in m.eye_right_indices]
    mouth = [pts[i] for i in m.mouth_indices]
    nose = pts[m.nose_tip_index]
    ear = aspect_ratio(left) / 2.0 + aspect_ratio(right) / 2.0
    corner_l, corner_r = left[0], right[3]
    eye_level = (corner_l[1] + corner_r[1]) / 2.0
    head = (nose[1] - eye_level) / distance(corner_l, corner_r)
    return ear, aspect_ratio(mouth), head


def mean_of_last(values, n):
    last = values[-n:]
    return math.fsum(last) / len(last)


def perclos(samples, window_ms):
    """PERCLOS in percent over (t_ms, closed, monitored) samples; None when undefined."""
    newest = samples[-1][0]
    inside = [s for s in samples if s[0] >= newest - window_ms]
    if len(inside) < 2:
        return None
    monitored_ms = closed_ms = 0
    for i in range(len(inside)):
        t, closed, monitored = inside[i]
        if i + 1 < len(inside):
            held = inside[i + 1][0] - t
        else:
            held = t - inside[i - 1][0]
        if monitored:
            monitored_ms += held
            if closed:
                closed_ms += held
    if monitored_ms == 0:
        return None
    return 100.0 * closed_ms / monitored_ms


class Channel:
    def __init__(self, sustain_ms, rearm_frames):
        self.sustain_ms = sustain_ms
        self.rearm_frames = rearm_frames
        self.phase = "normal"
        self.onset_ms = None
        self.frames_without = 0

    def advance(self, condition, t_ms):
        """True when the channel alerts at this frame."""
        if self.phase == "alerting":
            if condition:
                self.frames_without = 0
            else:
                self.frames_without += 1
                if self.frames_without >= self.rearm_frames:
                    self.phase = "normal"
                    self.onset_ms = None
                    self.frames_without = 0
            return False
        if not condition:
            self.phase = "normal"
            self.onset_ms = None
            return False
        if self.phase == "normal":
            self.phase = "pending"
            self.onset_ms = t_ms
        if t_ms - self.onset_ms >= self.sustain_ms:
            self.phase = "alerting"
            return True
        return False


def reference_session(frames, profile, config, external=None):
    """Records and events as plain tuples in run_session's field order."""
    sustains = [config.sustain_eyes_s, config.sustain_mouth_s, config.sustain_head_s,
                config.sustain_presence_s, config.sustain_perclos_s]
    channels = {}
    for kind, seconds in zip(KINDS, sustains):
        channels[kind] = Channel(ms(seconds), config.rearm_frames)
    window_ms = ms(config.perclos_window_s)
    n = config.buffer_capacity
    ears, mars, heads = [], [], []
    samples = []
    records, events = [], []
    for frame in frames:
        t_ms = ms(frame.t)
        face = frame.face_present
        if face:
            raw_ear, raw_mar, raw_head = raw_metrics(frame)
            ears.append(raw_ear)
            mars.append(raw_mar)
            heads.append(raw_head)
            ear, mar, head = mean_of_last(ears, n), mean_of_last(mars, n), mean_of_last(heads, n)
            if external is None:
                eye_closed = ear < profile.ear_threshold
                yawning = mar > profile.mar_threshold
            else:
                eye_closed, yawning = external[t_ms]
            head_down = head > profile.head_drop_limit
        else:
            ear = mar = head = eye_closed = yawning = head_down = None
        samples.append((t_ms, face and eye_closed, face))
        value = perclos(samples, window_ms)

        checks = []
        if face:
            checks.append(("eyes_closed", eye_closed, ear, profile.ear_threshold))
            checks.append(("yawning", yawning, mar, profile.mar_threshold))
            checks.append(("head_down", head_down, head, profile.head_drop_limit))
        checks.append(("driver_missing", not face, None, config.sustain_presence_s))
        perclos_high = value is not None and value > config.perclos_limit
        checks.append(("perclos_high", perclos_high, value, config.perclos_limit))
        for kind, condition, evidence, threshold in checks:
            channel = channels[kind]
            if channel.advance(condition, t_ms):
                if kind == "driver_missing":  # the evidence is the time without a face
                    evidence = (t_ms - channel.onset_ms) / 1000.0
                events.append((kind, channel.onset_ms / 1000.0, t_ms / 1000.0, evidence, threshold))
        records.append(
            (frame.t, face, ear, mar, head, eye_closed, yawning, head_down, value)
        )
    return records, events
