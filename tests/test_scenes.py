from __future__ import annotations

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midisync import scenes
from midisync.scenes import (
    SceneCuts,
    SceneLogError,
    detect_scenes,
    filter_boundaries,
    parse_scene_log,
    scene_binary,
)

# Fixture text in the shape of ffmpeg's showinfo/scene-filter stderr output.
DETECTOR_LOG = """\
Input #0, mov,mp4,m4a,3gp,3g2,mj2, from 'clip.mp4':
  Duration: 00:00:30.00, start: 0.000000, bitrate: 1205 kb/s
    Stream #0:0(und): Video: h264 (High), yuv420p(tv), 1280x720, 30 fps
Stream mapping:
  Stream #0:0 -> #0:0 (h264 (native) -> wrapped_avframe (native))
[Parsed_showinfo_1 @ 0x55d1] n:   0 pts:  96096 pts_time:3.2     pos:  124 fmt:yuv420p
[Parsed_showinfo_1 @ 0x55d1] n:   1 pts: 291291 pts_time:9.7     pos: 9911 fmt:yuv420p
frame=    2 fps=0.0 q=-0.0 Lsize=N/A time=00:00:29.97 bitrate=N/A speed= 312x
"""


def test_parse_detector_log_fixture():
    cuts = parse_scene_log(DETECTOR_LOG)
    assert cuts.cut_times_s == (3.2, 9.7)
    assert cuts.video_duration_s == 30.0


def test_parse_duration_field_form():
    cuts = parse_scene_log("pts_time:1.5\npts_time:8.25\nduration=42.75\n")
    assert cuts.cut_times_s == (1.5, 8.25)
    assert cuts.video_duration_s == 42.75


def test_parse_empty_cut_list():
    cuts = parse_scene_log("Duration: 00:01:00.50\n")
    assert cuts.cut_times_s == ()
    assert cuts.video_duration_s == 60.5


def test_parse_deduplicates_and_sorts():
    cuts = parse_scene_log("pts_time:9.0\npts_time:3.0\npts_time:9.0\nduration=20\n")
    assert cuts.cut_times_s == (3.0, 9.0)


def test_parse_missing_duration_is_error():
    with pytest.raises(SceneLogError):
        parse_scene_log("pts_time:3.2\npts_time:9.7\n")


def test_parse_cut_beyond_duration_is_error():
    with pytest.raises(SceneLogError):
        parse_scene_log("pts_time:31.0\nduration=30\n")


@pytest.mark.parametrize(
    "text",
    [
        "duration=" + "9" * 400 + "\n",
        "pts_time:3.2\nduration=" + "9" * 400 + ".5\n",
        "Duration: " + "9" * 400 + ":00:00.00\n",
    ],
)
def test_parse_non_finite_duration_is_error(text):
    with pytest.raises(SceneLogError, match="not a finite number"):
        parse_scene_log(text)


def test_parse_reads_each_number_whole():
    cuts = parse_scene_log("pts_time:3e0 pos: 1\npts_time:15 pos: 2\nduration=2e1\n")
    assert cuts.cut_times_s == (3.0, 15.0)
    assert cuts.video_duration_s == 20.0


# (log text, the line of its bad field, the error it raises after "line N: ")
BAD_FIELDS = [
    ("duration=1e400\n", 1, "duration value '1e400' is not a finite number"),
    ("pts_time:2 pos: 1\nduration=30s\n", 2, "duration value '30s' is not a finite number"),
    ("duration=\n", 1, "duration value '' is not a finite number"),
    ("frame=1\n\nframe=2\nduration=30,0\n", 4, "duration value '30,0' is not a finite number"),
    ("pts_time:3.2.5 pos: 1\nduration=30\n", 1, "pts_time value '3.2.5' is not a finite number"),
    ("pts_time:1 pos: 0\npts_time:N/A pos: 1\nduration=30\n", 2,
     "pts_time value 'N/A' is not a finite number"),
    ("pts_time:3.2pos: 1\nduration=30\n", 1, "pts_time value '3.2pos:' is not a finite number"),
    ("pts_time:nan\nduration=30\n", 1, "pts_time value 'nan' is not a finite number"),
    ("duration=30\r\n\r\npts_time=inf\n", 3, "pts_time value 'inf' is not a finite number"),
    ("pts_time:-1e400\nduration=30\n", 1, "pts_time value '-1e400' is not a finite number"),
    ("pts_time:1\n  Duration: " + "9" * 400 + ":00:00.00\n", 2,
     "clip duration is not a finite number"),
]


@pytest.mark.parametrize(
    "text, line, message", BAD_FIELDS, ids=[message for *_, message in BAD_FIELDS]
)
def test_parse_rejects_a_field_that_is_not_a_whole_finite_number(text, line, message):
    with pytest.raises(SceneLogError, match=f"^line {line}: {re.escape(message)}$"):
        parse_scene_log(text)


def test_parse_skips_negative_cut_records():
    cuts = parse_scene_log("pts_time:-1.5\npts_time:-0\npts_time:-2e0\npts_time:2\nduration=10\n")
    assert cuts.cut_times_s == (2.0,)


def test_scene_cuts_validation():
    with pytest.raises(ValueError):
        SceneCuts(cut_times_s=(1.0,), video_duration_s=0.0)
    with pytest.raises(ValueError):
        SceneCuts(cut_times_s=(-1.0,), video_duration_s=10.0)
    with pytest.raises(ValueError):
        SceneCuts(cut_times_s=(10.0,), video_duration_s=10.0)


def test_filter_worked_example():
    cuts = SceneCuts(cut_times_s=(2.0, 4.5, 5.0, 10.0), video_duration_s=30.0)
    assert filter_boundaries(cuts, 4.0).times_s == (2.0, 10.0)


def test_filter_keeps_exact_gap():
    cuts = SceneCuts(cut_times_s=(0.0, 4.0), video_duration_s=10.0)
    assert filter_boundaries(cuts, 4.0).times_s == (0.0, 4.0)
    just_under = SceneCuts(cut_times_s=(0.0, 3.999), video_duration_s=10.0)
    assert filter_boundaries(just_under, 4.0).times_s == (0.0,)


def test_filter_measures_from_previous_kept():
    # 0.0 kept; 3.0 dropped; 6.0 kept (6 - 0 >= 4 even though 6 - 3 < 4)
    cuts = SceneCuts(cut_times_s=(0.0, 3.0, 6.0), video_duration_s=30.0)
    assert filter_boundaries(cuts, 4.0).times_s == (0.0, 6.0)


def test_filter_empty_and_validation():
    cuts = SceneCuts(cut_times_s=(), video_duration_s=10.0)
    assert len(filter_boundaries(cuts)) == 0
    with pytest.raises(ValueError):
        filter_boundaries(cuts, -1.0)


def random_cuts(rng: random.Random) -> SceneCuts:
    duration = rng.uniform(10.0, 120.0)
    n = rng.randint(0, 40)
    times = sorted({round(rng.uniform(0, duration - 0.001), 3) for _ in range(n)})
    return SceneCuts(cut_times_s=tuple(times), video_duration_s=duration)


def test_filter_properties_random():
    rng = random.Random(1234)
    for _ in range(200):
        cuts = random_cuts(rng)
        out = filter_boundaries(cuts, 4.0)
        times = out.times_s
        # gaps
        assert all(b - a >= 4.0 for a, b in zip(times, times[1:]))
        # subset
        assert set(times) <= set(cuts.cut_times_s)
        # idempotence: filtering the filtered list changes nothing
        again = filter_boundaries(
            SceneCuts(cut_times_s=times, video_duration_s=cuts.video_duration_s), 4.0
        )
        assert again.times_s == times
        # first cut is always kept
        if cuts.cut_times_s:
            assert times[0] == cuts.cut_times_s[0]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0, 99, allow_nan=False, allow_infinity=False), max_size=30),
    st.floats(0.5, 10.0),
)
def test_filter_properties_hypothesis(raw_times, gap):
    times = tuple(sorted({round(t, 3) for t in raw_times}))
    cuts = SceneCuts(cut_times_s=times, video_duration_s=100.0)
    out = filter_boundaries(cuts, gap).times_s
    assert all(b - a >= gap - 1e-9 for a, b in zip(out, out[1:]))
    assert set(out) <= set(times)


def test_scene_binary_env(monkeypatch):
    monkeypatch.delenv("MIDISYNC_SCENE_BIN", raising=False)
    assert scene_binary() == "ffmpeg"
    monkeypatch.setenv("MIDISYNC_SCENE_BIN", "/opt/tools/scenedetect")
    assert scene_binary() == "/opt/tools/scenedetect"


def test_detector_that_overruns_the_timeout_is_killed(tmp_path, monkeypatch):
    # exec: the child that the timeout kills is the sleep itself, which holds the pipes
    detector = tmp_path / "slow-detector"
    detector.write_text("#!/bin/sh\nexec sleep 5\n")
    detector.chmod(0o755)
    monkeypatch.setenv("MIDISYNC_SCENE_BIN", str(detector))
    monkeypatch.setattr(scenes, "DETECT_TIMEOUT_S", 0.2)
    start = time.monotonic()
    with pytest.raises(SceneLogError, match=r"^scene detector timed out after 0\.2 s$"):
        detect_scenes("clip.mp4")
    assert time.monotonic() - start < 4


@pytest.mark.parametrize(
    "script, last",
    [("exit 3", "''"), ("echo duration=30 >&2; printf 'first\\n  last  \\n\\n' >&2; exit 3", "'last'")],
)
def test_detector_that_exits_nonzero_fails_naming_its_last_stderr_line(
    tmp_path, monkeypatch, script, last
):
    detector = tmp_path / "failing-detector"
    detector.write_text(f"#!/bin/sh\n{script}\n")
    detector.chmod(0o755)
    monkeypatch.setenv("MIDISYNC_SCENE_BIN", str(detector))
    with pytest.raises(SceneLogError, match=f"^scene detector exited with status 3: {last}$"):
        detect_scenes("clip.mp4")
