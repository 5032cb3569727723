"""EDL arithmetic, validation, dry-run plans, and subprocess rendering."""

import json
import os
import stat

import pytest

from aiblob.errors import ParseError, RenderError, ValidationError
from aiblob.montage import (
    Clip,
    ClipSource,
    EditDecisionList,
    RenderSettings,
    build_edl,
    load_edl,
    render,
    save_edl,
    validate_edl,
)
from aiblob.narrative import NarrativePlan


def make_plan(sections=None, title="Titolo"):
    base = {"introduction": ["aa"], "build_up": ["bb"], "climax": ["cc"],
            "conclusion": ["dd"]}
    return NarrativePlan(title, sections if sections is not None else base)


def make_sources():
    return {
        "aa": ClipSource("media/v1.mp4", "frase aa", 10.0, 12.5),
        "bb": ClipSource("media/v1.mp4", "frase bb", 0.05, 2.0),
        "cc": ClipSource("media/v2.mp4", "frase cc", 30.0, 33.0),
        "dd": ClipSource("media/v2.mp4", "frase dd", 40.0, 41.0),
    }


class TestBuildEdl:
    def test_margin_arithmetic(self):
        edl = build_edl(make_plan(), make_sources(), RenderSettings())
        clip = edl.sections["introduction"][0]
        assert clip.in_s == pytest.approx(9.85)
        assert clip.out_s == pytest.approx(12.75)
        assert clip.fade_in_s == clip.fade_out_s == 0.04
        assert clip.sentence_id == "aa"

    def test_in_point_clamped_at_zero(self):
        edl = build_edl(make_plan(), make_sources(), RenderSettings())
        clip = edl.sections["build_up"][0]
        assert clip.in_s == 0.0
        assert clip.out_s == pytest.approx(2.25)

    def test_unknown_id_named_in_error(self):
        plan = make_plan({"introduction": ["deadbeef"], "build_up": ["bb"],
                          "climax": ["cc"], "conclusion": ["dd"]})
        with pytest.raises(ValidationError, match="deadbeef"):
            build_edl(plan, make_sources(), RenderSettings())

    def test_missing_uri_rejected(self):
        sources = make_sources()
        sources["aa"] = ClipSource("", "frase aa", 10.0, 12.5)
        with pytest.raises(ValidationError, match="source media uri"):
            build_edl(make_plan(), sources, RenderSettings())

    def test_intro_clip_first_with_null_id(self):
        edl = build_edl(make_plan(), make_sources(), RenderSettings(),
                        intro_source="media/sigla.mp4")
        assert edl.intro is not None
        assert edl.intro.sentence_id is None
        assert edl.intro.source_uri == "media/sigla.mp4"
        assert edl.all_clips()[0] is edl.intro

    def test_clip_order_matches_plan(self):
        edl = build_edl(make_plan(), make_sources(), RenderSettings())
        ids = [c.sentence_id for c in edl.all_clips()]
        assert ids == ["aa", "bb", "cc", "dd"]
        assert validate_edl(edl, make_plan()) == []

    def test_loudness_and_compression_from_settings(self):
        settings = RenderSettings(integrated_lufs=-14.0, compression_ratio=4.0)
        edl = build_edl(make_plan(), make_sources(), settings)
        assert edl.loudness == {"integrated_lufs": -14.0, "true_peak_dbtp": -1.5}
        assert edl.compression == {"ratio": 4.0, "threshold_db": -18.0}


class TestValidateEdl:
    def test_well_formed(self):
        edl = build_edl(make_plan(), make_sources(), RenderSettings(),
                        intro_source="media/sigla.mp4")
        assert validate_edl(edl) == []

    def test_non_positive_duration(self):
        edl = build_edl(make_plan(), make_sources(), RenderSettings())
        bad = edl.sections["climax"][0]
        edl.sections["climax"][0] = Clip(bad.source_uri, 5.0, 5.0, 0.0, 0.0,
                                         bad.sentence_id, bad.text)
        violations = validate_edl(edl)
        assert any("non-positive duration" in v for v in violations)

    def test_fades_exceeding_duration(self):
        edl = build_edl(make_plan(), make_sources(), RenderSettings())
        bad = edl.sections["climax"][0]
        edl.sections["climax"][0] = Clip(bad.source_uri, 5.0, 5.5, 0.4, 0.4,
                                         bad.sentence_id, bad.text)
        violations = validate_edl(edl)
        assert any("fades exceed duration" in v for v in violations)

    def test_all_violations_reported(self):
        edl = build_edl(make_plan(), make_sources(), RenderSettings())
        a = edl.sections["introduction"][0]
        b = edl.sections["climax"][0]
        edl.sections["introduction"][0] = Clip("", a.in_s, a.in_s, a.fade_in_s,
                                               a.fade_out_s, a.sentence_id, a.text)
        edl.sections["climax"][0] = Clip(b.source_uri, 1.0, 1.05, 0.5, 0.5,
                                         b.sentence_id, b.text)
        violations = validate_edl(edl)
        assert len(violations) >= 3  # empty uri, zero duration, oversized fades

    def test_duplicate_sentence_id(self):
        edl = build_edl(make_plan(), make_sources(), RenderSettings())
        clip = edl.sections["climax"][0]
        edl.sections["conclusion"][0] = Clip(clip.source_uri, clip.in_s, clip.out_s,
                                             clip.fade_in_s, clip.fade_out_s,
                                             clip.sentence_id, clip.text)
        assert any("duplicate" in v for v in validate_edl(edl))

    def test_plan_mismatch_detected(self):
        edl = build_edl(make_plan(), make_sources(), RenderSettings())
        swapped = make_plan({"introduction": ["bb"], "build_up": ["aa"],
                             "climax": ["cc"], "conclusion": ["dd"]})
        assert any("plan order" in v for v in validate_edl(edl, swapped))


class TestRenderDryRun:
    def two_clip_edl(self):
        plan = make_plan({"introduction": ["aa"], "build_up": [], "climax": ["cc"],
                          "conclusion": []})
        return build_edl(plan, make_sources(), RenderSettings())

    def test_plan_shape(self):
        edl = self.two_clip_edl()
        text = render(edl, "/tmp/out/episodio.mp4", RenderSettings(), dry_run=True)
        lines = text.strip().split("\n")
        assert len(lines) == 4  # 2 extractions, 1 concat, 1 mastering pass
        assert lines[0].startswith("ffmpeg")
        assert "afade=t=in:st=0:d=0.04" in lines[0]
        assert "-ss 9.85" in lines[0] and "-t 2.9" in lines[0]
        assert "concat=n=2:v=1:a=1" in lines[2]
        assert "loudnorm=I=-16:TP=-1.5" in lines[3]
        assert "acompressor=threshold=0.125893:ratio=3" in lines[3]
        assert lines[3].endswith("/tmp/out/episodio.mp4")

    def test_dry_run_is_deterministic(self):
        first = render(self.two_clip_edl(), "/tmp/out/e.mp4", RenderSettings(), dry_run=True)
        second = render(self.two_clip_edl(), "/tmp/out/e.mp4", RenderSettings(), dry_run=True)
        assert first == second

    def test_invalid_edl_refused_before_any_step(self):
        edl = self.two_clip_edl()
        clip = edl.sections["climax"][0]
        edl.sections["climax"][0] = Clip(clip.source_uri, 2.0, 2.0, 0.0, 0.0,
                                         clip.sentence_id, clip.text)
        with pytest.raises(RenderError, match="validation"):
            render(edl, "/tmp/out/e.mp4", RenderSettings(), dry_run=True)

    def test_empty_episode_rejected(self):
        edl = EditDecisionList(
            "Vuoto", None,
            {name: [] for name in ("introduction", "build_up", "climax", "conclusion")},
            {"integrated_lufs": -16.0, "true_peak_dbtp": -1.5},
            {"ratio": 3.0, "threshold_db": -18.0})
        with pytest.raises(RenderError, match="empty episode"):
            render(edl, "/tmp/out/e.mp4", RenderSettings(), dry_run=True)

    def test_intro_included_in_plan(self):
        plan = make_plan({"introduction": ["aa"], "build_up": [], "climax": [],
                          "conclusion": []})
        edl = build_edl(plan, make_sources(), RenderSettings(), intro_source="media/sigla.mp4")
        text = render(edl, "/tmp/out/e.mp4", RenderSettings(), dry_run=True)
        lines = text.strip().split("\n")
        assert len(lines) == 4
        assert "media/sigla.mp4" in lines[0]
        assert "-t 30" in lines[0]

    def test_timing_arithmetic_property(self):
        settings = RenderSettings()
        edl = build_edl(make_plan(), make_sources(), settings)
        for name, source_key in [("introduction", "aa"), ("build_up", "bb"),
                                 ("climax", "cc"), ("conclusion", "dd")]:
            clip = edl.sections[name][0]
            src = make_sources()[source_key]
            pre_applied = src.start_s - clip.in_s  # accounts for the zero clamp
            assert 0 <= pre_applied <= settings.pre_roll_s + 1e-9
            expected = (src.end_s - src.start_s) + pre_applied + settings.post_roll_s
            assert clip.out_s - clip.in_s == pytest.approx(expected, abs=1e-6)


class TestRenderExecution:
    def fake_renderer(self, tmp_path, exit_code=0):
        """A stand-in renderer that logs argv and creates its output file."""
        script = tmp_path / "bin" / "fakefmpeg"
        script.parent.mkdir(exist_ok=True)
        log = tmp_path / "calls.log"
        script.write_text(
            "#!/bin/sh\n"
            f'echo "$@" >> "{log}"\n'
            'for last; do :; done\n'
            'touch "$last"\n'
            f"exit {exit_code}\n"
        )
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        return script, log

    def local_edl(self, tmp_path):
        media = tmp_path / "media"
        media.mkdir(exist_ok=True)
        (media / "v1.mp4").write_bytes(b"finto video")
        sources = {
            "aa": ClipSource(str(media / "v1.mp4"), "frase aa", 10.0, 12.5),
            "bb": ClipSource(str(media / "v1.mp4"), "frase bb", 1.0, 2.0),
        }
        plan = make_plan({"introduction": ["aa"], "build_up": [], "climax": ["bb"],
                          "conclusion": []})
        return build_edl(plan, sources, RenderSettings())

    def test_missing_renderer_binary(self, tmp_path):
        edl = self.local_edl(tmp_path)
        settings = RenderSettings(renderer_path="renderer-inesistente")
        with pytest.raises(RenderError, match="not found"):
            render(edl, str(tmp_path / "out.mp4"), settings)

    def test_missing_source_media_listed(self, tmp_path):
        script, _ = self.fake_renderer(tmp_path)
        edl = self.local_edl(tmp_path)
        missing = str(tmp_path / "media" / "sparito.mp4")
        edl.sections["climax"][0] = Clip(missing, 1.0, 2.0, 0.04, 0.04, "bb", "x")
        with pytest.raises(RenderError, match="sparito"):
            render(edl, str(tmp_path / "out.mp4"), RenderSettings(renderer_path=str(script)))

    def test_successful_run_executes_every_step(self, tmp_path):
        script, log = self.fake_renderer(tmp_path)
        edl = self.local_edl(tmp_path)
        out = str(tmp_path / "out.mp4")
        result = render(edl, out, RenderSettings(renderer_path=str(script)))
        assert result == out
        assert os.path.exists(out)
        calls = log.read_text().strip().split("\n")
        assert len(calls) == 4
        assert (tmp_path / "render.log").exists()

    def test_renderer_failure_reported(self, tmp_path):
        script, _ = self.fake_renderer(tmp_path, exit_code=3)
        edl = self.local_edl(tmp_path)
        with pytest.raises(RenderError, match="exited 3"):
            render(edl, str(tmp_path / "out.mp4"), RenderSettings(renderer_path=str(script)))


class TestEdlFile:
    def test_round_trip(self, tmp_path):
        edl = build_edl(make_plan(), make_sources(), RenderSettings(),
                        intro_source="media/sigla.mp4")
        path = tmp_path / "edl.json"
        save_edl(edl, str(path))
        loaded = load_edl(str(path))
        assert loaded == edl

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "edl.json"
        path.write_text('{"format": "altro", "version": 1}', encoding="utf-8")
        with pytest.raises(ParseError, match="not an EDL"):
            load_edl(str(path))

    def test_save_is_byte_deterministic(self, tmp_path):
        edl = build_edl(make_plan(), make_sources(), RenderSettings())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_edl(edl, str(a))
        save_edl(edl, str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda p: p["compression"].pop("threshold_db"),
        lambda p: p["compression"].update(threshold_db="loud"),
        lambda p: p["loudness"].update(integrated_lufs=True),
        lambda p: p["loudness"].update(true_peak_dbtp=float("inf")),
        lambda p: p.pop("loudness"),
        lambda p: p["sections"]["climax"][0].pop("out_s"),
        lambda p: p["sections"]["climax"][0].update(in_s="30.0"),
        lambda p: p["sections"]["climax"][0].update(fade_in_s=float("nan")),
        lambda p: p["sections"].update(climax=7),
    ])
    def test_every_value_the_render_plan_reads_is_checked(self, tmp_path, edit):
        path = tmp_path / "edl.json"
        save_edl(build_edl(make_plan(), make_sources(), RenderSettings()), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError):
            load_edl(str(path))
