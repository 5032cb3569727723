"""EDL arithmetic, validation, dry-run plans, and subprocess rendering."""

import json
import os
import re
import shlex
import stat

import pytest

from aiblob.cli import main
from aiblob.errors import ParseError, RenderError, ValidationError
from aiblob.llm import Candidate
from aiblob.montage import (
    Clip,
    Compression,
    EditDecisionList,
    Loudness,
    RenderSettings,
    build_edl,
    build_render_plan,
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


# The media of each video, as MediaSettings.source_uri_for would give it.
MEDIA = {"v1": "media/v1.mp4", "v2": "media/v2.mp4"}


def make_candidates():
    return [
        Candidate("aa", "v1", "frase aa", 10.0, 12.5, 0),
        Candidate("bb", "v1", "frase bb", 0.05, 2.0, 0),
        Candidate("cc", "v2", "frase cc", 30.0, 33.0, 1),
        Candidate("dd", "v2", "frase dd", 40.0, 41.0, 1),
    ]


class TestBuildEdl:
    def test_margin_arithmetic(self):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get)
        clip = edl.sections["introduction"][0]
        assert clip.in_s == pytest.approx(9.85)
        assert clip.out_s == pytest.approx(12.75)
        assert clip.fade_in_s == clip.fade_out_s == 0.04
        assert clip.sentence_id == "aa"

    def test_in_point_clamped_at_zero(self):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get)
        clip = edl.sections["build_up"][0]
        assert clip.in_s == 0.0
        assert clip.out_s == pytest.approx(2.25)

    def test_missing_uri_rejected(self):
        with pytest.raises(ValidationError, match="sentence aa has no source media uri"):
            build_edl(make_plan(), make_candidates(), RenderSettings(), {**MEDIA, "v1": ""}.get)

    def test_intro_clip_first_with_null_id(self):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get,
                        intro_source="media/sigla.mp4")
        assert edl.intro is not None
        assert edl.intro.sentence_id is None
        assert edl.intro.source_uri == "media/sigla.mp4"
        assert edl.all_clips()[0] is edl.intro

    def test_clip_order_matches_plan(self):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get)
        ids = [c.sentence_id for c in edl.all_clips()]
        assert ids == ["aa", "bb", "cc", "dd"]
        assert validate_edl(edl, make_plan()) == []

    def test_loudness_and_compression_from_settings(self):
        settings = RenderSettings(integrated_lufs=-14.0, compression_ratio=4.0)
        edl = build_edl(make_plan(), make_candidates(), settings, MEDIA.get)
        assert edl.loudness == Loudness(-14.0, -1.5)
        assert edl.compression == Compression(4.0, -18.0)


class TestValidateEdl:
    def test_well_formed(self):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get,
                        intro_source="media/sigla.mp4")
        assert validate_edl(edl) == []

    def test_non_positive_duration(self):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get)
        bad = edl.sections["climax"][0]
        edl.sections["climax"][0] = Clip(bad.source_uri, 5.0, 5.0, 0.0, 0.0,
                                         bad.sentence_id, bad.text)
        violations = validate_edl(edl)
        assert any("non-positive duration" in v for v in violations)

    def test_fades_exceeding_duration(self):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get)
        bad = edl.sections["climax"][0]
        edl.sections["climax"][0] = Clip(bad.source_uri, 5.0, 5.5, 0.4, 0.4,
                                         bad.sentence_id, bad.text)
        violations = validate_edl(edl)
        assert any("fades exceed duration" in v for v in violations)

    def test_all_violations_reported(self):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get)
        a = edl.sections["introduction"][0]
        b = edl.sections["climax"][0]
        edl.sections["introduction"][0] = Clip("", a.in_s, a.in_s, a.fade_in_s,
                                               a.fade_out_s, a.sentence_id, a.text)
        edl.sections["climax"][0] = Clip(b.source_uri, 1.0, 1.05, 0.5, 0.5,
                                         b.sentence_id, b.text)
        violations = validate_edl(edl)
        assert len(violations) >= 3  # empty uri, zero duration, oversized fades

    def test_duplicate_sentence_id(self):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get)
        clip = edl.sections["climax"][0]
        edl.sections["conclusion"][0] = Clip(clip.source_uri, clip.in_s, clip.out_s,
                                             clip.fade_in_s, clip.fade_out_s,
                                             clip.sentence_id, clip.text)
        assert any("duplicate" in v for v in validate_edl(edl))

    def test_plan_mismatch_detected(self):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get)
        swapped = make_plan({"introduction": ["bb"], "build_up": ["aa"],
                             "climax": ["cc"], "conclusion": ["dd"]})
        assert any("plan order" in v for v in validate_edl(edl, swapped))

    # Clip rules that load_edl leaves to validate_edl, each broken in an EDL
    # file: render refuses it, and the render command exits 1 naming it.
    @pytest.mark.parametrize("edit,violation", [
        (lambda p: p["intro"].update(sentence_id="aa"), "intro clip must have a null sentence_id"),
        (lambda p: p["sections"]["climax"][0].update(in_s=-1.0),
         "climax[0]: negative in point (-1.0)"),
        (lambda p: p["sections"]["climax"][0].update(fade_out_s=-0.04),
         "climax[0]: negative fade"),
        (lambda p: p["intro"].update(fade_in_s=-1.0), "intro[0]: negative fade"),
        (lambda p: p["sections"]["build_up"][0].update(sentence_id=None),
         "build_up[0]: missing sentence_id"),
        (lambda p: p["sections"]["build_up"][0].update(sentence_id=""),
         "build_up[0]: missing sentence_id"),
    ], ids=["intro-id", "negative-in", "negative-fade", "negative-intro-fade", "null-id",
            "empty-id"])
    def test_edl_file_breaking_a_clip_rule_refused(self, tmp_path, capsys, edit, violation):
        path = tmp_path / "edl.json"
        save_edl(build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get,
                           intro_source="media/sigla.mp4"), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        edl = load_edl(str(path))
        assert validate_edl(edl) == [violation]
        with pytest.raises(RenderError, match=re.escape(violation)):
            render(edl, str(tmp_path / "e.mp4"), RenderSettings(), dry_run=True)
        assert main(["render", "--edl", str(path), "--out", str(tmp_path / "e.mp4"),
                     "--dry-run"]) == 1
        assert capsys.readouterr().err == f"error: EDL failed validation: {violation}\n"


class TestRenderDryRun:
    def two_clip_edl(self):
        plan = make_plan({"introduction": ["aa"], "build_up": [], "climax": ["cc"],
                          "conclusion": []})
        return build_edl(plan, make_candidates(), RenderSettings(), MEDIA.get)

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
        edl = build_edl(plan, make_candidates(), RenderSettings(), MEDIA.get, intro_source="media/sigla.mp4")
        text = render(edl, "/tmp/out/e.mp4", RenderSettings(), dry_run=True)
        lines = text.strip().split("\n")
        assert len(lines) == 4
        assert "media/sigla.mp4" in lines[0]
        assert "-t 30" in lines[0]

    def test_timing_arithmetic_property(self):
        settings = RenderSettings()
        edl = build_edl(make_plan(), make_candidates(), settings, MEDIA.get)
        for name, source_key in [("introduction", "aa"), ("build_up", "bb"),
                                 ("climax", "cc"), ("conclusion", "dd")]:
            clip = edl.sections[name][0]
            (src,) = [c for c in make_candidates() if c.sentence_id == source_key]
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
        candidates = [
            Candidate("aa", "v1", "frase aa", 10.0, 12.5, 0),
            Candidate("bb", "v1", "frase bb", 1.0, 2.0, 0),
        ]
        plan = make_plan({"introduction": ["aa"], "build_up": [], "climax": ["bb"],
                          "conclusion": []})
        return build_edl(plan, candidates, RenderSettings(),
                         lambda video_id: str(media / f"{video_id}.mp4"))

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
        settings = RenderSettings(renderer_path=str(script))
        result = render(edl, out, settings)
        assert result == out
        assert os.path.exists(out)
        calls = log.read_text().strip().split("\n")
        assert len(calls) == 4
        # Each step's command line, then its exit code and wall time.
        lines = (tmp_path / "render.log").read_text().splitlines()
        assert lines[0::2] == [shlex.join(argv) for argv in build_render_plan(edl, out, settings)]
        assert len(lines[1::2]) == 4
        assert all(re.fullmatch(r"# exit 0 after \d+\.\d{3} s", line) for line in lines[1::2])

    def test_renderer_failure_reported(self, tmp_path):
        script, _ = self.fake_renderer(tmp_path, exit_code=3)
        edl = self.local_edl(tmp_path)
        with pytest.raises(RenderError, match="exited 3"):
            render(edl, str(tmp_path / "out.mp4"), RenderSettings(renderer_path=str(script)))


class TestEdlFile:
    def test_round_trip(self, tmp_path):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get,
                        intro_source="media/sigla.mp4")
        path = tmp_path / "edl.json"
        save_edl(edl, str(path))
        loaded = load_edl(str(path))
        assert loaded == edl

    @pytest.mark.parametrize("text,message", [
        ('{"format": "altro", "version": 1}', "not an aiblob-edl file (format='altro')"),
        ('{"format": "aiblob-edl", "version": 2}', "unsupported edl version 2"),
        ('[{"format": "aiblob-edl", "version": 1}]', "expected a JSON object, got list"),
        ('"aiblob-edl"', "expected a JSON object, got str"),
    ], ids=["wrong-format", "wrong-version", "array", "string"])
    def test_header_enforced(self, tmp_path, text, message):
        path = tmp_path / "edl.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            load_edl(str(path))
        assert str(caught.value) == f"{path}: {message}"

    def test_save_is_byte_deterministic(self, tmp_path):
        edl = build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get)
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
        lambda p: p["compression"].update(threshold_db=10000),
    ])
    def test_every_value_the_render_plan_reads_is_checked(self, tmp_path, edit):
        path = tmp_path / "edl.json"
        save_edl(build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError):
            load_edl(str(path))

    @pytest.mark.parametrize("change,message", [
        (lambda p: p["sections"].update(climaxx=p["sections"].pop("climax")),
         "sections: unknown key(s): climaxx"),
        (lambda p: p["sections"].pop("climax"), "sections: missing key(s): climax"),
        (lambda p: p.update(intro_clip=p.pop("intro")), "unknown key(s): intro_clip"),
        (lambda p: p.pop("intro"), "missing key(s): intro"),
        (lambda p: p.pop("episode_title"), "missing key(s): episode_title"),
        (lambda p: p.update(notes="x"), "unknown key(s): notes"),
        (lambda p: p["loudness"].update(gain_db=1.0), "loudness: unknown key(s): gain_db"),
        (lambda p: p["compression"].update(knee_db=2.0), "compression: unknown key(s): knee_db"),
    ], ids=["renamed-section", "missing-section", "renamed-intro", "missing-intro",
            "missing-title", "unknown-key", "loudness-key", "compression-key"])
    def test_renamed_missing_or_unknown_key_rejected(self, tmp_path, change, message):
        path = tmp_path / "edl.json"
        save_edl(build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get,
                           intro_source="media/sigla.mp4"), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        change(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            load_edl(str(path))
        assert str(caught.value) == f"{path}: {message}"

    def test_loudness_and_compression_written_in_field_order(self, tmp_path):
        path = tmp_path / "edl.json"
        save_edl(build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get), str(path))
        text = path.read_text(encoding="utf-8")
        assert ('"loudness": {\n    "integrated_lufs": -16.0,\n    "true_peak_dbtp": -1.5\n  },\n'
                '  "compression": {\n    "ratio": 3.0,\n    "threshold_db": -18.0\n  },\n') in text

    @pytest.mark.parametrize("field", ["source_uri", "text"])
    @pytest.mark.parametrize("value", [None, 5])
    def test_clip_field_of_wrong_type_rejected(self, tmp_path, field, value):
        path = tmp_path / "edl.json"
        save_edl(build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["sections"]["climax"][0][field] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match=rf"sections\.climax\[0\]: {field} must be a string"):
            load_edl(str(path))

    @pytest.mark.parametrize("clip", ["intro", "climax"])
    def test_unknown_clip_key_rejected(self, tmp_path, clip):
        path = tmp_path / "edl.json"
        save_edl(build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get,
                           intro_source="media/sigla.mp4"), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        target = payload["intro"] if clip == "intro" else payload["sections"]["climax"][0]
        target["volume"] = 1.0
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match=r"edl\.json: .*unknown key\(s\): volume"):
            load_edl(str(path))

    @pytest.mark.parametrize("title", [None, 5, ["Titolo"]])
    def test_non_string_title_rejected(self, tmp_path, title):
        path = tmp_path / "edl.json"
        save_edl(build_edl(make_plan(), make_candidates(), RenderSettings(), MEDIA.get), str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["episode_title"] = title
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match="episode_title must be a string"):
            load_edl(str(path))
