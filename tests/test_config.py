"""Config file loading, defaults, and typo rejection."""

import json

import pytest

from aiblob.config import load_config
from aiblob.errors import ConfigError, ParseError


def write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_all_defaults_without_file(self):
        config = load_config(None)
        assert config.pipeline.k_per_query == 10
        assert config.render.pre_roll_s == 0.15
        assert config.render.post_roll_s == 0.25
        assert config.render.fade_s == 0.04
        assert config.render.integrated_lufs == -16.0
        assert config.render.true_peak_dbtp == -1.5
        assert config.render.compression_ratio == 3.0
        assert config.render.compression_threshold_db == -18.0
        assert config.providers.score_batch_size == 20
        assert config.providers.retries == 3
        assert config.media.uri_template == "media/{video_id}.mp4"

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        path = write(tmp_path, {"pipeline": {"irony_threshold": 5},
                                "render": {"fade_s": 0.1}})
        config = load_config(path)
        assert config.pipeline.irony_threshold == 5
        assert config.pipeline.relevance_threshold == 7
        assert config.render.fade_s == 0.1
        assert config.render.pre_roll_s == 0.15

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, {"pipelines": {}})
        with pytest.raises(ConfigError, match="pipelines"):
            load_config(path)

    def test_unknown_option_rejected(self, tmp_path):
        path = write(tmp_path, {"pipeline": {"k_per_querry": 3}})
        with pytest.raises(ConfigError, match="k_per_querry"):
            load_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = write(tmp_path, {"pipeline": {"irony_threshold": 42}})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{non json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_config(str(path))

    def test_video_cap_null(self, tmp_path):
        path = write(tmp_path, {"pipeline": {"video_cap": None}})
        assert load_config(path).pipeline.video_cap is None

    def test_media_uri_template(self, tmp_path):
        path = write(tmp_path, {"media": {"uri_template": "/archivio/{video_id}.mkv"}})
        config = load_config(path)
        assert config.media.source_uri_for("vid007") == "/archivio/vid007.mkv"

    def test_media_uri_template_with_repeats_and_escaped_braces(self, tmp_path):
        path = write(tmp_path, {"media": {"uri_template": "{{x}}/{video_id}/{video_id}.mp4"}})
        assert load_config(path).media.source_uri_for("") == "{x}//.mp4"

    @pytest.mark.parametrize("section,name", [
        ("pipeline", "k_per_query"), ("pipeline", "themes"),
        ("pipeline", "phrases_per_theme"), ("pipeline", "video_cap"),
        ("pipeline", "min_retained"), ("pipeline", "irony_threshold"),
        ("providers", "score_batch_size"), ("providers", "retries"),
    ])
    @pytest.mark.parametrize("value", [5.5, 5.0, True])
    def test_integer_knob_rejects_floats_and_bools(self, tmp_path, section, name, value):
        path = write(tmp_path, {section: {name: value}})
        with pytest.raises(ConfigError, match=name):
            load_config(path)

    @pytest.mark.parametrize("section,name,value", [
        ("render", "pre_roll_s", "x"), ("render", "pre_roll_s", -0.1),
        ("render", "post_roll_s", float("nan")), ("render", "fade_s", True),
        ("render", "fade_s", -0.01), ("render", "integrated_lufs", float("inf")),
        ("render", "intro_max_s", None), ("render", "renderer_path", 5),
        ("render", "renderer_path", None),
        ("render", "compression_threshold_db", 10000), ("render", "compression_threshold_db", 1),
        ("render", "compression_threshold_db", -61), ("render", "compression_ratio", 0.5),
        ("render", "compression_ratio", 21),
        ("providers", "embedder", 5), ("providers", "embedder", None),
        ("providers", "llm", ["scripted:x"]),
        ("providers", "retries", -1), ("providers", "retries", 101),
        ("providers", "retries", 1000000000000),
        ("media", "uri_template", "{nope}"), ("media", "uri_template", "{}"),
        ("media", "uri_template", "{video_id!z}"), ("media", "uri_template", 5),
        # Only a bare {video_id}: a template that indexes the id or reads an
        # attribute of it, converts it or gives it a format spec can fail on
        # some str id (an empty one, say) long after the config loaded.
        ("media", "uri_template", "media/{video_id[0]}/{video_id}.mp4"),
        ("media", "uri_template", "{video_id.upper}"), ("media", "uri_template", "{video_id!r}"),
        ("media", "uri_template", "{video_id:>8}"), ("media", "uri_template", "{video_id"),
        ("media", "intro_uri", 5),
        ("render", "intro_max_s", 0), ("render", "intro_max_s", -5),
        ("render", "intro_max_s", 0.05),
    ])
    def test_knob_of_wrong_type_or_range_rejected(self, tmp_path, section, name, value):
        path = write(tmp_path, {section: {name: value}})
        with pytest.raises(ConfigError, match=name):
            load_config(path)

    @pytest.mark.parametrize("section,knob,message", [
        ("render", {"fade_s": "x"}, "fade_s must be a finite number, got 'x'"),
        ("render", {"fade_s": 0.5, "intro_max_s": 0.75},
         "intro_max_s must be positive and at least 2 * fade_s (1), got 0.75"),
        ("pipeline", {"min_retained": 3}, "min_retained must be at least 4, got 3"),
        ("providers", {"retries": 1000000000000},
         "retries must be in [0, 100], got 1000000000000"),
    ])
    def test_type_or_range_error_names_the_file_and_section(self, tmp_path, section, knob,
                                                            message):
        path = write(tmp_path, {section: knob})
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value) == f"{path}: config section {section!r}: {message}"

    def test_retries_bounds_accepted(self, tmp_path):
        for retries in (0, 100):
            config = load_config(write(tmp_path, {"providers": {"retries": retries}}))
            assert config.providers.retries == retries

    def test_intro_as_long_as_its_two_fades_accepted(self, tmp_path):
        config = load_config(write(tmp_path, {"render": {"fade_s": 0.5, "intro_max_s": 1}}))
        assert config.render.intro_max_s == 1.0
