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
