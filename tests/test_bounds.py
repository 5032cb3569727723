"""Every ``bounded`` knob, read from its dataclass's metadata: both ends load,
and one step past either end is refused by the loader of its file, with a
message naming the file and the key."""

import dataclasses
import math

import pytest

from aiblob.config import ProviderSettings, load_config
from aiblob.errors import ConfigError, ParseError
from aiblob.montage import Compression, Loudness, RenderSettings, load_edl
from aiblob.narrative import SECTION_ORDER, PipelineConfig, PlanScore, load_plan
from aiblob.util import write_json

CONFIG_SECTIONS = {PipelineConfig: "pipeline", RenderSettings: "render",
                   ProviderSettings: "providers"}
BOUNDED = [(cls, field) for cls in (*CONFIG_SECTIONS, Loudness, Compression, PlanScore)
           for field in dataclasses.fields(cls) if "bound" in field.metadata]


def load_one(tmp_path, cls, name, value):
    """Write the file that holds knob ``cls.name`` as ``value`` (every other
    value valid), then return a reader of the loaded ``cls`` record, the
    loader's error class and the place its messages start with."""
    path = str(tmp_path / f"{cls.__name__}.json")
    if cls in CONFIG_SECTIONS:
        section = CONFIG_SECTIONS[cls]
        write_json(path, {section: {name: value}})
        return (lambda: getattr(load_config(path), section), ConfigError,
                f"{path}: config section {section!r}")
    if cls in (Loudness, Compression):
        key = cls.__name__.lower()
        edl = {"format": "aiblob-edl", "version": 1, "episode_title": "T",
               "loudness": {"integrated_lufs": -16.0, "true_peak_dbtp": -1.5},
               "compression": {"ratio": 3.0, "threshold_db": -18.0},
               "intro": None, "sections": {section: [] for section in SECTION_ORDER}}
        edl[key][name] = value
        write_json(path, edl)
        return lambda: getattr(load_edl(path), key), ParseError, f"{path}: {key}"
    write_json(path, {
        "format": "aiblob-plan", "version": 1, "episode_title": "T",
        "sections": {section: ["a"] if section == "climax" else [] for section in SECTION_ORDER},
        "scores": {"a": {"irony": 5, "relevance": 5, name: value}}})
    return lambda: load_plan(path)[1]["a"], ParseError, f"{path}: scores of a"


def test_every_documented_bound_is_declared():
    assert {f"{cls.__name__}.{field.name}": field.metadata["bound"][2]
            for cls, field in BOUNDED} == {
        "PipelineConfig.k_per_query": "at least 1",
        "PipelineConfig.irony_threshold": "in [1, 10]",
        "PipelineConfig.relevance_threshold": "in [1, 10]",
        "PipelineConfig.themes": "at least 1",
        "PipelineConfig.phrases_per_theme": "at least 1",
        "PipelineConfig.video_cap": "at least 1",
        "PipelineConfig.min_retained": "at least 4",
        "RenderSettings.pre_roll_s": "at least 0",
        "RenderSettings.post_roll_s": "at least 0",
        "RenderSettings.fade_s": "at least 0",
        "RenderSettings.integrated_lufs": "in [-70, -5]",
        "RenderSettings.true_peak_dbtp": "in [-9, 0]",
        "RenderSettings.compression_ratio": "in [1, 20]",
        "RenderSettings.compression_threshold_db": "in [-60, 0]",
        "ProviderSettings.score_batch_size": "at least 1",
        "ProviderSettings.retries": "in [0, 100]",
        "Loudness.integrated_lufs": "in [-70, -5]",
        "Loudness.true_peak_dbtp": "in [-9, 0]",
        "Compression.ratio": "in [1, 20]",
        "Compression.threshold_db": "in [-60, 0]",
        "PlanScore.irony": "in [1, 10]",
        "PlanScore.relevance": "in [1, 10]",
    }


@pytest.mark.parametrize("cls,field", BOUNDED,
                         ids=[f"{cls.__name__}.{field.name}" for cls, field in BOUNDED])
def test_bound_holds_through_the_loader(tmp_path, cls, field):
    lo, hi, wording = field.metadata["bound"]
    kind = int if field.type.startswith("int") else float
    for end in (lo, hi):
        if math.isfinite(end):
            read, _, _ = load_one(tmp_path, cls, field.name, end)
            assert getattr(read(), field.name) == end

    def past(end, direction):
        return end + direction if kind is int else math.nextafter(end, direction * math.inf)

    outside = [past(end, direction) for end, direction in ((lo, -1), (hi, 1))
               if math.isfinite(end)]
    for value in outside:
        read, error, where = load_one(tmp_path, cls, field.name, value)
        with pytest.raises(error) as caught:
            read()
        assert str(caught.value) == f"{where}: {field.name} must be {wording}, got {kind(value)!r}"
