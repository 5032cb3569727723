"""One JSON config file carrying every episode knob.

Sections (all optional, all fields defaulted):

    {"pipeline":  {... PipelineConfig fields ...},
     "render":    {... RenderSettings fields ...},
     "providers": {"embedder": "deterministic:64", "llm": "scripted:replay.jsonl",
                   "llm_base_url": null, "llm_model": null,
                   "embed_base_url": null, "embed_model": null,
                   "score_batch_size": 20, "retries": 3},
     "media":     {"uri_template": "media/{video_id}.mp4", "intro_uri": null}}

CLI flags override file values. Unknown keys are rejected so typos surface
instead of silently falling back to defaults, and every value is checked for
its annotated type and its range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .llm import DEFAULT_SCORE_BATCH
from .montage import RenderSettings
from .narrative import PipelineConfig
from .util import DEFAULT_RETRIES, check_field_types, check_keys, from_json, load_json

# Every retry is one more provider call per request: a bound keeps a typo from
# making a run that never ends.
MAX_RETRIES = 100


@dataclass
class ProviderSettings:
    embedder: str = "deterministic:64"
    llm: str | None = None
    llm_base_url: str | None = None
    llm_model: str | None = None
    embed_base_url: str | None = None
    embed_model: str | None = None
    score_batch_size: int = DEFAULT_SCORE_BATCH
    retries: int = DEFAULT_RETRIES

    def __post_init__(self):
        check_field_types(self)
        if self.score_batch_size < 1:
            raise ConfigError(f"score_batch_size must be positive, got {self.score_batch_size}")
        if not 0 <= self.retries <= MAX_RETRIES:
            raise ConfigError(f"retries must be in [0, {MAX_RETRIES}], got {self.retries}")


@dataclass
class MediaSettings:
    """How video_ids resolve to playable media for the EDL."""

    uri_template: str = "media/{video_id}.mp4"
    intro_uri: str | None = None

    def __post_init__(self):
        check_field_types(self)
        try:
            self.source_uri_for("v")
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"uri_template must format with {{video_id}} alone: {exc!r}") from exc

    def source_uri_for(self, video_id: str) -> str:
        return self.uri_template.format(video_id=video_id)


@dataclass
class AppConfig:
    pipeline: PipelineConfig
    render: RenderSettings
    providers: ProviderSettings
    media: MediaSettings


_SECTIONS = {
    "pipeline": PipelineConfig,
    "render": RenderSettings,
    "providers": ProviderSettings,
    "media": MediaSettings,
}


def load_config(path: str | None = None) -> AppConfig:
    """Read the config file (or return all defaults when path is None)."""
    raw: dict = {}
    if path is not None:
        raw = load_json(path)
        check_keys(raw, _SECTIONS, ConfigError, path, optional=_SECTIONS)
    return AppConfig(**{
        name: from_json(cls, raw.get(name, {}), ConfigError, f"{path}: config section {name!r}")
        for name, cls in _SECTIONS.items()
    })
