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
instead of silently falling back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import ConfigError, ParseError
from .montage import RenderSettings
from .narrative import PipelineConfig
from .util import is_int


@dataclass
class ProviderSettings:
    embedder: str = "deterministic:64"
    llm: str | None = None
    llm_base_url: str | None = None
    llm_model: str | None = None
    embed_base_url: str | None = None
    embed_model: str | None = None
    score_batch_size: int = 20
    retries: int = 3

    def __post_init__(self):
        for name in ("score_batch_size", "retries"):
            if not is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.score_batch_size < 1:
            raise ConfigError(f"score_batch_size must be positive, got {self.score_batch_size}")
        if self.retries < 0:
            raise ConfigError(f"retries must be non-negative, got {self.retries}")


@dataclass
class MediaSettings:
    """How video_ids resolve to playable media for the EDL."""

    uri_template: str = "media/{video_id}.mp4"
    intro_uri: str | None = None

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


def _build_section(cls, data: dict, section: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"unknown option(s) in config section {section!r}: {', '.join(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in config section {section!r}: {exc}") from exc


def load_config(path: str | None = None) -> AppConfig:
    """Read the config file (or return all defaults when path is None)."""
    raw: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid config JSON: {exc.msg}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config root must be a JSON object")
        unknown = sorted(set(raw) - set(_SECTIONS))
        if unknown:
            raise ConfigError(f"{path}: unknown config section(s): {', '.join(unknown)}")
    sections = {}
    for name, cls in _SECTIONS.items():
        data = raw.get(name, {})
        if not isinstance(data, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        sections[name] = _build_section(cls, data, name)
    return AppConfig(**sections)
