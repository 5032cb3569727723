"""EDL construction and rendering.

Converts an ordered narrative plan into an Edit Decision List (clip in/out
points with pre/post-roll margins and audio fades) and drives an external
command-line renderer (FFmpeg by default) as a subprocess:

    per-clip extraction with fades -> concatenation -> one mastering pass
    (loudness normalization to the target LUFS/true-peak, then dynamic
    range compression)

Dry runs emit the exact command plan as newline-delimited text without
touching any binary, so the whole path is testable with nothing installed.
"""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ParseError, RenderError, ValidationError
from .narrative import SECTION_ORDER, NarrativePlan
from .util import atomic_write_text, is_finite_number

EDL_FORMAT = "aiblob-edl"
EDL_VERSION = 1


@dataclass
class RenderSettings:
    """Timing margins, fades, loudness targets, and the renderer binary."""

    pre_roll_s: float = 0.15
    post_roll_s: float = 0.25
    fade_s: float = 0.04
    integrated_lufs: float = -16.0
    true_peak_dbtp: float = -1.5
    compression_ratio: float = 3.0
    compression_threshold_db: float = -18.0
    renderer_path: str = "ffmpeg"
    intro_max_s: float = 30.0


@dataclass
class ClipSource:
    """What build_edl needs to know about one sentence: media uri, text, span."""

    source_uri: str
    text: str
    start_s: float
    end_s: float


@dataclass
class Clip:
    source_uri: str
    in_s: float
    out_s: float
    fade_in_s: float
    fade_out_s: float
    sentence_id: str | None
    text: str


@dataclass
class EditDecisionList:
    episode_title: str
    intro: Clip | None
    sections: dict[str, list[Clip]] = field(default_factory=dict)
    loudness: dict[str, float] = field(default_factory=dict)
    compression: dict[str, float] = field(default_factory=dict)

    def all_clips(self) -> list[Clip]:
        clips = [self.intro] if self.intro is not None else []
        for name in SECTION_ORDER:
            clips.extend(self.sections.get(name, []))
        return clips


def build_edl(
    plan: NarrativePlan,
    sources: Mapping[str, ClipSource],
    settings: RenderSettings,
    intro_source: str | None = None,
) -> EditDecisionList:
    """Turn a plan into clips, applying pre/post-roll margins and fades.

    Clip in points are clamped at zero; out points are not clamped against the
    actual media duration (the renderer does that), keeping this step pure.
    """
    sections: dict[str, list[Clip]] = {}
    for name in SECTION_ORDER:
        clips: list[Clip] = []
        for sid in plan.sections.get(name, []):
            src = sources.get(sid)
            if src is None:
                raise ValidationError(f"plan references unknown sentence_id {sid}")
            if not src.source_uri:
                raise ValidationError(f"sentence {sid} has no source media uri")
            clips.append(
                Clip(
                    source_uri=src.source_uri,
                    in_s=max(0.0, src.start_s - settings.pre_roll_s),
                    out_s=src.end_s + settings.post_roll_s,
                    fade_in_s=settings.fade_s,
                    fade_out_s=settings.fade_s,
                    sentence_id=sid,
                    text=src.text,
                )
            )
        sections[name] = clips
    intro = None
    if intro_source:
        intro = Clip(intro_source, 0.0, settings.intro_max_s,
                     settings.fade_s, settings.fade_s, None, "")
    return EditDecisionList(
        episode_title=plan.episode_title,
        intro=intro,
        sections=sections,
        loudness={
            "integrated_lufs": settings.integrated_lufs,
            "true_peak_dbtp": settings.true_peak_dbtp,
        },
        compression={
            "ratio": settings.compression_ratio,
            "threshold_db": settings.compression_threshold_db,
        },
    )


def validate_edl(edl: EditDecisionList, plan: NarrativePlan | None = None) -> list[str]:
    """Check every clip invariant; returns all violations (empty list means ok)."""
    violations: list[str] = []
    if set(edl.sections) != set(SECTION_ORDER):
        violations.append(f"sections must be exactly {SECTION_ORDER}, got {tuple(edl.sections)}")
    if edl.intro is not None and edl.intro.sentence_id is not None:
        violations.append("intro clip must have a null sentence_id")

    seen_ids: set[str] = set()
    intro_clips = [edl.intro] if edl.intro is not None else []
    labeled = [("intro", i, c) for i, c in enumerate(intro_clips)]
    for name in SECTION_ORDER:
        labeled.extend((name, i, c) for i, c in enumerate(edl.sections.get(name, [])))
    for name, index, clip in labeled:
        where = f"{name}[{index}]"
        if not clip.source_uri:
            violations.append(f"{where}: empty source_uri")
        if clip.in_s < 0:
            violations.append(f"{where}: negative in point ({clip.in_s})")
        duration = clip.out_s - clip.in_s
        if duration <= 0:
            violations.append(f"{where}: non-positive duration ({duration})")
        if clip.fade_in_s < 0 or clip.fade_out_s < 0:
            violations.append(f"{where}: negative fade")
        elif duration > 0 and clip.fade_in_s + clip.fade_out_s > duration:
            violations.append(f"{where}: fades exceed duration "
                              f"({clip.fade_in_s}+{clip.fade_out_s} > {duration})")
        if name != "intro":
            if not clip.sentence_id:
                violations.append(f"{where}: missing sentence_id")
            elif clip.sentence_id in seen_ids:
                violations.append(f"{where}: duplicate sentence_id {clip.sentence_id}")
            else:
                seen_ids.add(clip.sentence_id)

    if plan is not None:
        edl_ids = [c.sentence_id for n in SECTION_ORDER for c in edl.sections.get(n, [])]
        if edl_ids != plan.all_ids():
            violations.append("clip order does not match the plan order")
    return violations


def _fmt(value: float) -> str:
    text = f"{float(value):.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 20.0)


def build_render_plan(edl: EditDecisionList, out_path: str,
                      settings: RenderSettings) -> list[list[str]]:
    """The exact renderer invocations for this EDL, as argv lists.

    Deterministic: the same EDL, output path and settings always produce the
    same commands. Work files live under "<out_path>.work/".
    """
    clips = edl.all_clips()
    work_dir = out_path + ".work"
    ext = os.path.splitext(out_path)[1] or ".mp4"
    renderer = settings.renderer_path

    steps: list[list[str]] = []
    clip_paths: list[str] = []
    for i, clip in enumerate(clips):
        clip_path = os.path.join(work_dir, f"clip_{i:04d}{ext}")
        clip_paths.append(clip_path)
        duration = clip.out_s - clip.in_s
        argv = [renderer, "-hide_banner", "-nostdin", "-y",
                "-ss", _fmt(clip.in_s), "-t", _fmt(duration), "-i", clip.source_uri]
        fades = []
        if clip.fade_in_s > 0:
            fades.append(f"afade=t=in:st=0:d={_fmt(clip.fade_in_s)}")
        if clip.fade_out_s > 0:
            fades.append(f"afade=t=out:st={_fmt(duration - clip.fade_out_s)}:d={_fmt(clip.fade_out_s)}")
        if fades:
            argv.extend(["-af", ",".join(fades)])
        argv.append(clip_path)
        steps.append(argv)

    concat_path = os.path.join(work_dir, f"concat{ext}")
    argv = [renderer, "-hide_banner", "-nostdin", "-y"]
    for clip_path in clip_paths:
        argv.extend(["-i", clip_path])
    pads = "".join(f"[{i}:v][{i}:a]" for i in range(len(clip_paths)))
    argv.extend([
        "-filter_complex", f"{pads}concat=n={len(clip_paths)}:v=1:a=1[v][a]",
        "-map", "[v]", "-map", "[a]", concat_path,
    ])
    steps.append(argv)

    threshold_linear = _db_to_linear(edl.compression["threshold_db"])
    master_filter = (
        f"loudnorm=I={_fmt(edl.loudness['integrated_lufs'])}"
        f":TP={_fmt(edl.loudness['true_peak_dbtp'])}"
        f",acompressor=threshold={threshold_linear:.6g}"
        f":ratio={_fmt(edl.compression['ratio'])}"
    )
    steps.append([renderer, "-hide_banner", "-nostdin", "-y", "-i", concat_path,
                  "-af", master_filter, out_path])
    return steps


def render(edl: EditDecisionList, out_path: str, settings: RenderSettings,
           dry_run: bool = False) -> str:
    """Render the EDL to out_path, or return the command plan text on dry runs.

    Refuses invalid EDLs before any invocation. Real runs need the renderer
    binary and all local source media present; dry runs need nothing.
    """
    violations = validate_edl(edl)
    if violations:
        raise RenderError("EDL failed validation: " + "; ".join(violations))
    if not any(edl.sections.get(name) for name in SECTION_ORDER):
        raise RenderError("empty episode: all four sections are empty")

    steps = build_render_plan(edl, out_path, settings)
    plan_text = "\n".join(shlex.join(argv) for argv in steps) + "\n"
    if dry_run:
        return plan_text

    if shutil.which(settings.renderer_path) is None:
        raise RenderError(f"renderer binary {settings.renderer_path!r} not found on PATH")
    missing = sorted(
        {c.source_uri for c in edl.all_clips()
         if "://" not in c.source_uri and not os.path.exists(c.source_uri)}
    )
    if missing:
        raise RenderError("missing source media: " + ", ".join(missing))

    work_dir = out_path + ".work"
    os.makedirs(work_dir, exist_ok=True)
    log_lines: list[str] = []
    log_path = os.path.join(os.path.dirname(os.path.abspath(out_path)), "render.log")
    try:
        for argv in steps:
            log_lines.append(shlex.join(argv))
            result = subprocess.run(argv, capture_output=True, text=True)
            log_lines.append(f"# exit {result.returncode}")
            if result.returncode != 0:
                tail = (result.stderr or "").strip().splitlines()[-10:]
                log_lines.extend(f"# {line}" for line in tail)
                raise RenderError(
                    f"renderer exited {result.returncode} for: {shlex.join(argv)}\n"
                    + "\n".join(tail)
                )
    finally:
        atomic_write_text(log_path, "\n".join(log_lines) + "\n")
    return out_path


# ----------------------------------------------------------------------
# EDL file I/O
# ----------------------------------------------------------------------

def _clip_payload(clip: Clip) -> dict:
    return {
        "source_uri": clip.source_uri,
        "in_s": clip.in_s,
        "out_s": clip.out_s,
        "fade_in_s": clip.fade_in_s,
        "fade_out_s": clip.fade_out_s,
        "sentence_id": clip.sentence_id,
        "text": clip.text,
    }


def save_edl(edl: EditDecisionList, path: str) -> None:
    payload = {
        "format": EDL_FORMAT,
        "version": EDL_VERSION,
        "episode_title": edl.episode_title,
        "loudness": {
            "integrated_lufs": edl.loudness["integrated_lufs"],
            "true_peak_dbtp": edl.loudness["true_peak_dbtp"],
        },
        "compression": {
            "ratio": edl.compression["ratio"],
            "threshold_db": edl.compression["threshold_db"],
        },
        "intro": _clip_payload(edl.intro) if edl.intro is not None else None,
        "sections": {
            name: [_clip_payload(c) for c in edl.sections.get(name, [])]
            for name in SECTION_ORDER
        },
    }
    atomic_write_text(path, json.dumps(payload, ensure_ascii=False, indent=2) + "\n")


def _finite(obj: dict, key: str, path: str, where: str) -> float:
    value = obj.get(key)
    if not is_finite_number(value):
        raise ParseError(f"{path}: {where}.{key} must be a finite number, got {value!r}")
    return float(value)


def _clip_from_payload(obj: dict, path: str, where: str) -> Clip:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: {where} must be an object")
    for key in ("source_uri", "sentence_id"):
        if key not in obj:
            raise ParseError(f"{path}: bad clip {where}: missing {key!r}")
    sentence_id = obj["sentence_id"]
    if sentence_id is not None and not isinstance(sentence_id, str):
        raise ParseError(f"{path}: {where}.sentence_id must be a string or null")
    return Clip(
        source_uri=str(obj["source_uri"]),
        in_s=_finite(obj, "in_s", path, where),
        out_s=_finite(obj, "out_s", path, where),
        fade_in_s=_finite(obj, "fade_in_s", path, where),
        fade_out_s=_finite(obj, "fade_out_s", path, where),
        sentence_id=sentence_id,
        text=str(obj.get("text", "")),
    )


def load_edl(path: str) -> EditDecisionList:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc.msg}") from exc
    if not isinstance(payload, dict) or payload.get("format") != EDL_FORMAT:
        raise ParseError(f"{path}: not an EDL file")
    if payload.get("version") != EDL_VERSION:
        raise ParseError(f"{path}: unsupported EDL version {payload.get('version')!r}")
    sections_raw = payload.get("sections")
    if not isinstance(sections_raw, dict):
        raise ParseError(f"{path}: sections must be an object")
    sections = {}
    for name in SECTION_ORDER:
        clips_raw = sections_raw.get(name, [])
        if not isinstance(clips_raw, list):
            raise ParseError(f"{path}: sections.{name} must be a list")
        sections[name] = [
            _clip_from_payload(obj, path, f"{name}[{i}]") for i, obj in enumerate(clips_raw)
        ]
    intro_raw = payload.get("intro")
    intro = _clip_from_payload(intro_raw, path, "intro") if intro_raw is not None else None
    loudness = payload.get("loudness")
    compression = payload.get("compression")
    if not isinstance(loudness, dict) or not isinstance(compression, dict):
        raise ParseError(f"{path}: loudness and compression must be objects")
    return EditDecisionList(
        episode_title=str(payload.get("episode_title", "")),
        intro=intro,
        sections=sections,
        loudness={key: _finite(loudness, key, path, "loudness")
                  for key in ("integrated_lufs", "true_peak_dbtp")},
        compression={key: _finite(compression, key, path, "compression")
                     for key in ("ratio", "threshold_db")},
    )
