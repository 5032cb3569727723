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

import os
import shlex
import shutil
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConfigError, ParseError, RenderError, ValidationError
from .llm import Candidate
from .narrative import SECTION_ORDER, NarrativePlan, read_sections
from .util import (atomic_write_bytes, bounded, check_field_types, check_header, check_keys,
                   from_json, load_json, shown, write_json)

EDL_FORMAT = "aiblob-edl"
EDL_VERSION = 1
# The top-level keys of an EDL file, as save_edl writes them.
EDL_KEYS = ("format", "version", "episode_title", "loudness", "compression", "intro", "sections")

# The ranges FFmpeg's loudnorm accepts for its I and TP targets.
INTEGRATED_LUFS = {"lo": -70.0, "hi": -5.0}
TRUE_PEAK_DBTP = {"lo": -9.0, "hi": 0.0}
# The ranges FFmpeg's acompressor accepts (its linear threshold floor is about -60 dB).
COMPRESSION_RATIO = {"lo": 1.0, "hi": 20.0}
COMPRESSION_THRESHOLD_DB = {"lo": -60.0, "hi": 0.0}


# The mastering pass: loudness normalization, then dynamic range compression.
@dataclass
class Loudness:
    integrated_lufs: float = bounded(**INTEGRATED_LUFS)
    true_peak_dbtp: float = bounded(**TRUE_PEAK_DBTP)


@dataclass
class Compression:
    ratio: float = bounded(**COMPRESSION_RATIO)
    threshold_db: float = bounded(**COMPRESSION_THRESHOLD_DB)


@dataclass
class RenderSettings:
    """Timing margins, fades, loudness targets, and the renderer binary."""

    pre_roll_s: float = bounded(0.15, lo=0)
    post_roll_s: float = bounded(0.25, lo=0)
    fade_s: float = bounded(0.04, lo=0)
    integrated_lufs: float = bounded(-16.0, **INTEGRATED_LUFS)
    true_peak_dbtp: float = bounded(-1.5, **TRUE_PEAK_DBTP)
    compression_ratio: float = bounded(3.0, **COMPRESSION_RATIO)
    compression_threshold_db: float = bounded(-18.0, **COMPRESSION_THRESHOLD_DB)
    renderer_path: str = "ffmpeg"
    intro_max_s: float = 30.0

    def __post_init__(self):
        check_field_types(self)
        if not self.intro_max_s > 0 or self.intro_max_s < 2 * self.fade_s:
            raise ConfigError(f"intro_max_s must be positive and at least 2 * fade_s "
                              f"({2 * self.fade_s:g}), got {self.intro_max_s}")


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
    sections: dict[str, list[Clip]]
    loudness: Loudness
    compression: Compression

    def all_clips(self) -> list[Clip]:
        clips = [self.intro] if self.intro is not None else []
        for name in SECTION_ORDER:
            clips.extend(self.sections.get(name, []))
        return clips


def build_edl(
    plan: NarrativePlan,
    candidates: Sequence[Candidate],
    settings: RenderSettings,
    source_uri_for: Callable[[str], str],
    intro_source: str | None = None,
) -> EditDecisionList:
    """Turn a plan into clips, applying pre/post-roll margins and fades.

    Each planned id is looked up among ``candidates``; its clip plays the media
    ``source_uri_for(video_id)``. Clip in points are clamped at zero; out points
    are not clamped against the actual media duration (the renderer does that),
    keeping this step pure. An EDL that render would refuse (validate_edl), such
    as a clip shorter than its two fades, is a ValidationError listing every
    violation. Every planned id must be a candidate's sentence_id.
    """
    by_id = {c.sentence_id: c for c in candidates}
    sections: dict[str, list[Clip]] = {}
    for name in SECTION_ORDER:
        clips: list[Clip] = []
        for sid in plan.sections.get(name, []):
            candidate = by_id[sid]
            source_uri = source_uri_for(candidate.video_id)
            if not source_uri:
                raise ValidationError(f"sentence {shown(sid)} has no source media uri")
            clips.append(
                Clip(
                    source_uri=source_uri,
                    in_s=max(0.0, candidate.start_s - settings.pre_roll_s),
                    out_s=candidate.end_s + settings.post_roll_s,
                    fade_in_s=settings.fade_s,
                    fade_out_s=settings.fade_s,
                    sentence_id=sid,
                    text=candidate.text,
                )
            )
        sections[name] = clips
    intro = None
    if intro_source:
        intro = Clip(intro_source, 0.0, settings.intro_max_s,
                     settings.fade_s, settings.fade_s, None, "")
    edl = EditDecisionList(
        episode_title=plan.episode_title,
        intro=intro,
        sections=sections,
        loudness=Loudness(settings.integrated_lufs, settings.true_peak_dbtp),
        compression=Compression(settings.compression_ratio, settings.compression_threshold_db),
    )
    violations = validate_edl(edl)
    if violations:
        raise ValidationError("EDL failed validation: " + "; ".join(violations))
    return edl


def validate_edl(edl: EditDecisionList, plan: NarrativePlan | None = None) -> list[str]:
    """Check every clip invariant; returns all violations (empty list means ok)."""
    violations: list[str] = []
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

    threshold_linear = 10.0 ** (edl.compression.threshold_db / 20.0)
    master_filter = (
        f"loudnorm=I={_fmt(edl.loudness.integrated_lufs)}"
        f":TP={_fmt(edl.loudness.true_peak_dbtp)}"
        f",acompressor=threshold={threshold_linear:.6g}"
        f":ratio={_fmt(edl.compression.ratio)}"
    )
    steps.append([renderer, "-hide_banner", "-nostdin", "-y", "-i", concat_path,
                  "-af", master_filter, out_path])
    return steps


def render(edl: EditDecisionList, out_path: str, settings: RenderSettings,
           dry_run: bool = False) -> str:
    """Render the EDL to out_path, or return the command plan text on dry runs.

    Refuses invalid EDLs before any invocation. Real runs need the renderer
    binary and all local source media present; dry runs need nothing. A real
    run writes render.log beside out_path: each step's command line, then
    "# exit <code> after <seconds> s".
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
            started = time.perf_counter()
            result = subprocess.run(argv, capture_output=True, text=True)
            seconds = time.perf_counter() - started
            log_lines.append(f"# exit {result.returncode} after {seconds:.3f} s")
            if result.returncode != 0:
                tail = (result.stderr or "").strip().splitlines()[-10:]
                log_lines.extend(f"# {line}" for line in tail)
                raise RenderError(
                    f"renderer exited {result.returncode} for: {shlex.join(argv)}\n"
                    + "\n".join(tail)
                )
    finally:
        atomic_write_bytes(log_path, [("\n".join(log_lines) + "\n").encode("utf-8")])
    return out_path


# ----------------------------------------------------------------------
# EDL file I/O
# ----------------------------------------------------------------------

def save_edl(edl: EditDecisionList, path: str) -> None:
    # Loudness, compression and each clip are their dataclass's fields, in declaration order.
    write_json(path, {
        "format": EDL_FORMAT,
        "version": EDL_VERSION,
        "episode_title": edl.episode_title,
        "loudness": vars(edl.loudness),
        "compression": vars(edl.compression),
        "intro": vars(edl.intro) if edl.intro is not None else None,
        "sections": {
            name: [vars(c) for c in edl.sections.get(name, [])]
            for name in SECTION_ORDER
        },
    })


def load_edl(path: str) -> EditDecisionList:
    payload = load_json(path)
    check_header(payload, path, EDL_FORMAT, (EDL_VERSION,), ParseError)
    check_keys(payload, EDL_KEYS, ParseError, path)
    intro = payload["intro"]
    edl = EditDecisionList(
        episode_title=payload["episode_title"],
        intro=None if intro is None else from_json(Clip, intro, ParseError, f"{path}: intro"),
        sections=read_sections(payload["sections"], path,
                               lambda clip, where: from_json(Clip, clip, ParseError, where)),
        loudness=from_json(Loudness, payload["loudness"], ParseError, f"{path}: loudness"),
        compression=from_json(Compression, payload["compression"], ParseError,
                              f"{path}: compression"),
    )
    check_field_types(edl, ParseError, path)
    return edl
