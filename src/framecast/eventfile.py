"""On-disk event container (.evt) and dataset manifests.

An .evt file is a container (see ``container``) with the magic ``EVT1``,
one header line per field (height, width, n_frames, context_len,
step_minutes, data_max, seed; ``none`` for an absent data_max or seed), and
the frames as little-endian float32 in time-major order. Floats are written
with their shortest round-trip repr, so reading back is exact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .container import Container, ContainerError
from .fields import EventSequence


class EventFileError(ContainerError):
    """Base class for .evt parse failures."""


class CorruptHeaderError(EventFileError):
    """Bad magic, malformed header line, or missing header key."""


class TruncatedPayloadError(EventFileError):
    """Payload holds fewer float32 values than the header promises."""


class DimensionMismatchError(EventFileError):
    """Header dimensions are inconsistent with each other or the payload."""


def _optional(parse):
    return lambda text: None if text == "none" else parse(text)


def _format(value) -> str:
    return "none" if value is None else str(value)


_EVT = Container("EVT1", CorruptHeaderError, TruncatedPayloadError, DimensionMismatchError)
# header keys in file order; each names an EventSequence attribute or property
_HEADER = {
    "height": int,
    "width": int,
    "n_frames": int,
    "context_len": int,
    "step_minutes": int,
    "data_max": _optional(float),
    "seed": _optional(int),
}


def write_event(event: EventSequence, path) -> None:
    """Write an event to path; read_event() restores it bit for bit."""
    header = [(key, _format(getattr(event, key))) for key in _HEADER]
    _EVT.write(path, header, np.ascontiguousarray(event.frames, dtype="<f4").tobytes())


def read_event(path) -> EventSequence:
    """Parse an .evt file, raising a distinct error per failure mode."""
    header, payload = _EVT.read(path)
    fields = _EVT.fields(header, _HEADER)
    n_frames, height, width = fields.pop("n_frames"), fields.pop("height"), fields.pop("width")
    # 1 <= context_len < n_frames also bounds n_frames >= 2
    if height < 1 or width < 1 or not 1 <= fields["context_len"] < n_frames:
        raise DimensionMismatchError(
            f"invalid dimensions: {n_frames} frames of {height}x{width} "
            f"with context_len {fields['context_len']}"
        )
    _EVT.expect(payload, n_frames * height * width * 4)
    frames = np.frombuffer(payload, dtype="<f4").reshape(n_frames, height, width)

    try:
        return EventSequence(frames, **fields)
    except ValueError as exc:
        raise EventFileError(f"event payload is invalid: {exc}") from exc


def write_manifest(paths, manifest_path, comment: str | None = None) -> None:
    """Write one event path per line; lines starting with # are comments."""
    lines = []
    if comment:
        lines.extend(f"# {line}" for line in comment.splitlines())
    lines.extend(str(p) for p in paths)
    Path(manifest_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(manifest_path) -> list[Path]:
    """Read event paths from a manifest; relative entries resolve against it."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    paths = []
    for raw in manifest_path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        p = Path(line)
        paths.append(p if p.is_absolute() else base / p)
    return paths


def read_events(manifest_path) -> list[EventSequence]:
    """Load every event listed in a manifest, in manifest order."""
    return [read_event(p) for p in read_manifest(manifest_path)]
