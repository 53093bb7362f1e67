"""Precipitation-field containers, unit conversions, and dataset filtering.

A radar field is a 2D grid of rain rates in mm/h. An event is a short,
regularly spaced sequence of such fields split into a context part (what a
model gets to see) and a target part (what it must predict). Fields are held
as float32, the same precision they are stored with on disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Marshall-Palmer style power law linking linear reflectivity factor Z to
# rain rate R: Z = ZR_FACTOR * R ** ZR_EXPONENT.
ZR_FACTOR = 200.0
ZR_EXPONENT = 1.6


def reflectivity_to_rate(z):
    """Convert linear reflectivity factor to rain rate in mm/h.

    Inverts Z = 200 R^1.6. Accepts scalars or arrays; negative input raises
    ValueError.
    """
    z = np.asarray(z, dtype=np.float64)
    if np.any(z < 0):
        raise ValueError("reflectivity factor must be non-negative")
    out = (z / ZR_FACTOR) ** (1.0 / ZR_EXPONENT)
    return out if out.ndim else float(out)


def rate_to_reflectivity(r):
    """Convert rain rate in mm/h to linear reflectivity factor Z = 200 R^1.6."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0):
        raise ValueError("rain rate must be non-negative")
    out = ZR_FACTOR * r ** ZR_EXPONENT
    return out if out.ndim else float(out)


def normalize(values, data_max):
    """Map rain rates onto [0, 1] by clamp(v / data_max, 0, 1)."""
    if data_max <= 0:
        raise ConfigError(f"data_max must be positive, got {data_max}")
    return np.clip(np.asarray(values, dtype=np.float64) / data_max, 0.0, 1.0)


def denormalize(values, data_max):
    """Inverse of :func:`normalize` for values that were within data_max."""
    if data_max <= 0:
        raise ConfigError(f"data_max must be positive, got {data_max}")
    return np.asarray(values, dtype=np.float64) * data_max


def _validate_grid(values, what):
    if values.ndim < 2:
        raise ValueError(f"{what} must be at least 2D, got shape {values.shape}")
    if values.shape[-1] < 1 or values.shape[-2] < 1:
        raise ValueError(f"{what} must have positive height and width")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contains non-finite values")
    if np.any(values < 0):
        raise ValueError(f"{what} contains negative rain rates")


@dataclass(frozen=True)
class RadarField:
    """A single precipitation grid, mm/h, non-negative and finite."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float32)
        if values.ndim != 2:
            raise ValueError(f"radar field must be 2D, got shape {values.shape}")
        _validate_grid(values, "radar field")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass
class EventSequence:
    """A time-ordered stack of radar fields with a context/target split.

    frames has shape (T, H, W); frames[:context_len] is the observed context
    and frames[context_len:] the forecast target. data_max and seed are
    optional provenance carried through the on-disk container.
    """

    frames: np.ndarray
    context_len: int
    step_minutes: int = 30
    data_max: float | None = None
    seed: int | None = None

    def __post_init__(self):
        frames = np.ascontiguousarray(self.frames, dtype=np.float32)
        if frames.ndim != 3:
            raise ValueError(f"frames must be (T, H, W), got shape {frames.shape}")
        _validate_grid(frames, "event frames")
        if not 1 <= self.context_len < frames.shape[0]:
            raise ValueError(
                f"context_len must satisfy 1 <= context_len < {frames.shape[0]}, "
                f"got {self.context_len}"
            )
        if self.step_minutes <= 0:
            raise ValueError(f"step_minutes must be positive, got {self.step_minutes}")
        self.frames = frames

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @property
    def horizon(self) -> int:
        return self.n_frames - self.context_len

    @property
    def context(self) -> np.ndarray:
        return self.frames[: self.context_len]

    @property
    def target(self) -> np.ndarray:
        return self.frames[self.context_len :]

    def lead_minutes(self) -> np.ndarray:
        """Lead time of each target frame, relative to the last context frame."""
        return (np.arange(self.horizon) + 1) * self.step_minutes


def event_mean_rate(event: EventSequence) -> float:
    """Mean rain rate over every pixel and frame of the event, mm/h."""
    return float(event.frames.mean(dtype=np.float64))


def nearest_rank_percentile(values, percentile) -> float:
    """Percentile by the nearest-rank method (rank = ceil(p/100 * n), min 1)."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.size
    if n == 0:
        raise ValueError("cannot take a percentile of an empty collection")
    if not 0 <= percentile <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {percentile}")
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return float(values[rank - 1])


def filter_events(events, percentile):
    """Keep events whose mean rate strictly exceeds the given percentile.

    The percentile is taken over the per-event mean rates of the input list
    using the nearest-rank method, so percentile 100 always yields an empty
    list and percentile 0 drops only the events tied with the minimum mean.
    """
    events = list(events)
    if not events:
        raise ValueError("filter_events needs a non-empty event list")
    means = [event_mean_rate(e) for e in events]
    threshold = nearest_rank_percentile(means, percentile)
    return [e for e, m in zip(events, means) if m > threshold]
