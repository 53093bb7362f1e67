"""Flat run configuration: one key = value per line, # comments allowed.

Every knob of the pipeline lives here so a run is a pure function of
(config, input artifacts, seed). CLI flags may override single values; the
resolved configuration is embedded in every report for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .dynamics import DynamicsConfig
from .errors import ConfigError
from .tokenizer import TokenizerConfig


@dataclass(frozen=True)
class RunConfig:
    # reproducibility
    seed: int = 0
    hardware: str = "unspecified CPU"

    # grid and tokenization
    grid_h: int = 32
    grid_w: int = 32
    patch_size: int = 8
    codebook_size: int = 1024
    codebook_dim: int = 32
    codebook_hidden: int = 64
    beta: float = 0.25

    # dynamics transformer
    layers: int = 2
    heads: int = 2
    embed: int = 64
    tokens_per_frame: int = 16
    max_frames: int = 9
    mode: str = "frame"

    # optimizer
    lr: float = 1e-4
    warmup_steps: int = 10000
    batch_size: int = 8
    tokenizer_steps: int = 2000
    dynamics_steps: int = 3000

    # forecasting task
    context_len: int = 3
    horizon: int = 6
    step_minutes: int = 30

    # synthetic data
    data_max: float = 64.0
    n_events: int = 60
    n_frames: int = 9
    filter_percentile: float = 50.0
    velocity_u: float = 3.0
    velocity_v: float = 1.0
    n_blobs: int = 3
    blob_amplitude_min: float = 10.0
    blob_amplitude_max: float = 40.0
    blob_radius_min: float = 4.0
    blob_radius_max: float = 8.0
    growth_rate: float = 1.0

    # artifact locations
    data_dir: str = "data"
    checkpoint_dir: str = "checkpoints"
    report_dir: str = "reports"

    def __post_init__(self):
        if self.context_len < 1 or self.horizon < 1:
            raise ConfigError("context_len and horizon must be at least 1")
        if self.context_len + self.horizon > self.max_frames:
            raise ConfigError(
                f"context_len {self.context_len} + horizon {self.horizon} exceeds "
                f"max_frames {self.max_frames}"
            )
        if self.grid_h % self.patch_size or self.grid_w % self.patch_size:
            raise ConfigError(
                f"grid {self.grid_h}x{self.grid_w} not divisible by patch_size {self.patch_size}"
            )
        n = (self.grid_h // self.patch_size) * (self.grid_w // self.patch_size)
        if n != self.tokens_per_frame:
            raise ConfigError(
                f"grid/patch layout yields {n} tokens per frame, config says "
                f"{self.tokens_per_frame}"
            )
        if self.n_frames < self.context_len + 1:
            raise ConfigError("n_frames must leave at least one target frame")
        if self.data_max <= 0:
            raise ConfigError("data_max must be positive")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if min(self.tokenizer_steps, self.dynamics_steps) < 0:
            raise ConfigError("tokenizer_steps and dynamics_steps must not be negative")
        if not 0.0 < self.lr < float("inf"):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")

    # ---- derived views -----------------------------------------------------

    def tokenizer_config(self) -> TokenizerConfig:
        return TokenizerConfig(
            patch_size=self.patch_size,
            n_codes=self.codebook_size,
            latent_dim=self.codebook_dim,
            hidden_dim=self.codebook_hidden,
            beta=self.beta,
        )

    def dynamics_config(self, mode: str | None = None) -> DynamicsConfig:
        return DynamicsConfig(
            n_layers=self.layers,
            n_heads=self.heads,
            embed_dim=self.embed,
            vocab_size=self.codebook_size,
            tokens_per_frame=self.tokens_per_frame,
            max_frames=self.max_frames,
            mode=mode or self.mode,
        )

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def to_lines(self) -> list[str]:
        return [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]


def _coerce(name: str, text: str, target_type):
    try:
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {name} expects {target_type.__name__}, got {text!r}") from exc


def parse_config_text(text: str) -> RunConfig:
    types = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise ConfigError(f"unknown config key {key!r} on line {lineno}")
        values[key] = _coerce(key, value, types[key])
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"))


def write_config(config: RunConfig, path) -> None:
    Path(path).write_text("\n".join(config.to_lines()) + "\n", encoding="utf-8")
