"""Pinned bytes of every on-disk format: .evt, tokenizer and dynamics .ckpt, .tok."""

import hashlib

import numpy as np

from framecast.checkpoint import save_checkpoint
from framecast.dynamics import DynamicsConfig, DynamicsModel, save_dynamics
from framecast.eventfile import write_event
from framecast.fields import EventSequence
from framecast.tokenizer import Tokenizer, TokenizerConfig, write_tokens


def _write_all(tmp_path):
    rng = np.random.default_rng(2024)
    frames = rng.uniform(0, 40, size=(3, 8, 8)).astype(np.float32)
    event = EventSequence(frames, context_len=2, step_minutes=30, data_max=50.0, seed=7)
    write_event(event, tmp_path / "event.evt")
    write_event(EventSequence(frames[:2, :2, :4], context_len=1), tmp_path / "bare.evt")
    Tokenizer(TokenizerConfig(patch_size=4, n_codes=16, latent_dim=4, hidden_dim=8), seed=3).save(
        tmp_path / "tokenizer.ckpt", step=5
    )
    config = DynamicsConfig(n_layers=1, n_heads=2, embed_dim=8, vocab_size=16,
                            tokens_per_frame=4, max_frames=5, mode="token")
    save_dynamics(DynamicsModel(config, seed=4), tmp_path / "dynamics.ckpt", step=6)
    params = {"w": rng.normal(size=(2, 3)).astype(np.float32), "s": np.float64(0.5)}
    save_checkpoint(tmp_path / "generic.ckpt", params, meta={"lr": 1e-4, "tag": "run"})
    write_tokens(tmp_path / "tokens.tok", rng.integers(0, 16, size=(3, 2, 2)), 16)


# SHA-256 of each file; a change here is a change of the on-disk format, which
# breaks every .evt, .ckpt and .tok file already written.
GOLDEN = {
    "event.evt": "7efaba1bb3360f3fafb0feab1b7a984fac498cf390f754bac5f96dab904e61d9",
    "tokenizer.ckpt": "97f07529ae3b1ad683368527a32bb5bc35949038dcd0ea0b81d9ce4d7ec54f5b",
    "dynamics.ckpt": "373a96af62015a0b60533b025d5eecafcaa5539697137560b6eb526457df32cd",
    "bare.evt": "e5e7197c166bf123443045705e782b9dfa2ad87134d9f16ad0fc09b8353b5337",
    "generic.ckpt": "514020f74e223089111ddde7021c1683e3b0a1dde96b7d6baee143a0934e3050",
    "tokens.tok": "85050ab1efa459444ea33ea0deeb408761c2a04f8090705f5e3873e05a29601f",
}


def test_golden_bytes(tmp_path):
    _write_all(tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN
