"""Pinned bytes of every on-disk format (.evt, tokenizer and dynamics .ckpt,
.tok), of a full verification report, and of both models after three
training steps."""

import hashlib
from dataclasses import replace

import numpy as np

from framecast.checkpoint import save_checkpoint
from framecast.dynamics import (
    DynamicsConfig,
    DynamicsModel,
    DynamicsTrainConfig,
    save_dynamics,
    train_dynamics,
)
from framecast.eventfile import write_event
from framecast.fields import EventSequence
from framecast.tokenizer import (
    Tokenizer,
    TokenizerConfig,
    TokenizerTrainConfig,
    train_tokenizer,
    write_tokens,
)
from framecast.verification import (
    MetricReport,
    aggregate_over_seeds,
    evaluate_catchments,
    stratify_by_lead_time,
    stratify_by_percentile_bin,
)

TOKENIZER = TokenizerConfig(patch_size=4, n_codes=16, latent_dim=4, hidden_dim=8)
DYNAMICS = DynamicsConfig(n_layers=1, n_heads=2, embed_dim=8, vocab_size=16,
                          tokens_per_frame=4, max_frames=5, mode="token")


def _write_all(tmp_path):
    rng = np.random.default_rng(2024)
    frames = rng.uniform(0, 40, size=(3, 8, 8)).astype(np.float32)
    event = EventSequence(frames, context_len=2, step_minutes=30, data_max=50.0, seed=7)
    write_event(event, tmp_path / "event.evt")
    write_event(EventSequence(frames[:2, :2, :4], context_len=1), tmp_path / "bare.evt")
    Tokenizer(TOKENIZER, seed=3).save(tmp_path / "tokenizer.ckpt", step=5)
    save_dynamics(DynamicsModel(DYNAMICS, seed=4), tmp_path / "dynamics.ckpt", step=6)
    params = {"w": rng.normal(size=(2, 3)).astype(np.float32), "s": np.float64(0.5)}
    save_checkpoint(tmp_path / "generic.ckpt", params, meta={"lr": 1e-4, "tag": "run"})
    write_tokens(tmp_path / "tokens.tok", rng.integers(0, 16, size=(3, 2, 2)), 16)
    _write_report(tmp_path / "evaluation.csv")
    _write_trained(tmp_path)


def _write_trained(tmp_path):
    """Both models after three steps of their training loops, so the loss,
    its gradient and the Adam update are pinned to the last bit."""
    rng = np.random.default_rng(2026)
    fields = rng.uniform(0, 1, size=(6, 8, 8))
    tokenizer, _ = train_tokenizer(
        fields, TOKENIZER, TokenizerTrainConfig(steps=3, batch_size=2, lr=1e-2, warmup_steps=2, seed=5)
    )
    tokenizer.save(tmp_path / "tokenizer_trained.ckpt", step=3)
    tokens = rng.integers(0, 16, size=(5, 3, 4))
    train = DynamicsTrainConfig(steps=3, batch_size=2, lr=1e-2, warmup_steps=2, seed=6)
    for mode in ("frame", "token"):
        model, _ = train_dynamics(DynamicsModel(replace(DYNAMICS, mode=mode), seed=4), tokens, train)
        save_dynamics(model, tmp_path / f"dynamics_{mode}_trained.ckpt", step=3)


def _write_report(path):
    """The three stratifiers for two seed labels plus their aggregate, as
    ``evaluate`` assembles them. Tau 100 lies above every value (undefined
    csi, far, pod and auc rows), the top event falls in the gap above the
    95th percentile, and the "void" catchment selects no pixel."""
    rng = np.random.default_rng(2025)
    taus = (1.0, 4.0, 100.0)
    west = np.zeros((4, 6), dtype=bool)
    west[:, :3] = True
    masks = {"west": west, "east": ~west, "void": np.zeros((4, 6), dtype=bool)}
    reports = []
    for seed in ("0", "1"):
        obs = rng.uniform(0, 10, size=(12, 2, 4, 6)) * np.linspace(0.2, 1.0, 12)[:, None, None, None]
        pred = (obs + rng.normal(0, 1, size=obs.shape)).clip(0)
        pooled_pred = np.concatenate(pred, axis=1)
        pooled_obs = np.concatenate(obs, axis=1)
        report = stratify_by_lead_time(pooled_pred, pooled_obs, 30, taus=taus, seed=seed)
        report.extend(stratify_by_percentile_bin(list(zip(pred, obs)), step_minutes=30,
                                                 taus=taus, seed=seed))
        tiled = {name: np.tile(mask, (12, 1)) for name, mask in masks.items()}
        report.extend(evaluate_catchments(pooled_pred, pooled_obs, tiled, taus=taus, seed=seed))
        reports.append(report)
    combined = MetricReport()
    for report in reports:
        combined.extend(report)
    combined.extend(aggregate_over_seeds(reports))
    combined.to_csv(path)


# SHA-256 of each file; a change here is a change of the on-disk format, which
# breaks every .evt, .ckpt and .tok file already written, of the rows, row
# order or values of the verification report, or of the training trajectory.
GOLDEN = {
    "event.evt": "7efaba1bb3360f3fafb0feab1b7a984fac498cf390f754bac5f96dab904e61d9",
    "tokenizer.ckpt": "97f07529ae3b1ad683368527a32bb5bc35949038dcd0ea0b81d9ce4d7ec54f5b",
    "dynamics.ckpt": "373a96af62015a0b60533b025d5eecafcaa5539697137560b6eb526457df32cd",
    "bare.evt": "e5e7197c166bf123443045705e782b9dfa2ad87134d9f16ad0fc09b8353b5337",
    "generic.ckpt": "514020f74e223089111ddde7021c1683e3b0a1dde96b7d6baee143a0934e3050",
    "tokens.tok": "85050ab1efa459444ea33ea0deeb408761c2a04f8090705f5e3873e05a29601f",
    "evaluation.csv": "bc79c21f18b26aee99678486509bc4b905da2bd06004781f5b1a7483e64a9248",
    "tokenizer_trained.ckpt": "ede35434f0140e2f7fbfb50f316405cb8287ed70339ba223784cac0788d8a0b1",
    "dynamics_frame_trained.ckpt": "a3fd72128170a232172670075ebcb9ce7bdde2f4fc134fbdc93a52eea978aabb",
    "dynamics_token_trained.ckpt": "b24e6e446d9c1b7c374defc13cd1c61aae85adc747192c77ddd89cfd3195cf2a",
}


def test_golden_bytes(tmp_path):
    _write_all(tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN
