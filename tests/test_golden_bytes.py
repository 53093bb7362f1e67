"""Pinned bytes of every on-disk format (.evt, tokenizer and dynamics .ckpt,
.tok), of a full verification report, of both models after three
training steps, of gelu's forward and backward values, and of the
default-config dynamics gradients."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from framecast.autodiff import Tensor
from framecast.checkpoint import save_checkpoint
from framecast.dynamics import (
    DynamicsConfig,
    DynamicsModel,
    dynamics_loss,
    save_dynamics,
    train_dynamics,
)
from framecast.eventfile import write_event
from framecast.fields import EventSequence
from framecast.optim import TrainConfig
from framecast.tokenizer import (
    Tokenizer,
    TokenizerConfig,
    train_tokenizer,
    write_tokens,
)
from framecast.verification import evaluate_runs

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
        Tokenizer(TOKENIZER, seed=5), fields,
        TrainConfig(steps=3, batch_size=2, lr=1e-2, warmup_steps=2, seed=5),
    )
    tokenizer.save(tmp_path / "tokenizer_trained.ckpt", step=3)
    tokens = rng.integers(0, 16, size=(5, 3, 4))
    train = TrainConfig(steps=3, batch_size=2, lr=1e-2, warmup_steps=2, seed=6)
    for mode in ("frame", "token"):
        model, _ = train_dynamics(DynamicsModel(replace(DYNAMICS, mode=mode), seed=4), tokens, train)
        save_dynamics(model, tmp_path / f"dynamics_{mode}_trained.ckpt", step=3)


def _write_report(path):
    """``evaluate``'s report for two seed runs, from ``evaluate_runs``. Tau
    100 lies above every value (undefined csi, far, pod and auc rows), the
    top event falls in the gap above the 95th percentile, and the "void"
    catchment selects no pixel."""
    rng = np.random.default_rng(2025)
    west = np.zeros((4, 6), dtype=bool)
    west[:, :3] = True
    masks = {"west": west, "east": ~west, "void": np.zeros((4, 6), dtype=bool)}
    runs = []
    for _ in range(2):
        obs = rng.uniform(0, 10, size=(12, 2, 4, 6)) * np.linspace(0.2, 1.0, 12)[:, None, None, None]
        pred = (obs + rng.normal(0, 1, size=obs.shape)).clip(0)
        runs.append((pred, obs))
    evaluate_runs(runs, masks, (1.0, 4.0, 100.0), 30).to_csv(path)


# SHA-256 of each file; a change here is a change of the on-disk format, which
# breaks every .evt, .ckpt and .tok file already written, of the rows, row
# order or values of the verification report, or of the training trajectory.
GOLDEN = {
    "event.evt": "7efaba1bb3360f3fafb0feab1b7a984fac498cf390f754bac5f96dab904e61d9",
    "tokenizer.ckpt": "5501fe2af280227360880bcfcc41324cceebbe7d81681e95f36f1cd4821a5dae",
    "dynamics.ckpt": "373a96af62015a0b60533b025d5eecafcaa5539697137560b6eb526457df32cd",
    "bare.evt": "e5e7197c166bf123443045705e782b9dfa2ad87134d9f16ad0fc09b8353b5337",
    "generic.ckpt": "514020f74e223089111ddde7021c1683e3b0a1dde96b7d6baee143a0934e3050",
    "tokens.tok": "85050ab1efa459444ea33ea0deeb408761c2a04f8090705f5e3873e05a29601f",
    "evaluation.csv": "bc79c21f18b26aee99678486509bc4b905da2bd06004781f5b1a7483e64a9248",
    "tokenizer_trained.ckpt": "ff31f74aae2bb399c63d7028f28e4cfd16a21c0533e8d193ef46db7bf05ad35e",
    "dynamics_frame_trained.ckpt": "a3fd72128170a232172670075ebcb9ce7bdde2f4fc134fbdc93a52eea978aabb",
    "dynamics_token_trained.ckpt": "b24e6e446d9c1b7c374defc13cd1c61aae85adc747192c77ddd89cfd3195cf2a",
}


def test_golden_bytes(tmp_path):
    _write_all(tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN


def _gelu_bytes():
    """gelu's forward values and input gradient on O(1) inputs, where the
    cubic term is well above one ulp of x."""
    x = Tensor(np.random.default_rng(2027).normal(0, 2, size=(64, 64)), requires_grad=True)
    y = x.gelu()
    y.sum().backward()
    return y.data.tobytes(), x.grad.tobytes()


# SHA-256 of gelu's forward and backward bytes. The trained pins above cannot
# see a last-bit change of gelu's cubic term: their activations are small, so
# that change stays below one ulp of x
GELU_GOLDEN = (
    "e082e4d836517410c56219b07550cfd644a5a212c0c991a9ea748b00d7c05b36",
    "4c31122a7c89e2f1cf6a9ed0762cb81ef3ade3e901cc47dc159de18981411d72",
)


def test_gelu_bytes():
    digests = tuple(hashlib.sha256(b).hexdigest() for b in _gelu_bytes())
    assert digests == GELU_GOLDEN


def _default_gradient_bytes(mode):
    """Leaf gradients of one default-config dynamics_loss backward (B = 2,
    every frame), in parameter order. The tiny models above have head_dim 4;
    this one has the default config's 32, the vocabulary of 1024 and the
    144-position pass that training runs."""
    model = DynamicsModel(DynamicsConfig(mode=mode), seed=8)
    cfg = model.config
    batch = np.random.default_rng(2028).integers(
        0, cfg.vocab_size, size=(2, cfg.max_frames, cfg.tokens_per_frame))
    dynamics_loss(model, batch).backward()
    return b"".join(param.grad.tobytes() for param in model.params.values())


# SHA-256 of the bytes above per mode; a change here moves a real training
# step's gradient, which the tiny trained pins may not see
DEFAULT_GRADIENT_GOLDEN = {
    "frame": "3f04cd41ad89851734dd35e20f4407990d8728c4d28f3ec8dc48dd0848aab916",
    "token": "09eebbc63f1aad7bd715c9f86c86837be8c310667fe308207f9aa30a70a10836",
}


@pytest.mark.parametrize("mode", sorted(DEFAULT_GRADIENT_GOLDEN))
def test_default_config_gradient_bytes(mode):
    digest = hashlib.sha256(_default_gradient_bytes(mode)).hexdigest()
    assert digest == DEFAULT_GRADIENT_GOLDEN[mode]
