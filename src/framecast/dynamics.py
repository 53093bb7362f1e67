"""Transformer dynamics over token grids, in two decode regimes.

The regimes differ in one number, ``DynamicsConfig.tokens_per_pass`` (k):
a whole frame in frame mode, where tokens of a frame attend to each other
and attention across frames is causal, and one token in token mode, a plain
causal chain. Both share one block-causal mask rule with blocks of k, one
loss shift (position p scores token p + k) and one decode loop, so a frame
costs tokens_per_frame / k passes. Parameter shapes are identical too, so
the comparison isolates the factorization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, cross_entropy_logits, init_params, layer_norm, softmax
from .checkpoint import load_model, restore, save_model
from .errors import ConfigError, HorizonError
from .fields import denormalize, normalize
from .optim import Adam, TrainConfig, guarded_step, warmup_lr
from .tokenizer import Tokenizer


@dataclass(frozen=True)
class BlockMask:
    """Attention permission matrix: allow[i, j] means i may attend to j."""

    n_frames: int
    tokens_per_frame: int
    allow: np.ndarray


def build_block_causal_mask(n_frames: int, tokens_per_frame: int) -> BlockMask:
    """All-true within a frame, lower-block-triangular across frames.

    allow[i, j] is true exactly when frame_of(j) <= frame_of(i), with
    frame_of(p) = p // tokens_per_frame.
    """
    if n_frames < 1 or tokens_per_frame < 1:
        raise ValueError("n_frames and tokens_per_frame must be positive")
    frame_of = np.arange(n_frames * tokens_per_frame) // tokens_per_frame
    allow = frame_of[None, :] <= frame_of[:, None]
    return BlockMask(n_frames, tokens_per_frame, allow)


def build_token_causal_mask(seq_len: int) -> BlockMask:
    """Plain causal chain, allow[i, j] = (j <= i): one token per block."""
    return build_block_causal_mask(seq_len, 1)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention; disallowed positions get exactly 0 weight.

    mask is a bool array (Lq, Lk), True where a query may attend to a key.
    """
    if mask.shape != (q.shape[-2], k.shape[-2]):
        raise ValueError(
            f"mask shape {mask.shape} does not match sequence lengths "
            f"{(q.shape[-2], k.shape[-2])}"
        )
    scale = 1.0 / np.sqrt(k.shape[-1])
    scores = (q @ k.transpose(_swap_last_two(len(k.shape)))) * scale
    weights = softmax(scores, mask=mask, axis=-1)
    return weights @ v


def _swap_last_two(ndim):
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


# the two decoding modes: one pass per frame, or one pass per token
MODES = ("frame", "token")


@dataclass(frozen=True)
class DynamicsConfig:
    n_layers: int = 2
    n_heads: int = 2
    embed_dim: int = 64
    vocab_size: int = 1024
    tokens_per_frame: int = 16
    max_frames: int = 9
    mode: str = "frame"
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.embed_dim % self.n_heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}"
            )
        for name in ("n_layers", "n_heads", "embed_dim", "vocab_size",
                     "tokens_per_frame", "max_frames", "mlp_ratio"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

    @property
    def block_size(self) -> int:
        return self.max_frames * self.tokens_per_frame

    @property
    def tokens_per_pass(self) -> int:
        """Positions one forward pass decodes: a whole frame, or one token."""
        return self.tokens_per_frame if self.mode == "frame" else 1


def _layout(config: DynamicsConfig) -> dict:
    """Each parameter's (shape, init(rng, shape)), in the seeded init's draw order."""
    d = config.embed_dim
    hidden = config.mlp_ratio * d

    def gauss(rng, shape):
        return rng.normal(0.0, 0.02, size=shape)

    def ones(rng, shape):
        return np.ones(shape)

    def zeros(rng, shape):
        return np.zeros(shape)

    layout = {
        "tok_emb": ((config.vocab_size, d), gauss),
        "pos_spatial": ((config.tokens_per_frame, d), gauss),
        "pos_temporal": ((config.max_frames, d), gauss),
        "ln_f.g": ((d,), ones),
        "ln_f.b": ((d,), zeros),
        "head.w": ((d, config.vocab_size), gauss),
    }
    for layer in range(config.n_layers):
        prefix = f"l{layer}."
        layout[prefix + "ln1.g"] = ((d,), ones)
        layout[prefix + "ln1.b"] = ((d,), zeros)
        for name in ("wq", "wk", "wv", "wo"):
            layout[prefix + "attn." + name] = ((d, d), gauss)
        for name in ("bq", "bk", "bv", "bo"):
            layout[prefix + "attn." + name] = ((d,), zeros)
        layout[prefix + "ln2.g"] = ((d,), ones)
        layout[prefix + "ln2.b"] = ((d,), zeros)
        layout[prefix + "mlp.w1"] = ((d, hidden), gauss)
        layout[prefix + "mlp.b1"] = ((hidden,), zeros)
        layout[prefix + "mlp.w2"] = ((hidden, d), gauss)
        layout[prefix + "mlp.b2"] = ((d,), zeros)
    return layout


class DynamicsModel:
    """Pre-LN transformer over token grids with a per-call forward counter."""

    def __init__(self, config: DynamicsConfig, seed: int = 0):
        self._adopt(config, init_params(_layout(config), seed))

    def _adopt(self, config: DynamicsConfig, params: dict[str, Tensor]) -> None:
        self.config = config
        self.forward_calls = 0
        self.params: dict[str, Tensor] = params
        # the mask at every length L is this one's top-left (L, L) corner
        k = config.tokens_per_pass
        self._allow = build_block_causal_mask(config.block_size // k, k).allow
        self._allow.flags.writeable = False

    # ---- forward ----------------------------------------------------------

    def _mask_for(self, seq_len: int) -> np.ndarray:
        k = self.config.tokens_per_pass
        if seq_len % k:
            raise ConfigError(f"sequence length {seq_len} is not a multiple of {k}")
        return self._allow[:seq_len, :seq_len]

    def forward_flat(self, tokens: np.ndarray) -> Tensor:
        """One transformer pass over flat token ids (B, L) -> logits (B, L, V).

        L may stop mid-frame (token-mode decoding grows the tail one token
        at a time); positions map to (frame, slot) as p // N and p % N.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"expected (B, L) token ids, got shape {tokens.shape}")
        cfg = self.config
        batch, length = tokens.shape
        if length < 1 or length > cfg.block_size:
            raise ConfigError(
                f"sequence length {length} outside [1, {cfg.block_size}]"
            )
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise ConfigError("token id outside the model vocabulary")
        self.forward_calls += 1

        p = self.params
        positions = np.arange(length)
        pos = p["pos_spatial"].gather_rows(positions % cfg.tokens_per_frame) + p[
            "pos_temporal"
        ].gather_rows(positions // cfg.tokens_per_frame)
        x = p["tok_emb"].gather_rows(tokens) + pos  # (B, L, D)

        mask = self._mask_for(length)
        heads, d = cfg.n_heads, cfg.embed_dim
        head_dim = d // heads
        for layer in range(cfg.n_layers):
            pre = f"l{layer}."
            h = layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])

            def split(t):  # (B, L, D) -> (B, heads, L, head_dim)
                return t.reshape(batch, length, heads, head_dim).transpose((0, 2, 1, 3))

            q = split(h @ p[pre + "attn.wq"] + p[pre + "attn.bq"])
            k = split(h @ p[pre + "attn.wk"] + p[pre + "attn.bk"])
            v = split(h @ p[pre + "attn.wv"] + p[pre + "attn.bv"])
            mixed = attention(q, k, v, mask)
            mixed = mixed.transpose((0, 2, 1, 3)).reshape(batch, length, d)
            x = x + (mixed @ p[pre + "attn.wo"] + p[pre + "attn.bo"])

            h = layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
            h = (h @ p[pre + "mlp.w1"] + p[pre + "mlp.b1"]).gelu()
            x = x + (h @ p[pre + "mlp.w2"] + p[pre + "mlp.b2"])

        x = layer_norm(x, p["ln_f.g"], p["ln_f.b"])
        return x @ p["head.w"]

    def forward(self, token_frames: np.ndarray) -> Tensor:
        """Token grids (T, N) or (B, T, N) -> logits (..., T, N, V).

        In frame mode, logits at (t, i) score token i of frame t+1; in token
        mode, the flattened position p scores token p+1.
        """
        tokens = np.asarray(token_frames)
        single = tokens.ndim == 2
        if single:
            tokens = tokens[None]
        batch, n_frames, n = tokens.shape
        cfg = self.config
        if n != cfg.tokens_per_frame:
            raise ConfigError(f"got {n} tokens per frame, model expects {cfg.tokens_per_frame}")
        if n_frames > cfg.max_frames:
            raise ConfigError(f"{n_frames} frames exceed max_frames {cfg.max_frames}")
        logits = self.forward_flat(tokens.reshape(batch, n_frames * n))
        logits = logits.reshape(batch, n_frames, n, cfg.vocab_size)
        return logits.reshape(logits.shape[1:]) if single else logits


def dynamics_loss(model: DynamicsModel, batch: np.ndarray) -> Tensor:
    """Teacher-forced cross entropy over every predictable position.

    batch is (B, T, N) token ids. With k = tokens_per_pass, flat positions
    [0, T*N - k) score the tokens k positions later: frames 2..T in frame
    mode, tokens 2..T*N of the chain in token mode. Reduced by mean.
    """
    batch = np.asarray(batch)
    if batch.ndim != 3:
        raise ValueError(f"expected (B, T, N) token ids, got shape {batch.shape}")
    cfg = model.config
    if batch.max() >= cfg.vocab_size:
        raise ConfigError("token ids exceed the model vocabulary")
    b, t, n = batch.shape
    if t < 2:
        raise ValueError("need at least 2 frames for a prediction target")
    length, k = t * n, cfg.tokens_per_pass
    logits = model.forward(batch).reshape(b, length, cfg.vocab_size)
    targets = batch.reshape(b, length)[:, k:]
    return cross_entropy_logits(logits.slice_axis(1, 0, length - k), targets)


def _pick_tokens(logits: np.ndarray, temperature: float, rng) -> np.ndarray:
    """Greedy argmax, or temperature sampling when temperature > 0."""
    if temperature <= 0:
        return logits.argmax(axis=-1).astype(np.int32)
    if rng is None:
        raise ValueError("temperature sampling needs an explicit rng")
    scaled = logits / temperature
    scaled -= scaled.max(axis=-1, keepdims=True)
    probs = np.exp(scaled)
    probs /= probs.sum(axis=-1, keepdims=True)
    flat = probs.reshape(-1, probs.shape[-1])
    out = np.array([rng.choice(flat.shape[1], p=row) for row in flat], dtype=np.int32)
    return out.reshape(logits.shape[:-1])


def rollout(
    model: DynamicsModel,
    context_tokens: np.ndarray,
    horizon: int,
    temperature: float = 0.0,
    rng=None,
) -> np.ndarray:
    """Autoregressive forecast of `horizon` frames (T, N) -> (horizon, N).

    Each forward pass runs over the whole sequence so far and appends the
    tokens picked from its last k = tokens_per_pass logits, so a frame
    costs N / k passes.
    """
    cfg = model.config
    n, k = cfg.tokens_per_frame, cfg.tokens_per_pass
    context = np.asarray(context_tokens)
    if context.ndim != 2 or context.shape[1] != n:
        raise ConfigError(f"context must have shape (T, {n}), got {context.shape}")
    t = context.shape[0]
    if t < 1:
        raise ValueError("context must hold at least one frame")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if t + horizon > cfg.max_frames:
        raise HorizonError(
            f"{t} context + {horizon} forecast frames exceed max_frames {cfg.max_frames}"
        )
    seq = np.empty((1, (t + horizon) * n), dtype=np.int64)
    seq[0, : t * n] = context.reshape(-1)
    for length in range(t * n, seq.shape[1], k):
        # one statement, so neither this pass's logits nor its tape outlive it
        seq[0, length : length + k] = _pick_tokens(
            model.forward_flat(seq[:, :length]).data[0, -k:], temperature, rng
        )
    return seq[0, t * n :].reshape(horizon, n).astype(np.int32)


def forecast(
    tokenizer: Tokenizer, model: DynamicsModel, context_frames, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rain rates of the observed frames (T, H, W) -> the next `horizon` frames.

    Tokenizes the context at the tokenizer's data scale, rolls the dynamics
    forward and decodes the predicted ids back to rain rates. Returns (fields,
    ids): float64 (horizon, H, W) and int32 (horizon, H', W').
    """
    data_max = tokenizer.config.data_max
    context = tokenizer.tokenize(normalize(context_frames, data_max))  # (T, H', W')
    ids = rollout(model, context.reshape(context.shape[0], -1), horizon)
    ids = ids.reshape(horizon, *context.shape[1:])
    return denormalize(tokenizer.detokenize(ids), data_max), ids


def train_dynamics(
    model: DynamicsModel,
    token_dataset: np.ndarray,
    train: TrainConfig,
    start_step: int = 0,
):
    """Teacher-forced training over tokenized events (n_events, T, N).

    Returns (model, log rows) with one (step, lr, loss) row per step taken.
    """
    data = np.asarray(token_dataset)
    if data.ndim != 3 or data.shape[0] == 0:
        raise ValueError("token dataset must be non-empty with shape (n_events, T, N)")
    if data.shape[2] != model.config.tokens_per_frame:
        raise ConfigError(
            f"dataset has {data.shape[2]} tokens per frame, model expects "
            f"{model.config.tokens_per_frame}"
        )
    rng = np.random.default_rng(train.seed)
    opt = Adam(model.params, lr=train.lr)
    opt.step_count = start_step
    log = []
    for local_step in range(train.steps):
        step = start_step + local_step + 1
        batch = data[rng.integers(0, data.shape[0], size=train.batch_size)]
        with guarded_step(step):
            lr = warmup_lr(step, train.lr, train.warmup_steps)
            loss = opt.update(dynamics_loss(model, batch), lr)
        log.append((step, opt.lr, loss))
    return model, log


def save_dynamics(model: DynamicsModel, path, step: int = 0) -> None:
    save_model(path, model.config, model.params, step)


def load_dynamics(path) -> tuple[DynamicsModel, int]:
    """Build the model straight from the checkpoint's arrays; nothing is drawn."""
    config, arrays, step = load_model(path, DynamicsConfig)
    model = DynamicsModel.__new__(DynamicsModel)
    model._adopt(config, restore(_layout(config), arrays))
    return model, step


def benchmark_decode(
    model_frame: DynamicsModel,
    model_token: DynamicsModel,
    context_tokens: np.ndarray,
    horizon: int,
    repetitions: int = 50,
    warmup_reps: int = 2,
) -> dict:
    """Compare decode cost of the two regimes on the same context.

    Forward-pass counts are exact; wall-clock statistics exclude warmup runs
    and report the sample std (None with a single repetition).
    """
    if model_frame.config.mode != "frame" or model_token.config.mode != "token":
        raise ConfigError("benchmark needs one frame-mode and one token-mode model")
    if replace(model_frame.config, mode="token") != model_token.config:
        raise ConfigError("benchmark models must share every setting except mode")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")

    def timed(model):
        for _ in range(warmup_reps):
            rollout(model, context_tokens, horizon)
        start_calls = model.forward_calls
        samples = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            rollout(model, context_tokens, horizon)
            samples.append(time.perf_counter() - t0)
        passes = (model.forward_calls - start_calls) // repetitions
        samples = np.asarray(samples)
        std = float(samples.std(ddof=1)) if repetitions > 1 else None
        return passes, float(samples.mean()), std

    frame_passes, frame_mean, frame_std = timed(model_frame)
    token_passes, token_mean, token_std = timed(model_token)
    return {
        "tokens_per_frame": model_frame.config.tokens_per_frame,
        "horizon": horizon,
        "repetitions": repetitions,
        "frame_passes": frame_passes,
        "token_passes": token_passes,
        "pass_ratio": token_passes / frame_passes,
        "frame_wall_mean": frame_mean,
        "frame_wall_std": frame_std,
        "token_wall_mean": token_mean,
        "token_wall_std": token_std,
        "wall_ratio": token_mean / frame_mean,
    }
