"""Discrete tokenization of precipitation fields.

A field normalized to [0, 1] is cut into non-overlapping patches, each patch
is mapped to a latent vector by a small shared MLP, and every latent vector
snaps to its nearest codebook entry. The decoder mirrors the encoder and the
whole stack trains end to end with the straight-through estimator: the
forward pass uses the quantized vectors, the reconstruction gradient flows
back to the encoder as if quantization were the identity.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, parameter
from .checkpoint import load_model, restore, save_model
from .container import Container, ContainerError
from .fields import EventSequence, denormalize, normalize
from .optim import Adam, warmup_lr


@dataclass(frozen=True)
class TokenGrid:
    """Grid of codebook indices for one frame."""

    indices: np.ndarray  # (H', W') integers
    n_codes: int

    def __post_init__(self):
        indices = np.ascontiguousarray(self.indices, dtype=np.int32)
        if indices.ndim != 2:
            raise ValueError(f"token grid must be 2D, got shape {indices.shape}")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_codes):
            raise ValueError(f"token index out of range [0, {self.n_codes})")
        object.__setattr__(self, "indices", indices)

    @property
    def h_lat(self) -> int:
        return self.indices.shape[0]

    @property
    def w_lat(self) -> int:
        return self.indices.shape[1]

    @property
    def tokens_per_frame(self) -> int:
        return self.indices.size


@dataclass(frozen=True)
class TokenizerConfig:
    patch_size: int = 8
    n_codes: int = 1024
    latent_dim: int = 32
    hidden_dim: int = 64
    beta: float = 0.25

    def __post_init__(self):
        if self.patch_size < 1 or self.n_codes < 2 or self.latent_dim < 1 or self.hidden_dim < 1:
            raise ValueError("tokenizer dimensions must be positive (and n_codes >= 2)")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def init_codebook(n_codes, latent_dim, rng, dtype=np.float64) -> Tensor:
    """Codebook entries near zero; re-jitter until no two rows are identical."""
    entries = rng.uniform(-1.0 / n_codes, 1.0 / n_codes, size=(n_codes, latent_dim))
    while len(np.unique(entries, axis=0)) < n_codes:  # pragma: no cover - vanishing odds
        entries += rng.normal(0.0, 1e-9, size=entries.shape)
    return Tensor(entries.astype(dtype), requires_grad=True)


def nearest_code_indices(vectors: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Index of the closest codebook row for each vector (ties: lowest index).

    Distances are computed as explicit squared differences so results agree
    exactly with a per-entry scan.
    """
    diff = vectors[:, None, :] - entries[None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    return d2.argmin(axis=1).astype(np.int32)


def quantize(z_hat, codebook) -> tuple[np.ndarray, np.ndarray]:
    """Snap latent vectors (..., dim) to codebook rows.

    Returns (indices (...,), z_q (..., dim)); z_q values are bit-exact copies
    of codebook rows.
    """
    z = z_hat.data if isinstance(z_hat, Tensor) else np.asarray(z_hat)
    entries = codebook.data if isinstance(codebook, Tensor) else np.asarray(codebook)
    if z.shape[-1] != entries.shape[-1]:
        raise ValueError(
            f"latent dim {z.shape[-1]} does not match codebook dim {entries.shape[-1]}"
        )
    flat = z.reshape(-1, z.shape[-1])
    idx = nearest_code_indices(flat, entries)
    z_q = entries[idx].reshape(z.shape)
    return idx.reshape(z.shape[:-1]), z_q


def vqvae_loss(x, x_hat, z_hat, z_q, beta) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """(total, recon, codebook_term, commit_term) with stop-gradient routing.

    recon = ||x - x_hat||^2 reaches the decoder (and the encoder through the
    straight-through copy); codebook_term = beta * ||sg[z_hat] - z_q||^2
    moves only the codebook; commit_term = ||sg[z_q] - z_hat||^2 moves only
    the encoder.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    x_hat = x_hat if isinstance(x_hat, Tensor) else Tensor(x_hat)
    z_hat = z_hat if isinstance(z_hat, Tensor) else Tensor(z_hat)
    z_q = z_q if isinstance(z_q, Tensor) else Tensor(z_q)

    recon = ((x - x_hat) ** 2).sum()
    d_code = z_hat.detach() - z_q
    codebook_term = (d_code * d_code).sum() * beta
    d_commit = z_q.detach() - z_hat
    commit_term = (d_commit * d_commit).sum()
    total = recon + codebook_term + commit_term
    return total, recon, codebook_term, commit_term


def _patchify(fields: np.ndarray, patch: int) -> np.ndarray:
    """(B, H, W) -> (B, H'*W', patch*patch), row-major patch order."""
    b, h, w = fields.shape
    if h % patch or w % patch:
        raise ValueError(f"grid {h}x{w} is not divisible by patch size {patch}")
    hp, wp = h // patch, w // patch
    out = fields.reshape(b, hp, patch, wp, patch).transpose(0, 1, 3, 2, 4)
    return out.reshape(b, hp * wp, patch * patch)


class Tokenizer:
    """Patch encoder, codebook, and mirrored decoder."""

    def __init__(self, config: TokenizerConfig, seed: int = 0, dtype=np.float64):
        self.config = config
        rng = np.random.default_rng(seed)
        p2 = config.patch_size * config.patch_size
        h, d = config.hidden_dim, config.latent_dim

        def param(shape, scale=0.05):
            return parameter(rng, shape, scale=scale, dtype=dtype)

        self.params: dict[str, Tensor] = {
            "enc.proj.w": param((p2, h)),
            "enc.proj.b": param((h,), scale=0.0),
            "enc.fc1.w": param((h, h)),
            "enc.fc1.b": param((h,), scale=0.0),
            "enc.fc2.w": param((h, d)),
            "enc.fc2.b": param((d,), scale=0.0),
            "dec.fc1.w": param((d, h)),
            "dec.fc1.b": param((h,), scale=0.0),
            "dec.fc2.w": param((h, h)),
            "dec.fc2.b": param((h,), scale=0.0),
            "dec.out.w": param((h, p2)),
            "dec.out.b": Tensor(np.full(p2, 0.5, dtype=dtype), requires_grad=True),
        }
        self.codebook = init_codebook(config.n_codes, d, rng, dtype=dtype)

    # ---- model surface -----------------------------------------------------

    def trainable(self) -> dict[str, Tensor]:
        return {**self.params, "codebook": self.codebook}

    def latent_grid_shape(self, height, width) -> tuple[int, int]:
        p = self.config.patch_size
        if height % p or width % p:
            raise ValueError(f"grid {height}x{width} is not divisible by patch size {p}")
        return height // p, width // p

    def encode(self, fields) -> Tensor:
        """Normalized fields (H, W) or (B, H, W) -> latents (..., H', W', dim).

        Each patch maps through the shared projection + MLP independently.
        """
        arr = np.asarray(fields, dtype=np.float64)
        single = arr.ndim == 2
        if single:
            arr = arr[None]
        hp, wp = self.latent_grid_shape(arr.shape[1], arr.shape[2])
        patches = Tensor(_patchify(arr, self.config.patch_size))
        p = self.params
        h = (patches @ p["enc.proj.w"] + p["enc.proj.b"]).gelu()
        h = (h @ p["enc.fc1.w"] + p["enc.fc1.b"]).gelu()
        z = h @ p["enc.fc2.w"] + p["enc.fc2.b"]
        z = z.reshape(arr.shape[0], hp, wp, self.config.latent_dim)
        return z.reshape(hp, wp, self.config.latent_dim) if single else z

    def decode(self, z_q) -> Tensor:
        """Latents (..., H', W', dim) -> fields (..., H, W) clamped to [0, 1]."""
        z = z_q if isinstance(z_q, Tensor) else Tensor(z_q)
        single = len(z.shape) == 3
        if single:
            z = z.reshape((1,) + z.shape)
        b, hp, wp, dim = z.shape
        if dim != self.config.latent_dim:
            raise ValueError(f"latent dim {dim} does not match {self.config.latent_dim}")
        p = self.params
        patch = self.config.patch_size
        flat = z.reshape(b, hp * wp, dim)
        h = (flat @ p["dec.fc1.w"] + p["dec.fc1.b"]).gelu()
        h = (h @ p["dec.fc2.w"] + p["dec.fc2.b"]).gelu()
        out = (h @ p["dec.out.w"] + p["dec.out.b"]).clip01()
        out = out.reshape(b, hp, wp, patch, patch)
        out = out.transpose((0, 1, 3, 2, 4)).reshape(b, hp * patch, wp * patch)
        return out.reshape(out.shape[1:]) if single else out

    def straight_through(self, z_hat: Tensor) -> tuple[np.ndarray, Tensor, Tensor]:
        """Quantize with gradient pass-through.

        Returns (indices, z_q from codebook rows, straight-through latents
        whose forward value is z_q but whose gradient reaches z_hat).
        """
        idx, _ = quantize(z_hat.data, self.codebook.data)
        z_q = self.codebook.gather_rows(idx)
        st = z_hat + (z_q - z_hat).detach()
        return idx, z_q, st

    def tokenize(self, fields) -> np.ndarray:
        """Normalized fields (H, W) or (B, H, W) -> code indices (..., H', W')."""
        idx, _ = quantize(self.encode(fields).data, self.codebook.data)
        return idx

    def detokenize(self, indices) -> np.ndarray:
        """Code indices (..., H', W') -> normalized fields (..., H, W)."""
        return self.decode(self.codebook.data[indices]).data

    def reconstruct(self, fields) -> np.ndarray:
        """encode -> quantize -> decode, returning plain arrays."""
        return self.detokenize(self.tokenize(fields))

    # ---- event-level API ----------------------------------------------------

    def tokenize_event(self, event: EventSequence, data_max: float) -> list[TokenGrid]:
        """Per-frame encode + quantize; one TokenGrid per frame."""
        idx = self.tokenize(normalize(event.frames, data_max))
        return [TokenGrid(frame_idx, self.config.n_codes) for frame_idx in idx]

    def detokenize_event(
        self,
        grids: list[TokenGrid],
        data_max: float,
        context_len: int,
        step_minutes: int = 30,
        seed: int | None = None,
    ) -> EventSequence:
        """Codebook lookup + decode per frame, back to rain rates."""
        fields = self.detokenize(stack_token_grids(grids))
        frames = denormalize(fields, data_max).astype(np.float32)
        return EventSequence(
            frames,
            context_len=context_len,
            step_minutes=step_minutes,
            data_max=data_max,
            seed=seed,
        )

    # ---- persistence ---------------------------------------------------------

    def save(self, path, step: int = 0) -> None:
        save_model(path, self.config, self.trainable(), step)

    @classmethod
    def load(cls, path) -> tuple["Tokenizer", int]:
        config, arrays, step = load_model(path, TokenizerConfig)
        tok = cls(config, seed=0)
        restore(tok.trainable(), arrays)
        return tok, step


@dataclass(frozen=True)
class TokenizerTrainConfig:
    steps: int = 2000
    batch_size: int = 8
    lr: float = 1e-4
    warmup_steps: int = 10000
    seed: int = 0


def train_tokenizer(
    fields: np.ndarray,
    config: TokenizerConfig,
    train: TokenizerTrainConfig,
    tokenizer: Tokenizer | None = None,
    start_step: int = 0,
):
    """Fit the tokenizer on normalized fields (N, H, W).

    Returns (tokenizer, log rows). Each log row is (step, lr, total, recon,
    codebook_term, commit_term). Codebook entries untouched for a full pass
    over the dataset are re-seeded to encoder outputs from the current batch.
    """
    fields = np.asarray(fields, dtype=np.float64)
    if fields.ndim != 3 or fields.shape[0] == 0:
        raise ValueError("training set must be a non-empty (N, H, W) array")
    rng = np.random.default_rng(train.seed)
    if tokenizer is None:
        tokenizer = Tokenizer(config, seed=train.seed)
    opt = Adam(tokenizer.trainable(), lr=train.lr)
    opt.step_count = start_step

    epoch_len = max(1, int(np.ceil(fields.shape[0] / train.batch_size)))
    used = np.zeros(config.n_codes, dtype=bool)
    log = []
    for local_step in range(train.steps):
        step = start_step + local_step + 1
        batch_idx = rng.integers(0, fields.shape[0], size=train.batch_size)
        batch = fields[batch_idx]

        z_hat = tokenizer.encode(batch)
        idx, z_q, st = tokenizer.straight_through(z_hat)
        x_hat = tokenizer.decode(st)
        total, recon, code, commit = vqvae_loss(
            Tensor(batch), x_hat, z_hat, z_q, config.beta
        )

        opt.zero_grad()
        total.backward()
        opt.lr = warmup_lr(step, train.lr, train.warmup_steps)
        opt.step()

        used[np.unique(idx)] = True
        if step % epoch_len == 0:
            dead = np.flatnonzero(~used)
            if dead.size:
                # revive dead entries with encoder outputs from this batch
                pool = z_hat.data.reshape(-1, config.latent_dim)
                pick = rng.integers(0, pool.shape[0], size=dead.size)
                tokenizer.codebook.data[dead] = pool[pick]
            used[:] = False

        log.append(
            (step, opt.lr, total.item(), recon.item(), code.item(), commit.item())
        )
    return tokenizer, log


def write_loss_log(path, rows, header) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ---- .tok container ------------------------------------------------------


class TokenFileError(ContainerError):
    """Malformed .tok file."""


_TOK = Container("TOK1", TokenFileError)
_TOK_HEADER = {"n_frames": int, "h_lat": int, "w_lat": int, "n_codes": int}


def write_tokens(path, indices: np.ndarray, n_codes: int) -> None:
    """Store token indices (T, H', W') as uint16 (valid while n_codes <= 65536)."""
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    if indices.ndim != 3:
        raise ValueError(f"token stack must be (T, H', W'), got {indices.shape}")
    if n_codes > 65536:
        raise ValueError("uint16 payload cannot address more than 65536 codes")
    if indices.size and (indices.min() < 0 or indices.max() >= n_codes):
        raise ValueError("token index out of range")
    header = zip(_TOK_HEADER, (*indices.shape, n_codes))
    _TOK.write(path, header, indices.astype("<u2").tobytes())


def read_tokens(path) -> tuple[np.ndarray, int]:
    """Read back (indices (T, H', W') int32, n_codes)."""
    header, payload = _TOK.read(path)
    t, hp, wp, n_codes = _TOK.fields(header, _TOK_HEADER).values()
    if min(t, hp, wp, n_codes) < 0:
        raise TokenFileError(f"negative token header value: {t}, {hp}, {wp}, {n_codes}")
    _TOK.expect(payload, t * hp * wp * 2)
    idx = np.frombuffer(payload, dtype="<u2").reshape(t, hp, wp).astype(np.int32)
    if idx.size and idx.max() >= n_codes:
        raise TokenFileError(f"token index {idx.max()} out of range [0, {n_codes})")
    return idx, n_codes


def stack_token_grids(grids: list[TokenGrid]) -> np.ndarray:
    """(T, H', W') index array from a per-frame TokenGrid list."""
    return np.stack([g.indices for g in grids])
