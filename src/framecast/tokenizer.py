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

from .autodiff import Tensor, init_params
from .checkpoint import load_model, restore, save_model
from .container import Container, ContainerError
from .optim import Adam, TrainConfig, guarded_step, warmup_lr


# a .tok file stores each token id as uint16, so it addresses at most this many codes
MAX_CODES = 65536


@dataclass(frozen=True)
class TokenizerConfig:
    patch_size: int = 8
    n_codes: int = 1024
    latent_dim: int = 32
    hidden_dim: int = 64
    beta: float = 0.25
    data_max: float = 64.0  # the rain rate that normalizes to 1; fields enter at this scale

    def __post_init__(self):
        if self.patch_size < 1 or self.n_codes < 2 or self.latent_dim < 1 or self.hidden_dim < 1:
            raise ValueError("tokenizer dimensions must be positive (and n_codes >= 2)")
        if self.n_codes > MAX_CODES:
            raise ValueError(f"n_codes must be at most {MAX_CODES}, got {self.n_codes}")
        if not 0.0 < self.beta < float("inf"):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if not 0.0 < self.data_max < float("inf"):
            raise ValueError(f"data_max must be finite and positive, got {self.data_max}")


def init_codebook(n_codes, latent_dim, rng) -> Tensor:
    """Codebook entries near zero; re-jitter until no two rows are identical."""
    entries = rng.uniform(-1.0 / n_codes, 1.0 / n_codes, size=(n_codes, latent_dim))
    while len(np.unique(entries, axis=0)) < n_codes:  # pragma: no cover - vanishing odds
        entries += rng.normal(0.0, 1e-9, size=entries.shape)
    return Tensor(entries, requires_grad=True)


def _gamma(n: int, u: float) -> float:
    """gamma_n = n u / (1 - n u), rounded up."""
    return float(np.nextafter(n * u / (1.0 - n * u), np.inf))


def nearest_code_indices(vectors: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Index of the closest codebook row for each vector (ties: lowest index).

    The result equals the argmin of the explicit scan
    ``((vectors[:, None] - entries[None]) ** 2).sum(-1)`` bit for bit, ties
    and non-finite inputs included, but the (M, K, D) difference tensor is
    never built. One matmul screens the codes, and only the candidates it
    cannot rule out are scored with the scan's own expression.

    Screen. With a = |z|^2, b = |e|^2 and c = z.e, the exact distance is
    d = a - 2c + b. Each of a, b and c is a sum of D products, so its
    computed value is off by at most gamma_D times a, b or |z||e| (any
    summation order, FMA or not; Cauchy-Schwarz for c); gamma_n = n u /
    (1 - n u) and u is the unit roundoff (2^-53 in float64). Two more
    roundings form g = (a - 2c) + b, so

        |g - d| <= gamma_{D+2} (|z| + |e|)^2.

    A product that underflows is off by at most half the smallest
    subnormal s (sums and differences that underflow are exact), so the
    D products in each of a and b and the D doubled ones in 2c add at
    most 2Ds. The bound used is eps = gamma_{D+3} (|z| + |e|)^2 + (4D + 8)s;
    the extra gamma_1 and the spare multiples of s cover the roundings
    made in forming eps itself.

    Candidates. The scan's distance r = sum((z - e)^2) is D squares of
    exact-or-rounded differences summed in some order, so
    |r - d| <= gamma_{D+2} d + A, with A <= Ds/2 from squares that underflow.
    Let U = min_j (g_j + eps_j), reached at code k, and let j* be any code
    with the minimal scan distance r*. Then d_k <= U and

        d_{j*} <= (r* + A) / (1 - gamma_{D+2}) <= (r_k + A) / (1 - gamma_{D+2})
               <= ((1 + gamma_{D+2}) U + 2A) / (1 - gamma_{D+2}),

    while g_{j*} - eps_{j*} <= d_{j*}. So every minimal code passes the test
    g_j - eps_j <= T, with T the right-hand side. The code forms T with
    gamma_{D+8} in place of gamma_{D+2} and (D + 2)s for 2A: the ratio
    (1 + gamma) / (1 - gamma) grows by about 12u, which covers the at most
    seven roundings in forming g - eps, g + eps and T. These slack
    arguments hold for D < 10^7. If r_k overflows, d_k is itself near the
    largest float, so T still exceeds d_{j*}; if every r_j overflows, every
    score below is inf and argmin returns 0, as the scan does.

    Non-finite values. A pair whose g, eps or T is NaN or inf is never
    ruled out (the test is written as ``not (lower > T)``), and min()
    propagates NaN, so a row holding a NaN or inf vector, or meeting a NaN
    code, keeps every code and gets the scan's index, NaN-first argmin
    included. The screen runs with floating-point warnings off because
    those cases are handled this way.

    Recheck. Candidate pairs are scored with the scan's expression, whose
    per-pair sum over the contiguous last axis rounds exactly as the
    scan's does; every other score is inf, so argmin over each row still
    takes the lowest of the minimal indices. Temporaries are O(M K) for
    the screen and O(candidates D) for the recheck; on typical inputs
    about one code per vector survives.
    """
    m, dim = vectors.shape
    info = np.finfo(np.result_type(vectors, entries))
    u, s = info.eps / 2, info.smallest_subnormal
    with np.errstate(all="ignore"):
        a = np.einsum("ij,ij->i", vectors, vectors)
        b = np.einsum("ij,ij->i", entries, entries)
        g = (a[:, None] - 2.0 * (vectors @ entries.T)) + b
        eps = np.sqrt(a)[:, None] + np.sqrt(b)
        eps *= eps
        eps *= _gamma(dim + 3, u)
        eps += (4 * dim + 8) * s
        upper = (g + eps).min(axis=1)
        gamma = _gamma(dim + 8, u)
        bound = upper * ((1.0 + gamma) / (1.0 - gamma)) + (dim + 2) * s / (1.0 - gamma)
        g -= eps
        rows, cols = np.nonzero(~(g > bound[:, None]))
    diff = vectors[rows] - entries[cols]
    scores = np.full((m, entries.shape[0]), np.inf)
    scores[rows, cols] = (diff * diff).sum(axis=-1)
    return scores.argmin(axis=1).astype(np.int32)


def quantize(z_hat: np.ndarray, codebook: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Snap latent vectors (..., dim) to codebook rows (K, dim).

    Returns (indices (...,), z_q (..., dim)); z_q values are bit-exact copies
    of codebook rows.
    """
    if z_hat.shape[-1] != codebook.shape[-1]:
        raise ValueError(
            f"latent dim {z_hat.shape[-1]} does not match codebook dim {codebook.shape[-1]}"
        )
    flat = z_hat.reshape(-1, z_hat.shape[-1])
    idx = nearest_code_indices(flat, codebook)
    z_q = codebook[idx].reshape(z_hat.shape)
    return idx.reshape(z_hat.shape[:-1]), z_q


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


def _layout(config: TokenizerConfig) -> dict:
    """Each parameter's (shape, init(rng, shape)), in the seeded init's draw order."""
    p2 = config.patch_size * config.patch_size
    h, d = config.hidden_dim, config.latent_dim

    def gauss(scale):
        # a zero-scale bias still draws from the rng, and the seeded bytes depend on it
        return lambda rng, shape: rng.normal(0.0, scale, size=shape)

    weight, bias = gauss(0.05), gauss(0.0)
    return {
        "enc.proj.w": ((p2, h), weight),
        "enc.proj.b": ((h,), bias),
        "enc.fc1.w": ((h, h), weight),
        "enc.fc1.b": ((h,), bias),
        "enc.fc2.w": ((h, d), weight),
        "enc.fc2.b": ((d,), bias),
        "dec.fc1.w": ((d, h), weight),
        "dec.fc1.b": ((h,), bias),
        "dec.fc2.w": ((h, h), weight),
        "dec.fc2.b": ((h,), bias),
        "dec.out.w": ((h, p2), weight),
        "dec.out.b": ((p2,), lambda rng, shape: np.full(shape, 0.5)),
        "codebook": ((config.n_codes, d), lambda rng, shape: init_codebook(*shape, rng).data),
    }


class Tokenizer:
    """Patch encoder, codebook, and mirrored decoder."""

    def __init__(self, config: TokenizerConfig, seed: int = 0):
        self._adopt(config, init_params(_layout(config), seed))

    def _adopt(self, config: TokenizerConfig, params: dict[str, Tensor]) -> None:
        self.config = config
        self.codebook = params.pop("codebook")
        self.params: dict[str, Tensor] = params

    # ---- model surface -----------------------------------------------------

    def trainable(self) -> dict[str, Tensor]:
        return {**self.params, "codebook": self.codebook}

    def encode(self, fields) -> Tensor:
        """Normalized fields (H, W) or (B, H, W) -> latents (..., H', W', dim).

        Each patch maps through the shared projection + MLP independently.
        """
        arr = np.asarray(fields, dtype=np.float64)
        single = arr.ndim == 2
        if single:
            arr = arr[None]
        patches = Tensor(_patchify(arr, self.config.patch_size))
        hp, wp = (n // self.config.patch_size for n in arr.shape[1:])
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
        """Normalized fields (H, W) or (B, H, W) -> int32 code indices (..., H', W')."""
        idx, _ = quantize(self.encode(fields).data, self.codebook.data)
        return idx

    def detokenize(self, indices) -> np.ndarray:
        """Code indices (..., H', W') -> normalized fields (..., H, W)."""
        return self.decode(self.codebook.data[indices]).data

    def reconstruct(self, fields) -> np.ndarray:
        """encode -> quantize -> decode, returning plain arrays."""
        return self.detokenize(self.tokenize(fields))

    # ---- persistence ---------------------------------------------------------

    def save(self, path, step: int = 0) -> None:
        save_model(path, self.config, self.trainable(), step)

    @classmethod
    def load(cls, path) -> tuple["Tokenizer", int]:
        """Build the model straight from the checkpoint's arrays; nothing is drawn."""
        config, arrays, step = load_model(path, TokenizerConfig)
        tok = cls.__new__(cls)
        tok._adopt(config, restore(_layout(config), arrays))
        return tok, step


def train_tokenizer(
    tokenizer: Tokenizer,
    fields: np.ndarray,
    train: TrainConfig,
    start_step: int = 0,
):
    """Fit the tokenizer on normalized fields (N, H, W).

    Returns (tokenizer, log rows). Each log row is (step, lr, total, recon,
    codebook_term, commit_term). Codebook entries untouched for a full pass
    over the dataset are re-seeded to encoder outputs from the current batch.
    The codebook size, latent width and beta are the tokenizer's own.
    """
    fields = np.asarray(fields, dtype=np.float64)
    if fields.ndim != 3 or fields.shape[0] == 0:
        raise ValueError("training set must be a non-empty (N, H, W) array")
    config = tokenizer.config
    rng = np.random.default_rng(train.seed)
    opt = Adam(tokenizer.trainable(), lr=train.lr)
    opt.step_count = start_step

    epoch_len = max(1, int(np.ceil(fields.shape[0] / train.batch_size)))
    used = np.zeros(config.n_codes, dtype=bool)
    log = []
    for local_step in range(train.steps):
        step = start_step + local_step + 1
        batch_idx = rng.integers(0, fields.shape[0], size=train.batch_size)

        with guarded_step(step):
            lr = warmup_lr(step, train.lr, train.warmup_steps)
            idx, latents, losses = _vqvae_step(tokenizer, opt, fields[batch_idx], lr)

        used[np.unique(idx)] = True
        if step % epoch_len == 0:
            dead = np.flatnonzero(~used)
            if dead.size:
                # revive dead entries with encoder outputs from this batch
                pool = latents.reshape(-1, config.latent_dim)
                pick = rng.integers(0, pool.shape[0], size=dead.size)
                tokenizer.codebook.data[dead] = pool[pick]
            used[:] = False

        log.append((step, opt.lr, *losses))
    return tokenizer, log


def _vqvae_step(tokenizer: Tokenizer, opt: Adam, batch: np.ndarray, lr: float):
    """One forward, backward and update on a batch of fields.

    Returns (code indices, encoder outputs, (total, recon, codebook_term,
    commit_term)) as arrays and floats, so no tape outlives the step.
    """
    z_hat = tokenizer.encode(batch)
    idx, z_q, st = tokenizer.straight_through(z_hat)
    x_hat = tokenizer.decode(st)
    total, *terms = vqvae_loss(Tensor(batch), x_hat, z_hat, z_q, tokenizer.config.beta)
    terms = [term.item() for term in terms]
    return idx, z_hat.data, (opt.update(total, lr), *terms)


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
    """Store token indices (T, H', W') as uint16 (valid while n_codes <= MAX_CODES)."""
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    if indices.ndim != 3:
        raise ValueError(f"token stack must be (T, H', W'), got {indices.shape}")
    if n_codes > MAX_CODES:
        raise ValueError(f"uint16 payload cannot address more than {MAX_CODES} codes")
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

