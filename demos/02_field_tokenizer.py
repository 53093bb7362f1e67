#!/usr/bin/env python3
"""Discrete tokenization: patches, codebook quantization, reconstruction.

Trains a small tokenizer on drifting-blob fields, then inspects what the
codebook learned: reconstruction error, code usage, and the loss components
(reconstruction, codebook pull, commitment).
"""

import numpy as np

from framecast import AdvectionParams, generate_advection_event, normalize, quantize
from framecast.optim import TrainConfig
from framecast.tokenizer import Tokenizer, TokenizerConfig, train_tokenizer

DATA_MAX = 50.0

print("1. Build a training set of normalized fields")
print("--------------------------------------------")
events = [
    generate_advection_event(AdvectionParams(velocity=(3.0, 1.0), seed=s), 6, (16, 16))
    for s in range(12)
]
fields = normalize(np.concatenate([e.frames for e in events]), DATA_MAX)
print(f"   {fields.shape[0]} fields of {fields.shape[1]}x{fields.shape[2]}, "
      f"values in [{fields.min():.2f}, {fields.max():.2f}]")

print()
print("2. Train a toy tokenizer (4x4 patches -> 4x4 token grid, 64 codes)")
print("------------------------------------------------------------------")
config = TokenizerConfig(patch_size=4, n_codes=64, latent_dim=8, hidden_dim=32,
                         data_max=DATA_MAX)
train = TrainConfig(steps=800, batch_size=8, lr=3e-3, warmup_steps=50, seed=0)
tokenizer, log = train_tokenizer(Tokenizer(config, seed=train.seed), fields, train)
for step in (1, 200, 400, 800):
    row = log[step - 1]
    print(f"   step {row[0]:4d}: total {row[2]:8.3f} = recon {row[3]:8.3f} "
          f"+ codebook {row[4]:7.3f} + commit {row[5]:7.3f}")

print()
print("3. Reconstruction quality")
print("-------------------------")
recon = tokenizer.reconstruct(fields[:12])
err = np.abs(recon - fields[:12]).mean()
print(f"   per-pixel reconstruction error on 12 fields: {err:.4f} (normalized units)")

print()
print("4. What the quantizer does")
print("--------------------------")
indices = tokenizer.tokenize(normalize(events[0].frames, tokenizer.config.data_max))
used = np.unique(indices)
print(f"   event of {indices.shape[0]} frames -> token grids {indices.shape[1:]}, "
      f"{used.size} distinct codes in use")
print(f"   frame 0 tokens:\n{indices[0]}")
z = tokenizer.encode(fields[0])
idx, z_q = quantize(z.data, tokenizer.codebook.data)
row = idx.reshape(-1)[0]
print(f"   first latent vector snaps to code {row}; quantized vector is an exact "
      f"codebook row: {np.array_equal(z_q.reshape(-1, 8)[0], tokenizer.codebook.data[row])}")
