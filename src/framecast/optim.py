"""Adam with bias correction, the linear warmup schedule, the settings
both training loops share and the guard they run each step under."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one training run, for the tokenizer or the dynamics model."""

    steps: int
    batch_size: int = 8
    lr: float = 1e-4
    warmup_steps: int = 10000
    seed: int = 0


def warmup_lr(step: int, base_lr: float, warmup_steps: int) -> float:
    """Linear ramp to base_lr over warmup_steps, constant afterwards."""
    if warmup_steps < 1:
        raise ValueError("warmup_steps must be at least 1")
    return base_lr * min(1.0, step / warmup_steps)


class Adam:
    """First/second-moment optimizer; beta1=0.9, beta2=0.999, eps=1e-8.

    Parameters with a None gradient are left untouched. The step counter
    starts at 0 and is included in checkpoints so resumed runs continue it.
    """

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        if isinstance(params, dict):
            params = list(params.values())
        self.params: list[Tensor] = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update of every parameter with a gradient, in place:
        m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * g * g,
        p -= lr * m_hat / (sqrt(v_hat) + eps) with the bias-corrected
        m_hat = m / (1 - beta1**t) and v_hat = v / (1 - beta2**t), op by op
        in that order, in two temporaries."""
        self.step_count += 1
        t = self.step_count
        m_scale, v_scale = 1.0 - self.beta1**t, 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            step = np.multiply(g, 1.0 - self.beta1)
            m += step
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=step)
            step *= g
            v += step
            np.divide(m, m_scale, out=step)
            step *= self.lr
            denom = v / v_scale
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p.data -= step

    def update(self, loss: Tensor, lr: float) -> float:
        """Backward from a finite scalar loss, then one step at lr; returns
        the loss value, so a caller can log it without keeping the tape.

        A non-finite loss raises FloatingPointError before any parameter
        moves.
        """
        value = loss.item()
        if not np.isfinite(value):
            raise FloatingPointError(f"loss is {value}")
        for p in self.params:
            p.grad = None
        loss.backward()
        self.lr = lr
        self.step()
        return value


@contextmanager
def guarded_step(step: int):
    """Run one training step (forward, backward and update) under
    np.errstate(over="raise"). An overflow in it, or a non-finite loss
    refused by Adam.update, stops the run with a ConfigError naming the
    step, before the caller writes anything."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(f"training diverged at step {step}: {exc}") from exc
