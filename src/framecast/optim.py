"""Adam with bias correction, the linear warmup schedule and the guard
both training loops run each step under."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError


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
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * g * g
            m_hat = self._m[i] / (1.0 - self.beta1**t)
            v_hat = self._v[i] / (1.0 - self.beta2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def update(self, loss: Tensor, lr: float) -> None:
        """Backward from a finite scalar loss, then one step at lr.

        A non-finite loss raises FloatingPointError before any parameter
        moves.
        """
        if not np.isfinite(loss.item()):
            raise FloatingPointError(f"loss is {loss.item()}")
        for p in self.params:
            p.grad = None
        loss.backward()
        self.lr = lr
        self.step()


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
