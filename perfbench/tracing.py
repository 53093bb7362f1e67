"""Spans and counters recorded from outside the framecast package.

The tracer wraps public functions of each framecast layer and records one
span per call: name, start, end, parent span and operation id. Spans stay in
memory and are written out once the run ends. Nothing under ``src/`` is
changed: every wrapped name is patched where callers look it up, so
``framecast.cli.rollout`` is patched together with
``framecast.dynamics.rollout``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# span record fields, kept as lists for cheap appends
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder plus named counters.

    Recording happens only while ``op`` is set, so output checks and other
    benchmark bookkeeping never show up as spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.op: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording ------------------------------------------------------

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; record nothing when no operation is open."""
        if self.op is None:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][END] = time.perf_counter()

    # ---- patching -------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        """A wrapper recording a span per call; counter(args, kwargs, result)
        yields (key, amount) pairs added to the counters after the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.run(name, fn, *args, **kwargs)
            if counter is not None and tracer.op is not None:
                for key, amount in counter(args, kwargs, result):
                    tracer.counters[key] = tracer.counters.get(key, 0) + int(amount)
            return result

        return traced

    def patch_function(self, module, attr: str, name: str, counter=None) -> None:
        """Replace a module-level function in every framecast module that
        binds it, so calls through any import path are traced."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "framecast" or mod_name.startswith("framecast.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, counter=None) -> None:
        """Replace a plain, static or class method on its class."""
        raw = vars(cls)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(name, raw.__func__, counter))
        else:
            replacement = self.wrap(name, raw, counter)
        self._set(cls, attr, replacement)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- output ---------------------------------------------------------

    def write(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never counts a moment twice or goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, busy (inclusive) time and self time; per
    layer (the name before the first dot): self time."""
    names: dict[str, dict[str, float]] = {}
    layers: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = names.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += span[END] - span[START]
        entry["self_s"] += own
        layer = span[NAME].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return {"names": names, "layers": layers}


def tape_size(output) -> int:
    """Autodiff nodes a backward pass from output would visit, leaf
    parameters included; 0 for a result that records no graph."""
    if not getattr(output, "requires_grad", False):
        return 0
    seen, stack = set(), [output]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every framecast layer with spans.

    Span names are ``<module>.<function>``; the layer of a span is its
    module. Counters: bytes moved by event and checkpoint files, vectors and
    temporary bytes of the quantizer, forward passes and token positions of
    the dynamics model, and the autodiff tape each forward pass records.
    """
    import numpy as np

    from framecast import advection, autodiff, dynamics, eventfile, optim, tokenizer, verification

    def io_counter(layer, index):
        def counter(args, kwargs, result):
            yield f"{layer}.bytes", _file_bytes(args[index])
        return counter

    def quantize_counter(args, kwargs, result):
        z, entries = (np.asarray(getattr(a, "data", a)) for a in args[:2])
        vectors = int(np.prod(z.shape[:-1]))
        yield "tokenizer.quantize_vectors", vectors
        # explicit-difference search: an (M, K, D) temporary of the result dtype
        itemsize = np.result_type(z, entries).itemsize
        yield "tokenizer.quantize_bytes", vectors * entries.shape[0] * entries.shape[1] * itemsize

    def forward_counter(args, kwargs, result):
        yield "dynamics.forward_calls", 1
        yield "dynamics.positions", np.asarray(args[1]).size
        yield "autodiff.tape_nodes", tape_size(result)

    Tokenizer, Model, Tensor = tokenizer.Tokenizer, dynamics.DynamicsModel, autodiff.Tensor
    targets = (
        (advection, "generate_advection_event", "advection.generate", None),
        (eventfile, "read_event", "eventfile.read", io_counter("eventfile", 0)),
        (eventfile, "write_event", "eventfile.write", io_counter("eventfile", 1)),
        (Tokenizer, "load", "checkpoint.load", io_counter("checkpoint", 1)),
        (dynamics, "load_dynamics", "checkpoint.load", io_counter("checkpoint", 0)),
        (Tokenizer, "save", "checkpoint.save", io_counter("checkpoint", 1)),
        (dynamics, "save_dynamics", "checkpoint.save", io_counter("checkpoint", 1)),
        (Tokenizer, "encode", "tokenizer.encode", None),
        (tokenizer, "quantize", "tokenizer.quantize", quantize_counter),
        (Tokenizer, "decode", "tokenizer.decode", None),
        (dynamics, "rollout", "dynamics.rollout", None),
        (Model, "forward_flat", "dynamics.forward", forward_counter),
        (dynamics, "attention", "dynamics.attention", None),
        (dynamics, "dynamics_loss", "dynamics.loss", None),
        (Tensor, "backward", "autodiff.backward", None),
        (Tensor, "gelu", "autodiff.gelu", None),
        (autodiff, "layer_norm", "autodiff.layer_norm", None),
        (optim.Adam, "step", "optim.adam_step", None),
        (verification, "stratify_by_lead_time", "verification.lead_time", None),
        (verification, "stratify_by_percentile_bin", "verification.percentile_bin", None),
        (verification, "evaluate_catchments", "verification.catchments", None),
    )
    for owner, attr, name, counter in targets:
        patch = tracer.patch_method if isinstance(owner, type) else tracer.patch_function
        patch(owner, attr, name, counter)
