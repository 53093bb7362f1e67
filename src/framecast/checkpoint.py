"""Parameter checkpoints: named arrays plus scalar metadata.

A checkpoint is a container (see ``container``) with the magic ``CKPT1``,
zero or more ``meta key value`` lines (sorted by key), one ``param name
dtype dim0,dim1,...`` line per array (sorted by name, so the ordering is
deterministic; ``scalar`` for 0-d arrays), and the arrays concatenated in
header order. A model checkpoint stores its config's fields plus ``step``
as meta; ``load_model`` and ``restore`` read one back strictly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, fields

import numpy as np

from .autodiff import Tensor
from .container import Container, ContainerError
from .errors import FramecastError

_DTYPES = {"f4": "<f4", "f8": "<f8"}


class CheckpointError(ContainerError):
    """Malformed checkpoint file, or one that does not match the model."""


_CKPT = Container("CKPT1", CheckpointError)


def save_checkpoint(path, params: dict, meta: dict | None = None) -> None:
    """Write named arrays (or Tensors) plus scalar metadata to path.

    Names and meta keys must be non-empty without whitespace, and meta
    values must satisfy the container's header rules on their own. A text
    value must not look like a number, so that it reads back as text.
    """
    meta = meta or {}
    for name in [*params, *meta]:
        if str(name).split() != [str(name)]:
            raise CheckpointError(f"checkpoint name {name!r} is empty or holds whitespace")
    if any(str(value)[:1].isspace() for value in meta.values()):
        raise CheckpointError("a meta value starts with whitespace")
    for key, value in meta.items():
        if isinstance(value, str) and not isinstance(_parse_meta_value(value), str):
            raise CheckpointError(f"meta {key} text {value!r} would read back as a number")
    header = [("meta", f"{key} {value}") for key, value in sorted(meta.items())]
    arrays = {}
    for name, value in params.items():
        arr = value.data if isinstance(value, Tensor) else np.asarray(value)
        arrays[name] = np.ascontiguousarray(arr, dtype="<f4" if arr.dtype == np.float32 else "<f8")

    for name, arr in sorted(arrays.items()):
        dims = ",".join(str(d) for d in arr.shape) if arr.ndim else "scalar"
        header.append(("param", f"{name} {arr.dtype.str[1:]} {dims}"))
    _CKPT.write(path, header, b"".join(arr.tobytes() for _, arr in sorted(arrays.items())))


def _parse_meta_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_dims(dims: str) -> tuple[int, ...]:
    if dims == "scalar":
        return ()
    parts = dims.split(",")
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise CheckpointError(f"malformed dims {dims!r}")
    return tuple(int(p) for p in parts)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read back (arrays, meta) from a checkpoint file."""
    header, payload = _CKPT.read(path)
    meta: dict = {}
    entries: dict[str, tuple[np.dtype, tuple[int, ...]]] = {}
    for kind, value in header:
        parts = value.split()
        if kind == "meta" and len(parts) >= 2 and parts[0] not in meta:
            meta[parts[0]] = _parse_meta_value(value.split(None, 1)[1])
        elif kind == "param" and len(parts) == 3 and parts[0] not in entries:
            name, code, dims = parts
            if code not in _DTYPES:
                raise CheckpointError(f"unknown dtype code {code!r}")
            entries[name] = (np.dtype(_DTYPES[code]), _parse_dims(dims))
        else:
            raise CheckpointError(f"malformed or repeated header line: {kind} {value}")

    counts = {name: math.prod(shape) for name, (_, shape) in entries.items()}
    _CKPT.expect(payload, sum(counts[name] * dtype.itemsize for name, (dtype, _) in entries.items()))
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, (dtype, shape) in entries.items():
        arrays[name] = np.frombuffer(payload, dtype, counts[name], offset).reshape(shape).copy()
        offset += counts[name] * dtype.itemsize
    return arrays, meta


# ---- model checkpoints -----------------------------------------------------


def save_model(path, config, params: dict, step: int) -> None:
    """Checkpoint a model's params with every field of its config and step as meta."""
    save_checkpoint(path, params, meta={**asdict(config), "step": step})


def load_model(path, config_type) -> tuple[object, dict[str, np.ndarray], int]:
    """Read a model checkpoint back as (config, arrays, step).

    The meta must hold exactly config_type's fields and step, each parsing
    as its field's type; pass the arrays to ``restore`` once the model is built.
    """
    arrays, meta = load_checkpoint(path)
    kinds = {f.name: type(f.default) for f in fields(config_type)} | {"step": int}
    _check_names("meta key", kinds, meta)
    try:
        values = {key: kind(str(meta[key])) for key, kind in kinds.items()}
        step = values.pop("step")
        return config_type(**values), arrays, step
    except (ValueError, FramecastError) as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc


def restore(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Load arrays into a model's parameters; names, shapes and the float64
    dtype must match exactly."""
    _check_names("parameter", params, arrays)
    for name, tensor in params.items():
        if arrays[name].shape != tensor.data.shape:
            raise CheckpointError(f"parameter {name!r} has shape {arrays[name].shape}, "
                                  f"the model expects {tensor.data.shape}")
        if arrays[name].dtype != np.float64:
            raise CheckpointError(f"parameter {name!r} is {arrays[name].dtype}, "
                                  "the model expects float64")
        tensor.data = arrays[name]


def _check_names(what: str, expected, found) -> None:
    missing, extra = sorted(set(expected) - set(found)), sorted(set(found) - set(expected))
    if missing or extra:
        raise CheckpointError(f"{what} names differ from the model: missing {missing}, extra {extra}")
