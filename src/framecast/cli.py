"""Command-line pipeline driver.

Subcommands: gen-data, train-tokenizer, train-dynamics, forecast, evaluate,
benchmark. Global flags (--config, --seed, --out) come before the
subcommand. Exit codes: 0 success, 2 configuration error, 3 missing
pipeline dependency, 4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

from .advection import AdvectionParams, generate_advection_event
from .config import RunConfig, load_config
from .container import ContainerError
from .dynamics import (
    MODES,
    DynamicsModel,
    benchmark_decode,
    forecast,
    load_dynamics,
    save_dynamics,
    train_dynamics,
)
from .errors import ConfigError, DependencyError, HorizonError
from .eventfile import read_event, read_events, write_event, write_manifest
from .fields import EventSequence, filter_events, normalize
from .tokenizer import (
    Tokenizer,
    train_tokenizer,
    write_loss_log,
    write_tokens,
)
from .verification import evaluate_runs

# Published full-scale reference timings (seconds per batch) for context in
# benchmark reports; desk-scale runs do not reproduce them.
REFERENCE_TIMINGS = (
    ("token-autoregressive baseline", 7.09),
    ("residual-diffusion baseline", 8.17),
    ("frame-autoregressive model", 0.26),
)


# glibc's <malloc.h> parameters, and the values the CLI process runs with. A
# taped pass frees its whole graph when it ends. By default glibc then trims
# the top of the heap and unmaps large arrays, so the next pass faults the
# same pages in again. These values keep freed memory for reuse and serve
# arrays up to 32 MiB (glibc's largest allowed threshold) from the heap.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
HEAP_POLICY = ((M_TRIM_THRESHOLD, 1 << 30), (M_MMAP_THRESHOLD, 32 << 20))


@functools.cache
def _libc_mallopt():
    """glibc's mallopt, or None under any other C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


def keep_freed_heap() -> bool:
    """Apply HEAP_POLICY to this process; False where it could not be set.

    Only the allocator's reuse of freed memory changes, never a result.
    """
    mallopt = _libc_mallopt()
    if mallopt is None:
        return False
    return all([mallopt(param, value) == 1 for param, value in HEAP_POLICY])


def _paths(cfg: RunConfig, out: str | None):
    base = Path(out) if out else None
    data = base / "data" if base else Path(cfg.data_dir)
    ckpt = base / "checkpoints" if base else Path(cfg.checkpoint_dir)
    report = base / "reports" if base else Path(cfg.report_dir)
    return data, ckpt, report


def _tokenizer_path(ckpt_dir: Path) -> Path:
    return ckpt_dir / "tokenizer.ckpt"


def _dynamics_path(ckpt_dir: Path, mode: str) -> Path:
    return ckpt_dir / f"dynamics_{mode}.ckpt"


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise DependencyError(f"missing artifact {path}; run `{stage}` first")
    return path


def _load_dynamics(path: Path, mode: str) -> tuple[DynamicsModel, int]:
    """A dynamics checkpoint stored under a mode's name must hold that mode."""
    model, step = load_dynamics(path)
    if model.config.mode != mode:
        raise ConfigError(
            f"dynamics {path} is a {model.config.mode}-mode checkpoint, expected {mode} mode"
        )
    return model, step


def _check_pair(tokenizer: Tokenizer, tok_path: Path, model: DynamicsModel, dyn_path: Path) -> None:
    """The dynamics model predicts ids into the tokenizer's codebook, so its
    vocabulary must be exactly that codebook."""
    if model.config.vocab_size != tokenizer.config.n_codes:
        raise ConfigError(
            f"dynamics {dyn_path} has vocab_size {model.config.vocab_size} but tokenizer "
            f"{tok_path} has n_codes {tokenizer.config.n_codes}; they must be equal"
        )


def _load_models(ckpt_dir: Path, modes) -> tuple[Tokenizer, dict[str, DynamicsModel]]:
    """The tokenizer and each mode's dynamics model, checked to run as a pair."""
    tok_path = _require(_tokenizer_path(ckpt_dir), "train-tokenizer")
    tokenizer, _ = Tokenizer.load(tok_path)
    models = {}
    for mode in modes:
        path = _require(_dynamics_path(ckpt_dir, mode), f"train-dynamics --mode {mode}")
        models[mode], _ = _load_dynamics(path, mode)
        _check_pair(tokenizer, tok_path, models[mode], path)
    return tokenizer, models


def _load_dataset(data_dir: Path) -> list[EventSequence]:
    manifest = _require(data_dir / "manifest.txt", "gen-data")
    events = read_events(manifest)
    if not events:
        raise DependencyError(f"manifest {manifest} lists no events; run `gen-data` first")
    return events


# ---- subcommands -------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig, args) -> int:
    if args.n_events is not None:
        cfg = cfg.with_overrides(n_events=args.n_events)
    data_dir, _, _ = _paths(cfg, args.out)
    data_dir.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(max(cfg.n_events, 1), dtype=np.uint64)

    events, paths = [], []
    for i in range(cfg.n_events):
        params = AdvectionParams(
            velocity=(cfg.velocity_u, cfg.velocity_v),
            n_blobs=cfg.n_blobs,
            blob_amplitude=(cfg.blob_amplitude_min, cfg.blob_amplitude_max),
            blob_radius=(cfg.blob_radius_min, cfg.blob_radius_max),
            growth_rate=cfg.growth_rate,
            seed=int(seeds[i]),
        )
        event = generate_advection_event(
            params,
            cfg.n_frames,
            (cfg.grid_h, cfg.grid_w),
            context_len=cfg.context_len,
            step_minutes=cfg.step_minutes,
            data_max=cfg.data_max,
        )
        path = data_dir / f"event_{i:04d}.evt"
        write_event(event, path)
        events.append(event)
        paths.append(path.name)

    write_manifest(paths, data_dir / "events_all.txt", comment="every generated event")
    if events:
        kept = filter_events(events, cfg.filter_percentile)
        kept_ids = {id(e) for e in kept}
        kept_paths = [p for e, p in zip(events, paths) if id(e) in kept_ids]
    else:
        kept_paths = []
    write_manifest(
        kept_paths,
        data_dir / "manifest.txt",
        comment=f"events above the {cfg.filter_percentile:g}th percentile of mean rate",
    )
    print(f"wrote {cfg.n_events} events, kept {len(kept_paths)} after filtering -> {data_dir}")
    return 0


def cmd_train_tokenizer(cfg: RunConfig, args) -> int:
    data_dir, ckpt_dir, report_dir = _paths(cfg, args.out)
    events = _load_dataset(data_dir)
    ckpt = _tokenizer_path(ckpt_dir)
    if args.resume and ckpt.exists():
        tokenizer, start_step = Tokenizer.load(ckpt)
    else:
        tokenizer, start_step = Tokenizer(cfg.tokenizer_config(), seed=cfg.seed), 0
    # made only now, so a tokenizer config error leaves nothing behind
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    report_dir.mkdir(parents=True, exist_ok=True)
    # a resumed tokenizer keeps the data scale it was created with
    fields = normalize(np.concatenate([e.frames for e in events]), tokenizer.config.data_max)
    tokenizer, log = train_tokenizer(
        tokenizer, fields, cfg.train_config(cfg.tokenizer_steps), start_step=start_step
    )
    tokenizer.save(ckpt, step=start_step + len(log))
    write_loss_log(
        report_dir / "tokenizer_loss.csv",
        log,
        header=("step", "lr", "total", "recon", "codebook", "commit"),
    )
    final = log[-1][2] if log else float("nan")
    print(f"tokenizer trained for {len(log)} steps (final loss {final:.6g}) -> {ckpt}")
    return 0


def cmd_train_dynamics(cfg: RunConfig, args) -> int:
    data_dir, ckpt_dir, report_dir = _paths(cfg, args.out)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    report_dir.mkdir(parents=True, exist_ok=True)
    mode = args.mode or cfg.mode
    tok_path = _require(_tokenizer_path(ckpt_dir), "train-tokenizer")
    tokenizer, _ = Tokenizer.load(tok_path)
    events = _load_dataset(data_dir)
    data_max = tokenizer.config.data_max
    tokens = np.stack([tokenizer.tokenize(normalize(e.frames, data_max)) for e in events])
    tokens = tokens.reshape(tokens.shape[0], tokens.shape[1], -1)  # (n, T, N)

    ckpt = _dynamics_path(ckpt_dir, mode)
    if args.resume and ckpt.exists():
        model, start_step = _load_dynamics(ckpt, mode)
    else:
        model, start_step = DynamicsModel(cfg.dynamics_config(mode), seed=cfg.seed), 0
    _check_pair(tokenizer, tok_path, model, ckpt)
    model, log = train_dynamics(
        model, tokens, cfg.train_config(cfg.dynamics_steps), start_step=start_step
    )
    save_dynamics(model, ckpt, step=start_step + len(log))
    write_loss_log(report_dir / f"dynamics_{mode}_loss.csv", log, header=("step", "lr", "loss"))
    final = log[-1][2] if log else float("nan")
    print(f"dynamics ({mode}) trained for {len(log)} steps (final loss {final:.6g}) -> {ckpt}")
    return 0


def _context(cfg: RunConfig, event: EventSequence) -> np.ndarray:
    if event.n_frames < cfg.context_len:
        raise ConfigError(
            f"event has {event.n_frames} frames, fewer than context_len {cfg.context_len}"
        )
    return event.frames[: cfg.context_len]


def cmd_forecast(cfg: RunConfig, args) -> int:
    _, ckpt_dir, report_dir = _paths(cfg, args.out)
    mode = args.mode or cfg.mode
    tokenizer, models = _load_models(ckpt_dir, (mode,))
    event = read_event(args.event)
    context = _context(cfg, event)

    fields, pred_tokens = forecast(tokenizer, models[mode], context, cfg.horizon)
    out_event = EventSequence(
        np.concatenate([context, fields.astype(np.float32)]),
        context_len=cfg.context_len,
        step_minutes=event.step_minutes,
        data_max=tokenizer.config.data_max,
        seed=event.seed,
    )
    stem = Path(args.event).stem
    evt_path = report_dir / f"{stem}_{mode}_pred.evt"
    tok_path = report_dir / f"{stem}_{mode}_pred.tok"
    report_dir.mkdir(parents=True, exist_ok=True)
    write_event(out_event, evt_path)
    write_tokens(tok_path, pred_tokens, tokenizer.config.n_codes)
    print(f"forecast ({mode}) for {args.event} -> {evt_path}")
    return 0


def _synthetic_catchments(height, width):
    west = np.zeros((height, width), dtype=bool)
    west[:, : width // 2] = True
    return {"west": west, "east": ~west}


def cmd_evaluate(cfg: RunConfig, args) -> int:
    taus = tuple(float(t) for t in args.taus.split(","))
    # each tau names one series of rows; a repeat or a non-finite tau cannot be reported
    if len(set(taus)) != len(taus) or not all(np.isfinite(taus)):
        raise ConfigError(f"--taus {args.taus} must be distinct finite thresholds")
    _, _, report_dir = _paths(cfg, args.out)
    report_dir.mkdir(parents=True, exist_ok=True)
    obs_events = read_events(args.obs)
    if not obs_events:
        raise ConfigError(f"observation manifest {args.obs} lists no events")

    # leads are labelled with the events' own step, which forecast copies into each prediction
    steps = {e.step_minutes for e in obs_events}
    preds = []
    for pred_manifest in args.pred:
        pred_events = read_events(pred_manifest)
        steps.update(e.step_minutes for e in pred_events)
        if len(pred_events) != len(obs_events):
            raise ConfigError(
                f"manifest length mismatch: {len(pred_events)} predictions in {pred_manifest} "
                f"vs {len(obs_events)} observations in {args.obs}"
            )
        for pred, obs in zip(pred_events, obs_events):
            if pred.target.shape != obs.target.shape:
                raise ConfigError(
                    f"prediction target shape {pred.target.shape} does not match "
                    f"observation {obs.target.shape}"
                )
        preds.append(np.stack([e.target for e in pred_events], dtype=np.float64))
    obs = np.stack([e.target for e in obs_events], dtype=np.float64)
    if len(steps) != 1:
        raise ConfigError(f"events disagree on step_minutes: {sorted(steps)}")
    (step_minutes,) = steps

    masks = _synthetic_catchments(*obs.shape[-2:])
    report = evaluate_runs([(pred, obs) for pred in preds], masks, taus, step_minutes)
    out_csv = report_dir / (args.out_name or "evaluation.csv")
    report.to_csv(out_csv, comments=cfg.to_lines())
    out_csv.with_suffix(".txt").write_text(report.to_text(), encoding="utf-8")
    print(f"evaluated {len(obs_events)} events x {len(args.pred)} runs -> {out_csv}")
    return 0


def cmd_benchmark(cfg: RunConfig, args) -> int:
    if args.horizon is not None:
        cfg = cfg.with_overrides(horizon=args.horizon)
    data_dir, ckpt_dir, report_dir = _paths(cfg, args.out)
    # every input is loaded and checked before any timing
    tokenizer, models = _load_models(ckpt_dir, MODES)
    frames = _context(cfg, _load_dataset(data_dir)[0])
    report_dir.mkdir(parents=True, exist_ok=True)

    model_cfg = models["frame"].config  # benchmark_decode checks the token model matches it
    context = np.random.default_rng(cfg.seed).integers(
        0, model_cfg.vocab_size, size=(cfg.context_len, model_cfg.tokens_per_frame)
    )
    report = benchmark_decode(
        models["frame"], models["token"], context, cfg.horizon, repetitions=args.reps
    )

    def fmt_std(value):
        return "undefined" if value is None else f"{value:.6f}"

    lines = ["# resolved configuration"]
    lines += [f"# {line}" for line in cfg.to_lines()]
    lines += [
        "",
        f"hardware: {cfg.hardware}",
        f"horizon: {report['horizon']} frames",
        f"tokens_per_frame: {report['tokens_per_frame']}",
        f"repetitions: {report['repetitions']}",
        "",
        "decode cost (dynamics only)",
        f"  frame mode forward passes per rollout: {report['frame_passes']}",
        f"  token mode forward passes per rollout: {report['token_passes']}",
        f"  pass ratio (token / frame): {report['pass_ratio']:g}",
        f"  frame mode wall clock: mean {report['frame_wall_mean']:.6f} s, "
        f"std {fmt_std(report['frame_wall_std'])}",
        f"  token mode wall clock: mean {report['token_wall_mean']:.6f} s, "
        f"std {fmt_std(report['token_wall_std'])}",
        f"  wall-clock ratio (token / frame): {report['wall_ratio']:.2f}x",
        "",
        "published full-scale reference timings (seconds per batch, not reproduced here):",
    ]
    lines += [f"  {name}: {seconds}" for name, seconds in REFERENCE_TIMINGS]

    lines += ["", "end to end (tokenize + rollout + detokenize), single event, "
              "median of 5 calls after 1 warm-up call:"]
    for mode, model in models.items():
        forecast(tokenizer, model, frames, cfg.horizon)  # untimed warm-up
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            forecast(tokenizer, model, frames, cfg.horizon)
            samples.append(time.perf_counter() - t0)
        lines.append(f"  {mode} mode: {np.median(samples):.6f} s")

    out_path = report_dir / "benchmark.txt"
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines[len(cfg.to_lines()) + 1 :]))
    print(f"benchmark report -> {out_path}")
    return 0


# ---- argument parsing ---------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: each parse_args call fills
    a fresh namespace, so main reuses it."""
    parser = argparse.ArgumentParser(
        prog="framecast",
        description="Synthetic nowcasting pipeline: data, tokenizer, dynamics, forecasts, verification.",
    )
    parser.add_argument("--config", type=str, default=None, help="path to a key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=str, default=None, help="root directory for all outputs")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and filter synthetic advection events")
    p.add_argument("--n-events", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-tokenizer", help="fit the field tokenizer")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train_tokenizer)

    p = sub.add_parser("train-dynamics", help="fit the dynamics transformer")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train_dynamics)

    p = sub.add_parser("forecast", help="roll out a forecast for one event file")
    p.add_argument("--event", required=True)
    p.add_argument("--mode", choices=MODES, default=None)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="score prediction manifests against observations")
    p.add_argument("--pred", nargs="+", required=True, help="one manifest per seed run")
    p.add_argument("--obs", required=True)
    p.add_argument("--taus", default="1,2,8")
    p.add_argument("--out-name", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="compare decode cost of the two modes")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--reps", type=int, default=50)
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = cfg.with_overrides(seed=args.seed)
        return args.func(cfg, args)
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, HorizonError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ContainerError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
