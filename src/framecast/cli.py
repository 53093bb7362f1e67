"""Command-line pipeline driver.

Subcommands: gen-data, train-tokenizer, train-dynamics, forecast, evaluate,
benchmark. Global flags (--config, --seed, --out) come before the
subcommand. Exit codes: 0 success, 2 configuration error, 3 missing
pipeline dependency, 4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .advection import AdvectionParams, generate_advection_event
from .config import RunConfig, load_config
from .container import ContainerError
from .dynamics import (
    DynamicsModel,
    DynamicsTrainConfig,
    benchmark_decode,
    load_dynamics,
    rollout,
    save_dynamics,
    train_dynamics,
)
from .errors import ConfigError, DependencyError, HorizonError
from .eventfile import read_event, read_events, write_event, write_manifest
from .fields import EventSequence, denormalize, filter_events, normalize
from .tokenizer import (
    Tokenizer,
    TokenizerTrainConfig,
    train_tokenizer,
    write_loss_log,
    write_tokens,
)
from .verification import (
    MetricReport,
    aggregate_over_seeds,
    evaluate_catchments,
    stratify_by_lead_time,
    stratify_by_percentile_bin,
)

# Published full-scale reference timings (seconds per batch) for context in
# benchmark reports; desk-scale runs do not reproduce them.
REFERENCE_TIMINGS = (
    ("token-autoregressive baseline", 7.09),
    ("residual-diffusion baseline", 8.17),
    ("frame-autoregressive model", 0.26),
)


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


def _load_dataset(data_dir: Path) -> list[EventSequence]:
    manifest = _require(data_dir / "manifest.txt", "gen-data")
    events = read_events(manifest)
    if not events:
        raise DependencyError(f"manifest {manifest} lists no events; run `gen-data` first")
    return events


# ---- subcommands -------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig, args) -> int:
    data_dir, _, _ = _paths(cfg, args.out)
    data_dir.mkdir(parents=True, exist_ok=True)
    n_events = cfg.n_events if args.n_events is None else args.n_events
    seeds = np.random.SeedSequence(cfg.seed).generate_state(max(n_events, 1), dtype=np.uint64)

    events, paths = [], []
    for i in range(n_events):
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
    print(f"wrote {n_events} events, kept {len(kept_paths)} after filtering -> {data_dir}")
    return 0


def cmd_train_tokenizer(cfg: RunConfig, args) -> int:
    data_dir, ckpt_dir, report_dir = _paths(cfg, args.out)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    report_dir.mkdir(parents=True, exist_ok=True)
    events = _load_dataset(data_dir)
    fields = normalize(np.concatenate([e.frames for e in events]), cfg.data_max)

    tokenizer, start_step = None, 0
    ckpt = _tokenizer_path(ckpt_dir)
    if args.resume and ckpt.exists():
        tokenizer, start_step = Tokenizer.load(ckpt)
    train_cfg = TokenizerTrainConfig(
        steps=cfg.tokenizer_steps,
        batch_size=cfg.batch_size,
        lr=cfg.lr,
        warmup_steps=cfg.warmup_steps,
        seed=cfg.seed,
    )
    tokenizer, log = train_tokenizer(
        fields, cfg.tokenizer_config(), train_cfg, tokenizer=tokenizer, start_step=start_step
    )
    tokenizer.save(ckpt, step=start_step + cfg.tokenizer_steps)
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
    tokenizer, _ = Tokenizer.load(_require(_tokenizer_path(ckpt_dir), "train-tokenizer"))
    events = _load_dataset(data_dir)
    tokens = np.stack([tokenizer.tokenize(normalize(e.frames, cfg.data_max)) for e in events])
    tokens = tokens.reshape(tokens.shape[0], tokens.shape[1], -1)  # (n, T, N)

    ckpt = _dynamics_path(ckpt_dir, mode)
    model, start_step = None, 0
    if args.resume and ckpt.exists():
        model, start_step = load_dynamics(ckpt)
    if model is None:
        model = DynamicsModel(cfg.dynamics_config(mode), seed=cfg.seed)
    train_cfg = DynamicsTrainConfig(
        steps=cfg.dynamics_steps,
        batch_size=cfg.batch_size,
        lr=cfg.lr,
        warmup_steps=cfg.warmup_steps,
        seed=cfg.seed,
    )
    model, log = train_dynamics(model, tokens, train_cfg, start_step=start_step)
    save_dynamics(model, ckpt, step=start_step + len(log))
    write_loss_log(report_dir / f"dynamics_{mode}_loss.csv", log, header=("step", "lr", "loss"))
    final = log[-1][2] if log else float("nan")
    print(f"dynamics ({mode}) trained for {len(log)} steps (final loss {final:.6g}) -> {ckpt}")
    return 0


def _forecast_event(cfg: RunConfig, tokenizer: Tokenizer, model: DynamicsModel, event: EventSequence):
    """Tokenize the event context, roll the dynamics forward, decode back.

    Returns the forecast as an event (original context frames + predicted
    target frames) plus the predicted token grids.
    """
    if event.n_frames < cfg.context_len:
        raise ConfigError(
            f"event has {event.n_frames} frames, fewer than context_len {cfg.context_len}"
        )
    context_frames = event.frames[: cfg.context_len]
    context_idx = tokenizer.tokenize(normalize(context_frames, cfg.data_max))  # (T_c, H', W')

    predicted = rollout(model, context_idx.reshape(cfg.context_len, -1), cfg.horizon)
    pred_idx = predicted.reshape(cfg.horizon, *context_idx.shape[1:])
    pred_frames = denormalize(tokenizer.detokenize(pred_idx), cfg.data_max).astype(np.float32)

    out_event = EventSequence(
        np.concatenate([context_frames, pred_frames]),
        context_len=cfg.context_len,
        step_minutes=event.step_minutes,
        data_max=cfg.data_max,
        seed=event.seed,
    )
    return out_event, pred_idx


def cmd_forecast(cfg: RunConfig, args) -> int:
    _, ckpt_dir, report_dir = _paths(cfg, args.out)
    report_dir.mkdir(parents=True, exist_ok=True)
    mode = args.mode or cfg.mode
    tokenizer, _ = Tokenizer.load(_require(_tokenizer_path(ckpt_dir), "train-tokenizer"))
    model, _ = load_dynamics(_require(_dynamics_path(ckpt_dir, mode), "train-dynamics"))
    event = read_event(args.event)

    out_event, pred_tokens = _forecast_event(cfg, tokenizer, model, event)
    stem = Path(args.event).stem
    evt_path = report_dir / f"{stem}_{mode}_pred.evt"
    tok_path = report_dir / f"{stem}_{mode}_pred.tok"
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

    per_seed_reports = []
    for run_idx, pred_manifest in enumerate(args.pred):
        pred_events = read_events(pred_manifest)
        if len(pred_events) != len(obs_events):
            raise ConfigError(
                f"manifest length mismatch: {len(pred_events)} predictions in {pred_manifest} "
                f"vs {len(obs_events)} observations in {args.obs}"
            )
        seed_label = str(run_idx)
        pred_targets, obs_targets = [], []
        for pred, obs in zip(pred_events, obs_events):
            if pred.target.shape != obs.target.shape:
                raise ConfigError(
                    f"prediction target shape {pred.target.shape} does not match "
                    f"observation {obs.target.shape}"
                )
            pred_targets.append(pred.target.astype(np.float64))
            obs_targets.append(obs.target.astype(np.float64))

        horizon, _, width = obs_targets[0].shape
        # pool events per lead: (horizon, n_events * H, W)
        pooled_pred = np.stack(pred_targets, axis=1).reshape(horizon, -1, width)
        pooled_obs = np.stack(obs_targets, axis=1).reshape(horizon, -1, width)

        report = stratify_by_lead_time(
            pooled_pred, pooled_obs, cfg.step_minutes, taus=taus, seed=seed_label
        )
        report.extend(
            stratify_by_percentile_bin(
                list(zip(pred_targets, obs_targets)),
                step_minutes=cfg.step_minutes,
                taus=taus,
                seed=seed_label,
            )
        )
        masks = _synthetic_catchments(cfg.grid_h, cfg.grid_w)
        tiled_masks = {
            name: np.tile(mask, (len(pred_targets), 1))
            for name, mask in masks.items()
        }
        report.extend(
            evaluate_catchments(
                pooled_pred,
                pooled_obs,
                tiled_masks,
                taus=taus,
                step_minutes=cfg.step_minutes,
                seed=seed_label,
            )
        )
        per_seed_reports.append(report)

    combined = MetricReport()
    for report in per_seed_reports:
        combined.extend(report)
    if len(per_seed_reports) > 1:
        combined.extend(aggregate_over_seeds(per_seed_reports))

    out_csv = report_dir / (args.out_name or "evaluation.csv")
    combined.to_csv(out_csv, comments=cfg.to_lines())
    out_csv.with_suffix(".txt").write_text(combined.to_text(), encoding="utf-8")
    print(f"evaluated {len(obs_events)} events x {len(args.pred)} runs -> {out_csv}")
    return 0


def cmd_benchmark(cfg: RunConfig, args) -> int:
    data_dir, ckpt_dir, report_dir = _paths(cfg, args.out)
    report_dir.mkdir(parents=True, exist_ok=True)
    frame_model, _ = load_dynamics(_require(_dynamics_path(ckpt_dir, "frame"), "train-dynamics --mode frame"))
    token_model, _ = load_dynamics(_require(_dynamics_path(ckpt_dir, "token"), "train-dynamics --mode token"))

    horizon = args.horizon or cfg.horizon
    rng = np.random.default_rng(cfg.seed)
    context = rng.integers(
        0, cfg.codebook_size, size=(cfg.context_len, cfg.tokens_per_frame)
    )
    report = benchmark_decode(
        frame_model, token_model, context, horizon, repetitions=args.reps
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

    tok_path = _tokenizer_path(ckpt_dir)
    manifest = data_dir / "manifest.txt"
    if tok_path.exists() and manifest.exists():
        tokenizer, _ = Tokenizer.load(tok_path)
        events = read_events(manifest)
        if events:
            lines += ["", "end to end (tokenize + rollout + detokenize), single event, "
                      "median of 5 calls after 1 warm-up call:"]
            for label, model in (("frame", frame_model), ("token", token_model)):
                _forecast_event(cfg, tokenizer, model, events[0])  # untimed warm-up
                samples = []
                for _ in range(5):
                    t0 = time.perf_counter()
                    _forecast_event(cfg, tokenizer, model, events[0])
                    samples.append(time.perf_counter() - t0)
                lines.append(f"  {label} mode: {np.median(samples):.6f} s")

    out_path = report_dir / "benchmark.txt"
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines[len(cfg.to_lines()) + 1 :]))
    print(f"benchmark report -> {out_path}")
    return 0


# ---- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--mode", choices=("frame", "token"), default=None)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train_dynamics)

    p = sub.add_parser("forecast", help="roll out a forecast for one event file")
    p.add_argument("--event", required=True)
    p.add_argument("--mode", choices=("frame", "token"), default=None)
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
