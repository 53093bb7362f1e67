"""The benchmark's workloads: set-up, closed loops over the framecast CLI,
output checks and the metrics computed from them.

Every workload drives ``framecast.cli.main`` in-process, one call at a time
(a closed loop with one client). Each CLI call is one operation: a non-zero
exit code, an uncaught exception or a failed output check counts it as
failed, and the run goes on.
"""

from __future__ import annotations

import contextlib
import io
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from framecast import cli, dynamics
from framecast.checkpoint import load_checkpoint
from framecast.config import load_config
from framecast.dynamics import DynamicsModel, load_dynamics
from framecast.eventfile import read_event, read_manifest, write_manifest
from framecast.fields import normalize
from framecast.optim import Adam
from framecast.tokenizer import Tokenizer, quantize, read_tokens
from framecast.verification import MetricReport

from tracing import Tracer, instrument, summarize

WORKLOADS = ("forecast-frame", "forecast-token", "train")
# a teacher-forced logit may trail the row maximum by this much and still
# count as the greedy choice (reduction order differs from incremental decode)
ARGMAX_TIE = 1e-9
MSE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Size:
    """How much work one set-up and one round hold.

    n_events is the RunConfig default. A frame-mode round scores its ten
    forecasts in one evaluate; a token-mode forecast takes ~1 s, so each is
    scored as it arrives, which spreads ~30 evaluate calls over a run
    instead of three. The step counts keep a train round ~10 s long.
    """

    n_events: int = 60
    frame_round_events: int = 10
    token_round_events: int = 1
    tokenizer_steps: int = 100
    dynamics_steps: int = 10
    setup_repeats: int = 9


FULL = Size()


@dataclass
class Op:
    """One CLI call: its command, wall time, work units and outcome."""

    kind: str
    seconds: float
    units: int
    ok: bool
    error: str = ""
    counters: dict = field(default_factory=dict)
    step_seconds: list = field(default_factory=list)


def tail(samples) -> tuple[float, float, int]:
    """The highest order statistic with at least ten samples above it.

    Returns (value, percentile, n); the percentile is the share of samples
    at or below the value. With ten or fewer samples no such statistic
    exists and the maximum is returned with percentile 100.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return values[-1], 100.0, n
    k = n - 11
    return values[k], 100.0 * (k + 1) / n, n


class Workload:
    """Set-up, loop and checks for one named workload in one work directory."""

    def __init__(self, name: str, seed: int, workdir: Path, size: Size = FULL):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.mode = {"forecast-frame": "frame", "forecast-token": "token"}.get(name)
        self.tracer = Tracer()
        self.setup_seconds: list[float] = []
        self.step_stamps: list[float] | None = None

    # ---- set-up -----------------------------------------------------------

    def setup(self, out: Path) -> float:
        """gen-data plus random-init checkpoints at the workload seed."""
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        start = time.perf_counter()
        config = out / "run.cfg"
        self._write_config(config, self.size.tokenizer_steps, self.size.dynamics_steps)
        rc, error = self._cli(out, ["gen-data"])
        if rc != 0:
            raise RuntimeError(f"gen-data failed in set-up: {error}")
        cfg = load_config(config).with_overrides(seed=self.seed)
        ckpt = out / "checkpoints"
        ckpt.mkdir()
        Tokenizer(cfg.tokenizer_config(), seed=self.seed).save(ckpt / "tokenizer.ckpt")
        for mode in ("frame", "token"):
            model = DynamicsModel(cfg.dynamics_config(mode), seed=self.seed)
            # looked up on the module, so a traced set-up records the save
            dynamics.save_dynamics(model, ckpt / f"dynamics_{mode}.ckpt")
        return time.perf_counter() - start

    def _write_config(self, path: Path, tokenizer_steps: int, dynamics_steps: int) -> None:
        """RunConfig defaults except the event count and the step counts."""
        path.write_text(
            f"n_events = {self.size.n_events}\n"
            f"tokenizer_steps = {tokenizer_steps}\n"
            f"dynamics_steps = {dynamics_steps}\n",
            encoding="utf-8",
        )

    def prepare(self, out: Path) -> None:
        """State the output checks need, loaded outside any timed region."""
        self.out = out
        self.cfg = load_config(out / "run.cfg").with_overrides(seed=self.seed)
        self.kept = read_manifest(out / "data" / "manifest.txt")
        if not self.kept:
            raise RuntimeError("set-up kept no events")
        self.observed = {p: read_event(p) for p in self.kept}
        ckpt = out / "checkpoints"
        if self.mode is not None:
            self.tokenizer, _ = Tokenizer.load(ckpt / "tokenizer.ckpt")
            self.model, _ = load_dynamics(ckpt / f"dynamics_{self.mode}.ckpt")
            self.context_tokens = {p: self._context_tokens(e) for p, e in self.observed.items()}
        else:
            self.expected_shapes = {
                "tokenizer": {k: v.shape for k, v in
                              Tokenizer(self.cfg.tokenizer_config()).trainable().items()},
            }
            for mode in ("frame", "token"):
                model = DynamicsModel(self.cfg.dynamics_config(mode))
                self.expected_shapes[mode] = {k: v.shape for k, v in model.params.items()}
        self.cursor = 0
        self.predictions: dict[Path, np.ndarray] = {}

    def _context_tokens(self, event) -> np.ndarray:
        ctx = event.frames[: self.cfg.context_len]
        z = self.tokenizer.encode(normalize(ctx, self.cfg.data_max))
        idx, _ = quantize(z.data, self.tokenizer.codebook.data)
        return idx.reshape(self.cfg.context_len, -1)

    # ---- running operations ----------------------------------------------

    def _cli(self, out: Path, argv: list[str], config: str = "run.cfg") -> tuple[int | None, str]:
        full = ["--config", str(out / config), "--seed", str(self.seed), "--out", str(out)]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.tracer.run("cli." + argv[0], cli.main, full + argv)
        except Exception:  # a crash is a failed operation, not an aborted run
            return None, traceback.format_exc(limit=4)
        return rc, sink.getvalue().strip()

    def _op(self, kind: str, argv: list[str], units: int, check) -> Op:
        before = dict(self.tracer.counters)
        if self.step_stamps is not None:
            self.step_stamps.clear()
        start = time.perf_counter()
        rc, error = self._cli(self.out, argv)
        seconds = time.perf_counter() - start
        steps = list(np.diff(self.step_stamps)) if self.step_stamps else []
        counters = {k: v - before.get(k, 0) for k, v in self.tracer.counters.items()}
        op_id, self.tracer.op = self.tracer.op, None  # checks are never traced
        ok = rc == 0
        if not ok:
            error = f"exit code {rc}: {error}"
        else:
            try:
                check()
            except Exception as exc:  # a failed check fails this operation only
                ok, error = False, f"{type(exc).__name__}: {exc}"
        self.tracer.op = op_id
        return Op(kind, seconds, units if ok else 0, ok, "" if ok else error, counters, steps)

    def round(self, budget_end: float | None = None, op_prefix: str | None = None,
              events: int | None = None) -> list[Op]:
        """One round: forecasts of a few kept events and one evaluate of
        them, or the three training calls. With a budget, a round stops
        after the first call that ends past it; a forecast round still
        evaluates what it forecast."""
        ops: list[Op] = []

        def run(kind, argv, units, check):
            if op_prefix is not None:
                self.tracer.op = f"{op_prefix}.{len(ops)}.{kind}"
            ops.append(self._op(kind, argv, units, check))
            self.tracer.op = None
            return budget_end is not None and time.perf_counter() >= budget_end

        if self.mode is None:
            calls = [("train-tokenizer", ["train-tokenizer"], self.size.tokenizer_steps, "tokenizer")]
            calls += [("train-dynamics", ["train-dynamics", "--mode", mode],
                       self.size.dynamics_steps, mode) for mode in ("frame", "token")]
            for kind, argv, steps, which in calls:
                if run(kind, argv, steps, lambda w=which: self._check_training(w)):
                    break
            return ops
        batch: list[Path] = []
        if events is None:
            events = (self.size.frame_round_events if self.mode == "frame"
                      else self.size.token_round_events)
        for _ in range(events):
            path = self.kept[self.cursor % len(self.kept)]
            self.cursor += 1
            batch.append(path)
            self.predictions.pop(path, None)  # evaluate must not score a stale forecast
            argv = ["forecast", "--event", str(path), "--mode", self.mode]
            if run("forecast", argv, self.cfg.horizon, lambda p=path: self._check_forecast(p)):
                break
        run(*self._evaluate_step(batch))
        return ops

    # ---- output checks -------------------------------------------------------

    def _pred_paths(self, path: Path) -> tuple[Path, Path]:
        stem = self.out / "reports" / f"{path.stem}_{self.mode}_pred"
        return stem.with_suffix(".evt"), stem.with_suffix(".tok")

    def _check_forecast(self, path: Path) -> None:
        cfg = self.cfg
        obs = self.observed[path]
        evt_path, tok_path = self._pred_paths(path)
        pred = read_event(evt_path)
        if pred.frames[: cfg.context_len].tobytes() != obs.frames[: cfg.context_len].tobytes():
            raise AssertionError("prediction context is not byte-equal to the input")
        target = pred.target
        expected = (cfg.horizon, cfg.grid_h, cfg.grid_w)
        if target.shape != expected:
            raise AssertionError(f"prediction target shape {target.shape}, expected {expected}")
        if not np.all(np.isfinite(target)) or target.min() < 0 or target.max() > cfg.data_max:
            raise AssertionError("prediction target not finite or outside [0, data_max]")
        idx, n_codes = read_tokens(tok_path)
        side = cfg.grid_h // cfg.patch_size, cfg.grid_w // cfg.patch_size
        if idx.shape != (cfg.horizon, *side) or n_codes != cfg.codebook_size:
            raise AssertionError(f"token file holds {idx.shape} of {n_codes} codes")
        if idx.min() < 0 or idx.max() >= cfg.codebook_size:
            raise AssertionError("token index outside the codebook")
        self._check_greedy(self.context_tokens[path], idx.reshape(cfg.horizon, -1))
        self.predictions[path] = target

    def _check_greedy(self, context: np.ndarray, predicted: np.ndarray) -> None:
        """One teacher-forced pass must rank every emitted token first."""
        full = np.concatenate([context, predicted])
        c = context.shape[0]
        if self.mode == "frame":
            logits = self.model.forward(full).data[c - 1 : -1].reshape(-1, self.cfg.codebook_size)
            emitted = predicted.reshape(-1)
        else:
            flat = full.reshape(-1)
            start = context.size
            logits = self.model.forward_flat(flat[None]).data[0, start - 1 : -1]
            emitted = flat[start:]
        chosen = logits[np.arange(emitted.size), emitted]
        if np.any(chosen < logits.max(axis=-1) - ARGMAX_TIE):
            raise AssertionError("an emitted token is not the teacher-forced argmax")

    def _evaluate_step(self, batch: list[Path]):
        pred_manifest = self.out / "pred_manifest.txt"
        obs_manifest = self.out / "obs_manifest.txt"

        def write_manifests():
            write_manifest([self._pred_paths(p)[0] for p in batch], pred_manifest)
            write_manifest(batch, obs_manifest)

        def check():
            report = MetricReport.from_csv(self.out / "reports" / "evaluation.csv")
            report.validate()
            rows = report.select(lead_minutes=self.cfg.step_minutes, metric="mse",
                                 stratum=None, seed="0")
            if len(rows) != 1:
                raise AssertionError(f"expected one lead-1 MSE row, found {len(rows)}")
            pred = np.stack([self.predictions[p][0] for p in batch]).astype(np.float64)
            obs = np.stack([self.observed[p].target[0] for p in batch]).astype(np.float64)
            oracle = float(np.mean((pred - obs) ** 2))
            if abs(rows[0].value - oracle) > MSE_TOLERANCE * max(1.0, abs(oracle)):
                raise AssertionError(f"lead-1 MSE {rows[0].value!r} != numpy {oracle!r}")

        argv = ["evaluate", "--pred", str(pred_manifest), "--obs", str(obs_manifest),
                "--out-name", "evaluation.csv"]
        write_manifests()
        return ("evaluate", argv, len(batch), check)

    def _check_training(self, which: str) -> None:
        if which == "tokenizer":
            ckpt, log, steps = "tokenizer.ckpt", "tokenizer_loss.csv", self.size.tokenizer_steps
        else:
            ckpt, log = f"dynamics_{which}.ckpt", f"dynamics_{which}_loss.csv"
            steps = self.size.dynamics_steps
        lines = (self.out / "reports" / log).read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != steps:
            raise AssertionError(f"{log} holds {len(rows)} rows for {steps} steps")
        values = np.array([[float(v) for v in row] for row in rows])
        if not np.all(np.isfinite(values)):
            raise AssertionError(f"{log} holds a non-finite value")
        arrays, _ = load_checkpoint(self.out / "checkpoints" / ckpt)
        shapes = {k: v.shape for k, v in arrays.items()}
        if shapes != self.expected_shapes[which]:
            raise AssertionError(f"{ckpt} names or shapes differ from a fresh model")


# ---- metrics ------------------------------------------------------------------


def _calls(ops, kind):
    return [op for op in ops if op.kind == kind]


def _ok(ops, kind):
    return [op for op in _calls(ops, kind) if op.ok]


def _rate(ops, kind) -> float:
    """Work units per second of one command's calls; failed calls do no work.

    Pooling the calls, rather than taking a median per call, averages over
    the slow and fast spells of a shared machine."""
    calls = _calls(ops, kind)
    if not calls:
        raise RuntimeError(f"no {kind} call to time")
    return sum(op.units for op in calls) / sum(op.seconds for op in calls)


def end_to_end(workload: Workload, ops: list[Op]) -> tuple[dict, dict]:
    """Every end-to-end metric, plus notes on how the tail was taken.

    The second command's rate (evaluate or train-tokenizer) is reported but
    not declared in BENCHMARK.json: the cost of scoring depends on the
    events a seed generates, so evaluate throughput spreads ~20% across
    seeds, too close to the 25% that is the largest bound allowed there."""
    # latency is that of successful calls, or of all calls when none succeeded
    if workload.mode is None:
        what = "dynamics training steps"
        primary = _ok(ops, "train-dynamics") or _calls(ops, "train-dynamics")
        latencies = [s for op in primary for s in op.step_seconds]
        main = _rate(ops, "train-dynamics")
        extra = {"tokenizer_steps_per_s": (_rate(ops, "train-tokenizer"), "1/s")}
    else:
        what = "forecast calls"
        latencies = [op.seconds for op in _ok(ops, "forecast") or _calls(ops, "forecast")]
        main = sum(op.units for op in _calls(ops, "forecast")) / sum(op.seconds for op in ops)
        extra = {"evaluate_events_per_s": (_rate(ops, "evaluate"), "1/s")}
    if not latencies:
        raise RuntimeError(f"no {what} to time")
    tail_value, tail_pct, n = tail(latencies)
    failed = sum(not op.ok for op in ops)
    metrics = {
        "setup_s": (statistics.median(workload.setup_seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_share": (1.0 - failed / len(ops), "share"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "main_per_s": (main, "1/s"),
        **extra,
    }
    notes = {"latency_tail_s": f"p{tail_pct:.1f} of n={n} {what}"
             + (" (10 or fewer samples: the maximum)" if n <= 10 else "")}
    return metrics, notes


# counters reported per forecast event on the forecast workloads
PER_EVENT = ("dynamics.forward_calls", "dynamics.positions", "autodiff.tape_nodes")
SPAN_METRICS = (
    "advection.generate", "eventfile.read", "eventfile.write", "checkpoint.load",
    "checkpoint.save", "tokenizer.encode", "tokenizer.quantize", "tokenizer.decode",
    "dynamics.rollout", "dynamics.forward", "dynamics.attention", "dynamics.loss",
    "autodiff.backward", "autodiff.gelu", "autodiff.layer_norm", "optim.adam_step",
    "verification.lead_time", "verification.percentile_bin", "verification.catchments",
)
LAYERS = ("advection", "eventfile", "checkpoint", "tokenizer", "dynamics", "autodiff",
          "optim", "verification", "cli")
COUNTERS = ("eventfile.bytes", "checkpoint.bytes", "tokenizer.quantize_vectors",
            "tokenizer.quantize_bytes") + PER_EVENT


def pass_layers(workload: Workload, spans, ops: list[Op]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (one set-up plus one round)."""
    summary = summarize(spans)
    out: dict[str, float] = {}
    for name in SPAN_METRICS:
        entry = summary["names"].get(name, {"calls": 0, "busy_s": 0.0})
        out[name + "_s"] = entry["busy_s"]
        out[name + "_calls"] = entry["calls"]
    for layer in LAYERS:
        out[layer + ".self_s"] = summary["layers"].get(layer, 0.0)
    totals: dict[str, int] = {}
    for op in ops:
        for key, value in op.counters.items():
            totals[key] = totals.get(key, 0) + value
    events = len(_ok(ops, "forecast")) if workload.mode else 0
    for key in COUNTERS:
        value = totals.get(key, 0)
        out[key] = value / events if key in PER_EVENT and events else value
    out["trace.spans"] = len(spans)
    return out


def expected_counters(cfg, mode: str) -> dict[str, int]:
    """Forward passes and positions of one rollout (criterion 2's identity)."""
    n, c, h = cfg.tokens_per_frame, cfg.context_len, cfg.horizon
    if mode == "frame":
        return {"dynamics.forward_calls": h,
                "dynamics.positions": sum(t * n for t in range(c, c + h))}
    return {"dynamics.forward_calls": h * n,
            "dynamics.positions": sum(range(c * n, (c + h) * n))}


def check_counters(workload: Workload, ops: list[Op]) -> None:
    """Fail every traced forecast whose pass or position count is off."""
    if workload.mode is None:
        return
    expected = expected_counters(workload.cfg, workload.mode)
    for op in ops:
        if op.kind != "forecast" or not op.ok:
            continue
        seen = {k: op.counters.get(k, 0) for k in expected}
        if seen != expected:
            op.ok, op.units = False, 0
            op.error = f"counters {seen} != expected {expected}"


def run_untraced(workload: Workload, seconds: float) -> tuple[list[Op], dict, dict]:
    """Set up, warm up, then run rounds until the time is up. The set-up is
    repeated in a spare directory between rounds, spread over the run, so
    its median samples more than one spell of a shared machine."""
    base = workload.workdir
    repeats = workload.size.setup_repeats

    def set_up_again():
        workload.setup_seconds.append(workload.setup(base / "spare"))

    workload.setup_seconds.append(workload.setup(base / "run"))
    workload.prepare(base / "run")
    ops: list[Op] = []
    with step_clock(workload):
        warm_up(workload)
        start = time.perf_counter()
        end = start + seconds
        while time.perf_counter() < end:
            # the first round runs whole, so every metric has a sample
            ops.extend(workload.round(budget_end=end if ops else None))
            due = 1 + (repeats - 1) * (time.perf_counter() - start) / seconds
            while len(workload.setup_seconds) < min(due, repeats):
                set_up_again()
    while len(workload.setup_seconds) < repeats:
        set_up_again()
    for used in (base / "run", base / "spare"):
        if used.exists():
            shutil.rmtree(used)
    metrics, notes = end_to_end(workload, ops)
    return ops, metrics, notes


@contextlib.contextmanager
def step_clock(workload: Workload):
    """Timestamp every optimizer step for the step latency of train.

    One clock read per step of ~0.2 s and no spans, so the untraced run
    stays untraced in effect."""
    step = Adam.step
    stamps = workload.step_stamps = []

    def timed_step(optimizer):
        step(optimizer)
        stamps.append(time.perf_counter())

    Adam.step = timed_step
    try:
        yield
    finally:
        Adam.step = step
        workload.step_stamps = None


def warm_up(workload: Workload) -> None:
    """Untimed calls of each command, so lazy library set-up and the
    allocator's first growth are not timed in the first operations: one
    forecast and its evaluate, or one-step trainings."""
    if workload.mode is not None:
        workload.round(events=1)
        workload.cursor = 0
        return
    workload._write_config(workload.out / "warm.cfg", 1, 1)
    for argv in (["train-tokenizer"], ["train-dynamics", "--mode", "frame"]):
        workload._cli(workload.out, argv, config="warm.cfg")


def run_traced(workload: Workload, seconds: float) -> tuple[list[Op], dict, dict]:
    """Alternate untraced and traced passes (set-up plus one round each)
    until the time is up, at least one of each. Per-layer numbers are
    medians over traced passes; the overhead compares pass wall times."""
    base = workload.workdir
    tracer = workload.tracer
    warm = base / "warm"
    workload.setup(warm)
    workload.prepare(warm)
    warm_up(workload)
    shutil.rmtree(warm)
    all_ops: list[Op] = []
    walls = {False: [], True: []}
    per_pass: list[dict] = []
    end = time.perf_counter() + seconds
    i = 0
    while not walls[True] or time.perf_counter() < end:
        traced = i % 2 == 1
        out = base / f"pass{i}"
        if traced:
            instrument(tracer)
            first_span = len(tracer.spans)
            tracer.op = f"p{i}.setup"
        try:
            setup_s = workload.setup(out)
            tracer.op = None
            workload.prepare(out)
            ops = workload.round(op_prefix=f"p{i}" if traced else None)
        finally:
            tracer.op = None
            tracer.uninstall()
        walls[traced].append(setup_s + sum(op.seconds for op in ops))
        if traced:
            check_counters(workload, ops)
            per_pass.append(pass_layers(workload, tracer.spans[first_span:], ops))
        all_ops.extend(ops)
        shutil.rmtree(out)
        i += 1
    layers = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    layers["trace.overhead_share"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    )
    notes = {"traced_passes": len(walls[True]), "untraced_passes": len(walls[False]),
             "per_event": list(PER_EVENT) if workload.mode else []}
    return all_ops, layers, notes
