"""End-to-end checks of the command-line pipeline on a miniature setup."""

import csv
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest

from framecast import cli, dynamics
from framecast.checkpoint import load_checkpoint, save_checkpoint
from framecast.cli import main
from framecast.config import RunConfig, write_config
from framecast.dynamics import DynamicsModel, forecast, load_dynamics, save_dynamics
from framecast.eventfile import read_event, read_events, read_manifest, write_event, write_manifest
from framecast.tokenizer import Tokenizer, read_tokens
from framecast.verification import MetricReport, evaluate_runs

TINY = RunConfig(
    seed=11,
    grid_h=8,
    grid_w=8,
    patch_size=4,
    codebook_size=32,
    codebook_dim=8,
    codebook_hidden=16,
    layers=1,
    heads=2,
    embed=16,
    tokens_per_frame=4,
    max_frames=5,
    lr=1e-3,
    warmup_steps=10,
    batch_size=4,
    tokenizer_steps=25,
    dynamics_steps=25,
    context_len=2,
    horizon=2,
    n_events=10,
    n_frames=4,
    data_max=50.0,
)


@pytest.fixture()
def workspace(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    write_config(TINY, cfg_path)
    return tmp_path, cfg_path


def run(cfg_path, out, *argv):
    return main(["--config", str(cfg_path), "--out", str(out), *argv])


def count_rollouts(monkeypatch) -> list:
    """One entry per dynamics.rollout call from here on."""
    rollouts, real = [], dynamics.rollout

    def counting(*args, **kwargs):
        rollouts.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "rollout", counting)
    return rollouts


class TestGenData:
    def test_writes_events_and_filtered_manifest(self, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        assert run(cfg_path, out, "gen-data") == 0
        events = sorted((out / "data").glob("event_*.evt"))
        assert len(events) == 10
        kept = read_manifest(out / "data" / "manifest.txt")
        assert 0 < len(kept) <= 10
        # nearest-rank median filter keeps the strictly-above half
        assert len(kept) == 5

    def test_zero_events_empty_manifest(self, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run0"
        assert run(cfg_path, out, "gen-data", "--n-events", "0") == 0
        assert read_manifest(out / "data" / "manifest.txt") == []

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_negative_event_count_is_config_error(self, workspace, route):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        assert run(cfg_path, out, "gen-data") == 0
        written = {name: (out / "data" / name).read_bytes() for name in ("manifest.txt", "events_all.txt")}
        if route == "flag":
            assert run(cfg_path, out, "gen-data", "--n-events", "-3") == 2
        else:
            cfg_path.write_text(cfg_path.read_text().replace("n_events = 10", "n_events = -3"))
            assert run(cfg_path, out, "gen-data") == 2
        assert {name: (out / "data" / name).read_bytes() for name in written} == written

    @pytest.mark.parametrize("value", ["150", "-1"])
    def test_unusable_filter_percentile_writes_nothing(self, workspace, value):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        cfg_path.write_text(cfg_path.read_text().replace(
            "filter_percentile = 50.0", f"filter_percentile = {value}"))
        assert run(cfg_path, out, "gen-data") == 2
        assert not out.exists()

    def test_same_seed_identical_files(self, workspace):
        tmp_path, cfg_path = workspace
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(cfg_path, out_a, "gen-data")
        run(cfg_path, out_b, "gen-data")
        for name in ("event_0000.evt", "event_0003.evt", "manifest.txt"):
            assert (out_a / "data" / name).read_bytes() == (out_b / "data" / name).read_bytes()


class TestTrainingCommands:
    def test_dynamics_requires_tokenizer(self, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        assert run(cfg_path, out, "train-dynamics") == 3

    def test_tokenizer_requires_data(self, workspace):
        tmp_path, cfg_path = workspace
        assert run(cfg_path, tmp_path / "empty", "train-tokenizer") == 3

    def test_loss_log_row_counts(self, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        assert run(cfg_path, out, "train-tokenizer") == 0
        with (out / "reports" / "tokenizer_loss.csv").open() as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == TINY.tokenizer_steps
        assert rows[0] == ["step", "lr", "total", "recon", "codebook", "commit"]

        assert run(cfg_path, out, "train-dynamics") == 0
        with (out / "reports" / "dynamics_frame_loss.csv").open() as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == TINY.dynamics_steps

    def test_zero_dynamics_steps(self, tmp_path):
        cfg_path = tmp_path / "zero.cfg"
        write_config(TINY.with_overrides(tokenizer_steps=0, dynamics_steps=0), cfg_path)
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        assert run(cfg_path, out, "train-tokenizer") == 0
        assert run(cfg_path, out, "train-dynamics") == 0
        text = (out / "reports" / "dynamics_frame_loss.csv").read_text()
        assert text.splitlines() == ["step,lr,loss"]

    def test_zero_batch_size_is_config_error(self, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        cfg_path.write_text(cfg_path.read_text().replace("batch_size = 4", "batch_size = 0"))
        assert run(cfg_path, out, "train-tokenizer") == 2

    def test_overflowing_run_stops_before_writing(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        write_config(TINY.with_overrides(lr=1e30, warmup_steps=1), cfg_path)
        assert run(cfg_path, out, "train-tokenizer") == 2
        assert "diverged at step" in capsys.readouterr().err
        assert not (out / "checkpoints" / "tokenizer.ckpt").exists()
        assert not (out / "reports" / "tokenizer_loss.csv").exists()

    def test_oversized_codebook_stops_before_writing(self, workspace, capsys):
        # a .tok file could not hold the ids, so forecast would fail halfway
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        write_config(TINY.with_overrides(codebook_size=65537), cfg_path)
        assert run(cfg_path, out, "train-tokenizer") == 2
        assert "n_codes must be at most 65536" in capsys.readouterr().err
        assert not (out / "checkpoints").exists() and not (out / "reports").exists()

    def test_resume_continues_step_counter(self, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        run(cfg_path, out, "train-tokenizer")
        assert run(cfg_path, out, "train-tokenizer", "--resume") == 0
        with (out / "reports" / "tokenizer_loss.csv").open() as f:
            rows = list(csv.reader(f))
        first_step = int(rows[1][0])
        assert first_step == TINY.tokenizer_steps + 1

    def test_resume_keeps_the_checkpoint_settings(self, workspace):
        # model settings in the config apply only when a tokenizer is created
        tmp_path, cfg_path = workspace
        out, other = tmp_path / "run", tmp_path / "other"
        run(cfg_path, out, "gen-data")
        assert run(cfg_path, out, "train-tokenizer") == 0
        shutil.copytree(out, other)
        assert run(cfg_path, out, "train-tokenizer", "--resume") == 0
        write_config(TINY.with_overrides(codebook_size=64, beta=0.5, data_max=500.0), cfg_path)
        assert run(cfg_path, other, "train-tokenizer", "--resume") == 0
        _, meta = load_checkpoint(other / "checkpoints" / "tokenizer.ckpt")
        assert (meta["n_codes"], meta["beta"], meta["data_max"], meta["step"]) == (
            32, 0.25, 50.0, 2 * TINY.tokenizer_steps)
        for name in ("checkpoints/tokenizer.ckpt", "reports/tokenizer_loss.csv"):
            assert (other / name).read_bytes() == (out / name).read_bytes()


class TestForecastAndEvaluate:
    @pytest.fixture()
    def trained(self, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        run(cfg_path, out, "train-tokenizer")
        run(cfg_path, out, "train-dynamics")
        run(cfg_path, out, "train-dynamics", "--mode", "token")
        return tmp_path, cfg_path, out

    def test_forecast_shapes_and_determinism(self, trained):
        tmp_path, cfg_path, out = trained
        event_path = next(iter(read_manifest(out / "data" / "manifest.txt")))
        assert run(cfg_path, out, "forecast", "--event", str(event_path)) == 0
        pred_path = out / "reports" / f"{event_path.stem}_frame_pred.evt"
        pred = read_event(pred_path)
        source = read_event(event_path)
        assert pred.n_frames == TINY.context_len + TINY.horizon
        assert pred.context_len == TINY.context_len
        assert np.array_equal(pred.context, source.frames[: TINY.context_len])

        first_bytes = pred_path.read_bytes()
        assert run(cfg_path, out, "forecast", "--event", str(event_path)) == 0
        assert pred_path.read_bytes() == first_bytes

    def test_both_modes_share_shape_metadata(self, trained):
        tmp_path, cfg_path, out = trained
        event_path = next(iter(read_manifest(out / "data" / "manifest.txt")))
        run(cfg_path, out, "forecast", "--event", str(event_path), "--mode", "frame")
        run(cfg_path, out, "forecast", "--event", str(event_path), "--mode", "token")
        frame_pred = read_event(out / "reports" / f"{event_path.stem}_frame_pred.evt")
        token_pred = read_event(out / "reports" / f"{event_path.stem}_token_pred.evt")
        assert frame_pred.frames.shape == token_pred.frames.shape
        assert frame_pred.context_len == token_pred.context_len

    @pytest.mark.parametrize("mode", ["frame", "token"])
    def test_forecast_is_the_library_call(self, trained, mode):
        _, cfg_path, out = trained
        event_path = read_manifest(out / "data" / "manifest.txt")[0]
        assert run(cfg_path, out, "forecast", "--event", str(event_path), "--mode", mode) == 0
        stem = out / "reports" / f"{event_path.stem}_{mode}_pred"
        tokenizer, _ = Tokenizer.load(out / "checkpoints" / "tokenizer.ckpt")
        model, _ = load_dynamics(out / "checkpoints" / f"dynamics_{mode}.ckpt")
        context = read_event(event_path).frames[: TINY.context_len]
        fields, ids = forecast(tokenizer, model, context, TINY.horizon)
        assert fields.dtype == np.float64 and ids.dtype == np.int32
        target = read_event(stem.with_suffix(".evt")).target
        assert target.dtype == np.float32
        assert np.array_equal(target, fields.astype(np.float32))
        tokens, n_codes = read_tokens(stem.with_suffix(".tok"))
        assert n_codes == TINY.codebook_size
        assert np.array_equal(tokens, ids)

    @pytest.mark.parametrize("mode", ["frame", "token"])
    def test_forecast_runs_at_the_tokenizers_scale(self, trained, mode):
        # the data scale is the tokenizer checkpoint's, whatever the config says
        _, cfg_path, out = trained
        event_path = read_manifest(out / "data" / "manifest.txt")[0]
        stem = out / "reports" / f"{event_path.stem}_{mode}_pred"
        written = []
        for cfg in (TINY, TINY.with_overrides(data_max=500.0)):
            write_config(cfg, cfg_path)
            assert run(cfg_path, out, "forecast", "--event", str(event_path), "--mode", mode) == 0
            written.append([stem.with_suffix(suffix).read_bytes() for suffix in (".evt", ".tok")])
        assert written[0] == written[1]
        assert read_event(stem.with_suffix(".evt")).data_max == TINY.data_max

    def test_event_shorter_than_context_is_config_error(self, trained, tmp_path):
        _, cfg_path, out = trained
        from framecast.eventfile import write_event
        from framecast.fields import EventSequence

        short = EventSequence(np.ones((2, 8, 8), dtype=np.float32), 1)
        short_path = tmp_path / "short.evt"
        # context_len 2 requires 2 frames of context; trim to 1 usable frame
        write_event(EventSequence(short.frames[:2], 1), short_path)
        cfg3 = TINY.with_overrides(context_len=3, horizon=2)
        cfg3_path = tmp_path / "c3.cfg"
        write_config(cfg3, cfg3_path)
        code = main(["--config", str(cfg3_path), "--out", str(out), "forecast",
                     "--event", str(short_path)])
        assert code == 2

    def test_unknown_mode_stops_every_command_before_writing(self, trained, capsys):
        tmp_path, cfg_path, out = trained
        bad = tmp_path / "fram.cfg"
        bad.write_text(cfg_path.read_text().replace("mode = frame", "mode = fram"))
        manifest = str(out / "data" / "manifest.txt")
        before = {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in out.rglob("*") if p.is_file()}
        for argv in (["gen-data"], ["train-tokenizer"], ["train-dynamics"],
                     ["forecast", "--event", str(read_manifest(manifest)[0])],
                     ["evaluate", "--pred", manifest, "--obs", manifest], ["benchmark"]):
            assert run(bad, out, *argv) == 2, argv
            assert "'fram'" in capsys.readouterr().err
        after = {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in out.rglob("*") if p.is_file()}
        assert after == before

    def test_missing_event_file_is_io_error(self, trained):
        tmp_path, cfg_path, out = trained
        assert run(cfg_path, out, "forecast", "--event", str(out / "nope.evt")) == 4

    def test_evaluate_self_is_perfect(self, trained):
        tmp_path, cfg_path, out = trained
        manifest = out / "data" / "manifest.txt"
        assert run(cfg_path, out, "evaluate", "--pred", str(manifest),
                   "--obs", str(manifest), "--taus", "1,2") == 0
        report = MetricReport.from_csv(out / "reports" / "evaluation.csv")
        for row in report.select(metric="mse"):
            assert row.value == 0.0
        for row in report.select(metric="csi"):
            if row.value is not None:
                assert row.value == 1.0

    def test_evaluate_report_leads_and_reparse(self, trained):
        tmp_path, cfg_path, out = trained
        data_manifest = out / "data" / "manifest.txt"
        event_paths = read_manifest(data_manifest)
        pred_paths = []
        for p in event_paths:
            run(cfg_path, out, "forecast", "--event", str(p))
            pred_paths.append(out / "reports" / f"{p.stem}_frame_pred.evt")
        pred_manifest = out / "reports" / "pred_manifest.txt"
        from framecast.eventfile import write_manifest

        write_manifest([p.name for p in pred_paths], pred_manifest)
        assert run(cfg_path, out, "evaluate", "--pred", str(pred_manifest),
                   "--obs", str(data_manifest)) == 0
        csv_path = out / "reports" / "evaluation.csv"
        report = MetricReport.from_csv(csv_path)
        leads = sorted({r.lead_minutes for r in report.select(metric="mse", stratum=None)})
        assert leads == [30, 60]
        # re-serialize and re-parse: identical rows
        again = out / "reports" / "evaluation2.csv"
        report.to_csv(again)
        assert MetricReport.from_csv(again).rows == report.rows
        # the machine-diffable text rendering sits next to the CSV
        text = (out / "reports" / "evaluation.txt").read_text()
        assert "metric" in text and "mse" in text

    def test_evaluate_manifest_mismatch(self, trained, tmp_path):
        _, cfg_path, out = trained
        data_manifest = out / "data" / "manifest.txt"
        truncated = tmp_path / "short_manifest.txt"
        lines = [str(p) for p in read_manifest(data_manifest)][:2]
        truncated.write_text("\n".join(lines) + "\n")
        assert run(cfg_path, out, "evaluate", "--pred", str(truncated),
                   "--obs", str(data_manifest)) == 2

    def test_evaluate_empty_manifests(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data", "--n-events", "0")
        manifest = out / "data" / "manifest.txt"
        assert run(cfg_path, out, "evaluate", "--pred", str(manifest), "--obs", str(manifest)) == 2
        assert str(manifest) in capsys.readouterr().err

    @pytest.mark.parametrize("taus", ["1,1", "1,nan", "inf"])
    def test_evaluate_rejects_unreportable_taus(self, workspace, capsys, taus):
        # the manifests do not exist: the taus are refused before any is read
        tmp_path, cfg_path = workspace
        missing = str(tmp_path / "missing.txt")
        assert run(cfg_path, tmp_path / "run", "evaluate", "--pred", missing, "--obs", missing,
                   "--taus", taus) == 2
        assert "--taus" in capsys.readouterr().err

    def test_evaluate_two_runs_of_one_manifest(self, workspace):
        # the kept events in reverse order stand in for a prediction run
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        obs_manifest = out / "data" / "manifest.txt"
        pred_manifest = out / "data" / "reversed.txt"
        write_manifest(read_manifest(obs_manifest)[::-1], pred_manifest)
        assert run(cfg_path, out, "evaluate", "--pred", str(pred_manifest), str(pred_manifest),
                   "--obs", str(obs_manifest)) == 0
        report = MetricReport.from_csv(out / "reports" / "evaluation.csv")

        def series(seed):
            return [(r.lead_minutes, r.metric, r.threshold, r.stratum, r.value)
                    for r in report.select(seed=seed)]

        assert series("0") and series("1") == series("0") == series("mean")
        stds = [r.value for r in report.select(seed="std") if r.value is not None]
        assert stds and all(v == 0.0 for v in stds)

        pred, obs = (np.stack([e.target for e in read_events(m)], dtype=np.float64)
                     for m in (pred_manifest, obs_manifest))
        west = np.zeros((TINY.grid_h, TINY.grid_w), dtype=bool)
        west[:, : TINY.grid_w // 2] = True
        expected = evaluate_runs([(pred, obs), (pred, obs)], {"west": west, "east": ~west},
                                 (1.0, 2.0, 8.0), TINY.step_minutes)
        assert report.rows == expected.rows

    def test_evaluate_masks_follow_the_events_grid(self, workspace):
        # the default config's 32x32 grid is not the 8x8 grid of these events
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        manifest = str(out / "data" / "manifest.txt")
        default_path = tmp_path / "default.cfg"
        write_config(RunConfig(), default_path)
        for path, name in ((cfg_path, "tiny.csv"), (default_path, "default.csv")):
            assert main(["--config", str(path), "--out", str(out), "evaluate",
                         "--pred", manifest, "--obs", manifest, "--out-name", name]) == 0

        def rows(name):
            lines = (out / "reports" / name).read_text().splitlines()
            return [line for line in lines if not line.startswith("#")]

        assert len(rows("tiny.csv")) > 1 and rows("default.csv") == rows("tiny.csv")

    def test_evaluate_labels_leads_with_the_events_step(self, workspace):
        # six 30-minute events, evaluated under a config whose step is 10 minutes
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        assert run(cfg_path, out, "gen-data", "--n-events", "6") == 0
        manifest = out / "data" / "events_all.txt"
        assert len(read_manifest(manifest)) == 6
        assert {e.step_minutes for e in read_events(manifest)} == {30}
        ten_path = tmp_path / "ten.cfg"
        write_config(TINY.with_overrides(step_minutes=10), ten_path)
        assert run(ten_path, out, "evaluate", "--pred", str(manifest), "--obs", str(manifest)) == 0
        report = MetricReport.from_csv(out / "reports" / "evaluation.csv")
        assert sorted({r.lead_minutes for r in report.select(metric="mse")}) == [30, 60]

    def test_evaluate_refuses_mixed_steps(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        assert run(cfg_path, out, "gen-data", "--n-events", "6") == 0
        manifest = out / "data" / "events_all.txt"
        paths = read_manifest(manifest)
        odd = out / "data" / "odd_step.evt"
        write_event(replace(read_event(paths[0]), step_minutes=10), odd)
        mixed = out / "data" / "mixed.txt"
        write_manifest([odd, *paths[1:]], mixed)
        for pred, obs in ((mixed, manifest), (manifest, mixed)):
            assert run(cfg_path, out, "evaluate", "--pred", str(pred), "--obs", str(obs)) == 2
            assert "step_minutes" in capsys.readouterr().err
        assert not (out / "reports" / "evaluation.csv").exists()

    def test_benchmark_report(self, trained):
        tmp_path, cfg_path, out = trained
        assert run(cfg_path, out, "benchmark", "--reps", "3") == 0
        text = (out / "reports" / "benchmark.txt").read_text()
        assert f"pass ratio (token / frame): {TINY.tokens_per_frame}" in text
        assert "not reproduced here" in text
        assert "hardware:" in text
        assert "end to end" in text
        assert "median of 5 calls after 1 warm-up call:" in text

    def test_benchmark_horizon_reaches_both_sections(self, trained, monkeypatch):
        _, cfg_path, out = trained
        horizons = []

        def spy(tokenizer, model, context, horizon):
            horizons.append(horizon)
            return forecast(tokenizer, model, context, horizon)

        monkeypatch.setattr(cli, "forecast", spy)
        assert run(cfg_path, out, "benchmark", "--reps", "1", "--horizon", "1") == 0
        text = (out / "reports" / "benchmark.txt").read_text()
        assert "# horizon = 1\n" in text and "horizon: 1 frames" in text
        assert horizons == [1] * 12  # a warm-up and 5 timed calls per mode

    @pytest.mark.parametrize(
        "override",
        [{"codebook_size": 64}, {"grid_h": 16, "grid_w": 16, "tokens_per_frame": 16},
         {"data_max": 500.0}],
        ids=["codebook", "grid", "data_max"],
    )
    def test_benchmark_runs_the_checkpoints_settings(self, trained, override):
        _, cfg_path, out = trained
        write_config(TINY.with_overrides(**override), cfg_path)
        assert run(cfg_path, out, "benchmark", "--reps", "1") == 0
        text = (out / "reports" / "benchmark.txt").read_text()
        assert f"tokens_per_frame: {TINY.tokens_per_frame}\n" in text and "end to end" in text

    def test_benchmark_zero_horizon_is_config_error(self, trained, capsys):
        _, cfg_path, out = trained
        assert run(cfg_path, out, "benchmark", "--reps", "1", "--horizon", "0") == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not (out / "reports" / "benchmark.txt").exists()

    def test_benchmark_single_rep_std_undefined(self, trained):
        tmp_path, cfg_path, out = trained
        assert run(cfg_path, out, "benchmark", "--reps", "1") == 0
        text = (out / "reports" / "benchmark.txt").read_text()
        assert "std undefined" in text

    def test_benchmark_requires_both_modes(self, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        run(cfg_path, out, "train-tokenizer")
        run(cfg_path, out, "train-dynamics")  # frame only
        assert run(cfg_path, out, "benchmark") == 3

    @pytest.mark.parametrize("remove", ["tokenizer", "events"])
    def test_benchmark_requires_the_tokenizer_and_events(self, workspace, monkeypatch, capsys,
                                                         remove):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        ckpt = out / "checkpoints"
        ckpt.mkdir()
        if remove == "events":
            Tokenizer(TINY.tokenizer_config(), seed=1).save(ckpt / "tokenizer.ckpt")
            write_manifest([], out / "data" / "manifest.txt")
        for mode in ("frame", "token"):
            save_dynamics(DynamicsModel(TINY.dynamics_config(mode), seed=1),
                          ckpt / f"dynamics_{mode}.ckpt")
        rollouts = count_rollouts(monkeypatch)
        assert run(cfg_path, out, "benchmark", "--reps", "1") == 3
        assert capsys.readouterr().err.startswith("dependency error")
        assert rollouts == []  # refused before any timing
        assert not (out / "reports" / "benchmark.txt").exists()


class TestMismatchedCheckpoint:
    """A checkpoint that does not fit its model is an I/O error (exit 4)."""

    @pytest.fixture()
    def untrained(self, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        ckpt = out / "checkpoints"
        ckpt.mkdir()
        Tokenizer(TINY.tokenizer_config(), seed=1).save(ckpt / "tokenizer.ckpt")
        save_dynamics(DynamicsModel(TINY.dynamics_config("frame"), seed=1), ckpt / "dynamics_frame.ckpt")
        event = read_manifest(out / "data" / "manifest.txt")[0]
        return cfg_path, out, ckpt / "dynamics_frame.ckpt", event

    def test_intact_checkpoint_forecasts(self, untrained):
        cfg_path, out, _, event = untrained
        assert run(cfg_path, out, "forecast", "--event", str(event)) == 0

    def test_missing_mode_names_its_training_command(self, untrained, capsys):
        # plain train-dynamics trains the config's mode, frame here
        cfg_path, out, _, event = untrained
        assert run(cfg_path, out, "forecast", "--event", str(event), "--mode", "token") == 3
        assert "run `train-dynamics --mode token` first" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, edit, named",
        [
            ("dynamics_frame.ckpt",
             lambda arrays, meta: arrays.update({"head.w": np.zeros((3, 3)), "extra": np.ones(2)}),
             "['extra']"),
            ("dynamics_frame.ckpt", lambda arrays, meta: arrays.pop("head.w"), "['head.w']"),
            ("dynamics_frame.ckpt", lambda arrays, meta: meta.pop("mode"), "['mode']"),
            # a tokenizer written before the checkpoint recorded its data scale
            ("tokenizer.ckpt", lambda arrays, meta: meta.pop("data_max"), "['data_max']"),
            ("dynamics_frame.ckpt",
             lambda arrays, meta: arrays.update({k: v.astype(np.float32) for k, v in arrays.items()}),
             "is float32"),
        ],
        ids=["shape-and-extra", "missing-param", "missing-mode", "missing-data-max", "float32"],
    )
    def test_mismatched_entries(self, untrained, capsys, name, edit, named):
        cfg_path, out, _, event = untrained
        path = out / "checkpoints" / name
        arrays, meta = load_checkpoint(path)
        edit(arrays, meta)
        save_checkpoint(path, arrays, meta)
        assert run(cfg_path, out, "forecast", "--event", str(event)) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error") and named in err

    @pytest.mark.parametrize("dims", [b"16,x", b"-16,32"])
    def test_malformed_dims(self, untrained, capsys, dims):
        cfg_path, out, path, event = untrained
        path.write_bytes(re.sub(rb"(param head.w f8 )[0-9,]+", rb"\g<1>" + dims, path.read_bytes()))
        assert run(cfg_path, out, "forecast", "--event", str(event)) == 4
        assert capsys.readouterr().err.startswith("I/O error")


class TestMismatchedPair:
    """A dynamics vocabulary that is not the tokenizer's codebook is a config
    error (exit 2), raised before anything is written."""

    @pytest.fixture()
    def pair(self, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        ckpt = out / "checkpoints"
        ckpt.mkdir()
        Tokenizer(TINY.with_overrides(codebook_size=16).tokenizer_config(), seed=1).save(
            ckpt / "tokenizer.ckpt")
        for mode in ("frame", "token"):
            save_dynamics(DynamicsModel(TINY.dynamics_config(mode), seed=1),
                          ckpt / f"dynamics_{mode}.ckpt")
        return cfg_path, out

    def _refused(self, capsys, out, *checkpoints):
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert f"vocab_size {TINY.codebook_size}" in err and "n_codes 16" in err
        for name in checkpoints:
            assert str(out / "checkpoints" / name) in err
        assert not (out / "reports").exists() or not any((out / "reports").iterdir())

    @pytest.mark.parametrize("mode", ["frame", "token"])
    def test_forecast(self, pair, capsys, mode):
        cfg_path, out = pair
        event = read_manifest(out / "data" / "manifest.txt")[0]
        assert run(cfg_path, out, "forecast", "--event", str(event), "--mode", mode) == 2
        self._refused(capsys, out, "tokenizer.ckpt", f"dynamics_{mode}.ckpt")

    def test_benchmark(self, pair, capsys, monkeypatch):
        cfg_path, out = pair
        rollouts = count_rollouts(monkeypatch)
        assert run(cfg_path, out, "benchmark", "--reps", "1") == 2
        self._refused(capsys, out, "tokenizer.ckpt", "dynamics_frame.ckpt")
        assert rollouts == []  # refused before any timing

    @pytest.mark.parametrize("resume", [False, True], ids=["new", "resumed"])
    def test_train_dynamics(self, pair, capsys, resume):
        cfg_path, out = pair
        path = out / "checkpoints" / "dynamics_frame.ckpt"
        before = path.read_bytes()
        assert run(cfg_path, out, "train-dynamics", *(["--resume"] if resume else [])) == 2
        self._refused(capsys, out, "tokenizer.ckpt", "dynamics_frame.ckpt")
        assert path.read_bytes() == before


class TestWrongModeCheckpoint:
    """A dynamics checkpoint stored under the other mode's name is a config
    error (exit 2), raised before anything is written."""

    @pytest.fixture(params=["frame", "token"])
    def swapped(self, request, workspace):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        run(cfg_path, out, "gen-data")
        ckpt = out / "checkpoints"
        ckpt.mkdir()
        Tokenizer(TINY.tokenizer_config(), seed=1).save(ckpt / "tokenizer.ckpt")
        for mode in ("frame", "token"):
            save_dynamics(DynamicsModel(TINY.dynamics_config(mode), seed=1),
                          ckpt / f"dynamics_{mode}.ckpt")
        mode = request.param
        other = "token" if mode == "frame" else "frame"
        shutil.copyfile(ckpt / f"dynamics_{other}.ckpt", ckpt / f"dynamics_{mode}.ckpt")
        return cfg_path, out, mode, other

    def _refused(self, capsys, out, mode, other):
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert str(out / "checkpoints" / f"dynamics_{mode}.ckpt") in err
        assert f"{other}-mode" in err and f"expected {mode} mode" in err
        assert not (out / "reports").exists() or not any((out / "reports").iterdir())

    def test_forecast(self, swapped, capsys):
        cfg_path, out, mode, other = swapped
        event = read_manifest(out / "data" / "manifest.txt")[0]
        assert run(cfg_path, out, "forecast", "--event", str(event), "--mode", mode) == 2
        self._refused(capsys, out, mode, other)

    def test_benchmark(self, swapped, capsys):
        cfg_path, out, mode, other = swapped
        assert run(cfg_path, out, "benchmark", "--reps", "1") == 2
        self._refused(capsys, out, mode, other)

    def test_resumed_train_dynamics(self, swapped, capsys):
        cfg_path, out, mode, other = swapped
        path = out / "checkpoints" / f"dynamics_{mode}.ckpt"
        before = path.read_bytes()
        assert run(cfg_path, out, "train-dynamics", "--mode", mode, "--resume") == 2
        self._refused(capsys, out, mode, other)
        assert path.read_bytes() == before


class TestAllocatorPolicy:
    def test_same_bytes_where_mallopt_is_missing(self, workspace, monkeypatch):
        tmp_path, cfg_path = workspace

        def pipeline(out):
            assert run(cfg_path, out, "gen-data") == 0
            assert run(cfg_path, out, "train-tokenizer") == 0
            assert run(cfg_path, out, "train-dynamics") == 0
            event = next(iter(read_manifest(out / "data" / "manifest.txt")))
            assert run(cfg_path, out, "forecast", "--event", str(event)) == 0
            return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

        with_policy = pipeline(tmp_path / "with")
        monkeypatch.setattr(cli, "_libc_mallopt", lambda: None)
        assert cli.keep_freed_heap() is False
        without = pipeline(tmp_path / "without")
        assert without.keys() == with_policy.keys() and len(without) > 10
        for name, data in with_policy.items():
            assert without[name] == data, name


class TestParser:
    def test_one_parser_serves_each_call(self, workspace):
        # main builds its parser once per process; neither a subcommand nor
        # an option of one call carries over to the next
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        assert cli.build_parser() is cli.build_parser()
        assert run(cfg_path, out, "gen-data", "--n-events", "0") == 0
        assert read_manifest(out / "data" / "manifest.txt") == []
        assert run(cfg_path, out, "gen-data") == 0
        assert len(read_manifest(out / "data" / "manifest.txt")) == 5
        assert run(cfg_path, out, "train-dynamics") == 3  # no tokenizer yet


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "none.cfg"), "gen-data"]) == 2

    def test_bad_config_value(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("tokens_per_frame = 9\n")
        assert main(["--config", str(bad), "gen-data"]) == 2

    def test_non_utf8_manifest_is_format_error(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        manifest = tmp_path / "bad.txt"
        manifest.write_bytes(b"\xff\xfe\xfa")
        assert run(cfg_path, tmp_path / "run", "evaluate", "--pred", str(manifest),
                   "--obs", str(manifest)) == 4
        assert str(manifest) in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        write_config(TINY, cfg_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg_path), "--seed", "99", "--out", str(out_a),
                     "gen-data"]) == 0
        assert main(["--config", str(cfg_path), "--seed", "99", "--out", str(out_b),
                     "gen-data"]) == 0
        a = (out_a / "data" / "event_0000.evt").read_bytes()
        b = (out_b / "data" / "event_0000.evt").read_bytes()
        assert a == b
        # and differs from the config-seed run
        out_c = tmp_path / "c"
        main(["--config", str(cfg_path), "--out", str(out_c), "gen-data"])
        assert (out_c / "data" / "event_0000.evt").read_bytes() != a
