"""End-to-end checks of the command-line pipeline on a miniature setup."""

import csv
import re

import numpy as np
import pytest

from framecast.checkpoint import load_checkpoint, save_checkpoint
from framecast.cli import main
from framecast.config import RunConfig, write_config
from framecast.dynamics import DynamicsModel, save_dynamics
from framecast.eventfile import read_event, read_manifest
from framecast.tokenizer import Tokenizer
from framecast.verification import MetricReport

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

    def test_benchmark_report(self, trained):
        tmp_path, cfg_path, out = trained
        assert run(cfg_path, out, "benchmark", "--reps", "3") == 0
        text = (out / "reports" / "benchmark.txt").read_text()
        assert f"pass ratio (token / frame): {TINY.tokens_per_frame}" in text
        assert "not reproduced here" in text
        assert "hardware:" in text
        assert "end to end" in text
        assert "median of 5 calls after 1 warm-up call:" in text

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


class TestMismatchedCheckpoint:
    """A dynamics checkpoint that does not fit the model is an I/O error (exit 4)."""

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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda arrays, meta: arrays.update({"head.w": np.zeros((3, 3)), "extra": np.ones(2)}),
            lambda arrays, meta: arrays.pop("head.w"),
            lambda arrays, meta: meta.pop("mode"),
            lambda arrays, meta: arrays.update({k: v.astype(np.float32) for k, v in arrays.items()}),
        ],
        ids=["shape-and-extra", "missing-param", "missing-mode", "float32"],
    )
    def test_mismatched_entries(self, untrained, capsys, edit):
        cfg_path, out, path, event = untrained
        arrays, meta = load_checkpoint(path)
        edit(arrays, meta)
        save_checkpoint(path, arrays, meta)
        assert run(cfg_path, out, "forecast", "--event", str(event)) == 4
        assert capsys.readouterr().err.startswith("I/O error")

    @pytest.mark.parametrize("dims", [b"16,x", b"-16,32"])
    def test_malformed_dims(self, untrained, capsys, dims):
        cfg_path, out, path, event = untrained
        path.write_bytes(re.sub(rb"(param head.w f8 )[0-9,]+", rb"\g<1>" + dims, path.read_bytes()))
        assert run(cfg_path, out, "forecast", "--event", str(event)) == 4
        assert capsys.readouterr().err.startswith("I/O error")


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "none.cfg"), "gen-data"]) == 2

    def test_bad_config_value(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("tokens_per_frame = 9\n")
        assert main(["--config", str(bad), "gen-data"]) == 2

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
