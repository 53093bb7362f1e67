import pytest

from framecast.config import RunConfig, load_config, parse_config_text, write_config
from framecast.errors import ConfigError
from framecast.optim import TrainConfig


class TestRunConfig:
    def test_defaults_are_consistent(self):
        cfg = RunConfig()
        assert cfg.context_len + cfg.horizon <= cfg.max_frames
        assert (cfg.grid_h // cfg.patch_size) * (cfg.grid_w // cfg.patch_size) == cfg.tokens_per_frame

    def test_task_budget_checked(self):
        with pytest.raises(ConfigError):
            RunConfig(context_len=4, horizon=6, max_frames=9)

    def test_unknown_mode_checked(self):
        with pytest.raises(ConfigError, match="'fram'"):
            parse_config_text("mode = fram\n")

    def test_token_layout_checked(self):
        with pytest.raises(ConfigError):
            RunConfig(tokens_per_frame=9)

    def test_patch_divisibility_checked(self):
        with pytest.raises(ConfigError):
            RunConfig(grid_h=30)

    @pytest.mark.parametrize(
        "override",
        [
            {"batch_size": 0},
            {"batch_size": -3},
            {"tokenizer_steps": -2},
            {"dynamics_steps": -1},
            {"lr": -1.0},
            {"lr": 0.0},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"n_events": -1},
            {"warmup_steps": 0},
            {"filter_percentile": 150.0},
            {"filter_percentile": -1.0},
            {"filter_percentile": float("nan")},
            {"data_max": 0.0},
            {"data_max": float("nan")},
            {"data_max": float("inf")},
            {"beta": 0.0},
            {"beta": float("nan")},
            {"beta": float("inf")},
        ],
        ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_unusable_training_values_rejected(self, override):
        with pytest.raises(ConfigError):
            RunConfig(**override)

    def test_derived_configs(self):
        cfg = RunConfig(data_max=50.0)
        tok = cfg.tokenizer_config()
        assert tok.patch_size == cfg.patch_size and tok.n_codes == cfg.codebook_size
        assert tok.data_max == 50.0
        dyn = cfg.dynamics_config("token")
        assert dyn.mode == "token" and dyn.vocab_size == cfg.codebook_size
        assert cfg.train_config(7) == TrainConfig(steps=7, batch_size=cfg.batch_size, lr=cfg.lr,
                                                  warmup_steps=cfg.warmup_steps, seed=cfg.seed)


class TestParsing:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(seed=7, grid_h=16, grid_w=16, patch_size=4, tokens_per_frame=16)
        path = tmp_path / "run.cfg"
        write_config(cfg, path)
        assert load_config(path) == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# a comment\n\nseed = 5  # trailing\n")
        assert cfg.seed == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("not_a_key = 3\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed = banana\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"'seed' is set twice, on lines 1 and 3"):
            parse_config_text("seed = 1\nlr = 0.01\nseed = 2\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed 5\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")
