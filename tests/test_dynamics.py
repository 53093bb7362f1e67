import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from framecast import dynamics
from framecast.autodiff import Tensor, cross_entropy_logits
from framecast.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from framecast.dynamics import (
    DynamicsConfig,
    DynamicsModel,
    attention,
    benchmark_decode,
    build_block_causal_mask,
    build_token_causal_mask,
    dynamics_loss,
    load_dynamics,
    rollout,
    save_dynamics,
    train_dynamics,
)
from framecast.errors import ConfigError, HorizonError
from framecast.optim import Adam, TrainConfig

from helpers import assert_backward_matches_eager, central_difference, max_relative_error

TINY = DynamicsConfig(
    n_layers=1, n_heads=2, embed_dim=16, vocab_size=16, tokens_per_frame=4, max_frames=6
)


def tiny_model(mode="frame", seed=0, **overrides):
    cfg = DynamicsConfig(
        n_layers=overrides.get("n_layers", TINY.n_layers),
        n_heads=overrides.get("n_heads", TINY.n_heads),
        embed_dim=overrides.get("embed_dim", TINY.embed_dim),
        vocab_size=overrides.get("vocab_size", TINY.vocab_size),
        tokens_per_frame=overrides.get("tokens_per_frame", TINY.tokens_per_frame),
        max_frames=overrides.get("max_frames", TINY.max_frames),
        mode=mode,
    )
    return DynamicsModel(cfg, seed=seed)


class TestMasks:
    def test_single_frame_all_true(self):
        mask = build_block_causal_mask(1, 3)
        assert mask.allow.shape == (3, 3)
        assert mask.allow.all()

    def test_two_frames_two_tokens(self):
        mask = build_block_causal_mask(2, 2)
        expected = np.array(
            [
                [1, 1, 0, 0],
                [1, 1, 0, 0],
                [1, 1, 1, 1],
                [1, 1, 1, 1],
            ],
            dtype=bool,
        )
        assert np.array_equal(mask.allow, expected)

    def test_matches_predicate_exhaustively(self):
        for t in range(1, 7):
            for n in range(1, 17):
                allow = build_block_causal_mask(t, n).allow
                size = t * n
                for i in range(size):
                    for j in range(size):
                        assert allow[i, j] == (j // n <= i // n)

    def test_token_mask_is_lower_triangular(self):
        mask = build_token_causal_mask(3)
        assert np.array_equal(mask.allow, np.tril(np.ones((3, 3), dtype=bool)))
        assert build_token_causal_mask(1).allow.tolist() == [[True]]

    def test_token_mask_equals_block_mask_with_one_token(self):
        for s in (1, 2, 5, 9):
            token = build_token_causal_mask(s).allow
            block = build_block_causal_mask(s, 1).allow
            assert np.array_equal(token, block)

    @pytest.mark.parametrize("mode", ["frame", "token"])
    def test_model_mask_is_a_corner_of_its_full_mask(self, mode):
        model = tiny_model(mode)
        k = model.config.tokens_per_pass
        for length in range(k, model.config.block_size + 1, k):
            sliced = model._mask_for(length)
            assert np.array_equal(sliced, build_block_causal_mask(length // k, k).allow)
            assert not sliced.flags.writeable
        if k > 1:
            with pytest.raises(ConfigError, match="not a multiple"):
                model._mask_for(k + 1)


class TestAttention:
    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(4, 3)))
        k = Tensor(np.tile(rng.normal(size=(1, 3)), (4, 1)))
        v = Tensor(rng.normal(size=(4, 2)))
        out = attention(q, k, v, np.ones((4, 4), dtype=bool))
        assert np.allclose(out.data, np.tile(v.data.mean(axis=0), (4, 1)))

    def test_masked_value_cannot_leak(self):
        rng = np.random.default_rng(1)
        q, k = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
        v1 = rng.normal(size=(3, 2))
        v2 = v1.copy()
        v2[2] += 100.0  # perturb a disallowed position
        mask = np.array([[1, 1, 0], [1, 1, 0], [1, 1, 1]], dtype=bool)
        out1 = attention(q, k, Tensor(v1), mask).data
        out2 = attention(q, k, Tensor(v2), mask).data
        assert np.array_equal(out1[:2], out2[:2])
        assert not np.array_equal(out1[2], out2[2])

    def test_mask_shape_checked(self):
        q = Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            attention(q, q, q, np.ones((2, 2), dtype=bool))

    def test_gradients(self):
        rng = np.random.default_rng(2)
        mask = build_block_causal_mask(2, 2).allow
        w = rng.normal(size=(4, 2))
        q0 = rng.normal(size=(4, 3))
        k0 = rng.normal(size=(4, 3))
        v0 = rng.normal(size=(4, 2))
        for pick, builder in (
            ("q", lambda q: (attention(q, Tensor(k0), Tensor(v0), mask) * Tensor(w)).sum()),
            ("k", lambda k: (attention(Tensor(q0), k, Tensor(v0), mask) * Tensor(w)).sum()),
            ("v", lambda v: (attention(Tensor(q0), Tensor(k0), v, mask) * Tensor(w)).sum()),
        ):
            x0 = {"q": q0, "k": k0, "v": v0}[pick]
            x = Tensor(x0.copy(), requires_grad=True)
            builder(x).backward()
            numeric = central_difference(lambda a: builder(Tensor(a)).item(), x0.copy())
            assert max_relative_error(x.grad, numeric) <= 1e-4


class TestForward:
    def test_shapes(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, 16, size=(3, 4))
        logits = model.forward(tokens)
        assert logits.shape == (3, 4, 16)
        batched = model.forward(rng.integers(0, 16, size=(2, 3, 4)))
        assert batched.shape == (2, 3, 4, 16)

    def test_future_frames_cannot_affect_past_logits(self):
        rng = np.random.default_rng(4)
        model = tiny_model(seed=1)
        tokens = rng.integers(0, 16, size=(4, 4))
        base = model.forward(tokens).data
        for frame in (2, 3):
            mutated = tokens.copy()
            mutated[frame, rng.integers(0, 4)] = (mutated[frame, 0] + 1) % 16
            out = model.forward(mutated).data
            assert np.array_equal(out[:frame], base[:frame])

    def test_intra_frame_bidirectionality(self):
        rng = np.random.default_rng(5)
        hits = 0
        for trial in range(20):
            model = tiny_model(seed=100 + trial)
            tokens = rng.integers(0, 16, size=(3, 4))
            mutated = tokens.copy()
            mutated[1, 2] = (mutated[1, 2] + 1 + rng.integers(0, 14)) % 16
            base = model.forward(tokens).data
            out = model.forward(mutated).data
            if not np.array_equal(out[1, 0], base[1, 0]):
                hits += 1
        assert hits == 20

    def test_token_mode_causality(self):
        rng = np.random.default_rng(6)
        model = tiny_model(mode="token", seed=2)
        tokens = rng.integers(0, 16, size=(3, 4))
        base = model.forward(tokens).data.reshape(12, 16)
        for p in (5, 9, 11):
            mutated = tokens.reshape(-1).copy()
            mutated[p] = (mutated[p] + 3) % 16
            out = model.forward(mutated.reshape(3, 4)).data.reshape(12, 16)
            assert np.array_equal(out[:p], base[:p])
            assert not np.array_equal(out[p], base[p])

    def test_overlong_sequence_rejected(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            model.forward(np.zeros((7, 4), dtype=int))

    def test_vocab_overflow_rejected(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            model.forward(np.full((2, 4), 16))


class TestLossAndTraining:
    def test_initial_loss_near_log_vocab(self):
        rng = np.random.default_rng(7)
        model = tiny_model(seed=3)
        batch = rng.integers(0, 16, size=(4, 4, 4))
        loss = dynamics_loss(model, batch).item()
        assert abs(loss - np.log(16)) / np.log(16) < 0.05

    def test_token_mode_loss_counts_positions(self):
        model = tiny_model(mode="token", seed=4)
        batch = np.zeros((1, 2, 4), dtype=int)
        # smoke: runs and returns a positive scalar over 7 positions
        assert dynamics_loss(model, batch).item() > 0

    def test_vocab_mismatch_is_config_error(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            dynamics_loss(model, np.full((1, 2, 4), 99))

    def test_overfit_single_event(self):
        rng = np.random.default_rng(8)
        event = rng.integers(0, 16, size=(1, 4, 4))
        model = tiny_model(seed=5)
        cfg = TrainConfig(steps=400, batch_size=2, lr=3e-3, warmup_steps=20, seed=9)
        model, log = train_dynamics(model, event, cfg)
        assert log[-1][2] < 0.5 * log[0][2]
        # memorized next frame comes back under greedy decode
        for t in (1, 2, 3):
            decoded = rollout(model, event[0, :t], 1)[0]
            assert np.array_equal(decoded, event[0, t])

    def test_same_seed_same_loss_trajectory(self):
        rng = np.random.default_rng(10)
        data = rng.integers(0, 16, size=(3, 3, 4))
        losses = []
        for _ in range(2):
            model = tiny_model(seed=6)
            _, log = train_dynamics(
                model, data, TrainConfig(steps=20, batch_size=2, lr=1e-3, warmup_steps=5, seed=11)
            )
            losses.append([row[2] for row in log])
        assert losses[0] == losses[1]

    def test_non_finite_loss_stops_training(self):
        model = tiny_model(seed=3)
        model.params["head.w"].data[0, 0] = np.nan
        data = np.zeros((2, 3, TINY.tokens_per_frame), dtype=np.int64)
        with pytest.raises(ConfigError, match="step 1: loss is nan"):
            train_dynamics(model, data, TrainConfig(steps=2, batch_size=2))

    def test_save_load_round_trip(self, tmp_path):
        model = tiny_model(seed=7)
        path = tmp_path / "dyn.ckpt"
        save_dynamics(model, path, step=5)
        back, step = load_dynamics(path)
        assert step == 5
        assert back.config == model.config
        for name in model.params:
            assert np.array_equal(back.params[name].data, model.params[name].data)

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        model = tiny_model(seed=7)
        path = tmp_path / "dyn.ckpt"
        save_dynamics(model, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("loading drew from an rng")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        back, _ = load_dynamics(path)
        assert list(back.params) == list(model.params)
        assert back.forward_calls == 0

    def test_twelve_layer_round_trip(self, tmp_path):
        model = tiny_model(seed=7, n_layers=12)
        path = tmp_path / "deep.ckpt"
        save_dynamics(model, path, step=1)
        assert path.read_bytes().index(b"\n---\n") > 4096
        back, _ = load_dynamics(path)
        assert back.config == model.config
        for name in model.params:
            assert np.array_equal(back.params[name].data, model.params[name].data)


class TestGradientLifetime:
    @pytest.mark.parametrize("mode", ["frame", "token"])
    def test_backward_matches_eager_at_default_config(self, mode):
        cfg = DynamicsConfig(mode=mode)
        model = DynamicsModel(cfg, seed=1)
        batch = np.random.default_rng(30).integers(
            0, cfg.vocab_size, size=(2, cfg.max_frames, cfg.tokens_per_frame)
        )
        assert_backward_matches_eager(dynamics_loss(model, batch), list(model.params.values()))

    @pytest.mark.parametrize("mode", ["frame", "token"])
    def test_no_loss_outlives_its_step(self, mode, monkeypatch):
        # refcounting alone must free step s's graph before step s+1's forward
        losses = []
        loss_of = dynamics.dynamics_loss

        def traced(model, batch):
            assert all(ref() is None for ref in losses), "an earlier step's loss is alive"
            loss = loss_of(model, batch)
            losses.append(weakref.ref(loss))
            return loss

        monkeypatch.setattr(dynamics, "dynamics_loss", traced)
        data = np.random.default_rng(31).integers(0, 16, size=(3, 3, 4))
        gc.disable()
        try:
            _, log = train_dynamics(tiny_model(mode, seed=3), data, TrainConfig(steps=3, batch_size=2))
        finally:
            gc.enable()
        assert len(losses) == len(log) == 3
        assert all(ref() is None for ref in losses)

    @pytest.mark.parametrize("mode", ["frame", "token"])
    def test_logits_no_backward_reads_are_freed(self, mode):
        # the loss keeps what its backward reads, not the logits behind the
        # slice it was built from
        cfg = DynamicsConfig(mode=mode)
        model = DynamicsModel(cfg, seed=1)
        tokens = np.random.default_rng(32).integers(
            0, cfg.vocab_size, size=(2, cfg.max_frames * cfg.tokens_per_frame))
        length, k = tokens.shape[1], cfg.tokens_per_pass
        logits = model.forward_flat(tokens)
        ref = weakref.ref(logits.data)
        loss = cross_entropy_logits(logits.slice_axis(1, 0, length - k), tokens[:, k:])
        del logits
        assert ref() is None
        assert_backward_matches_eager(loss, list(model.params.values()))

    def test_default_step_peak(self):
        # one default-config frame-mode step at B = 8 keeps only what each
        # backward rule reads: 56.6 MiB traced (98.7 MiB when every forward
        # value lived until the step ended)
        cfg = DynamicsConfig()
        model = DynamicsModel(cfg, seed=1)
        opt = Adam(model.params)
        batch = np.random.default_rng(33).integers(
            0, cfg.vocab_size, size=(8, cfg.max_frames, cfg.tokens_per_frame))
        tracemalloc.start()
        try:
            opt.update(dynamics_loss(model, batch), 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 70 * 2**20


class TestStrictLoad:
    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "dyn.ckpt"
        save_dynamics(tiny_model(seed=3), path, step=2)
        return path

    @pytest.mark.parametrize(
        "edit",
        [
            lambda arrays, meta: arrays.update({"head.w": np.zeros((3, 3)), "extra": np.ones(2)}),
            lambda arrays, meta: arrays.pop("head.w"),
            lambda arrays, meta: meta.pop("mode"),
            lambda arrays, meta: meta.pop("step"),
            lambda arrays, meta: meta.update(unknown=1),
            lambda arrays, meta: meta.update(n_layers=1.5),
            lambda arrays, meta: meta.update(n_heads=3),
            lambda arrays, meta: arrays.update({k: v.astype(np.float32) for k, v in arrays.items()}),
        ],
        ids=["shape-and-extra", "missing-param", "missing-mode", "missing-step",
             "extra-meta", "meta-type", "invalid-config", "float32"],
    )
    def test_mismatch_raises(self, path, edit):
        arrays, meta = load_checkpoint(path)
        edit(arrays, meta)
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError):
            load_dynamics(path)

    @pytest.mark.parametrize("dims", [b"16,x", b"-16,16"])
    def test_malformed_dims(self, path, dims):
        path.write_bytes(re.sub(rb"(param head.w f8 )[0-9,]+", rb"\g<1>" + dims, path.read_bytes()))
        with pytest.raises(CheckpointError):
            load_dynamics(path)


class TestDecode:
    def test_frame_decode_counts_one_pass(self):
        model = tiny_model(seed=8)
        context = np.zeros((2, 4), dtype=int)
        before = model.forward_calls
        rollout(model, context, 1)
        assert model.forward_calls == before + 1

    def test_frame_decode_deterministic(self):
        model = tiny_model(seed=9)
        context = np.random.default_rng(12).integers(0, 16, size=(3, 4))
        assert np.array_equal(rollout(model, context, 1), rollout(model, context, 1))

    def test_horizon_errors(self):
        model = tiny_model(seed=12)
        full = np.zeros((6, 4), dtype=int)
        with pytest.raises(HorizonError):
            rollout(model, full, 1)
        with pytest.raises(HorizonError):
            rollout(model, np.zeros((3, 4), dtype=int), 4)

    def test_rollout_zero_horizon(self):
        out = rollout(tiny_model(seed=13), np.zeros((2, 4), dtype=int), 0)
        assert out.shape == (0, 4)

    def test_tokenwise_counts_n_passes(self):
        model = tiny_model(mode="token", seed=10)
        context = np.zeros((2, 4), dtype=int)
        before = model.forward_calls
        rollout(model, context, 1)
        assert model.forward_calls == before + 4

    def test_tokenwise_single_token_frame_matches_frame_decode_cost(self):
        frame = tiny_model(seed=11, tokens_per_frame=1)
        token = tiny_model(mode="token", seed=11, tokens_per_frame=1)
        context = np.zeros((2, 1), dtype=int)
        f0, t0 = frame.forward_calls, token.forward_calls
        rollout(frame, context, 1)
        rollout(token, context, 1)
        assert frame.forward_calls - f0 == token.forward_calls - t0 == 1

    def test_rollout_pass_counts(self):
        frame = tiny_model(seed=14)
        token = tiny_model(mode="token", seed=14)
        context = np.zeros((2, 4), dtype=int)
        f0 = frame.forward_calls
        rollout(frame, context, 3)
        assert frame.forward_calls - f0 == 3
        t0 = token.forward_calls
        rollout(token, context, 3)
        assert token.forward_calls - t0 == 3 * 4

    @pytest.mark.parametrize("mode", ["frame", "token"])
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (8,), (1, 2, 4)])
    def test_context_shape_checked(self, mode, shape):
        with pytest.raises(ConfigError):
            rollout(tiny_model(mode=mode), np.zeros(shape, dtype=int), 1)

    def test_empty_context_rejected(self):
        with pytest.raises(ValueError, match="at least one frame"):
            rollout(tiny_model(), np.zeros((0, 4), dtype=int), 1)

    @pytest.mark.parametrize(
        "mode, expected",
        [
            ("frame", [[12, 9, 11, 1], [10, 15, 7, 1], [15, 11, 3, 11]]),
            ("token", [[12, 9, 11, 1], [10, 15, 6, 1], [15, 10, 3, 10]]),
        ],
    )
    def test_sampled_rollout_is_pinned(self, mode, expected):
        # pins the rng draw order: one draw per token, in position order
        model = tiny_model(mode=mode, seed=19)
        context = np.random.default_rng(20).integers(0, 16, size=(2, 4))
        out = rollout(model, context, 3, temperature=0.7, rng=np.random.default_rng(21))
        assert out.dtype == np.int32
        assert out.tolist() == expected

    def test_temperature_sampling_needs_rng(self):
        model = tiny_model(seed=15)
        with pytest.raises(ValueError):
            rollout(model, np.zeros((1, 4), dtype=int), 1, temperature=1.0)
        rng = np.random.default_rng(0)
        out = rollout(model, np.zeros((1, 4), dtype=int), 1, temperature=1.0, rng=rng)
        assert out.shape == (1, 4)


class TestBenchmark:
    def test_pass_ratio_is_exact(self):
        frame = tiny_model(seed=16)
        token = tiny_model(mode="token", seed=16)
        report = benchmark_decode(frame, token, np.zeros((2, 4), dtype=int), horizon=3,
                                  repetitions=2, warmup_reps=1)
        assert report["frame_passes"] == 3
        assert report["token_passes"] == 12
        assert report["pass_ratio"] == 4.0
        assert report["wall_ratio"] > 0

    def test_single_repetition_has_undefined_std(self):
        frame = tiny_model(seed=17)
        token = tiny_model(mode="token", seed=17)
        report = benchmark_decode(frame, token, np.zeros((2, 4), dtype=int), horizon=2,
                                  repetitions=1, warmup_reps=0)
        assert report["frame_wall_std"] is None
        assert report["token_wall_std"] is None

    def test_mismatched_configs_rejected(self):
        frame = tiny_model(seed=18)
        token = tiny_model(mode="token", seed=18, embed_dim=32)
        with pytest.raises(ConfigError):
            benchmark_decode(frame, token, np.zeros((1, 4), dtype=int), horizon=1)
