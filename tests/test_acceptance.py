"""Acceptance gate: one test per criterion, one [PASS] line each.

Run with `pytest -s tests/test_acceptance.py` to see the pass lines. The
learnability test (criterion 6) trains three seeded pipelines end to end and
dominates the runtime (several minutes on a desktop CPU, bounded below).
"""

import math
import time

import numpy as np
import pytest

from framecast.advection import AdvectionParams, generate_advection_event
from framecast.autodiff import Tensor, cross_entropy_logits, layer_norm, softmax
from framecast.checkpoint import load_checkpoint, save_checkpoint
from framecast.cli import main
from framecast.config import RunConfig, write_config
from framecast.dynamics import (
    DynamicsConfig,
    DynamicsModel,
    DynamicsTrainConfig,
    attention,
    benchmark_decode,
    build_block_causal_mask,
    build_token_causal_mask,
    decode_next_frame,
    dynamics_loss,
    train_dynamics,
)
from framecast.eventfile import read_event, write_event
from framecast.fields import (
    EventSequence,
    denormalize,
    normalize,
    rate_to_reflectivity,
    reflectivity_to_rate,
)
from framecast.tokenizer import (
    Tokenizer,
    TokenizerConfig,
    TokenizerTrainConfig,
    quantize,
    train_tokenizer,
    vqvae_loss,
)
from framecast.verification import (
    DEFAULT_PERCENTILE_BINS,
    ContingencyTable,
    ROCCurve,
    assign_percentile_bins,
    auc,
    contingency,
    csi,
    evaluate_catchments,
    far,
    mae,
    mse,
    pcc,
    pod,
    pofd,
    roc_curve,
)

from helpers import central_difference, max_relative_error


def _passed(criterion, detail):
    print(f"\n[PASS] criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: mask suite
# ---------------------------------------------------------------------------


class TestCriterion1MaskSuite:
    def test_mask_suite(self):
        start = time.time()
        # exhaustive predicate equivalence for every T <= 6, N <= 16
        for t in range(1, 7):
            for n in range(1, 17):
                allow = build_block_causal_mask(t, n).allow
                size = t * n
                for i in range(size):
                    fi = i // n
                    for j in range(size):
                        assert allow[i, j] == (j // n <= fi)
        for s in (1, 2, 7):
            assert np.array_equal(
                build_token_causal_mask(s).allow, build_block_causal_mask(s, 1).allow
            )

        # behavioral probes over 100 random-weight trials
        cfg_args = dict(n_layers=1, n_heads=2, embed_dim=16, vocab_size=16,
                        tokens_per_frame=4, max_frames=6)
        rng = np.random.default_rng(1234)
        for trial in range(100):
            frame_model = DynamicsModel(DynamicsConfig(mode="frame", **cfg_args), seed=trial)
            tokens = rng.integers(0, 16, size=(4, 4))
            base = frame_model.forward(tokens).data

            future = int(rng.integers(2, 4))
            mutated = tokens.copy()
            mutated[future, int(rng.integers(0, 4))] += 1
            mutated[future] %= 16
            assert np.array_equal(frame_model.forward(mutated).data[:future], base[:future])

            # bidirectionality: a sibling token in frame 1 must reach (1, 0)
            sibling = tokens.copy()
            sibling[1, 2] = (sibling[1, 2] + 1 + int(rng.integers(0, 14))) % 16
            assert not np.array_equal(frame_model.forward(sibling).data[1, 0], base[1, 0])

            token_model = DynamicsModel(DynamicsConfig(mode="token", **cfg_args), seed=trial)
            flat_base = token_model.forward(tokens).data.reshape(16, -1)
            p = int(rng.integers(1, 15))
            flat_mut = tokens.reshape(-1).copy()
            flat_mut[p] = (flat_mut[p] + 5) % 16
            out = token_model.forward(flat_mut.reshape(4, 4)).data.reshape(16, -1)
            assert np.array_equal(out[:p], flat_base[:p])

        elapsed = time.time() - start
        assert elapsed < 60.0
        _passed(1, f"mask predicate exhaustive + 100 perturbation trials in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: decode-cost identity
# ---------------------------------------------------------------------------


class TestCriterion2DecodeCost:
    def test_decode_cost_identity(self):
        toy = dict(n_layers=2, n_heads=2, embed_dim=64, vocab_size=1024,
                   tokens_per_frame=16, max_frames=9)
        frame_model = DynamicsModel(DynamicsConfig(mode="frame", **toy), seed=0)
        token_model = DynamicsModel(DynamicsConfig(mode="token", **toy), seed=0)
        context = np.random.default_rng(0).integers(0, 1024, size=(3, 16))

        report = benchmark_decode(
            frame_model, token_model, context, horizon=6, repetitions=50, warmup_reps=2
        )
        assert report["frame_passes"] == 6
        assert report["token_passes"] == 6 * 16
        assert report["pass_ratio"] == 16.0  # zero tolerance
        assert report["wall_ratio"] >= 4.0
        _passed(
            2,
            f"passes 6 vs 96 (ratio exactly 16), wall-clock ratio "
            f"{report['wall_ratio']:.1f}x >= 4x over 50 repetitions",
        )


# ---------------------------------------------------------------------------
# criterion 3: gradient suite
# ---------------------------------------------------------------------------


def _grad_check(build_loss, x0, tol=1e-4, h=1e-5):
    x = Tensor(np.array(x0, dtype=np.float64), requires_grad=True)
    build_loss(x).backward()
    numeric = central_difference(lambda a: build_loss(Tensor(a)).item(), x0, h=h)
    err = max_relative_error(x.grad, numeric)
    assert err <= tol, f"gradient mismatch: rel err {err}"


class TestCriterion3GradientSuite:
    def test_gradient_suite(self):
        start = time.time()
        rng = np.random.default_rng(99)

        for _ in range(100):  # matmul
            a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
            w = rng.normal(size=(3, 2))
            _grad_check(lambda a: (a @ Tensor(b0) * Tensor(w)).sum(), a0)
            _grad_check(lambda b: (Tensor(a0) @ b * Tensor(w)).sum(), b0)

        for _ in range(100):  # softmax, with and without a mask
            x0 = rng.normal(size=(3, 5))
            w = rng.normal(size=(3, 5))
            mask = rng.uniform(size=(3, 5)) > 0.3
            mask[:, 0] = True
            _grad_check(lambda x: (softmax(x, axis=-1) * Tensor(w)).sum(), x0)
            _grad_check(lambda x: (softmax(x, mask=mask) * Tensor(w)).sum(), x0)

        for _ in range(100):  # layer_norm
            x0 = rng.normal(size=(2, 6))
            g0, b0 = rng.normal(size=6), rng.normal(size=6)
            w = rng.normal(size=(2, 6))
            _grad_check(lambda x: (layer_norm(x, Tensor(g0), Tensor(b0)) * Tensor(w)).sum(), x0)

        for _ in range(100):  # cross entropy
            logits0 = rng.normal(size=(4, 6))
            targets = rng.integers(0, 6, size=4)
            _grad_check(lambda x: cross_entropy_logits(x, targets), logits0)

        mask = build_block_causal_mask(2, 2).allow
        for _ in range(100):  # attention (q, k, and v paths)
            q0, k0 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
            v0, w = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
            _grad_check(lambda q: (attention(q, Tensor(k0), Tensor(v0), mask) * Tensor(w)).sum(), q0)
            _grad_check(lambda k: (attention(Tensor(q0), k, Tensor(v0), mask) * Tensor(w)).sum(), k0)
            _grad_check(lambda v: (attention(Tensor(q0), Tensor(k0), v, mask) * Tensor(w)).sum(), v0)

        # straight-through path: analytic grad at the encoder output equals
        # d(recon)/dz_q by finite differences plus the commitment pull
        tok_cfg = TokenizerConfig(patch_size=4, n_codes=16, latent_dim=6, hidden_dim=12)
        for trial in range(100):
            tok = Tokenizer(tok_cfg, seed=trial)
            field = rng.uniform(0, 1, size=(8, 8))
            z_leaf = Tensor(tok.encode(field).data.copy(), requires_grad=True)
            _, z_q, st = tok.straight_through(z_leaf)
            x_hat = tok.decode(st)
            total, _, _, _ = vqvae_loss(Tensor(field), x_hat, z_leaf, z_q, tok_cfg.beta)
            total.backward()

            def recon_of(z):
                out = tok.decode(Tensor(np.asarray(z)))
                return float(((Tensor(field) - out) ** 2).sum().item())

            numeric = central_difference(recon_of, z_q.data.copy(), h=1e-6)
            expected = numeric + 2.0 * (z_leaf.data - z_q.data)
            assert max_relative_error(z_leaf.grad, expected) <= 1e-4

        # full model loss: sampled parameter coordinates vs finite differences
        cfg = DynamicsConfig(n_layers=1, n_heads=2, embed_dim=16, vocab_size=12,
                             tokens_per_frame=4, max_frames=4, mode="frame")
        for trial in range(100):
            model = DynamicsModel(cfg, seed=trial)
            batch = rng.integers(0, 12, size=(2, 3, 4))
            loss = dynamics_loss(model, batch)
            loss.backward()
            names = list(model.params)
            for _ in range(3):
                name = names[int(rng.integers(0, len(names)))]
                param = model.params[name]
                flat = param.data.reshape(-1)
                idx = int(rng.integers(0, flat.size))
                orig = flat[idx]
                h = 1e-5
                flat[idx] = orig + h
                up = dynamics_loss(model, batch).item()
                flat[idx] = orig - h
                down = dynamics_loss(model, batch).item()
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                analytic = param.grad.reshape(-1)[idx]
                scale = max(1.0, abs(analytic), abs(numeric))
                assert abs(analytic - numeric) / scale <= 1e-4

        elapsed = time.time() - start
        assert elapsed < 300.0
        _passed(3, f"all differentiable ops match central differences in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: metric oracle suite
# ---------------------------------------------------------------------------


class TestCriterion4MetricOracles:
    def test_metric_oracles(self):
        start = time.time()
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = int(rng.integers(1, 7))
            h = int(rng.integers(4, 33))
            w = int(rng.integers(4, 33))
            pred = rng.uniform(0, 3, size=(t, h, w))
            obs = rng.uniform(0, 3, size=(t, h, w))

            # continuous scores against fsum loop oracles
            sq, ab = [], []
            sp, so = [], []
            for ti in range(t):
                for i in range(h):
                    for j in range(w):
                        d = pred[ti, i, j] - obs[ti, i, j]
                        sq.append(d * d)
                        ab.append(abs(d))
                        sp.append(pred[ti, i, j])
                        so.append(obs[ti, i, j])
            n = t * h * w
            assert abs(mse(pred, obs) - math.fsum(sq) / n) <= 1e-12
            assert abs(mae(pred, obs) - math.fsum(ab) / n) <= 1e-12
            mp, mo = math.fsum(sp) / n, math.fsum(so) / n
            num = math.fsum((p - mp) * (o - mo) for p, o in zip(sp, so))
            den = math.sqrt(math.fsum((p - mp) ** 2 for p in sp)) * math.sqrt(
                math.fsum((o - mo) ** 2 for o in so)
            )
            assert abs(pcc(pred, obs) - num / den) <= 1e-12

            # contingency counts and derived scores, exact
            tau = 1.0
            tp = fp = fn = tn = 0
            for p, o in zip(pred.reshape(-1), obs.reshape(-1)):
                if p >= tau and o >= tau:
                    tp += 1
                elif p >= tau:
                    fp += 1
                elif o >= tau:
                    fn += 1
                else:
                    tn += 1
            table = contingency(pred, obs, tau)
            assert (table.tp, table.fp, table.fn, table.tn) == (tp, fp, fn, tn)
            assert csi(table) == (tp / (tp + fp + fn) if tp + fp + fn else None)
            assert far(table) == (fp / (tp + fp) if tp + fp else None)
            assert pod(table) == (tp / (tp + fn) if tp + fn else None)
            assert pofd(table) == (fp / (fp + tn) if fp + tn else None)

            # ROC points and AUC against the same loop oracle
            events = obs >= tau
            if events.any() and not events.all():
                gammas = [0.5, 1.0, 1.5, 2.5]
                curve = roc_curve(pred, obs, tau, gammas)
                oracle_pts = []
                for g in gammas:
                    gtp = gfp = gfn = gtn = 0
                    for p, e in zip(pred.reshape(-1), events.reshape(-1)):
                        if p >= g and e:
                            gtp += 1
                        elif p >= g:
                            gfp += 1
                        elif e:
                            gfn += 1
                        else:
                            gtn += 1
                    oracle_pts.append((gfp / (gfp + gtn), gtp / (gtp + gfn)))
                assert sorted(map(tuple, curve.points[1:-1])) == sorted(oracle_pts)
                pts = sorted(oracle_pts)
                pts = [(0.0, 0.0)] + pts + [(1.0, 1.0)]
                trapz = math.fsum(
                    (b[0] - a[0]) * (a[1] + b[1]) / 2.0 for a, b in zip(pts[:-1], pts[1:])
                )
                assert abs(auc(curve) - trapz) <= 1e-12

        # fixed-value anchors
        diagonal = ROCCurve(np.array([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]))
        assert auc(diagonal) == pytest.approx(0.5, abs=1e-12)
        obs = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert auc(roc_curve(obs, obs, 1.0, [0.5, 1.5])) == pytest.approx(1.0, abs=1e-12)

        witness = ContingencyTable(tp=1, fp=1, fn=0, tn=8)
        assert far(witness) == 0.5
        assert pofd(witness) == pytest.approx(1.0 / 9.0)
        assert far(witness) != pofd(witness)

        elapsed = time.time() - start
        assert elapsed < 60.0
        _passed(4, f"200 loop-oracle instances + anchors in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: VQ suite
# ---------------------------------------------------------------------------


class TestCriterion5VQ:
    def test_vq_suite(self):
        rng = np.random.default_rng(21)
        entries = rng.normal(size=(17, 5))
        vectors = rng.normal(size=(100, 5))
        idx, z_q = quantize(vectors, entries)
        for m, v in enumerate(vectors):
            best_idx, best_d = 0, None
            for k, e in enumerate(entries):
                d = float(((v - e) ** 2).sum())
                if best_d is None or d < best_d:
                    best_idx, best_d = k, d
            assert idx[m] == best_idx
            assert z_q[m].tobytes() == entries[best_idx].tobytes()

        # exact ties resolve to the lowest index
        tie_entries = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        tie_idx, _ = quantize(np.array([[0.5, 0.5]]), tie_entries)
        assert tie_idx[0] == 0
        dup_idx, _ = quantize(np.array([[2.0, 2.0]]), np.array([[2.0, 2.0], [2.0, 2.0]]))
        assert dup_idx[0] == 0

        # loss zero case and the hand-computed composite
        z = rng.normal(size=(2, 2, 4))
        total, recon, code, commit = vqvae_loss(np.ones((2, 4, 4)), np.ones((2, 4, 4)), z, z, 0.25)
        assert total.item() == recon.item() == code.item() == commit.item() == 0.0

        z_q0 = np.zeros((1, 1, 1, 4))
        z_hat = z_q0 + 0.1  # ||delta||^2 = 0.04
        total, recon, code, commit = vqvae_loss(
            np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), z_hat, z_q0, 0.25
        )
        assert abs(total.item() - 0.05) <= 1e-12
        assert abs(code.item() - 0.01) <= 1e-12
        assert abs(commit.item() - 0.04) <= 1e-12

        for _ in range(50):
            x = rng.uniform(0, 1, size=(2, 4, 4))
            x_hat = rng.uniform(0, 1, size=(2, 4, 4))
            zh = rng.normal(size=(2, 2, 2, 3))
            zq = rng.normal(size=(2, 2, 2, 3))
            total, recon, code, commit = vqvae_loss(x, x_hat, zh, zq, 0.25)
            parts = (recon.item(), code.item(), commit.item())
            assert all(p >= 0 for p in parts)
            assert abs(total.item() - sum(parts)) <= 1e-12
        _passed(5, "quantize matches exhaustive scan (ties included); loss cases exact")


# ---------------------------------------------------------------------------
# criterion 6: learnability smoke test
# ---------------------------------------------------------------------------

GRID = (32, 32)
DATA_MAX = 64.0
TOKENIZER_STEP_CAP = 5000
DYNAMICS_STEP_CAP = 20000


def _make_events(master_seed, count, n_frames=9):
    seeds = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    events = []
    for s in seeds:
        params = AdvectionParams(
            velocity=(5.0, 2.0),
            n_blobs=3,
            blob_amplitude=(10.0, 40.0),
            blob_radius=(4.0, 8.0),
            growth_rate=1.0,
            seed=int(s),
        )
        events.append(generate_advection_event(params, n_frames, GRID, context_len=3))
    return events


def _run_smoke_seed(seed):
    train_events = _make_events(seed * 1000 + 1, 40)
    held_out = _make_events(seed * 1000 + 2, 20)
    tok_cfg = TokenizerConfig(patch_size=8, n_codes=1024, latent_dim=32, hidden_dim=64)
    fields = normalize(np.concatenate([e.frames for e in train_events]), DATA_MAX)
    probe = fields[:24]

    tokenizer = Tokenizer(tok_cfg, seed=seed)
    tok_steps, recon_err = 0, np.inf
    while tok_steps < TOKENIZER_STEP_CAP:
        tokenizer, _ = train_tokenizer(
            fields,
            tok_cfg,
            TokenizerTrainConfig(steps=250, batch_size=8, lr=3e-3, warmup_steps=50,
                                 seed=seed + tok_steps),
            tokenizer=tokenizer,
            start_step=tok_steps,
        )
        tok_steps += 250
        recon_err = float(np.abs(tokenizer.reconstruct(probe) - probe).mean())
        if recon_err <= 0.03:
            break

    tokens = np.stack(
        [tokenizer.tokenize(normalize(e.frames, DATA_MAX)).reshape(9, -1)
         for e in train_events]
    )
    model = DynamicsModel(
        DynamicsConfig(n_layers=2, n_heads=2, embed_dim=64, vocab_size=1024,
                       tokens_per_frame=16, max_frames=9, mode="frame"),
        seed=seed,
    )
    eval_batch = tokens[:8]
    init_loss = dynamics_loss(model, eval_batch).item()
    dyn_steps, eval_loss = 0, init_loss
    while dyn_steps < DYNAMICS_STEP_CAP:
        model, log = train_dynamics(
            model,
            tokens,
            DynamicsTrainConfig(steps=250, batch_size=8, lr=1.5e-3, warmup_steps=100,
                                seed=seed + 7 + dyn_steps),
            start_step=dyn_steps,
        )
        dyn_steps += len(log)
        eval_loss = dynamics_loss(model, eval_batch).item()
        if eval_loss < 2.2:
            break

    model_mse, persistence_mse = [], []
    for event in held_out:
        context = event.frames[:3]
        z_hat = tokenizer.encode(normalize(context, DATA_MAX))
        idx, _ = quantize(z_hat.data, tokenizer.codebook.data)
        next_tokens = decode_next_frame(model, idx.reshape(3, -1))
        z_q = tokenizer.codebook.data[next_tokens.reshape(idx.shape[1], idx.shape[2])]
        predicted = denormalize(tokenizer.decode(z_q).data, DATA_MAX)
        truth = event.frames[3].astype(np.float64)
        model_mse.append(float(((predicted - truth) ** 2).mean()))
        persistence = context[-1].astype(np.float64)
        persistence_mse.append(float(((persistence - truth) ** 2).mean()))

    return {
        "tok_steps": tok_steps,
        "recon_err": recon_err,
        "init_loss": init_loss,
        "eval_loss": eval_loss,
        "dyn_steps": dyn_steps,
        "model_mse": float(np.mean(model_mse)),
        "persistence_mse": float(np.mean(persistence_mse)),
    }


class TestCriterion6Learnability:
    def test_learnability_smoke(self):
        start = time.time()
        results = [_run_smoke_seed(seed) for seed in (0, 1, 2)]

        for r in results:
            # (a) tokenizer reconstruction within budget
            assert r["tok_steps"] <= TOKENIZER_STEP_CAP
            assert r["recon_err"] <= 0.05
            # (b) cross entropy starts near ln K and at least halves
            assert abs(r["init_loss"] - np.log(1024)) / np.log(1024) < 0.05
            assert r["dyn_steps"] <= DYNAMICS_STEP_CAP
            assert r["eval_loss"] < 0.5 * r["init_loss"]
            # (c) greedy forecast beats persistence at lead +1
            assert r["model_mse"] < r["persistence_mse"]

        model_scores = [r["model_mse"] for r in results]
        pers_scores = [r["persistence_mse"] for r in results]
        elapsed = time.time() - start
        assert elapsed < 1800.0
        _passed(
            6,
            "3 seeds: recon err "
            + ", ".join(f"{r['recon_err']:.3f}" for r in results)
            + f"; lead+1 MSE {np.mean(model_scores):.1f} +/- {np.std(model_scores, ddof=1):.1f}"
            f" vs persistence {np.mean(pers_scores):.1f} +/- {np.std(pers_scores, ddof=1):.1f}"
            f" (mm/h)^2 in {elapsed:.0f}s",
        )


# ---------------------------------------------------------------------------
# criterion 7: round-trip suite
# ---------------------------------------------------------------------------

PIPELINE_CFG = RunConfig(
    seed=5,
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
    tokenizer_steps=20,
    dynamics_steps=20,
    context_len=2,
    horizon=2,
    n_events=6,
    n_frames=4,
    data_max=50.0,
)


def _run_pipeline(cfg_path, out):
    assert main(["--config", str(cfg_path), "--out", str(out), "gen-data"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(out), "train-tokenizer"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(out), "train-dynamics"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(out), "train-dynamics",
                 "--mode", "token"]) == 0
    event = sorted((out / "data").glob("event_*.evt"))[0]
    assert main(["--config", str(cfg_path), "--out", str(out), "forecast",
                 "--event", str(event)]) == 0
    manifest = out / "data" / "manifest.txt"
    assert main(["--config", str(cfg_path), "--out", str(out), "evaluate",
                 "--pred", str(manifest), "--obs", str(manifest)]) == 0


class TestCriterion7RoundTrips:
    def test_round_trip_suite(self, tmp_path):
        # Z-R inversion at 1e-9 relative over 1000 random rates
        rng = np.random.default_rng(3)
        rates = rng.uniform(0.0, 100.0, size=1000)
        back = reflectivity_to_rate(rate_to_reflectivity(rates))
        assert np.all(np.abs(back - rates) <= 1e-9 * np.maximum(1.0, rates))

        # event container: bit-exact read after write
        frames = rng.uniform(0, 30, size=(3, 6, 6)).astype(np.float32)
        event = EventSequence(frames, context_len=2, data_max=50.0, seed=12)
        evt_path = tmp_path / "roundtrip.evt"
        write_event(event, evt_path)
        back_event = read_event(evt_path)
        assert back_event.frames.tobytes() == event.frames.tobytes()
        assert (back_event.context_len, back_event.step_minutes) == (2, 30)

        # checkpoint container: bit-exact read after write
        params = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=5).astype(np.float32)}
        ckpt_path = tmp_path / "roundtrip.ckpt"
        save_checkpoint(ckpt_path, params, meta={"step": 3})
        arrays, meta = load_checkpoint(ckpt_path)
        assert meta["step"] == 3
        for name, value in params.items():
            dtype = "<f4" if value.dtype == np.float32 else "<f8"
            assert arrays[name].tobytes() == np.ascontiguousarray(value, dtype=dtype).tobytes()

        # identical seeds give bit-identical pipelines end to end
        cfg_path = tmp_path / "pipeline.cfg"
        write_config(PIPELINE_CFG, cfg_path)
        out_a, out_b = tmp_path / "runA", tmp_path / "runB"
        _run_pipeline(cfg_path, out_a)
        _run_pipeline(cfg_path, out_b)
        compared = 0
        for path_a in sorted(out_a.rglob("*")):
            if path_a.is_dir():
                continue
            rel = path_a.relative_to(out_a)
            path_b = out_b / rel
            assert path_b.exists(), f"missing artifact {rel}"
            assert path_a.read_bytes() == path_b.read_bytes(), f"artifact differs: {rel}"
            compared += 1
        assert compared >= 10
        _passed(7, f"Z-R, .evt, checkpoint round trips exact; {compared} pipeline artifacts byte-identical")


# ---------------------------------------------------------------------------
# criterion 8: stratification suite
# ---------------------------------------------------------------------------


class TestCriterion8Stratification:
    def test_stratification_suite(self):
        # printed percentile-bin edges, with the deliberate gap above 95
        assert DEFAULT_PERCENTILE_BINS == ((0, 20), (20, 40), (40, 60), (60, 80), (80, 95))
        labels = assign_percentile_bins(np.arange(1, 101, dtype=float))
        counts = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        assert counts == {(0, 20): 20, (20, 40): 20, (40, 60): 20, (60, 80): 20,
                          (80, 95): 15, None: 5}

        # two disjoint synthetic catchments across leads 30..180 at taus 1, 2, 8
        rng = np.random.default_rng(17)
        pred = rng.uniform(0, 12, size=(6, 16, 16))
        obs = rng.uniform(0, 12, size=(6, 16, 16))
        west = np.zeros((16, 16), dtype=bool)
        west[:, :8] = True
        masks = {"west": west, "east": ~west}
        assert not (masks["west"] & masks["east"]).any()
        assert int(masks["west"].sum() + masks["east"].sum()) == 16 * 16

        taus = (1.0, 2.0, 8.0)
        for tau in taus:
            full = contingency(pred[0], obs[0], tau)
            parts = [contingency(pred[0][m], obs[0][m], tau) for m in masks.values()]
            assert sum(p.tp for p in parts) == full.tp
            assert sum(p.fp for p in parts) == full.fp
            assert sum(p.fn for p in parts) == full.fn
            assert sum(p.tn for p in parts) == full.tn

        gammas = np.linspace(0, 12, 13)
        report = evaluate_catchments(pred, obs, masks, taus=taus, step_minutes=30,
                                     gammas=gammas)
        leads = sorted({r.lead_minutes for r in report.rows})
        assert leads == [30, 60, 90, 120, 150, 180]
        checked = 0
        for name, mask in masks.items():
            for k in range(6):
                for tau in taus:
                    p, o = pred[k][mask], obs[k][mask]
                    events = o >= tau
                    pts = []
                    for g in gammas:
                        tp = int(((p >= g) & events).sum())
                        fp = int(((p >= g) & ~events).sum())
                        fn = int(((p < g) & events).sum())
                        tn = int(((p < g) & ~events).sum())
                        pts.append((fp / (fp + tn), tp / (tp + fn)))
                    pts = [(0.0, 0.0)] + sorted(pts) + [(1.0, 1.0)]
                    expected = math.fsum(
                        (b[0] - a[0]) * (a[1] + b[1]) / 2.0 for a, b in zip(pts[:-1], pts[1:])
                    )
                    row = report.select(lead_minutes=(k + 1) * 30, threshold=tau,
                                        stratum=name)[0]
                    assert row.value == pytest.approx(expected, abs=1e-12)
                    checked += 1
        assert checked == 36
        _passed(8, "bin edges verbatim; catchment AUC matches loop oracle at 36 cells")
