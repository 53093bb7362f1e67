import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from framecast import tokenizer as tokenizer_module
from framecast.advection import AdvectionParams, generate_advection_event
from framecast.autodiff import Tensor
from framecast.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from framecast.fields import normalize
from framecast.optim import TrainConfig
from framecast.tokenizer import (
    TokenFileError,
    Tokenizer,
    TokenizerConfig,
    init_codebook,
    nearest_code_indices,
    quantize,
    read_tokens,
    train_tokenizer,
    vqvae_loss,
    write_tokens,
)

from helpers import (
    assert_backward_matches_eager,
    central_difference,
    max_relative_error,
    scan_nearest_code_indices,
)

TOY = TokenizerConfig(patch_size=4, n_codes=32, latent_dim=8, hidden_dim=16)


def brute_force_nearest(vectors, entries):
    """Per-vector scan over all codebook entries; ties keep the lowest index."""
    out = []
    for v in vectors:
        best_idx, best_d = 0, None
        for k, e in enumerate(entries):
            d = ((v - e) ** 2).sum()
            if best_d is None or d < best_d:
                best_idx, best_d = k, d
        out.append(best_idx)
    return np.array(out)


class TestQuantize:
    def test_simple_nearest(self):
        entries = np.array([[0.0, 0.0], [1.0, 1.0]])
        idx, z_q = quantize(np.array([[0.9, 0.8]]), entries)
        assert idx[0] == 1
        assert np.array_equal(z_q[0], entries[1])

    def test_exact_entry_maps_to_itself(self):
        rng = np.random.default_rng(0)
        entries = rng.normal(size=(10, 4))
        idx, z_q = quantize(entries[7][None], entries)
        assert idx[0] == 7
        assert z_q[0].tobytes() == entries[7].tobytes()

    def test_tie_breaks_to_lowest_index(self):
        entries = np.array([[0.0, 0.0], [1.0, 1.0]])
        idx, _ = quantize(np.array([[0.5, 0.5]]), entries)
        assert idx[0] == 0

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(1)
        entries = rng.normal(size=(17, 5))
        vectors = rng.normal(size=(100, 5))
        idx, z_q = quantize(vectors, entries)
        assert np.array_equal(idx, brute_force_nearest(vectors, entries))
        # outputs are exact codebook rows
        assert z_q.tobytes() == entries[idx].tobytes()

    def test_grid_shaped_input(self):
        rng = np.random.default_rng(2)
        entries = rng.normal(size=(9, 3))
        grid = rng.normal(size=(4, 4, 3))
        idx, z_q = quantize(grid, entries)
        assert idx.shape == (4, 4)
        assert z_q.shape == (4, 4, 3)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((3, 4)), np.zeros((5, 3)))


class TestScanOracle:
    """nearest_code_indices against the explicit scan, index for index."""

    def check(self, vectors, entries):
        with np.errstate(invalid="ignore"):  # NaN/inf rows warn in the rescore, as in the scan
            got = nearest_code_indices(vectors, entries)
        assert got.dtype == np.int32
        assert np.array_equal(got, scan_nearest_code_indices(vectors, entries))

    def test_random_shapes_and_magnitudes(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            k, dim, m = (int(rng.integers(lo, hi)) for lo, hi in ((2, 1025), (1, 65), (0, 301)))
            scale = 10.0 ** rng.uniform(-150, 150)
            entries = rng.normal(size=(k, dim)) * scale
            if rng.random() < 0.5:  # duplicated codebook rows: exact ties
                entries[rng.integers(0, k, size=k // 3)] = entries[rng.integers(0, k, size=k // 3)]
            vectors = rng.normal(size=(m, dim)) * scale * rng.choice([1e-3, 1.0, 1e3])
            if m and rng.random() < 0.5:  # vectors equal to a codebook row
                rows = rng.integers(0, m, size=m // 2)
                vectors[rows] = entries[rng.integers(0, k, size=rows.size)]
            self.check(vectors, entries)

    def test_extreme_magnitudes(self):
        rng = np.random.default_rng(12)
        for scale in (1e-150, 1e-160, 1e-170, 1e150):
            entries = rng.normal(size=(64, 16)) * scale
            self.check(rng.normal(size=(50, 16)) * scale, entries)
            self.check(entries[::-1].copy(), entries)

    def test_duplicate_rows_go_to_the_lowest_index(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(8, 4))
        entries = np.concatenate([base, base, base])
        self.check(base, entries)
        assert np.array_equal(nearest_code_indices(base, entries), np.arange(8))

    def test_distances_one_ulp_apart(self):
        # codes a few ulps apart: their scan distances tie or differ by one
        # ulp, far inside the screen's error bound, so the recheck decides
        rng = np.random.default_rng(14)
        one_ulp = 0
        for dim in (1, 3, 8, 32, 64):
            base = rng.normal(size=dim)
            entries = np.repeat(base[None], 256, axis=0)
            comp = rng.integers(0, dim, size=256)
            steps = rng.integers(-3, 4, size=256)
            for j in range(256):
                for _ in range(abs(steps[j])):
                    entries[j, comp[j]] = np.nextafter(entries[j, comp[j]], np.inf * steps[j])
            vectors = base + rng.normal(size=(40, dim)) * 10.0 ** rng.uniform(-3, 1, size=(40, 1))
            diff = vectors[:, None, :] - entries[None, :, :]
            d2 = (diff * diff).sum(axis=-1)
            best = d2.min(axis=1, keepdims=True)
            one_ulp += int(np.any(d2 == np.nextafter(best, np.inf), axis=1).sum())
            self.check(vectors, entries)
        assert one_ulp > 0

    def test_distances_spread_across_the_screen_bound(self):
        # relative gaps of 0 to ~400 ulps put some codes inside the screen's
        # bound and some just outside it
        rng = np.random.default_rng(15)
        u = np.finfo(np.float64).eps / 2
        for dim in (1, 4, 16, 64):
            direction = rng.normal(size=dim)
            entries = direction * (1.0 + u * rng.integers(0, 200, size=(512, 1)))
            vectors = np.concatenate([np.zeros((1, dim)), rng.normal(size=(20, dim)) * 1e-9])
            self.check(vectors, entries)

    def test_large_common_offset(self):
        # the norm expansion cancels badly here, so a plain GEMM argmin is
        # wrong on most rows; the result must still be the scan's
        rng = np.random.default_rng(16)
        entries = 1e6 + rng.normal(size=(128, 8)) * 1e-4
        vectors = 1e6 + rng.normal(size=(60, 8)) * 1e-4
        norms = (vectors**2).sum(1)[:, None] + (entries**2).sum(1)
        naive = (norms - 2 * vectors @ entries.T).argmin(1)
        assert np.any(naive != scan_nearest_code_indices(vectors, entries))
        self.check(vectors, entries)

    def test_non_finite_vectors_get_the_scan_index(self):
        rng = np.random.default_rng(17)
        entries = rng.normal(size=(32, 6))
        vectors = rng.normal(size=(12, 6))
        vectors[0] = np.nan
        vectors[1, 2] = np.nan
        vectors[2] = np.inf
        vectors[3, 0] = -np.inf
        vectors[4, :2] = np.inf, -np.inf
        vectors[5] = entries[7]
        vectors[5, 3] = np.inf
        self.check(vectors, entries)
        entries[9, 1] = np.nan  # a NaN code: the scan's NaN-first argmin picks it
        self.check(vectors, entries)
        entries[9, 1] = np.inf
        self.check(vectors, entries)

    def test_empty_input(self):
        assert nearest_code_indices(np.zeros((0, 3)), np.ones((4, 3))).shape == (0,)

    def test_no_full_difference_tensor(self):
        # the (M, K, D) scan needs 2 x 26 MB here; the screen needs O(M K)
        rng = np.random.default_rng(18)
        m, k, dim = 200, 512, 32
        entries, vectors = rng.normal(size=(k, dim)), rng.normal(size=(m, dim))
        tracemalloc.start()
        try:
            nearest_code_indices(vectors, entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * k * dim * 8 / 4


class TestCodebook:
    def test_no_duplicate_entries(self):
        cb = init_codebook(256, 8, np.random.default_rng(3))
        assert len(np.unique(cb.data, axis=0)) == 256


class TestVQLoss:
    def test_all_zero_when_perfect(self):
        x = np.zeros((2, 4, 4))
        z = np.zeros((2, 2, 2, 3))
        total, recon, code, commit = vqvae_loss(x, x, z, z, beta=0.25)
        assert total.item() == 0.0
        assert recon.item() == code.item() == commit.item() == 0.0

    def test_hand_computed_composite(self):
        # ||delta||^2 = 0.04 with x = x_hat gives 0.25 * 0.04 + 0.04 = 0.05
        x = np.zeros((1, 2, 2))
        z_q = np.zeros((1, 1, 1, 4))
        z_hat = z_q + 0.1
        total, recon, code, commit = vqvae_loss(x, x, z_hat, z_q, beta=0.25)
        assert recon.item() == 0.0
        assert code.item() == pytest.approx(0.01, abs=1e-12)
        assert commit.item() == pytest.approx(0.04, abs=1e-12)
        assert total.item() == pytest.approx(0.05, abs=1e-12)

    def test_components_nonnegative_and_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(0, 1, size=(2, 4, 4))
            x_hat = rng.uniform(0, 1, size=(2, 4, 4))
            z_hat = rng.normal(size=(2, 2, 2, 3))
            z_q = rng.normal(size=(2, 2, 2, 3))
            total, recon, code, commit = vqvae_loss(x, x_hat, z_hat, z_q, beta=0.25)
            parts = [recon.item(), code.item(), commit.item()]
            assert all(p >= 0 for p in parts)
            assert total.item() == pytest.approx(sum(parts), abs=1e-12)

    def test_gradient_routing(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(size=(1, 2, 2)))
        x_hat = Tensor(rng.uniform(size=(1, 2, 2)), requires_grad=True)
        z_hat = Tensor(rng.normal(size=(1, 1, 1, 3)), requires_grad=True)
        z_q = Tensor(rng.normal(size=(1, 1, 1, 3)), requires_grad=True)
        total, _, _, _ = vqvae_loss(x, x_hat, z_hat, z_q, beta=0.25)
        total.backward()
        # commit term moves the encoder: d/dz_hat = 2 (z_hat - z_q)
        assert np.allclose(z_hat.grad, 2 * (z_hat.data - z_q.data))
        # codebook term moves the codebook: d/dz_q = 2 beta (z_q - z_hat)
        assert np.allclose(z_q.grad, 2 * 0.25 * (z_q.data - z_hat.data))

    def test_straight_through_gradient_vs_finite_differences(self):
        # analytic grad at the encoder output must equal d(recon)/dz_q
        # (finite-differenced along the pass-through path) plus 2(z_hat - z_q)
        rng = np.random.default_rng(6)
        tok = Tokenizer(TOY, seed=1)
        field = rng.uniform(0, 1, size=(8, 8))

        z_hat = tok.encode(field)
        z_hat_leaf = Tensor(z_hat.data.copy(), requires_grad=True)
        idx, z_q, st = tok.straight_through(z_hat_leaf)
        x_hat = tok.decode(st)
        total, recon, code, commit = vqvae_loss(Tensor(field), x_hat, z_hat_leaf, z_q, TOY.beta)
        total.backward()

        def recon_of(z):
            out = tok.decode(Tensor(np.asarray(z)))
            return float(((Tensor(field) - out) ** 2).sum().item())

        numeric_recon = central_difference(recon_of, z_q.data.copy(), h=1e-6)
        expected = numeric_recon + 2.0 * (z_hat_leaf.data - z_q.data)
        assert max_relative_error(z_hat_leaf.grad, expected) <= 1e-4

    def test_backward_matches_eager_at_default_config(self):
        tok = Tokenizer(TokenizerConfig(), seed=2)
        fields = np.random.default_rng(7).uniform(0, 1, size=(2, 32, 32))
        z_hat = tok.encode(fields)
        _, z_q, st = tok.straight_through(z_hat)
        total, _, _, _ = vqvae_loss(Tensor(fields), tok.decode(st), z_hat, z_q, tok.config.beta)
        assert_backward_matches_eager(total, list(tok.trainable().values()))


class TestEncodeDecode:
    def test_encode_deterministic(self):
        tok = Tokenizer(TOY, seed=2)
        field = np.random.default_rng(7).uniform(size=(8, 8))
        a = tok.encode(field).data
        b = tok.encode(field).data
        assert np.array_equal(a, b)

    def test_latent_grid_shape_matches_downsampling(self):
        tok = Tokenizer(TokenizerConfig(patch_size=16, n_codes=16, latent_dim=4, hidden_dim=8))
        z = tok.encode(np.zeros((128, 128)))
        assert z.shape == (8, 8, 4)

    def test_patch_locality(self):
        # swapping the contents of two patches swaps their latents
        tok = Tokenizer(TOY, seed=3)
        rng = np.random.default_rng(8)
        field = rng.uniform(size=(8, 8))
        swapped = field.copy()
        swapped[:4, :4], swapped[:4, 4:] = field[:4, 4:].copy(), field[:4, :4].copy()
        z_a = tok.encode(field).data
        z_b = tok.encode(swapped).data
        assert np.allclose(z_a[0, 0], z_b[0, 1])
        assert np.allclose(z_a[0, 1], z_b[0, 0])
        assert np.allclose(z_a[1], z_b[1])

    def test_indivisible_grid_rejected(self):
        tok = Tokenizer(TOY, seed=4)
        with pytest.raises(ValueError):
            tok.encode(np.zeros((9, 8)))

    def test_decode_deterministic_and_clamped(self):
        tok = Tokenizer(TOY, seed=5)
        rng = np.random.default_rng(9)
        z_q = rng.normal(size=(2, 2, 8)) * 10
        a = tok.decode(z_q).data
        b = tok.decode(z_q).data
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_round_trip_shapes(self):
        tok = Tokenizer(TOY, seed=6)
        batch = np.random.default_rng(10).uniform(size=(3, 8, 8))
        recon = tok.reconstruct(batch)
        assert recon.shape == (3, 8, 8)

    def test_tokenize_and_detokenize_match_the_explicit_steps(self):
        tok = Tokenizer(TOY, seed=6)
        batch = np.random.default_rng(10).uniform(size=(3, 8, 8))
        idx, z_q = quantize(tok.encode(batch).data, tok.codebook.data)
        assert np.array_equal(tok.tokenize(batch), idx)
        assert np.array_equal(tok.tokenize(batch[0]), idx[0])
        assert np.array_equal(tok.detokenize(idx), tok.decode(z_q).data)
        assert np.array_equal(tok.reconstruct(batch), tok.decode(z_q).data)


class TestTraining:
    def test_zero_steps_keeps_initialization(self):
        fields = np.random.default_rng(11).uniform(size=(4, 8, 8))
        tok_init = Tokenizer(TOY, seed=7)
        ref = {k: v.data.copy() for k, v in tok_init.trainable().items()}
        tok, log = train_tokenizer(tok_init, fields, TrainConfig(steps=0, seed=7))
        assert log == []
        for k, v in tok.trainable().items():
            assert np.array_equal(v.data, ref[k])

    def test_loss_decreases(self):
        rng = np.random.default_rng(12)
        events = [
            generate_advection_event(AdvectionParams(seed=s), 4, (8, 8)) for s in range(4)
        ]
        fields = normalize(np.concatenate([e.frames for e in events]), 40.0)
        cfg = TrainConfig(steps=500, batch_size=4, lr=3e-3, warmup_steps=50, seed=13)
        tok, log = train_tokenizer(Tokenizer(TOY, seed=13), fields, cfg)
        assert log[-1][2] < log[0][2]
        assert len(log) == 500

    def test_same_seed_same_checkpoint(self, tmp_path):
        fields = np.random.default_rng(14).uniform(size=(6, 8, 8))
        cfg = TrainConfig(steps=40, batch_size=4, lr=1e-3, warmup_steps=10, seed=21)
        tok_a, _ = train_tokenizer(Tokenizer(TOY, seed=21), fields, cfg)
        tok_b, _ = train_tokenizer(Tokenizer(TOY, seed=21), fields, cfg)
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        tok_a.save(pa, step=40)
        tok_b.save(pb, step=40)
        assert pa.read_bytes() == pb.read_bytes()

    def test_no_tape_outlives_its_step(self, monkeypatch):
        # refcounting alone must free step s's loss terms and latents before
        # step s+1's encoder pass starts
        live = []
        encode, loss_of = Tokenizer.encode, tokenizer_module.vqvae_loss

        def traced_encode(self, fields):
            assert all(ref() is None for ref in live), "an earlier step's tape is alive"
            return encode(self, fields)

        def traced_loss(x, x_hat, z_hat, z_q, beta):
            terms = loss_of(x, x_hat, z_hat, z_q, beta)
            live.extend(weakref.ref(t) for t in (*terms, x_hat, z_hat, z_q))
            return terms

        monkeypatch.setattr(Tokenizer, "encode", traced_encode)
        monkeypatch.setattr(tokenizer_module, "vqvae_loss", traced_loss)
        fields = np.random.default_rng(15).uniform(size=(4, 8, 8))
        gc.disable()
        try:
            _, log = train_tokenizer(Tokenizer(TOY, seed=3), fields, TrainConfig(steps=3, batch_size=2))
        finally:
            gc.enable()
        assert len(live) == 7 * len(log) == 21
        assert all(ref() is None for ref in live)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_tokenizer(Tokenizer(TOY), np.zeros((0, 8, 8)), TrainConfig(steps=1))

    def test_save_load_round_trip(self, tmp_path):
        tok = Tokenizer(TOY, seed=8)
        path = tmp_path / "tok.ckpt"
        tok.save(path, step=17)
        back, step = Tokenizer.load(path)
        assert step == 17
        assert back.config == tok.config
        for k in tok.trainable():
            assert np.array_equal(back.trainable()[k].data, tok.trainable()[k].data)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_data_max_must_be_finite_and_positive(self, value):
        # beta is held to the same rule; a nan or inf beta would otherwise
        # train until its loss reads as a divergence
        for name in ("data_max", "beta"):
            with pytest.raises(ValueError, match=name):
                TokenizerConfig(**{name: value})

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        path = tmp_path / "tok.ckpt"
        Tokenizer(TOY, seed=8).save(path)

        def no_rng(*args, **kwargs):
            raise AssertionError("loading drew from an rng")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        back, _ = Tokenizer.load(path)
        assert back.codebook.requires_grad and list(back.trainable())[-1] == "codebook"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda arrays, meta: arrays.update(codebook=np.zeros((4, TOY.latent_dim))),
            lambda arrays, meta: arrays.pop("dec.out.b"),
            lambda arrays, meta: meta.pop("beta"),
            lambda arrays, meta: meta.update(patch_size="big"),
            lambda arrays, meta: arrays.update({k: v.astype(np.float32) for k, v in arrays.items()}),
        ],
        ids=["codebook-shape", "missing-param", "missing-meta", "meta-type", "float32"],
    )
    def test_load_rejects_mismatched_checkpoint(self, tmp_path, edit):
        path = tmp_path / "tok.ckpt"
        Tokenizer(TOY, seed=8).save(path, step=1)
        arrays, meta = load_checkpoint(path)
        edit(arrays, meta)
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError):
            Tokenizer.load(path)


class TestEventTokens:
    def tokenizer_and_event(self):
        tok = Tokenizer(TOY, seed=9)
        ev = generate_advection_event(AdvectionParams(seed=3), 5, (8, 8))
        return tok, ev

    def test_tokenize_shapes_and_range(self):
        tok, ev = self.tokenizer_and_event()
        idx = tok.tokenize(normalize(ev.frames, 40.0))
        assert idx.shape == (ev.n_frames, 2, 2)
        assert idx.dtype == np.int32
        assert idx.min() >= 0 and idx.max() < TOY.n_codes

    def test_detokenize_round_trip_shape(self):
        tok, ev = self.tokenizer_and_event()
        back = tok.detokenize(tok.tokenize(normalize(ev.frames, 40.0)))
        assert back.shape == ev.frames.shape
        assert back.min() >= 0.0 and back.max() <= 1.0

    def test_codebook_is_limited_to_what_a_tok_file_addresses(self, tmp_path):
        # ids are stored as uint16: 65536 codes fit, 65537 are refused by the
        # config before a tokenizer is built, and by write_tokens
        assert TokenizerConfig(n_codes=65536).n_codes == 65536
        with pytest.raises(ValueError, match="n_codes"):
            TokenizerConfig(n_codes=65537)
        with pytest.raises(ValueError, match="65536"):
            write_tokens(tmp_path / "ev.tok", np.zeros((1, 2, 2), dtype=np.int64), 65537)
        assert not (tmp_path / "ev.tok").exists()

    def test_tok_file_round_trip(self, tmp_path):
        tok, ev = self.tokenizer_and_event()
        idx = tok.tokenize(normalize(ev.frames, 40.0))
        path = tmp_path / "ev.tok"
        write_tokens(path, idx, TOY.n_codes)
        back, n_codes = read_tokens(path)
        assert n_codes == TOY.n_codes
        assert np.array_equal(back, idx)


class TestTokFileErrors:
    @pytest.fixture()
    def blob(self, tmp_path):
        path = tmp_path / "ok.tok"
        write_tokens(path, np.arange(8).reshape(2, 2, 2), 16)
        return path.read_bytes()

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"TOK1", b"TOK2"),
            (b"n_codes 16", b"n_codes"),
            (b"h_lat 2\n", b""),
            (b"w_lat 2", b"w_lat two"),
            (b"n_frames 2", b"n_frames -2"),
            (b"n_codes 16", b"n_codes 4"),
            (b"\n---\n", b"\n--\n"),
        ],
        ids=["magic", "no-value", "missing-key", "not-int", "negative", "index-range",
             "no-terminator"],
    )
    def test_malformed_header(self, tmp_path, blob, old, new):
        path = tmp_path / "bad.tok"
        path.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(TokenFileError):
            read_tokens(path)

    @pytest.mark.parametrize("cut", [-1, 2])
    def test_payload_length_exact(self, tmp_path, blob, cut):
        path = tmp_path / "bad.tok"
        path.write_bytes(blob[:cut] if cut < 0 else blob + b"\0" * cut)
        with pytest.raises(TokenFileError):
            read_tokens(path)
