import numpy as np
import pytest

from framecast.autodiff import Tensor
from framecast.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from framecast.container import MAX_HEADER_BYTES, Container, ContainerError
from framecast.optim import Adam, warmup_lr


class TestWarmup:
    def test_step_zero(self):
        assert warmup_lr(0, 1e-4, 10000) == 0.0

    def test_end_of_warmup(self):
        assert warmup_lr(10000, 1e-4, 10000) == 1e-4

    def test_midpoint(self):
        assert warmup_lr(5000, 1e-4, 10000) == pytest.approx(5e-5)

    def test_flat_after_warmup(self):
        assert warmup_lr(123456, 1e-4, 10000) == 1e-4

    def test_rejects_bad_warmup(self):
        with pytest.raises(ValueError):
            warmup_lr(5, 1e-4, 0)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(5):
            p.grad = np.zeros(2)
            opt.step()
        assert np.array_equal(p.data, np.array([1.0, -2.0]))

    def test_none_gradient_skipped(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.data[0] == 3.0

    def test_first_step_closed_form(self):
        # constant gradient g: m_hat = g, v_hat = g^2, so the update is
        # -lr * g / (|g| + eps), about -lr per coordinate
        g = np.array([1.0, -4.0, 0.25])
        p = Tensor(np.zeros(3), requires_grad=True)
        lr, eps = 0.1, 1e-8
        opt = Adam([p], lr=lr, eps=eps)
        p.grad = g.copy()
        opt.step()
        expected = -lr * g / (np.abs(g) + eps)
        assert p.data == pytest.approx(expected, rel=1e-12)
        assert np.abs(np.abs(p.data) - lr).max() <= 1e-7

    def test_two_runs_identical(self):
        def run():
            rng = np.random.default_rng(21)
            p = Tensor(rng.normal(size=(4,)), requires_grad=True)
            opt = Adam([p], lr=1e-2)
            for _ in range(50):
                p.grad = 2 * p.data * rng.normal()  # rng stream is part of the run
                opt.step()
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_in_place_steps_match_the_textbook_update(self):
        # the out-of-place update, op by op, is the reference for the bytes
        rng = np.random.default_rng(22)
        shapes = [(3, 4), (5,), (3, 4), (2, 3)]
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        want = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        lr, beta1, beta2, eps = 3e-2, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        for t in range(1, 6):
            grads = [
                rng.normal(size=(3, 4)),
                None if t in (2, 3) else rng.normal(size=5),
                rng.normal(size=(4, 3)).T,  # non-contiguous
                (rng.normal(size=(2, 6)) * (t % 2))[:, ::2],  # strided, zero at even steps
            ]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            for i, g in enumerate(grads):
                if g is None:
                    continue
                m[i] = beta1 * m[i] + (1.0 - beta1) * g
                v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
                m_hat = m[i] / (1.0 - beta1**t)
                v_hat = v[i] / (1.0 - beta2**t)
                want[i] = want[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for p, w in zip(params, want):
                assert p.data.tobytes() == w.tobytes()
        assert opt.step_count == 5

    def test_descends_quadratic(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam([p], lr=0.05)
        for _ in range(400):
            p.grad = 2 * p.data
            opt.step()
        assert abs(p.data[0]) < 0.5


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "w1": rng.normal(size=(3, 4)),
            "b1": rng.normal(size=4).astype(np.float32),
            "codebook": rng.normal(size=(8, 2)),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, meta={"step": 123, "lr": 1e-4, "mode": "frame"})
        arrays, meta = load_checkpoint(path)
        assert set(arrays) == set(params)
        for name in params:
            expected = np.asarray(params[name])
            assert arrays[name].tobytes() == np.ascontiguousarray(
                expected, dtype="<f4" if expected.dtype == np.float32 else "<f8"
            ).tobytes()
        assert meta == {"step": 123, "lr": 1e-4, "mode": "frame"}

    def test_save_twice_identical_bytes(self, tmp_path):
        params = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2)}
        p1, p2 = tmp_path / "1.ckpt", tmp_path / "2.ckpt"
        save_checkpoint(p1, params, meta={"step": 1})
        save_checkpoint(p2, dict(reversed(list(params.items()))), meta={"step": 1})
        # sorted parameter ordering makes the files byte-identical
        assert p1.read_bytes() == p2.read_bytes()

    def test_accepts_tensors(self, tmp_path):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"t": t})
        arrays, _ = load_checkpoint(path)
        assert np.array_equal(arrays["t"], t.data)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"a": np.ones(4)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"whatever")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [b"2,x", b"-2,3", b"2,,3", b"2.0,3"])
    def test_malformed_dims(self, tmp_path, dims):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"a": np.ones((2, 3))})
        path.write_bytes(path.read_bytes().replace(b"f8 2,3", b"f8 " + dims))
        with pytest.raises(CheckpointError, match="dims"):
            load_checkpoint(path)

    def test_repeated_name(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"a": np.ones(2)})
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"param a f8 2\n", b"param a f8 2\n" * 2) + blob[-16:])
        with pytest.raises(CheckpointError, match="repeated"):
            load_checkpoint(path)

    def test_header_bound(self, tmp_path):
        # magic, "meta note <value>" and terminator add 21 bytes to the value
        path = tmp_path / "edge.ckpt"
        save_checkpoint(path, {}, meta={"note": "x" * (MAX_HEADER_BYTES - 21)})
        assert len(path.read_bytes()) == MAX_HEADER_BYTES
        assert load_checkpoint(path)[1]["note"] == "x" * (MAX_HEADER_BYTES - 21)

        over = tmp_path / "over.ckpt"
        with pytest.raises(CheckpointError, match="exceeds"):
            save_checkpoint(over, {}, meta={"note": "x" * (MAX_HEADER_BYTES - 20)})
        assert not over.exists()
        over.write_bytes(path.read_bytes().replace(b"meta note ", b"meta note x"))
        with pytest.raises(CheckpointError, match="terminator"):
            load_checkpoint(over)

    @pytest.mark.parametrize(
        "name, meta",
        [
            ("a", {"tag": ""}),
            ("a", {"tag": " x"}),
            ("a", {"tag": "x "}),
            ("a", {"tag": "a\nparam x f8 1"}),
            ("a", {"tag": "a\rb"}),
            ("a", {"bad key": 1}),
            ("a", {"": 1}),
            ("bad name", None),
            ("", None),
            ("a", {"tag": "007"}),
            ("a", {"x": "nan"}),
            ("a", {"y": "1e3"}),
            ("a", {"tag": "\u00e9"}),
            ("a", {"flag": True}),
            ("a", {"n": None}),
            ("a", {"shape": (2, 3)}),
        ],
        ids=["empty-value", "leading-space", "trailing-space", "injected-line", "carriage-return",
             "spaced-key", "empty-key", "spaced-name", "empty-name", "int-text", "nan-text",
             "float-text", "non-ascii", "bool", "none", "tuple"],
    )
    def test_unreadable_header_rejected_before_writing(self, tmp_path, name, meta):
        path = tmp_path / "c.ckpt"
        with pytest.raises(CheckpointError):
            save_checkpoint(path, {name: np.ones(2)}, meta=meta)
        assert not path.exists()

    def test_spaced_meta_value_round_trips(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {}, meta={"note": "a  b c"})
        assert load_checkpoint(path)[1] == {"note": "a  b c"}


@pytest.mark.parametrize(
    "key, value",
    [("", "1"), ("a b", "1"), ("a\n", "1"), ("k", ""), ("k", " 1"), ("k", "1\n"), ("k", "1\nx 2"),
     ("k", "\u00e9")],
)
def test_container_rejects_unreadable_header(tmp_path, key, value):
    path = tmp_path / "c.bin"
    with pytest.raises(ContainerError, match="header"):
        Container("TST1", ContainerError).write(path, [(key, value)], b"")
    assert not path.exists()
