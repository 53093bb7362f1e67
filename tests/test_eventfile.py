import numpy as np
import pytest

from framecast.advection import AdvectionParams, generate_advection_event
from framecast.eventfile import (
    CorruptHeaderError,
    DimensionMismatchError,
    TruncatedPayloadError,
    read_event,
    read_events,
    read_manifest,
    write_event,
    write_manifest,
)
from framecast.fields import EventSequence


def small_event(seed=0, data_max=50.0):
    rng = np.random.default_rng(seed)
    frames = rng.uniform(0, 10, size=(2, 4, 4)).astype(np.float32)
    return EventSequence(frames, context_len=1, step_minutes=30, data_max=data_max, seed=seed)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        ev = small_event()
        path = tmp_path / "a.evt"
        write_event(ev, path)
        back = read_event(path)
        assert np.array_equal(back.frames, ev.frames)
        assert back.frames.dtype == np.float32
        assert back.context_len == ev.context_len
        assert back.step_minutes == ev.step_minutes
        assert back.data_max == ev.data_max
        assert back.seed == ev.seed

    def test_none_metadata(self, tmp_path):
        ev = EventSequence(np.ones((2, 2, 2), dtype=np.float32), 1)
        path = tmp_path / "b.evt"
        write_event(ev, path)
        back = read_event(path)
        assert back.data_max is None and back.seed is None

    def test_numpy_scalar_metadata(self, tmp_path):
        ev = EventSequence(np.ones((2, 2, 2), dtype=np.float32), 1, data_max=np.float64(50.0),
                           seed=np.int64(3))
        path = tmp_path / "n.evt"
        write_event(ev, path)
        back = read_event(path)
        assert (back.data_max, back.seed) == (50.0, 3)

    def test_random_events_property(self, tmp_path):
        rng = np.random.default_rng(123)
        for i in range(25):
            t = int(rng.integers(2, 7))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            frames = rng.uniform(0, 100, size=(t, h, w)).astype(np.float32)
            ev = EventSequence(
                frames,
                context_len=int(rng.integers(1, t)),
                step_minutes=int(rng.integers(1, 60)),
                data_max=float(rng.uniform(1, 200)),
                seed=int(rng.integers(0, 2**62)),
            )
            path = tmp_path / f"{i}.evt"
            write_event(ev, path)
            back = read_event(path)
            assert back.frames.tobytes() == ev.frames.tobytes()
            assert (back.context_len, back.step_minutes) == (ev.context_len, ev.step_minutes)
            assert (back.data_max, back.seed) == (ev.data_max, ev.seed)

    def test_write_read_write_identical_bytes(self, tmp_path):
        ev = small_event(seed=4)
        p1, p2 = tmp_path / "x.evt", tmp_path / "y.evt"
        write_event(ev, p1)
        write_event(read_event(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestParseErrors:
    def write_bytes(self, tmp_path, blob):
        path = tmp_path / "bad.evt"
        path.write_bytes(blob)
        return path

    def valid_blob(self, tmp_path):
        path = tmp_path / "ok.evt"
        write_event(small_event(), path)
        return path.read_bytes()

    def test_bad_magic(self, tmp_path):
        with pytest.raises(CorruptHeaderError):
            read_event(self.write_bytes(tmp_path, b"NOPE\n" + b"x" * 64))

    def test_missing_key(self, tmp_path):
        blob = self.valid_blob(tmp_path).replace(b"step_minutes", b"step_min")
        with pytest.raises(CorruptHeaderError):
            read_event(self.write_bytes(tmp_path, blob))

    def test_truncated_payload(self, tmp_path):
        blob = self.valid_blob(tmp_path)
        with pytest.raises(TruncatedPayloadError):
            read_event(self.write_bytes(tmp_path, blob[:-5]))

    def test_trailing_bytes(self, tmp_path):
        blob = self.valid_blob(tmp_path)
        with pytest.raises(DimensionMismatchError):
            read_event(self.write_bytes(tmp_path, blob + b"\x00\x00\x00\x00"))

    def test_context_len_invariant(self, tmp_path):
        blob = self.valid_blob(tmp_path).replace(b"context_len 1", b"context_len 2")
        with pytest.raises(DimensionMismatchError):
            read_event(self.write_bytes(tmp_path, blob))


class TestManifest:
    def test_round_trip_with_comments(self, tmp_path):
        events = [generate_advection_event(AdvectionParams(seed=s), 4, (8, 8)) for s in range(3)]
        paths = []
        for i, ev in enumerate(events):
            p = tmp_path / f"e{i}.evt"
            write_event(ev, p)
            paths.append(p.name)
        manifest = tmp_path / "manifest.txt"
        write_manifest(paths, manifest, comment="synthetic set\nthree events")
        resolved = read_manifest(manifest)
        assert [p.name for p in resolved] == ["e0.evt", "e1.evt", "e2.evt"]
        loaded = read_events(manifest)
        assert all(np.array_equal(a.frames, b.frames) for a, b in zip(loaded, events))

    def test_blank_lines_ignored(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("# header\n\nfoo.evt\n  \nbar.evt\n")
        assert [p.name for p in read_manifest(manifest)] == ["foo.evt", "bar.evt"]
