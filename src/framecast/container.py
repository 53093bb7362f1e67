"""Binary container layout shared by .evt, .ckpt and .tok files.

A file is a magic line, one ``key value`` line per header entry, a ``---``
terminator line, then a little-endian payload whose exact length the header
implies. Each format names its magic and error classes and keeps its own
header keys and dtypes; this module owns the layout.
"""

from __future__ import annotations

from pathlib import Path

from .errors import FramecastError

_END = b"\n---\n"
# checkpoint headers grow ~380 B per dynamics layer (4,862 B at 12 layers); 1 MiB fits ~2,700
MAX_HEADER_BYTES = 1 << 20


class ContainerError(FramecastError):
    """Malformed .evt, .ckpt or .tok file."""


class Container:
    """One file format: its magic, and the errors raised for a bad header
    (``error``) and for a payload shorter or longer than the header implies."""

    def __init__(self, magic: str, error, truncated=None, oversized=None):
        self.magic = f"{magic}\n".encode("ascii")
        self.error = error
        self.truncated = truncated or error
        self.oversized = oversized or error

    def write(self, path, header, payload: bytes) -> None:
        """Write (key, value) header pairs and the payload to path.

        Keys must be non-empty without whitespace and values one non-empty
        line without outer whitespace, so that ``read`` returns the same pairs.
        """
        header = [(str(key), str(value)) for key, value in header]
        for key, value in header:
            if key.split() != [key] or value != value.strip() or value.splitlines() != [value]:
                raise self.error(f"header entry {key!r} {value!r} would not read back")
        lines = "".join(f"{key} {value}\n" for key, value in header).encode("ascii")
        head = self.magic + lines + b"---\n"
        if len(head) > MAX_HEADER_BYTES:
            raise self.error(f"header of {len(head)} bytes exceeds {MAX_HEADER_BYTES}")
        Path(path).write_bytes(head + payload)

    def read(self, path) -> tuple[list[tuple[str, str]], memoryview]:
        """Read path back into (key, value) header pairs and the raw payload."""
        blob = Path(path).read_bytes()
        if not blob.startswith(self.magic):
            raise self.error(f"missing {self.magic.strip().decode()} magic")
        end = blob.find(_END, len(self.magic) - 1, MAX_HEADER_BYTES)
        if end < 0:
            raise self.error(f"header terminator not found in the first {MAX_HEADER_BYTES} bytes")
        header = []
        for line in blob[len(self.magic) : end].decode("ascii", errors="replace").splitlines():
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise self.error(f"malformed header line: {line!r}")
            header.append((parts[0], parts[1].strip()))
        return header, memoryview(blob)[end + len(_END) :]

    def fields(self, header, schema: dict) -> dict:
        """Parse header pairs by schema (key -> parser); every key is required."""
        values = dict(header)
        missing = [key for key in schema if key not in values]
        if missing:
            raise self.error(f"header missing keys: {missing}")
        try:
            return {key: parse(values[key]) for key, parse in schema.items()}
        except ValueError as exc:
            raise self.error(f"malformed header value: {exc}") from exc

    def expect(self, payload, nbytes: int) -> None:
        """Check that the payload holds exactly nbytes."""
        if len(payload) != nbytes:
            error = self.truncated if len(payload) < nbytes else self.oversized
            raise error(f"payload holds {len(payload)} bytes, expected exactly {nbytes}")
