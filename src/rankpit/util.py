"""Small shared helpers."""

from __future__ import annotations

import hashlib

from .errors import UnreadableInput, UnwritableOutput


def derive_seed(seed: int, *parts) -> int:
    """Stable 63-bit sub-seed derived from a master seed and context labels.

    Uses sha256 so the derivation is identical across platforms and runs
    (Python's salted hash() is deliberately avoided).
    """
    h = hashlib.sha256(repr((int(seed),) + tuple(parts)).encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1


def read_text(path: str) -> str:
    """The UTF-8 contents of a file; UnreadableInput if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UnreadableInput(path, exc.strerror or str(exc)) from None
    except UnicodeDecodeError as exc:
        raise UnreadableInput(path, f"not UTF-8 text ({exc.reason})") from None


def write_text(path: str, text: str) -> None:
    """Write `text` to a file as UTF-8; UnwritableOutput if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UnwritableOutput(path, exc.strerror or str(exc)) from None
