"""Small output helpers shared by the experiment harness and the CLI."""

from __future__ import annotations

import os
import secrets

__all__ = ["fmt_float", "write_text_atomic"]


def fmt_float(x: float) -> str:
    """Shortest decimal rendering that round-trips to the same float."""
    return repr(float(x))


def write_text_atomic(path: str, text: str) -> None:
    """Write text via a sibling temporary file and an atomic rename. The
    file gets mode 0o666 less the umask, as ``open`` would create it."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp.{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
