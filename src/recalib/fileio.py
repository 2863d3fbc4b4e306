"""The file formats of the experiment harness and the CLI: study CSVs,
JSON files, and the atomic write under both."""

from __future__ import annotations

import contextlib
import json
import numbers
import os
import secrets

__all__ = ["fmt_float", "write_csv", "write_json", "write_text_atomic"]


def fmt_float(x: float) -> str:
    """Shortest decimal rendering that round-trips to the same float."""
    return repr(float(x))


def write_text_atomic(path: str, text: str) -> None:
    """Write text via a sibling temporary file and an atomic rename. The
    file gets mode 0o666 less the umask, as ``open`` would create it. An
    ``OSError`` names ``path``, not the temporary file, even where the
    failed call named no file, as a full disk does."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp.{secrets.token_hex(8)}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e


def _csv_field(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    # Integral, not int, so that a numpy integer never prints as 6.0.
    return str(int(x)) if isinstance(x, numbers.Integral) else fmt_float(x)


def write_csv(path: str, header, rows) -> None:
    """Write a header line and one line per row, atomically. A field is
    empty for None, a str as is, an integer in decimal (a bool as 0 or 1)
    and any other number by ``fmt_float``."""
    lines = [",".join(header), *(",".join(map(_csv_field, row)) for row in rows)]
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_json(path: str, payload) -> None:
    """Write JSON with indent 2, sorted keys and a final newline, atomically."""
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
