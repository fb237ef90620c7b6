"""UTF-8 text reads, and atomic file writes: temp file in the target directory, then rename."""

from __future__ import annotations

import os
import stat
import tempfile
from pathlib import Path


def read_utf8(path, error: type[Exception], what: str = "path") -> str:
    """The text of a UTF-8 file.

    A path that exists but is not a regular file (a directory, say) raises
    `error` as "<what> is not a file: <path>", and a decode failure raises
    `error` naming the path. A missing path raises FileNotFoundError.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise error(f"{what} is not a file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
