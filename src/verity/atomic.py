"""Atomic file writes: a temp file beside the target, then ``os.replace``."""

from __future__ import annotations

import contextlib
import os
import secrets
from typing import Iterable


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write ``lines`` (each with its own newline) to ``path`` atomically.

    The lines go to a temp file in the directory of ``path``, which replaces
    ``path`` only once every line is written. If writing fails, the temp file
    is removed and ``path`` keeps its old content. This guards against a
    crash of the writing process, not against power loss: nothing is synced
    to disk.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
