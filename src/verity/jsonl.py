"""Every file verity reads or writes goes through this module.

Readers turn a malformed or cut-off file into a :class:`FormatError` that
names the file and the line. The writer replaces its target atomically.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from typing import Iterable, Iterator

from .errors import FormatError


def _bad_json(exc: json.JSONDecodeError) -> str:
    return f"bad JSON: {exc.msg} (column {exc.colno})"


def _reject_lone_surrogates(path: str, lineno: int, text: str) -> None:
    """Raise FormatError if a string of the valid JSON ``text``, from line
    ``lineno`` of ``path`` on, holds a lone surrogate escape (``\\ud800``),
    which decodes but cannot be encoded as UTF-8. Outside its strings,
    valid JSON holds no ``"``.
    """
    if "\\u" not in text:
        return
    end = 0
    while (start := text.find('"', end)) >= 0:
        value, end = json.decoder.scanstring(text, start + 1)
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FormatError(path, lineno + text.count("\n", 0, start),
                              f"lone surrogate escape: {exc.reason}") from exc


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, stripped line)`` for each data line of ``path``.

    Lines end at ``\\n``. Each is decoded and stripped on its own, so a UTF-8
    character cut in two is reported on its line. Blank and ``#`` lines are
    skipped. A line that is not UTF-8 raises :class:`FormatError`.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise FormatError(path, lineno, f"not UTF-8: {exc}") from exc
            if line and not line.startswith("#"):
                yield lineno, line


def decode_record(path: str, lineno: int, line: str) -> dict:
    """The JSON object on line ``lineno`` of ``path``, or FormatError."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(path, lineno, _bad_json(exc)) from exc
    if not isinstance(record, dict):
        raise FormatError(path, lineno, "not a JSON object")
    _reject_lone_surrogates(path, lineno, line)
    return record


def read_records(path: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` for each data line of ``path``.

    Lines are read by :func:`read_lines` and decoded by
    :func:`decode_record`, so a line that is not UTF-8, not JSON or not an
    object raises :class:`FormatError`.
    """
    for lineno, line in read_lines(path):
        yield lineno, decode_record(path, lineno, line)


def read_object(path: str) -> dict:
    """The one JSON object in ``path``; a bad document raises FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
        record = json.loads(text)
    except UnicodeDecodeError as exc:
        raise FormatError(path, data.count(b"\n", 0, exc.start) + 1,
                          f"not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(path, exc.lineno, _bad_json(exc)) from exc
    if not isinstance(record, dict):
        raise FormatError(path, 1, "not a JSON object")
    _reject_lone_surrogates(path, 1, text)
    return record


def write_lines(path: str, lines: Iterable[str | bytes]) -> None:
    """Write ``lines`` (each with its own newline) to ``path`` atomically.

    A ``str`` is written as UTF-8 and ``bytes`` as they are, so a caller can
    copy another file's bytes a chunk at a time. Nothing is translated: a
    ``"\\n"`` is written as one ``\\n`` byte on every platform.

    The lines go to a temp file in the directory of ``path``, which replaces
    ``path`` only once every line is written. If writing fails, or ``lines``
    raises, the temp file is removed and ``path`` keeps its old content.
    This guards against a crash of the writing process, not against power
    loss: nothing is synced to disk.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for line in lines:
                fh.write(line.encode("utf-8") if isinstance(line, str)
                         else line)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
