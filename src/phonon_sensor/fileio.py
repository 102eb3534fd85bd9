"""Atomic text writes and the one text format of histograms and fit reports:
a magic line, ``key = value`` header lines and an optional labelled body of
one value per line.  None is written as ``-`` and floats by ``repr``.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path, text: str) -> None:
    """Write a text file in one step: a temp file beside it, then a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    return repr(float(value)) if isinstance(value, float) else str(value)


def optional(parse):
    """``parse`` that reads ``-`` as None."""
    return lambda text: None if text == "-" else parse(text)


def write_header_file(path, magic: str, header: dict, body_label=None, body=()) -> None:
    lines = [magic, *(f"{key} = {_format(value)}" for key, value in header.items())]
    if body_label is not None:
        lines += [body_label, *map(_format, body)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_header_file(path, magic: str, parsers: dict, body_label=None):
    """(header, body lines) of a :func:`write_header_file` file; ``parsers``
    maps each key to read to its converter.  A missing or unparsable key
    raises a ValueError that names it."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != magic:
        raise ValueError(f"{path}: not a {magic.split()[-2]} file")
    end = lines.index(body_label) if body_label in lines else len(lines)
    if body_label is not None and end == len(lines):
        raise ValueError(f"{path}: missing {body_label} section")
    raw = {}
    for line in filter(None, lines[1:end]):
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}: malformed header line {line!r}")
        raw[key.strip()] = value.strip()
    header = {}
    for key, parse in parsers.items():
        try:
            header[key] = parse(raw[key])
        except KeyError:
            raise ValueError(f"{path}: missing header key {key!r}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: unparsable header key {key!r}: {exc}") from exc
    return header, list(filter(None, lines[end + 1 :]))
