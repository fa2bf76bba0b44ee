"""Artifact writer: the one place that fixes how results reach disk.

CSV rows carry one value per header column at 17 significant digits, enough
to round-trip every float64, and JSON is indented by two spaces.  Both go to
a temp file in the target's directory that is renamed over the target, so a
reader never sees a partial file and a failed write leaves the old one in
place.  A new file gets the mode ``0o666 & ~umask``, as from a plain open.
CSV rows are formatted a chunk at a time and each chunk is streamed to the
temp file, so the whole text is never held in memory.  A column whose first
value is a str is text, written verbatim, and a column that mixes text and
numbers raises ValueError.  The target's directory is made at the first
write, so a run that fails before it leaves no directory behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain, islice

__all__ = ["float_values", "format_column", "text_values", "write_csv", "write_json"]

_CHUNK_ROWS = 4096


def _atomic_write(path, chunks) -> None:
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        # mkstemp creates the file 0600; give artifacts the umask's default mode
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload: dict) -> None:
    _atomic_write(path, [json.dumps(payload, indent=2) + "\n"])


def format_column(values) -> list[str]:
    """``values`` as `write_csv` writes them, one str of lines per chunk of rows."""
    parts = (values[i:i + _CHUNK_ROWS] for i in range(0, len(values), _CHUNK_ROWS))
    return ["%.17g\n" * len(part) % tuple(part) for part in parts]


def text_values(column: list[str]):
    """The values of a `format_column` column, as str, one chunk at a time."""
    return chain.from_iterable(map(str.splitlines, column))


def float_values(array):
    """An array's values as Python floats (faster to format), one chunk at a time."""
    parts = (array[i:i + _CHUNK_ROWS] for i in range(0, len(array), _CHUNK_ROWS))
    return chain.from_iterable(part.tolist() for part in parts)


def write_csv(path, header: str, rows) -> None:
    """Write one line per row, one value per header column, at 17 digits or as text."""
    ncols = header.count(",") + 1

    def chunks():
        yield header + "\n"
        it = iter(rows)
        line = None
        while chunk := list(islice(it, _CHUNK_ROWS)):
            if set(map(len, chunk)) != {ncols}:
                raise ValueError(f"CSV row value count differs from the columns of {header!r}")
            if line is None:
                text = [j for j, v in enumerate(chunk[0]) if isinstance(v, str)]
                line = ",".join("%s" if j in text else "%.17g" for j in range(ncols)) + "\n"
            values = tuple(chain.from_iterable(chunk))
            if any(not issubclass(kind, str) for j in text for kind in set(map(type, values[j::ncols]))):
                raise ValueError(f"a number in a text column of {header!r}")
            try:
                yield (line * len(chunk)) % values
            except TypeError:
                raise ValueError(f"a non-number in a number column of {header!r}") from None

    _atomic_write(path, chunks())
