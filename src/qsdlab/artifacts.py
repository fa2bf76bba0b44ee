"""Artifact writer: the one place that fixes how results reach disk.

A CSV is written from one 1-D array per header column: integer columns as
``%d``, float columns at 17 significant digits, enough to round-trip every
float64, and JSON is indented by two spaces, with numpy arrays as lists.
Both go to a temp file in the target's directory that is renamed over the
target, so a reader never sees a partial file and a failed write leaves the
old one in place.  A new file gets the mode ``0o666 & ~umask``, as from a
plain open.  CSV rows are formatted and streamed a chunk at a time, so the
whole text is never held in memory.  Columns of the wrong count, shape or
length, or of another dtype (text, object, bool), raise ValueError before
anything touches disk.  The target's directory is made at the first write,
so a run that fails before it leaves no directory behind.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

__all__ = ["write_csv", "write_json"]

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
    _atomic_write(path, [json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"])


def write_csv(path, header: str, columns) -> None:
    """Write one line per row from one 1-D numeric array per header column."""
    columns = [np.asarray(col) for col in columns]
    k = len(columns)
    if k != header.count(",") + 1:
        raise ValueError(f"{k} columns for the header {header!r}")
    if any(col.ndim != 1 for col in columns) or len({len(col) for col in columns}) != 1:
        raise ValueError(f"the columns of {header!r} are not 1-D or differ in length")
    if any(col.dtype.kind not in "iuf" for col in columns):
        raise ValueError(f"a column of {header!r} is not integer or float")
    line = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in columns) + "\n"
    n = len(columns[0])

    def chunks():
        yield header + "\n"
        for i in range(0, n, _CHUNK_ROWS):
            rows = min(_CHUNK_ROWS, n - i)
            flat = [None] * (rows * k)
            for j, col in enumerate(columns):
                flat[j::k] = col[i:i + _CHUNK_ROWS].tolist()
            yield line * rows % tuple(flat)

    _atomic_write(path, chunks())
