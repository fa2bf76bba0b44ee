"""Artifact writer: the one place that fixes how results reach disk.

CSV rows carry one value per header column at 17 significant digits, enough
to round-trip every float64, and JSON is indented by two spaces.  Both go to
a temp file in the target's directory that is renamed over the target, so a
reader never sees a partial file and a failed write leaves the old one in
place.  A new file gets the mode ``0o666 & ~umask``, as from a plain open.
CSV rows are formatted a chunk at a time and each chunk is streamed to the
temp file, so the whole text is never held in memory.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain, islice

__all__ = ["write_csv", "write_json"]

_CHUNK_ROWS = 4096


def _atomic_write(path, chunks) -> None:
    directory = os.path.dirname(os.fspath(path)) or "."
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


def write_csv(path, header: str, rows) -> None:
    """Write one line per row, one value per header column, at 17 digits."""
    ncols = header.count(",") + 1
    line = ",".join(["%.17g"] * ncols) + "\n"

    def chunks():
        yield header + "\n"
        it = iter(rows)
        while chunk := list(islice(it, _CHUNK_ROWS)):
            if set(map(len, chunk)) != {ncols}:
                raise ValueError(f"CSV row value count differs from the columns of {header!r}")
            yield (line * len(chunk)) % tuple(chain.from_iterable(chunk))

    _atomic_write(path, chunks())
