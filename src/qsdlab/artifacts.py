"""Artifact writer and reader: the one place that fixes how results reach disk.

A CSV is written from one 1-D array per header column: integer columns as
``%d``, float columns as ``%.17g``, enough to round-trip every float64, and
`read_csv` reads it back only under the header it was written with.  JSON
is strict, indented by two spaces, with numpy arrays as lists and non-finite
floats as null.  Both go to a temp file in the target's directory that is
renamed over the target, so a reader never sees a partial file and a failed
write leaves the old one in place.  A new file gets the mode ``0o666 &
~umask``, as from a plain open.  Columns of the wrong count, shape or
length, or of another dtype (text, object, bool), raise ValueError before
anything touches disk.  The target's directory is made at the first write,
so a run that fails before it leaves no directory behind.

CSV rows are formatted a chunk of ``_CHUNK_ROWS`` rows at a time, all
columns interleaved, by a numpy kernel whose bytes equal Python's
``'%.17g' % v`` and ``'%d' % v``:

* A float x with |x| in [1e-290, 1e290) gets e = floor(log10|x|), and
  y = |x|·10^(16−e) is formed in double-double arithmetic: 10^(16−e) is a
  correctly rounded pair hi + lo, computed once from exact integers, and
  |x|·hi is split exactly into h + l by Dekker's product.  The sum h + u,
  u = l + |x|·lo, is within 2^-104·y < 5e-15 of the exact y.  Since h is an
  integer (y > 2^53), the 17 significant digits are D = h + floor(u), plus
  one where the fraction of u is above one half.
* An integer with |v| < 10^17 is D = |v|; zero of either kind is D = 0.
* D's digits come from a table of the 100 two-digit strings.  The layout is
  ``%g``'s: scientific where e < −4 or e ≥ 17, with a signed exponent of at
  least two digits, and trailing zeros and a bare point dropped.  Each value
  fills a fixed-width byte row in which unused places hold NUL, and
  ``bytes.translate`` deletes them.

A value falls back to ``'%.17g' %`` (``'%d' %``) alone where the kernel
cannot prove its digits: non-finite values; |x| outside [1e-290, 1e290),
where 10^(16−e) would overflow or Dekker's split of |x| would overflow or
lose bits to underflow; a fraction of u within 1e-12 of one half, far
beyond the 5e-15 error of y and the 2^-53 of forming the fraction, which
also takes every exact tie to Python's half-even rounding; floor(y) outside [10^16, 10^17 − 1), where log10 put e
one off near a power of ten or the rounding would carry into an 18th digit;
and integers with |v| ≥ 10^17.
"""

from __future__ import annotations

import functools
import json
import math
import os
import warnings

import numpy as np

__all__ = ["read_csv", "write_csv", "write_json"]

_CHUNK_ROWS = 4096

# one formatted value: sign, the "0.000" of 1e-4, 17 digits with a point,
# "e+123", and its separator; the longest '%.17g' or '%d' text, such as
# "-1.0000000000000001e-300" or "-9223372036854775808", fits before it
_WIDTH = 30
_SAFE_MIN, _SAFE_MAX = 1e-290, 1e290
_E_MIN, _E_MAX = -291, 290  # log10 may be one off at the ends of the safe range
_TIE_MARGIN = 1e-12
# the two-digit strings "00" to "99": a row of tens and a row of units characters
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint8).reshape(100, 2).T.copy()
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]
_J = np.arange(18, dtype=np.uint8)[:, None]  # the row index of the position-major layout


def _atomic_write(path, chunks) -> None:
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    # O_EXCL fails rather than open a file that is there; the kernel applies
    # the umask to the mode 0o666, as it does for a plain open
    tmp = f"{os.fspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload: dict) -> None:
    # json's own parser maps NaN and Infinity to null; every other value keeps its text
    data = json.loads(json.dumps(payload, default=np.ndarray.tolist), parse_constant=lambda _: None)
    _atomic_write(path, [(json.dumps(data, indent=2, allow_nan=False) + "\n").encode()])


def read_csv(path, header: str, kind: str) -> np.ndarray:
    """The rows under ``header`` of a `write_csv` file; another first line, no row
    or another width raises ValueError("<kind> CSV must have columns <header>")."""
    message = f"{kind} CSV must have columns {header}"
    with open(path) as fh, warnings.catch_warnings():
        if fh.readline().rstrip("\r\n") != header:
            raise ValueError(message)
        warnings.simplefilter("ignore", UserWarning)  # a header-only file fails the test below
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0 or data.shape[1] != header.count(",") + 1:
        raise ValueError(message)
    return data


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
    n = len(columns[0])

    def chunks():
        yield (header + "\n").encode()
        for i in range(0, n, _CHUNK_ROWS):
            yield _format_rows([col[i:i + _CHUNK_ROWS] for col in columns])

    _atomic_write(path, chunks())


@functools.cache
def _tables():
    """Per decimal exponent e in [_E_MIN, _E_MAX]: 10^(16−e) and the ``%g`` layout.

    The float rows are hi, the double nearest 10^(16−e), lo, the double
    nearest to what is left, and hi's upper 26 bits and the rest, Veltkamp's
    split of hi; Python's int-to-float conversion and int true division round
    correctly.  The uint8 rows are the digit that ends the integer part, the
    digit the point follows, the length of the "0.000" prefix and the five
    characters of the exponent, NUL where ``%g`` prints none.
    """
    powers, layout = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        m, d = hi.as_integer_ratio()
        lo = (num * d - m * den) / (den * d)
        mant, exp = math.frexp(hi)  # rounded to 26 bits, so both halves hold 26
        upper = math.ldexp(float((int(math.ldexp(mant, 53)) + (1 << 26)) >> 27 << 27), exp - 53)
        powers.append((hi, lo, upper, hi - upper))
        if e < -4 or e > 16:
            layout.append((0, 0, 0, *(b"e%+03d" % e).ljust(5, b"\0")))
        elif e < 0:  # "0." and -e - 1 zeros, then every digit after the point
            layout.append((0, 16, 1 - e, 0, 0, 0, 0, 0))
        else:
            layout.append((e, e, 0, 0, 0, 0, 0, 0))
    return np.array(powers).T.copy(), np.array(layout, np.uint8).T.copy()


def _float_digits(x):
    """17-digit significand, decimal exponent and kernel mask of each float in x."""
    a = np.abs(x)
    fast = (a >= _SAFE_MIN) & (a < _SAFE_MAX)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo, hi_up, hi_low = _tables()[0].take(e - _E_MIN, axis=1)
    # Veltkamp split of a into 26-bit halves, then Dekker's a*hi = h + l exactly
    c = a * 134217729.0
    a_up = c - (c - a)
    a_low = a - a_up
    h = a * hi
    l = ((a_up * hi_up - h) + a_up * hi_low + a_low * hi_up) + a_low * hi_low
    u = l + a * lo
    floor_u = np.floor(u)
    frac = u - floor_u
    d = h.astype(np.int64) + floor_u.astype(np.int64)
    # test floor(y) before rounding: a log10 one too high puts y just under 10^16
    fast &= (d >= 10**16) & (d < 10**17 - 1) & (np.abs(frac - 0.5) > _TIE_MARGIN)
    d += frac > 0.5
    zero = x == 0
    d[zero] = 0
    e[zero] = 16  # laid out as the integer 0
    return d, e, fast | zero


def _format_rows(cols) -> bytes:
    """The CSV lines of one chunk of column slices."""
    rows, k = len(cols[0]), len(cols)
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN widens quietly, as tolist() does
        x = np.stack(cols, axis=1, dtype=np.float64, casting="unsafe")
    d, e, fast = _float_digits(x)
    for j, col in enumerate(cols):
        if col.dtype.kind in "iu":  # laid out as floats of exponent 16 with no point
            fast[:, j] = (col < 10**17) & (col > -(10**17))
            d[:, j] = np.abs(np.where(fast[:, j], col, 0).astype(np.int64))
            e[:, j] = 16
    out = _layout(d.ravel(), e.ravel(), np.signbit(x).ravel())
    seps = np.full(k, ord(","), np.uint8)
    seps[-1] = ord("\n")
    out[-1].reshape(rows, k)[:] = seps
    for i in np.flatnonzero(~fast):
        col = cols[i % k]
        text = "%d" % col[i // k] if col.dtype.kind in "iu" else "%.17g" % col[i // k]
        out[:-1, i] = np.frombuffer(text.encode().ljust(_WIDTH - 1, b"\0"), np.uint8)
    return out.T.tobytes().translate(None, b"\0")


def _layout(d, e, neg):
    """The ``%g`` text of each 17-digit significand d and exponent e, NUL-padded.

    Column i of the (_WIDTH, len(d)) result holds value i, with its last byte
    left for the separator.  Every operation runs along the values and the
    small per-value integers are uint8, so numpy's loops stay long and
    vectorized.
    """
    m = len(d)
    lead = d // 10**16
    rest = d - lead * 10**16
    high = rest // 10**8
    q = np.stack((high, rest - high * 10**8), dtype=np.int32, casting="same_kind")
    for div in (10**4, 100):  # 16 digits in 2, 4, then 8 groups
        high = q // div
        q = np.stack((high, q - high * div), axis=1).reshape(-1, m)
    # digit i in row i + 1, between two NUL rows
    digits = np.zeros((19, m), np.uint8)
    digits[1] = lead + 48
    digits[2:18:2], digits[3:18:2] = _PAIRS.take(q, axis=1)
    nonzero = digits[1:18] != 48
    last = (_J[:17] * nonzero).max(axis=0)
    first = 16 - ((16 - _J[:17]) * nonzero).max(axis=0)  # integers drop leading zeros
    whole, point, prefix, *exponent = _tables()[1].take(e - _E_MIN, axis=1)
    digits[1:18] *= (_J[:17] >= first) & (_J[:17] <= np.maximum(last, whole))
    out = np.empty((_WIDTH, m), np.uint8)
    out[0] = neg * np.uint8(ord("-"))
    out[1:6] = _PREFIX * (_J[:5] < prefix)
    # digit j before the point, digit j - 1 after it, selected in uint8
    # arithmetic mod 256: np.where branches on every byte
    body = out[6:24]
    np.subtract(digits[1:], digits[:-1], out=body)
    body *= _J <= point
    body += digits[:-1]
    dot = (last > point) * np.uint8(ord("."))
    body += (_J == point + 1) * (dot - body)
    out[24:29] = exponent
    return out
