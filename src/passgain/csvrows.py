"""``%.11e`` CSV lines from numpy lookup tables.

:func:`_csv_rows` renders the ``label,x,y,stderr`` lines of
:func:`experiments.write_csv <passgain.experiments.write_csv>` a chunk at a
time, byte for byte as Python's ``"%.11e" % v`` would: each number's digits,
sign and exponent are looked up in small tables of 4-byte words.  The few
numbers whose digits numpy cannot vouch for get them from ``%``.

Public: none.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError


@functools.cache
def _tables():
    """Lookup tables of :func:`_csv_rows`, built on its first call: the scale
    per decimal exponent, 0 where the fast path cannot take it, and the word
    table of each of a number's five words.

    The exponent tables have 800 slots, one per decimal exponent in
    [-400, 400), negative ones counted from the end as Python indexing does.
    Slot -400 stands for zero, which prints with exponent +00.
    """
    e = np.arange(800)
    e[400:] -= 800
    fast = np.abs(e) < 100
    # correctly rounded 10^(11 - e), parsed from decimal; 0 where e is not fast
    scale = np.zeros(800)
    scale[fast] = [float(f"1e{11 - i}") for i in e[fast].tolist()]

    def digits(k, width):
        return [48 + k // 10**i % 10 for i in reversed(range(width))]

    def words(*columns):  # a uint32 word of four bytes per entry; 0 bytes pad
        table = np.stack(np.broadcast_arrays(*columns), axis=1).astype(np.uint8)
        return table.view(np.uint32)[:, 0]

    k = np.arange(10**4)
    lead = np.arange(20)  # 10 * sign + leading digit
    four = words(*digits(k, 4))
    a = np.where(e == -400, 0, np.abs(e))
    hundreds, tens, ones = digits(a, 3)
    tables = (
        words(ord(","), ord("-") * (lead >= 10), 48 + lead % 10, ord(".")),
        four, four,
        words(*digits(k[:1000], 3), ord("e")),
        words(np.where((e < 0) & (a > 0), ord("-"), ord("+")),
              np.where(a >= 100, hundreds, 0), tens, ones),
    )
    for t in (scale, *tables):
        t.flags.writeable = False
    return scale, tables


def _label_words(names) -> np.ndarray:
    """The series names as rows of NUL-padded uint32 words, one row per name;
    :func:`_csv_rows` drops the NUL bytes, so no name may hold one."""
    encoded = [name.encode() for name in names]
    if any(b"\0" in name for name in encoded):
        raise ConfigError("series names must not contain NUL characters")
    width = -(-max(map(len, encoded), default=0) // 4)
    text = b"".join(name.ljust(4 * width, b"\0") for name in encoded)
    return np.frombuffer(text, np.uint32).reshape(len(names), width)


def _csv_rows(labels: np.ndarray, ranks: np.ndarray, values: np.ndarray) -> bytes:
    """``label,x,y,stderr`` CSV lines, each number in ``%.11e``.

    ``labels`` is the :func:`_label_words` table of the series names, and
    ``ranks`` holds each line's row in it; ``values`` holds the x, y and
    stderr rows, one column per line.  Each number with |e| < 100,
    e its decimal exponent, gets the 12-digit mantissa
    m = rint(|v| 10^(11 - e)) from one rounded multiplication by a rounded
    power of ten.  That scaling errs by less than 2.5e-4 in m, so wherever
    |v| 10^(11 - e) lies over 1e-3 from a rounding tie, within
    [1e11, 1e12 - 0.5), m is the mantissa ``%`` prints; zeros are exact.  The
    rest take m and e from ``%`` itself.  Each number then takes five table
    words: comma, sign and leading digit; two words of four digits; three
    digits and "e"; the exponent.  The NUL padding is dropped from the bytes
    of the lines.
    """
    scale, tables = _tables()
    n, width = ranks.size, labels.shape[1]
    mag = np.abs(values)
    with np.errstate(divide="ignore"):  # zero: log10 -inf, slot -400
        e = np.maximum(np.floor(np.log10(mag)), -400).astype(np.intp)
    s = mag * scale[e]
    m = np.rint(s)
    slow = ((s < 1e11) & (mag != 0)) | (s >= 999999999999.5) | (np.abs(s - m) >= 0.499)
    m = m.astype(np.int64)
    if slow.any():
        texts = ["%.11e" % v for v in mag[slow].tolist()]  # d.ddddddddddde+XX
        m[slow] = [int(t[0] + t[2:13]) for t in texts]
        e[slow] = [int(t[14:]) for t in texts]
    top = m // 10**7  # the first five digits
    rest = m - top * 10**7
    lead = top // 10**4 + 10 * np.signbit(values)
    middle = rest // 1000
    words = np.empty((width + 16, n), np.uint32)
    np.take(labels.T, ranks, axis=1, out=words[:width], mode="wrap")  # "raise" buffers `out`
    keys = (lead, top, middle, rest - middle * 1000, e)
    for j, (table, key) in enumerate(zip(tables, keys)):
        # wrap: `top` modulo 10^4, negative exponents from the table's end
        words[width + j:width + 15:5] = np.take(table, key, mode="wrap")
    words[-1] = ord("\n")
    return words.T.tobytes().translate(None, b"\0")
