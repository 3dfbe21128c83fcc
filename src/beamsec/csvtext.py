"""CSV text of float64 tables, each value exactly as %.17g writes it.

For 1e-4 <= |x| < 1e16, %.17g writes x in fixed notation: the 17-digit
round-half-even integer D of |x| * 10**(16 - k), k = floor(log10 |x|), with
the point after digit k and trailing fraction zeros stripped. rows() computes
D exactly from Dekker's two-product hi + lo of |x| and the exact double
10**(16 - k): hi >= 10**16 > 2**53 is then an even integer, so
D = hi + rint(lo). That needs IEEE binary64 arithmetic with no fused
multiply-add, which numpy's ufuncs give. Every other value (zeros,
subnormals, non-finite values, the exponent-notation range) is formatted by
%.17g itself.

channel.dataset_to_csv imports this module on first use: compiling it and
building its tables would otherwise add to the resident memory of every
command.
"""

from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_POW10 = np.array([float(10**p) for p in range(21)])  # exact in binary64
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _words(digits, points=0) -> np.ndarray:
    """Rows of (digit, point) character pairs as rows of uint64 words. Built
    as bytes, so the tables below hold on either byte order."""
    pairs = np.empty((*np.broadcast_shapes(np.shape(digits), np.shape(points)), 2), dtype=np.uint8)
    pairs[..., 0], pairs[..., 1] = digits, points
    return pairs.reshape(len(pairs), -1).view(np.uint64)


_NUMS = np.arange(10_000)
_QUAD = _words(_NUMS[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))[:, 0]
_QUAD_ZEROS = sum(_NUMS % 10**j == 0 for j in range(1, 5)).astype(np.int8)  # trailing zeros, 4 for 0
_DIGIT = np.arange(1, 17)  # digits 1-16 fill words 1-4
# column j keeps the first j of them; column p + 1 puts the point after digit p
_KEEP = _words((_DIGIT <= np.arange(17)[:, None]) * 0xFF).T.copy()
_POINT = _words(0, (_DIGIT == np.arange(-1, 16)[:, None]) * ord(".")).T.copy()
# word 0 for k = -4..15: the "0." and -k - 1 zeros that precede digit 0 if k < 0
_PREFIX = np.zeros((20, 8), dtype=np.uint8)
_PREFIX[:, 1:3] = (np.arange(-4, 16)[:, None] < 0) * np.array([ord("0"), ord(".")])
_PREFIX[:, 3:6] = (np.arange(-4, 16)[:, None] < np.array([-1, -2, -3])) * ord("0")
_PREFIX = _PREFIX.view(np.uint64)[:, 0]


def _scaled(a: np.ndarray, p: np.ndarray):
    """(hi, lo) with hi + lo == a * 10**p exactly: Dekker's two-product on
    Veltkamp halves."""
    b, bh, bl = _POW10[p], _POW10_HI[p], _POW10_LO[p]
    hi = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    return hi, al * bl - (((hi - ah * bh) - al * bh) - ah * bl)


def _at_least(hi, lo, bound: float) -> np.ndarray:
    """hi + lo >= bound, for hi = fl(hi + lo) and bound a double."""
    return (hi > bound) | ((hi == bound) & (lo >= 0.0))


def rows(table: np.ndarray) -> bytes:
    """The rows of a 2-D float64 table as CSV lines, each value as %.17g.

    Each value fills 40 character slots, five uint64 words: the sign, "0."
    and up to three zeros, then the 17 digits, each followed by a point slot;
    the separator takes the point slot of the last digit, which %g never
    uses. Unused slots hold NUL and are dropped at the end.
    """
    n_rows, n_cols = table.shape
    x = table.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int64)
    hi, lo = _scaled(a, 16 - k)
    # np.log10 can miss k by one next to a power of ten
    up, down = _at_least(hi, lo, 1e17), ~_at_least(hi, lo, 1e16)
    miss = np.flatnonzero(up | down)
    if len(miss):
        k[miss] = np.clip(k[miss] + up[miss] - down[miss], -4, 15)
        hi[miss], lo[miss] = _scaled(a[miss], 16 - k[miss])
        fast[miss] &= _at_least(hi[miss], lo[miss], 1e16) & ~_at_least(hi[miss], lo[miss], 1e17)
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # no double in the fast range lies within half a 17th digit below a power
    # of ten, so D never carries into an 18th digit; one that did would take
    # %.17g
    fast &= D < 10**17

    lead, rest = np.divmod(D, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    quads = np.empty((4, len(x)), dtype=np.int64)  # digits 1-16, four at a time
    quads[0], quads[1] = np.divmod(upper, 10**4)
    quads[2], quads[3] = np.divmod(lower, 10**4)
    z = np.take(_QUAD_ZEROS, quads)
    last = 16 - (z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])))
    # %g strips trailing fraction zeros, and the point if no fraction is left
    point = np.where((k >= 0) & (last > k), k, -1)  # "0." holds it when k < 0

    slots = np.empty((5, len(x)), dtype=np.uint64)  # word-major
    np.take(_PREFIX, k + 4, out=slots[0])
    np.take(_QUAD, quads, out=slots[1:])
    slots[1:] &= np.take(_KEEP, np.maximum(last, k), axis=1)
    slots[1:] |= np.take(_POINT, point + 1, axis=1)
    head = slots[0].view(np.uint8).reshape(-1, 8)
    head[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    head[:, 6] = lead + ord("0")
    head[:, 7] = (point == 0) * np.uint8(ord("."))
    for i in np.flatnonzero(~fast):
        slots[:, i] = np.frombuffer((b"%.17g" % x[i]).ljust(40, b"\0"), dtype=np.uint64)
    ends = slots[4].view(np.uint8)[7::8].reshape(n_rows, n_cols)
    ends[:, :-1] = ord(",")
    ends[:, -1] = ord("\n")
    return slots.T.tobytes().translate(None, b"\0")
