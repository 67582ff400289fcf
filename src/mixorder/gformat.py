"""C ``%.{P}g`` text for arrays of doubles, byte for byte, computed with numpy.

``format_g(values, precision, separators)`` returns the ASCII bytes of
``"".join(f"%.{precision}g" % v + sep for v, sep in zip(values, cycle(separators)))``,
for 9 <= precision <= 17.  Each value is handled in four steps:

1. ``k = floor(log10|v|)`` estimates the decimal exponent, and
   ``s = |v| * 10**(P-1-k)`` is formed as a double-double: ``10**m`` is a
   ``hi + lo`` pair made with Python integer arithmetic, and ``|v| * hi`` is
   split exactly by Dekker's product (no fused multiply-add).  The error in
   ``s`` is below 1e-14, in units of its last digit.
2. ``s`` is rounded half-even to the integer ``D`` of ``P`` digits.
3. The digits of ``D`` come from two int32 halves, four at a time from a
   table of ``"d.d.d.d."`` words, and masks keep the digits and the one
   decimal point the text shows.
4. The C ``%g`` rules lay the text out: fixed notation when
   ``-4 <= k < P``, else an exponent of at least two digits; trailing zeros
   and a bare point dropped; a ``-`` for negative values.

A value goes to ``%`` on its own when it is zero or not finite, when ``|v|``
lies outside ``[1e-280, 1e280]``, when ``s`` is within 1e-9 of a rounding tie
(exact ties included), or when the ``log10`` estimate missed, so that ``D``
falls outside ``[10**(P-1), 10**P)`` (a value that rounds up to the next
power of ten among them).  Which values these are depends on the values
alone.
"""

from __future__ import annotations

import functools

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two halves of 26 bits
_M_MIN, _M_MAX = -300, 300  # powers of ten in the table, and exponents with a text
_TINY, _HUGE = 1e-280, 1e280  # |v| outside this range goes to '%': no overflow, no subnormals
_GUARD = 1e-9  # a fraction of s this close to 1/2 goes to '%'


def _split(x):
    t = _SPLIT * x
    hi = t - (t - x)
    return hi, x - hi


@functools.cache
def _powers_of_ten():
    """``10**m`` for m in [_M_MIN, _M_MAX] as ``hi + lo`` (each correctly rounded), and hi's split."""
    hi, lo = [], []
    for m in range(_M_MIN, _M_MAX + 1):
        if m >= 0:
            h = float(10 ** m)
            rest = (10 ** m - int(h), 1)
        else:  # 10**m - h = (den - num * 10**-m) / (den * 10**-m) for h = num / den
            h = 1 / 10 ** -m
            num, den = h.as_integer_ratio()
            rest = (den - num * 10 ** -m, den * 10 ** -m)
        hi.append(h)
        lo.append(rest[0] / rest[1])  # int / int rounds correctly
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _words(texts):
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8")


@functools.cache
def _tables(precision: int):
    """Word tables for the text layout of ``format_g`` at ``precision`` digits."""
    groups = (precision + 3) // 4
    g = np.arange(10 ** 4)
    chars = np.full((10 ** 4, 8), ord("."), np.uint8)
    chars[:, 0::2] = g[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    pairs = chars.view("<u8").ravel()
    # digits up to the last nonzero one, counted from the first group; 0 for a zero group
    trailing = np.argmax(chars[:, 6::-2] != ord("0"), axis=1)
    ends = [np.where(g == 0, 0, 4 * i + 4 - trailing).astype(np.int32) for i in range(groups)]
    # for shown = q * (precision + 1) + kept: digits j < kept, and the point after
    # digit q - 1 when digits follow it
    q = np.arange(precision + 1)[:, None, None]
    kept = np.arange(precision + 1)[None, :, None]
    j = np.arange(4 * groups)
    keep = np.empty((precision + 1, precision + 1, 8 * groups), bool)
    keep[..., 0::2] = j < kept
    keep[..., 1::2] = (j == q - 1) & (kept > q)
    masks = (keep * np.uint8(0xFF)).reshape((precision + 1) ** 2, groups, 8)
    masks = [np.ascontiguousarray(masks[:, w]).view("<u8").ravel() for w in range(groups)]
    # index neg + 2 * z: the sign, and "0." with z - 1 zeros when k = -z (z = 1..4)
    prefixes = _words([s + (b"0." + b"0" * (z - 1) if z else b"") for z in range(5) for s in (b"", b"-")])
    exponents = _words([b"e%+03d" % k for k in range(_M_MIN, _M_MAX + 1)])
    return pairs, ends, masks, prefixes, exponents


def _round(a, precision: int):
    """``(D, k, exact)``: ``a`` rounded half-even to ``D * 10**(k-precision+1)``.

    ``D`` has ``precision`` digits wherever ``exact`` holds; ``a`` lies in
    ``[_TINY, _HUGE]``.
    """
    k = np.floor(np.log10(a))
    m = ((precision - 1 - _M_MIN) - k).astype(np.intp)
    hi, hh, hl, lo = _powers_of_ten()
    bh, bl = hh.take(m), hl.take(m)
    p = a * hi.take(m)
    ah, al = _split(a)
    e = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * lo.take(m)  # s = p + e
    whole = np.floor(p)
    frac = (p - whole) + e
    carry = np.floor(frac)
    frac -= carry
    floor_s = whole.astype(np.int64) + carry.astype(np.int64)
    d = floor_s + (frac > 0.5)
    exact = (np.abs(frac - 0.5) > _GUARD) & (floor_s >= 10 ** (precision - 1)) & (d < 10 ** precision)
    return np.clip(d, 10 ** (precision - 1), 10 ** precision - 1), k.astype(np.int32), exact


def format_g(values, precision: int, separators: str) -> bytes:
    """``values`` as ``%.{precision}g`` text, value i followed by ``separators[i % len]``.

    ``len(values)`` is a multiple of ``len(separators)``.  The working arrays take
    about 200 bytes per value, so a caller that formats many values passes them a
    block at a time.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    exact = (a >= _TINY) & (a <= _HUGE)  # False for nan
    d, k, rounded = _round(np.fmax(np.fmin(a, _HUGE), _TINY), precision)
    exact &= rounded

    # the digits of d, four to a group from the left: d = top * 10**low + bottom
    low = precision - 8
    top = (d // 10 ** low).astype(np.int32)
    bottom = (d - top.astype(np.int64) * 10 ** low).astype(np.int32)
    groups = [top // 10 ** 4]
    groups.append(top - groups[0] * 10 ** 4)
    for start in range(0, low, 4):
        shift = low - start - 4
        if shift < 0:
            groups.append(bottom * 10 ** -shift)
        else:
            groups.append(bottom // 10 ** shift)
            bottom = bottom - groups[-1] * 10 ** shift

    pairs, ends, masks, prefixes, exponents = _tables(precision)
    significant = ends[0].take(groups[0])
    for end, group in zip(ends[1:], groups[1:]):
        np.maximum(significant, end.take(group), out=significant)
    fixed = (k >= -4) & (k < precision)
    small = fixed & (k < 0)  # 0.000ddd
    # q digits before the point: k + 1 in fixed notation, 1 with an exponent, 0 for 0.000ddd
    q = (fixed & ~small) * (k + 1) + ~fixed
    shown = q * (precision + 1) + np.maximum(significant, q)

    # per value: sign and "0.000" | "d.d.d.d." words of the digits | exponent and separator
    text = np.empty((v.size, len(groups) + 2), "<u8")
    text[:, 0] = prefixes.take((v < 0) - 2 * k * small)
    for w, group in enumerate(groups):
        np.bitwise_and(pairs.take(group), masks[w].take(shown), out=text[:, 1 + w])
    ends_with = np.array([ord(s) << 56 for s in separators], "<u8")
    text[:, -1] = exponents.take(k - _M_MIN) * ~fixed | np.tile(ends_with, v.size // len(separators))

    inexact = np.flatnonzero(~exact)
    if inexact.size:
        width = 8 * text.shape[1] - 1
        texts = [(f"%.{precision}g" % x).encode().ljust(width, b"\0") + separators[i % len(separators)].encode()
                 for i, x in zip(inexact.tolist(), v[inexact].tolist())]
        text[inexact] = np.frombuffer(b"".join(texts), "<u8").reshape(inexact.size, -1)
    return text.tobytes().translate(None, b"\0")
