"""Exact Laurent polynomial / truncated power series arithmetic in q.

Exponents are stored as integers counting units of q^(1/2), so q^3 is
exponent 6 and q^(1/2) is exponent 1.  This makes every exponent that
occurs in the trinomial identities (q^{i^2/2}, q^{(3j^2+2j)/2}, ...)
integral.  Coefficients are Python ints, i.e. arbitrary precision; there
is no floating point anywhere in this package.

A series is stored densely on a grid: a lowest exponent ``lo``, a stride
and a list ``c`` with ``c[i]`` the coefficient of exponent ``lo + i *
stride``.  Neither end of the list is zero, so the zero series is the
empty list; a single term has stride 0.  The stride need not be the gcd
of the exponents, so equal series may sit on different grids; equality
and hashing do not depend on the grid.  Kernels are list operations on
slices of these grids and build their results without re-filtering; the
product packs both grids into integers and multiplies those once,
``packed_sum`` adds series kept packed, one integer per exponent class,
``repack`` moves the slots of a packed series to other widths word by
word, ``carry_one_minus`` carries a truncated series through a run of
factors 1 - s q^(e/2) as one packed integer, and ``walk_one_minus``
carries an exact one through multiplied and divided factors 1 - q^(e/2),
each division checked.

A series is either exact (``cutoff is None``) or truncated above an
inclusive upper bound ``cutoff``, and stores no term above it.  All
objects are bounded below, so no Laurent-tail bookkeeping is needed.
Instances and their lists are immutable after construction and safe to
share between workers.
"""

from __future__ import annotations

import sys
from itertools import accumulate, compress, count, repeat
from math import gcd
from operator import add, lshift, ne, neg, or_, sub
from struct import Struct
from typing import Optional


def _min_cutoff(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _spread(c: list, k: int, p: int, n: int) -> list:
    """A fresh list of n slots holding c at p, p + k, ... (all must fit)."""
    out = [0] * n
    out[p:p + k * len(c):k] = c
    return out


def _slots(s: "LaurentSeries", g: int, n: int) -> list:
    """The first n slots of s on the grid min_exp + i * g, where g divides
    its stride: a slice of its list, spread when the grid is finer."""
    k = s._stride // g or 1
    c = s._c[:(n - 1) // k + 1]
    return c if k == 1 else _spread(c, k, 0, (len(c) - 1) * k + 1)


# Kronecker substitution: q -> X = 2^(64 w) makes a list c of slots the
# integer sum c[i] X^i, so that a product of series is one product of
# integers.  Each slot is a two's-complement word of 64 w bits, exact while
# |c[i]| < X / 2, so callers take w from a bound on every slot
# (``slot_words``), or unsigned up to X - 1 where no slot is negative.
# ``signs`` holds the sign bit X / 2 of each slot, over at least as many
# slots as the list, or is 0 for unsigned slots.
# Slots are written little-endian and read back as machine words, so the
# two orders must agree.
if sys.byteorder != "little":
    raise ImportError("qtrin.series reads packed slots as little-endian "
                      "machine words")


def slot_words(bound: int) -> int:
    """The w whose slots hold every coefficient of absolute value at most
    bound, with a sign bit to spare."""
    return bound.bit_length() // 64 + 1


def _sign_bits(w: int, n: int) -> int:
    """The sign bit X / 2 of each of n slots."""
    return int.from_bytes((bytes(8 * w - 1) + b"\x80") * n, "little")


def _half_bits(w: int, k: int, n: int) -> int:
    """2^(64 k - 1) in each of n slots of 64 w bits, k <= w."""
    return int.from_bytes((bytes(8 * k - 1) + b"\x80" + bytes(8 * (w - k)))
                          * n, "little")


def _pack(c: list, w: int, signs: int) -> int:
    """sum c[i] X^i: a negative slot reads as itself plus X, with its sign
    bit set, and one subtraction takes those X back."""
    if w == 1:
        # one-word slots, nearly every product's, are written in C; the
        # general path below costs two to four times as much per slot.  A
        # fresh Struct, since struct.pack would keep up to 100 compiled
        # formats alive in its cache
        data = Struct(f"<{len(c)}q").pack(*c)
    else:
        mask = (1 << 64 * w) - 1
        data = b"".join(map(int.to_bytes, map(mask.__and__, c),
                            repeat(8 * w), repeat("little")))
    x = int.from_bytes(data, "little")
    return x - ((x & signs) << 1)


def _unpack(x: int, n: int, w: int, signs: int) -> list:
    """The first n slots of x = sum c[i] X^i: adding X / 2 to each makes it
    non-negative, so none borrows from the next, and the XOR turns each
    back into its word.  With signs = 0 no slot is negative, x is read as
    it is and must fit n slots, and each reads as unsigned, up to X - 1."""
    if signs:
        x = ((x + signs) ^ signs) & ((1 << 64 * w * n) - 1)
    words = memoryview(x.to_bytes(8 * w * n, "little"))
    c = words.cast("q" if signs else "Q")[w - 1::w].tolist()
    low = words.cast("Q")       # the words below a slot's top are unsigned
    for j in range(w - 2, -1, -1):
        c = list(map(or_, map(lshift, c, repeat(64)), low[j::w]))
    return c


def unpack_series(x: int, w: int, lo: int, stride: int = 1,
                  signed: bool = False) -> "LaurentSeries":
    """The exact series sum c_i q^((lo + i * stride)/2) of a packed integer
    x = sum c_i X^i.  Unsigned, no slot is negative and each reads up to
    X - 1; signed, each slot is two's complement, |c_i| < X / 2, and x
    may be negative.  The slots read, x.bit_length() // (64 w) + 1, cover
    the top non-zero one, c_n: signed, those below it add up to less than
    X^n / 2 in absolute value, so X^n / 2 < |x| < X^(n+1) / 2."""
    n = x.bit_length() // (64 * w) + 1
    return _new(lo, stride,
                _unpack(x, n, w, _sign_bits(w, n) if signed else 0), None)


def repack(x: int, w: int, v: int, signed: bool = False) -> int:
    """The packed integer x of slots of 64 w bits in slots of 64 v bits:
    the low words of each slot are copied, so no slot is read as an int.
    Unsigned, x >= 0 and v >= w.  Signed, the slots are two's complement,
    v may be less than w, and every |slot| must be below 2^(64 k - 1),
    k = min(w, v): adding 2^(64 k - 1) to each makes it k unsigned words,
    and the same is taken back from each wider or narrower slot."""
    if v == w:
        return x
    k = min(w, v)
    n = x.bit_length() // (64 * w) + 1
    if signed:
        x += _half_bits(w, k, n)
    src = memoryview(x.to_bytes(8 * w * n, "little")).cast("Q")
    out = bytearray(8 * v * n)
    dst = memoryview(out).cast("Q")
    for j in range(k):
        dst[j::v] = src[j::w]
    x = int.from_bytes(out, "little")
    return x - _half_bits(v, k, n) if signed else x


def packed_mul_one_minus(x: int, w: int, d: int) -> int:
    """x (1 - X^d): a packed series times 1 - q^(d stride/2) on its grid
    of slots.  Each slot of it is the difference of two slots of x."""
    return x - (x << 64 * w * d)


def packed_div_one_minus(x: int, w: int, d: int, mask: int) -> int:
    """The packed quotient Q of x by 1 - X^d, d >= 1, through the n slots
    of mask = X^n - 1, which the caller holds: the residue
    x (1 + X^d + ... + X^(d(K-1))) mod X^n, K doubling each step until
    dK >= n, so log2(n / d) shift-adds on n slots (none when d >= n),
    read as a signed integer.  Only Q's n slots must fit two's-complement
    slots of 64 w bits, and nothing is checked.

    - Truncated, for any x: that residue is the quotient of the series
      by 1 - q^(d stride/2) mod X^n, the prefix sums r[i] = x[i] +
      r[i - d] of its first n slots; with |Q| < X^n / 2 the residue
      picks Q out.
    - Exact, for an x whose series is a multiple with a quotient of n
      slots: x = Q (1 - X^d) as integers, so the residue is
      Q - Q X^(dK) mod X^n = Q.  The caller has divided that series
      itself (``div_one_minus`` raises on a remainder)."""
    bits, top = 64 * w, mask.bit_length()
    x &= mask
    while bits * d < top:
        x = (x + (x << bits * d)) & mask
        d *= 2
    return x - mask - 1 if x >> (top - 1) else x


# the bits of headroom that a re-measured carry gets for its next steps
_HEADROOM = 32


def _carry_width(b: int) -> int:
    """The w whose slots hold b bits and _HEADROOM more, with a sign bit
    to spare."""
    return (b + _HEADROOM) // 64 + 1


def carry_one_minus(s: "LaurentSeries", sign: int, exps,
                    divide: bool = False) -> "LaurentSeries":
    """The truncated series s multiplied, or divided when ``divide``, by
    each factor 1 - sign q^(e/2), e >= 1 in the iterable exps: the same
    series as that run of ``mul_one_minus`` or ``div_one_minus`` calls,
    carried as one packed integer.

    The n slots of s through its cutoff, on the grid g = gcd(stride,
    exps) from its lowest exponent, are packed once in two's-complement
    slots of 64 w bits, and every step is taken mod X^n: a factor
    multiplied is one shift-add, a factor divided is
    ``packed_div_one_minus``, and 1 + X^d divides as (1 - X^d) /
    (1 - X^(2d)).  A factor with d >= n reaches no slot.  The slots are
    unpacked once at the end.

    Width invariant: every slot lies below 2^b in absolute value at every
    step, with b <= 64 w - 1, so below 2^(64 w - 1) and in its word.  A
    primitive step (a shift-add, or one doubling of the prefix sum) makes
    each slot the sum or difference of two slots, so it adds 1 to b.
    Before a factor's steps could take b past 64 w - 1, the slots are
    unpacked, b is set to the bit length of their real largest |slot|,
    and they are repacked in the slots of ``_carry_width`` if that w
    differs.  The width thus follows the coefficients, not a bound on
    them."""
    if s.cutoff is None:
        raise ValueError("carry_one_minus needs a truncated series")
    if sign == 0 or not s._c:
        return s
    exps = list(exps)
    if not exps:
        return s
    if min(exps) < 1:
        raise ValueError("carry_one_minus needs exponents e >= 1")
    lo = s._lo
    g = gcd(s._stride, *exps)
    n = (s.cutoff - lo) // g + 1
    c = _spread(s._c, s._stride // g or 1, 0, n)
    b = s.max_abs_coeff().bit_length()
    w = _carry_width(b)
    signs = _sign_bits(w, n)
    x = _pack(c, w, signs)
    mask = (1 << 64 * w * n) - 1
    for e in exps:
        d = e // g
        if d >= n:
            continue
        # the primitive steps of this factor: its shift-add, and the
        # doublings of its prefix sum
        if not divide:
            steps = 1
        elif sign == 1:
            steps = ((n - 1) // d).bit_length()
        else:
            steps = 1 + ((n - 1) // (2 * d)).bit_length()
        if b + steps > 64 * w - 1:
            c = _unpack(x, n, w, signs)
            b = max(max(c), -min(c)).bit_length()
            if _carry_width(b + steps) != w:
                w = _carry_width(b + steps)
                signs = _sign_bits(w, n)
                x = _pack(c, w, signs)
                mask = (1 << 64 * w * n) - 1
        b += steps
        if divide:
            if sign == -1:
                # 1 + X^d = (1 - X^d) / (1 - X^(2d))
                x, d = packed_mul_one_minus(x, w, d), 2 * d
            x = packed_div_one_minus(x, w, d, mask)
        elif sign == 1:
            x = packed_mul_one_minus(x, w, d) & mask
        else:
            x = (x + (x << 64 * w * d)) & mask
    return _new(lo, g, _unpack(x, n, w, signs), s.cutoff)


def _height(x: int, n: int, w: int, b: int, exact: bool) -> int:
    """A bound on the largest |slot| of the n two's-complement slots of x,
    each in [-2^b, 2^b), b <= 64 w - 1, and that largest |slot| itself
    when ``exact``.  Each slot plus 2^b lies in [0, 2^(b+1)), and shifted
    down by s = max(b - 63, 0) bits it is one word, the low word of its
    slot: the least and the largest of those words bound every slot to
    within 2^s.  Exact, only the slots at those two words are read whole,
    unless more than a few are (then every slot is unpacked)."""
    s = max(b - 63, 0)
    u = x + int.from_bytes((1 << b).to_bytes(8 * w, "little") * n, "little")
    top = memoryview((u >> s).to_bytes(8 * w * n, "little")).cast("Q")
    top = top[::w].tolist()
    hi, lo = max(top), min(top)
    most = max(((hi + 1) << s) - 1 - (1 << b), (1 << b) - (lo << s))
    if not exact or not s:
        return most
    counts = {t: top.count(t) for t in (hi, lo)}
    if sum(counts.values()) > 8:
        c = _unpack(x, n, w, _sign_bits(w, n))
        return max(max(c), -min(c))
    data, most = u.to_bytes(8 * w * n, "little"), 0
    for t, k in counts.items():
        i = -1
        for _ in range(k):
            i = top.index(t, i + 1)
            c = int.from_bytes(data[8 * w * i:8 * w * (i + 1)], "little")
            most = max(most, abs(c - (1 << b)))
    return most


def walk_one_minus(x: int, w: int, b: int, steps, measure: bool = False):
    """Yield the exact series packed in x, then the series after each step
    of ``steps`` in turn, as (x, w, height): x in two's-complement slots
    of 64 w bits and every |slot| at most height.  A step (m_1, ..., m_k,
    d), in slots, multiplies by each 1 - X^(m_i) and then divides by
    1 - X^d, d >= 1; the division must be exact, else ValueError.  Each
    slot of the x given must be below 2^b in absolute value, b <= 64 w -
    1.  With ``measure`` every height is the largest |slot|; otherwise it
    is 2^b - 1 for the bound b the walk keeps.

    A factor multiplied is one shift-add.  A factor divided is
    ``packed_div_one_minus`` through the quotient's slots, one for each
    slot of the product past the first d, and then checked: Q (1 - X^d)
    must equal the product p as integers.  While every slot of p lies
    in its word and every slot of Q lies a bit inside it, below 2^(64 w -
    2), each slot of Q (1 - X^d) lies in its word too, and two lists of
    such slots pack to different integers: the check then proves the
    division slot by slot, whatever Q the kernel returned, and a
    remainder, or a width too narrow, raises.

    Width invariant, as in ``carry_one_minus``: b bounds the bit length
    of every slot and grows by 1 per primitive step (a shift-add, or a
    doubling of the prefix sum), so Q's bound is b plus those of the
    step.  Where that bound could reach 64 w - 1 (and after every
    division when ``measure``), Q is measured (``_height``) and b is its
    real bit length; if Q's slots do not lie a bit inside the word, or
    the product would pass it, the step is taken again from the slots
    repacked at ``_carry_width`` of b plus the step's bound.  The width
    only grows."""
    top = x.bit_length() // (64 * w)        # the top slot
    height = (1 << b) - 1
    if measure:
        height = _height(x, top + 1, w, b, True)
        b = height.bit_length()
    yield x, w, height
    for *muls, d in steps:
        if d < 1:
            raise ValueError("walk_one_minus needs divisors d >= 1")
        if not x:
            yield x, w, 0
            continue
        n = top + sum(muls) + 1 - d         # the slots of the quotient
        if n < 1:
            raise ValueError("non-zero remainder: not a multiple")
        k = len(muls)
        steps_q = k + ((n - 1) // d).bit_length()
        if b + k > 64 * w - 1 and not measure:
            b = _height(x, top + 1, w, b, False).bit_length()
        for again in (False, True):
            if again or b + k > 64 * w - 1:
                v = _carry_width(b + steps_q + 1)
                x, w = repack(x, w, v, signed=True), v
            p, bits = x, 64 * w
            for m in muls:
                p = packed_mul_one_minus(p, w, m)
            q = packed_div_one_minus(p, w, d, (1 << bits * n) - 1)
            bq = b + steps_q
            if measure or bq > 64 * w - 2:
                # Q's slots are the prefix sums below 2^bq if bq fits
                # the word; any Q has slots in [-X/2, X/2)
                height = _height(q, n, w, min(bq, 64 * w - 1), measure)
                bq = height.bit_length()
            if bq <= 64 * w - 2:
                break
        if q - (q << bits * d) != p:
            raise ValueError("non-zero remainder: not a multiple")
        x, top, b = q, n - 1, bq
        yield x, w, height if measure else (1 << b) - 1


def packed_sum(parts, w: int, stride: int,
               signed: bool = False) -> "LaurentSeries":
    """The exact series sum +-c_i q^((e + i * stride)/2) over the (x, e,
    minus) in ``parts`` (any iterable; a part may repeat), each
    x = sum c_i X^i packed in slots of 64 w bits and subtracted where
    minus is true.  The parts whose e share a class mod stride are added
    as integers, one per class, each shifted to its place in the class,
    and each class sum is unpacked once on the grid of the stride
    (``unpack_series``): the classes then interleave in one
    LaurentSeries.sum.  Slots are two's complement when signed, else
    unsigned; the caller bounds every slot of a class sum to fit them."""
    # class r maps to (k, s): slot i of s stands for q^((r + (k + i)
    # stride)/2), k the lowest class index among its parts so far
    sums: dict = {}
    bits = 64 * w
    for x, e, minus in parts:
        k, r = divmod(e, stride)
        if minus:
            x = -x
        if r not in sums:
            sums[r] = k, x
            continue
        base, s = sums[r]
        sums[r] = (base, s + (x << bits * (k - base))) if k >= base \
            else (k, (s << bits * (base - k)) + x)
    classes = [unpack_series(x, w, k * stride + r, stride, signed)
               for r, (k, x) in sums.items()]
    if len(classes) == 1:
        return classes[0]
    return LaurentSeries.sum(classes)


def _place(parts, cut: Optional[int]) -> "LaurentSeries":
    """The sum of the series in parts, known through cut; parts holds at
    least two (series, n) pairs, each with its first n >= 1 entries at or
    below cut.  All sit on the common grid gcd of their strides and
    offsets: the first is spread into a fresh list and each other one
    slice-added into it."""
    (first, n), rest = parts[0], parts[1:]
    lo, g = first._lo, first._stride
    top = lo + (n - 1) * g
    for s, m in rest:
        g = gcd(g, s._stride, s._lo - first._lo)
        if s._lo < lo:
            lo = s._lo
        if s._lo + (m - 1) * s._stride > top:
            top = s._lo + (m - 1) * s._stride
    g = g or 1
    c = first._c
    out = _spread(c if n == len(c) else c[:n], first._stride // g or 1,
                  (first._lo - lo) // g, (top - lo) // g + 1)
    for s, n in rest:
        k, p = s._stride // g or 1, (s._lo - lo) // g
        stop = p + k * n
        # map stops with the slice of out: entries past n are not summed
        out[p:stop:k] = map(add, out[p:stop:k], s._c)
    return _new(lo, g, out, cut)


def _new(lo: int, stride: int, c: list, cutoff: Optional[int]
         ) -> "LaurentSeries":
    """A series from a list the caller owns, trimming zeros at its ends;
    every entry must lie at or below the cutoff."""
    while c and not c[-1]:
        c.pop()
    if c and not c[0]:
        i = 1
        while not c[i]:
            i += 1
        del c[:i]
        lo += i * stride
    out = object.__new__(LaurentSeries)
    out._lo = lo if c else 0
    out._stride = stride if len(c) > 1 else 0
    out._c = c
    out.cutoff = cutoff
    return out


class LaurentSeries:
    """Coefficients on the exponent grid lo + i * stride, with an optional
    upper cutoff."""

    __slots__ = ("_lo", "_stride", "_c", "cutoff")

    def __init__(self, terms: Optional[dict[int, int]] = None,
                 cutoff: Optional[int] = None):
        kept = {e: c for e, c in terms.items()
                if c != 0 and (cutoff is None or e <= cutoff)} \
            if terms else {}
        lo = min(kept, default=0)
        stride = gcd(*(e - lo for e in kept))
        c = [0] * ((max(kept) - lo) // stride + 1 if stride else len(kept))
        for e, x in kept.items():
            c[(e - lo) // stride if stride else 0] = x
        self._lo, self._stride, self._c = lo, stride, c
        self.cutoff = cutoff

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(cutoff: Optional[int] = None) -> "LaurentSeries":
        return _new(0, 0, [], cutoff)

    @staticmethod
    def one() -> "LaurentSeries":
        return _new(0, 0, [1], None)

    @staticmethod
    def monomial(coeff: int, exp: int) -> "LaurentSeries":
        """coeff * q^(exp/2)."""
        return _new(exp, 0, [coeff], None)

    # -- predicates and access --------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        """A fresh map exponent -> non-zero coefficient, in ascending
        exponent order."""
        lo, s = self._lo, self._stride
        return {lo + i * s: x for i, x in enumerate(self._c) if x}

    def is_zero(self) -> bool:
        return not self._c

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero series has no minimal exponent")
        return self._lo

    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero series has no maximal exponent")
        return self._lo + (len(self._c) - 1) * self._stride

    def coeff_at(self, exp: int) -> int:
        """Coefficient of q^(exp/2); querying above the cutoff is an error."""
        if self.cutoff is not None and exp > self.cutoff:
            raise ValueError(
                f"coefficient at exponent {exp} requested above cutoff "
                f"{self.cutoff} (unknown region)")
        c, s = self._c, self._stride
        if not c:
            return 0
        if not s:
            return c[0] if exp == self._lo else 0
        i, r = divmod(exp - self._lo, s)
        return c[i] if r == 0 and 0 <= i < len(c) else 0

    def eval_at_one(self) -> int:
        """Sum of all coefficients, i.e. the value at q = 1."""
        if self.cutoff is not None:
            raise ValueError("eval_at_one needs an exact polynomial")
        return sum(self._c)

    def max_abs_coeff(self) -> int:
        """The largest absolute value of a coefficient; 0 for the zero
        series."""
        c = self._c
        return max(max(c), -min(c)) if c else 0

    def _upto(self, cut: Optional[int]) -> int:
        """How many leading entries lie at or below cut."""
        c = self._c
        if cut is None or not c:
            return len(c)
        if cut < self._lo:
            return 0
        if not self._stride:
            return 1
        return min(len(c), (cut - self._lo) // self._stride + 1)

    def _head(self, n: int, cut: Optional[int]) -> "LaurentSeries":
        """The first n entries, known through cut."""
        if n == len(self._c):
            if cut == self.cutoff:
                return self
            return _new(self._lo, self._stride, self._c, cut)
        return _new(self._lo, self._stride, self._c[:n], cut)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return LaurentSeries.sum((self, other))

    @staticmethod
    def sum(terms, cutoff: Optional[int] = None) -> "LaurentSeries":
        """The sum of the series in ``terms`` (any iterable), built in one
        pass: known through the tightest of their cutoffs and ``cutoff``,
        and without the terms that lie wholly above it.  ``+`` is its
        two-term case; a longer sum copies no running sum per term."""
        terms = list(terms)
        cut = cutoff
        for t in terms:
            cut = _min_cutoff(cut, t.cutoff)
        parts = [(t, n) for t in terms if (n := t._upto(cut))]
        if not parts:
            return LaurentSeries.zero(cut)
        if len(parts) == 1:
            return parts[0][0]._head(parts[0][1], cut)
        return _place(parts, cut)

    def __neg__(self) -> "LaurentSeries":
        return _new(self._lo, self._stride, list(map(neg, self._c)),
                    self.cutoff)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + -other

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        # A product is known only below the point where one factor's
        # unknown region (above its cutoff) can first contribute.  With
        # Laurent factors the other operand's *lowest* exponent sets that
        # point, so the rule is min(cut_a + min_b, cut_b + min_a).
        bounds = []
        if self.cutoff is not None and other._c:
            bounds.append(self.cutoff + other._lo)
        if other.cutoff is not None and self._c:
            bounds.append(other.cutoff + self._lo)
        if self.cutoff is not None and other.cutoff is not None:
            bounds.append(self.cutoff + other.cutoff + 1)
        cut = min(bounds) if bounds else None
        if not self._c or not other._c:
            return LaurentSeries.zero(cut)
        if len(self._c) == 1 or len(other._c) == 1:
            # c q^(e/2) times s is s shifted by e and scaled by c, cut to
            # the product's cutoff; nothing is packed
            m, s = (self, other) if len(self._c) == 1 else (other, self)
            p = s.shift(m._lo)
            p = p._head(p._upto(cut), cut)
            return p if m._c[0] == 1 else p.scale_coeffs(m._c[0])
        # The n slots of the product on the common grid, n >= 1 since a
        # truncated factor keeps its lowest term at or below its cutoff;
        # only the first n slots of each factor reach them.
        g = gcd(self._stride, other._stride) or 1
        lo = self._lo + other._lo
        n = (self.max_exp() + other.max_exp() - lo) // g + 1
        if cut is not None:
            n = min(n, (cut - lo) // g + 1)
        a, b = _slots(self, g, n), _slots(other, g, n)
        # a slot of the product sums at most min(len(a), len(b)) products
        w = slot_words(min(len(a), len(b)) * max(map(abs, a))
                       * max(map(abs, b)))
        signs = _sign_bits(w, n)
        x = _pack(a, w, signs) * _pack(b, w, signs)
        return _new(lo, g, _unpack(x, n, w, signs), cut)

    def mul_one_minus(self, sign: int, exp: int) -> "LaurentSeries":
        """Product with 1 - sign * q^(exp/2): the strided difference
        r[n] = self[n] - sign * self[n - exp].  The same as multiplying by
        that factor as a series: at exp = 0 the two terms add (to the
        exact zero for sign = 1), and a truncated series stays known below
        cutoff + min(exp, 0).  A truncated series that the factor moves
        wholly past its cutoff (exp > cutoff - min_exp) is returned as it
        is."""
        if sign == 0:
            return self
        if exp == 0:
            return LaurentSeries.zero() if sign == 1 else self.scale_coeffs(2)
        if exp < 0:
            # x (1 - s q^e) = -s q^e x (1 - s q^-e)
            out = self.mul_one_minus(sign, -exp).shift(exp)
            return -out if sign == 1 else out
        if not self._c:
            return self
        # on the grid gcd(stride, exp) the factor moves every entry d slots
        g = gcd(self._stride, exp)
        d = exp // g
        n = (self.max_exp() - self._lo) // g + 1 + d
        if self.cutoff is not None:
            n = min(n, (self.cutoff - self._lo) // g + 1)
        if d >= n:
            return self
        r = _spread(self._c, self._stride // g or 1, 0, n)
        # both slices are copies, so each entry takes the old one d back
        r[d:] = map(sub if sign == 1 else add, r[d:], r[:n - d])
        return _new(self._lo, g, r, self.cutoff)

    def div_one_minus(self, sign: int, exp: int) -> "LaurentSeries":
        """Quotient by 1 - sign * q^(exp/2), exp >= 1.  For sign = 1 it is
        the strided prefix sum r[n] = self[n] + r[n - exp]; for sign = -1
        it is the product with 1 - q^(exp/2) divided by 1 - q^exp, since
        1/(1 + y) = (1 - y)/(1 - y^2).  With n slots on the grid and exp d
        slots apart, the sum runs block by block (n / d steps) when
        d * d > n and 20 * d > n, else one running sum per residue class
        (d steps): on long lists a class's running sum costs less per
        entry than a block, so blocks win only once d nears n / 20.  A
        truncated series keeps its cutoff, and is returned as it is when
        exp > cutoff - min_exp; an exact one must be a multiple, else the
        non-zero remainder raises ValueError."""
        if exp < 1:
            raise ValueError("div_one_minus needs exp >= 1")
        if sign == 0 or not self._c:
            return self
        if sign == -1:
            return self.mul_one_minus(1, exp).div_one_minus(1, 2 * exp)
        g = gcd(self._stride, exp)
        d = exp // g
        top = self.max_exp() if self.cutoff is None else self.cutoff
        n = (top - self._lo) // g + 1
        if d >= n and self.cutoff is not None:
            return self
        r = _spread(self._c, self._stride // g or 1, 0, n)
        if d * d > n and 20 * d > n:
            for k in range(d, n, d):
                # map stops with the shorter slice at the end of r
                r[k:k + d] = map(add, r[k:k + d], r[k - d:k])
        else:
            for j in range(d):
                r[j::d] = accumulate(r[j::d])
        if self.cutoff is None and any(r[max(n - d, 0):]):
            raise ValueError("non-zero remainder: not a multiple")
        return _new(self._lo, g, r, self.cutoff)

    def scale_coeffs(self, k: int) -> "LaurentSeries":
        if k == 0:
            return LaurentSeries.zero(self.cutoff)
        return _new(self._lo, self._stride, list(map(k.__mul__, self._c)),
                    self.cutoff)

    def scale_exponents(self, k: int) -> "LaurentSeries":
        """Substitute q -> q^k (exponent map e -> k*e); k >= 1."""
        if k < 1:
            raise ValueError("scale_exponents needs k >= 1")
        cut = None if self.cutoff is None else k * self.cutoff
        return _new(k * self._lo, k * self._stride, self._c, cut)

    def reverse_exponents(self) -> "LaurentSeries":
        """Substitute q -> 1/q.  Only defined for exact polynomials."""
        if self.cutoff is not None:
            raise ValueError("cannot reverse a truncated series")
        if not self._c:
            return self
        return _new(-self.max_exp(), self._stride, self._c[::-1], None)

    def shift(self, exp: int) -> "LaurentSeries":
        """Multiply by q^(exp/2)."""
        cut = None if self.cutoff is None else self.cutoff + exp
        return _new(self._lo + exp, self._stride, self._c, cut)

    def truncate(self, cutoff: int) -> "LaurentSeries":
        """Drop terms above cutoff and record it (never loosens a cutoff)."""
        cut = _min_cutoff(self.cutoff, cutoff)
        return self._head(self._upto(cut), cut)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.cutoff != other.cutoff or self._lo != other._lo:
            return False
        if self._stride == other._stride:
            return self._c == other._c
        return self.terms == other.terms

    def __hash__(self):
        # the non-zero coefficients in exponent order do not depend on the
        # grid
        return hash((self._lo, self.cutoff, tuple(filter(None, self._c))))

    def first_mismatch(self, other: "LaurentSeries"):
        """Lowest exponent where the two disagree, or None.

        Comparison runs up to the tighter of the two cutoffs (everywhere,
        if both are exact).  Returns (exponent, self_coeff, other_coeff).
        Both sides are spread onto their common grid up to the highest
        kept term and compared slot by slot; nothing else is built.
        """
        cut = _min_cutoff(self.cutoff, other.cutoff)
        sides = [(s, s._upto(cut)) for s in (self, other)]
        if not sides[0][1] and not sides[1][1]:
            return None
        lo = min(s._lo for s, n in sides if n)
        g = gcd(self._stride, other._stride, self._lo - other._lo) or 1
        m = (max(s._lo + (n - 1) * s._stride for s, n in sides if n) - lo
             ) // g + 1
        a, b = (_spread(s._c[:n], s._stride // g or 1, (s._lo - lo) // g, m)
                for s, n in sides)
        i = next(compress(count(), map(ne, a, b)), None)
        return None if i is None else (lo + i * g, a[i], b[i])

    def __repr__(self):
        terms = self.terms
        if not terms:
            body = "0"
        else:
            parts = []
            for e, c in terms.items():
                if e == 0:
                    parts.append(f"{c}")
                elif e % 2 == 0:
                    parts.append(f"{c}*q^{e // 2}")
                else:
                    parts.append(f"{c}*q^({e}/2)")
            body = " + ".join(parts)
        tail = "" if self.cutoff is None else f" + O(q^{self.cutoff}/2)"
        return f"<{body}{tail}>"


def exact_divide(num: LaurentSeries, den: LaurentSeries) -> LaurentSeries:
    """Exact quotient of Laurent polynomials; raises if it does not divide.

    Ascending long division with a final zero-remainder check.  The raise
    doubles as a polynomiality assertion for multinomial-type summands.
    """
    if num.cutoff is not None or den.cutoff is not None:
        raise ValueError("exact_divide needs exact operands")
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentSeries.zero()
    d_terms = den.terms
    d_lo = den.min_exp()
    d_lead = d_terms[d_lo]
    deg_bound = num.max_exp() - den.max_exp()
    rem = num.terms
    quot: dict[int, int] = {}
    while rem:
        e = min(rem)
        qe = e - d_lo
        if qe > deg_bound:
            raise ValueError("non-zero remainder: quotient is not a polynomial")
        c = rem[e]
        qc, r = divmod(c, d_lead)
        if r != 0:
            raise ValueError("non-zero remainder: quotient is not a polynomial")
        quot[qe] = qc
        for de, dc in d_terms.items():
            te = de + qe
            s = rem.get(te, 0) - dc * qc
            if s:
                rem[te] = s
            else:
                rem.pop(te, None)
    return LaurentSeries(quot)


class TrivariateSeries:
    """Truncated series in t (degree >= 0), x (integer exponent) and q.

    Entries map (t_degree, x_exponent) to a LaurentSeries in q.  Terms
    with t-degree above ``t_cutoff`` are dropped; every entry is truncated
    at ``q_cutoff`` (half-exponent units).  Used for the trivariate
    generating-function check and, with x unused, for bivariate (t, q)
    comparisons.
    """

    __slots__ = ("entries", "t_cutoff", "q_cutoff")

    def __init__(self, entries: Optional[dict] = None, *,
                 t_cutoff: int, q_cutoff: int):
        clean = {}
        if entries:
            for (td, xe), s in entries.items():
                if td < 0:
                    raise ValueError("negative t-degree")
                if td > t_cutoff:
                    continue
                s = s.truncate(q_cutoff)
                if not s.is_zero():
                    clean[(td, xe)] = s
        self.entries = clean
        self.t_cutoff = t_cutoff
        self.q_cutoff = q_cutoff

    def __mul__(self, other: "TrivariateSeries") -> "TrivariateSeries":
        tcut = min(self.t_cutoff, other.t_cutoff)
        qcut = min(self.q_cutoff, other.q_cutoff)
        prods: dict = {}
        for (ta, xa), sa in self.entries.items():
            for (tb, xb), sb in other.entries.items():
                if ta + tb <= tcut:
                    prods.setdefault((ta + tb, xa + xb), []).append(sa * sb)
        return TrivariateSeries(
            {key: LaurentSeries.sum(ps, qcut) for key, ps in prods.items()},
            t_cutoff=tcut, q_cutoff=qcut)

    def entry(self, t_degree: int, x_exp: int = 0) -> LaurentSeries:
        return self.entries.get((t_degree, x_exp),
                                LaurentSeries.zero(self.q_cutoff))

    def first_mismatch(self, other: "TrivariateSeries"):
        """First differing (t, x, q-exponent) triple in lexicographic order,
        compared through the tighter of the two q cutoffs.

        Raises if an entry is known only below that cutoff, i.e. the
        working cutoff it was built with was too small.
        """
        qcut = min(self.q_cutoff, other.q_cutoff)
        tcut = min(self.t_cutoff, other.t_cutoff)
        keys = sorted(k for k in set(self.entries) | set(other.entries)
                      if k[0] <= tcut)
        for key in keys:
            a, b = self.entry(*key), other.entry(*key)
            for s in (a, b):
                if s.cutoff < qcut:
                    raise ValueError(
                        f"entry {key} only known to {s.cutoff} < {qcut}; "
                        "increase the working cutoff")
            m = a.first_mismatch(b)
            if m is not None:
                return (key[0], key[1], m[0], m[1], m[2])
        return None
