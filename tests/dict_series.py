"""Reference series kernels on a sparse dict exponent -> coefficient.

These are the kernels ``LaurentSeries`` used before it stored dense
strided coefficient lists, kept verbatim as an independent reference for
the property tests in test_series.py.  ``one_minus_run`` is the
per-factor loop that the truncated Pochhammer symbols ran before
``series.carry_one_minus`` carried them as one packed integer, and
``ratio3_walk`` and ``ratio4_fold`` are the series walks that the
multinomial quotients of ``identities._ratio3`` and ``_ratio4`` took
before ``series.walk_one_minus`` carried them packed, and
``gaussian_loop`` is the series loop that built the Gaussian binomials
before they were walked packed.  ``pack_series`` packs a series into the
integer that the packed kernels take.
"""

from __future__ import annotations

from typing import Optional

from qtrin.series import LaurentSeries


def _min_cutoff(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class DictSeries:
    """Sparse map exponent -> coefficient, with an optional upper cutoff."""

    __slots__ = ("terms", "cutoff")

    def __init__(self, terms: Optional[dict[int, int]] = None,
                 cutoff: Optional[int] = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if c != 0 and (cutoff is None or e <= cutoff):
                    clean[e] = c
        self.terms = clean
        self.cutoff = cutoff

    @staticmethod
    def zero(cutoff: Optional[int] = None) -> "DictSeries":
        return DictSeries({}, cutoff)

    def __add__(self, other: "DictSeries") -> "DictSeries":
        cut = _min_cutoff(self.cutoff, other.cutoff)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return DictSeries(terms, cut)

    def __mul__(self, other: "DictSeries") -> "DictSeries":
        # A product is known only below the point where one factor's
        # unknown region (above its cutoff) can first contribute.  With
        # Laurent factors the other operand's *lowest* exponent sets that
        # point, so the rule is min(cut_a + min_b, cut_b + min_a).
        bounds = []
        if self.cutoff is not None and other.terms:
            bounds.append(self.cutoff + min(other.terms))
        if other.cutoff is not None and self.terms:
            bounds.append(other.cutoff + min(self.terms))
        if self.cutoff is not None and other.cutoff is not None:
            bounds.append(self.cutoff + other.cutoff + 1)
        cut = min(bounds) if bounds else None
        if not self.terms or not other.terms:
            return DictSeries({}, cut)
        # Convolve with the smaller operand on the outside.
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                if cut is not None and e > cut:
                    continue
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return DictSeries(out, cut)

    def mul_one_minus(self, sign: int, exp: int) -> "DictSeries":
        """Product with 1 - sign * q^(exp/2): the strided difference
        r[n] = self[n] - sign * self[n - exp].  The same as multiplying by
        that factor as a series: at exp = 0 the two terms add (to the
        exact zero for sign = 1), and a truncated series stays known below
        cutoff + min(exp, 0)."""
        if sign == 0:
            return self
        if exp == 0:
            return DictSeries.zero() if sign == 1 else self.scale_coeffs(2)
        cut = None if self.cutoff is None else self.cutoff + min(exp, 0)
        out = dict(self.terms)
        for e, c in self.terms.items():
            s = out.get(e + exp, 0) - sign * c
            if s:
                out[e + exp] = s
            else:
                del out[e + exp]
        return DictSeries(out, cut)

    def div_one_minus(self, sign: int, exp: int) -> "DictSeries":
        """Quotient by 1 - sign * q^(exp/2), exp >= 1: the strided prefix
        sum r[n] = self[n] + sign * r[n - exp].  A truncated series keeps
        its cutoff; an exact one must be a multiple, else the non-zero
        remainder raises ValueError."""
        if exp < 1:
            raise ValueError("div_one_minus needs exp >= 1")
        if sign == 0 or not self.terms:
            return self
        top = max(self.terms) if self.cutoff is None else self.cutoff
        out: dict[int, int] = {}
        for n in range(min(self.terms), top + 1):
            acc = self.terms.get(n, 0) + sign * out.get(n - exp, 0)
            if acc:
                out[n] = acc
        if self.cutoff is None and out and max(out) > top - exp:
            raise ValueError("non-zero remainder: not a multiple")
        return DictSeries(out, self.cutoff)

    def scale_coeffs(self, k: int) -> "DictSeries":
        if k == 0:
            return DictSeries({}, self.cutoff)
        return DictSeries({e: k * c for e, c in self.terms.items()},
                          self.cutoff)

    def scale_exponents(self, k: int) -> "DictSeries":
        """Substitute q -> q^k (exponent map e -> k*e); k >= 1."""
        if k < 1:
            raise ValueError("scale_exponents needs k >= 1")
        cut = None if self.cutoff is None else k * self.cutoff
        return DictSeries({k * e: c for e, c in self.terms.items()}, cut)

    def reverse_exponents(self) -> "DictSeries":
        """Substitute q -> 1/q.  Only defined for exact polynomials."""
        if self.cutoff is not None:
            raise ValueError("cannot reverse a truncated series")
        return DictSeries({-e: c for e, c in self.terms.items()})

    def shift(self, exp: int) -> "DictSeries":
        """Multiply by q^(exp/2)."""
        cut = None if self.cutoff is None else self.cutoff + exp
        return DictSeries({e + exp: c for e, c in self.terms.items()}, cut)

    def truncate(self, cutoff: int) -> "DictSeries":
        """Drop terms above cutoff and record it (never loosens a cutoff)."""
        cut = _min_cutoff(self.cutoff, cutoff)
        return DictSeries({e: c for e, c in self.terms.items() if e <= cut},
                          cut)

    def first_mismatch(self, other: "DictSeries"):
        """Lowest exponent where the two disagree, or None.

        Comparison runs up to the tighter of the two cutoffs (everywhere,
        if both are exact).  Returns (exponent, self_coeff, other_coeff).
        """
        cut = _min_cutoff(self.cutoff, other.cutoff)
        exps = set(self.terms) | set(other.terms)
        if cut is not None:
            exps = {e for e in exps if e <= cut}
        for e in sorted(exps):
            ca, cb = self.terms.get(e, 0), other.terms.get(e, 0)
            if ca != cb:
                return (e, ca, cb)
        return None


def one_minus_run(s, sign: int, exps, divide: bool = False):
    """s times, or divided by, each factor 1 - sign q^(e/2), e in exps, one
    ``mul_one_minus`` or ``div_one_minus`` call at a time: on a
    LaurentSeries and a DictSeries alike."""
    for e in exps:
        s = s.div_one_minus(sign, e) if divide else s.mul_one_minus(sign, e)
    return s


def ratio3_walk(L: int):
    """Yield the quotients (q^3;q^3)_L / ((q;q)_{L-2n} (q^3;q^3)_n),
    n = 0..L//2, as LaurentSeries.  The head n = 0 is
    prod_{k=1..L} (1-q^(3k)) / (1-q^k); entry n is entry n-1 times
    (1-q^(L-2n+2)) (1-q^(L-2n+1)) / (1-q^(3n)).  Each step multiplies
    before it divides, so every partial result is a polynomial and a
    remainder raises."""
    r = LaurentSeries.one()
    for k in range(1, L + 1):
        r = r.mul_one_minus(1, 6 * k).div_one_minus(1, 2 * k)
    yield r
    for n in range(1, L // 2 + 1):
        r = r.mul_one_minus(1, 2 * (L - 2 * n + 2)) \
            .mul_one_minus(1, 2 * (L - 2 * n + 1)).div_one_minus(1, 6 * n)
        yield r


def ratio4_columns(M: int):
    """Yield ((m, n), quotient) for every m + 2n <= M, the quotient
    (q^3;q^3)_M / ((q;q)_m (q^3;q^3)_n (q^3;q^3)_d), d = M - 2n - m, as
    a LaurentSeries: column n starts at entry n of ratio3_walk(M) and
    walks down m, times (1-q^(m+1)) / (1-q^(3d)) per step."""
    for n, r in enumerate(ratio3_walk(M)):
        top = M - 2 * n
        yield (top, n), r
        for d in range(1, top + 1):
            r = r.mul_one_minus(1, 2 * (top - d + 1)).div_one_minus(1, 6 * d)
            yield (top - d, n), r


def ratio4_fold(M: int, *exps):
    """The sum over ratio4_columns(M) of each quotient times q^(e(m, n)/2),
    one term for each exponent e in exps (half-units)."""
    return LaurentSeries.sum(r.shift(e(m, n)) for (m, n), r in
                             ratio4_columns(M) for e in exps)


def gaussian_loop(out, top: int, bottom: int, step: int):
    """out * [top, bottom] in base q_step, 0 <= bottom <= top, one factor
    (1 - q_step^(top-k+i)) / (1 - q_step^i) at a time, k = min(bottom,
    top - bottom): after factor i the product holds [top-k+i, i], and an
    exact out is divided with its remainder checked.  A truncated out
    gives the exact product truncated at its cutoff."""
    k = min(bottom, top - bottom)
    for i in range(1, k + 1):
        out = out.mul_one_minus(1, (top - k + i) * step) \
            .div_one_minus(1, i * step)
    return out


def pack_series(s: LaurentSeries, w: int, stride: int) -> int:
    """The packed integer x = sum c_i X^i, X = 2^(64 w), of the exact
    series s = sum c_i q^(i * stride/2), whose exponents all lie on that
    grid from 0 up, in two's-complement slots: each |c_i| must be below
    X / 2.  Each slot is written as its word, c_i mod X, and each
    negative one then takes X from the slot above."""
    terms = s.terms
    if not terms:
        return 0
    c = [0] * (max(terms) // stride + 1)
    for e, v in terms.items():
        assert e >= 0 and e % stride == 0
        c[e // stride] = v
    words = b"".join((v % (1 << 64 * w)).to_bytes(8 * w, "little")
                     for v in c)
    borrows = b"".join(bytes([v < 0]) + bytes(8 * w - 1) for v in c)
    return int.from_bytes(words, "little") \
        - (int.from_bytes(borrows, "little") << 64 * w)
