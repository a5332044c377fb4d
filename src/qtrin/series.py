"""Exact Laurent polynomial / truncated power series arithmetic in q.

Exponents are stored as integers counting units of q^(1/2), so q^3 is
exponent 6 and q^(1/2) is exponent 1.  This makes every exponent that
occurs in the trinomial identities (q^{i^2/2}, q^{(3j^2+2j)/2}, ...)
integral.  Coefficients are Python ints, i.e. arbitrary precision; there
is no floating point anywhere in this package.

A series is either exact (``cutoff is None``) or truncated above an
inclusive upper bound ``cutoff``.  All objects are bounded below, so no
Laurent-tail bookkeeping is needed.  Instances are immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

from typing import Optional


def _min_cutoff(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class LaurentSeries:
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

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(cutoff: Optional[int] = None) -> "LaurentSeries":
        return LaurentSeries({}, cutoff)

    @staticmethod
    def one() -> "LaurentSeries":
        return LaurentSeries({0: 1})

    @staticmethod
    def monomial(coeff: int, exp: int) -> "LaurentSeries":
        """coeff * q^(exp/2)."""
        return LaurentSeries({exp: coeff})

    # -- predicates and access --------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.cutoff is None

    def is_zero(self) -> bool:
        return not self.terms

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero series has no minimal exponent")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero series has no maximal exponent")
        return max(self.terms)

    def coeff_at(self, exp: int) -> int:
        """Coefficient of q^(exp/2); querying above the cutoff is an error."""
        if self.cutoff is not None and exp > self.cutoff:
            raise ValueError(
                f"coefficient at exponent {exp} requested above cutoff "
                f"{self.cutoff} (unknown region)")
        return self.terms.get(exp, 0)

    def eval_at_one(self) -> int:
        """Sum of all coefficients, i.e. the value at q = 1."""
        if self.cutoff is not None:
            raise ValueError("eval_at_one needs an exact polynomial")
        return sum(self.terms.values())

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        cut = _min_cutoff(self.cutoff, other.cutoff)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return LaurentSeries(terms, cut)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({e: -c for e, c in self.terms.items()},
                             self.cutoff)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
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
            return LaurentSeries({}, cut)
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
        return LaurentSeries(out, cut)

    def mul_one_minus(self, sign: int, exp: int) -> "LaurentSeries":
        """Product with 1 - sign * q^(exp/2): the strided difference
        r[n] = self[n] - sign * self[n - exp].  The same as multiplying by
        that factor as a series: at exp = 0 the two terms add (to the
        exact zero for sign = 1), and a truncated series stays known below
        cutoff + min(exp, 0)."""
        if sign == 0:
            return self
        if exp == 0:
            return LaurentSeries.zero() if sign == 1 else self.scale_coeffs(2)
        cut = None if self.cutoff is None else self.cutoff + min(exp, 0)
        out = dict(self.terms)
        for e, c in self.terms.items():
            s = out.get(e + exp, 0) - sign * c
            if s:
                out[e + exp] = s
            else:
                del out[e + exp]
        return LaurentSeries(out, cut)

    def div_one_minus(self, sign: int, exp: int) -> "LaurentSeries":
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
        return LaurentSeries(out, self.cutoff)

    def scale_coeffs(self, k: int) -> "LaurentSeries":
        if k == 0:
            return LaurentSeries({}, self.cutoff)
        return LaurentSeries({e: k * c for e, c in self.terms.items()},
                             self.cutoff)

    def scale_exponents(self, k: int) -> "LaurentSeries":
        """Substitute q -> q^k (exponent map e -> k*e); k >= 1."""
        if k < 1:
            raise ValueError("scale_exponents needs k >= 1")
        cut = None if self.cutoff is None else k * self.cutoff
        return LaurentSeries({k * e: c for e, c in self.terms.items()}, cut)

    def reverse_exponents(self) -> "LaurentSeries":
        """Substitute q -> 1/q.  Only defined for exact polynomials."""
        if self.cutoff is not None:
            raise ValueError("cannot reverse a truncated series")
        return LaurentSeries({-e: c for e, c in self.terms.items()})

    def shift(self, exp: int) -> "LaurentSeries":
        """Multiply by q^(exp/2)."""
        cut = None if self.cutoff is None else self.cutoff + exp
        return LaurentSeries({e + exp: c for e, c in self.terms.items()}, cut)

    def truncate(self, cutoff: int) -> "LaurentSeries":
        """Drop terms above cutoff and record it (never loosens a cutoff)."""
        cut = _min_cutoff(self.cutoff, cutoff)
        return LaurentSeries({e: c for e, c in self.terms.items() if e <= cut},
                             cut)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.terms == other.terms and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.cutoff))

    def first_mismatch(self, other: "LaurentSeries"):
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

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            parts = []
            for e in sorted(self.terms):
                c = self.terms[e]
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
    if not num.is_exact or not den.is_exact:
        raise ValueError("exact_divide needs exact operands")
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentSeries.zero()
    d_lo = den.min_exp()
    d_lead = den.terms[d_lo]
    deg_bound = num.max_exp() - den.max_exp()
    rem = dict(num.terms)
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
        for de, dc in den.terms.items():
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

    @staticmethod
    def one(*, t_cutoff: int, q_cutoff: int) -> "TrivariateSeries":
        return TrivariateSeries({(0, 0): LaurentSeries.one()},
                                t_cutoff=t_cutoff, q_cutoff=q_cutoff)

    @staticmethod
    def term(t_degree: int, x_exp: int, coeff: LaurentSeries, *,
             t_cutoff: int, q_cutoff: int) -> "TrivariateSeries":
        return TrivariateSeries({(t_degree, x_exp): coeff},
                                t_cutoff=t_cutoff, q_cutoff=q_cutoff)

    def __add__(self, other: "TrivariateSeries") -> "TrivariateSeries":
        tcut = min(self.t_cutoff, other.t_cutoff)
        qcut = min(self.q_cutoff, other.q_cutoff)
        out = dict(self.entries)
        for key, s in other.entries.items():
            cur = out.get(key)
            out[key] = s if cur is None else cur + s
        return TrivariateSeries(out, t_cutoff=tcut, q_cutoff=qcut)

    def __mul__(self, other: "TrivariateSeries") -> "TrivariateSeries":
        tcut = min(self.t_cutoff, other.t_cutoff)
        qcut = min(self.q_cutoff, other.q_cutoff)
        out: dict = {}
        for (ta, xa), sa in self.entries.items():
            for (tb, xb), sb in other.entries.items():
                td = ta + tb
                if td > tcut:
                    continue
                key = (td, xa + xb)
                prod = sa * sb
                cur = out.get(key)
                out[key] = prod if cur is None else cur + prod
        return TrivariateSeries(out, t_cutoff=tcut, q_cutoff=qcut)

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
            m = a.truncate(qcut).first_mismatch(b.truncate(qcut))
            if m is not None:
                return (key[0], key[1], m[0], m[1], m[2])
        return None
