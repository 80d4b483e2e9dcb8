"""Exact communication rates.

A rate is a formal rational combination of log2(prime) terms, so values such
as log2(3) or 2 + log2(3) compare exactly instead of through floats.  All
alphabet sizes in this toolkit are integers, so their log2 always factors
this way.
"""

from __future__ import annotations

import math
from fractions import Fraction


def factorize(m: int) -> dict[int, int]:
    """{prime: exponent} of m by trial division; {} for m < 2."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


class Rate:
    """log2 of a product of integer alphabet sizes, kept exact.

    Internally a mapping prime -> rational exponent; log2(12) is stored as
    {2: 2, 3: 1}.  Equality is exact term-wise equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        cleaned = {p: Fraction(c) for p, c in (terms or {}).items() if c != 0}
        self.terms = tuple(sorted(cleaned.items()))

    @classmethod
    def log2(cls, m: int, coeff=1) -> "Rate":
        if m <= 0:
            raise ValueError(f"log2 of non-positive alphabet size {m}")
        c = Fraction(coeff)
        return cls({p: k * c for p, k in factorize(m).items()})

    @classmethod
    def zero(cls) -> "Rate":
        return cls({})

    def __add__(self, other: "Rate") -> "Rate":
        terms = dict(self.terms)
        for p, c in other.terms:
            terms[p] = terms.get(p, Fraction(0)) + c
        return Rate(terms)

    def scaled(self, factor) -> "Rate":
        f = Fraction(factor)
        return Rate({p: c * f for p, c in self.terms})

    def value(self) -> float:
        return float(sum(float(c) * math.log2(p) for p, c in self.terms))

    def __eq__(self, other) -> bool:
        return isinstance(other, Rate) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        if not self.terms:
            return "Rate(0)"
        parts = [f"{c}*log2({p})" for p, c in self.terms]
        return f"Rate({' + '.join(parts)})"

    def render(self, places: int = 6) -> str:
        return f"{self.value():.{places}f}"

    def to_json(self) -> dict:
        return {
            "terms": [[p, c.numerator, c.denominator] for p, c in self.terms],
            "bits": self.render(),
        }
