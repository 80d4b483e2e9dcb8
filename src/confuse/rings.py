"""Z_n arithmetic: unit subgroups and subgroup projection.

Z_n computes through the same table-backed arithmetic as the fields
(fields.TableCarrier); its tables are built once per modulus and shared by
every subgroup spec over it.  The interesting structure lives in the
multiplicative group Z_n^x and its subgroups.  Subgroup enumeration is
certificate-style closure search rather than structure theory; at the size
bound (n <= 512) that is plenty.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import LemmaViolation, SizeBoundExceeded
from .fields import TableCarrier, carrier_tables, table_dtype

MAX_N = 512


def units(n: int) -> list[int]:
    return [a for a in range(1, n) if gcd(a, n) == 1]


def proper_divisors(n: int) -> list[int]:
    return [d for d in range(1, n) if n % d == 0]


@functools.cache
def _ring_tables(n: int):
    """Z_n's add, neg and mul tables, built once per modulus."""
    x = np.arange(n)
    dt = table_dtype(n)
    return carrier_tables(((x[:, None] + x) % n).astype(dt), ((x[:, None] * x) % n).astype(dt))


@dataclass(frozen=True)
class RingSpec(TableCarrier):
    """Z_n together with a chosen multiplicative subgroup G of Z_n^x."""

    n: int
    G: tuple[int, ...]

    kind = "ring"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.n > MAX_N:
            raise SizeBoundExceeded(f"n = {self.n} exceeds bound {MAX_N}")
        object.__setattr__(self, "G", tuple(sorted(set(int(g) for g in self.G))))
        for name, table in zip(("add_table", "neg_table", "mul_table"), _ring_tables(self.n)):
            object.__setattr__(self, name, table)
        if not self.is_unit_subgroup(self.G):
            raise ValueError(f"G = {self.G} is not a subgroup of Z_{self.n}^x")

    def render(self, a: int) -> str:
        return str(a)

    def describe(self) -> str:
        return f"Z_{self.n}"

    def to_json(self) -> dict:
        return {"n": self.n, "G": list(self.G)}

    @classmethod
    def from_json(cls, obj: dict) -> "RingSpec":
        return cls(obj["n"], tuple(obj["G"]))


def closure_subgroups(table, identity: int, generators) -> list[tuple[int, ...]]:
    """All subgroups generated by subsets of generators inside a finite
    abelian group given by its operation table, ordered by (size, members).

    Breadth-first closure: every known subgroup is extended by every
    generator and closed under the operation; duplicates are dropped.  Since
    the group is abelian, <H, x> = union of the cosets H, Hx, Hx^2, ...
    """
    trivial = frozenset([identity])
    found = {trivial}
    queue = [trivial]
    while queue:
        H = queue.pop()
        for x in generators:
            if x in H:
                continue
            K = set(H)
            y = x
            while y not in K:
                row = table[y]
                K.update(row[h] for h in H)
                y = table[x][y]
            K = frozenset(K)
            if K not in found:
                found.add(K)
                queue.append(K)
    return sorted((tuple(sorted(H)) for H in found), key=lambda t: (len(t), t))


def enumerate_subgroups(n: int) -> list[tuple[int, ...]]:
    """All subgroups of Z_n^x, canonically ordered by (size, members), by
    closure search over Z_n's mul table."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > MAX_N:
        raise SizeBoundExceeded(f"n = {n} exceeds enumeration bound {MAX_N}")
    _, _, mul_table = _ring_tables(n)
    return closure_subgroups(mul_table, 1, units(n))


@dataclass(frozen=True)
class ProjectionReport:
    """G_n mod d collapsed to a subgroup of Z_d^x with uniform multiplicity."""

    d: int
    base_subgroup: tuple[int, ...]
    multiplicity: int


def project_subgroup(spec: RingSpec, d: int) -> ProjectionReport:
    """Reduce the subgroup mod d (a divisor of n, d > 1).

    The residue multiset must be an exact k-fold cover of a subgroup of
    Z_d^x; anything else raises LemmaViolation, which signals a bug, not a
    property of the input.
    """
    if d <= 1 or spec.n % d != 0:
        raise ValueError(f"d = {d} must be a divisor of n = {spec.n} greater than 1")
    counts = Counter(g % d for g in spec.G)
    mults = set(counts.values())
    if len(mults) != 1:
        raise LemmaViolation(
            f"non-uniform cover: G mod {d} has multiplicities {sorted(mults)}"
        )
    base = tuple(sorted(counts))
    try:
        RingSpec(d, base)
    except ValueError:
        raise LemmaViolation(f"G mod {d} = {base} is not a subgroup of Z_{d}^x") from None
    return ProjectionReport(d, base, mults.pop())
