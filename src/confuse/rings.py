"""Z_n arithmetic: unit subgroups and subgroup projection.

Z_n computes through the same table-backed arithmetic as the fields
(fields.TableCarrier): read-only numpy add, neg and mul tables.  A RingSpec
is the carrier alone, built once per modulus like a FieldSpec; a unit
subgroup G enters only in the structure built over it, and the tables live
as long as those structures.  The interesting structure lives in the
multiplicative group Z_n^x and its subgroups.  Subgroups are enumerated by
cyclic extension, joining known subgroups with cyclic subgroups of
prime-power order; at the size bound (n <= 512) that is plenty.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import gcd
from operator import itemgetter

import numpy as np

from .errors import LemmaViolation, SizeBoundExceeded
from .fields import TableCarrier, read_only, table_dtype
from .rates import factorize

MAX_N = 512


def units(n: int) -> list[int]:
    return [a for a in range(1, n) if gcd(a, n) == 1]


def proper_divisors(n: int) -> list[int]:
    return [d for d in range(1, n) if n % d == 0]


class RingSpec(TableCarrier):
    """Z_n as a carrier: its add, neg and mul tables, built once per
    modulus.  A unit subgroup G randomizes it only inside a structure
    (structures.ring_confusable_sets), as a divisor d does for a field."""

    kind = "ring"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        if n > MAX_N:
            raise SizeBoundExceeded(f"n = {n} exceeds bound {MAX_N}")
        self.n = n
        x = np.arange(n)
        dt = table_dtype(n)
        self.add_table = read_only(((x[:, None] + x) % n).astype(dt))
        self.neg_table = read_only((-x % n).astype(dt))
        self.mul_table = read_only(((x[:, None] * x) % n).astype(dt))

    def render(self, a: int) -> str:
        return str(a)

    def describe(self) -> str:
        return f"Z_{self.n}"

    def to_json(self) -> dict:
        return {"n": self.n}


def closure_subgroups(table, identity: int, elements) -> list[tuple[int, ...]]:
    """All subgroups of a finite abelian group, given by its operation table
    (a carrier's numpy add or mul table) and its elements (the identity may
    be left out), ordered by (size, members).  Only the rows of the group's
    elements are read, each through a memoryview, so the walk sees Python
    ints.

    Cyclic extension: a subgroup K > 1 has a subgroup H of prime index p,
    and then K is the join of H and some <z> with z in K of p-power order and
    z^p in H.  So the joins of each subgroup found with such <z>, one per
    cyclic subgroup of prime-power order, reach every subgroup.  The group is
    abelian, so each join is the product set of H and {1, z, ..., z^(p-1)}.
    """
    elements = list(elements)
    row_of = {x: memoryview(table[x]) for x in [identity, *elements]}
    cyclic = []  # (z, z^p, getter of 1, z, ..., z^(p-1)) per cyclic subgroup of p-power order
    seen = set()  # generators of every cyclic subgroup already walked
    for x in elements:
        if x in seen:
            continue
        powers = [identity]
        row = row_of[x]
        y = x
        while y != identity:
            powers.append(y)
            y = row[y]
        m = len(powers)
        seen.update(powers[u] for u in range(1, m) if gcd(u, m) == 1)
        primes = factorize(m)
        if len(primes) == 1:
            (p,) = primes
            cyclic.append((x, powers[p % m], itemgetter(*powers[:p])))
    trivial = frozenset([identity])
    found = {trivial}
    queue = [trivial]
    while queue:
        H = queue.pop()
        rows = [row_of[h] for h in H]
        for z, zp, coset_reps in cyclic:
            if z in H or zp not in H:
                continue
            K = frozenset(chain.from_iterable(map(coset_reps, rows)))
            if K not in found:
                found.add(K)
                queue.append(K)
    return sorted((tuple(sorted(H)) for H in found), key=lambda t: (len(t), t))


def enumerate_subgroups(ring: RingSpec) -> list[tuple[int, ...]]:
    """All subgroups of Z_n^x, canonically ordered by (size, members), by
    cyclic extension over the ring's mul table."""
    return closure_subgroups(ring.mul_table, 1, units(ring.n))


@dataclass(frozen=True)
class ProjectionReport:
    """G_n mod d collapsed to a subgroup of Z_d^x with uniform multiplicity."""

    d: int
    base_subgroup: tuple[int, ...]
    multiplicity: int


def project_subgroup(n: int, G, d: int) -> ProjectionReport:
    """Reduce the subgroup G of Z_n^x mod d (a divisor of n, d > 1).

    The residue multiset must be an exact k-fold cover of a subgroup of
    Z_d^x; anything else raises LemmaViolation, which signals a bug, not a
    property of the input.
    """
    if d <= 1 or n % d != 0:
        raise ValueError(f"d = {d} must be a divisor of n = {n} greater than 1")
    counts = Counter(g % d for g in G)
    mults = set(counts.values())
    if len(mults) != 1:
        raise LemmaViolation(
            f"non-uniform cover: G mod {d} has multiplicities {sorted(mults)}"
        )
    base = tuple(sorted(counts))
    if not RingSpec(d).is_unit_subgroup(base):
        raise LemmaViolation(f"G mod {d} = {base} is not a subgroup of Z_{d}^x")
    return ProjectionReport(d, base, mults.pop())
