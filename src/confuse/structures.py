"""Confusable-set structures over field and ring carriers, plus catalogs.

A structure is a partition of the carrier into sets that a uniform randomizer
gamma (drawn from S*) maps onto themselves with uniform multiplicity.  The
partition is validated exactly at construction: for every member s of every
set S_i, the multiset {gamma * s} must equal |S*|/|S_i| copies of S_i.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from importlib import resources

from .errors import NotADivisor
from .fields import FieldSpec, field_make, is_prime, prime_power
from .rings import RingSpec, enumerate_subgroups, project_subgroup, proper_divisors, units


class ConfusableStructure:
    """A validated partition + randomizer over one carrier.

    sets are each sorted, and ordered by smallest member, which puts {0}
    first (zero_index is always 0 under this ordering).
    """

    def __init__(self, carrier, randomizer, sets, provenance=None, trivial=False):
        self.carrier = carrier
        self.randomizer = tuple(sorted(randomizer))
        self.sets = tuple(tuple(sorted(s)) for s in sorted(sets, key=min))
        self.provenance = provenance or {}
        self.trivial = trivial
        self._index = {}
        for i, s in enumerate(self.sets):
            for a in s:
                if a in self._index:
                    raise ValueError(f"element {a} appears in two sets")
                self._index[a] = i
        if sorted(self._index) != list(carrier.elements()):
            raise ValueError("sets do not partition the carrier")
        self.zero_index = self._index[0]
        if self.sets[self.zero_index] != (0,):
            raise ValueError("the set containing 0 must be exactly {0}")
        self._check_randomization()

    def _check_randomization(self):
        mul = self.carrier.mul
        r = self.randomizer
        for i, s in enumerate(self.sets):
            if len(r) % len(s) != 0:
                raise ValueError(f"|S*| = {len(r)} not a multiple of |S_{i}| = {len(s)}")
            k = len(r) // len(s)
            expected = {t: k for t in s}
            for a in s:
                got = Counter(mul(g, a) for g in r)
                if got != expected:
                    raise ValueError(
                        f"randomizer does not map {a} uniformly onto set {s}: {dict(got)}"
                    )

    def index_of(self, element: int) -> int:
        return self._index[element]

    @property
    def size(self) -> int:
        return self.carrier.size

    def key(self) -> str:
        if self.carrier.kind == "field":
            return f"{self.carrier.describe()} d={self.provenance.get('d')}"
        return f"{self.carrier.describe()} G={list(self.randomizer)}"

    def rendered_sets(self) -> list[list[str]]:
        return [[self.carrier.render(a) for a in s] for s in self.sets]

    def rendered_randomizer(self) -> list[str]:
        return [self.carrier.render(a) for a in self.randomizer]

    def __repr__(self):
        return f"ConfusableStructure({self.key()}, sets={len(self.sets)})"


def field_confusable_sets(spec: FieldSpec, d: int) -> ConfusableStructure:
    """Partition of F_q by discrete-log residue mod d, for d | q-1.

    S* is the subgroup of d-th powers {g^0, g^d, ...}; S_i collects the
    elements whose discrete log is congruent to i-1 mod d.
    """
    q = spec.q
    if d < 1 or (q - 1) % d != 0:
        raise NotADivisor(f"d = {d} does not divide q-1 = {q - 1}")
    b = (q - 1) // d
    sstar = [spec.exp(j * d) for j in range(b)]
    sets = [(0,)]
    for i in range(1, d + 1):
        sets.append(tuple(spec.exp(j * d + i - 1) for j in range(b)))
    return ConfusableStructure(
        spec,
        sstar,
        sets,
        provenance={"kind": "field", "d": d},
        trivial=(d == 1 or b == 1),
    )


def ring_confusable_sets(spec: RingSpec) -> ConfusableStructure:
    """Partition of Z_n from a unit subgroup G: {0}, plus for each proper
    divisor d the cosets of (G mod n/d) inside Z_{n/d}^x, scaled by d."""
    n = spec.n
    sets = [(0,)]
    for d in proper_divisors(n):
        m = n // d  # > 1 since d is proper
        base = project_subgroup(spec, m).base_subgroup
        seen = set()
        for u in units(m):
            if u in seen:
                continue
            coset = sorted((u * b) % m for b in base)
            seen.update(coset)
            sets.append(tuple(d * c for c in coset))
    return ConfusableStructure(
        spec,
        spec.G,
        sets,
        provenance={"kind": "ring", "G": list(spec.G)},
        trivial=(len(spec.G) == 1),
    )


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

@dataclass
class CatalogEntry:
    structure: ConfusableStructure

    @property
    def trivial(self) -> bool:
        return self.structure.trivial

    def to_json(self) -> dict:
        s = self.structure
        out = {
            "carrier": s.carrier.to_json() | {"kind": s.carrier.kind},
            "label": s.carrier.describe(),
            "randomizer": s.rendered_randomizer(),
            "sets": s.rendered_sets(),
            "provenance": s.provenance,
            "trivial": s.trivial,
        }
        if s.carrier.kind == "field" and s.carrier.n > 1:
            out["h"] = s.carrier.render_h()
            out["g"] = s.carrier.render(s.carrier.g)
        return out


def catalog_fields(max_q: int) -> list[CatalogEntry]:
    """One entry per prime power q <= max_q and divisor d of q-1, including
    the trivial rows (d = 1, and the all-singleton d = q-1) that published
    tables leave out; those carry trivial=True so comparisons can filter."""
    entries = []
    for q in range(2, max_q + 1):
        pp = prime_power(q)
        if pp is None:
            continue
        spec = field_make(*pp)
        for d in sorted(x for x in range(1, q) if (q - 1) % x == 0):
            entries.append(CatalogEntry(field_confusable_sets(spec, d)))
    return entries


def catalog_rings(max_n: int) -> list[CatalogEntry]:
    """One entry per composite n <= max_n and subgroup of Z_n^x (prime n is
    already covered by the prime-field catalog)."""
    entries = []
    for n in range(4, max_n + 1):
        if is_prime(n):
            continue
        for G in enumerate_subgroups(n):
            entries.append(CatalogEntry(ring_confusable_sets(RingSpec(n, G))))
    return entries


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------

def _partition_key(randomizer, sets):
    return (frozenset(randomizer), frozenset(frozenset(s) for s in sets))


def load_reference(kind: str) -> dict:
    name = "field_catalog_reference.json" if kind == "field" else "ring_catalog_reference.json"
    with resources.files("confuse.data").joinpath(name).open("r") as fh:
        return json.load(fh)


def diff_against_reference(entries: list[CatalogEntry], reference: dict) -> list[str]:
    """Compare generated non-trivial rows against a hand-entered reference.

    Rows are compared as unordered partitions of rendered elements, scoped to
    carriers the reference covers.  Returns human-readable mismatch lines;
    empty means clean.
    """
    ref_max = reference["max_carrier"]
    ref_rows = {}
    for row in reference["rows"]:
        label = row["label"]
        ref_rows.setdefault(label, set()).add(
            _partition_key(row["randomizer"], row["sets"])
        )
    gen_rows: dict[str, set] = {}
    for e in entries:
        if e.trivial or e.structure.size > ref_max:
            continue
        label = e.structure.carrier.describe()
        gen_rows.setdefault(label, set()).add(
            _partition_key(e.structure.rendered_randomizer(), e.structure.rendered_sets())
        )
    problems = []
    for label in sorted(set(ref_rows) | set(gen_rows)):
        missing = ref_rows.get(label, set()) - gen_rows.get(label, set())
        extra = gen_rows.get(label, set()) - ref_rows.get(label, set())
        for m in sorted(missing, key=lambda m: sorted(m[0])):
            problems.append(f"{label}: reference row with S*={sorted(m[0])} not generated")
        for m in sorted(extra, key=lambda m: sorted(m[0])):
            problems.append(f"{label}: generated row with S*={sorted(m[0])} not in reference")
    return problems
