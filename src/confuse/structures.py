"""Confusable-set structures over field and ring carriers, plus catalogs.

A structure is a carrier with a randomizer S*, a group of units.  The
carrier (a FieldSpec or a RingSpec) holds only arithmetic; S* lives in the
structure alone: the d-th powers for F_q, a unit subgroup G for Z_n.  Its
confusable sets are the S*-orbits {gamma * a : gamma in S*}.  S* acts on the
carrier by mul, so by the orbit-stabilizer theorem a uniform gamma maps each
element uniformly onto its orbit: every orbit member is hit |Stab(a)| times.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import numpy as np

from . import jsonout
from .errors import NotADivisor, SchemaError, SizeBoundExceeded
from .fields import MAX_Q, FieldSpec, field_make, is_prime, prime_power
from .rings import MAX_N, RingSpec, enumerate_subgroups


class ConfusableStructure:
    """The S*-orbits of one carrier under a unit subgroup S*.

    sets are each sorted, and ordered by smallest member, which puts {0}
    first (zero_index is always 0 under this ordering).  A randomizer the
    caller supplies is checked to be a group of units; verified=True skips
    the check for one that is a group by construction: the d-th powers of
    the generator a FieldSpec accepted, or a subgroup that
    enumerate_subgroups produced.  Every structure keeps its carrier, so the
    carrier's tables live as long as the structures built over them.
    """

    def __init__(self, carrier, randomizer, provenance=None, trivial=False, verified=False):
        sstar = sorted(int(g) for g in randomizer)
        if not verified and not carrier.is_unit_subgroup(sstar):
            raise ValueError(f"S* = {sstar} is not a group of units of {carrier.describe()}")
        self.carrier = carrier
        self.randomizer = tuple(sstar)
        self.provenance = provenance or {}
        self.trivial = trivial
        # the orbit of a is column a of S*'s mul rows; its least member names it
        least = carrier.mul_table[sstar].min(axis=0)
        reps = np.flatnonzero(least == np.arange(carrier.size))
        self._index = np.searchsorted(reps, least).tolist()
        sets = [[] for _ in reps]
        for a, i in enumerate(self._index):
            sets[i].append(a)
        self.sets = tuple(map(tuple, sets))
        self.zero_index = 0

    def index_of(self, element: int) -> int:
        return self._index[element]

    @functools.cached_property
    def orbit_sizes(self) -> tuple[int, ...]:
        """The sizes of the confusable sets, largest first; computed on
        first read, which only the embedding search makes."""
        return tuple(sorted(map(len, self.sets), reverse=True))

    @property
    def size(self) -> int:
        return self.carrier.size

    def key(self) -> str:
        if self.carrier.kind == "field":
            return f"{self.carrier.describe()} d={self.provenance.get('d')}"
        return f"{self.carrier.describe()} G={list(self.randomizer)}"

    def rendered_sets(self) -> list[list[str]]:
        name = self.carrier.names.__getitem__
        return [list(map(name, s)) for s in self.sets]

    def rendered_randomizer(self) -> list[str]:
        return list(map(self.carrier.names.__getitem__, self.randomizer))

    def carrier_json(self) -> dict:
        """The carrier's JSON with its kind; a ring's also carries its G,
        which lives in the structure, not in the RingSpec."""
        c = self.carrier
        out = c.to_json() | {"kind": c.kind}
        if c.kind == "ring":
            out["G"] = list(self.randomizer)
        return out

    def to_json(self) -> dict:
        """The catalog entry.  Its randomizer and sets are jsonout.Fragments,
        encoded once from the carrier's json_names, so the entry is written
        with jsonout.dump only."""
        c = self.carrier
        name = c.json_names.__getitem__
        out = {
            "carrier": self.carrier_json(),
            "label": c.describe(),
            "randomizer": jsonout.Fragment(jsonout.joined_list(list(map(name, self.randomizer)))),
            "sets": jsonout.Fragment(jsonout.joined_lists([map(name, s) for s in self.sets])),
            "provenance": self.provenance,
            "trivial": self.trivial,
        }
        if c.kind == "field" and c.n > 1:
            out["h"] = c.render_h()
            out["g"] = c.render(c.g)
        return out

    def __repr__(self):
        return f"ConfusableStructure({self.key()}, sets={len(self.sets)})"


def field_confusable_sets(spec: FieldSpec, d: int) -> ConfusableStructure:
    """F_q under the d-th powers S* = {g^0, g^d, ...}, for d | q-1: the
    nonzero orbits collect the elements whose discrete logs agree mod d."""
    q = spec.q
    if d < 1 or (q - 1) % d != 0:
        raise NotADivisor(f"d = {d} does not divide q-1 = {q - 1}")
    b = (q - 1) // d
    return ConfusableStructure(
        spec,
        spec.exp_table[::d],
        provenance={"kind": "field", "d": d},
        trivial=(d == 1 or b == 1),
        verified=True,  # the d-th powers of the generator whose power walk FieldSpec accepted
    )


def ring_confusable_sets(ring: RingSpec, G, *, verified=False) -> ConfusableStructure:
    """Z_n under a unit subgroup G; a G that is not a subgroup of Z_n^x
    raises ValueError.  verified=True, for a G from enumerate_subgroups,
    skips that check."""
    G = sorted({int(g) for g in G})
    return ConfusableStructure(ring, G, provenance={"kind": "ring", "G": G}, trivial=(len(G) == 1),
                               verified=verified)


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

def check_carrier_bound(max_size: int, kinds) -> None:
    """Refuse, before any carrier is built, a size bound past MAX_Q when
    fields are asked for or past MAX_N when rings are."""
    for kind, cap in (("field", MAX_Q), ("ring", MAX_N)):
        if kind in kinds and max_size > cap:
            raise SizeBoundExceeded(f"carrier bound {max_size} exceeds the {kind} bound {cap}")


def carrier_structures(size: int, kinds=("field", "ring")):
    """The structures over the carriers of one size, in search order: F_size
    per divisor d of size - 1 ascending, then Z_size per subgroup of
    Z_size^x in canonical order.  Prime Z_p duplicates F_p and is left out
    when both kinds are asked for."""
    pp = prime_power(size)
    if "field" in kinds and pp is not None:
        spec = field_make(*pp)
        for d in range(1, size):
            if (size - 1) % d == 0:
                yield field_confusable_sets(spec, d)
    if "ring" in kinds and not ("field" in kinds and is_prime(size)):
        ring = RingSpec(size)
        for G in enumerate_subgroups(ring):
            yield ring_confusable_sets(ring, G, verified=True)  # cyclic extension yields only subgroups


def catalog_fields(max_q: int) -> list[ConfusableStructure]:
    """One structure per prime power q <= max_q and divisor d of q-1,
    including the trivial rows (d = 1, and the all-singleton d = q-1) that
    published tables leave out; those carry trivial=True so comparisons can
    filter."""
    check_carrier_bound(max_q, ("field",))
    return [st for q in range(2, max_q + 1) for st in carrier_structures(q, ("field",))]


def catalog_rings(max_n: int) -> list[ConfusableStructure]:
    """One structure per composite n <= max_n and subgroup of Z_n^x (prime
    n is already covered by the prime-field catalog)."""
    check_carrier_bound(max_n, ("ring",))
    return [st for n in range(4, max_n + 1) if not is_prime(n) for st in carrier_structures(n, ("ring",))]


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------

def _partition_key(randomizer, sets):
    return (frozenset(randomizer), frozenset(frozenset(s) for s in sets))


def load_reference(kind: str, path: str | None = None) -> dict:
    """The reference at path, or the bundled transcription for kind; a
    malformed one raises SchemaError."""
    if path is None:
        name = "field_catalog_reference.json" if kind == "field" else "ring_catalog_reference.json"
        fh = resources.files("confuse.data").joinpath(name).open("r")
    else:
        fh = open(path)
    with fh:
        reference = json.load(fh)
    _check_reference(reference)
    return reference


def _is_str_list(o) -> bool:
    return type(o) is list and all(type(x) is str for x in o)


def _check_reference(reference) -> None:
    """Raise SchemaError unless reference is an object with an int
    max_carrier and a list of rows, each an object with a str label, a list
    of str randomizer and a list of lists of str sets."""
    if not (type(reference) is dict and type(reference.get("max_carrier")) is int
            and type(reference.get("rows")) is list):
        raise SchemaError("a reference must be a JSON object with an int 'max_carrier' and a list 'rows'")
    for i, row in enumerate(reference["rows"]):
        if not (type(row) is dict and type(row.get("label")) is str
                and _is_str_list(row.get("randomizer"))
                and type(row.get("sets")) is list and all(map(_is_str_list, row["sets"]))):
            raise SchemaError(f"reference row {i} must be an object with a str 'label', "
                              "a list of str 'randomizer' and a list of lists of str 'sets'")


def diff_against_reference(structures: list[ConfusableStructure], reference: dict) -> list[str]:
    """Compare generated non-trivial rows against a hand-entered reference.

    Rows are compared as unordered partitions of rendered elements, scoped to
    carriers the reference covers.  Returns human-readable mismatch lines;
    empty means clean.  reference is as load_reference returns it.
    """
    ref_max = reference["max_carrier"]
    ref_rows = {}
    for row in reference["rows"]:
        label = row["label"]
        ref_rows.setdefault(label, set()).add(
            _partition_key(row["randomizer"], row["sets"])
        )
    gen_rows: dict[str, set] = {}
    for st in structures:
        if st.trivial or st.size > ref_max:
            continue
        gen_rows.setdefault(st.carrier.describe(), set()).add(
            _partition_key(st.rendered_randomizer(), st.rendered_sets())
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
