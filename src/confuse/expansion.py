"""Function tables and the search for feasible expanded functions.

A feasible expansion embeds an m1 x m2 function table into addition over a
carrier: injective relabelings map1/map2 of the two inputs plus a bijection
between the confusable-set indices that the cell sums hit and the table's
output labels.  The search is a deterministic backtracker; brute-force
enumeration over all injective map pairs is kept in the test suite as the
independent oracle.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .errors import AlphabetTooLarge, SchemaError
from .fields import field_make, is_prime, prime_power
from .rates import Rate
from .rings import RingSpec, enumerate_subgroups
from .structures import (
    ConfusableStructure,
    check_carrier_bound,
    field_confusable_sets,
    ring_confusable_sets,
)


@dataclass(frozen=True)
class FunctionTable:
    """Target f(W1, W2) as a dense matrix of output labels 0..k-1."""

    m1: int
    m2: int
    outputs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("dimensions must be positive")
        if len(self.outputs) != self.m1 or any(len(r) != self.m2 for r in self.outputs):
            raise ValueError("outputs shape must be m1 x m2")
        used = {v for row in self.outputs for v in row}
        if used != set(range(len(used))):
            raise ValueError(f"labels must be 0..k-1 with every label used, got {sorted(used)}")

    @property
    def output_count(self) -> int:
        return 1 + max(v for row in self.outputs for v in row)

    @classmethod
    def from_rows(cls, rows) -> "FunctionTable":
        """The table of a nonempty list of equally long, nonempty rows of
        integer labels; any other outputs matrix raises SchemaError."""
        if not isinstance(rows, (list, tuple)) or not rows:
            raise SchemaError("outputs must be a nonempty list of rows")
        if not all(isinstance(r, (list, tuple)) for r in rows):
            raise SchemaError("every row of outputs must be a list")
        if not rows[0] or any(len(r) != len(rows[0]) for r in rows):
            raise SchemaError("the rows of outputs must be nonempty and equally long")
        if not all(type(v) is int for r in rows for v in r):
            raise SchemaError("every entry of outputs must be an integer label")
        rows = tuple(map(tuple, rows))
        return cls(len(rows), len(rows[0]), rows)

    def to_json(self) -> dict:
        return {"m1": self.m1, "m2": self.m2, "outputs": [list(r) for r in self.outputs]}

    @classmethod
    def from_json(cls, obj: dict) -> "FunctionTable":
        t = cls.from_rows(obj["outputs"])
        if t.m1 != obj.get("m1", t.m1) or t.m2 != obj.get("m2", t.m2):
            raise ValueError("declared dimensions disagree with the outputs matrix")
        return t

    def identical_rows(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.m1)
            for j in range(i + 1, self.m1)
            if self.outputs[i] == self.outputs[j]
        ]

    def identical_cols(self) -> list[tuple[int, int]]:
        cols = list(zip(*self.outputs))
        return [
            (i, j)
            for i in range(self.m2)
            for j in range(i + 1, self.m2)
            if cols[i] == cols[j]
        ]


def equal_table(m: int) -> FunctionTable:
    """Equality test on {0..m-1}: label 1 when the inputs match, else 0."""
    return FunctionTable.from_rows(
        [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    )


@dataclass
class FeasibleExpansion:
    """Invertible relabelings plus the set-index <-> label bijection."""

    structure: ConfusableStructure
    map1: tuple[int, ...]
    map2: tuple[int, ...]
    out_map: dict[int, int]  # confusable-set index -> output label

    def table(self) -> FunctionTable:
        add = self.structure.carrier.add
        rows = [
            [self.out_map[self.structure.index_of(add(a, b))] for b in self.map2]
            for a in self.map1
        ]
        return FunctionTable.from_rows(rows)

    def validate(self, f: FunctionTable) -> None:
        """Cell-by-cell re-check, independent of the search's bookkeeping."""
        if len(set(self.map1)) != len(self.map1) or len(set(self.map2)) != len(self.map2):
            raise ValueError("maps must be injective")
        if len(self.map1) != f.m1 or len(self.map2) != f.m2:
            raise ValueError("map lengths must match the table")
        inv = {}
        for idx, label in self.out_map.items():
            if label in inv:
                raise ValueError("out_map is not invertible")
            inv[label] = idx
        add = self.structure.carrier.add
        hit = set()
        for i, a in enumerate(self.map1):
            for j, b in enumerate(self.map2):
                idx = self.structure.index_of(add(a, b))
                hit.add(idx)
                if self.out_map.get(idx) != f.outputs[i][j]:
                    raise ValueError(
                        f"cell ({i},{j}) lands in set {idx} which maps to "
                        f"{self.out_map.get(idx)}, table says {f.outputs[i][j]}"
                    )
        if hit != set(self.out_map):
            raise ValueError("out_map domain must be exactly the set indices hit")

    def to_json(self) -> dict:
        s = self.structure
        return {
            "carrier": s.carrier.to_json() | {"kind": s.carrier.kind},
            "structure": s.provenance,
            "map1": list(self.map1),
            "map2": list(self.map2),
            "out_map": {str(k): v for k, v in sorted(self.out_map.items())},
        }


def _shape(seq) -> tuple[int, ...]:
    """Relabel a sequence by first occurrence: (7, 2, 7, 5) -> (0, 1, 0, 2)."""
    seen: dict = {}
    return tuple(seen.setdefault(x, len(seen)) for x in seq)


def find_expansion(f: FunctionTable, structure: ConfusableStructure):
    """Lexicographically-first feasible expansion over this structure, or None.

    map1 values are assigned in row order, then map2 in column order; carrier
    elements are tried in ascending encoding, so the first hit is the
    lexicographically-first (map1, map2).  Two symmetries of every structure
    cut the map1 search without changing that hit:

    - translation: (map1 + c, map2 - c) has the same cell sums, hence the
      same out_map, so the first hit has map1[0] = 0;
    - scaling: each gamma in S* is a unit that fixes 0 and maps every
      confusable set onto itself, so (gamma*map1, gamma*map2) is feasible
      with the same out_map, and the first hit's map1[1] is the least
      element of its S*-orbit.

    Cell set indices come from a cell[a][b] table built once per call.  Two
    cells hit the same set iff they carry the same label, so a map2 value can
    fill column j only if its cells split the rows the way column j's labels
    do.  A map1 prefix is dropped as soon as, for some split of the rows
    placed so far, fewer map2 values produce it than there are columns whose
    labels need it.  Across columns, the partial out_map prunes as soon as
    two labels claim one set or one label claims two sets.  Every cut removes
    only subtrees without a feasible expansion, so the hit is unchanged.
    """
    size = structure.size
    if f.m1 > size or f.m2 > size:
        raise AlphabetTooLarge(
            f"table is {f.m1}x{f.m2} but the carrier has only {size} elements"
        )
    add = structure.carrier.add
    index_of = structure._index
    cell = [[index_of[add(a, b)] for b in range(size)] for a in range(size)]
    m1, m2 = f.m1, f.m2
    label_cols = [tuple(row[j] for row in f.outputs) for j in range(m2)]
    label_shapes = [_shape(c) for c in label_cols]
    orbit_minima = [s[0] for s in structure.sets[1:]]
    map1 = [0] * m1
    map2 = [0] * m2
    used1 = set()
    used2 = set()
    set_to_label = [None] * len(structure.sets)
    label_to_set = [None] * f.output_count
    # per column j: (v, distinct (set index, label) pairs of the column's cells)
    candidates: list[list] = []

    def assign2(j: int) -> bool:
        if j == m2:
            return True
        for v, pairs in candidates[j]:
            if v in used2:
                continue
            added = []
            for idx, label in pairs:
                bound = set_to_label[idx]
                if bound is None:
                    if label_to_set[label] is not None:
                        break
                    set_to_label[idx] = label
                    label_to_set[label] = idx
                    added.append(idx)
                elif bound != label:
                    break
            else:
                map2[j] = v
                used2.add(v)
                if assign2(j + 1):
                    return True
                used2.discard(v)
            for idx in added:
                label_to_set[set_to_label[idx]] = None
                set_to_label[idx] = None
        return False

    shape_of = functools.cache(_shape)  # columns repeat across map1 prefixes

    # label shapes of each column restricted to rows 0..i, with multiplicity:
    # columns that share a shape need that many distinct map2 values
    prefix_need = [
        Counter(sh[: i + 1] for sh in label_shapes) for i in range(m1)
    ]

    def assign1(i: int, prefix: list) -> bool:
        """prefix[v]: set indices of column v's cells in rows 0..i-1."""
        if i == m1:
            by_shape: dict = {}
            for v, col in enumerate(prefix):
                by_shape.setdefault(shape_of(col), []).append((v, col))
            candidates[:] = [
                [(v, tuple(dict.fromkeys(zip(col, labels)))) for v, col in by_shape.get(shape, ())]
                for labels, shape in zip(label_cols, label_shapes)
            ]
            return assign2(0)
        need = prefix_need[i]
        for v in orbit_minima if i == 1 else range(1, size):
            if v in used1:
                continue
            row = cell[v]
            ext = [col + (row[b],) for b, col in enumerate(prefix)]
            have = Counter(shape_of(col) for col in ext)
            if any(have[sh] < k for sh, k in need.items()):
                continue
            map1[i] = v
            used1.add(v)
            if assign1(i + 1, ext):
                return True
            used1.discard(v)
        return False

    if assign1(1, [(c,) for c in cell[0]]):
        out_map = {idx: label for idx, label in enumerate(set_to_label) if label is not None}
        return FeasibleExpansion(structure, tuple(map1), tuple(map2), out_map)
    return None


def iter_carrier_structures(max_size: int, kinds=("field", "ring")):
    """Structures in search order: carriers ascending by size, fields before
    rings at equal size; per carrier, divisors ascending / subgroups in
    canonical order.  Prime Z_p duplicates F_p and is skipped when both kinds
    are requested."""
    for size in range(2, max_size + 1):
        pp = prime_power(size)
        if "field" in kinds and pp is not None:
            spec = field_make(*pp)
            for d in sorted(x for x in range(1, size) if (size - 1) % x == 0):
                yield field_confusable_sets(spec, d)
        if "ring" in kinds:
            if "field" in kinds and is_prime(size):
                continue
            for G in enumerate_subgroups(size):
                yield ring_confusable_sets(RingSpec(size, G))


def search_expansions(
    f: FunctionTable,
    max_size: int,
    kinds=("field", "ring"),
    limit: int | None = None,
):
    """All (structure, expansion) hits up to the carrier-size bound, in
    deterministic search order.  Empty list when nothing fits."""
    check_carrier_bound(max_size, kinds)
    hits = []
    for structure in iter_carrier_structures(max_size, kinds):
        if f.m1 > structure.size or f.m2 > structure.size:
            continue
        exp = find_expansion(f, structure)
        if exp is not None:
            hits.append((structure, exp))
            if limit is not None and len(hits) >= limit:
                break
    return hits


@dataclass
class ConverseReport:
    identical_rows: list[tuple[int, int]]
    identical_cols: list[tuple[int, int]]
    converse_bits: tuple[Rate, Rate] | None
    achieved_bits: tuple[Rate, Rate] | None
    optimal: bool | None


def converse_report(f: FunctionTable, expansion: FeasibleExpansion | None = None) -> ConverseReport:
    """No-security lower bound (log2 m1, log2 m2), asserted only when the
    table has no identical rows or columns; with an expansion over a carrier
    of size m1 = m2, the achieved rates are flagged optimal."""
    rows = f.identical_rows()
    cols = f.identical_cols()
    converse = None
    if not rows and not cols:
        converse = (Rate.log2(f.m1), Rate.log2(f.m2))
    achieved = None
    optimal = None
    if expansion is not None:
        q = expansion.structure.size
        achieved = (Rate.log2(q), Rate.log2(q))
        if converse is not None:
            optimal = q == f.m1 == f.m2
    return ConverseReport(rows, cols, converse, achieved, optimal)
