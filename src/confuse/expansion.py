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
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetTooLarge, SchemaError
from .rates import Rate
from .structures import ConfusableStructure, carrier_structures, check_carrier_bound


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

    @functools.cached_property
    def output_count(self) -> int:
        return 1 + max(v for row in self.outputs for v in row)

    @functools.cached_property
    def _plan(self) -> "_SearchPlan":
        """The table's half of every find_expansion over it, built on first use."""
        return _SearchPlan(self)

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
            "carrier": s.carrier_json(),
            "structure": s.provenance,
            "map1": list(self.map1),
            "map2": list(self.map2),
            "out_map": {str(k): v for k, v in sorted(self.out_map.items())},
        }


def find_expansion(f: FunctionTable, structure: ConfusableStructure):
    """Lexicographically-first feasible expansion over this structure, or None.

    A capacity test comes first and returns None with no search.  The cells
    of one row are distinct sums because map2 is injective, and so are the
    cells of one column; every cell with a given label lies in that label's
    set.  So a label needs a set with at least as many elements as its most
    cells in one row or one column, and out_map gives the labels distinct
    sets.  By Hall's condition such an assignment exists exactly when the
    structure has at least as many sets as the table has labels and the
    needs, largest first, are each at most the set size in the same place
    of structure.orbit_sizes.  The test rejects only structures without an
    embedding, so every hit is unchanged.  The table's half of the search
    (its label splits and needs) is built once per table and reused for
    every structure.

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

    Two cells hit the same set iff they carry the same label, so a map2
    value b can fill column j only if the rows placed so far split over b's
    cells the way they split over column j's labels.  The prefix cut keeps
    these splits as bitmasks over the carrier: eq(v, w) has bit b set when
    v + b and w + b lie in one confusable set, computed for all v at once
    from a cell table index[add] when w first becomes a map1 value.  The columns whose cells split rows 0..i
    like some label column's do are the mask of that split for rows
    0..i-1, ANDed with eq(map1[r], map1[i]) when row i joins the class
    first seen at row r, or with the complement of every class's eq when
    row i opens a new class.  A map1 prefix is dropped as soon as one of
    these masks has fewer bits than there are label columns that split
    that way.  At a full map1, the map2 search walks, in ascending order,
    the bits of column j's split mask ANDed with the unused elements and,
    for each of the column's labels already bound to a set, with the
    columns whose cell in that label's first row lands in that set.  A
    value whose new labels would claim a set bound to another label is
    skipped.  Every cut removes only subtrees without a feasible expansion,
    so the hit is unchanged.

    The search keeps its state on one _ExpansionSearch, whose methods
    recurse through the object, so a call forms no reference cycle: its
    cell tables and masks are freed by reference counting when it returns,
    without the cyclic garbage collector.
    """
    size = structure.size
    if f.m1 > size or f.m2 > size:
        raise AlphabetTooLarge(
            f"table is {f.m1}x{f.m2} but the carrier has only {size} elements"
        )
    plan = f._plan
    if plan.rules_out(structure):
        return None
    return _ExpansionSearch(plan, structure).run()


class _SearchPlan:
    """What a search needs from the table alone, built once per table: the
    label splits of the map1 prefix cut, each column's label classes, the
    rows that first show a class, and the labels' capacity needs."""

    def __init__(self, f: FunctionTable):
        self.m1, self.m2 = m1, m2 = f.m1, f.m2
        self.output_count = f.output_count
        label_cols = list(zip(*f.outputs))

        # splits[i]: each way the rows 0..i of a label column split into label
        # classes, as [parent, joined, opened, need].  parent indexes splits[i - 1];
        # row i joins the class first seen at row `joined`, or, when joined is
        # None, opens a new class apart from the classes first seen at rows
        # `opened`; need counts the label columns that split this way.
        splits: list[list] = [[[None, None, (), m2]]] + [[] for _ in range(1, m1)]
        leaf_split = []  # leaf_split[j]: index of column j's split in splits[-1]
        classes = []  # classes[j]: (label, first row) of each label class of column j
        for labels in label_cols:
            node, firsts = 0, {labels[0]: 0}
            for i in range(1, m1):
                if labels[i] in firsts:
                    key = [node, firsts[labels[i]], ()]
                else:
                    key = [node, None, tuple(firsts.values())]
                    firsts[labels[i]] = i
                level = splits[i]
                node = next((k for k, sp in enumerate(level) if sp[:3] == key), len(level))
                if node == len(level):
                    level.append(key + [0])
                level[node][3] += 1
            leaf_split.append(node)
            classes.append(tuple(firsts.items()))
        self.splits, self.leaf_split, self.classes = splits, leaf_split, classes
        self.first_rows = {r for level in splits for _, joined, opened, _ in level
                           for r in (joined,) + opened if r is not None}

        # needs: per label, the most cells it takes in one row or one column,
        # largest first
        need = [0] * self.output_count
        for line in f.outputs + tuple(label_cols):
            for label in set(line):
                need[label] = max(need[label], line.count(label))
        self.needs = sorted(need, reverse=True)

    def rules_out(self, structure: ConfusableStructure) -> bool:
        """The capacity test: True when the structure has fewer sets than
        the table has labels, or a need exceeds the set size in its place."""
        sizes = structure.orbit_sizes
        return len(sizes) < len(self.needs) or any(n > s for n, s in zip(self.needs, sizes))


class _ExpansionSearch:
    """One find_expansion call: the table's plan, the structure's cell
    tables, and the partial maps and set bindings of the backtracker."""

    def __init__(self, plan: _SearchPlan, structure: ConfusableStructure):
        self.structure = structure
        self.size = structure.size
        self.m1, self.m2 = m1, m2 = plan.m1, plan.m2
        self.splits, self.leaf_split = plan.splits, plan.leaf_split
        self.classes, self.first_rows = plan.classes, plan.first_rows
        self.cell = np.array(structure._index)[structure.carrier.add_table]
        self.cells = self.cell.tolist()

        self.eq_cache: dict = {}
        self.set_cache: dict = {}
        self.orbit_minima = [s[0] for s in structure.sets[1:]]
        self.map1 = [0] * m1
        self.map2 = [0] * m2
        self.eqs: list = [None] * m1  # eq(map1[r]) for each row r that first shows a class
        self.used1 = set()
        self.set_to_label = [None] * len(structure.sets)
        self.label_to_set = [None] * plan.output_count
        # at a full map1: per split of rows 0..m1-1, its mask; per row, its cells
        # and set_masks
        self.masks: list[int] = []
        self.leaf_cells: list = []
        self.leaf_sets: list = []

    def eq(self, w: int) -> list[int]:
        """eq(v, w) for every v, as int masks over the carrier columns."""
        row = self.eq_cache.get(w)
        if row is None:
            cell, size = self.cell, self.size
            packed = np.packbits(cell == cell[w], axis=1, bitorder="little")
            n, raw = packed.shape[1], packed.tobytes()
            row = self.eq_cache[w] = [
                int.from_bytes(raw[k:k + n], "little") for k in range(0, size * n, n)
            ]
        return row

    def set_masks(self, a: int) -> list[int]:
        """Per confusable set s, the mask of the columns b with a + b in s."""
        row = self.set_cache.get(a)
        if row is None:
            row = self.set_cache[a] = [0] * len(self.structure.sets)
            for b, idx in enumerate(self.cells[a]):
                row[idx] |= 1 << b
        return row

    def assign2(self, j: int, free: int) -> bool:
        """free: mask of the carrier elements map2 has not used."""
        if j == self.m2:
            return True
        set_to_label, label_to_set = self.set_to_label, self.label_to_set
        leaf_cells, leaf_sets = self.leaf_cells, self.leaf_sets
        mask = self.masks[self.leaf_split[j]] & free
        unbound = []
        for label, r in self.classes[j]:
            idx = label_to_set[label]
            if idx is None:
                unbound.append((label, leaf_cells[r]))
            else:
                mask &= leaf_sets[r][idx]
        while mask:
            low = mask & -mask
            mask ^= low
            v = low.bit_length() - 1
            added = []
            for label, row in unbound:
                idx = row[v]
                if set_to_label[idx] is not None:
                    break
                set_to_label[idx] = label
                label_to_set[label] = idx
                added.append(idx)
            else:
                self.map2[j] = v
                if self.assign2(j + 1, free ^ low):
                    return True
            for idx in added:
                label_to_set[set_to_label[idx]] = None
                set_to_label[idx] = None
        return False

    def assign1(self, i: int, prefix: list) -> bool:
        """prefix[k]: mask of the columns that split rows 0..i-1 like
        splits[i - 1][k]."""
        map1 = self.map1
        if i == self.m1:
            self.masks = prefix
            self.leaf_cells = [self.cells[a] for a in map1]
            self.leaf_sets = [self.set_masks(a) for a in map1]
            return self.assign2(0, (1 << self.size) - 1)
        level = self.splits[i]
        eqs, used1 = self.eqs, self.used1
        for v in self.orbit_minima if i == 1 else range(1, self.size):
            if v in used1:
                continue
            ext = []
            for parent, joined, opened, need in level:
                mask = prefix[parent]
                if joined is None:
                    for r in opened:
                        mask &= ~eqs[r][v]
                else:
                    mask &= eqs[joined][v]
                if mask.bit_count() < need:
                    break
                ext.append(mask)
            else:
                map1[i] = v
                if i in self.first_rows:
                    eqs[i] = self.eq(v)
                used1.add(v)
                if self.assign1(i + 1, ext):
                    return True
                used1.discard(v)
        return False

    def run(self) -> FeasibleExpansion | None:
        if 0 in self.first_rows:
            self.eqs[0] = self.eq(0)
        if not self.assign1(1, [(1 << self.size) - 1]):
            return None
        out_map = {idx: label for idx, label in enumerate(self.set_to_label) if label is not None}
        return FeasibleExpansion(self.structure, tuple(self.map1), tuple(self.map2), out_map)


def iter_carrier_structures(max_size: int, kinds=("field", "ring"), min_size: int = 2):
    """Structures in search order: carriers from min_size to max_size
    ascending by size, each size's in carrier_structures' order."""
    for size in range(max(min_size, 2), max_size + 1):
        yield from carrier_structures(size, kinds)


def search_expansions(
    f: FunctionTable,
    max_size: int,
    kinds=("field", "ring"),
    limit: int | None = None,
):
    """All (structure, expansion) hits up to the carrier-size bound, in
    deterministic search order, at most limit of them.  Empty list when
    nothing fits; a limit below 1 raises ValueError."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    check_carrier_bound(max_size, kinds)
    hits = []
    for structure in iter_carrier_structures(max_size, kinds, min_size=max(f.m1, f.m2)):
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


def converse_report(f: FunctionTable, scheme=None) -> ConverseReport:
    """No-security lower bound (log2 m1, log2 m2), asserted only when the
    table has no identical rows or columns.  With a scheme, achieved_bits are
    its two rates, and they are flagged optimal when they meet the bound."""
    rows = f.identical_rows()
    cols = f.identical_cols()
    converse = None
    if not rows and not cols:
        converse = (Rate.log2(f.m1), Rate.log2(f.m2))
    achieved = None
    optimal = None
    if scheme is not None:
        achieved = (scheme.rate1, scheme.rate2)
        if converse is not None:
            optimal = achieved == converse
    return ConverseReport(rows, cols, converse, achieved, optimal)
