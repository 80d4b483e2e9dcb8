"""Built-in function tables with their published carrier embeddings.

Each entry records a target table, the carrier/structure it embeds into, and
the specific injective relabelings used in the worked solutions, so tests and
demos can rebuild the exact schemes.  Names describe what the functions do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expansion import FeasibleExpansion, FunctionTable, equal_table
from .fields import field_make
from .rings import RingSpec
from .structures import ConfusableStructure, field_confusable_sets, ring_confusable_sets


@dataclass
class WorkedExample:
    name: str
    table: FunctionTable
    carrier_kind: str      # "field" | "ring"
    carrier_args: tuple    # (p, n) or (n,)
    structure_arg: int | tuple  # divisor d for fields, subgroup G for rings
    map1: tuple[int, ...]
    map2: tuple[int, ...]
    note: str = ""

    def structure(self) -> ConfusableStructure:
        if self.carrier_kind == "field":
            return field_confusable_sets(field_make(*self.carrier_args), self.structure_arg)
        return ring_confusable_sets(RingSpec(*self.carrier_args), self.structure_arg)

    def expansion(self) -> FeasibleExpansion:
        st = self.structure()
        add = st.carrier.add
        out_map = {}
        for i, a in enumerate(self.map1):
            for j, b in enumerate(self.map2):
                out_map[st.index_of(add(a, b))] = self.table.outputs[i][j]
        exp = FeasibleExpansion(st, self.map1, self.map2, out_map)
        exp.validate(self.table)
        return exp


GALLERY: dict[str, WorkedExample] = {}


def _register(ex: WorkedExample):
    GALLERY[ex.name] = ex
    return ex


_register(WorkedExample(
    name="equal3",
    table=equal_table(3),
    carrier_kind="field",
    carrier_args=(3, 1),
    structure_arg=1,
    map1=(0, 1, 2),
    map2=(0, 2, 1),
    note="ternary equality: difference over F_3, zero vs nonzero",
))

_register(WorkedExample(
    name="selected_switch",
    table=FunctionTable.from_rows([[0, 1, 2], [0, 0, 3]]),
    carrier_kind="ring",
    carrier_args=(6,),
    structure_arg=(1, 5),
    map1=(4, 2),
    map2=(0, 2, 5),
    note="switch off when W1 >= W2, else pass both inputs through",
))

_register(WorkedExample(
    name="four_label_2x3",
    table=FunctionTable.from_rows([[0, 1, 1], [0, 2, 3]]),
    carrier_kind="field",
    carrier_args=(7, 1),
    structure_arg=3,
    map1=(0, 3),
    map2=(2, 3, 4),
    note="2x3 table hitting all four confusable sets of F_7 at d=3",
))

_register(WorkedExample(
    name="three_label_2x2",
    table=FunctionTable.from_rows([[2, 2], [0, 1]]),
    carrier_kind="ring",
    carrier_args=(4,),
    structure_arg=(1, 3),
    map1=(1, 0),
    map2=(0, 2),
    note="the additive-noise support of this one shrinks to {0,2}",
))

_register(WorkedExample(
    name="and2",
    table=FunctionTable.from_rows([[0, 0], [0, 1]]),
    carrier_kind="field",
    carrier_args=(3, 1),
    structure_arg=1,
    map1=(0, 1),
    map2=(1, 2),
    note="binary AND over F_3",
))

_register(WorkedExample(
    name="threshold_2x3",
    table=FunctionTable.from_rows([[0, 0, 1], [0, 1, 1]]),
    carrier_kind="field",
    carrier_args=(7, 1),
    structure_arg=2,
    map1=(0, 3),
    map2=(1, 2, 3),
    note="1 iff W1 + W2 >= 2; the row-mask baseline beats the F_7 embedding",
))

_register(WorkedExample(
    name="row_reveal_2x3",
    table=FunctionTable.from_rows([[0, 0, 1], [2, 3, 4]]),
    carrier_kind="ring",
    carrier_args=(8,),
    structure_arg=(1, 3),
    map1=(1, 2),
    map2=(0, 2, 6),
    note="the output always reveals W1; a bespoke 2-bit/log2(3)-bit code exists",
))


def get(name: str) -> WorkedExample:
    return GALLERY[name]
