import hashlib
import json
from unittest import mock

import pytest

from oracles import randomization_multiset_ok

from confuse.expansion import iter_carrier_structures
from confuse.fields import TableCarrier, field_make
from confuse.rings import RingSpec, enumerate_subgroups
from confuse.structures import (
    ConfusableStructure,
    catalog_fields,
    catalog_rings,
    diff_against_reference,
    field_confusable_sets,
    load_reference,
    ring_confusable_sets,
)


def test_ring_worked_partitions():
    st = ring_confusable_sets(RingSpec(15), (1, 11))
    assert st.sets == ((0,), (1, 11), (2, 7), (3,), (4, 14), (5, 10), (6,), (8, 13), (9,), (12,))
    assert st.randomizer == (1, 11)

    st = ring_confusable_sets(RingSpec(15), (1, 4, 11, 14))
    assert set(st.sets) == {(0,), (1, 4, 11, 14), (2, 7, 8, 13), (3, 12), (5, 10), (6, 9)}

    st = ring_confusable_sets(RingSpec(6), (1, 5))
    assert st.sets == ((0,), (1, 5), (2, 4), (3,))


def test_structure_index_of():
    st6 = ring_confusable_sets(RingSpec(6), (1, 5))
    assert st6.sets[st6.index_of(4)] == (2, 4)
    assert st6.index_of(0) == st6.zero_index == 0
    st7 = field_confusable_sets(field_make(7, 1), 2)
    assert st7.sets[st7.index_of(5)] == (3, 5, 6)


def test_structure_validation_rejects_bad_partitions():
    # S* must be a nonempty set of units closed under mul; a field's S* is
    # still checked when the caller supplies it
    f5 = field_make(5, 1)
    f16 = field_make(2, 4)
    z6 = RingSpec(6)
    z8 = RingSpec(8)
    cubes = sorted(f16.exp(3 * j) for j in range(5))
    assert ConfusableStructure(f16, cubes).randomizer == tuple(cubes)
    for carrier, sstar in [
        (f5, (1, 2)),  # 2 * 2 = 4 is missing
        (f5, (0, 1)),  # 0 is not a unit
        (f5, ()),
        (f16, (1, 2)),  # x * x = x^2 is missing
        (f16, cubes[:-1]),  # the cubes less one
        (z6, (1, 2)),  # 2 is not a unit of Z_6
        (z8, (1, 3, 5)),  # 3 * 5 = 7 is missing
    ]:
        with pytest.raises(ValueError):
            ConfusableStructure(carrier, sstar)


def test_unit_subgroup_check_runs_once_per_structure():
    # the structures of a carrier size are groups by construction (the d-th
    # powers of a field's generator, the subgroups enumerate_subgroups
    # produced), so none is checked; a randomizer the caller supplies is
    # checked once
    with mock.patch.object(TableCarrier, "is_unit_subgroup", autospec=True,
                           side_effect=TableCarrier.is_unit_subgroup) as check:
        structures = list(iter_carrier_structures(16))
        assert check.call_count == 0
        rings = [st for st in structures if st.carrier.kind == "ring"]
        assert 0 < len(rings) < len(structures)
        for st in rings:
            ring_confusable_sets(st.carrier, st.randomizer)
        assert check.call_count == len(rings)
        with pytest.raises(ValueError):
            ring_confusable_sets(RingSpec(8), (1, 3, 5))
        with pytest.raises(ValueError):
            ConfusableStructure(RingSpec(8), (1, 3, 5))
        assert check.call_count == len(rings) + 2


def _structure_digest(structures) -> str:
    h = hashlib.sha256()
    for st in structures:
        row = (
            st.carrier.describe(),
            st.randomizer,
            st.sets,
            tuple(st.index_of(a) for a in st.carrier.elements()),
            st.trivial,
            json.dumps(st.provenance, sort_keys=True),
            st.key(),
        )
        h.update(repr(row).encode())
    return h.hexdigest()


def test_structures_match_pinned_digest():
    # recorded from the discrete-log and projected-coset constructions that
    # the S*-orbit pass replaced; 2,835 structures in all
    structures = catalog_fields(256) + catalog_rings(128) + list(iter_carrier_structures(64))
    assert len(structures) == 2835
    assert _structure_digest(structures) == (
        "bfdea699d0fa37721f88e51cb6b70642ea1190995d027b944b2452089fbdcc80"
    )


def test_catalog_fields_rows():
    structures = catalog_fields(5)
    keyed = {(st.carrier.describe(), st.provenance["d"]): st for st in structures}
    f5 = keyed[("F_5", 2)]
    assert f5.sets == ((0,), (1, 4), (2, 3))
    assert f5.randomizer == (1, 4)
    assert keyed[("F_5", 1)].trivial and keyed[("F_5", 4)].trivial
    # trivial d=1 row has just {0} and everything else
    assert keyed[("F_4", 1)].sets == ((0,), (1, 2, 3))

    f13 = {st.provenance["d"]: st for st in catalog_fields(13) if st.carrier.describe() == "F_13"}
    assert f13[3].sets == ((0,), (1, 5, 8, 12), (2, 3, 10, 11), (4, 6, 7, 9))


def test_catalog_rings_rows():
    structures = catalog_rings(9)
    by_key = {(st.carrier.n, st.randomizer): st for st in structures}
    assert by_key[(8, (1, 5))].sets == ((0,), (1, 5), (2,), (3, 7), (4,), (6,))
    assert by_key[(4, (1, 3))].sets == ((0,), (1, 3), (2,))
    assert by_key[(9, (1, 4, 7))].sets == ((0,), (1, 4, 7), (2, 5, 8), (3,), (6,))
    # primes excluded, subgroup {1} rows flagged trivial
    assert all(st.carrier.n in (4, 6, 8, 9) for st in structures)
    assert all(st.trivial == (len(st.randomizer) == 1) for st in structures)


def test_catalog_reference_diff_clean():
    assert diff_against_reference(catalog_fields(20), load_reference("field")) == []
    assert diff_against_reference(catalog_rings(20), load_reference("ring")) == []


def test_catalog_reference_diff_detects_mutations():
    ref = load_reference("ring")
    structures = catalog_rings(20)
    mutated = {
        "max_carrier": ref["max_carrier"],
        "rows": [dict(r) for r in ref["rows"]],
    }
    mutated["rows"][0] = dict(mutated["rows"][0], sets=[["0"], ["1"], ["2"], ["3"]])
    problems = diff_against_reference(structures, mutated)
    assert problems and any("Z_4" in p for p in problems)


def test_every_cataloged_structure_randomizes_exactly():
    for st in catalog_fields(64) + catalog_rings(20):
        assert randomization_multiset_ok(st.carrier, st.randomizer, st.sets)


@pytest.mark.parametrize("n", range(2, 101))
def test_ring_partition_and_randomization_to_100(n):
    # exact multiset check on every subgroup of every modulus up to 100
    ring = RingSpec(n)
    for G in enumerate_subgroups(ring):
        st = ring_confusable_sets(ring, G)
        assert sorted(a for s in st.sets for a in s) == list(range(n))
        assert randomization_multiset_ok(st.carrier, st.randomizer, st.sets)


def test_field_structure_matches_ring_structure_for_primes():
    # Z_p with a unit subgroup of size b gives the same partition as F_p with
    # the matching divisor d = (p-1)/b
    for p in (5, 7, 11, 13):
        fs = field_make(p, 1)
        ring = RingSpec(p)
        for G in enumerate_subgroups(ring):
            d = (p - 1) // len(G)
            ring_sets = set(ring_confusable_sets(ring, G).sets)
            field_sets = set(field_confusable_sets(fs, d).sets)
            assert ring_sets == field_sets
