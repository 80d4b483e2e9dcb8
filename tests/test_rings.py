import gc
import hashlib
import json
import tracemalloc
from math import gcd

import pytest

from confuse.errors import SizeBoundExceeded
from confuse.rings import (
    MAX_N,
    RingSpec,
    closure_subgroups,
    enumerate_subgroups,
    project_subgroup,
    proper_divisors,
    units,
)
from confuse.structures import ring_confusable_sets

from oracles import bfs_subgroups

# sha256 over json.dumps([n, subgroups]) for n = 2, 3, ..., recorded from the
# breadth-first closure (bfs_subgroups) before cyclic extension replaced it
SUBGROUPS_DIGEST = "bd657f9eab6b914cf62a375f8d1eb3441feb90e3065d77a222c24a05beca048b"  # n <= 512, mul table
ADD_SUBGROUPS_DIGEST = "6057f78485be3320cf916159f2901f3028cfc9b23104c8ecc980560e4baacd18"  # n <= 64, add table


@pytest.mark.parametrize("n", range(2, 101))
def test_gcd_class_scaling_identity(n):
    # members with gcd d are exactly d times the units mod n/d
    classes = {}
    for a in range(1, n):
        classes.setdefault(gcd(a, n), []).append(a)
    classes = {d: tuple(members) for d, members in classes.items()}
    everything = [0]
    for d in proper_divisors(n):
        expected = tuple(sorted(d * u for u in units(n // d)))
        assert classes[d] == expected
        everything.extend(expected)
    assert sorted(everything) == list(range(n))


def test_enumerate_subgroups_values():
    subs15 = enumerate_subgroups(RingSpec(15))
    assert (1,) in subs15
    assert (1, 11) in subs15
    assert (1, 4, 11, 14) in subs15
    assert (1, 2, 4, 7, 8, 11, 13, 14) in subs15
    assert enumerate_subgroups(RingSpec(3)) == [(1,), (1, 2)]
    assert len(enumerate_subgroups(RingSpec(16))) == 8


def test_enumerate_subgroups_are_subgroups_and_ordered():
    for n in range(2, 40):
        subs = enumerate_subgroups(RingSpec(n))
        assert subs == sorted(subs, key=lambda t: (len(t), t))
        assert len(set(subs)) == len(subs)
        for H in subs:
            hs = set(H)
            assert 1 in hs
            for a in hs:
                assert gcd(a, n) == 1
                for b in hs:
                    assert (a * b) % n in hs


def test_enumerate_subgroups_match_pinned_digest():
    # catalogs build structures over these subgroups without checking them
    # again, so every one is checked here
    h = hashlib.sha256()
    for n in range(2, MAX_N + 1):
        ring = RingSpec(n)
        subgroups = enumerate_subgroups(ring)
        assert all(map(ring.is_unit_subgroup, subgroups)), n
        h.update(json.dumps([n, subgroups]).encode())
    assert h.hexdigest() == SUBGROUPS_DIGEST


def test_rings_leave_no_tables_behind():
    # a modulus's tables live only as long as its RingSpec: no module cache
    # keeps them once Z_n and its subgroups are dropped
    enumerate_subgroups(RingSpec(12))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(2, 257):
            enumerate_subgroups(RingSpec(n))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_additive_subgroups_match_pinned_digest():
    h = hashlib.sha256()
    for n in range(2, 65):
        h.update(json.dumps([n, closure_subgroups(RingSpec(n).add_table, 0, range(1, n))]).encode())
    assert h.hexdigest() == ADD_SUBGROUPS_DIGEST


@pytest.mark.parametrize("n", [*range(2, 65), 72, 96, 105, 120, 128])
def test_cyclic_extension_matches_bfs_oracle(n):
    ring = RingSpec(n)
    assert enumerate_subgroups(ring) == bfs_subgroups(ring.mul_table.tolist(), 1, units(n))
    if n <= 32:
        add = ring.add_table
        assert closure_subgroups(add, 0, range(1, n)) == bfs_subgroups(add.tolist(), 0, range(1, n))


def test_enumerate_subgroups_bound():
    with pytest.raises(SizeBoundExceeded):
        enumerate_subgroups(RingSpec(1000))


def test_ring_spec_validation():
    z15 = RingSpec(15)
    with pytest.raises(ValueError):
        ring_confusable_sets(z15, (1, 3))  # 3 not coprime with 15
    with pytest.raises(ValueError):
        ring_confusable_sets(z15, (1, 2))  # not closed: 4 missing
    assert ring_confusable_sets(z15, (11, 1)).randomizer == (1, 11)


def test_project_subgroup_worked_values():
    assert project_subgroup(15, (1, 11), 5).base_subgroup == (1,)
    assert project_subgroup(15, (1, 11), 5).multiplicity == 2
    assert project_subgroup(15, (1, 11), 3).base_subgroup == (1, 2)
    r = project_subgroup(15, (1, 4, 11, 14), 3)
    assert (r.base_subgroup, r.multiplicity) == ((1, 2), 2)
    r = project_subgroup(15, (1, 4, 11, 14), 5)
    assert (r.base_subgroup, r.multiplicity) == ((1, 4), 2)
    full = units(15)
    assert project_subgroup(15, full, 3).multiplicity == 4
    assert project_subgroup(15, full, 5).multiplicity == 2


def test_project_subgroup_requires_proper_divisor():
    with pytest.raises(ValueError):
        project_subgroup(15, (1, 11), 1)
    with pytest.raises(ValueError):
        project_subgroup(15, (1, 11), 4)


@pytest.mark.parametrize("n", range(2, 61))
def test_projection_sweep_small(n):
    # every subgroup, every divisor d > 1: uniform cover of a subgroup
    for G in enumerate_subgroups(RingSpec(n)):
        for d in range(2, n + 1):
            if n % d:
                continue
            rep = project_subgroup(n, G, d)
            assert rep.multiplicity * len(rep.base_subgroup) == len(G)


def test_ring_spec_size_bound():
    with pytest.raises(SizeBoundExceeded):
        RingSpec(513)
    assert RingSpec(512).size == 512
