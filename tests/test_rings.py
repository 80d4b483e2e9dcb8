import hashlib
import json
from math import gcd

import pytest

from confuse.errors import SizeBoundExceeded
from confuse.rings import (
    MAX_N,
    RingSpec,
    _ring_tables,
    closure_subgroups,
    enumerate_subgroups,
    project_subgroup,
    proper_divisors,
    units,
)

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
    subs15 = enumerate_subgroups(15)
    assert (1,) in subs15
    assert (1, 11) in subs15
    assert (1, 4, 11, 14) in subs15
    assert (1, 2, 4, 7, 8, 11, 13, 14) in subs15
    assert enumerate_subgroups(3) == [(1,), (1, 2)]
    assert len(enumerate_subgroups(16)) == 8


def test_enumerate_subgroups_are_subgroups_and_ordered():
    for n in range(2, 40):
        subs = enumerate_subgroups(n)
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
    h = hashlib.sha256()
    for n in range(2, MAX_N + 1):
        h.update(json.dumps([n, enumerate_subgroups(n)]).encode())
        _ring_tables.cache_clear()  # kept, the tables of every n would hold about 200 MiB
    assert h.hexdigest() == SUBGROUPS_DIGEST


def test_additive_subgroups_match_pinned_digest():
    h = hashlib.sha256()
    for n in range(2, 65):
        h.update(json.dumps([n, closure_subgroups(_ring_tables(n)[0], 0, range(1, n))]).encode())
    assert h.hexdigest() == ADD_SUBGROUPS_DIGEST


@pytest.mark.parametrize("n", [*range(2, 65), 72, 96, 105, 120, 128])
def test_cyclic_extension_matches_bfs_oracle(n):
    add, _, mul = _ring_tables(n)
    assert enumerate_subgroups(n) == bfs_subgroups(mul, 1, units(n))
    if n <= 32:
        assert closure_subgroups(add, 0, range(1, n)) == bfs_subgroups(add, 0, range(1, n))


def test_enumerate_subgroups_bound():
    with pytest.raises(SizeBoundExceeded):
        enumerate_subgroups(1000)


def test_ring_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(15, (1, 3))  # 3 not coprime with 15
    with pytest.raises(ValueError):
        RingSpec(15, (1, 2))  # not closed: 4 missing
    spec = RingSpec(15, (11, 1))
    assert spec.G == (1, 11)


def test_project_subgroup_worked_values():
    assert project_subgroup(RingSpec(15, (1, 11)), 5).base_subgroup == (1,)
    assert project_subgroup(RingSpec(15, (1, 11)), 5).multiplicity == 2
    assert project_subgroup(RingSpec(15, (1, 11)), 3).base_subgroup == (1, 2)
    r = project_subgroup(RingSpec(15, (1, 4, 11, 14)), 3)
    assert (r.base_subgroup, r.multiplicity) == ((1, 2), 2)
    r = project_subgroup(RingSpec(15, (1, 4, 11, 14)), 5)
    assert (r.base_subgroup, r.multiplicity) == ((1, 4), 2)
    full = RingSpec(15, tuple(units(15)))
    assert project_subgroup(full, 3).multiplicity == 4
    assert project_subgroup(full, 5).multiplicity == 2


def test_project_subgroup_requires_proper_divisor():
    with pytest.raises(ValueError):
        project_subgroup(RingSpec(15, (1, 11)), 1)
    with pytest.raises(ValueError):
        project_subgroup(RingSpec(15, (1, 11)), 4)


@pytest.mark.parametrize("n", range(2, 61))
def test_projection_sweep_small(n):
    # every subgroup, every divisor d > 1: uniform cover of a subgroup
    for G in enumerate_subgroups(n):
        spec = RingSpec(n, G)
        for d in range(2, n + 1):
            if n % d:
                continue
            rep = project_subgroup(spec, d)
            assert rep.multiplicity * len(rep.base_subgroup) == len(G)


def test_ring_spec_size_bound():
    with pytest.raises(SizeBoundExceeded):
        RingSpec(513, (1,))
    assert RingSpec(512, (1,)).size == 512
