import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_tables,
    brute_force_expansion_exists,
    brute_force_first_expansion,
    canonical_cell_partition,
    feasible_partitions,
)

from confuse import expansion
from confuse.errors import AlphabetTooLarge
from confuse.expansion import (
    FeasibleExpansion,
    FunctionTable,
    converse_report,
    equal_table,
    find_expansion,
    iter_carrier_structures,
    search_expansions,
)
from confuse.fields import field_make
from confuse.gallery import GALLERY
from confuse.rates import Rate
from confuse.rings import RingSpec
from confuse.schemes import optimize_additive_randomness, scheme_from_expansion
from confuse.structures import field_confusable_sets, ring_confusable_sets


def test_function_table_validation():
    with pytest.raises(ValueError):
        FunctionTable.from_rows([[0, 2], [0, 2]])  # label 1 unused
    with pytest.raises(ValueError):
        FunctionTable(2, 3, ((0, 1), (1, 0)))  # shape mismatch
    t = FunctionTable.from_rows([[0, 1], [1, 0]])
    assert t.output_count == 2
    assert FunctionTable.from_json(t.to_json()) == t


def test_identical_rows_cols():
    t = FunctionTable.from_rows([[0, 1], [0, 1]])
    assert t.identical_rows() == [(0, 1)]
    assert t.identical_cols() == []
    cols = FunctionTable.from_rows([[0, 0, 1], [1, 1, 0]])
    assert cols.identical_cols() == [(0, 1)]


def test_equal3_expansion_is_identity_and_negation():
    st3 = field_confusable_sets(field_make(3, 1), 1)
    exp = find_expansion(equal_table(3), st3)
    assert exp.map1 == (0, 1, 2)
    assert exp.map2 == (0, 2, 1)
    assert exp.out_map == {0: 1, 1: 0}
    exp.validate(equal_table(3))


def test_equal3_not_found_over_singletons():
    # with one-element confusable sets, the two No-cells in a row would need
    # the same singleton, clashing with map2 injectivity
    st_singletons = field_confusable_sets(field_make(3, 1), 2)
    assert find_expansion(equal_table(3), st_singletons) is None
    assert not brute_force_expansion_exists(equal_table(3), st_singletons)


def test_selected_switch_expansion():
    t = FunctionTable.from_rows([[0, 1, 2], [0, 0, 3]])
    st6 = ring_confusable_sets(RingSpec(6), (1, 5))
    exp = find_expansion(t, st6)
    assert exp is not None
    exp.validate(t)
    # the published relabeling is also feasible over the same structure
    paper = FeasibleExpansion(
        st6, (4, 2), (0, 2, 5),
        {st6.index_of(4): 0, st6.index_of(0): 1, st6.index_of(3): 2, st6.index_of(1): 3},
    )
    paper.validate(t)


def test_alphabet_too_large():
    st3 = field_confusable_sets(field_make(3, 1), 1)
    with pytest.raises(AlphabetTooLarge):
        find_expansion(equal_table(4), st3)


def test_search_order_and_first_hits():
    and2 = FunctionTable.from_rows([[0, 0], [0, 1]])
    hits = search_expansions(and2, 8, limit=1)
    structure, exp = hits[0]
    assert structure.carrier.describe() == "F_3"
    assert structure.provenance == {"kind": "field", "d": 1}
    assert exp.map1 == (0, 1) and exp.map2 == (1, 2)

    t5 = FunctionTable.from_rows([[2, 2], [0, 1]])
    structure5, _ = search_expansions(t5, 8, limit=1)[0]
    assert structure5.carrier.describe() == "Z_4"
    assert structure5.randomizer == (1, 3)

    const = FunctionTable.from_rows([[0]])
    smallest, exp_c = search_expansions(const, 8, limit=1)[0]
    assert smallest.size == 2
    exp_c.validate(const)


def test_search_returns_all_hits_in_order():
    hits = search_expansions(equal_table(3), 7)
    sizes = [s.size for s, _ in hits]
    assert sizes == sorted(sizes)
    assert sizes[0] == 3
    for s, e in hits:
        e.validate(equal_table(3))


@pytest.mark.parametrize("limit", [0, -2])
def test_search_refuses_a_limit_below_one_before_building_structures(monkeypatch, limit):
    def no_build(*args, **kwargs):
        raise AssertionError("a structure was built")

    monkeypatch.setattr(expansion, "iter_carrier_structures", no_build)
    with pytest.raises(ValueError, match="limit must be at least 1"):
        search_expansions(equal_table(3), 16, limit=limit)


def test_search_determinism():
    t = FunctionTable.from_rows([[0, 1, 1], [0, 2, 3]])
    a = search_expansions(t, 8)
    b = search_expansions(t, 8)
    assert [(s.key(), e.map1, e.map2, tuple(sorted(e.out_map.items()))) for s, e in a] == \
           [(s.key(), e.map1, e.map2, tuple(sorted(e.out_map.items()))) for s, e in b]


def test_iter_carrier_structures_dedupes_primes():
    keys = [s.key() for s in iter_carrier_structures(7)]
    assert "F_3 d=1" in keys
    assert not any(k.startswith("Z_3 ") for k in keys)
    ring_only = [s.key() for s in iter_carrier_structures(5, kinds=("ring",))]
    assert any(k.startswith("Z_5 ") for k in ring_only)


def test_backtracker_returns_lexicographically_first_maps():
    # oracle: scan injective map pairs in lex order of map1 + map2 and take
    # the first consistent one; the backtracker must return exactly that
    cases = [
        (equal_table(3), field_confusable_sets(field_make(3, 1), 1)),
        (FunctionTable.from_rows([[0, 1, 2], [0, 0, 3]]), ring_confusable_sets(RingSpec(6), (1, 5))),
        (FunctionTable.from_rows([[2, 2], [0, 1]]), ring_confusable_sets(RingSpec(4), (1, 3))),
        (FunctionTable.from_rows([[0, 0], [0, 1]]), field_confusable_sets(field_make(5, 1), 2)),
    ]
    for f, structure in cases:
        add = structure.carrier.add
        first = None
        for map1 in itertools.permutations(range(structure.size), f.m1):
            if first:
                break
            for map2 in itertools.permutations(range(structure.size), f.m2):
                s2l, l2s = {}, {}
                ok = True
                for i, a in enumerate(map1):
                    for j, b in enumerate(map2):
                        idx = structure.index_of(add(a, b))
                        lab = f.outputs[i][j]
                        if s2l.get(idx, lab) != lab or l2s.get(lab, idx) != idx:
                            ok = False
                            break
                        s2l[idx], l2s[lab] = lab, idx
                    if not ok:
                        break
                if ok:
                    first = (map1, map2)
                    break
        exp = find_expansion(f, structure)
        if first is None:
            assert exp is None
        else:
            assert (exp.map1, exp.map2) == first


def test_find_expansion_matches_lex_first_oracle_grid():
    # the symmetry cuts and prefix pruning must not change which embedding is
    # returned: every structure up to carrier 7, every table up to 2x3 / 3x2
    # with at most 3 labels
    shapes = [(m1, m2) for m1 in range(1, 4) for m2 in range(1, 4) if m1 * m2 <= 6]
    checked = found = 0
    for structure in iter_carrier_structures(7):
        for m1, m2 in shapes:
            if max(m1, m2) > structure.size:
                continue
            for rows in all_tables(m1, m2, 3):
                f = FunctionTable.from_rows(rows)
                want = brute_force_first_expansion(f, structure)
                exp = find_expansion(f, structure)
                got = None if exp is None else (exp.map1, exp.map2, exp.out_map)
                assert got == want, (structure.key(), rows)
                checked += 1
                found += got is not None
    assert found > 0 and checked - found > 0


def test_find_expansion_matches_lex_first_oracle_deeper_tables():
    # a seeded sample of 4x2, 2x4 and 3x3 tables with up to 4 labels: rows
    # past the third reach the prefix cut's per-class bookkeeping, which the
    # grid above never does
    rng = random.Random(7)

    def draw(m1, m2):
        k = rng.randint(1, 4)
        while True:
            rows = [[rng.randrange(k) for _ in range(m2)] for _ in range(m1)]
            if {v for r in rows for v in r} == set(range(k)):
                return FunctionTable.from_rows(rows)

    tables = [draw(m1, m2) for m1, m2 in ((4, 2), (2, 4), (3, 3)) for _ in range(40)]
    checked = found = 0
    for structure in iter_carrier_structures(7):
        for f in tables:
            if max(f.m1, f.m2) > structure.size:
                continue
            want = brute_force_first_expansion(f, structure)
            exp = find_expansion(f, structure)
            got = None if exp is None else (exp.map1, exp.map2, exp.out_map)
            assert got == want, (structure.key(), f.outputs)
            checked += 1
            found += got is not None
    assert found > 0 and checked - found > 0


def test_from_json_rejects_mismatched_dimensions():
    with pytest.raises(ValueError):
        FunctionTable.from_json({"m1": 3, "m2": 2, "outputs": [[0, 1], [1, 0]]})


def test_backtracker_agrees_with_brute_force_small():
    # all 2x2 tables with up to 3 labels over every carrier of size <= 5
    structures = list(iter_carrier_structures(5))
    tables = []
    for cells in itertools.product(range(3), repeat=4):
        used = set(cells)
        if used != set(range(len(used))):
            continue
        tables.append(FunctionTable.from_rows([cells[:2], cells[2:]]))
    for structure in structures:
        for t in tables:
            found = find_expansion(t, structure)
            assert (found is not None) == brute_force_expansion_exists(t, structure)
            if found is not None:
                found.validate(t)


def test_capacity_test_rules_out_only_structures_without_an_embedding():
    # carriers 8 to 13, fields and rings: every 2x2, 2x3, 2x4 and 3x3 table
    # with at most 3 labels up to relabeling, plus the gallery tables.
    # Wherever the capacity test rules a structure out, the brute-force
    # oracle finds no embedding.  Budget, set before the first run: 20 s.
    start = time.perf_counter()
    groups = {}
    for m1, m2 in ((2, 2), (2, 3), (2, 4), (3, 3)):
        groups[m1, m2] = [
            FunctionTable.from_rows(rows)
            for rows in all_tables(m1, m2, 3)
            if canonical_cell_partition(sum(rows, ())) == sum(rows, ())
        ]
    for ex in GALLERY.values():
        groups[ex.table.m1, ex.table.m2].append(ex.table)
    ruled_out = {"field": 0, "ring": 0}
    small = []
    for structure in iter_carrier_structures(13, min_size=8):
        for (m1, m2), tables in groups.items():
            out = [f for f in tables if f._plan.rules_out(structure)]
            if not out:
                continue
            feasible = feasible_partitions(structure, m1, m2, map1_from_zero=True)
            for f in out:
                cells = canonical_cell_partition(sum(f.outputs, ()))
                assert cells not in feasible, (structure.key(), f.outputs)
                assert find_expansion(f, structure) is None
            ruled_out[structure.carrier.kind] += len(out)
            if structure.size <= 9 and m1 * m2 <= 6:
                small.extend((f, structure) for f in out)
    assert min(ruled_out.values()) > 1000
    # a seeded sample through the other oracle, on the tables as written and
    # with no translation argument
    for f, structure in random.Random(27).sample(small, 12):
        assert not brute_force_expansion_exists(f, structure), (structure.key(), f.outputs)
    assert time.perf_counter() - start < 20


# the nine tables of the solve bench
SOLVE_BENCH_TABLES = {
    "s00-2x2k2": [[0, 1], [1, 1]],
    "s01-2x2k3": [[2, 1], [1, 0]],
    "s02-2x3k2": [[1, 0, 1], [0, 0, 1]],
    "s03-2x3k3": [[0, 1, 2], [1, 1, 1]],
    "s04-3x2k2": [[1, 1], [1, 1], [1, 0]],
    "s05-3x3k3": [[1, 1, 1], [2, 0, 1], [1, 1, 2]],
    "s06-2x4k3": [[0, 1, 1, 0], [1, 2, 2, 1]],
    "s07-2x5k2": [[1, 0, 1, 1, 1], [1, 0, 1, 1, 1]],
    "s08-2x5k3-none": [[2, 1, 2, 1, 2], [0, 1, 0, 1, 0]],
}


def test_capacity_test_decides_a_pinned_share_of_the_solve_searches(monkeypatch):
    # up to carrier 16 the nine tables make 636 find_expansion calls with 187
    # hits; the capacity test answers 335 of them without a search
    calls, searches = [], []
    find = expansion.find_expansion

    def counted_find(f, structure):
        calls.append(structure)
        return find(f, structure)

    class CountedSearch(expansion._ExpansionSearch):
        def __init__(self, plan, structure):
            searches.append(structure)
            super().__init__(plan, structure)

    monkeypatch.setattr(expansion, "find_expansion", counted_find)
    monkeypatch.setattr(expansion, "_ExpansionSearch", CountedSearch)
    hits = sum(len(search_expansions(FunctionTable.from_rows(rows), 16))
               for rows in SOLVE_BENCH_TABLES.values())
    assert (len(calls), len(calls) - len(searches), hits) == (636, 335, 187)


def test_search_builds_one_plan_per_table(monkeypatch):
    plans = []

    class CountedPlan(expansion._SearchPlan):
        def __init__(self, f):
            plans.append(f)
            super().__init__(f)

    monkeypatch.setattr(expansion, "_SearchPlan", CountedPlan)
    f = FunctionTable.from_rows([[0, 1, 2], [1, 1, 0]])
    hits = {s.key(): e for s, e in search_expansions(f, 16)}
    structures = list(iter_carrier_structures(16, min_size=3))
    assert plans == [f] and len(structures) > 60 and hits
    # find_expansion on its own builds the plan of a table it has not seen and
    # returns what the search returned for that structure
    for structure in structures:
        g = FunctionTable.from_rows(f.outputs)
        exp = find_expansion(g, structure)
        want = hits.get(structure.key())
        assert (exp is None) == (want is None)
        if exp is not None:
            assert (exp.map1, exp.map2, exp.out_map) == (want.map1, want.map2, want.out_map)
        assert plans[-1] is g
    assert len(plans) == 1 + len(structures)


@settings(max_examples=60, deadline=None)
@given(
    m1=st.integers(1, 3),
    m2=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
def test_found_expansions_always_validate(m1, m2, seed):
    import random

    rng = random.Random(seed)
    k = rng.randint(1, min(3, m1 * m2))
    while True:
        rows = [[rng.randrange(k) for _ in range(m2)] for _ in range(m1)]
        used = {v for r in rows for v in r}
        if used == set(range(k)):
            break
    t = FunctionTable.from_rows(rows)
    for structure, exp in search_expansions(t, 7):
        exp.validate(t)


def test_converse_report_equal3():
    rep = converse_report(equal_table(3))
    assert rep.identical_rows == [] and rep.identical_cols == []
    assert rep.converse_bits == (Rate.log2(3), Rate.log2(3))
    st3 = field_confusable_sets(field_make(3, 1), 1)
    exp = find_expansion(equal_table(3), st3)
    rep2 = converse_report(equal_table(3), scheme_from_expansion(exp))
    assert rep2.optimal is True
    assert rep2.achieved_bits == (Rate.log2(3), Rate.log2(3))


def test_converse_report_duplicate_row():
    t = FunctionTable.from_rows([[0, 1], [0, 1]])
    rep = converse_report(t)
    assert rep.identical_rows == [(0, 1)]
    assert rep.converse_bits is None


def test_converse_report_and():
    and2 = FunctionTable.from_rows([[0, 0], [0, 1]])
    rep = converse_report(and2)
    assert rep.converse_bits == (Rate.log2(2), Rate.log2(2))
    _, exp = search_expansions(and2, 4, limit=1)[0]
    rep2 = converse_report(and2, scheme_from_expansion(exp))
    assert rep2.achieved_bits == (Rate.log2(3), Rate.log2(3))
    assert rep2.optimal is False  # carrier is larger than the input alphabet


def test_converse_report_reads_the_optimized_rates():
    # over Z_4 the plain scheme sends 2 bits each way; the optimized noise
    # support meets the (log2 3, 1) bound although the carrier is larger
    t = FunctionTable.from_rows([[0, 0], [1, 2], [2, 1]])
    structure, exp = search_expansions(t, 16, limit=1)[0]
    assert structure.key() == "Z_4 G=[1, 3]"
    plain = converse_report(t, scheme_from_expansion(exp))
    assert plain.achieved_bits == (Rate.log2(4), Rate.log2(4)) and plain.optimal is False
    rep = converse_report(t, optimize_additive_randomness(exp))
    assert rep.achieved_bits == rep.converse_bits == (Rate.log2(3), Rate.log2(2))
    assert rep.optimal is True


# ---------------------------------------------------------------------------
# pinned hit lists: full search_expansions(f, 16) output, recorded from the
# plain backtracker (no symmetry cuts, no pruning of map1 prefixes)
# ---------------------------------------------------------------------------

def corpus_tables(count: int = 30, seed: int = 200100539) -> list[FunctionTable]:
    """Seeded random tables, 2x2 up to 3x3, 2 to 4 labels (each used)."""
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        m1, m2 = rng.randint(2, 3), rng.randint(2, 3)
        k = rng.randint(2, min(4, m1 * m2))
        rows = [[rng.randrange(k) for _ in range(m2)] for _ in range(m1)]
        if {v for r in rows for v in r} == set(range(k)):
            tables.append(FunctionTable.from_rows(rows))
    return tables


def hit_list_digest(hits) -> str:
    """sha256 prefix over (structure key, map1, map2, sorted out_map) per hit."""
    rows = [
        [s.key(), list(e.map1), list(e.map2), sorted(e.out_map.items())]
        for s, e in hits
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


PINNED_HIT_DIGESTS = {
    "equal3": "16debec8026d1532",
    "equal4": "2ac0223bec163f3d",
    "equal5": "1b0edad9b3f58d09",
    "r00": "32e649c435025b6b",
    "r01": "ac148a2c30ce5aa8",
    "r02": "71bd45f1b4b17ac0",
    "r03": "7ba74a6175fce6ac",
    "r04": "8448092871069cc9",
    "r05": "a3ca704193d7ba6d",
    "r06": "6b3dcc598147476b",
    "r07": "7270e22f0f62f43e",
    "r08": "ddccb9ae9e436093",
    "r09": "67a48a8ca430190b",
    "r10": "7270e22f0f62f43e",
    "r11": "d13045100a6aaa34",
    "r12": "c6c4a552a115d271",
    "r13": "fa2386a158dbfe19",
    "r14": "b8fde984a71857a6",
    "r15": "1a1d1b756a2ea206",
    "r16": "dc7b4a4eb967b13b",
    "r17": "b7624628187eb25c",
    "r18": "7d076086f49b9287",
    "r19": "ec126073f431876d",
    "r20": "6047365889591346",
    "r21": "8c0b9642fe3d800e",
    "r22": "4c186582c0e46b7d",
    "r23": "407362106a943f9d",
    "r24": "193051ad3e0ca709",
    "r25": "aaa0782fc6b4cc2c",
    "r26": "27599f0d629a6765",
    "r27": "4445cfe6c68a4a0e",
    "r28": "7bcbfe63738bcf40",
    "r29": "3a4f6d86769058f7",
}


def test_hit_lists_match_pinned_digests():
    tables = {f"equal{m}": equal_table(m) for m in (3, 4, 5)}
    tables.update((f"r{n:02d}", t) for n, t in enumerate(corpus_tables()))
    got = {name: hit_list_digest(search_expansions(t, 16)) for name, t in tables.items()}
    assert got == PINNED_HIT_DIGESTS


def planted_table(m1: int, m2: int, structure, seed: int) -> FunctionTable:
    """The table that seeded random injective maps induce over a structure:
    cell (i, j) is labelled by the confusable set of map1[i] + map2[j], in
    order of first occurrence, so the table embeds over that structure."""
    rng = random.Random(seed)
    map1 = rng.sample(range(structure.size), m1)
    map2 = rng.sample(range(structure.size), m2)
    add = structure.carrier.add
    labels: dict = {}
    return FunctionTable.from_rows(
        [[labels.setdefault(structure.index_of(add(a, b)), len(labels)) for b in map2] for a in map1]
    )


# name -> (table, carrier bound, digest); recorded before the prefix cut
# became bitmask arithmetic
DEEP_TABLES = {
    "latin3": lambda: FunctionTable.from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    "p4x3-F13d3": lambda: planted_table(4, 3, field_confusable_sets(field_make(13, 1), 3), 43),
    "p4x3-Z12": lambda: planted_table(4, 3, ring_confusable_sets(RingSpec(12), (1, 5)), 431),
    "p2x5-F11d2": lambda: planted_table(2, 5, field_confusable_sets(field_make(11, 1), 2), 25),
    "p5x2-Z10": lambda: planted_table(5, 2, ring_confusable_sets(RingSpec(10), (1, 9)), 521),
    "p4x4-F16d5": lambda: planted_table(4, 4, field_confusable_sets(field_make(2, 4), 5), 44),
    "p4x4-F9d2": lambda: planted_table(4, 4, field_confusable_sets(field_make(3, 2), 2), 441),
    "r4x4-none": lambda: FunctionTable.from_rows([[1, 2, 2, 2], [1, 1, 0, 1], [2, 0, 1, 0], [0, 0, 1, 2]]),
}

PINNED_DEEP_HITS = {
    "latin3": (16, 21, "1735173be0962e6c"),
    "p4x3-F13d3": (23, 7, "1d906c883886bb69"),
    "p4x3-Z12": (16, 6, "2936ea24c4018776"),
    "p2x5-F11d2": (23, 18, "028a7ac4e5fc85bd"),
    "p5x2-Z10": (16, 23, "da15ba008a559ae1"),
    "p4x4-F16d5": (19, 1, "15100afb27149719"),
    "p4x4-F9d2": (19, 4, "e36010b396c65dfd"),
    "r4x4-none": (16, 0, "4f53cda18c2baa0c"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DEEP_HITS))
def test_deep_hit_lists_match_pinned_digests(name):
    bound, count, digest = PINNED_DEEP_HITS[name]
    hits = search_expansions(DEEP_TABLES[name](), bound)
    assert (len(hits), hit_list_digest(hits)) == (count, digest)
