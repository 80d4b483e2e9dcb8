import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from oracles import all_tables, loop_codes, table_encoders

from confuse import schemes
from confuse.errors import SchemaError, SizeBoundExceeded, TotalityError
from confuse.expansion import FunctionTable, equal_table, find_expansion, search_expansions
from confuse.fields import field_make
from confuse.gallery import get as gallery_get
from confuse.rates import Rate
from confuse.schemes import (
    crt_equal_scheme,
    load_custom_scheme,
    optimize_additive_randomness,
    row_mask_baseline,
    scheme_from_expansion,
    serialize_scheme,
)
from confuse.structures import catalog_fields, catalog_rings
from confuse.verify import verify_correct, verify_scheme, verify_secure


def test_masked_sum_hand_evaluations():
    # 2x3 four-label table over F_7: inputs (1,2) with gamma=1, z=5
    exp = gallery_get("four_label_2x3").expansion()
    scheme = scheme_from_expansion(exp)
    enc1, enc2 = table_encoders(scheme)
    atom = (1, 5)
    x1 = enc1(1, atom)
    x2 = enc2(2, atom)
    assert x1 == (1,) and x2 == (6,)
    assert scheme.dec(x1[0], x2[0]) == 3  # the sum 0 sits in the zero set

    # selected switch over Z_6: inputs (1,2) with gamma=5, z=0
    sw = gallery_get("selected_switch")
    scheme6 = scheme_from_expansion(sw.expansion())
    enc1, enc2 = table_encoders(scheme6)
    x1 = enc1(1, (5, 0))
    x2 = enc2(2, (5, 0))
    assert x1 == (4,) and x2 == (1,)
    assert scheme6.dec(x1[0], x2[0]) == 3  # 5 lands in {1,5}


def test_equal_inputs_always_decode_yes():
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    enc1, enc2 = table_encoders(scheme)
    for w in range(3):
        for atom in scheme.atoms:
            assert scheme.dec(enc1(w, atom)[0], enc2(w, atom)[0]) == 1


def test_masked_sum_rates_and_verification():
    for name in ("equal3", "selected_switch", "four_label_2x3", "three_label_2x2", "and2", "threshold_2x3", "row_reveal_2x3"):
        ex = gallery_get(name)
        scheme = scheme_from_expansion(ex.expansion())
        q = ex.structure().size
        assert scheme.rate1 == Rate.log2(q) and scheme.rate2 == Rate.log2(q)
        assert verify_correct(scheme, ex.table).ok
        assert verify_secure(scheme, ex.table).ok


def test_optimizer_on_published_three_label_embedding():
    exp = gallery_get("three_label_2x2").expansion()
    opt = optimize_additive_randomness(exp)
    assert opt.meta["z_support"] == [0, 2]
    assert opt.rate1 == Rate.log2(4)
    assert opt.rate2 == Rate.log2(2)
    t = gallery_get("three_label_2x2").table
    assert verify_correct(opt, t).ok and verify_secure(opt, t).ok


def test_optimizer_equal3_keeps_full_support():
    exp = gallery_get("equal3").expansion()
    opt = optimize_additive_randomness(exp)
    assert opt.meta["z_support"] == [0, 1, 2]
    assert opt.rate1 == Rate.log2(3) and opt.rate2 == Rate.log2(3)


def test_optimizer_never_worsens_rates_and_always_verifies():
    for name in ("equal3", "three_label_2x2", "and2", "selected_switch"):
        ex = gallery_get(name)
        exp = ex.expansion()
        full = scheme_from_expansion(exp)
        opt = optimize_additive_randomness(exp)
        assert opt.rate1.value() <= full.rate1.value() + 1e-12
        assert opt.rate2.value() <= full.rate2.value() + 1e-12
        assert verify_correct(opt, ex.table).ok
        assert verify_secure(opt, ex.table).ok


def test_optimizer_on_searched_three_label_embedding_is_even_smaller():
    # the search finds a different embedding whose noise support shrinks to a
    # single point, cutting the first rate below the published 2 bits
    t = gallery_get("three_label_2x2").table
    st = gallery_get("three_label_2x2").structure()
    exp = find_expansion(t, st)
    opt = optimize_additive_randomness(exp)
    assert opt.meta["z_support"] == [0]
    assert opt.rate1 == Rate.log2(3) and opt.rate2 == Rate.log2(2)
    assert verify_secure(opt, t).ok


def test_optimizer_xor_over_f2():
    from confuse.structures import field_confusable_sets

    xor = FunctionTable.from_rows([[0, 1], [1, 0]])
    exp = find_expansion(xor, field_confusable_sets(field_make(2, 1), 1))
    opt = optimize_additive_randomness(exp)
    assert opt.meta["z_support"] == [0, 1]  # already minimal on a 1-bit carrier
    assert opt.rate1 == Rate.log2(2)


def test_masked_sum_verifies_over_every_cataloged_structure_up_to_16():
    # each structure's own canonical table (cell label = confusable-set index)
    structures = catalog_fields(16) + catalog_rings(16)
    assert len(structures) > 50
    for st in structures:
        size = st.size
        rows = [[st.index_of(st.carrier.add(a, b)) for b in range(size)] for a in range(size)]
        table = FunctionTable.from_rows(rows)
        exp = find_expansion(table, st)
        assert exp is not None
        scheme = scheme_from_expansion(exp)
        assert verify_correct(scheme, table).ok
        assert verify_secure(scheme, table).ok


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_crt_equal_exhaustive_small(m):
    scheme = crt_equal_scheme(m)
    f = equal_table(m)
    assert verify_correct(scheme, f).ok
    assert verify_secure(scheme, f).ok
    assert scheme.rate1 == Rate.log2(m) and scheme.rate2 == Rate.log2(m)


@pytest.mark.parametrize("m", [7, 8])
def test_crt_equal_exhaustive_larger(m):
    """Zero decode error over the full atom space, shown in two exact pieces:
    the mask (gamma, z) cancels in every per-factor comparison (enumerated
    over the whole factor field), and the permuted residue tuples collide
    only on equal inputs (enumerated over every permutation and input pair).
    """
    scheme = crt_equal_scheme(m)
    factors = scheme.meta["factors"]
    for p, k in factors:
        fs = field_make(p, k)
        for r1 in range(fs.q):
            for r2 in range(fs.q):
                for g in range(1, fs.q):
                    for z in range(fs.q):
                        lhs = fs.add(fs.mul(g, r1), z)
                        rhs = fs.add(fs.mul(g, r2), z)
                        assert (lhs == rhs) == (r1 == r2)
    qs = [p**k for p, k in factors]
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    for w1 in range(m):
        for w2 in range(m):
            same = np.ones(len(perms), dtype=bool)
            for q in qs:
                same &= (perms[:, w1] % q) == (perms[:, w2] % q)
            assert np.all(same == (w1 == w2))


def test_crt_equal_difference_tuples_m6():
    scheme = crt_equal_scheme(6)
    fields = [field_make(p, k) for p, k in scheme.meta["factors"]]
    expected = {(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}
    enc1, enc2 = table_encoders(scheme)
    for w1, w2 in [(0, 1), (2, 5), (4, 3)]:
        counts = Counter()
        for atom in scheme.atoms:
            x1 = enc1(w1, atom)
            x2 = enc2(w2, atom)
            counts[tuple(fs.sub(b, a) for fs, a, b in zip(fields, x1, x2))] += 1
        assert set(counts) == expected
        assert len(set(counts.values())) == 1


def test_crt_equal_size_bound():
    # the per-pair support admits m <= 15 and no m past it
    assert len(crt_equal_scheme(15).atoms) == math.factorial(15) * 2 * 3 * 4 * 5
    for m in (16, 17, 18, 30, 64, 1000, 2**61 - 1):  # the last a prime, never trial-divided
        with pytest.raises(SizeBoundExceeded, match="images per input pair"):
            crt_equal_scheme(m)


@pytest.mark.parametrize("m1,m2", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_baseline_verifies_for_every_small_table(m1, m2):
    for rows in all_tables(m1, m2, 3):
        t = FunctionTable.from_rows(rows)
        s = row_mask_baseline(t)
        assert verify_correct(s, t).ok
        assert verify_secure(s, t).ok


@pytest.mark.parametrize("k", [129, 256])
def test_baseline_verifies_with_labels_past_a_byte(k):
    # one row of k labels: an output plus its mask reaches 2k - 2, past a
    # uint8 for k > 128, before the mod k
    t = FunctionTable.from_rows([list(range(k))])
    assert verify_scheme(row_mask_baseline(t), t).ok


def test_baseline_refuses_oversized_support_before_building_it():
    # 7! * 2^7 = 645,120 atoms; building them would take hundreds of MiB
    seven_rows = FunctionTable.from_rows([[r % 2] for r in range(7)])
    tracemalloc.start()
    try:
        with pytest.raises(SizeBoundExceeded):
            row_mask_baseline(seven_rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_baseline_rates():
    thr = gallery_get("threshold_2x3").table
    s = row_mask_baseline(thr)
    assert s.rate1 == Rate.log2(4) and s.rate2 == Rate.log2(4)
    e3 = row_mask_baseline(equal_table(3))
    assert e3.rate1 == Rate.log2(3) + Rate.log2(2)
    assert e3.rate2 == Rate.log2(2).scaled(3)
    one_row = row_mask_baseline(FunctionTable.from_rows([[0, 1, 0]]))
    assert one_row.rate1 == Rate.log2(2)
    assert verify_correct(one_row, FunctionTable.from_rows([[0, 1, 0]])).ok


def test_bundled_schemes_load_and_verify():
    from importlib import resources

    data = resources.files("confuse.data")
    baseline = load_custom_scheme(str(data / "baseline_threshold_2x3.json"))
    t = gallery_get("threshold_2x3").table
    rep = verify_scheme(baseline, t)
    assert rep.ok and baseline.rate1 == Rate.log2(4) and baseline.rate2 == Rate.log2(4)
    # matches a freshly built baseline row for row
    fresh = row_mask_baseline(t)
    assert serialize_scheme(fresh)["enc2"] == json.loads((data / "baseline_threshold_2x3.json").read_text())["enc2"]

    bespoke = load_custom_scheme(str(data / "bespoke_row_reveal_2x3.json"))
    t2 = gallery_get("row_reveal_2x3").table
    rep2 = verify_scheme(bespoke, t2)
    assert rep2.ok
    assert bespoke.rate1 == Rate.log2(4)
    assert bespoke.rate2 == Rate.log2(3)


def test_load_custom_scheme_schema_errors():
    with pytest.raises(SchemaError):
        load_custom_scheme({"m1": 1})
    good = {
        "m1": 1, "m2": 1,
        "alphabets1": [2], "alphabets2": [2],
        "z_support": [{"atom": 0, "weight": 1}],
        "enc1": [[[0]]], "enc2": [[[1]]],
        "dec": [
            {"x1": [0], "x2": [0], "f": 0},
            {"x1": [0], "x2": [1], "f": 0},
            {"x1": [1], "x2": [0], "f": 0},
            {"x1": [1], "x2": [1], "f": 0},
        ],
    }
    s = load_custom_scheme(json.loads(json.dumps(good)))
    assert verify_correct(s, FunctionTable.from_rows([[0]])).ok

    broken = json.loads(json.dumps(good))
    del broken["dec"][1]
    with pytest.raises(TotalityError):
        load_custom_scheme(broken)

    bad_symbol = json.loads(json.dumps(good))
    bad_symbol["enc1"] = [[[5]]]
    with pytest.raises(SchemaError):
        load_custom_scheme(bad_symbol)

    dup = json.loads(json.dumps(good))
    dup["z_support"] = [{"atom": 0, "weight": 1}, {"atom": 0, "weight": 1}]
    with pytest.raises(SchemaError):
        load_custom_scheme(dup)

    # four dec rows cannot cover 2^40 x 2 codeword pairs: refused from the
    # row count, before any pair is enumerated
    huge = json.loads(json.dumps(good))
    huge["alphabets1"] = [2**40]
    with pytest.raises(TotalityError):
        load_custom_scheme(huge)


def _dec_scheme(edit) -> dict:
    """A 1 x 1 scheme over alphabets [2] and [2] whose decoder labels the
    pair (a, b) 2a + b, with edit applied to its dec rows."""
    rows = [{"x1": [a], "x2": [b], "f": 2 * a + b} for a in range(2) for b in range(2)]
    edit(rows)
    return {
        "m1": 1, "m2": 1, "alphabets1": [2], "alphabets2": [2],
        "z_support": [{"atom": 0}], "enc1": [[[0]]], "enc2": [[[1]]], "dec": rows,
    }


# dec row edit -> the error the loader raises
DEC_REFUSALS = {
    "duplicate": (lambda rows: rows.append(dict(rows[0])), SchemaError),
    "missing_pair": (lambda rows: rows.pop(1), TotalityError),
    "symbol_outside_alphabet": (lambda rows: rows.append({"x1": [2], "x2": [0], "f": 0}), SchemaError),
    "negative_symbol": (lambda rows: rows.append({"x1": [0], "x2": [-1], "f": 0}), SchemaError),
    "non_int_f": (lambda rows: rows[0].update(f=1.5), SchemaError),
    "f_past_int64": (lambda rows: rows[0].update(f=2**64), SchemaError),
    "x1_not_a_list": (lambda rows: rows[0].update(x1=0), SchemaError),
    "every_x1_not_a_list": (lambda rows: [r.update(x1=r["x1"][0]) for r in rows], SchemaError),
    "wrong_arity": (lambda rows: rows[0].update(x1=[0, 0]), SchemaError),
    "every_x2_of_wrong_arity": (lambda rows: [r.update(x2=r["x2"] * 2) for r in rows], SchemaError),
    "list_symbol": (lambda rows: rows[0].update(x2=[[0]]), SchemaError),
    "string_symbol": (lambda rows: rows[0].update(x2=["0"]), SchemaError),
    "missing_key": (lambda rows: rows[0].pop("f"), SchemaError),
    "row_not_an_object": (lambda rows: rows.__setitem__(0, [[0], [0], 0]), SchemaError),
}


@pytest.mark.parametrize("name", sorted(DEC_REFUSALS))
def test_loader_refuses_bad_dec_rows(name):
    edit, error = DEC_REFUSALS[name]
    with pytest.raises(error) as info:
        load_custom_scheme(_dec_scheme(edit))
    assert type(info.value) is error


def test_loader_reads_bool_dec_symbols_as_ints():
    c1, c2 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    for edit in (lambda rows: rows[1].update(x2=[True]),
                 lambda rows: [r.update(x2=[bool(r["x2"][0])]) for r in rows]):
        scheme = load_custom_scheme(_dec_scheme(edit))
        assert scheme.dec(c1, c2).tolist() == [0, 1, 2, 3]


def _codewords(symbols):
    """A 2-input, 3-atom encoder table over alphabets [3, 2]: input w's
    codeword under atom i is symbols(w, i)."""
    return [[symbols(w, i) for i in range(3)] for w in range(2)]


ENCODER_TABLES = {
    "ints": _codewords(lambda w, i: [(w + i) % 3, i % 2]),
    "bool_symbols": _codewords(lambda w, i: [i, bool(w)]),
    "all_bools": _codewords(lambda w, i: [i == 1, w == 0]),
    "floats": _codewords(lambda w, i: [float(i), 0]),
    "ragged_rows": [_codewords(lambda w, i: [i, 0])[0], _codewords(lambda w, i: [i, 0])[1][:2]],
    "ragged_codeword": _codewords(lambda w, i: [i, 0] if (w, i) != (1, 2) else [2]),
    "out_of_range": _codewords(lambda w, i: [i, 2 * i]),
    "negative": _codewords(lambda w, i: [i - 1, 0]),
    "past_int64": _codewords(lambda w, i: [i, 2**64 if (w, i) == (1, 1) else 0]),
    "wrong_arity": _codewords(lambda w, i: [i, 0, 0]),
    "missing_row": _codewords(lambda w, i: [i, 0])[:1],
    "not_a_list": {"0": [[0, 0]]},
}


@pytest.mark.parametrize("name", sorted(ENCODER_TABLES))
def test_loader_array_path_matches_its_loop(name):
    table = ENCODER_TABLES[name]
    try:
        expected = loop_codes(table, "enc1", 2, 3, [3, 2])
    except (SchemaError, TotalityError) as e:
        with pytest.raises(type(e)):
            schemes._read_codes(table, "enc1", 2, 3, [3, 2])
    else:
        got = schemes._read_codes(table, "enc1", 2, 3, [3, 2])
        assert got.tolist() == expected.tolist()


def _fuzzed_table(rng: random.Random):
    """A 2 x 3 encoder table over alphabets [3, 2], mostly well formed, each
    part with a small chance of a wrong type, value, length or nesting."""
    def pick(good, bad):
        return rng.choice(bad) if rng.random() < 0.08 else good

    def codeword():
        cw = [pick(rng.randrange(size), [True, False, 1.0, "0", None, [0], -1, size, 2**63, 2**64])
              for size in (3, 2)]
        return pick(cw, [cw[:1], cw + [0], "ab", {}, 0])

    table = [pick([codeword() for _ in range(pick(3, [2, 4]))], ["row", {}]) for _ in range(2)]
    return pick(table, [table[:1], table + table[:1], {}])


def test_the_codeword_checks_accept_exactly_the_tables_one_array_reads():
    # _read_codes runs the per-codeword checks only on a table the array
    # read refused, for their errors: they accept no table it refuses
    rng = random.Random(22)
    accepted = 0
    for _ in range(4000):
        table = _fuzzed_table(rng)
        codes = schemes._codes(table, (2, 3), [3, 2])
        try:
            schemes._check_codewords(table, "enc1", 2, 3, [3, 2])
        except (SchemaError, TotalityError):
            assert codes is None, table
        else:
            assert codes.tolist() == loop_codes(table, "enc1", 2, 3, [3, 2]).tolist(), table
            accepted += 1
    assert 200 < accepted < 3800


def test_loader_reads_a_well_formed_table_in_one_array_pass():
    with mock.patch.object(schemes, "_check_codewords", side_effect=AssertionError):
        codes = schemes._read_codes(ENCODER_TABLES["ints"], "enc1", 2, 3, [3, 2])
    assert codes.tolist() == loop_codes(ENCODER_TABLES["ints"], "enc1", 2, 3, [3, 2]).tolist()


@pytest.mark.parametrize("atoms", [
    [0, 1, 2],
    [[0, 1], [1, 0]],
    [[[0, 1, 2], [1, 0, 2]], [[0, 1, 2], [0, 0, 2]]],
    ["a", "b"],
    [True, False],
    [[1, [2]], [1, 2]],
    [2**70, 1],
    [1.5, [2, 3]],
])
def test_atom_tuple_form_matches_the_per_value_form(atoms):
    got = schemes._atom_form(atoms)
    assert repr(got) == repr([schemes._hashable(a) for a in atoms])


def test_a_bool_among_integer_atoms_reads_as_its_integer():
    # one integer array: true is 1, the same atom under == and hash
    assert repr(schemes._atom_form([[True, 2], [0, 2]])) == "[(1, 2), (0, 2)]"
    assert schemes._atom_form([[True, 2], [0, 2]]) == [schemes._hashable(a) for a in ([True, 2], [0, 2])]


def test_serialize_round_trip_preserves_rates_and_verdicts():
    cases = [
        (scheme_from_expansion(gallery_get("equal3").expansion()), equal_table(3)),
        (optimize_additive_randomness(gallery_get("three_label_2x2").expansion()),
         gallery_get("three_label_2x2").table),
        (row_mask_baseline(equal_table(3)), equal_table(3)),
    ]
    for scheme, table in cases:
        loaded = load_custom_scheme(serialize_scheme(scheme))
        assert loaded.rate1 == scheme.rate1
        assert loaded.rate2 == scheme.rate2
        assert verify_correct(loaded, table).ok
        assert verify_secure(loaded, table).ok


def test_weighted_support_equivalent_to_duplicated_atoms():
    from confuse.verify import _enc_tables

    obj = serialize_scheme(scheme_from_expansion(gallery_get("and2").expansion()))
    doubled = json.loads(json.dumps(obj))
    for row in doubled["z_support"]:
        row["weight"] = 2
    t = gallery_get("and2").table
    plain = load_custom_scheme(obj)
    weighted = load_custom_scheme(doubled)
    assert verify_scheme(plain, t).ok and verify_scheme(weighted, t).ok
    for w1 in range(2):
        for w2 in range(2):
            # the same outcomes, each counted exactly twice as often
            keys, counts = _enc_tables(plain).counts(w1, w2)
            keys2, counts2 = _enc_tables(weighted).counts(w1, w2)
            assert keys2.tolist() == keys.tolist()
            assert counts2.tolist() == [2 * c for c in counts.tolist()]


def test_optimizer_all_subsets_flag():
    exp = gallery_get("equal3").expansion()
    opt = optimize_additive_randomness(exp, all_subsets=True)
    # no proper subset of F_3 passes for this embedding either
    assert opt.meta["z_support"] == [0, 1, 2]
    again = optimize_additive_randomness(exp, all_subsets=True)
    assert again.meta["z_support"] == opt.meta["z_support"]


def test_all_subsets_runs_at_the_carrier_cap_and_refuses_past_it():
    # every support of a carrier is listed before one is tried: 8,191 at the
    # cap of 13 elements, and 2^q - 1 past it, so a carrier past the cap is
    # refused before any candidate is built
    cap = schemes.MAX_ALL_SUBSETS_CARRIER
    assert cap == 13
    hits = {}
    for st, exp in search_expansions(gallery_get("three_label_2x2").table, 16):
        hits.setdefault(st.carrier.size, exp)
    opt = optimize_additive_randomness(hits[cap], all_subsets=True)
    assert verify_secure(opt, gallery_get("three_label_2x2").table).ok
    assert len(opt.meta["z_support"]) == 1
    tracemalloc.start()
    try:
        with pytest.raises(SizeBoundExceeded, match="16383 supports"):
            optimize_additive_randomness(hits[cap + 1], all_subsets=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # without the flag the same carrier is tried through its subgroup cosets
    assert verify_secure(optimize_additive_randomness(hits[cap + 1]),
                         gallery_get("three_label_2x2").table).ok


def test_optimizer_prefers_a_coset_to_a_plain_subset_of_its_size(monkeypatch):
    # no table tried here has a plain subset passing at the size of the
    # least passing coset, so a stand-in verifier passes every support of two
    # elements of Z_4: the coset {0, 2} must win over {0, 1}, which sorts first
    def two_elements(scheme, f):
        return SimpleNamespace(ok=len(scheme.meta["z_support"]) == 2)

    monkeypatch.setattr(schemes, "verify_secure", two_elements)
    opt = optimize_additive_randomness(gallery_get("three_label_2x2").expansion(), all_subsets=True)
    assert opt.meta["z_support"] == [0, 2]


def test_optimizer_subsets_reach_the_whole_carrier(monkeypatch):
    # the whole carrier is also its own coset, so the subset range shows only
    # with the cosets cut down to single points; no proper subset of F_3
    # passes for equal3, so the range must reach all three elements
    monkeypatch.setattr(schemes, "closure_subgroups", lambda table, identity, elements: [(identity,)])
    opt = optimize_additive_randomness(gallery_get("equal3").expansion(), all_subsets=True)
    assert opt.meta["z_support"] == [0, 1, 2]
