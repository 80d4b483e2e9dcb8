import dataclasses
import hashlib
import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from oracles import (
    block_encoders,
    block_security_scheme,
    brute_force_first_correctness_failure,
    code,
    crt_equal_encode,
    leakage_bits,
    masked_sum_encoders,
    pair_counts,
    reference_encoders,
    sorted_counts,
    tabulated_scheme,
)

from confuse import schemes, verify
from confuse.errors import SchemaError, SizeBoundExceeded
from confuse.expansion import FunctionTable, equal_table
from confuse.fields import field_make
from confuse.gallery import get as gallery_get
from confuse.rates import Rate
from confuse.schemes import (
    Scheme,
    _TableEncoder,
    crt_equal_scheme,
    load_custom_scheme,
    optimize_additive_randomness,
    row_mask_baseline,
    scheme_from_expansion,
    serialize_scheme,
)
from confuse.verify import (
    MAX_ATOMS_MATERIALIZED,
    MAX_TOTAL_WEIGHT,
    CorrectnessResult,
    LeakageResult,
    SecurityResult,
    VerificationReport,
    _codewords,
    _enc_tables,
    _pair_tables,
    leakage,
    uniform_input_dist,
    verify_correct,
    verify_scheme,
    verify_secure,
)


def _pinned_gamma_equal3():
    """equal3 masked-sum scheme with the randomizer frozen at 1."""
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    scheme.atoms = [(1, z) for z in range(3)]
    return scheme


def _pair_probabilities(scheme, w1, w2):
    """One input pair's exact outcome probabilities from the int64 tables."""
    t = _enc_tables(scheme)
    keys, counts = t.counts(w1, w2)
    total = int(counts.sum())
    return {o: Fraction(c, total) for o, c in zip(t.outcomes(keys), counts.tolist())}


def test_exact_distribution_equality_up_to_scaling():
    def two_outcomes(weights):
        return tabulated_scheme(1, 1, [0, 1], lambda w, a: (a,), lambda w, a: (0,),
                                lambda x1, x2: 0, weights)

    a = _pair_probabilities(two_outcomes([2, 4]), 0, 0)
    b = _pair_probabilities(two_outcomes([3, 6]), 0, 0)
    c = _pair_probabilities(two_outcomes([3, 5]), 0, 0)
    assert a == b
    assert a != c
    assert a[((0,), (0,))] == Fraction(1, 3)
    # raw counts are compared because every pair's counts share one total;
    # scaling every weight scales the counts and leaves the verdicts alone
    scheme, table = _weighted_and2()
    scaled = dataclasses.replace(scheme, weights=[3 * w for w in scheme.weights])
    t, ts = _enc_tables(scheme), _enc_tables(scaled)
    for w1 in range(scheme.m1):
        for w2 in range(scheme.m2):
            keys, counts = t.counts(w1, w2)
            assert int(counts.sum()) == sum(scheme.weights)
            skeys, scounts = ts.counts(w1, w2)
            assert np.array_equal(skeys, keys) and np.array_equal(scounts, 3 * counts)
            assert _pair_probabilities(scaled, w1, w2) == _pair_probabilities(scheme, w1, w2)
    assert verify_scheme(scaled, table).to_json() == verify_scheme(scheme, table).to_json()


def test_joint_distribution_equal3():
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    t = _enc_tables(scheme)
    keys, counts = t.counts(0, 0)
    assert int(counts.sum()) == 6
    # X1 uniform over the carrier with X2 pinned to its negation
    assert dict(zip(t.outcomes(keys), counts.tolist())) == {
        ((z,), ((3 - z) % 3,)): 2 for z in range(3)
    }


def test_optimized_three_label_paper_distribution():
    # (X1, X1+X2) is uniform over {(1,1),(3,1),(3,3),(1,3)} for both inputs
    # that share the output, hence identical
    exp = gallery_get("three_label_2x2").expansion()
    opt = optimize_additive_randomness(exp)
    carrier = exp.structure.carrier
    enc1, enc2 = reference_encoders(opt)
    for pair in [(0, 0), (0, 1)]:
        counts = Counter()
        for atom in opt.atoms:
            x1 = enc1(pair[0], atom)
            x2 = enc2(pair[1], atom)
            counts[(x1[0], carrier.add(x1[0], x2[0]))] += 1
        assert counts == {(1, 1): 1, (3, 1): 1, (3, 3): 1, (1, 3): 1}


def test_verify_correct_and_witness():
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    assert verify_correct(scheme, equal_table(3)).ok

    enc1, enc2 = masked_sum_encoders(scheme.expansion)
    target = (enc1(0, (1, 0)), enc2(0, (1, 0)))
    t1, t2 = code(scheme.enc1, target[0]), code(scheme.enc2, target[1])
    real_dec = scheme.dec
    corrupted = Scheme(
        m1=3, m2=3, atoms=scheme.atoms, weights=None,
        enc1=scheme.enc1, enc2=scheme.enc2,
        dec=lambda c1, c2: real_dec(c1, c2) ^ ((c1 == t1) & (c2 == t2)),
        rate1=scheme.rate1, rate2=scheme.rate2, kind="corrupted",
    )
    res = verify_correct(corrupted, equal_table(3))
    assert not res.ok
    w1, w2, atom, got, expected = res.witness
    assert (enc1(w1, atom), enc2(w2, atom)) == target
    assert got != expected


def test_verify_trivial_single_cell():
    table = FunctionTable.from_rows([[0]])
    s = tabulated_scheme(1, 1, [0], lambda w, a: (0,), lambda w, a: (0,), lambda x1, x2: 0)
    assert verify_correct(s, table).ok
    assert verify_secure(s, table).ok  # vacuous: one input pair


def test_verify_secure_vacuous_when_outputs_distinct():
    t = FunctionTable.from_rows([[0, 1], [2, 3]])
    s = tabulated_scheme(2, 2, [0], lambda w, a: (w,), lambda w, a: (w,),
                         lambda x1, x2: 2 * x1[0] + x2[0])
    assert verify_secure(s, t).ok  # every group is a singleton


def test_pinned_gamma_fails_with_documented_witness():
    pinned = _pinned_gamma_equal3()
    res = verify_secure(pinned, equal_table(3))
    assert not res.ok
    ref_pair, other_pair, outcome = res.witness
    assert (ref_pair, other_pair) == ((0, 1), (0, 2))
    lk = leakage(pinned, equal_table(3), uniform_input_dist(equal_table(3)))
    assert not lk.exact_zero
    assert lk.bits > 0.5


def test_verify_scheme_compares_each_group_once():
    # leakage takes exact_zero from verify_scheme's security comparison;
    # called on its own it makes the same comparison itself
    f = equal_table(3)
    for scheme in (_pinned_gamma_equal3(), scheme_from_expansion(gallery_get("equal3").expansion())):
        with mock.patch.object(verify, "verify_secure", wraps=verify_secure) as spy:
            report = verify_scheme(scheme, f)
        assert spy.call_count == 1
        alone = leakage(scheme, f, uniform_input_dist(f))
        assert report.leak.exact_zero == alone.exact_zero == report.secure.ok
        assert report.leak.bits == alone.bits


def test_leakage_zero_for_secure_scheme():
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    lk = leakage(scheme, equal_table(3), uniform_input_dist(equal_table(3)))
    assert lk.exact_zero
    assert lk.bits == 0.0


def _random_full_support_dist(f, rng):
    weights = [[rng.randint(1, 9) for _ in range(f.m2)] for _ in range(f.m1)]
    total = sum(sum(r) for r in weights)
    return {
        (w1, w2): Fraction(weights[w1][w2], total)
        for w1 in range(f.m1)
        for w2 in range(f.m2)
    }


def test_leakage_cross_check_20_random_distributions():
    f = equal_table(3)
    secure = scheme_from_expansion(gallery_get("equal3").expansion())
    pinned = _pinned_gamma_equal3()
    rng = random.Random(20240917)
    for _ in range(20):
        dist = _random_full_support_dist(f, rng)
        assert leakage(secure, f, dist).bits == 0.0
        assert leakage(pinned, f, dist).bits > 0


def test_leakage_of_a_secure_verdict_reads_no_counts():
    scheme, f = _masked_sum_equal3()
    with mock.patch.object(verify._PairCounts, "counts") as counts:
        lk = leakage(scheme, f, uniform_input_dist(f), SecurityResult(True))
    assert not counts.called
    assert lk == LeakageResult(True, 0.0) and repr(lk.bits) == "0.0"


def test_leakage_takes_distributions_with_zero_entries():
    # README: entries >= 0 summing to 1; a pair of mass 0 drops out of its group
    f = equal_table(3)
    dist = {w: Fraction(1, 7) for w in uniform_input_dist(f)}
    dist[(0, 1)] = dist[(2, 2)] = Fraction(0)
    assert leakage(scheme_from_expansion(gallery_get("equal3").expansion()), f, dist).bits == 0.0
    pinned = _pinned_gamma_equal3()
    lk = leakage(pinned, f, dist)
    assert not lk.exact_zero
    assert lk.bits == pytest.approx(leakage_bits(pinned, f, dist), abs=1e-12)
    assert lk.bits != pytest.approx(leakage(pinned, f, uniform_input_dist(f)).bits)


def test_report_ok_needs_both_verdicts():
    for correct, secure in itertools.product((False, True), repeat=2):
        report = VerificationReport(CorrectnessResult(correct), SecurityResult(secure),
                                    LeakageResult(secure, 0.0), (Rate.zero(), Rate.zero()))
        assert report.ok == (correct and secure)


def test_leakage_rejects_non_distribution():
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    with pytest.raises(ValueError):
        leakage(scheme, equal_table(3), {(0, 0): Fraction(1, 2)})


def test_masked_sum_codeword_pair_is_uniform_product():
    # (X1+X2, X2) must be uniform over (output's confusable set) x carrier
    for name in ("equal3", "four_label_2x3", "selected_switch"):
        ex = gallery_get(name)
        exp = ex.expansion()
        st = exp.structure
        scheme = scheme_from_expansion(exp)
        enc1, enc2 = reference_encoders(scheme)
        for w1 in range(ex.table.m1):
            for w2 in range(ex.table.m2):
                counts = Counter()
                for atom in scheme.atoms:
                    x1 = enc1(w1, atom)
                    x2 = enc2(w2, atom)
                    counts[(st.carrier.add(x1[0], x2[0]), x2[0])] += 1
                label = ex.table.outputs[w1][w2]
                target_set = next(s for i, s in enumerate(st.sets) if exp.out_map.get(i) == label)
                expected_outcomes = {(u, x) for u in target_set for x in st.carrier.elements()}
                assert set(counts) == expected_outcomes
                assert len(set(counts.values())) == 1


def test_report_determinism():
    f = equal_table(3)
    a = verify_scheme(scheme_from_expansion(gallery_get("equal3").expansion()), f)
    b = verify_scheme(scheme_from_expansion(gallery_get("equal3").expansion()), f)
    assert a.to_json() == b.to_json()


class _Counted(_TableEncoder):
    """enc's code table, built on first read, that counts under
    calls[name] the codes it tabulates."""

    def __init__(self, enc, calls: Counter, name: str):
        def build():
            calls[name] += enc.table.size
            return enc.table

        super().__init__(build, enc.radix, enc.atoms)


def _counting(scheme):
    """A copy of the scheme whose encoders count the codes they tabulate, and
    whose decoder its calls ("dec") and the code pairs it decodes
    ("decoded")."""
    calls = Counter()

    def dec(c1, c2):
        calls["dec"] += 1
        calls["decoded"] += np.broadcast(c1, c2).size
        return scheme.dec(c1, c2)

    copy = dataclasses.replace(
        scheme,
        enc1=_Counted(scheme.enc1, calls, "enc1"),
        enc2=_Counted(scheme.enc2, calls, "enc2"),
        dec=dec,
    )
    return copy, calls


class _Constant(_TableEncoder):
    """A code table sending the codeword (0,) under every atom, built on
    first read."""

    def __init__(self, atoms):
        super().__init__(lambda: np.zeros((1, len(atoms)), np.uint8), (1,), atoms)


def _constant_scheme(n_atoms):
    atoms = range(n_atoms)
    return Scheme(
        m1=1, m2=1, atoms=atoms, weights=None, enc1=_Constant(atoms), enc2=_Constant(atoms),
        dec=lambda c1, c2: np.zeros(np.broadcast(c1, c2).shape, np.int64),
        rate1=None, rate2=None, kind="test",
    )


def _weighted_and2():
    """The and2 masked-sum scheme as a custom scheme with uneven weights."""
    obj = serialize_scheme(scheme_from_expansion(gallery_get("and2").expansion()))
    for i, row in enumerate(obj["z_support"]):
        row["weight"] = i % 3 + 1
    return load_custom_scheme(obj), gallery_get("and2").table


def _flipped_dec_baseline():
    """A row-mask baseline with one decoder row flipped (a negative control)."""
    f = FunctionTable.from_rows([[0, 1, 2, 0], [1, 2, 0, 1], [2, 0, 1, 2], [0, 0, 1, 2]])
    broken = serialize_scheme(row_mask_baseline(f))
    x1, x2 = broken["enc1"][0][0], broken["enc2"][0][0]
    row = next(r for r in broken["dec"] if r["x1"] == x1 and r["x2"] == x2)
    row["f"] = (row["f"] + 1) % f.output_count
    return load_custom_scheme(broken), f


def _masked_sum_equal3():
    return scheme_from_expansion(gallery_get("equal3").expansion()), equal_table(3)


def _threshold_baseline():
    threshold = gallery_get("threshold_2x3").table
    return row_mask_baseline(threshold), threshold


def _masked_sum_selected_switch():
    """A masked-sum scheme over the ring Z_6."""
    ex = gallery_get("selected_switch")
    return scheme_from_expansion(ex.expansion()), ex.table


def _baseline_3x2():
    """A row-mask baseline with 6 x 8 codeword pairs on its 48 atoms: as
    many possible outcome keys as atoms, so its counts are dense."""
    f = FunctionTable.from_rows([[0, 1], [1, 1], [1, 0]])
    return row_mask_baseline(f), f


def _baseline_3x3():
    """A row-mask baseline with 9 x 27 codeword pairs on 162 atoms, counted
    by sorting."""
    f = FunctionTable.from_rows([[0, 1, 2], [1, 1, 0], [2, 0, 0]])
    return row_mask_baseline(f), f


VERIFIER_CASES = [_masked_sum_equal3, _weighted_and2, _threshold_baseline, _flipped_dec_baseline,
                  _masked_sum_selected_switch, _baseline_3x2, _baseline_3x3]


def test_atom_cap_admits_crt_equal_m7_and_refuses_m8_before_encoding():
    assert len(crt_equal_scheme(7).atoms) == 211_680 <= MAX_ATOMS_MATERIALIZED
    scheme, calls = _counting(crt_equal_scheme(8))
    with pytest.raises(SizeBoundExceeded):
        verify_scheme(scheme, equal_table(8))
    assert not calls


def test_atom_cap_is_inclusive_for_lazy_supports():
    table = FunctionTable.from_rows([[0]])
    at_cap, calls = _counting(_constant_scheme(MAX_ATOMS_MATERIALIZED))
    assert verify_scheme(at_cap, table).ok
    assert calls == {"enc1": MAX_ATOMS_MATERIALIZED, "enc2": MAX_ATOMS_MATERIALIZED, "dec": 1, "decoded": 1}
    past, calls = _counting(_constant_scheme(MAX_ATOMS_MATERIALIZED + 1))
    with pytest.raises(SizeBoundExceeded):
        verify_scheme(past, table)
    assert not calls
    with pytest.raises(SizeBoundExceeded):
        serialize_scheme(past)
    assert not calls


@pytest.mark.parametrize("case", VERIFIER_CASES)
def test_verify_scheme_encodes_each_atom_once(case):
    scheme, f = case()
    counted, calls = _counting(scheme)
    report = verify_scheme(counted, f)
    n = len(scheme.atoms)
    assert calls["enc1"] == scheme.m1 * n
    assert calls["enc2"] == scheme.m2 * n
    per_pair = [pair_counts(scheme, w1, w2) for w1 in range(f.m1) for w2 in range(f.m2)]
    if report.correct.ok:
        # dec runs once per input pair, over that pair's distinct codeword
        # pairs, not once per atom
        assert calls["dec"] == f.m1 * f.m2
        assert calls["decoded"] == sum(map(len, per_pair))
    # the serializer reads the same tables
    serialize_scheme(counted)
    assert (calls["enc1"], calls["enc2"]) == (scheme.m1 * n, scheme.m2 * n)


def test_optimized_candidate_is_tabulated_once():
    # the masked-sum encoders are tabulated whole, one masked_values table
    # per party read by both the rates and the verifier, and never through
    # the carrier's scalar mul
    exp = gallery_get("equal3").expansion()
    carrier = exp.structure.carrier
    real_mul, real_values = carrier.mul, schemes.masked_values
    calls = Counter()

    def mul(a, b):
        calls["mul"] += 1
        return real_mul(a, b)

    def masked_values(*args):
        table = real_values(*args)
        calls["tables"] += 1
        calls["codes"] += table.size
        return table

    carrier.mul = mul
    with mock.patch.object(schemes, "masked_values", masked_values):
        scheme = scheme_from_expansion(exp, z_values=[0])
        verify_secure(scheme, equal_table(3))
    assert calls["tables"] == 2
    assert calls["codes"] == (scheme.m1 + scheme.m2) * len(scheme.atoms)
    assert calls["mul"] == 0


def test_shared_encoder_is_tabulated_once():
    scheme = crt_equal_scheme(4)
    calls = Counter()
    encode = _Counted(scheme.enc1, calls, "enc")  # its table, without the reduced support
    shared = dataclasses.replace(scheme, enc1=encode, enc2=encode)
    assert verify_scheme(shared, equal_table(4)).ok
    assert calls["enc"] == scheme.m1 * len(scheme.atoms)


def _corrupted(scheme, targets):
    """The scheme with dec's label raised by one on each code pair (c1, c2)
    of targets."""
    real_dec = scheme.dec

    def dec(c1, c2):
        return real_dec(c1, c2) + sum((c1 == a) & (c2 == b) for a, b in targets)

    return dataclasses.replace(scheme, dec=dec)


@pytest.mark.parametrize("case", VERIFIER_CASES)
def test_correctness_witness_matches_per_atom_oracle(case):
    scheme, f = case()
    outcomes = sorted({
        o
        for w1 in range(f.m1)
        for w2 in range(f.m2)
        for o in pair_counts(scheme, w1, w2)
    })
    rng = random.Random(len(outcomes))
    corruptions = [()] + [(o,) for o in rng.sample(outcomes, min(len(outcomes), 40))]
    corruptions += [tuple(rng.sample(outcomes, 3)) for _ in range(10)]
    for targets in corruptions:
        broken = _corrupted(scheme, {(code(scheme.enc1, x1), code(scheme.enc2, x2)) for x1, x2 in targets})
        expected = brute_force_first_correctness_failure(broken, f)
        res = verify_correct(broken, f)
        assert res.ok == (expected is None), targets
        assert res.witness == expected, targets


def _crt_equal4():
    return crt_equal_scheme(4), equal_table(4)


def _optimized_three_label():
    ex = gallery_get("three_label_2x2")
    return optimize_additive_randomness(ex.expansion()), ex.table


BLOCK_CHECK = (2, [[1, 1]])  # (L, A) of _block_security_scheme


def _block_security_scheme():
    """The compressed block scheme of and2 at L = 2 with a compressing A, as
    the enumeration oracle builds it: a plain scheme whose codewords span
    several positions."""
    ex = gallery_get("and2")
    return block_security_scheme(scheme_from_expansion(ex.expansion()), ex.table, *BLOCK_CHECK)


def _replaced_atoms():
    """equal3's masked-sum scheme with its atoms replaced after construction
    by gamma = 2 only: its encoders are read at those atoms' indices in the
    full (gamma, z) grid they were built over."""
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    scheme.atoms = [(2, z) for z in range(3)]
    return scheme, equal_table(3)


TABLE_CASES = VERIFIER_CASES + [_crt_equal4, _optimized_three_label, _block_security_scheme,
                                _replaced_atoms]


@pytest.mark.parametrize("case", TABLE_CASES, ids=lambda c: c.__name__.lstrip("_"))
def test_tables_match_encoders_atom_for_atom(case):
    # the row-mask baseline and the block oracle's scheme build their
    # encoders as code tables, so they are checked against scalar encoders
    scheme, _ = case()
    if case is _block_security_scheme:
        ex = gallery_get("and2")
        encoders = block_encoders(scheme_from_expansion(ex.expansion()), ex.table, *BLOCK_CHECK)
    else:
        encoders = reference_encoders(scheme)
    t = _enc_tables(scheme)
    atoms = list(scheme.atoms)
    for codes, radix, enc, ref, m in (
            (t.codes1, t.radix1, scheme.enc1, encoders[0], scheme.m1),
            (t.codes2, t.radix2, scheme.enc2, encoders[1], scheme.m2)):
        assert codes.dtype.kind in "iu" and codes.shape == (m, len(atoms)) and radix == enc.radix
        for w in range(m):
            assert _codewords(codes[w], radix) == [ref(w, a) for a in atoms]
    assert t.weights.dtype == np.int64
    assert t.weights.tolist() == (scheme.weights or [1] * len(atoms))
    for w1 in range(scheme.m1):
        for w2 in range(scheme.m2):
            keys, counts = t.counts(w1, w2)
            assert keys.dtype == counts.dtype == np.int64
            assert np.all(keys[1:] > keys[:-1])
            got = dict(zip(t.outcomes(keys), counts.tolist()))
            assert got == pair_counts(scheme, w1, w2, encoders)


@pytest.mark.parametrize("m", range(2, 8))
def test_crt_equal_tables_match_per_atom_oracle(m):
    # crt-equal is tabulated whole from its value codes; the oracle walks
    # each atom's mixed-radix digits and calls the fields' scalar add and mul
    scheme = crt_equal_scheme(m)
    t = _enc_tables(scheme)
    assert t.codes2 is t.codes1 is scheme.enc1.table
    # z alone reaches every symbol of each factor field, so every tuple occurs
    qs = [p**k for p, k in scheme.meta["factors"]]
    book = _codewords(np.flatnonzero(np.bincount(t.codes1.ravel())), t.radix1)
    assert book == list(itertools.product(*map(range, qs)))
    assert all(type(cw) is tuple and all(type(s) is int for s in cw) for cw in book)
    n = len(scheme.atoms)
    rng = random.Random(m)
    for w in range(m):
        atoms = range(n) if m < 7 else rng.sample(range(n), 5000)
        got = _codewords(t.codes1[w, atoms], t.radix1)
        for a, codeword in zip(atoms, got):
            assert codeword == crt_equal_encode(m, w, a), (w, a)


def _traced_peak(fn):
    """tracemalloc's peak over one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_crt_equal_m7_tabulates_within_a_memory_bound():
    # the table is 7 x 211,680 one-byte codes, 1.4 MiB; no inputs x atoms
    # int64 scratch (11.3 MiB) may sit next to it
    scheme = crt_equal_scheme(7)
    assert _traced_peak(lambda: _enc_tables(scheme)) < 11 << 20


def test_crt_equal_m8_is_refused_before_tabulating():
    # the real encoder, not a counting wrapper, so the batch path is the one
    # refused: the full tabulation, and so serialization, stays capped while
    # verification reads the per-pair support
    scheme = crt_equal_scheme(8)

    def tabulate():
        for fn in (_enc_tables, serialize_scheme):
            with pytest.raises(SizeBoundExceeded, match="2257920 atoms exceed"):
                fn(scheme)

    assert _traced_peak(tabulate) < 1 << 20
    assert "perms" not in vars(scheme.enc1)  # no permutation was enumerated
    assert verify_scheme(scheme, equal_table(8)).ok


@pytest.mark.parametrize("m", range(2, 8))
def test_crt_equal_pair_support_matches_the_enumerator(m):
    scheme = crt_equal_scheme(m)
    reduced, full = _pair_tables(scheme), _enc_tables(scheme)
    assert reduced is not full and reduced is _pair_tables(scheme)
    assert (reduced.radix1, reduced.radix2, reduced.n2) == (full.radix1, full.radix2, full.n2)
    assert reduced.total == full.total == len(scheme.atoms)
    for w1 in range(m):
        for w2 in range(m):
            keys, counts = reduced.counts(w1, w2)
            ref_keys, ref_counts = full.counts(w1, w2)
            assert keys.dtype == counts.dtype == np.int64
            assert keys.tolist() == ref_keys.tolist() and counts.tolist() == ref_counts.tolist()
            assert len(reduced.keys(w1, w2)) <= m * (m - 1) * scheme.enc1.block


def _crt_pinned_gamma(m: int, factor: int, gamma: int):
    """crt_equal_scheme(m) with one factor's gamma pinned, in the symbol
    table both the per-pair support and the full tabulation read: gamma = 1
    leaves it correct, gamma = 0 sends every residue of that factor to z."""
    scheme = crt_equal_scheme(m)
    q, stride, table = scheme.enc1.tables[factor]
    fs = field_make(*scheme.meta["factors"][factor])
    i = np.arange(len(table))
    scheme.enc1.tables[factor] = (q, stride, fs.add_table[fs.mul_table[gamma, i % q], (i // q) % q])
    return scheme


def _crt_variants(m: int, rng: random.Random):
    """crt-equal at m with corrupted randomness supports and decoders."""
    yield crt_equal_scheme(m)
    for factor in range(len(crt_equal_scheme(m).meta["factors"])):
        for gamma in (0, 1):
            yield _crt_pinned_gamma(m, factor, gamma)
    scheme = crt_equal_scheme(m)
    codes = range(m)  # every code over the radix, whose product is m, occurs
    for _ in range(3):
        yield _corrupted(scheme, {(rng.choice(codes), rng.choice(codes)) for _ in range(3)})


@pytest.mark.parametrize("m", range(2, 8))
def test_crt_equal_reduced_and_full_witnesses_agree(m):
    rng = random.Random(m)
    tables = [equal_table(m), FunctionTable.from_rows([[0] * m] * m),
              FunctionTable.from_rows([[rng.randrange(3) for _ in range(m)] for _ in range(m)])]
    variants = list(_crt_variants(m, rng))
    if m == 7:  # each full tabulation at m = 7 takes about 0.1 s
        variants = variants[:3]
    failures = 0
    for scheme in variants:
        for f in tables:
            got = verify_scheme(scheme, f).to_json()
            with mock.patch.object(verify, "_pair_tables", _enc_tables):
                expected = verify_scheme(scheme, f).to_json()
            assert got == expected, (m, f.outputs)
            failures += got["correctness_witness"] is not None
    assert failures > len(variants)  # most cases fail somewhere


def test_total_weight_past_int64_is_refused_before_encoding():
    table = FunctionTable.from_rows([[0]])
    for weights, refused in (([2**62, 2**62 - 1], False), ([2**62, 2**62], True)):
        scheme = dataclasses.replace(_constant_scheme(2), weights=weights)
        counted, calls = _counting(scheme)
        if refused:
            with pytest.raises(SizeBoundExceeded, match="int64"):
                verify_scheme(counted, table)
            assert not calls
        else:
            assert verify_scheme(counted, table).ok
            assert _enc_tables(counted).counts(0, 0)[1].tolist() == [2**63 - 1]


def _wide_scheme(table1, radix1, table2, radix2):
    """A scheme of two code tables over their own atoms, decoding to 0."""
    atoms = range(len(table1[0]))
    return Scheme(
        m1=len(table1), m2=len(table2), atoms=atoms, weights=None,
        enc1=_TableEncoder(np.array(table1, np.uint32), radix1, atoms),
        enc2=_TableEncoder(np.array(table2, np.uint32), radix2, atoms),
        dec=lambda c1, c2: np.zeros(np.broadcast(c1, c2).shape, np.int64),
        rate1=Rate.zero(), rate2=Rate.zero(), kind="test",
    )


def test_key_space_past_int64_is_refused_before_counting():
    # an outcome key is code1 * prod(radix2) + code2: 2^32 x 2^31 code pairs
    # need a key of 2^63, one past the int64 range; one code fewer fits
    table = FunctionTable.from_rows([[0]])
    top = [[0, 2**32 - 1]]
    past, calls = _counting(_wide_scheme(top, (2**32,), [[0, 1]], (2**31,)))
    with mock.patch.object(verify._PairCounts, "counts") as counted:
        for check in (verify_correct, verify_secure, verify_scheme):
            with pytest.raises(SizeBoundExceeded, match="int64 key bound"):
                check(past, table)
    assert not counted.called and not calls
    within = _wide_scheme(top, (2**32,), [[0, 2**31 - 2]], (2**31 - 1,))
    assert verify_scheme(within, table).ok
    t = _enc_tables(within)
    keys, counts = t.counts(0, 0)
    assert keys.tolist() == [0, 2**63 - 2**32 - 1] and counts.tolist() == [1, 1]
    assert t.outcomes(keys) == [((0,), (0,)), ((2**32 - 1,), (2**31 - 2,))]


def test_wide_radix_is_verified_and_serialized_in_small_memory():
    # a few codes in a radix of 2^24: no array over the radix is allocated,
    # so the peak stays far below one byte per code of the radix (16 MiB)
    scheme = _wide_scheme([[0, 5, 2**24 - 1, 7], [5, 0, 7, 2**24 - 1]], (2**24,),
                          [[0, 0, 1, 1]], (2,))
    table = FunctionTable.from_rows([[0], [0]])
    serialized = {}

    def run():
        assert verify_scheme(scheme, table).ok
        serialized.update(serialize_scheme(scheme))

    assert _traced_peak(run) < 1 << 20
    assert serialized["alphabets1"] == [4]
    assert verify_scheme(load_custom_scheme(serialized), table).ok


def test_non_positive_weight_is_refused_before_encoding():
    # [2**63 - 1, 5, -5] sums within the bound, but a partial sum does not
    table = FunctionTable.from_rows([[0]])
    for weights in ([1, 0], [2**63 - 1, 5, -5]):
        scheme = dataclasses.replace(_constant_scheme(len(weights)), weights=weights)
        counted, calls = _counting(scheme)
        with pytest.raises(SchemaError, match="positive"):
            verify_scheme(counted, table)
        assert not calls


def _heavy_custom(dense: bool):
    """A 2 x 2 custom scheme on four atoms weighing MAX_TOTAL_WEIGHT in all.
    Atoms 0 and 1 share an outcome, so its count is a sum float64 cannot
    hold exactly.  Bob sends [0, 0, 1, 1] by atom; Alice sends the same
    (2 x 2 codeword pairs, dense) or [0, 0, 1, 2] (3 x 2, sorted)."""
    weights = [2**62, 1, 2**61, 2**61 - 2]
    assert sum(weights) == MAX_TOTAL_WEIGHT
    bob = [[0], [0], [1], [1]]
    alice = bob if dense else [[0], [0], [1], [2]]
    n1 = 2 if dense else 3
    obj = {
        "m1": 2, "m2": 2, "alphabets1": [n1], "alphabets2": [2],
        "z_support": [{"atom": i, "weight": w} for i, w in enumerate(weights)],
        "enc1": [alice, alice], "enc2": [bob, bob],
        "dec": [{"x1": [a], "x2": [b], "f": 0} for a in range(n1) for b in range(2)],
    }
    return load_custom_scheme(obj), FunctionTable.from_rows([[0, 0], [0, 0]])


def _heavy_dense():
    return _heavy_custom(True)


def _heavy_sorted():
    return _heavy_custom(False)


# (case, whether its counts are dense: prod(radix1) * prod(radix2) <= atoms)
COUNT_CASES = [
    (_crt_equal4, True),
    (_baseline_3x2, True),
    (_heavy_dense, True),
    (_block_security_scheme, True),
    (_masked_sum_equal3, False),
    (_baseline_3x3, False),
    (_heavy_sorted, False),
    (_threshold_baseline, False),
]


@pytest.mark.parametrize("case,dense", COUNT_CASES, ids=[c.__name__.lstrip("_") for c, _ in COUNT_CASES])
def test_dense_and_sorted_counts_agree(case, dense):
    scheme, f = case()
    t = _enc_tables(scheme)
    assert (t.cells <= len(t.atoms)) == dense
    for w1 in range(scheme.m1):
        for w2 in range(scheme.m2):
            keys, counts = t.counts(w1, w2)
            ref_keys, ref_counts = sorted_counts(t, w1, w2)
            assert keys.dtype == counts.dtype == np.int64
            assert keys.tolist() == ref_keys.tolist()
            assert counts.tolist() == ref_counts.tolist()
    assert verify_secure(scheme, f).ok  # the block scheme's decoder is a stub


def test_counts_near_the_int64_bound_are_exact():
    dense, _ = _heavy_dense()
    keys, counts = _enc_tables(dense).counts(0, 1)
    assert (keys.tolist(), counts.tolist()) == ([0, 3], [2**62 + 1, 2**62 - 2])
    by_sort, _ = _heavy_sorted()
    keys, counts = _enc_tables(by_sort).counts(0, 1)
    assert (keys.tolist(), counts.tolist()) == ([0, 3, 5], [2**62 + 1, 2**61, 2**61 - 2])


def test_verify_refuses_a_scheme_of_another_shape_before_tabulating():
    scheme, calls = _counting(_constant_scheme(3))  # a 1 x 1 scheme
    table = FunctionTable.from_rows([[0, 1], [1, 0]])
    for check in (verify_correct, verify_secure, verify_scheme):
        with pytest.raises(SchemaError, match="1 x 1"):
            check(scheme, table)
    with pytest.raises(SchemaError):
        leakage(scheme, table, uniform_input_dist(table))
    assert not calls


def test_tables_follow_replaced_atoms_and_weights():
    # the tabulation kept on a scheme is reused only while its atoms and
    # weights are the objects it was built from
    f = equal_table(3)
    exp = gallery_get("equal3").expansion()
    edits = {
        "weights": lambda s: setattr(s, "weights", [5, 1, 1, 1, 1, 1]),
        "atoms": lambda s: setattr(s, "atoms", [(1, z) for z in range(3)]),
    }
    for edit in edits.values():
        # scheme_from_expansion with z_values tabulates in its constructor
        for build in (lambda: scheme_from_expansion(exp), lambda: scheme_from_expansion(exp, [0, 1, 2])):
            scheme, fresh = build(), build()
            assert verify_scheme(scheme, f).ok
            edit(scheme)
            edit(fresh)
            assert verify_secure(scheme, f) == verify_secure(fresh, f)
            assert not verify_secure(scheme, f).ok
            assert verify_scheme(scheme, f).to_json() == verify_scheme(fresh, f).to_json()


def test_replaced_atoms_outside_the_encoders_support_are_refused():
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    scheme.atoms = [(1, 0), (0, 0)]  # gamma = 0 is no unit
    with pytest.raises(SchemaError, match=r"atom \(0, 0\) lies outside"):
        verify_scheme(scheme, equal_table(3))


# (codebook pair -> label) over each scheme's codebooks, the ascending
# distinct codes of its tables, -1 where the pair decodes to no label,
# recorded from the decoders that took codeword tuples one pair per call
DECODER_DIGESTS = {
    "masked_sum_equal3": "cb72029c5a7eff62",
    "weighted_and2": "cb72029c5a7eff62",
    "threshold_baseline": "37ed6adf21b06457",
    "flipped_dec_baseline": "473799e1aedb3986",
    "masked_sum_selected_switch": "d1fc01a8704197b6",
    "baseline_3x2": "e55d4507d7ee22d2",
    "baseline_3x3": "207514de99b50e6f",
    "crt_equal4": "18e25e7923ecb051",
    "optimized_three_label": "08c5203489ba140d",
    "block_security_scheme": "11861c497175d62c",
    "replaced_atoms": "cb72029c5a7eff62",
}


@pytest.mark.parametrize("case", TABLE_CASES, ids=lambda c: c.__name__.lstrip("_"))
def test_decoder_matches_pinned_digest(case):
    scheme, _ = case()
    t = _enc_tables(scheme)
    book1, book2 = (np.unique(codes).astype(np.int64) for codes in (t.codes1, t.codes2))
    labels = scheme.dec(book1[:, None], book2[None, :])
    assert labels.dtype == np.int64 and labels.shape == (len(book1), len(book2))
    rows = [[list(c1), list(c2), label]
            for c1, row in zip(_codewords(book1, t.radix1), labels.tolist())
            for c2, label in zip(_codewords(book2, t.radix2), row)]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert digest == DECODER_DIGESTS[case.__name__.lstrip("_")]
