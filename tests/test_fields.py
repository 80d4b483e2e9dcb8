import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import confuse
from confuse.errors import DivisionByZero, NotADivisor, NotPrime, SizeBoundExceeded
from confuse.fields import FieldSpec, field_make, is_prime, prime_power
from confuse.structures import field_confusable_sets

SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]


# sha256 over every field of PINNED_Q, recorded before field construction
# moved to the single primitivity test: per q, field_make's to_json(), the
# sha256 of its (add, neg, mul) arrays, render_h() and render(a) for a < 50
PINNED_Q = [q for q in range(2, 1025) if prime_power(q) is not None] + [2048, 2187, 2401, 3125, 4096]
PINNED_FIELDS_DIGEST = "6a45138842d8b4c936bcff28ff14a04668a06fa71e86c0a2e9f342153a54f166"

# every monic h of degree n and every g in 1..q-1 at these q
ORACLE_GRID_Q = [2, 3, 5, 7, 11, 13, 4, 8, 16, 32, 9, 27, 25, 49]


def test_prime_power_detection():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert is_prime(2) and is_prime(19) and not is_prime(15)


def test_canonical_f8():
    fs = field_make(2, 3)
    assert fs.render_h() == "x^3+x+1"
    assert fs.g == 2 and fs.render(fs.g) == "x"
    assert fs.render(fs.exp(3)) == "x+1"
    assert fs.render(fs.exp(6)) == "x^2+1"


def test_canonical_prime_fields():
    assert field_make(7, 1).g == 3
    assert field_make(5, 1).g == 2
    assert field_make(2, 1).g == 1  # the only nonzero element
    assert field_make(17, 1).g == 3


def test_canonical_f9_and_f16():
    f9 = field_make(3, 2)
    assert f9.render_h() == "x^2+x+2"
    assert f9.render(f9.g) == "x"
    f16 = field_make(2, 4)
    assert f16.render_h() == "x^4+x+1"


def test_f7_arithmetic_values():
    fs = field_make(7, 1)
    assert fs.mul(2, 2) == 4
    assert fs.mul(2, 4) == 1  # 8 mod 7
    for a in range(7):
        assert fs.add(a, 0) == a
        assert fs.mul(a, 1) == a


def test_errors():
    with pytest.raises(NotPrime):
        field_make(6, 1)
    with pytest.raises(SizeBoundExceeded):
        field_make(2, 13)
    with pytest.raises(DivisionByZero):
        field_make(5, 1).inv(0)
    with pytest.raises(ValueError):
        FieldSpec(2, 3, (1, 0, 0, 1), 2)  # x^3+1 is reducible
    with pytest.raises(ValueError):
        FieldSpec(7, 1, (0, 1), 2)  # 2 has order 3 mod 7


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    fs = field_make(*prime_power(q))
    els = list(fs.elements())
    for a, b in itertools.product(els, repeat=2):
        assert fs.add(a, b) == fs.add(b, a)
        assert fs.mul(a, b) == fs.mul(b, a)
        assert fs.add(a, fs.neg(a)) == 0
        if a != 0:
            assert fs.mul(a, fs.inv(a)) == 1
    for a, b, c in itertools.product(els, repeat=3):
        assert fs.add(fs.add(a, b), c) == fs.add(a, fs.add(b, c))
        assert fs.mul(fs.mul(a, b), c) == fs.mul(a, fs.mul(b, c))
        assert fs.mul(a, fs.add(b, c)) == fs.add(fs.mul(a, b), fs.mul(a, c))


@pytest.mark.parametrize("q", SMALL_Q)
def test_dlog_round_trip(q):
    fs = field_make(*prime_power(q))
    for a in range(1, q):
        assert fs.exp(fs.dlog(a)) == a
    ks = {fs.dlog(a) for a in range(1, q)}
    assert ks == set(range(q - 1))


def test_confusable_sets_f7():
    fs = field_make(7, 1)
    st = field_confusable_sets(fs, 3)
    assert st.sets == ((0,), (1, 6), (2, 5), (3, 4))
    assert st.randomizer == (1, 6)
    st2 = field_confusable_sets(fs, 2)
    assert st2.sets == ((0,), (1, 2, 4), (3, 5, 6))
    assert st2.randomizer == (1, 2, 4)


def test_confusable_sets_edge_divisors():
    fs = field_make(5, 1)
    singles = field_confusable_sets(fs, 4)
    assert singles.randomizer == (1,)
    assert all(len(s) == 1 for s in singles.sets)
    assert singles.trivial
    coarse = field_confusable_sets(fs, 1)
    assert coarse.sets == ((0,), (1, 2, 3, 4))
    assert coarse.trivial
    with pytest.raises(NotADivisor):
        field_confusable_sets(fs, 3)


@pytest.mark.parametrize("q", SMALL_Q)
def test_partition_and_randomization(q):
    from oracles import randomization_multiset_ok

    fs = field_make(*prime_power(q))
    for d in [x for x in range(1, q) if (q - 1) % x == 0]:
        st = field_confusable_sets(fs, d)
        members = sorted(a for s in st.sets for a in s)
        assert members == list(range(q))
        # every nonzero set has exactly |S*| members
        for s in st.sets:
            if s != (0,):
                assert len(s) == len(st.randomizer)
        assert randomization_multiset_ok(fs, st.randomizer, st.sets)


def test_generator_independence():
    # the unordered partition must not depend on which primitive element is used
    for q, d in [(7, 3), (13, 4), (11, 2)]:
        canonical = field_make(q, 1)
        partitions = []
        for g in range(2, q):
            try:
                fs = FieldSpec(q, 1, (0, 1), g)
            except ValueError:
                continue
            st = field_confusable_sets(fs, d)
            partitions.append(frozenset(frozenset(s) for s in st.sets))
        assert len(set(partitions)) == 1
        base = field_confusable_sets(canonical, d)
        assert partitions[0] == frozenset(frozenset(s) for s in base.sets)


def test_json_round_trip():
    fs = field_make(3, 2)
    obj = fs.to_json()
    assert obj == {"p": 3, "n": 2, "h": [2, 1, 1], "g": 3}
    assert FieldSpec.from_json(obj) == fs
    assert field_make(2, 3).to_json() == {"p": 2, "n": 3, "h": [1, 1, 0, 1], "g": 2}


def test_render():
    f9 = field_make(3, 2)
    assert f9.render(0) == "0"
    assert f9.render(1) == "1"
    assert f9.render(3) == "x"
    assert f9.render(7) == "2x+1"
    assert field_make(7, 1).render(5) == "5"


def test_largest_field_builds_within_a_memory_bound():
    # F_4096's add and mul tables hold 32 MiB each; building them must keep
    # no full-size copies alongside (133 MiB peak when it once did; 65 MiB
    # with the mul table gathered a block of rows at a time)
    code = (
        "import tracemalloc\n"
        "from confuse.fields import field_make\n"
        "tracemalloc.start()\n"
        "field_make(2, 12)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = os.path.dirname(os.path.dirname(confuse.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 100 * 2**20


def test_refused_field_fails_before_any_table():
    # the power walk refuses (h, g) before any q x q table exists: at
    # q = 4096 one such table alone would hold 32 MiB
    tracemalloc.start()
    try:
        for p, n, h in [(4093, 1, (0, 1)), (2, 12, (1,) + (0,) * 11 + (1,))]:
            with pytest.raises(ValueError):
                FieldSpec(p, n, h, 1 if n == 1 else 2)  # 1 has order 1; x^12+1 = (x^3+1)^4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_field_make_walks_no_modulus_divisible_by_x(monkeypatch):
    # x divides an h with h_0 = 0, so x is no unit mod h and the walk would
    # refuse it; field_make never builds such a candidate
    from confuse import fields

    walked = []
    powers = fields._powers

    def spy(p, n, h, g):
        walked.append(h)
        return powers(p, n, h, g)

    monkeypatch.setattr(fields, "_powers", spy)
    for p, n in [(2, 12), (2, 8), (3, 5), (5, 3), (7, 2), (61, 2)]:
        walked.clear()
        fs = field_make(p, n)
        assert walked[-1] == fs.h and all(h[0] != 0 for h in walked), (p, n)


def test_canonical_fields_match_pinned_digest():
    outer = hashlib.sha256()
    for q in PINNED_Q:
        fs = field_make(*prime_power(q))
        arrays = (fs.add_table, fs.neg_table, fs.mul_table)
        tables = hashlib.sha256(b"".join(t.tobytes() for t in arrays)).hexdigest()
        record = [fs.to_json(), tables, fs.render_h(), [fs.render(a) for a in range(min(q, 50))]]
        outer.update(json.dumps(record).encode())
    assert outer.hexdigest() == PINNED_FIELDS_DIGEST


def test_field_acceptance_matches_irreducibility_and_order_oracles():
    from oracles import is_irreducible, multiplicative_order

    accepted, pairs = set(), 0
    for q in ORACLE_GRID_Q:
        p, n = prime_power(q)
        for low in itertools.product(range(p), repeat=n):
            h = low + (1,)
            irreducible = is_irreducible(h, p)
            for g in range(1, q):
                expected = irreducible and multiplicative_order(p, n, h, g) == q - 1
                try:
                    FieldSpec(p, n, h, g)
                    accepted.add((p, n, h, g))
                except ValueError:
                    pass
                assert ((p, n, h, g) in accepted) == expected, (p, n, h, g)
                pairs += 1
    assert pairs == 5362 and 0 < len(accepted) < pairs
    # over F_2 mod x^2 the powers of x are 1, x, 0: distinct, yet x^2 is
    # reducible, so a distinctness check alone would accept it
    assert not is_irreducible((0, 0, 1), 2) and (2, 2, (0, 0, 1), 2) not in accepted
