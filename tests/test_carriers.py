"""Table-backed carrier arithmetic against independent % and polynomial
oracles, for fields and rings alike."""

import random

import numpy as np
import pytest

from confuse.fields import field_make, prime_power
from confuse.rings import RingSpec
from confuse.structures import catalog_rings
from oracles import field_arithmetic, ring_arithmetic

SMALL_FIELDS = [q for q in range(2, 65) if prime_power(q) is not None]


def _agrees(carrier, oracle, pairs):
    for a, b in pairs:
        for op in ("add", "sub", "mul"):
            got = getattr(carrier, op)(a, b)
            assert type(got) is int, (op, a, b)
            assert got == oracle[op](a, b), (op, a, b)
    for a in carrier.elements():
        got = carrier.neg(a)
        assert type(got) is int and got == oracle["neg"](a), a


def _all_pairs(size):
    return [(a, b) for a in range(size) for b in range(size)]


@pytest.mark.parametrize("q", SMALL_FIELDS)
def test_field_tables_match_polynomial_oracle(q):
    fs = field_make(*prime_power(q))
    assert fs.size == q
    _agrees(fs, field_arithmetic(fs.p, fs.n, fs.h), _all_pairs(q))


@pytest.mark.parametrize("n", range(2, 65))
def test_ring_tables_match_modular_oracle(n):
    spec = RingSpec(n)
    assert spec.size == n
    _agrees(spec, ring_arithmetic(n), _all_pairs(n))


@pytest.mark.parametrize("q", [257, 343])
def test_two_byte_fields_match_oracle_on_a_sample(q):
    fs = field_make(*prime_power(q))
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
    _agrees(fs, field_arithmetic(fs.p, fs.n, fs.h), pairs)
    assert all(a.dtype == np.uint16 for a in fs.arrays())


@pytest.mark.parametrize("carrier", [field_make(2, 3), field_make(7, 1), RingSpec(12)])
def test_arrays_copy_the_scalar_tables(carrier):
    add, neg, mul = carrier.arrays()
    size = carrier.size
    assert add.dtype == neg.dtype == mul.dtype == np.uint8
    for a in range(size):
        assert neg[a] == carrier.neg(a)
        for b in range(size):
            assert (add[a, b], mul[a, b]) == (carrier.add(a, b), carrier.mul(a, b))


def test_structures_of_one_modulus_share_one_carrier():
    a, b = (st for st in catalog_rings(15) if st.key() in ("Z_15 G=[1]", "Z_15 G=[1, 4]"))
    assert a.carrier is b.carrier
