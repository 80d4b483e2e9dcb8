"""Table-backed carrier arithmetic against independent % and polynomial
oracles, for fields and rings alike."""

import random

import numpy as np
import pytest

from confuse.fields import field_make, prime_power, table_dtype
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
    assert all(t.dtype == np.uint16 for t in (fs.add_table, fs.neg_table, fs.mul_table))


def _scalar(got, entry):
    assert type(got) is int and got == entry, (got, entry)


@pytest.mark.parametrize("carrier", [field_make(2, 3), field_make(7, 1), RingSpec(12), field_make(17, 2)],
                         ids=["F_8", "F_7", "Z_12", "F_289"])
def test_tables_are_read_only_arrays_behind_the_scalar_ops(carrier):
    size = carrier.size
    tables = {"add_table": (size, size), "neg_table": (size,), "mul_table": (size, size)}
    if carrier.kind == "field":
        tables |= {"exp_table": (size - 1,), "log_table": (size,)}
    for name, shape in tables.items():
        t = getattr(carrier, name)
        assert type(t) is np.ndarray and t.dtype == table_dtype(size) and t.shape == shape, name
        with pytest.raises(ValueError):
            t[(0,) * t.ndim] = 1
    add, neg, mul = carrier.add_table, carrier.neg_table, carrier.mul_table
    rng = random.Random(size)
    sample = range(size) if size <= 64 else sorted(rng.sample(range(size), 40))
    for a in sample:
        _scalar(carrier.neg(a), neg[a])
        for b in sample:
            _scalar(carrier.add(a, b), add[a, b])
            _scalar(carrier.sub(a, b), add[a, neg[b]])
            _scalar(carrier.mul(a, b), mul[a, b])
    if carrier.kind == "field":
        for k in range(size - 1):
            _scalar(carrier.exp(k), carrier.exp_table[k])
        for a in range(1, size):
            _scalar(carrier.dlog(a), carrier.log_table[a])
            _scalar(carrier.inv(a), carrier.exp_table[-int(carrier.log_table[a]) % (size - 1)])
            assert carrier.mul(a, carrier.inv(a)) == 1


def test_structures_of_one_modulus_share_one_carrier():
    a, b = (st for st in catalog_rings(15) if st.key() in ("Z_15 G=[1]", "Z_15 G=[1, 4]"))
    assert a.carrier is b.carrier
