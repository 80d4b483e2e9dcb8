"""Arithmetic in F_{p^n}, and the table-backed arithmetic fields and rings share.

Elements are encoded as integers: the polynomial a_0 + a_1 x + ... + a_{n-1}
x^{n-1} with coefficients in {0..p-1} is the integer sum(a_i * p^i).  The
encoding is a bijection with range(q), q = p^n, and reduces to plain integers
mod p when n = 1.

Every carrier, F_q here and Z_n in rings.py, answers add/sub/neg/mul from
dense add and mul tables plus a neg vector (TableCarrier), each one
read-only numpy array in table_dtype(size) that vector code indexes
directly.  A field walks the powers of its generator once, through a
times-g map computed on base-p digits; that walk is both its acceptance
test and its exp and log tables.  The add table comes from base-p digits
and the mul table from the log tables; afterwards the exp and log tables
serve only inverses and the d-th-power randomizers.
Nothing can be written after construction, so specs are safe to share
across threads.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import jsonout
from .errors import DivisionByZero, NotPrime, SizeBoundExceeded
from .rates import factorize

MAX_Q = 4096


def is_prime(m: int) -> bool:
    return factorize(m) == {m: 1}


def prime_power(m: int):
    """Return (p, n) with m = p^n, or None if m is not a prime power."""
    f = factorize(m)
    return next(iter(f.items())) if len(f) == 1 else None


# ---------------------------------------------------------------------------
# F_p[x]/h through the powers of g; coefficient tuples, a_0 first
# ---------------------------------------------------------------------------

def _enc_to_poly(enc, p):
    """Base-p digits of enc, a_0 first, without leading zeros."""
    coeffs = []
    while enc:
        coeffs.append(enc % p)
        enc //= p
    return tuple(coeffs)


def _powers(p, n, h, g):
    """g^0, g^1, ..., g^(q-2) as an array of encodings when g has
    multiplicative order q - 1 mod h over F_p, q = p^n; otherwise None.

    The times-g map of all q encodings is one digit-array operation, and the
    walk 1, g, g^2, ... through it doubles its length each round.  g is
    accepted when the walk returns to 1 after exactly q - 1 steps without
    reaching 0 or 1 before.  Powers of such a g are q - 1 distinct units, so
    every nonzero residue is a unit and h is irreducible too."""
    q = p**n
    h = np.array(h, np.int32)[:, None]
    # row i: digit i of x^k * a for every a; int32, which numpy multiplies
    # fast and which holds every sum below, all under n * p * q
    xa = np.indices((p,) * n, np.int32).reshape(n, q)[::-1]
    ga = 0
    for k, gk in enumerate(_enc_to_poly(g, p)):
        if k:  # times x: every digit one place up, the x^n term cancelled by h
            up = np.concatenate([np.zeros_like(xa[:1]), xa])
            xa = (up - up[-1] * h)[:-1]
        ga = ga + gk * xa
    times_g = p ** np.arange(n) @ (ga % p)
    walk = np.ones(1, np.intp)
    while len(walk) < q:
        walk = np.concatenate([walk, times_g[walk]])
        times_g = times_g[times_g]
    if walk[q - 1] != 1 or not (walk[1 : q - 1] > 1).all():
        return None
    return walk[: q - 1]


def _render_poly(coeffs) -> str:
    """Descending polynomial string, such as x^2+2x+1, of coefficients a_0 first."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        xs = "" if i == 0 else "x" if i == 1 else f"x^{i}"
        terms.append(str(c) if not xs else xs if c == 1 else f"{c}{xs}")
    return "+".join(terms) or "0"


# ---------------------------------------------------------------------------
# table-backed carrier arithmetic, shared by fields and rings
# ---------------------------------------------------------------------------

def table_dtype(size: int):
    """Smallest unsigned dtype holding every integer below size, such as
    the elements of a carrier of that size."""
    return np.uint8 if size <= 1 << 8 else np.uint16 if size <= 1 << 16 else np.uint32


def read_only(table: np.ndarray) -> np.ndarray:
    """table, made read-only in place: carrier tables are built once and
    shared by every structure over the carrier."""
    table.flags.writeable = False
    return table


class TableCarrier:
    """Carrier arithmetic read from dense tables built once per carrier.

    Subclasses set add_table and mul_table (size x size) and neg_table
    (size), each one read-only numpy array in table_dtype(size).  Vector
    code indexes them directly; the scalar ops return Python ints.
    """

    @property
    def size(self) -> int:
        return len(self.neg_table)

    def elements(self):
        return range(self.size)

    @functools.cached_property
    def names(self) -> list[str]:
        """render(a) of every element a, built on first use."""
        return [self.render(a) for a in self.elements()]

    @functools.cached_property
    def json_names(self) -> list[str]:
        """names, each as JSON text, built on first use."""
        return jsonout.strings(self.names)

    def add(self, a: int, b: int) -> int:
        return self.add_table.item(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.add_table.item(a, self.neg_table.item(b))

    def neg(self, a: int) -> int:
        return self.neg_table.item(a)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table.item(a, b)

    def is_unit_subgroup(self, members) -> bool:
        """True when members are distinct units closed under mul.  A
        nonempty finite set of units closed under mul is a group."""
        s = [int(a) for a in members]
        if not s or len(set(s)) != len(s) or not all(0 <= a < self.size for a in s):
            return False
        rows = self.mul_table[s]
        inside = np.zeros(self.size, bool)
        inside[s] = True
        # a is a unit iff 1 is in its row
        return bool((rows == 1).any(axis=1).all() and inside[rows[:, s]].all())


# ---------------------------------------------------------------------------
# field spec
# ---------------------------------------------------------------------------

class FieldSpec(TableCarrier):
    """A concrete F_{p^n}: irreducible modulus h, primitive element g.

    The walk of g's powers refuses an (h, g) before any table is built, and
    otherwise gives exp_table (g^k for k < q - 1) and log_table (the
    discrete log of each nonzero element; 0 at 0); they build the mul table
    and serve exp/dlog/inv.  The add table comes from base-p digits.  All
    are read-only arrays in table_dtype(q); at q = 4096 the add and mul
    tables have 16,777,216 two-byte entries each.
    """

    kind = "field"

    def __init__(self, p: int, n: int, h, g: int):
        if not is_prime(p):
            raise NotPrime(p)
        if n < 1:
            raise ValueError("n must be >= 1")
        q = p ** n
        if q > MAX_Q:
            raise SizeBoundExceeded(f"q = {q} exceeds bound {MAX_Q}")
        h = tuple(int(c) % p for c in h)
        if len(h) != n + 1 or h[-1] != 1:
            raise ValueError("h must be monic of degree n")
        g = int(g)
        exp = _powers(p, n, h, g) if 0 < g < q else None
        if exp is None:
            raise ValueError(f"g = {g} does not have order {q - 1} mod h = {h} over F_{p}")
        self.p = p
        self.n = n
        self.q = q
        self.h = h
        self.g = g
        self._build_tables(exp)

    def _build_tables(self, exp):
        p, n, q = self.p, self.n, self.q
        dt = table_dtype(q)
        log = np.zeros(q, np.intp)
        log[exp] = np.arange(q - 1)
        self.exp_table = read_only(exp.astype(dt))
        self.log_table = read_only(log.astype(dt))
        # add: one base-p digit at a time, each new digit the most significant;
        # row i of digit_add is i, i + 1, ..., a window of two periods mod p
        digit_add = sliding_window_view(np.tile(np.arange(p, dtype=dt), 2), p)[:p]
        add = np.zeros((1, 1), dt)
        for k in range(n):
            s = p ** k
            add = (digit_add[:, None, :, None] * s + add[None, :, None, :]).reshape(s * p, s * p)
        self.add_table = read_only(add)
        self.neg_table = read_only((add == 0).argmax(axis=1).astype(dt))
        # mul: g^i * g^j = g^(i+j), so the row of g^i is the window of exp
        # from i on, read at the columns' logs; the row and column of 0 are 0
        windows = sliding_window_view(np.tile(self.exp_table, 2), q - 1)
        mul = np.zeros((q, q), dt)
        block = max(1, (1 << 18) // q)  # rows per gather, so temporaries stay small
        for lo in range(1, q, block):
            rows = mul[lo : lo + block]
            windows[log[lo : lo + block]].take(log, axis=1, out=rows)
            rows[:, 0] = 0
        self.mul_table = read_only(mul)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self.exp_table.item(-self.log_table.item(a) % (self.q - 1))

    def dlog(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("discrete log of 0")
        return self.log_table.item(a)

    def exp(self, k: int) -> int:
        return self.exp_table.item(k % (self.q - 1))

    # -- presentation ------------------------------------------------------

    def render(self, a: int) -> str:
        """Integer for prime fields, descending polynomial string otherwise."""
        return str(a) if self.n == 1 else _render_poly(_enc_to_poly(a, self.p))

    def render_h(self) -> str:
        return _render_poly(self.h)

    def describe(self) -> str:
        return f"F_{self.q}"

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "h": list(self.h), "g": self.g}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        return cls(obj["p"], obj["n"], obj["h"], obj["g"])

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.n, self.h, self.g) == (other.p, other.n, other.h, other.g)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.h, self.g))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, n={self.n}, h={self.render_h()!r}, g={self.render(self.g)!r})"


def field_make(p: int, n: int) -> FieldSpec:
    """Canonical construction of F_{p^n}.

    For n = 1 the modulus is the unused placeholder x and g is the smallest
    primitive root mod p.  For n > 1, h is the smallest-encoding monic degree-n
    polynomial modulo which x has order q - 1 (so h is irreducible, and the
    printed tables stay stable), and g = x.
    """
    if not is_prime(p):
        raise NotPrime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if p ** n > MAX_Q:
        raise SizeBoundExceeded(f"q = {p ** n} exceeds bound {MAX_Q}")
    if n == 1:
        candidates = (((0, 1), g) for g in range(1, p))
    else:
        # h = x^n + (the polynomial of enc), whose encoding is p^n + enc; an
        # h with h_0 = enc % p = 0 is divisible by x, which is then no unit
        candidates = ((_enc_to_poly(p**n + enc, p), p) for enc in range(p**n) if enc % p)
    # the loop returns: F_p has a primitive root, and F_p[x] a primitive h
    for h, g in candidates:
        try:  # a refused (h, g) fails in the walk, before any table exists
            return FieldSpec(p, n, h, g)
        except ValueError:
            pass
