"""Arithmetic in F_{p^n}, and the table-backed arithmetic fields and rings share.

Elements are encoded as integers: the polynomial a_0 + a_1 x + ... + a_{n-1}
x^{n-1} with coefficients in {0..p-1} is the integer sum(a_i * p^i).  The
encoding is a bijection with range(q), q = p^n, and reduces to plain integers
mod p when n = 1.

Every carrier, F_q here and Z_n in rings.py, answers add/sub/neg/mul from
dense add and mul tables plus a neg vector (TableCarrier).  A field builds
them once from base-p digits and its discrete-log tables, which serve only
construction, inverses and the confusable-set partition afterwards.
Everything is immutable after construction, so specs are safe to share
across threads.
"""

from __future__ import annotations

from array import array

import numpy as np

from .errors import DivisionByZero, NotPrime, SizeBoundExceeded

MAX_Q = 4096


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def prime_power(m: int):
    """Return (p, n) with m = p^n, or None if m is not a prime power."""
    if m < 2:
        return None
    d = 2
    while d * d <= m:
        if m % d == 0:
            n = 0
            while m % d == 0:
                m //= d
                n += 1
            return (d, n) if m == 1 else None
        d += 1
    return (m, 1)


# ---------------------------------------------------------------------------
# polynomial helpers over F_p; coefficient tuples, a_0 first
# ---------------------------------------------------------------------------

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mulmod(a, b, h, p):
    """(a * b) mod h over F_p.  h is monic."""
    n = len(h) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by h: x^n = -(h_0 + h_1 x + ... + h_{n-1} x^{n-1})
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c == 0:
            continue
        prod[k] = 0
        for j in range(n):
            prod[k - n + j] = (prod[k - n + j] - c * h[j]) % p
    return _poly_trim(prod)


def _poly_mod(a, d, p):
    """a mod d over F_p, for monic d."""
    r = list(a)
    dd = len(d) - 1
    for k in range(len(r) - 1, dd - 1, -1):
        c = r[k]
        if c == 0:
            continue
        r[k] = 0
        for j in range(dd):
            r[k - dd + j] = (r[k - dd + j] - c * d[j]) % p
    return _poly_trim(r)


def _poly_divides(d, a, p):
    """True if monic d divides a over F_p."""
    return not _poly_mod(a, d, p)


def _enc_to_poly(enc, p, n):
    coeffs = []
    for _ in range(n):
        coeffs.append(enc % p)
        enc //= p
    return _poly_trim(coeffs)


def _poly_to_enc(coeffs, p):
    enc = 0
    for c in reversed(coeffs):
        enc = enc * p + c
    return enc


def _is_irreducible(h, p):
    """Trial division by every lower-degree monic divisor candidate."""
    n = len(h) - 1
    if n == 1:
        return True
    for deg in range(1, n // 2 + 1):
        for enc in range(p ** deg):
            d = list(_enc_to_poly(enc, p, deg)) + [0] * (deg - len(_enc_to_poly(enc, p, deg)))
            d = tuple(d[:deg]) + (1,)
            if _poly_divides(d, h, p):
                return False
    return True


# ---------------------------------------------------------------------------
# table-backed carrier arithmetic, shared by fields and rings
# ---------------------------------------------------------------------------

def table_dtype(size: int):
    """Smallest unsigned dtype holding every integer below size, such as
    the elements of a carrier of that size."""
    return np.uint8 if size <= 1 << 8 else np.uint16 if size <= 1 << 16 else np.uint32


def _row(values: np.ndarray):
    # bytes or array('H'): one or two bytes per entry, Python ints on lookup
    return values.tobytes() if values.dtype == np.uint8 else array("H", values.tobytes())


def carrier_tables(add: np.ndarray, mul: np.ndarray):
    """(add_table, neg_table, mul_table) in TableCarrier's storage, from
    dense numpy add and mul tables of one carrier."""
    neg = (add == 0).argmax(axis=1).astype(add.dtype)
    return [_row(r) for r in add], _row(neg), [_row(r) for r in mul]


class TableCarrier:
    """Carrier arithmetic read from dense tables built once per carrier.

    Subclasses set add_table and mul_table (one row per element) and
    neg_table, as made by carrier_tables; every lookup is a Python int.
    """

    @property
    def size(self) -> int:
        return len(self.neg_table)

    def elements(self):
        return range(self.size)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def arrays(self):
        """(add, neg, mul) as read-only numpy copies, entries in
        table_dtype(size)."""
        q = self.size
        dt = table_dtype(q)
        add = np.frombuffer(b"".join(self.add_table), dt).reshape(q, q)
        mul = np.frombuffer(b"".join(self.mul_table), dt).reshape(q, q)
        return add, np.frombuffer(bytes(self.neg_table), dt), mul


# ---------------------------------------------------------------------------
# field spec
# ---------------------------------------------------------------------------

class FieldSpec(TableCarrier):
    """A concrete F_{p^n}: irreducible modulus h, primitive element g.

    Exponentiation and discrete-log tables cover all of F_q^x; they build the
    mul table and serve exp/dlog/inv.  The add table comes from base-p
    digits.  At q = 4096 each table has 16,777,216 two-byte entries.  Do not
    mutate anything after construction.
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
        if n > 1 and not _is_irreducible(h, p):
            raise ValueError(f"h = {h} is reducible over F_{p}")
        self.p = p
        self.n = n
        self.q = q
        self.h = h
        self.g = int(g)
        self._build_tables()

    def _build_tables(self):
        p, n, q = self.p, self.n, self.q
        if not 0 < self.g < q:
            raise ValueError("g out of range")
        exp = [1]
        cur = _enc_to_poly(1, p, n)
        gp = _enc_to_poly(self.g, p, n)
        for _ in range(q - 2):
            cur = _poly_mulmod(cur, gp, self.h, p)
            exp.append(_poly_to_enc(cur, p))
        if len(set(exp)) != q - 1:
            raise ValueError(f"g = {self.g} does not generate F_{q}^x")
        self._exp = exp
        self._dlog = {e: k for k, e in enumerate(exp)}
        dt = table_dtype(q)
        # add: one base-p digit at a time, each new digit the most significant
        digit_add = ((np.arange(p)[:, None] + np.arange(p)) % p).astype(dt)
        add = np.zeros((1, 1), dt)
        for k in range(n):
            s = p ** k
            add = (digit_add[:, None, :, None] * s + add[None, :, None, :]).reshape(s * p, s * p)
        # each table becomes rows before the next is built, so at most one
        # numpy table lives next to the rows
        self.neg_table = _row((add == 0).argmax(axis=1).astype(dt))
        self.add_table = [_row(r) for r in add]
        del add
        # mul: g^i * g^j = g^(i+j), a circulant in discrete-log coordinates;
        # the row of g^i holds exp[i:] + exp[:i] at the columns exp
        e = np.array(exp, dtype=dt)
        ee = np.concatenate([e, e])
        row = np.zeros(q, dt)
        self.mul_table = [None] * q
        self.mul_table[0] = _row(row)
        for i, a in enumerate(exp):
            row[e] = ee[i : i + q - 1]
            self.mul_table[a] = _row(row)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self._exp[(-self._dlog[a]) % (self.q - 1)]

    def dlog(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("discrete log of 0")
        return self._dlog[a]

    def exp(self, k: int) -> int:
        return self._exp[k % (self.q - 1)]

    # -- presentation ------------------------------------------------------

    def render(self, a: int) -> str:
        """Integer for prime fields, descending polynomial string otherwise."""
        if self.n == 1:
            return str(a)
        if a == 0:
            return "0"
        terms = []
        coeffs = list(_enc_to_poly(a, self.p, self.n))
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return "+".join(terms)

    def render_h(self) -> str:
        terms = []
        for i in range(self.n, -1, -1):
            c = self.h[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return "+".join(terms)

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


def _x_order_is_full(h, p, n) -> bool:
    """True when x generates all q-1 nonzero elements mod h."""
    q = p ** n
    x = _enc_to_poly(p, p, n)
    cur = x
    steps = 1
    while _poly_to_enc(cur, p) != 1:
        cur = _poly_mulmod(cur, x, h, p)
        steps += 1
        if steps > q:
            return False
    return steps == q - 1


def field_make(p: int, n: int) -> FieldSpec:
    """Canonical construction of F_{p^n}.

    For n = 1 the modulus is the unused placeholder x and g is the smallest
    primitive root mod p.  For n > 1, h is the smallest-encoding monic degree-n
    polynomial that is irreducible with x a generator of the multiplicative
    group (so the printed tables stay stable), and g = x.
    """
    if not is_prime(p):
        raise NotPrime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if p ** n > MAX_Q:
        raise SizeBoundExceeded(f"q = {p ** n} exceeds bound {MAX_Q}")
    if n == 1:
        h = (0, 1)
        g = 1
        if p > 2:
            for cand in range(2, p):
                seen = set()
                cur = 1
                for _ in range(p - 1):
                    cur = (cur * cand) % p
                    seen.add(cur)
                if len(seen) == p - 1:
                    g = cand
                    break
        return FieldSpec(p, n, h, g)
    for enc in range(p ** n):
        low = _enc_to_poly(enc, p, n)
        h = tuple(list(low) + [0] * (n - len(low)) + [1])
        if not _is_irreducible(h, p):
            continue
        if _x_order_is_full(h, p, n):
            return FieldSpec(p, n, h, p)
    raise RuntimeError(f"no primitive modulus found for p={p}, n={n}")  # unreachable
