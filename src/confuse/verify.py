"""Exact correctness and perfect-security verification by enumeration.

Each scheme is tabulated once (_enc_tables, the only code that runs a
scheme's encoders over its support) into integer tables: per party an int32
id table (inputs x atoms) and a codebook of the distinct codewords sorted
lexicographically, so id order is codeword order, plus one int64 weight per
atom (all ones when unweighted).

Every scheme the program builds or loads has encoders with a batch form:
radix, the alphabet size of each codeword position, and symbols(w, i), input
w's codeword positions under the atoms at the index array i of enc.atoms,
the support the encoder was built over.  _intern passes every index of the
scheme's support at once and reads each input row as mixed-radix codes,
first position most significant, so code order is codeword order.  Only
caller-supplied callables, and encoders whose scheme's atoms were replaced
after construction, are still called once per atom.

An input pair's codeword-pair distribution is its ascending int64 outcome
keys id1 * len(book2) + id2 with exact int64 weight sums, counted once per
pair: by np.add.at into one int64 cell per possible key when there are at
most as many keys, len(book1) * len(book2), as support elements, and by
sorting the elements' keys otherwise, where a dense array would dwarf the
support.  These per-pair counts are the one interface of the correctness,
security and leakage passes.  They come from the full tabulation, or from a
reduced per-pair support when the scheme's shared encoder carries one
(crt-equal): per input pair, both parties' codes and int64 weights over
fewer images than atoms, with the same total weight, and a map from an image
back to the least atom of the full support it stands for, so witnesses are
those of the full support.  Such a scheme is verified without tabulating;
the serializer and the optimized rates still read the full tabulation.
Supports past MAX_ATOMS_MATERIALIZED atoms, or whose total weight does not
fit an int64, raise SizeBoundExceeded before any encoder runs; a reduced
support's scheme constructor refuses one past MAX_PAIR_SUPPORT images per
input pair.

All pass/fail decisions run on integer counts over the weighted randomness
lattice; floats only appear when leakage is rendered in bits.  Witnesses
always name the lexicographically smallest failing instance so regression
tests can pin them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, log2, prod

import numpy as np

from .errors import SchemaError, SizeBoundExceeded

MAX_ATOMS_MATERIALIZED = 300_000
MAX_PAIR_SUPPORT = 32_768  # images of one input pair's reduced support
MAX_TOTAL_WEIGHT = 2**63 - 1  # the largest int64 count


class _PairCounts:
    """Per-input-pair outcome counts over a support that gives each input
    pair one id per party into book1 and book2 and one int64 weight per
    element: an atom of the full support, or an image of a reduced one.
    total is the support's total weight, the same for every pair."""

    def __init__(self, book1, book2, total: int):
        self.book1, self.book2, self.total = book1, book2, total
        self._counts = {}

    def keys(self, w1: int, w2: int) -> np.ndarray:
        """One input pair's outcome key per element, in support order."""
        ids1, ids2, _ = self.support(w1, w2)
        return ids1.astype(np.int64) * len(self.book2) + ids2

    def counts(self, w1: int, w2: int):
        """(keys, counts): one input pair's distinct outcome keys ascending
        and their int64 weight sums, counted once per pair.  With at most
        as many possible keys as elements they are summed into one cell per
        key; past that the elements' keys are sorted and summed per run."""
        pair = self._counts.get((w1, w2))
        if pair is None:
            ids1, ids2, weights = self.support(w1, w2)
            keys = ids1.astype(np.int64) * len(self.book2) + ids2
            cells = len(self.book1) * len(self.book2)
            if cells <= len(keys):
                dense = np.zeros(cells, np.int64)
                np.add.at(dense, keys, weights)
                present = np.flatnonzero(dense)
                pair = present, dense[present]
            else:
                order = np.argsort(keys)
                keys = keys[order]
                first = np.empty(len(keys), bool)  # the first element of each key
                first[0] = True
                np.not_equal(keys[1:], keys[:-1], out=first[1:])
                starts = first.nonzero()[0]
                pair = keys[starts], np.add.reduceat(weights[order], starts)
            self._counts[(w1, w2)] = pair
        return pair

    def outcomes(self, keys: np.ndarray) -> list:
        """The codeword pairs (c1, c2) that outcome keys stand for."""
        i1, i2 = np.divmod(keys, len(self.book2))
        book1, book2 = self.book1, self.book2
        return [(book1[a], book2[b]) for a, b in zip(i1.tolist(), i2.tolist())]


class EncTables(_PairCounts):
    """A scheme's encoders over its full support as integer tables."""

    def __init__(self, atoms, weights, ids1, book1, ids2, book2):
        super().__init__(book1, book2, int(weights.sum()))
        self.atoms = atoms
        self.weights = weights
        self.ids1, self.ids2 = ids1, ids2

    def support(self, w1: int, w2: int):
        return self.ids1[w1], self.ids2[w2], self.weights

    def first_failure(self, w1: int, w2: int, bad: list) -> tuple:
        """(atom, key): the first atom in atom order whose outcome key is
        in bad."""
        keys = self.keys(w1, w2)
        i = int(np.flatnonzero(np.isin(keys, bad))[0])
        return self.atoms[i], int(keys[i])


class _ReducedTables(_PairCounts):
    """Per-pair counts from a shared encoder's reduced per-pair support:
    pair_book, the ascending codes of every codeword it takes (its
    codebook), pair_support(w1, w2), both parties' codes and int64 weights
    per image, and first_atoms(w1, w2, images), the least full-support atom
    index each image stands for.  Every pair's weights sum to the unweighted
    full support's total, len(atoms)."""

    def __init__(self, enc):
        book = _codewords(enc.pair_book, enc.radix)
        super().__init__(book, book, len(enc.atoms))
        self.enc = enc

    def support(self, w1: int, w2: int):
        codes1, codes2, weights = self.enc.pair_support(w1, w2)
        codes = self.enc.pair_book
        return np.searchsorted(codes, codes1), np.searchsorted(codes, codes2), weights

    def first_failure(self, w1: int, w2: int, bad: list) -> tuple:
        """(atom, key): the least full-support atom over every image whose
        outcome key is in bad; not the first such image."""
        keys = self.keys(w1, w2)
        images = np.flatnonzero(np.isin(keys, bad))
        atom, i = min(zip(self.enc.first_atoms(w1, w2, images), images.tolist()))
        return self.enc.atoms[atom], int(keys[i])


def _pair_tables(scheme) -> _PairCounts:
    """The per-pair counts the verifier's passes read, kept on the scheme:
    the reduced support of a shared encoder that carries one, when the
    scheme uses it over the encoder's own unweighted atoms, else the full
    tabulation of _enc_tables."""
    enc = scheme.enc1
    if not (hasattr(enc, "pair_support") and scheme.enc2 is enc
            and scheme.atoms is enc.atoms and scheme.weights is None):
        return _enc_tables(scheme)
    cache = getattr(scheme, "_pair_cache", None)
    if cache is None:
        cache = scheme._pair_cache = _ReducedTables(enc)
    return cache


class _Ids(dict):
    """Codeword -> id, a new codeword taking the next id on first lookup."""

    def __missing__(self, codeword):
        self[codeword] = i = len(self)
        return i


def _intern(enc, m: int, atoms):
    """(ids, book): enc over inputs x atoms as int32 ids into the sorted
    distinct codewords.  An encoder with a batch form over these very atoms
    is read one input row at a time as lexicographic codes, ranked in
    place; any other is called per atom and each codeword interned as it
    returns it."""
    if hasattr(enc, "symbols") and enc.atoms is atoms:
        return _intern_codes(enc, m, np.arange(len(atoms)))
    index = _Ids()
    ids = np.empty((m, len(atoms)), np.int32)
    for w in range(m):
        ids[w] = [index[enc(w, a)] for a in atoms]
    book = sorted(index)
    rank = np.empty(len(book), np.int32)
    rank[[index[cw] for cw in book]] = np.arange(len(book), dtype=np.int32)
    return rank[ids], book


def _intern_codes(enc, m: int, atoms: np.ndarray):
    """_intern's batch path: each row's codewords as mixed-radix codes over
    enc.radix, first position most significant, so code order is codeword
    order; ids are the ranks of the codes present."""
    radix = enc.radix
    ids = np.empty((m, len(atoms)), np.int32)
    present = np.zeros(prod(radix), bool)
    for w, row in enumerate(ids):
        row[...] = np.ravel_multi_index(enc.symbols(w, atoms), radix)
        present[row] = True
    codes = np.flatnonzero(present)
    rank = np.cumsum(present, dtype=np.int32)  # a present code's rank, plus one
    rank -= 1
    for row in ids:
        row[...] = rank[row]
    return ids, _codewords(codes, radix)


def _codewords(codes: np.ndarray, radix) -> list:
    """Mixed-radix codes over radix, first position most significant, as
    codeword tuples."""
    return list(zip(*(d.tolist() for d in np.unravel_index(codes, radix))))


def _enc_tables(scheme) -> EncTables:
    """The scheme's EncTables, kept on the scheme (schemes are immutable
    after construction).  Every encoder is evaluated once per (input, atom),
    by its batch form when it has one, and a scheme whose enc2 is its enc1
    over the same inputs is tabulated once; supports past
    MAX_ATOMS_MATERIALIZED, or weighing more than MAX_TOTAL_WEIGHT in all,
    raise SizeBoundExceeded, and a weight below 1 SchemaError, before any
    encoder runs."""
    cache = getattr(scheme, "_enc_cache", None)
    if cache is not None:
        return cache
    atoms = scheme.atoms
    if len(atoms) > MAX_ATOMS_MATERIALIZED:
        raise SizeBoundExceeded(
            f"{len(atoms)} atoms exceed the exact-verification cap of {MAX_ATOMS_MATERIALIZED}"
        )
    if scheme.weights is not None:
        # positive weights keep every partial sum within the total, and
        # every outcome that occurs at a nonzero count
        if min(scheme.weights) < 1:
            raise SchemaError("weights must be positive integers")
        if sum(scheme.weights) > MAX_TOTAL_WEIGHT:
            raise SizeBoundExceeded(
                f"total weight {sum(scheme.weights)} exceeds the int64 count bound {MAX_TOTAL_WEIGHT}"
            )
    ids1, book1 = _intern(scheme.enc1, scheme.m1, atoms)
    if scheme.enc2 is scheme.enc1 and scheme.m2 == scheme.m1:
        ids2, book2 = ids1, book1
    else:
        ids2, book2 = _intern(scheme.enc2, scheme.m2, atoms)
    # built after interning, so it never coexists with an interning scratch
    weights = (np.ones(len(atoms), np.int64) if scheme.weights is None
               else np.array(scheme.weights, np.int64))
    scheme._enc_cache = EncTables(atoms, weights, ids1, book1, ids2, book2)
    return scheme._enc_cache


def _require_shape(scheme, f) -> None:
    """Refuse, before anything is tabulated, a scheme over other inputs
    than the table's."""
    if (scheme.m1, scheme.m2) != (f.m1, f.m2):
        raise SchemaError(
            f"the scheme takes {scheme.m1} x {scheme.m2} inputs but the table is {f.m1} x {f.m2}"
        )


@dataclass
class CorrectnessResult:
    ok: bool
    witness: tuple | None = None  # (w1, w2, atom, decoded, expected)

    def __bool__(self):
        return self.ok


@dataclass
class SecurityResult:
    ok: bool
    witness: tuple | None = None  # ((w1,w2), (w1',w2'), differing outcome)

    def __bool__(self):
        return self.ok


def verify_correct(scheme, f) -> CorrectnessResult:
    """dec(enc1, enc2) must reproduce f on every input pair and atom.

    dec runs once per distinct outcome key of the scheme, shared by every
    input pair it occurs in; the witness names the first pair's first atom
    of the full support with a failing outcome."""
    _require_shape(scheme, f)
    t = _pair_tables(scheme)
    dec = scheme.dec
    decoded = {}  # outcome key -> dec of its codeword pair
    for w1 in range(f.m1):
        for w2 in range(f.m2):
            expected = f.outputs[w1][w2]
            keys = t.counts(w1, w2)[0].tolist()
            new = [k for k in keys if k not in decoded]
            outcomes = t.outcomes(np.array(new, np.int64))
            decoded.update(zip(new, [dec(c1, c2) for c1, c2 in outcomes]))
            bad = [k for k in keys if decoded[k] != expected]
            if bad:
                atom, key = t.first_failure(w1, w2, bad)
                return CorrectnessResult(False, (w1, w2, atom, decoded[key], expected))
    return CorrectnessResult(True)


def _groups_by_output(f):
    groups: dict[int, list[tuple[int, int]]] = {}
    for w1 in range(f.m1):
        for w2 in range(f.m2):
            groups.setdefault(f.outputs[w1][w2], []).append((w1, w2))
    return groups


def verify_secure(scheme, f) -> SecurityResult:
    """Within every group of input pairs sharing an output, the codeword-pair
    distributions must be identical.  Every pair's counts sum to the same
    total weight, so the raw int64 counts are compared; the witness outcome
    is the smallest key whose counts differ."""
    _require_shape(scheme, f)
    return _compare_groups(_pair_tables(scheme), f)


def _compare_groups(t: _PairCounts, f) -> SecurityResult:
    """verify_secure's comparison of every output group's counts."""
    groups = _groups_by_output(f)
    for label in sorted(groups):
        pairs = groups[label]
        if len(pairs) < 2:
            continue
        ref_keys, ref_counts = t.counts(*pairs[0])
        for other in pairs[1:]:
            keys, counts = t.counts(*other)
            if np.array_equal(keys, ref_keys) and np.array_equal(counts, ref_counts):
                continue
            ref = dict(zip(ref_keys.tolist(), ref_counts.tolist()))
            dist = dict(zip(keys.tolist(), counts.tolist()))
            key = min(k for k in ref.keys() | dist.keys() if ref.get(k) != dist.get(k))
            (outcome,) = t.outcomes(np.array([key]))
            return SecurityResult(False, (pairs[0], other, outcome))
    return SecurityResult(True)


@dataclass
class LeakageResult:
    exact_zero: bool
    bits: float


def uniform_input_dist(f) -> dict[tuple[int, int], Fraction]:
    p = Fraction(1, f.m1 * f.m2)
    return {(w1, w2): p for w1 in range(f.m1) for w2 in range(f.m2)}


def leakage(scheme, f, input_dist: dict[tuple[int, int], Fraction],
            secure: SecurityResult | None = None) -> LeakageResult:
    """Conditional mutual information between the codewords and the inputs
    given the output, for one rational input distribution.

    With every probability n_w / D over one common denominator D and T the
    total weight, the ratio P(w, x | f) / (P(w | f) P(x | f)) is the exact
    integer ratio c_w(x) * n_f / sum_w' n_w' c_w'(x); log2 is applied only to
    ratios that are not exactly 1, so a secure scheme yields exactly 0.0.
    exact_zero is secure's verdict, the security comparison over the same
    counts, made here when secure is not given.
    """
    if any(p < 0 for p in input_dist.values()) or sum(input_dist.values()) != 1:
        raise ValueError("input_dist must be a distribution")
    _require_shape(scheme, f)
    t = _pair_tables(scheme)
    denom = lcm(*(p.denominator for p in input_dist.values()))
    mass_of = {w: p.numerator * (denom // p.denominator) for w, p in input_dist.items() if p > 0}
    scale = denom * t.total
    bits = 0.0
    for label, pairs in sorted(_groups_by_output(f).items()):
        pairs = [w for w in pairs if w in mass_of]
        n_f = sum(mass_of[w] for w in pairs)
        rows = [dict(zip(*(a.tolist() for a in t.counts(*w)))) for w in pairs]
        # sum over the group of n_w * c_w(x), per outcome x
        joint: dict = {}
        for w, row in zip(pairs, rows):
            for o, c in row.items():
                joint[o] = joint.get(o, 0) + mass_of[w] * c
        for w, row in zip(pairs, rows):
            for o, c in row.items():
                if c * n_f != joint[o]:
                    bits += (mass_of[w] * c / scale) * log2(c * n_f / joint[o])
    # the boolean never consults the float: structural identity decides
    if secure is None:
        secure = _compare_groups(t, f)
    return LeakageResult(secure.ok, bits)


@dataclass
class VerificationReport:
    correct: CorrectnessResult
    secure: SecurityResult
    leak: LeakageResult
    rates: tuple

    @property
    def ok(self) -> bool:
        return self.correct.ok and self.secure.ok

    def to_json(self) -> dict:
        display_bits = 0.0 if abs(self.leak.bits) < 1e-12 else self.leak.bits
        return {
            "correct": self.correct.ok,
            "correctness_witness": _jsonable(self.correct.witness),
            "secure": self.secure.ok,
            "security_witness": _jsonable(self.secure.witness),
            "leakage_exact_zero": self.leak.exact_zero,
            "leakage_bits": display_bits,
            "rate1": self.rates[0].to_json(),
            "rate2": self.rates[1].to_json(),
        }


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return repr(obj)


def verify_scheme(scheme, f, input_dist=None) -> VerificationReport:
    if input_dist is None:
        input_dist = uniform_input_dist(f)
    correct = verify_correct(scheme, f)
    secure = verify_secure(scheme, f)
    return VerificationReport(
        correct=correct,
        secure=secure,
        leak=leakage(scheme, f, input_dist, secure),
        rates=(scheme.rate1, scheme.rate2),
    )
