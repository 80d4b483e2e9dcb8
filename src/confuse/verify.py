"""Exact correctness and perfect-security verification by enumeration.

Every encoder is a code table over the support it was built over, atoms:
table[w, i] is the codeword of input w under atom i as its mixed-radix code
over radix (the alphabet size of each position), first position most
significant, so code order is codeword order; tuples are rendered only for
a security witness.  A table may be built on first read, so nothing reads
one before the size checks below.  A scheme's dec takes broadcastable int64
code arrays and returns int64 labels, -1 for a pair it cannot decode.

An outcome is keyed by its raw code pair, code1 * prod(radix2) + code2, so
key order is code-pair order; a scheme whose key space prod(radix1) *
prod(radix2) passes MAX_TOTAL_WEIGHT, the largest int64, raises
SizeBoundExceeded before any count is made.  An input pair's codeword-pair
distribution is its ascending keys with exact int64 weight sums, counted
once per pair: by np.add.at into one int64 cell per possible key when there
are at most as many keys as support elements, and by sorting the elements'
keys otherwise, where a dense array would dwarf the support.  These
per-pair counts, the one cache a scheme keeps (reused while its atoms and
weights are the objects they were built from), are the one interface of
the correctness (one dec call per pair, over its distinct keys), security
and leakage passes.

The counts come from the full tabulation, _enc_tables: each encoder's
table read in place, or at the columns of the scheme's atoms when those
were replaced after it was built (an atom outside the encoder's support
raises SchemaError), plus one int64 weight per atom.  Or they come from a
reduced per-pair support when the scheme's shared encoder carries one
(crt-equal): per input pair, both parties' codes and int64 weights over
fewer images than atoms, with the same total weight, and a map from an
image back to the least atom of the full support it stands for, so
witnesses are those of the full support.  Such a scheme is verified without
tabulating; the serializer and the optimized rates still read the full
tabulation.  Supports past MAX_ATOMS_MATERIALIZED atoms, or whose total
weight does not fit an int64, raise SizeBoundExceeded before any table is
read; a reduced support's scheme constructor refuses one past
MAX_PAIR_SUPPORT images per input pair.

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
MAX_TOTAL_WEIGHT = 2**63 - 1  # the largest int64: a count or an outcome key


class _PairCounts:
    """Per-input-pair outcome counts over a support that gives each input
    pair, through support(w1, w2), one code per party over radix1 and
    radix2 and one int64 weight per element: an atom of the full support,
    or an image of a reduced one.  total is the support's total weight, the
    same for every pair.  A key space past an int64 raises
    SizeBoundExceeded here, before any count."""

    def __init__(self, radix1, radix2, total: int):
        self.radix1, self.radix2, self.total = radix1, radix2, total
        self.n2 = prod(radix2)
        self.cells = prod(radix1) * self.n2
        if self.cells > MAX_TOTAL_WEIGHT:
            raise SizeBoundExceeded(
                f"{self.cells} code pairs exceed the int64 key bound {MAX_TOTAL_WEIGHT}"
            )
        self._counts = {}

    def keys(self, w1: int, w2: int) -> np.ndarray:
        """One input pair's outcome key per element, in support order."""
        codes1, codes2, _ = self.support(w1, w2)
        return codes1.astype(np.int64) * self.n2 + codes2

    def counts(self, w1: int, w2: int):
        """(keys, counts): one input pair's distinct outcome keys ascending
        and their int64 weight sums, counted once per pair.  With at most
        as many possible keys as elements they are summed into one cell per
        key; past that the elements' keys are sorted and summed per run."""
        pair = self._counts.get((w1, w2))
        if pair is None:
            codes1, codes2, weights = self.support(w1, w2)
            keys = codes1.astype(np.int64) * self.n2 + codes2
            if self.cells <= len(keys):
                dense = np.zeros(self.cells, np.int64)
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
        """The codeword pairs (c1, c2) that outcome keys stand for, as tuples."""
        codes1, codes2 = np.divmod(keys, self.n2)
        return list(zip(_codewords(codes1, self.radix1), _codewords(codes2, self.radix2)))


class EncTables(_PairCounts):
    """A scheme's encoders over its full support: codes1 and codes2, the
    (inputs, atoms) code tables of each party, and one int64 weight per
    atom."""

    def __init__(self, scheme, weights: np.ndarray):
        enc1, enc2 = scheme.enc1, scheme.enc2
        super().__init__(enc1.radix, enc2.radix, int(weights.sum()))
        self.atoms, self.weights = scheme.atoms, weights
        self.codes1 = _columns(enc1, self.atoms)
        self.codes2 = self.codes1 if enc2 is enc1 else _columns(enc2, self.atoms)

    def support(self, w1: int, w2: int):
        return self.codes1[w1], self.codes2[w2], self.weights

    def first_failure(self, w1: int, w2: int, bad) -> tuple:
        """(atom, key): the first atom in atom order whose outcome key is
        in bad."""
        keys = self.keys(w1, w2)
        i = int(np.flatnonzero(np.isin(keys, bad))[0])
        return self.atoms[i], int(keys[i])


class _ReducedTables(_PairCounts):
    """Per-pair counts from a shared encoder's reduced per-pair support:
    pair_support(w1, w2), both parties' codes and int64 weights per image,
    and first_atoms(w1, w2, images), the least full-support atom index each
    image stands for.  Every pair's weights sum to the unweighted full
    support's total, len(atoms)."""

    def __init__(self, enc):
        super().__init__(enc.radix, enc.radix, len(enc.atoms))
        self.enc = enc
        self.support = enc.pair_support

    def first_failure(self, w1: int, w2: int, bad) -> tuple:
        """(atom, key): the least full-support atom over every image whose
        outcome key is in bad; not the first such image."""
        keys = self.keys(w1, w2)
        images = np.flatnonzero(np.isin(keys, bad))
        atom, i = min(zip(self.enc.first_atoms(w1, w2, images), images.tolist()))
        return self.enc.atoms[atom], int(keys[i])


def _pair_tables(scheme) -> _PairCounts:
    """The per-pair counts the verifier's passes read, kept on the scheme
    while its atoms and weights are the objects they were built from: the
    reduced support of a shared encoder that carries one, when the scheme
    uses it over the encoder's own unweighted atoms, else the full
    tabulation of _enc_tables."""
    atoms, weights = scheme.atoms, scheme.weights
    cache = getattr(scheme, "_pair_counts", None)
    if cache is not None and cache[0] is atoms and cache[1] is weights:
        return cache[2]
    enc = scheme.enc1
    if (hasattr(enc, "pair_support") and scheme.enc2 is enc
            and atoms is enc.atoms and weights is None):
        tables = _ReducedTables(enc)
    else:
        tables = _enc_tables(scheme)
    scheme._pair_counts = atoms, weights, tables
    return tables


def _columns(enc, atoms) -> np.ndarray:
    """enc's code table over atoms: the table itself over enc.atoms, else
    the column of each atom's index in enc.atoms.  An atom outside enc.atoms
    raises SchemaError before the table is read."""
    if atoms is enc.atoms:
        return enc.table
    index = {a: i for i, a in enumerate(enc.atoms)}
    try:
        columns = [index[a] for a in atoms]
    except KeyError as e:
        raise SchemaError(f"atom {e.args[0]!r} lies outside the encoder's support") from None
    return enc.table[:, columns]


def _codewords(codes: np.ndarray, radix) -> list:
    """Mixed-radix codes over radix, first position most significant, as
    codeword tuples."""
    return list(zip(*(d.tolist() for d in np.unravel_index(codes, radix))))


def _enc_tables(scheme) -> EncTables:
    """The scheme's full tabulation.  Supports past MAX_ATOMS_MATERIALIZED,
    or weighing more than MAX_TOTAL_WEIGHT in all, and key spaces past an
    int64 raise SizeBoundExceeded, and a weight below 1 SchemaError, before
    any table is read."""
    atoms, given = scheme.atoms, scheme.weights
    if len(atoms) > MAX_ATOMS_MATERIALIZED:
        raise SizeBoundExceeded(
            f"{len(atoms)} atoms exceed the exact-verification cap of {MAX_ATOMS_MATERIALIZED}"
        )
    if given is not None:
        # positive weights keep every partial sum within the total, and
        # every outcome that occurs at a nonzero count
        if min(given) < 1:
            raise SchemaError("weights must be positive integers")
        if sum(given) > MAX_TOTAL_WEIGHT:
            raise SizeBoundExceeded(
                f"total weight {sum(given)} exceeds the int64 count bound {MAX_TOTAL_WEIGHT}"
            )
    weights = np.ones(len(atoms), np.int64) if given is None else np.array(given, np.int64)
    return EncTables(scheme, weights)


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

    dec runs once per input pair, over that pair's distinct outcome keys;
    the witness names the first pair's first atom of the full support with
    a failing outcome."""
    _require_shape(scheme, f)
    t = _pair_tables(scheme)
    for w1 in range(f.m1):
        for w2 in range(f.m2):
            expected = f.outputs[w1][w2]
            keys = t.counts(w1, w2)[0]
            labels = scheme.dec(*np.divmod(keys, t.n2))
            bad = keys[labels != expected]
            if len(bad):
                atom, key = t.first_failure(w1, w2, bad)
                decoded = int(labels[np.searchsorted(keys, key)])
                return CorrectnessResult(False, (w1, w2, atom, decoded, expected))
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
    ratios that are not exactly 1.  exact_zero is secure's verdict, the
    security comparison over the same counts, made here when secure is not
    given.  A secure verdict means every group's counts agree, so every
    ratio is 1 and the bits are 0.0 without reading a count.
    """
    if any(p < 0 for p in input_dist.values()) or sum(input_dist.values()) != 1:
        raise ValueError("input_dist must be a distribution")
    _require_shape(scheme, f)
    t = _pair_tables(scheme)
    if secure is None:
        secure = _compare_groups(t, f)
    if secure.ok:
        return LeakageResult(True, 0.0)
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
    return LeakageResult(False, bits)


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
