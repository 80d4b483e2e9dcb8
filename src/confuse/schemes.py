"""Concrete scheme constructions.

A Scheme packages the shared-randomness support (atoms with integer weights),
both encoders, the decoder, and exact rates.  Every encoder is a code table
over the support it was built over, the form the verifier reads: atoms, radix
(the alphabet size of each codeword position) and table, whose entry [w, i]
is the mixed-radix code (first position most significant) of input w's
codeword under atom i.  The masked-sum, row-mask baseline and loaded
schemes are _TableEncoders: the masked-sum table is
masked_values, gathered from the carrier's add and mul tables on first read,
after the verifier's size checks, and the others are built or read whole.
crt-equal's encoder builds its table on first read from its table of value
codes, and also carries the verifier's reduced per-pair support, so it is
verified without enumerating permutations.  dec reads int64 code arrays
into int64 labels, -1 where no input pair lands.

Codebooks, the distinct codes an encoder takes, are read only where they are
needed: the serializer's compact alphabets and the optimized rates.  The
serializer writes each atom as the tuple it is, each codeword in its compact
symbols and its decoder rows from one dec call.  Supports past
MAX_ATOMS_MATERIALIZED atoms are refused before any table is read, and the
row-mask baseline refuses one before building it.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field as dc_field
from math import factorial, prod
from typing import Callable, Sequence

import numpy as np

from .errors import SchemaError, SizeBoundExceeded, TotalityError
from .expansion import FeasibleExpansion, FunctionTable
from .fields import field_make, table_dtype
from .rates import Rate, factorize
from .rings import closure_subgroups
from .verify import MAX_ATOMS_MATERIALIZED, MAX_PAIR_SUPPORT, _codewords, _enc_tables, verify_secure

MAX_ALL_SUBSETS_CARRIER = 13  # largest carrier whose every noise subset is tried


@dataclass
class Scheme:
    m1: int
    m2: int
    atoms: Sequence
    weights: Sequence[int] | None
    enc1: _TableEncoder | _CrtEncoder  # a code table: atoms, radix and table
    enc2: _TableEncoder | _CrtEncoder
    dec: Callable
    rate1: Rate
    rate2: Rate
    kind: str
    expansion: FeasibleExpansion | None = None
    meta: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# masked-sum scheme built from a feasible expansion
# ---------------------------------------------------------------------------

def scheme_from_expansion(exp: FeasibleExpansion, z_values=None) -> Scheme:
    """X1 = gamma * map1[W1] + z, X2 = gamma * map2[W2] - z; the decoder adds
    the codewords and reads the label of the sum's confusable set.

    gamma is uniform over the structure's randomizer; z is uniform over
    z_values (the whole carrier by default).  With z_values given, the rates
    count the distinct codewords in the encoders' tables.
    """
    st = exp.structure
    carrier = st.carrier
    zs = list(carrier.elements()) if z_values is None else sorted(z_values)
    atoms = [(g, z) for g in st.randomizer for z in zs]
    map1, map2 = exp.map1, exp.map2
    radix = (carrier.size,)  # a codeword is one carrier element, its own code
    enc1 = _TableEncoder(functools.partial(masked_values, carrier, atoms, map1, False), radix, atoms)
    enc2 = _TableEncoder(functools.partial(masked_values, carrier, atoms, map2, True), radix, atoms)
    # each element's label: its confusable set's, or -1 in a set no input pair reaches
    cell = np.array([exp.out_map.get(st.index_of(a), -1) for a in carrier.elements()], np.int64)

    def dec(c1, c2):
        return cell[carrier.add_table[c1, c2]]

    full = z_values is None
    rate = Rate.log2(carrier.size)
    scheme = Scheme(
        m1=len(map1),
        m2=len(map2),
        atoms=atoms,
        weights=None,
        enc1=enc1,
        enc2=enc2,
        dec=dec,
        rate1=rate,
        rate2=rate,
        kind="masked_sum" if full else "masked_sum_optimized",
        expansion=exp,
        meta={"z_support": zs},
    )
    if not full:
        tables = _enc_tables(scheme)
        scheme.rate1 = Rate.log2(len(_distinct(tables.codes1)))
        scheme.rate2 = Rate.log2(len(_distinct(tables.codes2)))
    return scheme


def masked_values(carrier, atoms, mapping, subtract: bool) -> np.ndarray:
    """gamma * mapping[w] + z, or - z when subtract, for every input w and
    atom (gamma, z): an (inputs, atoms) array read from the carrier's add,
    neg and mul tables."""
    g, z = np.array(atoms, np.intp).T
    x = carrier.mul_table[g, np.array(mapping, np.intp)[:, None]]
    return carrier.add_table[x, carrier.neg_table[z] if subtract else z]


def optimize_additive_randomness(exp: FeasibleExpansion, all_subsets: bool = False) -> Scheme:
    """Smallest additive-noise support that still verifies secure.

    Candidates are tried in increasing entropy (= size, uniform support)
    order: cosets of additive subgroups first, then, behind the flag, every
    remaining subset.  The full carrier is its own coset, so a passing scheme
    always exists; rates are recomputed from the encoder ranges.  The flag
    lists all 2^q - 1 subsets before trying one, so a carrier past
    MAX_ALL_SUBSETS_CARRIER elements raises SizeBoundExceeded with it,
    before any candidate is built.
    """
    carrier = exp.structure.carrier
    if all_subsets and carrier.size > MAX_ALL_SUBSETS_CARRIER:
        raise SizeBoundExceeded(
            f"--all-subsets on a carrier of {carrier.size} elements would try "
            f"{2**carrier.size - 1} supports, past the cap of {MAX_ALL_SUBSETS_CARRIER} elements"
        )
    f = exp.table()
    candidates: list[tuple[int, tuple[int, ...]]] = []  # (tier, support)
    seen = set()
    for H in closure_subgroups(carrier.add_table, 0, range(1, carrier.size)):
        # column c of H's add rows is the coset H + c
        for coset in map(tuple, np.sort(carrier.add_table[list(H)], axis=0).T.tolist()):
            if coset not in seen:
                seen.add(coset)
                candidates.append((0, coset))
    if all_subsets:
        for r in range(1, carrier.size + 1):
            for combo in itertools.combinations(carrier.elements(), r):
                if combo not in seen:
                    seen.add(combo)
                    candidates.append((1, combo))
    # entropy (size) first; subgroup cosets ahead of plain subsets at a tie
    candidates.sort(key=lambda t: (len(t[1]), t[0], t[1]))
    # the last candidate is the whole carrier, which always passes
    schemes = (scheme_from_expansion(exp, z_values=zs) for _, zs in candidates)
    return next(s for s in schemes if verify_secure(s, f).ok)


# ---------------------------------------------------------------------------
# equality over a composite alphabet via residue decomposition
# ---------------------------------------------------------------------------

def crt_equal_scheme(m: int) -> Scheme:
    """Equality on {0..m-1} at log2(m) bits per party, for 2 <= m <= 15.

    Both inputs pass through one shared uniform permutation of {0..m-1}; each
    prime-power factor q of m gets its own field F_q where the residue mod q
    is scaled by a unit gamma and masked by z (the same mask on both sides).
    The decoder declares equality iff the codewords agree, which the
    residue decomposition makes exact.

    The encoder carries the verifier's reduced per-pair support, so nothing
    is enumerated here; an m whose pair support is past MAX_PAIR_SUPPORT
    images (every m >= 16) raises SizeBoundExceeded.  Tabulating the full
    support, m! permutations x prod (q - 1) * q digits, is still bounded by
    MAX_ATOMS_MATERIALIZED: m = 7 has 211,680 atoms, m = 8 has 2,257,920.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    # the digit block is at least prod q = m, so an m past the cap's cube
    # root is refused before trial division could take minutes
    images, at_least = m * (m - 1) * m, "at least "
    if images <= MAX_PAIR_SUPPORT:
        factors = sorted(factorize(m).items())
        images, at_least = m * (m - 1) * prod((p**k - 1) * p**k for p, k in factors), ""
    if images > MAX_PAIR_SUPPORT:
        raise SizeBoundExceeded(
            f"m = {m}: {at_least}{images} images per input pair exceed the cap of {MAX_PAIR_SUPPORT}"
        )
    encode = _CrtEncoder(m, [field_make(p, k) for p, k in factors])

    def dec(c1, c2):
        return np.equal(c1, c2).astype(np.int64)

    rate = Rate.log2(m)
    return Scheme(
        m1=m,
        m2=m,
        atoms=encode.atoms,
        weights=None,
        enc1=encode,
        enc2=encode,
        dec=dec,
        rate1=rate,
        rate2=rate,
        kind="crt_equal",
        meta={"m": m, "factors": factors},
    )


class _CrtEncoder:
    """crt-equal's encoder.  An atom index splits in mixed radix into the
    permutation index (most significant, itertools order) and, per factor
    q, a digit r = (gamma - 1) * q + z (first factor least significant);
    factor q's symbol is gamma * (perm[w] mod q) + z in F_q, read at
    r * q + perm[w] mod q from a table built from the field's add and mul
    tables.  table, the code table the full tabulation reads, holds the
    code of perm[w] under each atom's digits, read from value_codes; radix
    is the alphabet size of each codeword position.  The permutations,
    value codes and table are built on first read.

    pair_support is the verifier's reduced support: the permutation enters
    a pair (w1, w2) only through (perm[w1], perm[w2]), so each input pair's
    counts are a weighted sum over at most m * (m - 1) value pairs, crossed
    with the block of digits."""

    def __init__(self, m: int, fields):
        self.m = m
        self.radix = tuple(fs.q for fs in fields)
        self.tables = []  # (q, stride of its digit, symbol table) per factor
        self.block = 1
        for fs in fields:
            q = fs.q
            r = np.arange((q - 1) * q)
            table = fs.add_table[fs.mul_table[r // q + 1], (r % q)[:, None]].ravel()
            self.tables.append((q, self.block, table))
            self.block *= (q - 1) * q
        self.atoms = range(factorial(m) * self.block)

    @functools.cached_property
    def perms(self) -> np.ndarray:
        return np.array(list(itertools.permutations(range(self.m))), np.int8)

    @functools.cached_property
    def value_codes(self) -> np.ndarray:
        """(m, block): the mixed-radix code of the codeword a permuted value
        takes under each digit, first position most significant, in the
        smallest dtype that holds the m codes."""
        values, digits = np.arange(self.m)[:, None], np.arange(self.block)
        codes = np.zeros((self.m, self.block), np.int64)
        for q, stride, table in self.tables:
            codes *= q
            codes += table[digits // stride % ((q - 1) * q) * q + values % q]
        return codes.astype(table_dtype(self.m))

    @functools.cached_property
    def table(self) -> np.ndarray:
        """(m, atoms): input w's code under atom p * block + d, the value
        code of perm_p[w] under digit d."""
        return self.value_codes[self.perms.T].reshape(self.m, -1)

    def _value_pairs(self, w1: int, w2: int):
        """(perm[w1], perm[w2]) over the support: the m pairs (a, a) when
        w1 = w2, each taken by (m - 1)! permutations, else the m * (m - 1)
        ordered pairs a != b, each taken by (m - 2)!; both ascending."""
        if w1 == w2:
            a = np.arange(self.m)
            return a, a, factorial(self.m - 1)
        a, b = np.nonzero(~np.eye(self.m, dtype=bool))
        return a, b, factorial(self.m - 2)

    def pair_support(self, w1: int, w2: int):
        """(codes1, codes2, weights): both parties' codes and the int64
        weight of each image, image j * block + d being value pair j under
        digit d."""
        a, b, weight = self._value_pairs(w1, w2)
        codes1, codes2 = self.value_codes[a].ravel(), self.value_codes[b].ravel()
        return codes1, codes2, np.full(len(codes1), weight, np.int64)

    def first_atoms(self, w1: int, w2: int, images: np.ndarray) -> list[int]:
        """Per image, the least atom index of the full support it stands
        for: the least permutation with perm[w1] = a and perm[w2] = b (the
        other places take the other values ascending), ranked in itertools
        order, times the block, plus the digit."""
        a, b, _ = self._value_pairs(w1, w2)
        j, d = np.divmod(images, self.block)
        ranks = {}
        for jj in set(j.tolist()):
            rest = iter(sorted(set(range(self.m)) - {int(a[jj]), int(b[jj])}))
            perm = [int(a[jj]) if i == w1 else int(b[jj]) if i == w2 else next(rest)
                    for i in range(self.m)]
            ranks[jj] = _permutation_rank(perm)
        return [ranks[jj] * self.block + dd for jj, dd in zip(j.tolist(), d.tolist())]


def _permutation_rank(perm: list[int]) -> int:
    """perm's index in itertools.permutations(range(len(perm))) order."""
    unused = sorted(perm)
    rank = 0
    for i, v in enumerate(perm):
        k = unused.index(v)
        rank += k * factorial(len(perm) - 1 - i)
        unused.pop(k)
    return rank


# ---------------------------------------------------------------------------
# row-mask baseline (permuted masked row values)
# ---------------------------------------------------------------------------

def row_mask_baseline(f: FunctionTable) -> Scheme:
    """Generic baseline: Bob sends every row's output masked by a per-row
    one-time pad, in an order shuffled by a shared permutation of the rows;
    Alice sends her row's position and its mask.  Under atom (pi, zs) Alice
    sends (pi[w1], zs[w1]) and Bob the slots with slots[pi[row]] =
    (outputs[row][w2] + zs[row]) mod k; both encoders are code tables built
    here.

    Rates are (log2 m1 + log2 k, m1 * log2 k) for k output labels.
    """
    m1, k = f.m1, f.output_count
    n_atoms = factorial(m1) * k**m1
    if n_atoms > MAX_ATOMS_MATERIALIZED:
        raise SizeBoundExceeded(
            f"{n_atoms} baseline atoms exceed the cap of {MAX_ATOMS_MATERIALIZED}"
        )
    perms = list(itertools.permutations(range(m1)))
    masks = list(itertools.product(range(k), repeat=m1))
    atoms = [(pi, zs) for pi in perms for zs in masks]
    # atom i is (perms[i // len(masks)], masks[i % len(masks)]); each party's
    # codes as (inputs, perms, masks), flattened to atoms below, in the
    # smallest dtype that holds a code and an output plus its mask
    dt = table_dtype(max(2 * k, m1 * k, k**m1))
    P, Z = np.array(perms, dt), np.array(masks, dt)
    alice = P.T[:, :, None] * k + Z.T[:, None, :]
    # row r's masked output is Bob's digit of place value k^(m1 - 1 - pi[r])
    place = (k ** (m1 - 1 - np.arange(m1))).astype(dt)[P]
    masked = (np.array(f.outputs, dt).T[:, None, :] + Z) % k
    bob = place @ masked.transpose(0, 2, 1)
    enc1 = _TableEncoder(alice.reshape(m1, -1), (m1, k), atoms)
    enc2 = _TableEncoder(bob.reshape(f.m2, -1), (k,) * m1, atoms)

    def dec(c1, c2):
        # Alice's code is pos * k + mask; Bob's slot pos is his digit of
        # place value k^(m1 - 1 - pos)
        pos, mask = np.divmod(c1, k)
        return (c2 // k ** (m1 - 1 - pos) - mask) % k

    return Scheme(
        m1=m1,
        m2=f.m2,
        atoms=atoms,
        weights=None,
        enc1=enc1,
        enc2=enc2,
        dec=dec,
        rate1=Rate.log2(m1) + Rate.log2(k),
        rate2=Rate.log2(k).scaled(m1),
        kind="row_mask_baseline",
        meta={"outputs": [list(r) for r in f.outputs], "labels": k},
    )


# ---------------------------------------------------------------------------
# fully tabulated schemes as data
# ---------------------------------------------------------------------------

def _atom_form(atoms: list) -> list:
    """JSON atoms in their hashable form: an integer array's rows as nested
    tuples, grouped one axis at a time; anything else through the per-value
    path.  A JSON object as an atom raises SchemaError."""
    try:
        arr = np.array(atoms)
    except (ValueError, OverflowError):  # ragged lists
        arr = None
    if arr is None or arr.dtype.kind != "i":
        return [_hashable(a) for a in atoms]
    items = arr.ravel().tolist()
    for size in reversed(arr.shape[1:]):
        items = list(zip(*[iter(items)] * size))
    return items


def _hashable(x):
    if isinstance(x, list):
        return tuple(_hashable(v) for v in x)
    if isinstance(x, dict):
        raise SchemaError("an atom must be a number, string or list, not an object")
    return x


class _TableEncoder:
    """An encoder as a code table: table[w, i] is the codeword of input w
    under atom i of atoms, as a mixed-radix code over radix (first position
    most significant), so code order is codeword order.  The table is given
    whole, or as a function that builds it on first read."""

    def __init__(self, table, radix: tuple, atoms):
        self.radix, self.atoms = radix, atoms
        if callable(table):
            self._build = table
        else:
            self.table = table

    @functools.cached_property
    def table(self) -> np.ndarray:
        return self._build()


def _codes(values, shape: tuple, alphabets: list):
    """values as the mixed-radix codes over alphabets of an integer array of
    shape + (len(alphabets),) with every symbol inside its alphabet (bool
    symbols are ints), read with one np.array; None for any other."""
    try:
        arr = np.array(values)
    except (ValueError, OverflowError):  # ragged rows
        return None
    if (arr.shape != shape + (len(alphabets),) or arr.dtype.kind not in "biu"
            or not ((arr >= 0) & (arr < np.array(alphabets))).all()):
        return None
    return np.ravel_multi_index(np.moveaxis(arr, -1, 0).astype(np.int64), alphabets)


def _read_codes(table, name: str, m: int, n_atoms: int, alphabets: list) -> np.ndarray:
    """An encoder table's (m, n_atoms) mixed-radix codes.  One np.array
    reads a well-formed table; any other goes through the per-codeword
    checks, which raise the SchemaError or TotalityError it deserves: every
    table they accept is well formed."""
    codes = _codes(table, (m, n_atoms), alphabets)
    if codes is None:
        _check_codewords(table, name, m, n_atoms, alphabets)
    return codes


def _check_codewords(table, name: str, m: int, n_atoms: int, alphabets: list) -> None:
    if not isinstance(table, list) or len(table) != m:
        raise TotalityError(f"{name} must have one row per input value")
    for w, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n_atoms:
            raise TotalityError(f"{name}[{w}] must have one codeword per atom")
        for c in row:
            if not isinstance(c, list) or len(c) != len(alphabets):
                raise SchemaError(f"{name}[{w}] codeword has wrong arity")
            for s, size in zip(c, alphabets):
                if not isinstance(s, int) or not 0 <= s < size:
                    raise SchemaError(f"{name}[{w}] symbol {s} outside alphabet of size {size}")


def _read_dec(rows, alph1: list, alph2: list) -> np.ndarray:
    """The decoder table, an int64 label per (code1, code2), from dec rows
    {x1, x2, f} read with one np.array per field.  A row that is not such an
    object, a codeword outside the alphabets, a label that is not an int64
    integer (a boolean is not), and a second row for one pair raise
    SchemaError; fewer rows than codeword pairs TotalityError."""
    if not isinstance(rows, list):
        raise SchemaError("dec must be a list of {x1, x2, f} rows")
    n1, n2 = prod(alph1), prod(alph2)
    # a total decoder has a row per codeword pair; checked before any row is read
    if n1 * n2 > len(rows):
        raise TotalityError(f"dec has {len(rows)} rows for {n1 * n2} codeword pairs")
    try:
        x1, x2, labels = ([row[k] for row in rows] for k in ("x1", "x2", "f"))
    except (TypeError, KeyError) as e:
        raise SchemaError("every dec row must be an object with x1, x2 and f") from e
    codes1, codes2 = _codes(x1, (len(rows),), alph1), _codes(x2, (len(rows),), alph2)
    if codes1 is None or codes2 is None:
        raise SchemaError("every dec row's x1 and x2 must be codewords over the alphabets")
    if not all(type(v) is int and -(2**63) <= v < 2**63 for v in labels):
        raise SchemaError("dec outputs must be integers of at most 64 bits")
    keys = codes1 * n2 + codes2
    # at least n1 * n2 rows in range, none repeated: every pair has its row
    repeated = np.bincount(keys) > 1
    if repeated.any():
        c1, c2 = divmod(int(repeated.argmax()), n2)
        raise SchemaError(f"duplicate dec row for {_codewords([c1], alph1) + _codewords([c2], alph2)}")
    table = np.empty(n1 * n2, np.int64)
    table[keys] = labels
    return table.reshape(n1, n2)


def load_custom_scheme(source) -> Scheme:
    """Load a fully tabulated scheme from a JSON file path, file object, or
    already-parsed dict.  Raises SchemaError on malformed input (a boolean
    is no integer as m1, m2, an alphabet size, a weight or a dec label) and
    TotalityError when an encoder or decoder table has holes.  Each encoder
    table is stored as mixed-radix codes over its alphabets, and the
    decoder as a table over both parties' codes."""
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            obj = json.load(fh)
    elif hasattr(source, "read"):
        obj = json.load(source)
    else:
        obj = source
    if not isinstance(obj, dict):
        raise SchemaError("scheme JSON must be an object")
    required = ["m1", "m2", "alphabets1", "alphabets2", "z_support", "enc1", "enc2", "dec"]
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing key {key!r}")
    m1, m2 = obj["m1"], obj["m2"]
    if not (type(m1) is int and type(m2) is int and m1 >= 1 and m2 >= 1):
        raise SchemaError("m1/m2 must be positive integers")
    alph1, alph2 = obj["alphabets1"], obj["alphabets2"]
    for a in (alph1, alph2):
        if not (isinstance(a, list) and a and all(type(s) is int and s >= 1 for s in a)):
            raise SchemaError("alphabets must be non-empty lists of positive sizes")
    table = _read_dec(obj["dec"], alph1, alph2)
    support = obj["z_support"]
    if not isinstance(support, list) or not support:
        raise SchemaError("z_support must be a non-empty list")
    raw_atoms = []
    weights = []
    for row in support:
        if not isinstance(row, dict) or "atom" not in row:
            raise SchemaError("each z_support row needs an 'atom'")
        wt = row.get("weight", 1)
        if type(wt) is not int or wt <= 0:
            raise SchemaError("weights must be positive integers")
        raw_atoms.append(row["atom"])
        weights.append(wt)
    atoms = _atom_form(raw_atoms)
    if len(set(atoms)) != len(atoms):
        raise SchemaError("atoms must be distinct")

    codes1 = _read_codes(obj["enc1"], "enc1", m1, len(atoms), alph1)
    codes2 = _read_codes(obj["enc2"], "enc2", m2, len(atoms), alph2)

    def dec(c1, c2):
        return table[c1, c2]

    uniform = all(w == weights[0] for w in weights) and weights[0] == 1
    return Scheme(
        m1=m1,
        m2=m2,
        atoms=atoms,
        weights=None if uniform else weights,
        enc1=_TableEncoder(codes1, tuple(alph1), atoms),
        enc2=_TableEncoder(codes2, tuple(alph2), atoms),
        dec=dec,
        rate1=sum(map(Rate.log2, alph1), Rate.zero()),
        rate2=sum(map(Rate.log2, alph2), Rate.zero()),
        kind="custom",
        meta={"name": obj.get("name", "")},
    )


def serialize_scheme(scheme: Scheme, name: str = "") -> dict:
    """Tabulate a scheme into the custom-scheme JSON form.

    Symbols are remapped per codeword position onto compact 0..s-1 alphabets
    so reloaded rates equal the range-based rates of optimized schemes.  The
    alphabets come from the codebooks of the full tabulation, and each
    atom is written as the tuple it is.  The decoder table is total, from
    one dec call over every pair of compact codewords: a pair dec labels
    -1, which no input pair yields, is written as output 0.
    """
    tables = _enc_tables(scheme)
    symbols1, sizes1, raw1, x1s = _compact(tables.codes1, tables.radix1)
    symbols2, sizes2, raw2, x2s = _compact(tables.codes2, tables.radix2)
    labels = np.maximum(scheme.dec(raw1[:, None], raw2[None, :]), 0).tolist()
    dec_rows = [{"x1": list(x1), "x2": list(x2), "f": f}
                for x1, row in zip(x1s, labels) for x2, f in zip(x2s, row)]
    return {
        "name": name or scheme.kind,
        "m1": scheme.m1,
        "m2": scheme.m2,
        "alphabets1": sizes1,
        "alphabets2": sizes2,
        "z_support": [{"atom": a, "weight": w} for a, w in zip(tables.atoms, tables.weights.tolist())],
        "enc1": symbols1,
        "enc2": symbols2,
        "dec": dec_rows,
    }


def _distinct(values: np.ndarray) -> np.ndarray:
    """values' distinct entries, ascending (np.unique would import numpy.ma)."""
    values = np.sort(values, axis=None)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _compact(codes: np.ndarray, radix) -> tuple:
    """(symbols, sizes, raw, grid): an (inputs, atoms) code table over radix
    remapped per position onto the symbols its codebook uses, as 0..s-1:
    each entry's compact symbols, the compact alphabets, and every compact
    codeword (grid) with its code over radix."""
    book = _distinct(codes)
    digits = np.unravel_index(book, radix)
    values = [_distinct(d) for d in digits]
    sizes = [len(v) for v in values]
    mapped = np.stack([np.searchsorted(v, d) for v, d in zip(values, digits)], axis=1)
    grid = np.unravel_index(np.arange(prod(sizes)), sizes)
    raw = np.ravel_multi_index([v[d] for v, d in zip(values, grid)], radix)
    return mapped[np.searchsorted(book, codes)].tolist(), sizes, raw, np.stack(grid, axis=1).tolist()
