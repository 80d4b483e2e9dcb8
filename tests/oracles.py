"""Independent oracles for the test suite.

Everything here re-derives expected values by brute force, bypassing the
library's own search bookkeeping, so the two routes can disagree loudly.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from confuse.blockcode import _matmul, block_decode, block_encode
from confuse.expansion import FunctionTable
from confuse.fields import field_make
from confuse.rates import Rate
from confuse.schemes import Scheme, _TableEncoder, load_custom_scheme, masked_values
from confuse.verify import verify_secure


def cell_table(structure) -> list[list[int]]:
    """index_of(a + b) for every pair (a, b), as nested lists read once from
    the carrier's add table."""
    return np.array(structure._index)[structure.carrier.add_table].tolist()


def brute_force_expansion_exists(f, structure) -> bool:
    """Existence of a feasible embedding by scanning every injective map pair
    and checking whether the cell partition admits an invertible labeling."""
    size = structure.size
    cells = cell_table(structure)
    for map1 in itertools.permutations(range(size), f.m1):
        for map2 in itertools.permutations(range(size), f.m2):
            set_to_label = {}
            label_to_set = {}
            ok = True
            for i, a in enumerate(map1):
                for j, b in enumerate(map2):
                    idx = cells[a][b]
                    label = f.outputs[i][j]
                    if set_to_label.get(idx, label) != label or label_to_set.get(label, idx) != idx:
                        ok = False
                        break
                    set_to_label[idx] = label
                    label_to_set[label] = idx
                if not ok:
                    break
            if ok:
                return True
    return False


def canonical_cell_partition(cells) -> tuple[int, ...]:
    """Relabel a sequence of cell tags by first occurrence, e.g.
    (7, 2, 7, 5) -> (0, 1, 0, 2)."""
    seen: dict = {}
    out = []
    for c in cells:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return tuple(out)


def feasible_partitions(structure, m1: int, m2: int, map1_from_zero: bool = False) -> set[tuple[int, ...]]:
    """All cell partitions realizable by injective map pairs over a structure.

    A table embeds over the structure iff its label partition of the m1*m2
    cells equals the set-index partition of some map pair, so collecting the
    canonical partitions is the brute-force existence oracle with the
    table-independent work hoisted out.  Every map pair is scanned, a block
    of map1s at a time with numpy: a pair's partition is the bitmask over
    the cell pairs (a, b), a < b, that land in one set, and each distinct
    mask is decoded into its canonical partition at the end.  With
    map1_from_zero only the map1s with map1[0] = 0 are scanned, which gives
    the same set: (map1 - c, map2 + c) has the same cell sums as (map1, map2).
    """
    size = structure.size
    cells = np.array(cell_table(structure))
    maps1 = np.array(list(itertools.permutations(range(size), m1))).reshape(-1, m1)
    if map1_from_zero:
        maps1 = maps1[maps1[:, 0] == 0]
    maps2 = np.array(list(itertools.permutations(range(size), m2))).reshape(-1, m2)
    k = m1 * m2
    pairs = [(a, b) for b in range(k) for a in range(b)]
    block = max(1, (1 << 17) // len(maps2))
    masks = set()
    for start in range(0, len(maps1), block):
        # the cells of every map pair in the block, row by row: (pairs, m1 * m2)
        sets = cells[maps1[start:start + block]][:, :, maps2].transpose(0, 2, 1, 3).reshape(-1, k)
        mask = np.zeros(len(sets), np.int64)
        for bit, (a, b) in enumerate(pairs):
            mask |= (sets[:, a] == sets[:, b]).astype(np.int64) << bit
        masks.update(np.unique(mask).tolist())
    out = set()
    for mask in masks:
        labels = list(range(k))
        for bit, (a, b) in enumerate(pairs):
            if mask >> bit & 1:
                labels[b] = labels[a]
        out.add(canonical_cell_partition(labels))
    return out


@functools.lru_cache(maxsize=None)
def _first_map_pairs(structure, m1: int, m2: int) -> dict:
    """Canonical cell partition -> the first (map1, map2) realizing it, over
    injective map pairs in itertools.permutations order (map1 outer), which
    is lexicographic in map1 + map2."""
    size = structure.size
    cells = cell_table(structure)
    first: dict = {}
    for map1 in itertools.permutations(range(size), m1):
        rows = [cells[a] for a in map1]
        for map2 in itertools.permutations(range(size), m2):
            partition = canonical_cell_partition([row[b] for row in rows for b in map2])
            first.setdefault(partition, (map1, map2))
    return first


def brute_force_first_expansion(f, structure):
    """The first feasible (map1, map2, out_map) in itertools.permutations
    order, or None.  A map pair is feasible iff its cells hit sets in the same
    pattern as the table's labels, so the table-independent scan is cached
    per (structure, shape)."""
    labels = [v for row in f.outputs for v in row]
    pair = _first_map_pairs(structure, f.m1, f.m2).get(canonical_cell_partition(labels))
    if pair is None:
        return None
    map1, map2 = pair
    add = structure.carrier.add
    out_map = {
        structure._index[add(a, b)]: f.outputs[i][j]
        for i, a in enumerate(map1)
        for j, b in enumerate(map2)
    }
    return map1, map2, out_map


def randomization_multiset_ok(carrier, randomizer, sets) -> bool:
    """Direct multiset re-check of the confusable-set property."""
    for s in sets:
        if len(randomizer) % len(s) != 0:
            return False
        k = len(randomizer) // len(s)
        for a in s:
            if Counter(carrier.mul(g, a) for g in randomizer) != {t: k for t in s}:
                return False
    return True


def all_tables(m1: int, m2: int, max_labels: int):
    """Every m1 x m2 table using labels 0..k-1 (each used) for k <= max_labels."""
    cells = m1 * m2
    for values in itertools.product(range(min(max_labels, cells)), repeat=cells):
        used = set(values)
        if used != set(range(len(used))) or len(used) > max_labels:
            continue
        yield tuple(tuple(values[i * m2 + j] for j in range(m2)) for i in range(m1))


def code(enc, codeword) -> int:
    """A codeword's mixed-radix code over enc.radix, first position most
    significant: the form a scheme's dec reads."""
    return int(np.ravel_multi_index(codeword, enc.radix))


def row_mask_encoders(outputs, k: int):
    """row_mask_baseline's encoders, one atom (pi, zs) at a time: Alice
    sends (pi[w1], zs[w1]), and Bob fills slot pi[row] with
    (outputs[row][w2] + zs[row]) mod k, row by row."""

    def enc1(w, atom):
        pi, zs = atom
        return (pi[w], zs[w])

    def enc2(w, atom):
        pi, zs = atom
        slots = [0] * len(pi)
        for row in range(len(pi)):
            slots[pi[row]] = (outputs[row][w] + zs[row]) % k
        return tuple(slots)

    return enc1, enc2


def _digits(n: int, base: int, length: int) -> list[int]:
    """n's length base-`base` digits, first most significant."""
    out = []
    for _ in range(length):
        n, d = divmod(n, base)
        out.append(d)
    return out[::-1]


def block_encoders(base, f, L: int, A):
    """block_security_check(base, f, L, A)'s encoders through the field's
    scalar add, sub and mul, one atom index at a time: the input vector
    index and the atom index split into one input and one base atom
    (gamma, z) per position, first position most significant; position
    p's value is gamma * map[w_p] + z (Bob: - z), and the codeword is A
    times the L values."""
    exp = base.expansion
    fs = exp.structure.carrier
    atoms = list(base.atoms)

    def encoder(m, mapping, subtract):
        def enc(w, atom):
            values = []
            for wp, a in zip(_digits(w, m, L), _digits(atom, len(atoms), L)):
                g, z = atoms[a]
                x = fs.mul(g, mapping[wp])
                values.append(fs.sub(x, z) if subtract else fs.add(x, z))
            out = []
            for row in A:
                acc = 0
                for entry, v in zip(row, values):
                    acc = fs.add(acc, fs.mul(int(entry), v))
                out.append(acc)
            return tuple(out)

        return enc

    return encoder(f.m1, exp.map1, False), encoder(f.m2, exp.map2, True)


def block_security_scheme(base, f, L: int, A):
    """The compressed L-block scheme of base as a plain scheme, with the
    vector table it is verified against: (m1^L) x (m2^L) input vectors, each
    labelled by its f-vector in order of first use, over |atoms|^L atom
    vectors, both indexed in itertools.product order (first position most
    significant).  Input vector w's codeword under atom vector i is A times
    the per-position values gamma * map[w_p] + z (Bob: - z), one _matmul per
    input vector.  The decoder is a stub: the scheme is for security only."""
    exp = base.expansion
    fs = exp.structure.carrier
    A = np.asarray(A, dtype=np.int64)
    atoms = list(base.atoms)
    w1_vecs = list(itertools.product(range(f.m1), repeat=L))
    w2_vecs = list(itertools.product(range(f.m2), repeat=L))
    fvecs = {}
    rows = [[fvecs.setdefault(tuple(f.outputs[a][b] for a, b in zip(wv1, wv2)), len(fvecs))
             for wv2 in w2_vecs] for wv1 in w1_vecs]
    rate = Rate.log2(fs.q).scaled(A.shape[0])
    radix = (fs.q,) * A.shape[0]
    place = fs.q ** np.arange(A.shape[0])[::-1]  # a codeword's code, first position most significant
    vec_atoms = range(len(atoms) ** L)
    # atom vector i splits in mixed radix into one base atom per position
    per_position = np.indices((len(atoms),) * L).reshape(L, -1)

    def encoder(w_vecs, mapping, subtract: bool) -> _TableEncoder:
        values = masked_values(fs, atoms, mapping, subtract)
        table = np.array([place @ _matmul(fs, A, values[np.array(wv)[:, None], per_position])
                          for wv in w_vecs])
        return _TableEncoder(table, radix, vec_atoms)

    scheme = Scheme(
        m1=len(w1_vecs),
        m2=len(w2_vecs),
        atoms=vec_atoms,
        weights=None,
        enc1=encoder(w1_vecs, exp.map1, subtract=False),
        enc2=encoder(w2_vecs, exp.map2, subtract=True),
        dec=lambda c1, c2: np.zeros(np.broadcast(c1, c2).shape, np.int64),
        rate1=rate,
        rate2=rate,
        kind="block",
    )
    return scheme, FunctionTable.from_rows(rows)


def block_security_by_enumeration(base, f, L: int, A):
    """block_security_check's verdict and witness from the generic verifier
    over block_security_scheme: every input-vector pair's codeword-pair
    counts over every atom vector."""
    return verify_secure(*block_security_scheme(base, f, L, A))


def masked_sum_encoders(exp):
    """scheme_from_expansion(exp)'s encoders, one atom (gamma, z) at a time
    through the carrier's scalar add, sub and mul: gamma * map1[w] + z for
    Alice, gamma * map2[w] - z for Bob."""
    carrier = exp.structure.carrier

    def enc1(w, atom):
        g, z = atom
        return (carrier.add(carrier.mul(g, exp.map1[w]), z),)

    def enc2(w, atom):
        g, z = atom
        return (carrier.sub(carrier.mul(g, exp.map2[w]), z),)

    return enc1, enc2


def table_encoders(scheme):
    """The scheme's own encoders one atom at a time: each code table read
    at the atom's index in its encoder's support, as a codeword tuple."""

    def lookup(enc):
        index = {a: i for i, a in enumerate(enc.atoms)}

        def encode(w, atom):
            return tuple(int(d) for d in np.unravel_index(enc.table[w, index[atom]], enc.radix))

        return encode

    return lookup(scheme.enc1), lookup(scheme.enc2)


def reference_encoders(scheme):
    """Per-atom encoders that do not read the scheme's code tables where
    the scheme has a definition to compute them from: the row-mask
    baseline's, the masked-sum scheme's through the carrier's scalar
    arithmetic and crt-equal's through its fields'.  A loaded scheme's
    codewords are its data, read through table_encoders."""
    if scheme.kind == "row_mask_baseline":
        return row_mask_encoders(scheme.meta["outputs"], scheme.meta["labels"])
    if scheme.expansion is not None:
        return masked_sum_encoders(scheme.expansion)
    if scheme.kind == "crt_equal":
        m = scheme.meta["m"]

        def encode(w, atom):
            return crt_equal_encode(m, w, atom)

        return encode, encode
    return table_encoders(scheme)


def brute_force_first_correctness_failure(scheme, f):
    """First (w1, w2, atom, decoded, expected) where decoding the two
    encodings misses f, scanning input pairs then atoms in order, calling
    the reference encoders afresh on every atom and the decoder on their
    codes; None when there is none."""
    enc1, enc2 = reference_encoders(scheme)
    for w1 in range(f.m1):
        for w2 in range(f.m2):
            expected = f.outputs[w1][w2]
            for atom in scheme.atoms:
                c1 = code(scheme.enc1, enc1(w1, atom))
                c2 = code(scheme.enc2, enc2(w2, atom))
                got = int(scheme.dec(c1, c2))
                if got != expected:
                    return (w1, w2, atom, got, expected)
    return None


def tabulated_scheme(m1: int, m2: int, atoms, enc1, enc2, dec, weights=None):
    """A loaded scheme from per-atom callables: enc1(w, atom) and
    enc2(w, atom) return codeword tuples of non-negative ints, and
    dec(x1, x2) the label of a codeword pair.  Each encoder is called once
    per (input, atom) and dec once per pair of the alphabets' codewords,
    the alphabets being the smallest that hold every symbol; the scheme
    JSON they fill goes through load_custom_scheme."""
    tables = [[[list(enc(w, a)) for a in atoms] for w in range(m)] for enc, m in ((enc1, m1), (enc2, m2))]
    alphabets = [[1 + max(s) for s in zip(*(cw for row in table for cw in row))] for table in tables]
    codewords = [list(itertools.product(*map(range, alph))) for alph in alphabets]
    return load_custom_scheme({
        "m1": m1, "m2": m2, "alphabets1": alphabets[0], "alphabets2": alphabets[1],
        "z_support": [{"atom": a, "weight": w} for a, w in zip(atoms, weights or [1] * len(atoms))],
        "enc1": tables[0], "enc2": tables[1],
        "dec": [{"x1": list(x1), "x2": list(x2), "f": dec(x1, x2)}
                for x1 in codewords[0] for x2 in codewords[1]],
    })


def pair_counts(scheme, w1: int, w2: int, encoders=None) -> Counter:
    """Weighted count of each codeword pair (enc1(w1), enc2(w2)) over the
    support, calling the encoders (by default reference_encoders(scheme))
    afresh on every atom."""
    enc1, enc2 = encoders or reference_encoders(scheme)
    weights = scheme.weights or [1] * len(scheme.atoms)
    counts = Counter()
    for atom, weight in zip(scheme.atoms, weights):
        counts[(enc1(w1, atom), enc2(w2, atom))] += weight
    return counts


def leakage_bits(scheme, f, input_dist) -> float:
    """I(codewords; inputs | output) in bits, from exact Fraction
    probabilities over pair_counts: per output group of positive-mass
    input pairs, sum of P(w) P(x | w) log2(P(x | w) / P(x | output))."""
    groups: dict = {}
    for (w1, w2), p in input_dist.items():
        if p:
            groups.setdefault(f.outputs[w1][w2], []).append(((w1, w2), p))
    bits = 0.0
    for members in groups.values():
        cond = {}
        for w, _ in members:
            counts = pair_counts(scheme, *w)
            total = sum(counts.values())
            cond[w] = {x: Fraction(c, total) for x, c in counts.items()}
        mass = sum(p for _, p in members)
        for w, p in members:
            for x, px in cond[w].items():
                px_given_f = sum(q * cond[v].get(x, 0) for v, q in members) / mass
                bits += float(p * px) * math.log2(px / px_given_f)
    return bits


def sorted_counts(tables, w1: int, w2: int):
    """(keys, counts) of one input pair by sorting every atom's outcome key
    and summing the int64 weights of each run, whatever the codebook sizes."""
    keys = tables.keys(w1, w2)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(tables.weights[order], starts)


def loop_codes(table, name: str, m: int, n_atoms: int, alphabets: list) -> np.ndarray:
    """A custom scheme's encoder table read one symbol at a time: the
    SchemaError or TotalityError of the first bad entry, or the (m, n_atoms)
    mixed-radix codes, first position most significant."""
    from confuse.errors import SchemaError, TotalityError

    if not isinstance(table, list) or len(table) != m:
        raise TotalityError(f"{name} rows")
    codes = np.zeros((m, n_atoms), np.int64)
    for w, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n_atoms:
            raise TotalityError(f"{name}[{w}] length")
        for i, c in enumerate(row):
            if not isinstance(c, list) or len(c) != len(alphabets):
                raise SchemaError(f"{name}[{w}] arity")
            code = 0
            for s, size in zip(c, alphabets):
                if not isinstance(s, int) or not 0 <= s < size:
                    raise SchemaError(f"{name}[{w}] symbol {s}")
                code = code * size + int(s)
            codes[w, i] = code
    return codes


@functools.lru_cache(maxsize=None)
def _crt_equal_parts(m: int):
    """(every permutation of 0..m-1 in itertools order, the field of each
    prime-power factor of m, smallest prime first)."""
    fields = []
    n = m
    for p in range(2, m + 1):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            fields.append(field_make(p, k))
    return list(itertools.permutations(range(m))), fields


def crt_equal_atom_parts(m: int, atom: int):
    """crt_equal_scheme(m)'s atom index -> (permutation, [(gamma, z)] per
    factor), decoded digit by digit: the permutation index most significant,
    then per factor q a digit (gamma - 1) * q + z, first factor least
    significant."""
    perms, fields = _crt_equal_parts(m)
    pi, rest = divmod(atom, math.prod((fs.q - 1) * fs.q for fs in fields))
    parts = []
    for fs in fields:
        rest, r = divmod(rest, (fs.q - 1) * fs.q)
        gi, z = divmod(r, fs.q)
        parts.append((gi + 1, z))
    return perms[pi], parts


def crt_equal_encode(m: int, w: int, atom: int) -> tuple:
    """crt_equal_scheme(m)'s codeword for input w: per factor field F_q,
    gamma * (perm[w] mod q) + z through the field's scalar add and mul."""
    perm, parts = crt_equal_atom_parts(m, atom)
    _, fields = _crt_equal_parts(m)
    return tuple(fs.add(fs.mul(g, perm[w] % fs.q), z) for fs, (g, z) in zip(fields, parts))


def ring_arithmetic(n: int) -> dict:
    """Z_n's add/sub/neg/mul as plain % arithmetic."""
    return {
        "add": lambda a, b: (a + b) % n,
        "sub": lambda a, b: (a - b) % n,
        "neg": lambda a: (-a) % n,
        "mul": lambda a, b: (a * b) % n,
    }


def field_arithmetic(p: int, n: int, h) -> dict:
    """F_{p^n}'s add/sub/neg/mul from the integer encoding: digitwise
    addition mod p, and schoolbook polynomial products reduced by the monic
    modulus h (coefficients a_0 first)."""

    def digits(a):
        return [(a // p**i) % p for i in range(n)]

    def encode(ds):
        return sum((d % p) * p**i for i, d in enumerate(ds))

    def mul(a, b):
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        # x^k = x^(k-n) * x^n and x^n = -(h_0 + h_1 x + ... + h_{n-1} x^{n-1})
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k]
            prod[k] = 0
            for j in range(n):
                prod[k - n + j] -= c * h[j]
        return encode(prod[:n])

    def neg(a):
        return encode([-d for d in digits(a)])

    def add(a, b):
        return encode([x + y for x, y in zip(digits(a), digits(b))])

    return {"add": add, "sub": lambda a, b: add(a, neg(b)), "neg": neg, "mul": mul}


def is_irreducible(h, p: int) -> bool:
    """Trial division of the monic h (coefficients a_0 first) over F_p by
    every monic polynomial of degree 1..deg(h)/2."""
    n = len(h) - 1

    def remainder(a, d):  # a mod the monic d
        r = list(a)
        for k in range(len(r) - 1, len(d) - 2, -1):
            c = r[k]
            for j in range(len(d)):
                r[k - len(d) + 1 + j] = (r[k - len(d) + 1 + j] - c * d[j]) % p
        return r[: len(d) - 1]

    for deg in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=deg):
            if not any(remainder(h, low + (1,))):
                return False
    return True


def multiplicative_order(p: int, n: int, h, g: int):
    """The least k >= 1 with g^k = 1 mod h over F_p, by repeated
    multiplication, or None when no power up to p^n is 1."""
    mul = field_arithmetic(p, n, h)["mul"]
    cur = g
    for k in range(1, p**n + 1):
        if cur == 1:
            return k
        cur = mul(cur, g)
    return None


def block_trial_errors(spec, trials: int, seed: int, input_dist) -> list[int]:
    """run_trials one trial at a time: trial t draws its pairs, gammas and
    masks from SeedSequence((seed, t)) in run_trials' order, goes through
    block_encode and block_decode, and scores 1 when the decoded U differs
    from the true one."""
    exp = spec.base.expansion
    st = exp.structure
    fs = st.carrier
    pairs = sorted(input_dist)
    probs = np.array([float(input_dist[x]) for x in pairs])
    probs = probs / probs.sum()
    gammas = np.array(st.randomizer, dtype=np.int64)
    out = []
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, t))))
        idx = rng.choice(len(pairs), size=spec.L, p=probs)
        w1 = [pairs[i][0] for i in idx]
        w2 = [pairs[i][1] for i in idx]
        g = gammas[rng.integers(0, len(gammas), size=spec.L)]
        z = rng.integers(0, fs.q, size=spec.L, dtype=np.int64)
        x1, x2 = block_encode(spec, w1, w2, g, z)
        true_u = [fs.mul(int(gi), fs.add(exp.map1[a], exp.map2[b]))
                  for gi, a, b in zip(g, w1, w2)]
        u_hat, _ = block_decode(spec, x1, x2)
        out.append(int(u_hat.tolist() != true_u))
    return out


def gauss_jordan(arithmetic: dict, q: int, A) -> tuple:
    """(R, T, pivots) of A over F_q by unblocked Gauss-Jordan on [A | I]
    through scalar field ops: each column's pivot is the first row at or
    below the pivot count with a nonzero entry, swapped up, scaled to 1 and
    cleared from every other row; R = T * A."""
    mul, sub = arithmetic["mul"], arithmetic["sub"]
    rows, cols = len(A), len(A[0])
    M = [[int(v) for v in row] + [int(i == j) for j in range(rows)] for i, row in enumerate(A)]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, rows) if M[i][c]), None)
        if i is None:
            continue
        M[r], M[i] = M[i], M[r]
        inv = next(x for x in range(1, q) if mul(M[r][c], x) == 1)
        M[r] = [mul(inv, v) for v in M[r]]
        for s in range(rows):
            if s != r and M[s][c]:
                factor = M[s][c]
                M[s] = [sub(a, mul(factor, b)) for a, b in zip(M[s], M[r])]
        pivots.append(c)
    return [row[:cols] for row in M], [row[cols:] for row in M], pivots


def bfs_subgroups(table, identity: int, generators) -> list[tuple[int, ...]]:
    """Every subgroup generated by a subset of generators in a finite
    abelian group, ordered by (size, members): each known subgroup is
    extended by every generator and closed under the operation, since
    <H, x> is the union of the cosets H, Hx, Hx^2, ..."""
    trivial = frozenset([identity])
    found = {trivial}
    queue = [trivial]
    while queue:
        H = queue.pop()
        for x in generators:
            if x in H:
                continue
            K = set(H)
            y = x
            while y not in K:
                row = table[y]
                K.update(row[h] for h in H)
                y = table[x][y]
            K = frozenset(K)
            if K not in found:
                found.add(K)
                queue.append(K)
    return sorted((tuple(sorted(H)) for H in found), key=lambda t: (len(t), t))
