"""Length-L extension of a field scheme with linear compression.

Each position runs the scalar masked-sum code independently; both codeword
vectors are then multiplied by one shared matrix A over F_q.  The decoder
adds the received vectors to get A*U (U the per-position randomized sum) and
picks the most probable U in the solution coset under the iid prior.

The coset search is exact maximum-likelihood when the coset is small enough
to enumerate; otherwise a greedy per-coordinate fallback assigns each free
coordinate its prior argmax.  The greedy path is a documented heuristic:
its error only matters at block lengths where exact search is off the table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, LengthMismatch, NotAFieldScheme, Undecodable
from .expansion import FunctionTable
from .fields import table_dtype
from .rates import Rate
from .schemes import Scheme
from .verify import SecurityResult, uniform_input_dist, verify_secure

RNG_NAME = "pcg64"  # numpy PCG64 behind SeedSequence(seed)

COSET_BUDGET = 20_000  # largest coset decoded by exact ML
SECURITY_BUDGET = 2_000_000  # largest input-vector x atom-vector count enumerated


@dataclass
class EntropyReport:
    dist_U: dict[int, Fraction]
    H_bits: float
    H_qary: float


def _require_field_scheme(scheme):
    exp = scheme.expansion
    if exp is None or exp.structure.carrier.kind != "field":
        raise NotAFieldScheme("block coding needs a masked-sum scheme over a field")
    return exp


def entropy_of_U(scheme, input_dist: dict[tuple[int, int], Fraction]) -> EntropyReport:
    """Exact rational distribution of U = gamma * (map1[W1] + map2[W2]) and
    its entropy in bits and q-ary units."""
    exp = _require_field_scheme(scheme)
    st = exp.structure
    fs = st.carrier
    gammas = st.randomizer
    dist: dict[int, Fraction] = {}
    for (w1, w2), p in input_dist.items():
        if p == 0:
            continue
        base = fs.add(exp.map1[w1], exp.map2[w2])
        share = Fraction(p, len(gammas))
        for g in gammas:
            u = fs.mul(g, base)
            dist[u] = dist.get(u, Fraction(0)) + share
    h_bits = -sum(float(p) * math.log2(p) for p in dist.values() if p > 0)
    return EntropyReport(dist, h_bits, h_bits / math.log2(fs.q))


# ---------------------------------------------------------------------------
# vectorized field arithmetic: numpy copies of the carrier's add/neg/mul tables
# ---------------------------------------------------------------------------

def _matvec(fs, mul):
    """A*v over F_q.  Prime fields reduce the integer product mod p;
    extension fields sum the table products digitwise mod p."""
    p = fs.p
    if fs.n == 1:
        return lambda A, v: (A @ v) % p
    digits = (np.arange(fs.q)[:, None] // p ** np.arange(fs.n)) % p
    weights = p ** np.arange(fs.n)
    return lambda A, v: (digits[mul[A, v[None, :]]].sum(axis=1) % p) @ weights


def _rref(fs, A: np.ndarray):
    """Reduced row echelon form of A over F_q with the row transform tracked.

    Gauss-Jordan on the augmented matrix [A | I], entries in the smallest
    unsigned dtype holding q-1.  Each pivot updates only the rows with a
    nonzero entry in its column, 64 rows at a time, by lookups in the
    carrier's tables: the pivot row's multiples are tabulated once, then
    added to each row.
    Returns (R, T, pivots): R = T*A in RREF, pivots the pivot columns.
    """
    add, neg, mul = fs.arrays()
    q = fs.q
    # add[x, y] = add_flat[x*q + y]: one flat gather beats a 2-D one
    add_flat, flat_index = add.ravel(), table_dtype(q * q)
    inv = np.array([0] + [fs.inv(a) for a in range(1, q)])
    rows, cols = A.shape
    M = np.zeros((rows, cols + rows), dtype=add.dtype)
    M[:, :cols] = A
    M[:, cols:] = np.eye(rows, dtype=add.dtype)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(M[r:, c])
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        # columns left of c are already clear in the pivot row
        M[r, c:] = mul[inv[M[r, c]], M[r, c:]]
        others = np.flatnonzero(M[:, c])
        others = others[others != r]
        multiples = mul[:, M[r, c:]]
        # blocks of rows keep the temporaries small: faster, and peak RSS
        # stays flat where one temporary per pivot fragments the heap
        for s in range(0, len(others), 64):
            block = others[s : s + 64]
            sums = M[block, c:].astype(flat_index, copy=False)
            sums *= q
            sums += multiples[neg[M[block, c]]]
            M[block, c:] = add_flat.take(sums)
        pivots.append(c)
        r += 1
    return M[:, :cols], M[:, cols:], pivots


@dataclass
class BlockCodeSpec:
    base: object  # masked-sum field Scheme
    L: int
    rows: int
    A: np.ndarray
    seed: int | None
    dist_U: dict[int, Fraction]
    _state: dict = dc_field(default_factory=dict)

    @property
    def q(self) -> int:
        return self.base.expansion.structure.carrier.q

    def rate_bits_per_input(self) -> float:
        return self.rows * math.log2(self.q) / self.L


def make_block_spec(
    base,
    L: int,
    epsilon: float = 0.0,
    seed: int | None = 0,
    input_dist: dict | None = None,
    rows: int | None = None,
    identity: bool = False,
) -> BlockCodeSpec:
    """Build the L-length spec: rows = ceil((H_q(U) + epsilon) * L), capped at
    L (the formula may exceed 1 symbol per position at desk scale, where no
    compression is possible).  A is drawn entry-iid uniform from a seeded
    PCG64 stream, or the identity with identity=True."""
    exp = _require_field_scheme(base)
    fs = exp.structure.carrier
    if input_dist is None:
        input_dist = uniform_input_dist(base)
    report = entropy_of_U(base, input_dist)
    if rows is None:
        rows = min(L, math.ceil((report.H_qary + epsilon) * L))
    if rows > L:
        raise ValueError("rows must not exceed L")
    if identity:
        rows = L
        A = np.zeros((L, L), dtype=np.int64)
        np.fill_diagonal(A, 1)
    else:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        A = rng.integers(0, fs.q, size=(rows, L), dtype=np.int64)
    return BlockCodeSpec(base, L, rows, A, seed, report.dist_U)


def _solver(spec: BlockCodeSpec):
    if "rank" not in spec._state:
        fs = spec.base.expansion.structure.carrier
        add, neg, mul = fs.arrays()
        R, T, pivots = _rref(fs, spec.A)
        rank = len(pivots)
        free = [c for c in range(spec.L) if c not in set(pivots)]
        # null-space basis: one vector per free column
        V = np.zeros((len(free), spec.L), dtype=add.dtype)
        for k, fc in enumerate(free):
            V[k, fc] = 1
            V[k, pivots] = neg[R[:rank, fc]]
        logp = np.full(fs.q, -1e18)
        for u, p in spec.dist_U.items():
            if p > 0:
                logp[u] = math.log2(p)
        spec._state.update(
            tables=(add, neg, mul), matvec=_matvec(fs, mul), R=R[:rank],
            T=T.astype(np.int64), pivots=pivots, free=free, V=V, rank=rank, logp=logp,
        )
    return spec._state


def _encode_pre(tables, w_vec, mapping, gamma_vec, z_vec, subtract: bool):
    """Per-position masked values gamma * mapping[w] + z (or - z), read from
    the carrier's (add, neg, mul) tables."""
    add, neg, mul = tables
    mapped = np.array([mapping[w] for w in w_vec], dtype=np.int64)
    masked = mul[gamma_vec, mapped]
    return add[masked, neg[z_vec] if subtract else z_vec]


def block_encode(spec: BlockCodeSpec, w1_vec, w2_vec, gamma_vec, z_vec):
    """Per-position scalar encoding followed by compression with A."""
    if not (len(w1_vec) == len(w2_vec) == len(gamma_vec) == len(z_vec) == spec.L):
        raise LengthMismatch(f"all vectors must have length L = {spec.L}")
    exp = spec.base.expansion
    s = _solver(spec)
    tables, matvec = s["tables"], s["matvec"]
    g = np.asarray(gamma_vec, dtype=np.int64)
    z = np.asarray(z_vec, dtype=np.int64)
    pre1 = _encode_pre(tables, w1_vec, exp.map1, g, z, subtract=False)
    pre2 = _encode_pre(tables, w2_vec, exp.map2, g, z, subtract=True)
    return matvec(spec.A, pre1), matvec(spec.A, pre2)


def block_decode(spec: BlockCodeSpec, x1_vec, x2_vec):
    """Recover the most probable U vector with A*U = x1 + x2, then map each
    position through the expansion's output labeling."""
    s = _solver(spec)
    (add, _, mul), rank = s["tables"], s["rank"]
    syndrome = add[np.asarray(x1_vec, dtype=np.int64), np.asarray(x2_vec, dtype=np.int64)]
    y = s["matvec"](s["T"], syndrome)
    if np.any(y[rank:]):
        raise Undecodable("syndrome outside the column space of A")
    u0 = np.zeros(spec.L, dtype=np.int64)
    u0[s["pivots"]] = y[:rank]
    free = s["free"]
    k = len(free)
    q = len(add)
    logp = s["logp"]
    if k == 0:
        u_hat = u0
    elif q ** k <= COSET_BUDGET:
        # exact ML: enumerate the whole coset
        combos = np.array(
            np.meshgrid(*([np.arange(q)] * k), indexing="ij"), dtype=np.int64
        ).reshape(k, -1).T
        cands = np.repeat(u0[None, :], combos.shape[0], axis=0)
        for j in range(k):
            cands = add[cands, mul[combos[:, j][:, None], s["V"][j][None, :]]]
        scores = logp[cands].sum(axis=1)
        u_hat = cands[int(np.argmax(scores))].astype(np.int64)
    else:
        # greedy typicality: every free coordinate takes its prior argmax;
        # pivots follow from the null-basis shift (V[j] is 1 at the free slot)
        best = int(np.argmax(logp))
        u_hat = u0
        for j in range(k):
            u_hat = add[u_hat, mul[best, s["V"][j]]]
        u_hat = u_hat.astype(np.int64)
    exp = spec.base.expansion
    st = exp.structure
    f_vec = [exp.out_map.get(st.index_of(int(u)), 0) for u in u_hat]
    return u_hat, f_vec


def run_trials(
    spec: BlockCodeSpec,
    trials: int,
    seed: int = 0,
    input_dist: dict[tuple[int, int], Fraction] | None = None,
) -> dict:
    """Monte Carlo decode-error estimate; trial t is keyed by SeedSequence
    (seed, trial) so results are reproducible and order-independent."""
    base = spec.base
    exp = base.expansion
    st = exp.structure
    q = st.carrier.q
    if input_dist is None:
        input_dist = uniform_input_dist(base)
    pairs = sorted(input_dist)
    probs = np.array([float(input_dist[x]) for x in pairs])
    probs = probs / probs.sum()
    gammas = np.array(st.randomizer, dtype=np.int64)
    add, _, mul = _solver(spec)["tables"]
    # U = g*map1[w1] + z + g*map2[w2] - z = g * (map1[w1] + map2[w2]) per pair
    pair_sums = np.array([add[exp.map1[a], exp.map2[b]] for a, b in pairs], dtype=np.int64)

    def one_trial(t: int) -> int:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, t))))
        idx = rng.choice(len(pairs), size=spec.L, p=probs)
        w1 = [pairs[i][0] for i in idx]
        w2 = [pairs[i][1] for i in idx]
        g = gammas[rng.integers(0, len(gammas), size=spec.L)]
        z = rng.integers(0, q, size=spec.L, dtype=np.int64)
        x1, x2 = block_encode(spec, w1, w2, g, z)
        true_u = mul[g, pair_sums[idx]]
        u_hat, _ = block_decode(spec, x1, x2)
        return 0 if np.array_equal(u_hat, true_u) else 1

    errors = sum(one_trial(t) for t in range(trials))
    return {
        "trials": trials,
        "errors": errors,
        "error_rate": errors / trials if trials else 0.0,
        "rows": spec.rows,
        "L": spec.L,
        "rate_bits_per_input": spec.rate_bits_per_input(),
        "rng": RNG_NAME,
        "seed": seed,
    }


def block_security_check(base, f: FunctionTable, L_small: int, A: np.ndarray) -> SecurityResult:
    """Exact security of the compressed L_small-block scheme: vector inputs
    grouped by their f-vector, full enumeration through the generic verifier.
    Costs past SECURITY_BUDGET raise BudgetExceeded before anything is
    enumerated."""
    exp = _require_field_scheme(base)
    fs = exp.structure.carrier
    A = np.asarray(A, dtype=np.int64)
    if A.shape[1] != L_small:
        raise ValueError("A must have L columns")
    n_inputs = (f.m1 * f.m2) ** L_small
    atoms = list(base.atoms)
    cost = n_inputs * (len(atoms) ** L_small)
    if cost > SECURITY_BUDGET:
        raise BudgetExceeded(f"enumeration cost {cost} exceeds budget {SECURITY_BUDGET}")

    w1_vecs = list(itertools.product(range(f.m1), repeat=L_small))
    w2_vecs = list(itertools.product(range(f.m2), repeat=L_small))
    tables = fs.arrays()
    matvec = _matvec(fs, tables[2])

    def codeword(w_vec, mapping, atom, subtract):
        # atom holds one (gamma, z) per position, as in block_encode
        g, z = np.array(atom, dtype=np.int64).T
        return tuple(matvec(A, _encode_pre(tables, w_vec, mapping, g, z, subtract)).tolist())

    # vector function table: one label per distinct f-vector, in first-use order
    fvecs = {}
    rows = []
    for wv1 in w1_vecs:
        row = []
        for wv2 in w2_vecs:
            fv = tuple(f.outputs[a][b] for a, b in zip(wv1, wv2))
            row.append(fvecs.setdefault(fv, len(fvecs)))
        rows.append(row)
    rate = Rate.log2(fs.q).scaled(A.shape[0])
    vec_scheme = Scheme(
        m1=len(w1_vecs),
        m2=len(w2_vecs),
        atoms=list(itertools.product(atoms, repeat=L_small)),
        weights=None,
        enc1=lambda w, atom: codeword(w1_vecs[w], exp.map1, atom, False),
        enc2=lambda w, atom: codeword(w2_vecs[w], exp.map2, atom, True),
        dec=lambda x1, x2: 0,
        rate1=rate,
        rate2=rate,
        kind="block",
    )
    return verify_secure(vec_scheme, FunctionTable.from_rows(rows))
