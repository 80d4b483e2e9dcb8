"""Length-L extension of a field scheme with linear compression.

Each position runs the scalar masked-sum code independently; both codeword
vectors are then multiplied by one shared matrix A over F_q.  The decoder
adds the received vectors to get A*U (U the per-position randomized sum) and
picks the most probable U in the solution coset under the iid prior.

Every F_q matrix product is a GEMM over base-p digit planes, reduced mod p
only when needed (delayed modular reduction, as in FFLAS-FFPACK).  Each
computation bounds its largest sum before converting anything: float32
below 2^24, float64 below 2^53, else SizeBoundExceeded, so every float is
an exact integer.  _matmul reduces once per product; A's elimination keeps
[A | T] unreduced, T the row transform stored in place, and reduces only
its current panel and pivot rows.
run_trials stacks its trials as the columns of one product by A per party
and one by the row transform T.

block_security_check decides exact security from the law of the sum
A(gamma o u): at any L and A when the scalar law of gamma * u is a function
of the label, as for every scheme the block code builds, else by counting
it over the gamma-vectors, with no enumeration of atom vectors.

The coset search is exact maximum-likelihood when the coset is small enough
to enumerate; otherwise a greedy per-coordinate fallback assigns each free
coordinate its prior argmax.  The greedy path is a documented heuristic:
its error only matters at block lengths where exact search is off the table.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceeded, LengthMismatch, NotAFieldScheme, SizeBoundExceeded, Undecodable,
)
from .expansion import FunctionTable
from .fields import table_dtype
from .verify import SecurityResult, uniform_input_dist

RNG_NAME = "pcg64"  # numpy PCG64 behind SeedSequence(seed)

COSET_BUDGET = 20_000  # largest coset decoded by exact ML
SECURITY_BUDGET = 2_000_000  # largest (m1 * m2 * |Gamma|)^L the security check counts


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
# F_q matrix products and elimination
# ---------------------------------------------------------------------------

_BLOCK = 64  # rows per GEMM, and columns per elimination panel
_PREFIX = 2 * _BLOCK  # panel rows searched for pivots before the whole panel
TRIAL_CHUNK = 64  # trials stacked into one L x 64 matrix per party
_CANDIDATES = 1024  # coset candidates scored per float64 block in exact-ML decoding


def _exact_dtype(bound: int, what: str):
    """The float dtype in which every integer below bound is exact: float32
    below 2^24, float64 below 2^53, past that SizeBoundExceeded."""
    if bound < 2**24:
        return np.float32
    if bound < 2**53:
        return np.float64
    raise SizeBoundExceeded(f"{what} is not exact in float64")


def _residues(sums: np.ndarray, p: int) -> np.ndarray:
    """Exact float sums mod p as integers (float32 sums fit in int32)."""
    return sums.astype(np.int32 if sums.dtype == np.float32 else np.int64) % p


def _planes(fs, Y: np.ndarray, ft) -> np.ndarray:
    """Y's stacked digit planes: entry [(i, t), (d, j)] is digit d of
    x^i * Y[t, j], so X's digit planes side by side (entry [s, (i, t)] digit
    i of X[s, t]) times them sum digit d of (X @ Y)[s, j], unreduced."""
    p, n = fs.p, fs.n
    if n == 1:
        return Y.astype(ft)
    inner, cols = Y.shape
    planes = np.empty((n, inner, n, cols), ft)
    for i in range(n):
        xiY = fs.mul_table[p**i][Y]
        for d in range(n):
            planes[i, :, d, :] = xiY // p**d % p
    return planes.reshape(n * inner, n * cols)


def _join(fs, D: np.ndarray, dt) -> np.ndarray:
    """Elements from reduced digits: D[s, d, j] is digit d of entry (s, j)."""
    if fs.n == 1:
        return D[:, 0].astype(dt)
    return (fs.p ** np.arange(fs.n) @ D).astype(dt)


def _matmul(fs, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y over F_q, entries in table_dtype(q).

    Elements are base-p digit vectors (x^i encoded as p^i), so digit d of
    X*Y is sum_i X_i @ digit_d(x^i Y) mod p, X_i the digit-i plane of X:
    one GEMM per 64-row block of X against _planes(Y), with sums of
    inner * n products below p^2.
    """
    p, n = fs.p, fs.n
    inner = X.shape[1]
    ft = _exact_dtype(inner * n * (p - 1) ** 2, f"an F_{fs.q} product over {inner} terms")
    dt = table_dtype(fs.q)
    cols = Y.shape[1]
    planes = _planes(fs, Y, ft)
    powers = p ** np.arange(n)
    out = np.empty((X.shape[0], cols), dt)
    for s in range(0, X.shape[0], _BLOCK):
        block = X[s : s + _BLOCK]
        if n > 1:
            block = (block[:, None, :] // powers[:, None] % p).reshape(len(block), n * inner)
        sums = block.astype(ft) @ planes
        out[s : s + _BLOCK] = _join(fs, _residues(sums, p).reshape(len(sums), n, cols), dt)
    return out


def _reduce(fs, inv, M: np.ndarray):
    """Gauss-Jordan on the left half of M = [P | 0], both halves w wide, in
    place by lookups in the field's tables: each column's pivot is the first
    row at or below the pivot count with a nonzero entry, swapped up, given
    a 1 in column w + j as pivot j, scaled to 1 and cleared from every other
    row.  Pivot rows are only ever combined with pivot rows, so the right
    half of the top k rows ends as K^-1, K the pivot columns of those rows
    of P; a row operation stops at column w + j, past which every row is
    still zero.  Returns (pivots, order): M holds the reduction of the
    input's rows taken in that order.  inv holds the field's inverses
    (inv[0] unused)."""
    add, neg, mul, q = fs.add_table, fs.neg_table, fs.mul_table, fs.q
    # add[x, y] = add_flat[x*q + y]: one flat gather beats a 2-D one
    add_flat, flat_index = add.ravel(), table_dtype(q * q)
    rows, w = M.shape[0], M.shape[1] // 2
    order = np.arange(rows)
    pivots = []
    r = 0
    for c in range(w):
        if r == rows:
            break
        nz = np.flatnonzero(M[r:, c])
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
            order[[r, i]] = order[[i, r]]
        # columns left of c are already clear in the pivot row
        active = slice(c, w + r + 1)
        M[r, w + r] = 1
        M[r, active] = mul[inv[M[r, c]], M[r, active]]
        others = np.flatnonzero(M[:, c])
        others = others[others != r]
        sums = M[others, active].astype(flat_index)
        sums *= q
        sums += mul[:, M[r, active]][neg[M[others, c]]]
        M[others, active] = add_flat.take(sums)
        pivots.append(c)
        r += 1
    return pivots, order


def _rref(fs, A: np.ndarray):
    """Reduced row echelon form of A over F_q with the row transform tracked.

    Blocked Gauss-Jordan on [A | T], held as unreduced float digit planes,
    one 64-column panel at a time.  T's columns are indexed by row position:
    a row gets its identity 1 when it becomes a pivot row (the rest at the
    end), so with r pivot rows found every row of T is zero past column r,
    and perm records which row of A each position holds.  _reduce finds the
    panel's k pivots and K^-1 on its first 128 rows at or below the pivot
    count, on all of them only when those yield too few (a pivot is the
    first nonzero row, the same in both).  The new pivot rows are K^-1
    times their rows; every row adds minus its pivot-column entries times
    them, unreduced, over columns c0 to cols + r + k only.  A panel with k
    pivots adds at most k * n * (p-1)^2 to an entry, so the bound
    rank * n * (p-1)^2 + p is checked before M is allocated, and M is
    reduced once at the end.  R is unique and the swaps are those of an
    unblocked pass, so the result is too.  Returns (R, T, pivots): R = T*A
    in RREF, T's columns in A's row order.
    """
    p, n, q = fs.p, fs.n, fs.q
    inv = np.array([0] + [fs.inv(a) for a in range(1, q)])
    dt = table_dtype(q)
    rows, cols = A.shape
    ft = _exact_dtype(
        min(rows, cols) * n * (p - 1) ** 2 + p,
        f"eliminating a {rows} x {cols} matrix over F_{q}",
    )
    # M[s, d, j] is digit d of entry (s, j) of [A | T], unreduced
    M = np.zeros((rows, n, cols + rows), ft)
    for d in range(n):
        M[:, d, :cols] = A // p**d % p
    perm = np.arange(rows)
    pivots = []
    r = 0
    for c0 in range(0, cols, _BLOCK):
        if r == rows:
            break
        w = min(_BLOCK, cols - c0)
        # later panels never touch these columns, so M keeps them unreduced
        panel = _residues(M[:, :, c0 : c0 + w], p)
        for search in (panel[r : r + _PREFIX], panel[r:]):
            P = _join(fs, search, dt)
            S = np.concatenate([P, np.zeros_like(P)], axis=1)
            found, order = _reduce(fs, inv, S)
            if len(found) == w or r + _PREFIX >= rows:
                break
        if not found:
            continue
        moved = np.flatnonzero(order != np.arange(len(order)))
        M[r + moved] = M[r + order[moved]]
        panel[r + moved] = panel[r + order[moved]]
        perm[r + moved] = perm[r + order[moved]]
        k = len(found)
        hi = cols + r + k
        M[r + np.arange(k), 0, cols + r + np.arange(k)] = 1
        Kinv = S[:k, w : w + k]
        new_rows = _matmul(fs, Kinv, _join(fs, _residues(M[r : r + k, :, c0:hi], p), dt))
        planes = _planes(fs, new_rows, ft)
        # digit-wise negation of every row's pivot-column entries
        negF = ((p - panel[:, :, found]) % p).reshape(rows, n * k).astype(ft)
        for s in range(0, rows, _BLOCK):
            sums = negF[s : s + _BLOCK] @ planes
            M[s : s + _BLOCK, :, c0:hi] += sums.reshape(len(sums), n, hi - c0)
        M[r : r + k, :, c0:hi] = planes[:k].reshape(k, n, hi - c0)
        pivots += [c0 + c for c in found]
        r += k
    M[np.arange(r, rows), 0, cols + np.arange(r, rows)] = 1
    R = np.empty((rows, cols), dt)
    T = np.empty((rows, rows), dt)
    for s in range(0, rows, _BLOCK):
        # one statement, so no block of digits outlives its rows
        R[s : s + _BLOCK], T[s : s + _BLOCK, perm] = np.hsplit(
            _join(fs, _residues(M[s : s + _BLOCK], p), dt), [cols])
    return R, T, pivots


@dataclass
class BlockCodeSpec:
    """A length-L block code: the field scheme at each position, A, and the
    input distribution it was built for with its EntropyReport, which set
    the rows, the decoder's prior (entropy.dist_U) and run_trials' inputs."""

    base: object  # masked-sum field Scheme
    L: int
    rows: int
    A: np.ndarray
    input_dist: dict[tuple[int, int], Fraction]
    entropy: EntropyReport

    @property
    def field(self):
        return self.base.expansion.structure.carrier

    @property
    def q(self) -> int:
        return self.field.q

    def rate_bits_per_input(self) -> float:
        return self.rows * math.log2(self.q) / self.L

    @functools.cached_property
    def _solver(self) -> dict:
        """The decoding state, built on first use: the row transform T of
        A's elimination, the pivots, the rank, the log-prior and the coset
        offsets.  Every candidate for U is u0 + offsets[i], u0 the solution
        that is 0 on the free coordinates: offsets are all combinations of
        the null-space basis when the coset has at most COSET_BUDGET
        members, else the one greedy shift that gives every free coordinate
        its prior argmax."""
        fs = self.field
        dt = table_dtype(fs.q)
        R, T, pivots = _rref(fs, self.A)
        rank = len(pivots)
        pivot_set = set(pivots)
        free = [c for c in range(self.L) if c not in pivot_set]
        k = len(free)
        # null-space basis: one vector per free column
        V = np.zeros((k, self.L), dtype=dt)
        for j, fc in enumerate(free):
            V[j, fc] = 1
            V[j, pivots] = fs.neg_table[R[:rank, fc]]
        logp = np.full(fs.q, -1e18)
        for u, p in self.entropy.dist_U.items():
            if p > 0:
                logp[u] = math.log2(p)
        if fs.q**k <= COSET_BUDGET:
            # exact ML: the whole coset, first free coordinate most significant
            combos = np.array(
                list(itertools.product(range(fs.q), repeat=k)), dt
            ).reshape(fs.q**k, k)
        else:
            # greedy typicality: V[j] is 1 at its free slot, so each free
            # coordinate takes the prior argmax and the pivots follow
            combos = np.full((1, k), np.argmax(logp), dt)
        return {"T": T, "pivots": pivots, "rank": rank, "logp": logp,
                "offsets": _matmul(fs, combos, V)}


def make_block_spec(
    base,
    L: int,
    epsilon: float = 0.0,
    seed: int | None = 0,
    input_dist: dict | None = None,
    rows: int | None = None,
    identity: bool = False,
) -> BlockCodeSpec:
    """Build the L-length spec, which keeps a copy of input_dist (uniform by
    default) and its EntropyReport: rows = ceil((H_q(U) + epsilon) * L),
    capped at L (the formula may exceed 1 symbol per position at desk
    scale, where no compression is possible).  A is drawn entry-iid uniform
    from a seeded PCG64 stream, or the identity with identity=True, and
    stored in table_dtype(q).  L below 1, an epsilon that makes
    (H_q(U) + epsilon) * L infinite or NaN, a given or computed rows outside
    1..L, and identity with rows other than L raise ValueError before A is
    drawn."""
    if L < 1:
        raise ValueError(f"L must be at least 1, got {L}")
    exp = _require_field_scheme(base)
    fs = exp.structure.carrier
    input_dist = uniform_input_dist(base) if input_dist is None else dict(input_dist)
    report = entropy_of_U(base, input_dist)
    if not math.isfinite((report.H_qary + epsilon) * L):
        raise ValueError(f"epsilon must keep (H_q(U) + epsilon) * L finite, got {epsilon}")
    if rows is None:
        rows = L if identity else min(L, math.ceil((report.H_qary + epsilon) * L))
    if not 1 <= rows <= L:
        raise ValueError(f"rows must be in 1..L = 1..{L}, got {rows}")
    if identity and rows != L:
        raise ValueError(f"the identity matrix has rows = L = {L}, got rows {rows}")
    dt = table_dtype(fs.q)
    if identity:
        A = np.eye(L, dtype=dt)
    else:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        A = rng.integers(0, fs.q, size=(rows, L), dtype=np.int64).astype(dt)
    return BlockCodeSpec(base, L, rows, A, input_dist, report)


def _encode(spec: BlockCodeSpec, mapped1, mapped2, G, Z):
    """Both parties' codewords, one column per block: A * (G * mapped1 + Z)
    and A * (G * mapped2 - Z), per-position masking read from the carrier's
    tables."""
    fs = spec.field
    add, neg, mul = fs.add_table, fs.neg_table, fs.mul_table
    return (_matmul(fs, spec.A, add[mul[G, mapped1], Z]),
            _matmul(fs, spec.A, add[mul[G, mapped2], neg[Z]]))


def _decode(spec: BlockCodeSpec, X1, X2):
    """The most probable U with A*U = x1 + x2 for each column of received
    codewords: T*(x1 + x2) gives the coset's pivot coordinates, and each
    column takes the candidate u0 + offsets[i] of highest log-prior."""
    s = spec._solver
    fs = spec.field
    add, q = fs.add_table, fs.q
    rank, logp, offsets = s["rank"], s["logp"], s["offsets"]
    y = _matmul(fs, s["T"], add[X1, X2])
    if np.any(y[rank:]):
        raise Undecodable("syndrome outside the column space of A")
    # add[u, v] = add_flat[u*q + v]: flat gathers beat 2-D ones
    add_flat = add.ravel()
    u0 = np.zeros((y.shape[1], spec.L), dtype=table_dtype(q * q))
    u0[:, s["pivots"]] = y[:rank].T
    u0 *= q
    U = np.empty((spec.L, y.shape[1]), dtype=y.dtype)
    for j, uq in enumerate(u0):
        # the first maximum over all blocks, as one argmax over the coset would give
        best = -np.inf
        for c0 in range(0, len(offsets), _CANDIDATES):
            cands = add_flat.take(offsets[c0 : c0 + _CANDIDATES] + uq)
            scores = logp.take(cands).sum(axis=1)
            i = int(np.argmax(scores))
            if scores[i] > best:
                best = scores[i]
                U[:, j] = cands[i]
    return U


def block_encode(spec: BlockCodeSpec, w1_vec, w2_vec, gamma_vec, z_vec):
    """Per-position scalar encoding followed by compression with A."""
    if not (len(w1_vec) == len(w2_vec) == len(gamma_vec) == len(z_vec) == spec.L):
        raise LengthMismatch(f"all vectors must have length L = {spec.L}")
    exp = spec.base.expansion

    def column(values):
        return np.asarray(values, dtype=np.int64)[:, None]

    X1, X2 = _encode(
        spec,
        column([exp.map1[w] for w in w1_vec]),
        column([exp.map2[w] for w in w2_vec]),
        column(gamma_vec),
        column(z_vec),
    )
    return X1[:, 0].astype(np.int64), X2[:, 0].astype(np.int64)


def block_decode(spec: BlockCodeSpec, x1_vec, x2_vec):
    """Recover the most probable U vector with A*U = x1 + x2, then map each
    position through the expansion's output labeling; a U in a confusable
    set no input pair reaches raises Undecodable."""
    U = _decode(
        spec,
        np.asarray(x1_vec, dtype=np.int64)[:, None],
        np.asarray(x2_vec, dtype=np.int64)[:, None],
    )
    u_hat = U[:, 0].astype(np.int64)
    exp = spec.base.expansion
    st = exp.structure
    f_vec = []
    for u in u_hat.tolist():
        label = exp.out_map.get(st.index_of(u))
        if label is None:
            raise Undecodable(f"U = {u} lies in a confusable set no input pair reaches")
        f_vec.append(label)
    return u_hat, f_vec


def run_trials(spec: BlockCodeSpec, trials: int, seed: int = 0) -> dict:
    """Monte Carlo decode-error estimate over input pairs drawn from
    spec.input_dist; trial t is keyed by SeedSequence (seed, trial) so
    results are reproducible and order-independent.  Trials run TRIAL_CHUNK
    at a time as the columns of one encode and one decode; the solver is
    built even for zero trials.  A negative trial count raises ValueError."""
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    exp = spec.base.expansion
    fs = spec.field
    pairs = sorted(spec.input_dist)
    probs = np.array([float(spec.input_dist[x]) for x in pairs])
    probs = probs / probs.sum()
    gammas = np.array(exp.structure.randomizer, dtype=np.int64)
    spec._solver  # built even for zero trials
    add, mul = fs.add_table, fs.mul_table
    map1 = np.array([exp.map1[a] for a, _ in pairs], dtype=add.dtype)
    map2 = np.array([exp.map2[b] for _, b in pairs], dtype=add.dtype)
    # U = g*map1[w1] + z + g*map2[w2] - z = g * (map1[w1] + map2[w2]) per pair
    pair_sums = add[map1, map2]
    errors = 0
    for start in range(0, trials, TRIAL_CHUNK):
        ts = range(start, min(start + TRIAL_CHUNK, trials))
        idx = np.empty((spec.L, len(ts)), dtype=np.intp)
        G = np.empty((spec.L, len(ts)), dtype=add.dtype)
        Z = np.empty((spec.L, len(ts)), dtype=add.dtype)
        for j, t in enumerate(ts):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, t))))
            idx[:, j] = rng.choice(len(pairs), size=spec.L, p=probs)
            G[:, j] = gammas[rng.integers(0, len(gammas), size=spec.L)]
            Z[:, j] = rng.integers(0, fs.q, size=spec.L, dtype=np.int64)
        X1, X2 = _encode(spec, map1[idx], map2[idx], G, Z)
        wrong = _decode(spec, X1, X2) != mul[G, pair_sums[idx]]
        errors += int(np.count_nonzero(wrong.any(axis=0)))
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
    """Exact security of the compressed L_small-block scheme.  Over unweighted
    atoms Gamma x the whole carrier, X1 is uniform on Im A and independent of
    X1 + X2 = A(gamma o u), u_i = map1[w1_i] + map2[w2_i], so a codeword pair
    counts [x1 in Im A] * q^(L - rank A) * law(A(gamma o u))(x1 + x2).  When
    each label's pair sums share one law of gamma * u, that law depends on the
    f-vector alone: secure at every L and A, with nothing counted.  Otherwise
    it is counted over the gamma-vectors once per distinct u-vector of each
    f-vector group, compared in verify_secure's order and with its witness,
    whose outcome is (0, s), s the least codeword where two laws differ.  An
    L_small below 1, an A that is not an L_small-column matrix over 0..q-1,
    and a weighted base or one over other atoms raise ValueError, and a count
    past SECURITY_BUDGET BudgetExceeded, before anything is counted."""
    exp = _require_field_scheme(base)
    fs = exp.structure.carrier
    if L_small < 1:
        raise ValueError(f"L must be at least 1, got {L_small}")
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[1] != L_small:
        raise ValueError(f"A must be a matrix with L = {L_small} columns, got shape {A.shape}")
    if A.dtype.kind not in "iu":
        raise ValueError(f"entries of A must lie in 0..{fs.q - 1}, got dtype {A.dtype}")
    if A.size and (A.min() < 0 or A.max() >= fs.q):
        raise ValueError(f"entries of A must lie in 0..{fs.q - 1}, got {A[(A < 0) | (A >= fs.q)][0]}")
    gammas = sorted({g for g, _ in base.atoms})
    if base.weights is not None or sorted(base.atoms) != list(itertools.product(gammas, range(fs.q))):
        raise ValueError("block security needs an unweighted base over gamma x the whole carrier")
    cells: dict = {}  # cells[label][w1]: the w2 with f(w1, w2) = label, ascending
    for w1, row in enumerate(f.outputs):
        for w2, label in enumerate(row):
            cells.setdefault(label, {}).setdefault(w1, []).append(w2)

    def sum_of(wv1, wv2) -> tuple:
        return tuple(fs.add(exp.map1[a], exp.map2[b]) for a, b in zip(wv1, wv2))

    sums = {label: sorted({fs.add(exp.map1[a], exp.map2[b]) for a, bs in rows.items() for b in bs})
            for label, rows in cells.items()}
    if all(len({tuple(sorted(fs.mul(g, u) for g in gammas)) for u in us}) == 1
           for us in sums.values()):
        return SecurityResult(True)
    if (cost := (f.m1 * f.m2 * len(gammas)) ** L_small) > SECURITY_BUDGET:
        raise BudgetExceeded(f"counting cost {cost} exceeds budget {SECURITY_BUDGET}")
    gamma_vecs = np.array(list(itertools.product(gammas, repeat=L_small)), np.int64)

    def law(u) -> Counter:
        return Counter(map(tuple, _matmul(fs, fs.mul_table[gamma_vecs, u], A.T).tolist()))

    heads: dict = {}  # labels by first cell in row-major order, grouped by its row
    for label in sorted(cells, key=lambda label: min((a, bs[0]) for a, bs in cells[label].items())):
        heads.setdefault(min(cells[label]), []).append(label)
    # the f-vector groups in order of first member, row vector first
    for rows in itertools.product(list(heads.values()), repeat=L_small):
        for fv in itertools.product(*rows):
            members = ((wv1, wv2) for wv1 in itertools.product(*(cells[label] for label in fv))
                       for wv2 in itertools.product(*(cells[label][a] for label, a in zip(fv, wv1))))
            first = next(members)
            ref = law(sum_of(*first))
            differ = {u for u in itertools.product(*(sums[label] for label in fv)) if law(u) != ref}
            if not differ:
                continue
            pair = next(pair for pair in members if sum_of(*pair) in differ)
            other = law(sum_of(*pair))
            s = min(k for k in ref.keys() | other.keys() if ref[k] != other[k])
            w = [int(np.ravel_multi_index(wv, (m,) * L_small)) for wv, m in zip(first + pair, (f.m1, f.m2) * 2)]
            return SecurityResult(False, ((w[0], w[1]), (w[2], w[3]), ((0,) * A.shape[0], s)))
    return SecurityResult(True)
