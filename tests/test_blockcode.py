import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from confuse import blockcode
from confuse.blockcode import (
    COSET_BUDGET,
    TRIAL_CHUNK,
    _decode,
    _matmul,
    block_decode,
    block_encode,
    block_security_check,
    entropy_of_U,
    make_block_spec,
    run_trials,
)
from confuse.errors import (
    BudgetExceeded, LengthMismatch, NotAFieldScheme, SizeBoundExceeded, Undecodable,
)
from confuse.expansion import FunctionTable, equal_table, find_expansion, search_expansions
from confuse.fields import field_make, table_dtype
from confuse.gallery import GALLERY, get as gallery_get
from confuse.schemes import crt_equal_scheme, scheme_from_expansion, serialize_scheme
from confuse.structures import field_confusable_sets
from confuse.verify import SecurityResult, verify_scheme, verify_secure
from oracles import block_security_by_enumeration, block_trial_errors, field_arithmetic, gauss_jordan, table_encoders


def _and_scheme():
    return scheme_from_exp_cached()


_cache = {}


def scheme_from_exp_cached():
    if "and" not in _cache:
        _cache["and"] = scheme_from_expansion(gallery_get("and2").expansion())
    return _cache["and"]


def _uniform_bits():
    return {(a, b): Fraction(1, 4) for a in range(2) for b in range(2)}


def test_entropy_of_U_for_and():
    rep = entropy_of_U(_and_scheme(), _uniform_bits())
    assert rep.dist_U == {0: Fraction(1, 4), 1: Fraction(3, 8), 2: Fraction(3, 8)}
    expected_qary = (11 * math.log2(2) / math.log2(3) - 3) / 4
    assert abs(rep.H_qary - expected_qary) < 1e-12
    assert abs(rep.H_bits - expected_qary * math.log2(3)) < 1e-12


def test_entropy_of_U_equal3_uniform():
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    dist = {(a, b): Fraction(1, 9) for a in range(3) for b in range(3)}
    rep = entropy_of_U(scheme, dist)
    assert rep.dist_U == {u: Fraction(1, 3) for u in range(3)}


def test_entropy_of_U_deterministic_is_zero():
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    rep = entropy_of_U(scheme, {(0, 0): Fraction(1)})
    assert rep.dist_U == {0: Fraction(1)}
    assert rep.H_bits == 0.0


def test_entropy_of_U_matches_direct_histogram():
    # oracle: tally x1+x2 over the full input x randomness lattice
    scheme = _and_scheme()
    st = scheme.expansion.structure
    dist = _uniform_bits()
    enc1, enc2 = table_encoders(scheme)
    histogram = {}
    for (w1, w2), p in dist.items():
        for atom in scheme.atoms:
            u = st.carrier.add(enc1(w1, atom)[0], enc2(w2, atom)[0])
            histogram[u] = histogram.get(u, Fraction(0)) + p * Fraction(1, len(scheme.atoms))
    rep = entropy_of_U(scheme, dist)
    assert histogram == rep.dist_U


def test_entropy_requires_field_scheme():
    with pytest.raises(NotAFieldScheme):
        entropy_of_U(crt_equal_scheme(6), _uniform_bits())
    ring_scheme = scheme_from_expansion(gallery_get("selected_switch").expansion())
    with pytest.raises(NotAFieldScheme):
        entropy_of_U(ring_scheme, _uniform_bits())


def test_identity_block_code_is_exact():
    spec = make_block_spec(_and_scheme(), L=16, identity=True)
    res = run_trials(spec, 60, seed=11)
    assert res["errors"] == 0


def test_scalar_case_matches_single_position():
    spec = make_block_spec(_and_scheme(), L=1, rows=1, identity=True)
    fs = spec.base.expansion.structure.carrier
    enc1, enc2 = table_encoders(spec.base)
    for w1 in range(2):
        for w2 in range(2):
            for g in (1, 2):
                for z in range(3):
                    x1, x2 = block_encode(spec, [w1], [w2], [g], [z])
                    u, fvec = block_decode(spec, x1, x2)
                    direct = fs.add(enc1(w1, (g, z))[0], enc2(w2, (g, z))[0])
                    assert u[0] == direct
                    assert fvec[0] == gallery_get("and2").table.outputs[w1][w2]


def test_block_linearity_on_seeded_instances():
    spec = make_block_spec(_and_scheme(), L=20, rows=12, seed=5)
    fs = spec.base.expansion.structure.carrier
    rng = np.random.default_rng(99)
    for _ in range(100):
        w1 = rng.integers(0, 2, size=20)
        w2 = rng.integers(0, 2, size=20)
        g = rng.choice([1, 2], size=20)
        z = rng.integers(0, 3, size=20)
        x1, x2 = block_encode(spec, list(w1), list(w2), g, z)
        pre1 = np.array([fs.add(fs.mul(int(gv), [0, 1][a]), int(zv)) for a, gv, zv in zip(w1, g, z)])
        pre2 = np.array([fs.sub(fs.mul(int(gv), [1, 2][b]), int(zv)) for b, gv, zv in zip(w2, g, z)])
        u = (pre1 + pre2) % 3
        assert np.array_equal((x1 + x2) % 3, (spec.A @ u) % 3)


def test_length_mismatch():
    spec = make_block_spec(_and_scheme(), L=4, identity=True)
    with pytest.raises(LengthMismatch):
        block_encode(spec, [0, 1], [0, 1], [1, 1], [0, 0])


def test_undecodable_on_inconsistent_syndrome():
    from confuse.blockcode import BlockCodeSpec

    dist = _uniform_bits()
    spec = BlockCodeSpec(
        base=_and_scheme(), L=1, rows=2, A=np.array([[1], [2]]),
        input_dist=dist, entropy=entropy_of_U(_and_scheme(), dist),
    )
    # (1, 1) is not of the form (u, 2u) mod 3
    with pytest.raises(Undecodable):
        block_decode(spec, np.array([1, 1]), np.array([0, 0]))


def test_point_mass_prior_resolves_underdetermined_systems():
    # equal inputs force the randomized sum to 0, so dist_U is a point mass
    # and the prior resolves any coset even at rows = L - 1
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    dist = {(0, 0): Fraction(1)}
    spec = make_block_spec(scheme, L=6, rows=5, seed=2, input_dist=dist)
    assert spec.entropy.dist_U == {0: Fraction(1)}
    res = run_trials(spec, 40, seed=3)
    assert res["errors"] == 0


def test_error_rate_non_increasing_in_rows():
    trials = 500
    counts = []
    for rows in (4, 8, 12):
        spec = make_block_spec(_and_scheme(), L=12, rows=rows, seed=3)
        res = run_trials(spec, trials, seed=13)
        counts.append(res["errors"])
    # allow one standard error of slack between consecutive points
    for a, b in zip(counts, counts[1:]):
        pa = a / trials
        se = math.sqrt(max(pa * (1 - pa), 1e-9) / trials)
        assert b / trials <= pa + se
    assert counts[2] == 0  # rows = L with ML coset search


def test_rows_formula_and_cap():
    spec = make_block_spec(_and_scheme(), L=40, epsilon=0.0, seed=0)
    assert spec.rows == math.ceil(0.985056822321508 * 40)
    capped = make_block_spec(_and_scheme(), L=40, epsilon=0.15, seed=0)
    assert capped.rows == 40  # formula exceeds L, clamped
    with pytest.raises(ValueError):
        make_block_spec(_and_scheme(), L=8, rows=9)


def test_trials_are_reproducible():
    spec = make_block_spec(_and_scheme(), L=12, rows=9, seed=21)
    a = run_trials(spec, 80, seed=4)
    b = run_trials(spec, 80, seed=4)
    assert a["errors"] == b["errors"]


def test_extension_field_block_code():
    # equality over F_4: per-position code with table-driven vector ops.
    # U is uniform over F_4 here, so only a full-rank A decodes reliably.
    f4 = field_make(2, 2)
    st = field_confusable_sets(f4, 1)
    exp = find_expansion(equal_table(4), st)
    scheme = scheme_from_expansion(exp)
    dist = {(a, b): Fraction(1, 16) for a in range(4) for b in range(4)}
    rep = entropy_of_U(scheme, dist)
    assert rep.dist_U == {u: Fraction(1, 4) for u in range(4)}
    spec = make_block_spec(scheme, L=6, identity=True, input_dist=dist)
    res = run_trials(spec, 30, seed=9)
    assert res["errors"] == 0
    full_rank_seed = next(
        s for s in range(50)
        if make_block_spec(scheme, L=6, rows=6, seed=s, input_dist=dist)._solver["rank"] == 6
    )
    random_spec = make_block_spec(scheme, L=6, rows=6, seed=full_rank_seed, input_dist=dist)
    res2 = run_trials(random_spec, 30, seed=9)
    assert res2["errors"] == 0


def test_block_security_identity_and_wide():
    and2 = gallery_get("and2").table
    eye = np.eye(2, dtype=int)
    assert block_security_check(_and_scheme(), and2, 2, eye).ok
    assert block_security_check(_and_scheme(), and2, 2, np.array([[1, 1]])).ok
    assert block_security_check(_and_scheme(), and2, 2, np.array([[2, 1], [0, 1]])).ok
    assert block_security_check(_and_scheme(), and2, 2, np.zeros((0, 2), int)).ok  # sends nothing


def test_block_security_L1_matches_scalar_verifier():
    and2 = gallery_get("and2").table
    res = block_security_check(_and_scheme(), and2, 1, np.array([[1]]))
    scalar = verify_secure(_and_scheme(), and2)
    assert res.ok == scalar.ok


def _pinned_gamma_equal3():
    """equal3 masked-sum scheme with the randomizer frozen at 1 (insecure)."""
    scheme = scheme_from_expansion(gallery_get("equal3").expansion())
    scheme.atoms = [(1, z) for z in range(3)]
    return scheme


BLOCK_MATRICES = {
    "identity": lambda L: np.eye(L, dtype=int),
    "ones": lambda L: np.ones((1, L), dtype=int),
    "upper": lambda L: np.array([[2, 1], [0, 1]]),
}
# (ok, witness) recorded when the block encoders were scalar field loops
BLOCK_SECURITY_PINS = {
    ("and2", 1, "identity"): (True, None),
    ("and2", 1, "ones"): (True, None),
    ("and2", 2, "identity"): (True, None),
    ("and2", 2, "ones"): (True, None),
    ("and2", 2, "upper"): (True, None),
    ("and2", 3, "identity"): (True, None),
    ("and2", 3, "ones"): (True, None),
    ("equal3", 1, "identity"): (False, ((0, 1), (0, 2), ((0,), (1,)))),
    ("equal3", 1, "ones"): (False, ((0, 1), (0, 2), ((0,), (1,)))),
    ("equal3", 2, "identity"): (False, ((0, 1), (0, 2), ((0, 0), (0, 1)))),
    ("equal3", 2, "ones"): (False, ((0, 1), (0, 2), ((0,), (1,)))),
    ("equal3", 2, "upper"): (False, ((0, 1), (0, 2), ((0, 0), (1, 1)))),
}


@pytest.mark.parametrize("key", sorted(BLOCK_SECURITY_PINS))
def test_block_security_matches_pinned_results(key):
    name, L, matrix = key
    scheme = _and_scheme() if name == "and2" else _pinned_gamma_equal3()
    res = block_security_check(scheme, gallery_get(name).table, L, BLOCK_MATRICES[matrix](L))
    assert (res.ok, res.witness) == BLOCK_SECURITY_PINS[key]


def test_block_security_budget():
    # and2's own base is certified at any L, with nothing counted
    and2 = gallery_get("and2").table
    assert block_security_check(_and_scheme(), and2, 6, np.eye(6, dtype=int)).ok
    # gamma pinned: (3 * 3 * 1)^7 = 4,782,969 > SECURITY_BUDGET, refused
    # before the gamma-vectors or any law is allocated
    equal3 = gallery_get("equal3").table
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="counting cost 4782969 exceeds budget 2000000"):
            block_security_check(_pinned_gamma_equal3(), equal3, 7, np.eye(7, dtype=int))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# and2's scheme is over F_3; read as residues, [[5]] and [[-1]] would
# verify secure as [[2]] does
@pytest.mark.parametrize("entry", [5, -1, 3])
def test_block_security_refuses_entries_outside_the_field(entry):
    with pytest.raises(ValueError, match=f"entries of A must lie in 0..2, got {entry}"):
        block_security_check(_and_scheme(), gallery_get("and2").table, 1, np.array([[entry]]))


@pytest.mark.parametrize("A", [np.array([[1.7]]), np.array([[1.0]]), np.array([[True]])])
def test_block_security_refuses_an_A_that_is_not_integer(A):
    # read as int64, [[1.7]] was [[1]] and verified secure
    with pytest.raises(ValueError, match=f"entries of A must lie in 0..2, got dtype {A.dtype}"):
        block_security_check(_and_scheme(), gallery_get("and2").table, 1, A)


def test_block_security_refuses_L_below_1():
    with pytest.raises(ValueError, match="L must be at least 1, got 0"):
        block_security_check(_and_scheme(), gallery_get("and2").table, 0, np.zeros((1, 0), int))


def test_block_security_refuses_a_vector_A():
    with pytest.raises(ValueError, match=r"A must be a matrix with L = 1 columns, got shape \(1,\)"):
        block_security_check(_and_scheme(), gallery_get("and2").table, 1, np.array([1]))


def test_block_security_wide_A_is_counted_without_a_code_space_cap():
    # 13 rows over F_3 span 3^13 codewords; the law of the sum holds one
    # codeword per gamma-vector, so no codeword space is tabulated
    res = block_security_check(_pinned_gamma_equal3(), gallery_get("equal3").table, 1,
                               np.ones((13, 1), int))
    assert (res.ok, res.witness) == (False, ((0, 1), (0, 2), ((0,) * 13, (1,) * 13)))


def test_block_security_wide_A_is_certified():
    tracemalloc.start()
    try:
        assert block_security_check(_and_scheme(), gallery_get("and2").table, 1,
                                    np.ones((4096, 1), int)).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_block_security_of_B1_is_certified_at_L_1024():
    # the certificate counts nothing and A's range is read from its own
    # uint8 dtype: no copy of A (1 MiB) or mask of it is made
    A = _b1_spec().A
    tracemalloc.start()
    try:
        start = time.perf_counter()
        res = block_security_check(_and_scheme(), gallery_get("and2").table, 1024, A)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == SecurityResult(True)
    assert elapsed < 0.5 and peak < 1 << 20


def test_block_security_of_pinned_equal3_is_counted_at_L_6():
    # (3 * 3 * 1)^6 = 531,441 is within SECURITY_BUDGET.  The first f-vector
    # group with two laws is the second, and its first two members differ in
    # the last position.
    equal3 = gallery_get("equal3").table
    start = time.perf_counter()
    res = block_security_check(_pinned_gamma_equal3(), equal3, 6, np.eye(6, dtype=int))
    assert time.perf_counter() - start < 2.0
    assert (res.ok, res.witness) == (False, ((0, 1), (0, 2), ((0,) * 6, (0, 0, 0, 0, 0, 1))))
    # a zero A sends one codeword whatever the inputs: every group is
    # counted and all agree
    start = time.perf_counter()
    assert block_security_check(_pinned_gamma_equal3(), equal3, 6, np.zeros((1, 6), int)).ok
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("edit", ["z_restricted", "weighted", "duplicated"])
def test_block_security_refuses_other_bases(edit):
    scheme = scheme_from_expansion(gallery_get("and2").expansion())
    if edit == "z_restricted":
        scheme.atoms = [(g, 0) for g in scheme.expansion.structure.randomizer]
    elif edit == "weighted":
        scheme.weights = [1] * len(scheme.atoms)
    else:
        scheme.atoms = list(scheme.atoms) + [scheme.atoms[0]]
    with pytest.raises(ValueError, match="unweighted base over gamma x the whole carrier"):
        block_security_check(scheme, gallery_get("and2").table, 2, np.eye(2, dtype=int))


def _grid_bases():
    """Up to three field hits to carrier 9 per gallery table, each as its
    masked-sum base and with gamma pinned to 1."""
    for name, ex in sorted(GALLERY.items()):
        for _, exp in search_expansions(ex.table, 9, ("field",), limit=3):
            scheme = scheme_from_expansion(exp)
            pinned = scheme_from_expansion(exp)
            pinned.atoms = [(1, z) for z in range(exp.structure.carrier.q)]
            yield name, ex.table, scheme
            yield name, ex.table, pinned


def test_block_security_matches_the_enumeration_oracle():
    # every case the enumeration serves within (m1 * m2 * |atoms|)^L <=
    # SECURITY_BUDGET, insecure ones included
    rng = np.random.default_rng(20261020)
    start = time.perf_counter()
    cases = insecure = 0
    for name, f, base in _grid_bases():
        q = base.expansion.structure.carrier.q
        for L in (1, 2, 3):
            if (f.m1 * f.m2 * len(base.atoms)) ** L > blockcode.SECURITY_BUDGET:
                continue
            matrices = [np.eye(L, dtype=int), np.ones((1, L), int), np.zeros((1, L), int)]
            matrices += [rng.integers(0, q, size=(int(rng.integers(1, L + 2)), L)) for _ in range(2)]
            for A in matrices:
                res = block_security_check(base, f, L, A)
                expected = block_security_by_enumeration(base, f, L, A)
                assert (res.ok, res.witness) == (expected.ok, expected.witness), (name, q, L, A)
                cases += 1
                insecure += not res.ok
    assert time.perf_counter() - start < 20
    assert (cases, insecure) == (465, 189)


def test_block_security_of_a_base_under_another_table_is_counted():
    # and2's base read against XOR: its pair sums no longer share one law
    # per label, so the verdict comes from the count, as the oracle's does
    xor = FunctionTable.from_rows([[0, 1], [1, 0]])
    for L, A in ((1, np.eye(1, dtype=int)), (2, np.eye(2, dtype=int)), (2, np.array([[1, 2]]))):
        res = block_security_check(_and_scheme(), xor, L, A)
        expected = block_security_by_enumeration(_and_scheme(), xor, L, A)
        assert not res.ok and (res.ok, res.witness) == (expected.ok, expected.witness)


def test_block_code_imports_nothing_from_schemes():
    code = "import sys, confuse.blockcode; sys.exit('confuse.schemes' in sys.modules)"
    src = os.path.dirname(os.path.dirname(blockcode.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# digests of (R, T, pivots) recorded from the two elimination paths this one
# replaced (integer outer products for prime fields, table lookups otherwise)
ELIMINATION_DIGESTS = {
    (2, 1, "square"): "ab63277e8adfa635",
    (2, 1, "wide"): "325b382db23c93b0",
    (2, 1, "deficient"): "ef4cbdc3024a2bfb",
    (2, 1, "large"): "efb09303ce981d29",
    (3, 1, "square"): "3d97b54983ffee5c",
    (3, 1, "wide"): "3857250cac4ce1cd",
    (3, 1, "deficient"): "49f4006a92a355ad",
    (3, 1, "large"): "f43db1e8eb7b0bf6",
    (5, 1, "square"): "b2e70d8086ec4002",
    (5, 1, "wide"): "013f5353adeabc40",
    (5, 1, "deficient"): "62770eea4257f445",
    (5, 1, "large"): "259cf73927706d99",
    (2, 2, "square"): "5af62cddbee24b4b",
    (2, 2, "wide"): "4c4cfcc4b5b737df",
    (2, 2, "deficient"): "f38d9ed0a366ef85",
    (2, 2, "large"): "3c7b90d8ad45e34e",
    (2, 3, "square"): "ddc41a5e1af11d92",
    (2, 3, "wide"): "226f3bfb4ca56391",
    (2, 3, "deficient"): "96b07f519beb19a6",
    (2, 3, "large"): "895277ec16df865d",
    (3, 2, "square"): "da0cd5e4c75e7bbe",
    (3, 2, "wide"): "b4565e9d2ca6b8ea",
    (3, 2, "deficient"): "865e8997f877332e",
    (3, 2, "large"): "6541168dbcd58610",
    # recorded from the table-lookup update before delayed reduction
    (2, 2, "panels"): "13be08306e3ab35b",
    (3, 1, "fallback"): "9da5474748538121",
}
# "large" has more than one 64-row block of rows to update per pivot;
# "panels" has four panels of F_4 digit planes and more than 128 rows;
# "fallback" has 28 nonzero rows in its first panel's 128-row prefix
SHAPES = {
    "square": (12, 12), "wide": (8, 16), "deficient": (10, 10), "large": (130, 150),
    "panels": (300, 256), "fallback": (300, 200),
}


@pytest.mark.parametrize("key", sorted(ELIMINATION_DIGESTS))
def test_elimination_matches_pinned_digests(key):
    from confuse.blockcode import _rref

    p, n, shape = key
    q = p**n
    r, c = SHAPES[shape]
    A = np.random.default_rng([q, r, c]).integers(0, q, size=(r, c), dtype=np.int64)
    if shape == "deficient":
        A[-1] = A[0]  # a repeated row and a zero column
        A[:, 1] = 0
    if shape == "fallback":
        A[:100, :64] = 0
    R, T, pivots = _rref(field_make(p, n), A)
    assert _elimination_digest(R, T, pivots) == ELIMINATION_DIGESTS[key]
    assert R.dtype == T.dtype == np.uint8


def _elimination_digest(R, T, pivots):
    blob = json.dumps([R.tolist(), T.tolist(), [int(x) for x in pivots]])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _b1_spec():
    # the bench's B1: and2 over F_3 at L = 1024, epsilon 0.15 (rows = L), seed 7
    return make_block_spec(_and_scheme(), L=1024, epsilon=0.15, seed=7)


def test_elimination_of_the_B1_matrix_matches_pinned_digest():
    spec = _b1_spec()
    assert spec.A.shape == (1024, 1024) and spec.A.dtype == np.uint8
    R, T, pivots = blockcode._rref(spec.base.expansion.structure.carrier, spec.A)
    # recorded from the table-lookup update before delayed reduction
    assert _elimination_digest(R, T, pivots) == "561077c4b7d8fb92"


def test_pivot_search_falls_back_to_the_whole_panel(monkeypatch):
    searched = []
    reduce = blockcode._reduce

    def spy(fs, inv, M):
        searched.append(M.shape)
        return reduce(fs, inv, M)

    monkeypatch.setattr(blockcode, "_reduce", spy)
    A = np.random.default_rng([3, 300, 200]).integers(0, 3, size=(300, 200), dtype=np.int64)
    blockcode._rref(field_make(3, 1), A)
    # one search per panel on its 128-row prefix and a zero block as wide
    # as the panel, which returns K^-1 with the pivots
    assert searched == [(128, 128), (128, 128), (128, 128), (108, 16)]
    # 28 nonzero rows in the prefix: the search reruns on all 300 rows,
    # still only twice as wide as the panel
    A[:100, :64] = 0
    searched.clear()
    blockcode._rref(field_make(3, 1), A)
    assert searched == [(128, 128), (300, 128), (128, 128), (128, 128), (108, 16)]


@pytest.mark.parametrize("p, n", [(3, 1), (2, 2), (257, 1)])
def test_pivot_search_returns_the_inverse_pivot_block(p, n):
    # a repeated row and a zero column, so rows are skipped and swapped
    fs = field_make(p, n)
    P = np.random.default_rng([p, n]).integers(0, fs.q, size=(20, 16)).astype(table_dtype(fs.q))
    P[5] = P[2]
    P[:, 3] = 0
    S = np.concatenate([P, np.zeros_like(P)], axis=1)
    inv = np.array([0] + [fs.inv(a) for a in range(1, fs.q)])
    found, order = blockcode._reduce(fs, inv, S)
    k = len(found)
    K = P[order[:k]][:, found]
    assert k == 15 and _matmul(fs, K, S[:k, 16 : 16 + k]).tolist() == np.eye(k, dtype=int).tolist()
    assert not S[:, 16 + k :].any()


def test_block_code_returns_int64_arrays_on_every_decode_path():
    f4 = scheme_from_expansion(find_expansion(equal_table(4), field_confusable_sets(field_make(2, 2), 1)))
    for scheme in (_and_scheme(), f4):
        # no free coordinate, exact coset ML, greedy fallback
        for kwargs in ({"identity": True}, {"rows": 17}, {"rows": 8}):
            spec = make_block_spec(scheme, L=20, seed=1, **kwargs)
            x1, x2 = block_encode(spec, [0] * 20, [1] * 20, [1] * 20, list(range(2)) * 10)
            u, _ = block_decode(spec, x1, x2)
            assert x1.dtype == x2.dtype == u.dtype == np.int64


# the fields up to 16, and F_257, whose elements need two bytes and the
# flat index of _reduce's add table four
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (257, 1)]
# (rows of X, inner, columns of Y): one column, exactly one 64-row block,
# and a partial third block
MATMUL_SHAPES = [(5, 9, 1), (64, 7, 3), (130, 11, 2)]


@pytest.mark.parametrize("p, n", FIELDS)
def test_matmul_matches_scalar_field_oracle(p, n):
    fs = field_make(p, n)
    oracle = field_arithmetic(p, n, fs.h)
    rng = np.random.default_rng([p, n])
    for rows, inner, cols in MATMUL_SHAPES:
        X = rng.integers(0, fs.q, size=(rows, inner))
        Y = rng.integers(0, fs.q, size=(inner, cols)).astype(table_dtype(fs.q))
        expected = np.zeros((rows, cols), dtype=np.int64)
        for i, t, j in itertools.product(range(rows), range(inner), range(cols)):
            product = oracle["mul"](int(X[i, t]), int(Y[t, j]))
            expected[i, j] = oracle["add"](int(expected[i, j]), product)
        got = _matmul(fs, X, Y)
        assert got.dtype == table_dtype(fs.q)
        assert got.tolist() == expected.tolist()


def _oracle_matrices(q):
    """Matrices over F_q on which T depends on the swap order: one panel, a
    wide one, one whose first panel holds 4 pivots so the rest come from
    the second, a tall rank-deficient one of 12 distinct rows repeated, and
    one whose first 128 rows are zero, so the first panel's search falls
    back to all 140 rows."""
    for rows, cols, zero in ((12, 12, 0), (10, 16, 0), (20, 80, 60)):
        A = np.random.default_rng([q, rows, cols]).integers(0, q, size=(rows, cols))
        A[:, 4 : 4 + zero] = 0
        yield A
    rng = np.random.default_rng([q, 150])
    yield rng.integers(0, q, size=(12, 20))[rng.integers(0, 12, size=150)]
    A = rng.integers(0, q, size=(140, 8))
    A[:128] = 0
    yield A


# q = 17 and 257 are past the fields the pinned digests cover; q = 3, 4
# and 9 are the bench's fields and an extension of odd characteristic
@pytest.mark.parametrize("p, n", [(17, 1), (257, 1), (3, 1), (2, 2), (3, 2)])
def test_elimination_matches_scalar_oracle_past_q_16(p, n):
    fs = field_make(p, n)
    arithmetic = field_arithmetic(p, n, fs.h)
    for A in _oracle_matrices(fs.q):
        R, T, pivots = blockcode._rref(fs, A)
        assert R.dtype == T.dtype == table_dtype(fs.q)
        assert (R.tolist(), T.tolist(), pivots) == gauss_jordan(arithmetic, fs.q, A.tolist())


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (13, 1)])
def test_matmul_refuses_inexact_sums_before_allocating(p, n):
    # the smallest inner length whose sums could reach 2^53
    inner = -(-(2**53) // (n * (p - 1) ** 2))
    X = np.broadcast_to(np.uint8(1), (1, inner))
    Y = np.broadcast_to(np.uint8(1), (inner, 1))
    tracemalloc.start()
    try:
        with pytest.raises(SizeBoundExceeded):
            _matmul(field_make(p, n), X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# (inner, dtype): each sum is inner * 12 * 12 over F_13, just below 2^24
# and just past it
@pytest.mark.parametrize("inner, ft", [(2**24 // 144, np.float32), (2**24 // 144 + 1, np.float64)])
def test_matmul_is_exact_on_both_sides_of_the_float32_bound(monkeypatch, inner, ft):
    used = []
    planes = blockcode._planes

    def spy(fs, Y, dtype):
        used.append(dtype)
        return planes(fs, Y, dtype)

    monkeypatch.setattr(blockcode, "_planes", spy)
    X = np.full((2, inner), 12, np.uint8)
    Y = np.full((inner, 3), 12, np.uint8)
    expected = np.dot(X.astype(np.int64), Y.astype(np.int64)) % 13
    assert _matmul(field_make(13, 1), X, Y).tolist() == expected.tolist()
    assert used == [ft]


def _coset_spec(input_dist=None):
    # and2 at L = 256 with 247 rows of full rank: 3^9 = 19,683 coset candidates
    spec = make_block_spec(_and_scheme(), L=256, rows=247, seed=3, input_dist=input_dist)
    s = spec._solver
    assert s["rank"] == 247 and len(s["offsets"]) == 19_683 <= COSET_BUDGET
    return spec


def test_exact_ml_decode_memory_is_bounded():
    # scoring the whole coset at once peaked at 43.4 MiB for these 4 trials
    spec = _coset_spec()
    tracemalloc.start()
    try:
        res = run_trials(spec, 4, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert res["errors"] == 2


@pytest.mark.parametrize("flat_prior", [False, True])
def test_blocked_coset_scoring_keeps_the_first_maximum(monkeypatch, flat_prior):
    # mass 1/3 on (1, 1) makes U uniform over F_3, so every candidate ties
    # and the first one must win; one block over the whole coset, uneven
    # blocks and the default must pick the same U
    dist = {(a, b): Fraction(1, 3) if a == b == 1 else Fraction(2, 9) for a in range(2) for b in range(2)}
    spec = _coset_spec(dist if flat_prior else None)
    fs = spec.base.expansion.structure.carrier
    V = np.random.default_rng(0).integers(0, fs.q, size=(spec.L, 3), dtype=np.uint8)
    X1 = _matmul(fs, spec.A, V)
    X2 = np.zeros_like(X1)
    decoded = []
    for block in (19_683, blockcode._CANDIDATES, 4_000):
        monkeypatch.setattr(blockcode, "_CANDIDATES", block)
        decoded.append(_decode(spec, X1, X2).tolist())
    assert decoded[0] == decoded[1] == decoded[2]


def test_solver_keeps_T_in_the_table_dtype():
    spec = make_block_spec(_and_scheme(), L=1024, rows=1024, seed=0)
    T = spec._solver["T"]
    assert T.dtype == np.uint8 and T.shape == (1024, 1024) and T.nbytes == 1 << 20


def test_B1_spec_and_solver_memory_is_bounded():
    # A in uint8 (1 MiB, drawn as int64 and cast) and the elimination's
    # float32 [A | I] (8 MiB) with its uint8 result peak near 12 MiB; an
    # int64 A (8 MiB) or a float64 [A | I] (16 MiB) would exceed the bound
    tracemalloc.start()
    try:
        spec = _b1_spec()
        spec._solver
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.A.dtype == np.uint8 and spec._solver["rank"] == 1024
    assert peak < 14 << 20


@pytest.mark.parametrize("kwargs, message", [
    ({"L": 0}, "L must be at least 1"),
    ({"L": -4}, "L must be at least 1"),
    ({"L": 8, "rows": 0}, "rows must be in 1..L"),
    ({"L": 8, "rows": -2}, "rows must be in 1..L"),
    ({"L": 8, "rows": 9}, "rows must be in 1..L"),
    ({"L": 8, "epsilon": -5}, "rows must be in 1..L"),
    ({"L": 8, "epsilon": float("inf")}, "epsilon must keep"),
    ({"L": 8, "epsilon": float("-inf")}, "epsilon must keep"),
    ({"L": 8, "epsilon": float("nan")}, "epsilon must keep"),
    ({"L": 8, "epsilon": 1e308}, "epsilon must keep"),
    ({"L": 8, "epsilon": 1e308, "identity": True}, "epsilon must keep"),
    ({"L": 8, "rows": 3, "identity": True}, "identity matrix has rows = L = 8, got rows 3"),
])
def test_make_block_spec_refuses_bad_sizes_before_drawing_A(monkeypatch, kwargs, message):
    def no_draw(*args, **kw):
        raise AssertionError("A was drawn")

    monkeypatch.setattr(np.random, "PCG64", no_draw)
    monkeypatch.setattr(np, "eye", no_draw)
    with pytest.raises(ValueError, match=message):
        make_block_spec(_and_scheme(), **kwargs)


def test_run_trials_refuses_a_negative_trial_count():
    spec = make_block_spec(_and_scheme(), L=8, identity=True)
    with pytest.raises(ValueError, match="trials must be at least 0"):
        run_trials(spec, -3)
    assert "_solver" not in vars(spec)
    assert run_trials(spec, 0)["trials"] == 0
    assert "_solver" in vars(spec)  # built even for zero trials


def test_block_encode_needs_no_elimination(monkeypatch):
    # encoding reads only A and the carrier: a fresh spec encodes without
    # eliminating A, and gives the codewords it gives once the solver exists
    spec = make_block_spec(_and_scheme(), L=64, rows=60, seed=4)
    rng = np.random.default_rng(1)
    w1, w2 = rng.integers(0, 2, size=(2, spec.L)).tolist()
    g = rng.integers(1, 3, size=spec.L).tolist()
    z = rng.integers(0, 3, size=spec.L).tolist()
    rref = blockcode._rref

    def no_rref(*args):
        raise AssertionError("block_encode eliminated A")

    monkeypatch.setattr(blockcode, "_rref", no_rref)
    fresh = block_encode(spec, w1, w2, g, z)
    assert "_solver" not in vars(spec)
    monkeypatch.setattr(blockcode, "_rref", rref)
    spec._solver
    built = block_encode(spec, w1, w2, g, z)
    assert [x.tolist() for x in fresh] == [x.tolist() for x in built]


def test_spec_keeps_the_distribution_it_was_built_for():
    skew = dict(TRIAL_DISTS["and2"])
    spec = make_block_spec(_and_scheme(), L=12, rows=9, seed=21, input_dist=skew)
    skew[(0, 0)] = Fraction(0)  # the caller's dict is not the spec's
    assert spec.input_dist == TRIAL_DISTS["and2"]
    assert spec.entropy == entropy_of_U(_and_scheme(), TRIAL_DISTS["and2"])
    uniform = make_block_spec(_and_scheme(), L=12, rows=9, seed=21)
    assert uniform.input_dist == _uniform_bits()
    assert uniform.entropy.dist_U == {0: Fraction(1, 4), 1: Fraction(3, 8), 2: Fraction(3, 8)}


_P1 = [Fraction(9, 10), Fraction(1, 10)]
TRIAL_DISTS = {
    "and2": {(a, b): _P1[a] * _P1[b] for a in range(2) for b in range(2)},
    "equal4": {(a, b): Fraction(9, 40) if a == b else Fraction(1, 120)
               for a in range(4) for b in range(4)},
}
# every decode path on F_3 and F_4: no free coordinate, exact coset ML (two
# specs sharing q and the coset size), the greedy fallback, and a rank-deficient A
TRIAL_SPECS = {
    "identity": {"identity": True},
    "coset": {"rows": 17, "seed": 1},
    "coset-b": {"rows": 17, "seed": 3},
    "greedy": {"rows": 8, "seed": 1},
    "deficient": {"rows": 20, "seed": 2},
}
# sha256 of the run_trials results over the grid, 150 trials each, recorded
# when each trial went through block_encode and block_decode in turn
TRIAL_GRID_DIGEST = "c72dd91605e7ef9d"


def _trial_spec(name, kind):
    scheme = _and_scheme() if name == "and2" else _f4_equal_scheme()
    spec = make_block_spec(scheme, L=20, input_dist=TRIAL_DISTS[name], **TRIAL_SPECS[kind])
    if kind == "deficient":
        spec.A[-1] = spec.A[0]
    return spec


def _f4_equal_scheme():
    if "equal4" not in _cache:
        exp = find_expansion(equal_table(4), field_confusable_sets(field_make(2, 2), 1))
        _cache["equal4"] = scheme_from_expansion(exp)
    return _cache["equal4"]


@pytest.mark.parametrize("name", sorted(TRIAL_DISTS))
@pytest.mark.parametrize("kind", sorted(TRIAL_SPECS))
def test_run_trials_equal_per_trial_round_trips(name, kind):
    spec = _trial_spec(name, kind)
    s = spec._solver
    k = spec.L - s["rank"]
    if kind == "identity":
        assert k == 0
    elif kind == "greedy":
        assert spec.q**k > COSET_BUDGET
    else:
        assert 0 < k and spec.q**k <= COSET_BUDGET
    if kind == "deficient":
        assert s["rank"] < spec.rows
    per_trial = block_trial_errors(spec, 150, 5, TRIAL_DISTS[name])
    # trial counts on both sides of every chunk boundary
    for trials in (1, TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1, 2 * TRIAL_CHUNK + 3, 150):
        res = run_trials(spec, trials, seed=5)
        assert res["errors"] == sum(per_trial[:trials]), trials


def test_run_trials_match_pinned_digest():
    out = []
    for name in TRIAL_DISTS:
        for kind in TRIAL_SPECS:
            res = run_trials(_trial_spec(name, kind), 150, seed=5)
            out.append([name, kind, res])
    blob = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == TRIAL_GRID_DIGEST


def test_unreached_confusable_set_is_undecodable():
    # AND over F_5 with S* = {1, 4}: the sets are {0}, {1, 4} and {2, 3}, and
    # no cell sum lands in {0}
    exp = find_expansion(gallery_get("and2").table, field_confusable_sets(field_make(5, 1), 2))
    assert sorted(exp.out_map) == [1, 2]
    scheme = scheme_from_expansion(exp)
    assert scheme.dec(1, 0) == exp.out_map[1]
    assert scheme.dec(1, 4) == -1
    spec = make_block_spec(scheme, L=2, identity=True)
    u, fvec = block_decode(spec, [1, 2], [0, 0])
    assert u.tolist() == [1, 2] and fvec == [exp.out_map[1], exp.out_map[2]]
    with pytest.raises(Undecodable):
        block_decode(spec, [1, 2], [4, 0])
    # the verifier never decodes an unreachable pair, and the serializer's
    # total decoder table labels it 0
    assert verify_scheme(scheme, gallery_get("and2").table).ok
    rows = serialize_scheme(scheme)["dec"]
    assert {r["f"] for r in rows if (r["x1"][0] + r["x2"][0]) % 5 == 0} == {0}
