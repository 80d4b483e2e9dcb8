"""Exact correctness and perfect-security verification by full enumeration.

Each encoder is tabulated once per scheme (_enc_tables, the only code that
runs a scheme's encoders over its support), and each input pair's
codeword-pair distribution is counted once from those tables; the
correctness, security and leakage passes, the serializer and the optimized
rates all read the same tables.  Supports past MAX_ATOMS_MATERIALIZED atoms
raise SizeBoundExceeded instead of being enumerated.

All pass/fail decisions run on integer outcome counts over the weighted
randomness lattice; floats only appear when leakage is rendered in bits.
Witnesses always name the lexicographically smallest failing instance so
regression tests can pin them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap
from math import gcd, log2

from .errors import SizeBoundExceeded


class ExactDistribution:
    """Outcome -> nonnegative integer count, plus the total weight.

    Two distributions are equal when their count maps agree after dividing
    everything by the common gcd.
    """

    __slots__ = ("counts", "total")

    def __init__(self, counts: dict, total: int):
        if total <= 0:
            raise ValueError("total must be positive")
        if sum(counts.values()) != total:
            raise ValueError("counts must sum to total")
        self.counts = dict(counts)
        self.total = total

    def normalized(self):
        g = self.total
        for c in self.counts.values():
            g = gcd(g, c)
        return (frozenset((o, c // g) for o, c in self.counts.items() if c), self.total // g)

    def probability(self, outcome) -> Fraction:
        return Fraction(self.counts.get(outcome, 0), self.total)

    def __eq__(self, other):
        return isinstance(other, ExactDistribution) and self.normalized() == other.normalized()

    def __repr__(self):
        return f"ExactDistribution({self.counts}, total={self.total})"


MAX_ATOMS_MATERIALIZED = 300_000


def _enc_tables(scheme):
    """Tabulated encoder outputs and a per-pair distribution cache, kept on
    the scheme (schemes are immutable after construction).  Every encoder is
    called once per (input, atom), and a scheme whose enc2 is its enc1 over
    the same inputs is tabulated once; supports past MAX_ATOMS_MATERIALIZED
    raise SizeBoundExceeded before any encoder runs."""
    cache = getattr(scheme, "_enc_cache", None)
    if cache is not None:
        return cache
    if len(scheme.atoms) > MAX_ATOMS_MATERIALIZED:
        raise SizeBoundExceeded(
            f"{len(scheme.atoms)} atoms exceed the exact-verification cap of "
            f"{MAX_ATOMS_MATERIALIZED}"
        )
    atoms = list(scheme.atoms)
    weights = list(scheme.weights) if scheme.weights is not None else None
    rows1 = [[scheme.enc1(w, a) for a in atoms] for w in range(scheme.m1)]
    if scheme.enc2 is scheme.enc1 and scheme.m2 == scheme.m1:
        rows2 = rows1
    else:
        rows2 = [[scheme.enc2(w, a) for a in atoms] for w in range(scheme.m2)]
    scheme._enc_cache = (atoms, weights, rows1, rows2, {})
    return scheme._enc_cache


def joint_distribution(scheme, w1: int, w2: int) -> ExactDistribution:
    """Exact distribution of the codeword pair (X1, X2) for fixed inputs,
    counted once per scheme and input pair."""
    atoms, weights, rows1, rows2, dists = _enc_tables(scheme)
    dist = dists.get((w1, w2))
    if dist is not None:
        return dist
    if weights is None:
        dist = ExactDistribution(Counter(zip(rows1[w1], rows2[w2])), len(atoms))
    else:
        counts = Counter()
        for c1, c2, wt in zip(rows1[w1], rows2[w2], weights):
            counts[(c1, c2)] += wt
        dist = ExactDistribution(counts, sum(weights))
    dists[(w1, w2)] = dist
    return dist


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

    dec runs once per distinct codeword pair; a pair with a failing outcome
    is rescanned atom by atom, so the witness names its first failing atom."""
    atoms, _, rows1, rows2, _ = _enc_tables(scheme)
    dec = scheme.dec
    for w1 in range(f.m1):
        for w2 in range(f.m2):
            expected = f.outputs[w1][w2]
            if set(starmap(dec, joint_distribution(scheme, w1, w2).counts)) == {expected}:
                continue
            for atom, c1, c2 in zip(atoms, rows1[w1], rows2[w2]):
                got = dec(c1, c2)
                if got != expected:
                    return CorrectnessResult(False, (w1, w2, atom, got, expected))
    return CorrectnessResult(True)


def _groups_by_output(f):
    groups: dict[int, list[tuple[int, int]]] = {}
    for w1 in range(f.m1):
        for w2 in range(f.m2):
            groups.setdefault(f.outputs[w1][w2], []).append((w1, w2))
    return groups


def verify_secure(scheme, f) -> SecurityResult:
    """Within every group of input pairs sharing an output, the codeword-pair
    distributions must be identical (exact count comparison)."""
    groups = _groups_by_output(f)
    for label in sorted(groups):
        pairs = groups[label]
        if len(pairs) < 2:
            continue
        ref_pair = pairs[0]
        ref = joint_distribution(scheme, *ref_pair)
        for other in pairs[1:]:
            dist = joint_distribution(scheme, *other)
            if dist != ref:
                outcome = min(
                    o
                    for o in set(ref.counts) | set(dist.counts)
                    if ref.probability(o) != dist.probability(o)
                )
                return SecurityResult(False, (ref_pair, other, outcome))
    return SecurityResult(True)


@dataclass
class LeakageResult:
    exact_zero: bool
    bits: float


def uniform_input_dist(f) -> dict[tuple[int, int], Fraction]:
    p = Fraction(1, f.m1 * f.m2)
    return {(w1, w2): p for w1 in range(f.m1) for w2 in range(f.m2)}


def leakage(scheme, f, input_dist: dict[tuple[int, int], Fraction]) -> LeakageResult:
    """Conditional mutual information between the codewords and the inputs
    given the output, for one rational input distribution.

    Probabilities stay rational throughout; log2 is applied to exact ratios,
    so a secure scheme yields exactly 0.0 (every ratio is exactly 1).
    """
    if any(p < 0 for p in input_dist.values()) or sum(input_dist.values()) != 1:
        raise ValueError("input_dist must be a distribution")
    dists = {
        pair: joint_distribution(scheme, *pair)
        for pair, p in input_dist.items()
        if p > 0
    }
    groups = _groups_by_output(f)
    bits = 0.0
    for label, pairs in sorted(groups.items()):
        pairs = [w for w in pairs if input_dist.get(w, 0) > 0]
        p_f = sum((input_dist[w] for w in pairs), Fraction(0))
        if p_f == 0:
            continue
        # P(x, f) marginal over the group
        p_xf: dict = {}
        for w in pairs:
            d = dists[w]
            for o, c in d.counts.items():
                p_xf[o] = p_xf.get(o, Fraction(0)) + input_dist[w] * Fraction(c, d.total)
        for w in pairs:
            d = dists[w]
            p_w = input_dist[w]
            for o, c in d.counts.items():
                if c == 0:
                    continue
                p_wx = p_w * Fraction(c, d.total)
                ratio = (p_wx * p_f) / (p_w * p_xf[o])
                if ratio != 1:
                    bits += float(p_wx) * log2(ratio.numerator / ratio.denominator)
    # the boolean never consults the float: structural identity decides
    return LeakageResult(verify_secure(scheme, f).ok, bits)


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
    return VerificationReport(
        correct=verify_correct(scheme, f),
        secure=verify_secure(scheme, f),
        leak=leakage(scheme, f, input_dist),
        rates=(scheme.rate1, scheme.rate2),
    )
