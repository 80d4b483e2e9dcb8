"""Command-line surface: catalog, solve, verify, blockcode, crt-equal, baseline.

Human-readable tables go to stdout; --json switches to machine output.  Every
JSON document embeds a run manifest (command, arguments, seed, version, input
digests, timestamp).  Exit codes: 0 ok, 2 verification/diff failure, 3 not
found, 4 input error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__, jsonout
from .errors import ConfuseError, NoExpansionFound, SchemaError
from .expansion import FunctionTable, converse_report, search_expansions
from .schemes import (
    crt_equal_scheme,
    load_custom_scheme,
    optimize_additive_randomness,
    row_mask_baseline,
    scheme_from_expansion,
    serialize_scheme,
)
from .structures import catalog_fields, catalog_rings, diff_against_reference, load_reference
from .verify import uniform_input_dist, verify_scheme

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_NOT_FOUND = 3
EXIT_INPUT = 4

DEFAULT_MAX_CARRIER = 16


def _max_carrier(args) -> int:
    """The carrier-size bound; a negative --max-carrier raises ValueError."""
    if args.max_carrier is None:
        return DEFAULT_MAX_CARRIER
    if args.max_carrier < 0:
        raise ValueError(f"--max-carrier must be at least 0, got {args.max_carrier}")
    return args.max_carrier


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest(args, inputs: list[str], seed=None) -> dict:
    arguments = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func",) and not callable(v)
    }
    return {
        "command": args.command,
        "arguments": arguments,
        "seed": seed,
        "version": __version__,
        "input_digests": {p: _digest(p) for p in inputs},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(args, payload: dict, human_lines: list[str]):
    if args.json:
        jsonout.dump(payload, sys.stdout)
        sys.stdout.write("\n")
    else:
        for line in human_lines:
            print(line)


def _load_table(path: str) -> FunctionTable:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "outputs" not in obj:
        raise SchemaError("a table file must be a JSON object with an 'outputs' matrix")
    return FunctionTable.from_json(obj)


def _load_input_dist(path: str, f: FunctionTable) -> dict:
    """{(w1, w2): probability} from an m1 x m2 JSON matrix, bare or under
    "probs"; strings such as "1/4" are exact.  Anything but m1 rows of m2
    entries, each >= 0 and no boolean, summing to exactly 1 raises ValueError."""
    with open(path) as fh:
        obj = json.load(fh)
    probs = obj.get("probs") if isinstance(obj, dict) else obj
    if not (isinstance(probs, list) and len(probs) == f.m1
            and all(isinstance(row, list) and len(row) == f.m2 for row in probs)):
        raise ValueError(f"input distribution must be {f.m1} rows of {f.m2} entries")
    if any(type(v) is bool for row in probs for v in row):
        raise ValueError("input distribution entries must be numbers or strings, not booleans")
    try:
        dist = {
            (w1, w2): Fraction(v) if isinstance(v, str) else Fraction(v).limit_denominator(10**9)
            for w1, row in enumerate(probs)
            for w2, v in enumerate(row)
        }
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as e:  # null, lists, objects, "abc", inf, "1/0"
        raise ValueError(f"input distribution entries must be finite numbers or strings: {e}") from None
    if any(v < 0 for v in dist.values()) or sum(dist.values()) != 1:
        raise ValueError("input distribution entries must be >= 0 and sum to exactly 1")
    return dist


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    make = catalog_fields if args.kind == "field" else catalog_rings
    reference = None
    if args.reference is not None:
        reference = load_reference(args.kind, args.reference or None)
    structures = make(args.max)
    diff = None if reference is None else diff_against_reference(structures, reference)
    payload, lines = None, []
    if args.json:
        entries = [s.to_json() for s in structures]
        payload = {
            "manifest": _manifest(args, [args.reference] if args.reference else []),
            "entries": entries,
            # round-trippable: feed this sub-object back through --reference;
            # each row shares its entry's encoded randomizer and sets
            "reference": {
                "kind": args.kind,
                "max_carrier": args.max,
                "rows": [
                    {"label": e["label"], "randomizer": e["randomizer"], "sets": e["sets"]}
                    for e in entries
                    if not e["trivial"]
                ],
            },
            "diff": diff,
        }
    else:
        for s in structures:
            star = ",".join(s.rendered_randomizer())
            sets = " ".join("{" + ",".join(m) + "}" for m in s.rendered_sets())
            flag = "  (trivial)" if s.trivial else ""
            lines.append(f"{s.carrier.describe():<6} S*={{{star}}}  {sets}{flag}")
        if diff is not None:
            lines.append(f"reference diff: {'clean' if not diff else diff}")
    _emit(args, payload, lines)
    if diff:
        return EXIT_VERIFY
    return EXIT_OK


def _search_or_fail(f, bound, kinds, limit=None):
    hits = search_expansions(f, bound, kinds=kinds, limit=limit)
    if not hits:
        raise NoExpansionFound(f"no feasible embedding on carriers of size <= {bound}")
    return hits


def cmd_solve(args) -> int:
    bound = _max_carrier(args)
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be at least 1, got {args.limit}")
    f = _load_table(args.table)
    kinds = ("field",) if args.fields_only else ("field", "ring")
    hits = _search_or_fail(f, bound, kinds, limit=args.limit)
    structure, exp = hits[0]
    scheme = scheme_from_expansion(exp)
    if args.optimize_z:
        scheme = optimize_additive_randomness(exp, all_subsets=args.all_subsets)
    report = verify_scheme(scheme, f)
    conv = converse_report(f, scheme)
    payload = {
        "manifest": _manifest(args, [args.table]),
        "expansion": exp.to_json(),
        "hits_within_bound": len(hits),
        "scheme": serialize_scheme(scheme) if args.json or args.emit_scheme else None,
        "verification": report.to_json(),
        "converse": {
            "identical_rows": conv.identical_rows,
            "identical_cols": conv.identical_cols,
            "converse_bits": [r.render() for r in conv.converse_bits] if conv.converse_bits else None,
            "achieved_bits": [r.render() for r in conv.achieved_bits],
            "optimal": conv.optimal,
        },
    }
    lines = [
        f"carrier: {structure.key()}",
        f"map1: {list(exp.map1)}  map2: {list(exp.map2)}",
        f"rates: ({scheme.rate1.render()}, {scheme.rate2.render()}) bits",
        f"z support: {scheme.meta.get('z_support')}",
        f"correct: {report.correct.ok}  secure: {report.secure.ok}  leakage: {report.leak.bits}",
    ]
    if args.emit_scheme:
        with open(args.emit_scheme, "w") as fh:
            jsonout.dump(payload["scheme"], fh)
        lines.append(f"scheme written to {args.emit_scheme}")
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_verify(args) -> int:
    scheme = load_custom_scheme(args.scheme)
    f = _load_table(args.table)
    dist = _load_input_dist(args.input_dist, f) if args.input_dist else None
    report = verify_scheme(scheme, f, dist)
    inputs = [args.scheme, args.table] + ([args.input_dist] if args.input_dist else [])
    payload = {"manifest": _manifest(args, inputs), "report": report.to_json()}
    lines = [
        f"correct: {report.correct.ok}" + (f"  witness: {report.correct.witness}" if report.correct.witness else ""),
        f"secure: {report.secure.ok}" + (f"  witness: {report.secure.witness}" if report.secure.witness else ""),
        f"leakage: exact_zero={report.leak.exact_zero} bits={0.0 if abs(report.leak.bits) < 1e-12 else report.leak.bits}",
        f"rates: ({report.rates[0].render()}, {report.rates[1].render()}) bits",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_blockcode(args) -> int:
    from .blockcode import entropy_of_U, make_block_spec, run_trials

    if args.L < 1:
        raise ValueError(f"--L must be at least 1, got {args.L}")
    if args.trials < 0:
        raise ValueError(f"--trials must be at least 0, got {args.trials}")
    if args.rows is not None and not 1 <= args.rows <= args.L:
        raise ValueError(f"--rows must be in 1..L = 1..{args.L}, got {args.rows}")
    bound = _max_carrier(args)
    f = _load_table(args.table)
    hits = _search_or_fail(f, bound, ("field",), limit=1)
    scheme = scheme_from_expansion(hits[0][1])
    dist = _load_input_dist(args.input_dist, f) if args.input_dist else uniform_input_dist(f)
    ent = entropy_of_U(scheme, dist)
    spec = make_block_spec(
        scheme, args.L, epsilon=args.epsilon, seed=args.seed,
        input_dist=dist, rows=args.rows, identity=args.identity,
    )
    result = run_trials(spec, args.trials, seed=args.seed, input_dist=dist)
    payload = {
        "manifest": _manifest(args, [args.table], seed=args.seed),
        "H_bits": ent.H_bits,
        "H_qary": ent.H_qary,
        "dist_U": {str(k): str(v) for k, v in sorted(ent.dist_U.items())},
        "L": args.L,
        "rows": spec.rows,
        "rate_bits_per_input": spec.rate_bits_per_input(),
        "empirical_error": result["error_rate"],
        "trials": result["trials"],
        "rng": result["rng"],
    }
    lines = [
        f"carrier: {hits[0][0].key()}",
        f"H(U) = {ent.H_bits:.6f} bits = {ent.H_qary:.6f} q-ary",
        f"L={args.L} rows={spec.rows} rate={spec.rate_bits_per_input():.6f} bits/input",
        f"empirical error: {result['error_rate']:.4f} over {result['trials']} trials",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_crt_equal(args) -> int:
    scheme = crt_equal_scheme(args.m)
    payload = {
        "manifest": _manifest(args, []),
        "m": args.m,
        "factors": scheme.meta["factors"],
        "atoms": len(scheme.atoms),
        "rate1": scheme.rate1.to_json(),
        "rate2": scheme.rate2.to_json(),
    }
    lines = [
        f"m={args.m} factors={scheme.meta['factors']} atoms={len(scheme.atoms)}",
        f"rates: ({scheme.rate1.render()}, {scheme.rate2.render()}) bits",
    ]
    code = EXIT_OK
    if args.check:
        from .expansion import equal_table

        report = verify_scheme(scheme, equal_table(args.m))
        payload["check"] = report.to_json()
        lines.append(f"correct: {report.correct.ok}  secure: {report.secure.ok}")
        if not report.ok:
            code = EXIT_VERIFY
    _emit(args, payload, lines)
    return code


def cmd_baseline(args) -> int:
    f = _load_table(args.table)
    scheme = row_mask_baseline(f)
    report = verify_scheme(scheme, f)
    payload = {
        "manifest": _manifest(args, [args.table]),
        "scheme": serialize_scheme(scheme) if args.json or args.emit_scheme else None,
        "verification": report.to_json(),
    }
    lines = [
        f"rates: ({scheme.rate1.render()}, {scheme.rate2.render()}) bits",
        f"correct: {report.correct.ok}  secure: {report.secure.ok}",
    ]
    if args.emit_scheme:
        with open(args.emit_scheme, "w") as fh:
            jsonout.dump(payload["scheme"], fh)
        lines.append(f"scheme written to {args.emit_scheme}")
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    ap = argparse.ArgumentParser(
        prog="confuse",
        description="build, search, and exhaustively verify expand-and-randomize "
                    "secure computation schemes over finite fields and modular rings",
    )
    ap.add_argument("--version", action="version", version=f"confuse {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("catalog", help="enumerate confusable-set structures")
    p.add_argument("kind", choices=["field", "ring"])
    p.add_argument("--max", type=int, required=True, help="largest carrier size included")
    p.add_argument("--reference", nargs="?", const="", default=None,
                   help="diff against a reference file (bundled transcription by default)")
    common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("solve", help="find an embedding and build the masked-sum scheme")
    p.add_argument("--table", required=True)
    p.add_argument("--max-carrier", type=int, default=None)
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many hits; hits_within_bound then counts the hits found before the stop")
    p.add_argument("--fields-only", action="store_true")
    p.add_argument("--optimize-z", action="store_true", help="shrink the additive noise support")
    p.add_argument("--all-subsets", action="store_true",
                   help="let the optimizer try every noise subset, not just subgroup cosets")
    p.add_argument("--emit-scheme", default=None, help="write the tabulated scheme JSON here")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="exact verification of a tabulated scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--input-dist", default=None)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("blockcode", help="length-L extension with linear compression")
    p.add_argument("--table", required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=None, help="override the compressed row count")
    p.add_argument("--identity", action="store_true", help="use the identity matrix instead of a random one")
    p.add_argument("--input-dist", default=None)
    p.add_argument("--max-carrier", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_blockcode)

    p = sub.add_parser("crt-equal", help="equality scheme over a composite alphabet")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--check", action="store_true", help="run the exact verifier on per-pair counts (m <= 15; larger m exits 4)")
    common(p)
    p.set_defaults(func=cmd_crt_equal)

    p = sub.add_parser("baseline", help="row-mask baseline scheme for a table")
    p.add_argument("--table", required=True)
    p.add_argument("--emit-scheme", default=None)
    common(p)
    p.set_defaults(func=cmd_baseline)
    return ap


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused, and the
    collector is left as it was found, enabled or not, however the command
    ends.  No command forms a reference cycle, so reference counting frees
    everything a command drops, and the collector would only rescan the
    command's live tables and JSON trees."""
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except NoExpansionFound as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (ConfuseError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
