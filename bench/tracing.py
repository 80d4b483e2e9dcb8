"""Spans around the public functions of each confuse module.

The tracer wraps functions from outside the program: every module of the
confuse package whose namespace holds a traced function gets the wrapper, so
call sites that did `from .x import f` are covered as well as `x.f(...)`.
Spans and their counts stay in memory; the run writes them out at the end.

A span is [name, start, end, parent index, job id, attrs].  Self time is a
span's duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, function) -> span name.  Private helpers such as verify._enc_tables
# and blockcode._solver are not wrapped: their time lands in the public caller.
# Spans with no per-layer metric of their own (structures.catalog, .reference,
# expansion.search, .converse) keep their time out of cli.self_s.
TRACED = {
    ("confuse.fields", "field_make"): "fields.make",
    ("confuse.rings", "enumerate_subgroups"): "rings.subgroups",
    ("confuse.rings", "project_subgroup"): "rings.project",
    ("confuse.structures", "field_confusable_sets"): "structures.build",
    ("confuse.structures", "ring_confusable_sets"): "structures.build",
    ("confuse.structures", "catalog_fields"): "structures.catalog",
    ("confuse.structures", "catalog_rings"): "structures.catalog",
    ("confuse.structures", "load_reference"): "structures.reference",
    ("confuse.structures", "diff_against_reference"): "structures.diff",
    ("confuse.expansion", "search_expansions"): "expansion.search",
    ("confuse.expansion", "find_expansion"): "expansion.find",
    ("confuse.expansion", "converse_report"): "expansion.converse",
    ("confuse.schemes", "scheme_from_expansion"): "schemes.build",
    ("confuse.schemes", "crt_equal_scheme"): "schemes.build",
    ("confuse.schemes", "row_mask_baseline"): "schemes.build",
    ("confuse.schemes", "serialize_scheme"): "schemes.serialize",
    ("confuse.schemes", "load_custom_scheme"): "schemes.load",
    ("confuse.verify", "verify_scheme"): "verify.scheme",
    ("confuse.verify", "verify_correct"): "verify.correct",
    ("confuse.verify", "verify_secure"): "verify.secure",
    ("confuse.verify", "leakage"): "verify.leakage",
    ("confuse.blockcode", "entropy_of_U"): "blockcode.entropy",
    ("confuse.blockcode", "make_block_spec"): "blockcode.spec",
    ("confuse.blockcode", "run_trials"): "blockcode.trials",
    ("confuse.blockcode", "block_encode"): "blockcode.encode",
    ("confuse.blockcode", "block_decode"): "blockcode.decode",
}

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
LAYER_METRICS = {
    "fields.make_s": ("s", "lower"),
    "fields.make_calls": ("count", "lower"),
    "rings.subgroups_s": ("s", "lower"),
    "rings.subgroups_calls": ("count", "lower"),
    "rings.project_s": ("s", "lower"),
    "structures.build_s": ("s", "lower"),
    "structures.built": ("count", "lower"),
    "structures.diff_s": ("s", "lower"),
    "expansion.find_s": ("s", "lower"),
    "expansion.find_calls": ("count", "lower"),
    "expansion.hits": ("count", "higher"),
    "expansion.hit_ratio": ("ratio", "higher"),
    "expansion.find_max_s": ("s", "lower"),
    "schemes.build_s": ("s", "lower"),
    "schemes.serialize_s": ("s", "lower"),
    "schemes.load_s": ("s", "lower"),
    "schemes.atoms": ("count", "lower"),
    "verify.correct_s": ("s", "lower"),
    "verify.secure_s": ("s", "lower"),
    "verify.leakage_s": ("s", "lower"),
    "verify.atom_evals": ("count", "lower"),
    "verify.pairs_compared": ("count", "lower"),
    "verify.negative_s": ("s", "lower"),
    "blockcode.setup_s": ("s", "lower"),
    "blockcode.encode_s": ("s", "lower"),
    "blockcode.decode_s": ("s", "lower"),
    "blockcode.trials": ("count", "higher"),
    "blockcode.errors": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts that must repeat exactly between two runs of one seed
DETERMINISTIC_COUNTS = (
    "expansion.find_calls",
    "expansion.hits",
    "verify.atom_evals",
    "blockcode.trials",
    "blockcode.errors",
)


class Tracer:
    """In-memory span recorder plus the module patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.spans[idx][5] = counter(args, result)
            return result

        return traced

    def _wrap_run_trials(self, fn):
        """run_trials builds the solver before its first trial; running it
        once with zero trials separates that set-up from the trials."""

        @functools.wraps(fn)
        def traced(spec, trials, *args, **kwargs):
            idx = self.open("blockcode.solver")
            try:
                fn(spec, 0, *args, **kwargs)
            finally:
                self.close(idx)
            idx = self.open("blockcode.trials")
            try:
                result = fn(spec, trials, *args, **kwargs)
            finally:
                self.close(idx)
            self.spans[idx][5] = {"trials": result["trials"], "errors": result["errors"]}
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to a traced function inside the confuse
        package.  The modules named in TRACED must already be imported."""
        wrappers = {}
        for (module, attr), name in TRACED.items():
            original = getattr(sys.modules[module], attr)
            if name == "blockcode.trials":
                wrappers[id(original)] = (original, self._wrap_run_trials(original))
            else:
                wrappers[id(original)] = (original, self._wrap(original, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "confuse" or mod_name.startswith("confuse.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def _find_counts(args, result):
    f, structure = args[0], args[1]
    return {"hit": result is not None, "structure": structure.key(), "table": f.outputs}


def _scheme_counts(args, result):
    return {"atoms": len(result.atoms)}


def _verify_counts(args, result):
    scheme, f = args[0], args[1]
    labels = [v for row in f.outputs for v in row]
    groups = len(set(labels))
    return {
        "atom_evals": len(scheme.atoms) * scheme.m1 * scheme.m2,
        "pairs_compared": len(labels) - groups,
    }


_COUNTERS = {
    "expansion.find": _find_counts,
    "schemes.build": _scheme_counts,
    "schemes.load": _scheme_counts,
    "verify.scheme": _verify_counts,
}


def _durations(spans):
    """Each span's duration, and the summed duration of its direct children."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    return dur, child


def layer_metrics(spans: list[list], negative_jobs: set) -> dict[str, float]:
    """Per-layer numbers of one pass, derived from its spans."""
    dur, child = _durations(spans)
    m = {name: 0 for name in LAYER_METRICS if name != "trace.overhead_s"}
    finds = []
    for i, (name, _, _, parent, job, attrs) in enumerate(spans):
        d, self_t = dur[i], dur[i] - child[i]
        parent_name = spans[parent][0] if parent is not None else None
        if name == "job":
            m["cli.self_s"] += self_t
        elif name == "fields.make":
            m["fields.make_s"] += d
            m["fields.make_calls"] += 1
        elif name == "rings.subgroups":
            m["rings.subgroups_s"] += d
            m["rings.subgroups_calls"] += 1
        elif name == "rings.project":
            m["rings.project_s"] += d
        elif name == "structures.build":
            m["structures.build_s"] += self_t
            m["structures.built"] += 1
        elif name == "structures.diff":
            m["structures.diff_s"] += d
        elif name == "expansion.find":
            m["expansion.find_s"] += self_t
            finds.append(i)
            m["expansion.hits"] += int(attrs["hit"])
        elif name == "schemes.build":
            m["schemes.build_s"] += self_t
            m["schemes.atoms"] += attrs["atoms"]
        elif name == "schemes.serialize":
            m["schemes.serialize_s"] += d
        elif name == "schemes.load":
            m["schemes.load_s"] += d
            m["schemes.atoms"] += attrs["atoms"]
        elif name == "verify.scheme":
            m["verify.atom_evals"] += attrs["atom_evals"]
            m["verify.pairs_compared"] += attrs["pairs_compared"]
            if job in negative_jobs:
                m["verify.negative_s"] += d
        elif name == "verify.correct":
            m["verify.correct_s"] += d
        elif name == "verify.secure" and parent_name != "verify.leakage":
            m["verify.secure_s"] += d
        elif name == "verify.leakage":
            m["verify.leakage_s"] += d
        elif name in ("blockcode.entropy", "blockcode.spec", "blockcode.solver") and parent_name == "job":
            m["blockcode.setup_s"] += d
        elif name == "blockcode.encode":
            m["blockcode.encode_s"] += d
        elif name == "blockcode.decode":
            m["blockcode.decode_s"] += d
        elif name == "blockcode.trials":
            m["blockcode.trials"] += attrs["trials"]
            m["blockcode.errors"] += attrs["errors"]
    m["expansion.find_calls"] = len(finds)
    if finds:
        m["expansion.hit_ratio"] = m["expansion.hits"] / len(finds)
        m["expansion.find_max_s"] = max(dur[i] for i in finds)
    return m


def slowest_find(spans: list[list]) -> dict | None:
    """The slowest find_expansion call, with its structure and table."""
    best = None
    for name, start, end, _, job, attrs in spans:
        if name == "expansion.find" and (best is None or end - start > best["seconds"]):
            best = {"seconds": end - start, "job": job, "structure": attrs["structure"],
                    "table": [list(r) for r in attrs["table"]]}
    return best


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Share of the summed job time spent in each span name's self time."""
    dur, child = _durations(spans)
    total = sum(dur[i] for i, s in enumerate(spans) if s[0] == "job")
    shares: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = "cli.self" if s[0] == "job" else s[0]
        shares[name] = shares.get(name, 0.0) + (dur[i] - child[i]) / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
