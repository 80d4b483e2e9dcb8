"""Seeded fuzz test of the command line: mutated JSON inputs and crt-equal
sizes must each end in an exit code, never a traceback.

Valid table, scheme, input-distribution and catalog-reference documents
are mutated at one place each: a dropped key, a value of the wrong type, a
list of the wrong shape, a nested object, or a negative or huge number.
Each case runs through cli.main in-process."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from confuse.cli import main
from confuse.gallery import GALLERY
from confuse.schemes import scheme_from_expansion, serialize_scheme

EXIT_CODES = {0, 2, 3, 4}

TABLE = {"m1": 2, "m2": 2, "outputs": [[0, 0], [0, 1]]}
SCHEME = serialize_scheme(scheme_from_expansion(GALLERY["and2"].expansion()))
DIST = {"probs": [["1/4", "1/4"], ["1/8", "3/8"]]}
REFERENCE = {
    "kind": "field",
    "max_carrier": 8,
    "rows": [{"label": "F_7", "randomizer": ["1", "6"], "sets": [["0"], ["1", "6"], ["2", "5"], ["3", "4"]]}],
}

ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.floats(allow_nan=True),
    st.sampled_from([-1, 0, -(10**6), 10**30, 2**63, -(2**63) - 1, 1.5, [], {}, [[]], [[-1]]]),
)


def _paths(doc, prefix=()):
    """Every place in doc a mutation can take: the root and each key or index."""
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc[:4]):  # the first few entries of long lists
            yield from _paths(v, prefix + (i,))


@st.composite
def mutated(draw, doc):
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(ODD_VALUES)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    op = draw(st.sampled_from(["drop", "replace", "nest", "wrap", "truncate", "extend"]))
    value = parent[key]
    if op == "drop":
        del parent[key]
    elif op == "replace":
        parent[key] = draw(ODD_VALUES)
    elif op == "nest":
        parent[key] = {"value": value}
    elif op == "wrap":
        parent[key] = [value]
    elif op == "truncate" and isinstance(value, list):
        parent[key] = value[: draw(st.integers(0, max(len(value) - 1, 0)))]
    elif op == "extend" and isinstance(value, list):
        parent[key] = value + [draw(ODD_VALUES)]
    else:
        parent[key] = draw(ODD_VALUES)
    return doc


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    assert "Traceback" not in err.getvalue()
    return code


def _write(directory, name, doc) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


CASES = st.one_of(
    st.tuples(st.just("table"), mutated(TABLE)),
    st.tuples(st.just("scheme"), mutated(SCHEME)),
    st.tuples(st.just("dist"), mutated(DIST)),
    st.tuples(st.just("reference"), mutated(REFERENCE)),
    # crt-equal on both sides of the per-pair bound (m <= 15 admitted)
    st.tuples(st.just("crt"), st.one_of(st.integers(-2, 20), st.sampled_from([2**61 - 1, 10**40]))),
)


@seed(20261019)
@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(CASES)
def test_cli_exits_with_a_code_on_mutated_inputs(case):
    kind, doc = case
    with tempfile.TemporaryDirectory() as d:
        table = _write(d, "table.json", TABLE)
        scheme = _write(d, "scheme.json", SCHEME)
        dist = _write(d, "dist.json", DIST)
        if kind == "table":
            argvs = [["verify", "--scheme", scheme, "--table", _write(d, "t.json", doc)],
                     ["baseline", "--table", _write(d, "t.json", doc)]]
        elif kind == "scheme":
            argvs = [["verify", "--scheme", _write(d, "s.json", doc), "--table", table, "--json"]]
        elif kind == "dist":
            argvs = [["verify", "--scheme", scheme, "--table", table,
                      "--input-dist", _write(d, "d.json", doc)]]
        elif kind == "reference":
            argvs = [["catalog", "field", "--max", "8", "--reference", _write(d, "r.json", doc)]]
        else:
            argvs = [["crt-equal", "--m", str(doc), "--check", "--json"]]
        for argv in argvs:
            assert _run(argv) in EXIT_CODES, argv
