"""The indented-JSON emitter writes what the standard library writes.

Imports nothing but the standard library, hypothesis and confuse.jsonout,
so it runs on interpreters without numpy.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from confuse import jsonout

leaves = (
    st.text()  # any code point, so escapes and non-ASCII
    | st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f", "é", " ", "\U0001f600", "\ud800"])
    | st.integers()
    | st.integers(min_value=2**64 - 2, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324])
    | st.booleans()
    | st.none()
)
documents = st.recursive(
    leaves,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=5)
        # lists of one kind take the emitter's single-join path
        | st.lists(st.text(), max_size=6)
        | st.lists(st.integers(), max_size=6)
    ),
    max_leaves=30,
)


def emitted(obj) -> str:
    out = io.StringIO()
    jsonout.dump(obj, out)
    return out.getvalue()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(documents)
def test_dump_equals_stdlib(obj):
    # documents nest to every depth, so both the member-by-member outer
    # levels and the joined inner ones are covered
    assert emitted(obj) == json.dumps(obj, indent=1, sort_keys=True)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none(), st.integers(), max_size=4))
def test_non_string_keys_equal_stdlib(obj):
    try:
        expected = json.dumps(obj, indent=1, sort_keys=True)
    except TypeError:  # keys of mixed types do not sort
        return
    assert emitted(obj) == expected


def fragmented(obj, draw):
    """obj with random subdocuments, obj itself included, replaced by
    Fragments of their own encoding."""
    if draw(st.booleans()):
        return jsonout.Fragment(emitted(obj))
    if isinstance(obj, dict):
        return {k: fragmented(v, draw) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [fragmented(v, draw) for v in obj]
    return obj


@settings(derandomize=True, max_examples=200, deadline=None)
@given(documents, st.data())
def test_fragments_embed_at_any_depth(obj, data):
    assert emitted(fragmented(obj, data.draw)) == json.dumps(obj, indent=1, sort_keys=True)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.lists(st.text(), min_size=1, max_size=4), max_size=4))
def test_joined_lists_equal_stdlib(rows):
    # how a catalog entry encodes its sets, and its randomizer as one row
    encoded = [jsonout.strings(r) for r in rows]
    assert jsonout.joined_lists(encoded) == json.dumps(rows, indent=1)
    for r, texts in zip(rows, encoded):
        assert jsonout.joined_list(texts) == json.dumps(r, indent=1)


def test_stdlib_refuses_a_fragment():
    for doc in (jsonout.Fragment("1"), [jsonout.Fragment('"a"')]):
        try:
            json.dumps(doc)
        except TypeError:
            continue
        raise AssertionError(f"json.dumps accepted {doc!r}")


def test_import_loads_no_numpy():
    code = "import sys, confuse.jsonout; sys.exit('numpy' in sys.modules)"
    src = str(Path(jsonout.__file__).parents[1])  # the directory holding confuse
    env = os.environ | {"PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_unserializable_raises_type_error_like_stdlib():
    for bad in ({"a": object()}, [1, {2, 3}], {(1, 2): 0}):
        try:
            json.dumps(bad, indent=1, sort_keys=True)
        except TypeError:
            pass
        else:
            raise AssertionError(f"json.dumps accepted {bad!r}")
        try:
            emitted(bad)
        except TypeError:
            continue
        raise AssertionError(f"dump accepted {bad!r}")
