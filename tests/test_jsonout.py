"""The indented-JSON emitter writes what the standard library writes.

Imports nothing but json, io, hypothesis and confuse.jsonout, so it runs on
interpreters without numpy.
"""

import io
import json

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
