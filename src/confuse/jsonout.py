"""Indented JSON output: exactly what json.dumps(obj, indent=1, sort_keys=True)
writes, without the standard library's pure-Python encoder.

With an indent, json.dump (and json.dumps before Python 3.13) runs a
pure-Python generator that yields every scalar as its own piece.  Here a
list whose items are all str or all int is one join, and the outer levels
of a document go to the file one member at a time, so no string holds a
whole multi-megabyte document.

A Fragment is a value already encoded: its text is written in place, at
whatever depth it sits, so a subdocument that appears twice is encoded once.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

_STR = {str}
_INT = {int}
_CONTAINERS = (list, tuple, dict)


class Fragment:
    """JSON text to embed as it is, encoded as dump would write it at the top
    level of a document.  Not a str, so json.dumps refuses it (TypeError)
    instead of writing it as a string."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self):
        return f"Fragment({self.text!r})"


def strings(items) -> list[str]:
    """Each str of items as JSON text."""
    return list(map(_string, items))


def joined_list(texts: list[str], nl: str = "\n") -> str:
    """The JSON list of texts, each already JSON text, as _encode writes it
    after nl (a newline and the current indentation)."""
    if not texts:
        return "[]"
    inner = nl + " "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def joined_lists(rows: list) -> str:
    """The JSON list of rows, each a nonempty iterable of JSON texts, as dump
    writes it at the top level of a document: one join per row."""
    if not rows:
        return "[]"
    return "[\n [\n  " + "\n ],\n [\n  ".join(map(",\n  ".join, rows)) + "\n ]\n]"


def _key(k) -> str:
    # json converts int, float, bool and None keys to their JSON text
    if isinstance(k, str):
        return _string(k)
    if k is None or isinstance(k, (int, float)):
        return _string(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _members(o) -> list:
    """(prefix, value) per member of a list, tuple or dict, in output order."""
    if isinstance(o, dict):
        return [(_key(k) + ": ", v) for k, v in sorted(o.items())]
    return [("", v) for v in o]


def _encode(o, nl: str) -> str:
    """o as JSON, its inner lines indented one space deeper than nl (a
    newline and the current indentation) and its closing bracket after nl."""
    if type(o) is str:
        return _string(o)
    if type(o) is int:
        return int.__repr__(o)
    if type(o) is Fragment:
        # an encoded JSON string holds no raw newline, so every one is a line break
        return o.text.replace("\n", nl)
    if not isinstance(o, _CONTAINERS):
        return json.dumps(o)  # bool, None, float, str and int subclasses
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = nl + " "
    if isinstance(o, dict):
        body = (prefix + _encode(v, inner) for prefix, v in _members(o))
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    kinds = set(map(type, o))
    body = (map(_string, o) if kinds == _STR else map(int.__repr__, o) if kinds == _INT
            else (_encode(v, inner) for v in o))
    return joined_list(list(body), nl)


def dump(o, fh) -> None:
    """Write o to fh as json.dump(o, fh, indent=1, sort_keys=True) does."""
    _dump(o, fh, "\n", 3)


def _dump(o, fh, nl: str, depth: int) -> None:
    # the outer depth levels go to fh one member at a time
    if depth == 0 or not isinstance(o, _CONTAINERS) or not o:
        fh.write(_encode(o, nl))
        return
    inner = nl + " "
    brackets = "{}" if isinstance(o, dict) else "[]"
    fh.write(brackets[0])
    for i, (prefix, v) in enumerate(_members(o)):
        fh.write(("," if i else "") + inner + prefix)
        _dump(v, fh, inner, depth - 1)
    fh.write(nl + brackets[1])
