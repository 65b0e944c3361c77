"""The one JSON writer of every report, table and error, and the only
module that knows the byte format.  A dict is written as its ``entries``
framed by ``document``, so a caller may keep the text of some entries.
One record type, ``Cyclotomic``, is written from its fields, as a table
holds O(p^2) of them; every other record gives its dict.

It sits apart from the pipeline so that a command loads only what it runs:
the CLI imports it at start-up, ahead of any command's modules, and it
loads no module of galrep but ``cyclotomic``.
"""

from __future__ import annotations

import json

from .cyclotomic import Cyclotomic

_encode_str = json.encoder.encode_basestring_ascii  # the C escaper of the json module
_LEAVES = {
    str: _encode_str,
    int: int.__repr__,  # keeps the digit-limit ValueError
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def dump_json(obj) -> str:
    """The one JSON format of every report and error: two-space indents and
    sorted keys.  Byte-identical output rests on it.

    The bytes are those the json module's ``dumps(obj, indent=2,
    sort_keys=True)`` gives for the types reports are made of: dicts with str
    keys, lists, str, int, bool and None, and one record written in place of
    the dict it stands for, so that no dict is built per value: a
    ``Cyclotomic`` as ``{"coeffs": [int strings], "m": m}``.  Any other
    type, other tuples and records included, raises TypeError.  (With an
    indent, the json module encodes in pure Python, twice as slow, and
    leaves cyclic garbage behind.)  ``document(entries(tree))`` is
    ``dump_json(tree)`` for a dict.
    """
    return _encode(obj, "\n")


def entries(tree: dict, newline: str = "\n") -> list[tuple[str, str]]:
    """(key, text) of each entry of the dict ``tree``, to frame with ``document``
    where lines start with ``newline``; a non-str key raises TypeError."""
    inner = newline + "  "
    return [(key, f"{_encode_str(key)}: {_encode(value, inner)}") for key, value in tree.items()]


def document(items: list[tuple[str, str]], newline: str = "\n") -> str:
    """The dict of the (key, text) ``items`` of ``entries``, keys distinct, in key order."""
    if not items:
        return "{}"
    inner = newline + "  "
    separator = "," + inner
    parts = ["{" + inner]  # framed in one join, so a large table is held at most twice
    for _, text in sorted(items):  # distinct keys: no two texts are compared
        parts += (text, separator)
    parts[-1] = newline + "}"
    return "".join(parts)


def _encode_cyclotomic(value: Cyclotomic, newline: str) -> str:
    inner = newline + "  "
    # never empty (deg Phi_m >= 1); repr keeps the digit-limit ValueError, and
    # the zeros, most of a large table, share one string
    coeffs = ('",' + inner + '  "').join([repr(c) if c else "0" for c in value.coeffs])
    return f'{{{inner}"coeffs": [{inner}  "{coeffs}"{inner}],{inner}"m": {value.m!r}{newline}}}'


def _encode(obj, newline: str) -> str:
    """``obj`` as JSON; ``newline`` starts each of its lines after the first."""
    kind = type(obj)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return leaf(obj)
    if kind is Cyclotomic:
        return _encode_cyclotomic(obj, newline)
    inner = newline + "  "
    # each body is joined from a temporary list and framed in one f-string,
    # so a large table is held at most twice while it is written
    if kind is list:
        if not obj:
            return "[]"
        try:  # a list of leaves (coefficients, failures) takes one pass
            body = ("," + inner).join([_LEAVES[type(x)](x) for x in obj])
        except KeyError:
            body = ("," + inner).join([_encode(x, inner) for x in obj])
        return f"[{inner}{body}{newline}]"
    if kind is dict:
        return document(entries(obj, newline), newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
