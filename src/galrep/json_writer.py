"""The one JSON writer of every report, table and error.

It sits apart from the pipeline so that a command loads only what it runs:
the CLI imports it at start-up, ahead of any command's modules.
"""

from __future__ import annotations

import json

from .cyclotomic import Cyclotomic
from .groups import ConjClass

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
    keys, lists, str, int, bool and None, and two records written in place
    of the dicts they stand for, so that no dict is built per value:
    a ``Cyclotomic`` as ``{"coeffs": [int strings], "m": m}`` and a
    ``ConjClass`` as ``{"rep": [i, j, k], "size": size}``.  Any other type,
    other tuples included, raises TypeError.  (With an indent, the json
    module encodes in pure Python, twice as slow, and leaves cyclic garbage
    behind.)  ``ClassificationReport.to_json`` writes a report's entries with
    the same encoder, keeping the text of those that depend on the model
    curve alone, or on the assumption report alone, for the next report that
    shares them.
    """
    return _encode(obj, "\n")


def _encode_cyclotomic(value: Cyclotomic, newline: str) -> str:
    inner = newline + "  "
    # never empty (deg Phi_m >= 1); repr keeps the digit-limit ValueError, and
    # the zeros, most of a large table, share one string
    coeffs = ('",' + inner + '  "').join([repr(c) if c else "0" for c in value.coeffs])
    return f'{{{inner}"coeffs": [{inner}  "{coeffs}"{inner}],{inner}"m": {value.m!r}{newline}}}'


def _encode_class(cls: ConjClass, newline: str) -> str:
    # chartab writes every class of a table here; classify writes psi's only
    # once per model, as to_json keeps the text of the model's entries
    inner = newline + "  "
    write = int.__repr__  # ConjClass and El are built of ints only: groups._checked refuses other fields
    (i, j, k), size = cls
    return (f'{{{inner}"rep": [{inner}  {write(i)},{inner}  {write(j)},{inner}  {write(k)}{inner}],'
            f'{inner}"size": {write(size)}{newline}}}')


_RECORDS = {Cyclotomic: _encode_cyclotomic, ConjClass: _encode_class}


def _encode(obj, newline: str) -> str:
    """``obj`` as JSON; ``newline`` starts each of its lines after the first."""
    kind = type(obj)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return leaf(obj)
    record = _RECORDS.get(kind)
    if record is not None:
        return record(obj, newline)
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
        if not obj:
            return "{}"
        # a non-str key fails in sorted() or in _encode_str with TypeError
        body = ("," + inner).join([f"{_encode_str(k)}: {_encode(v, inner)}" for k, v in sorted(obj.items())])
        return f"{{{inner}{body}{newline}}}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
