"""galrep's JSON writer against its oracle, ``json.dumps(indent=2, sort_keys=True)``."""

import gc
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galrep.classify import classify, dump_json
from galrep.padic import BaseField, InputPolynomial


def oracle(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


# every code point, lone surrogates included, with the characters json escapes drawn often
_chars = st.one_of(st.characters(exclude_categories=()),
                   st.sampled_from('"\\\x00\x08\n\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600'))
_text = st.text(_chars, max_size=8)
_ints = st.one_of(st.integers(), st.integers(min_value=-2**200, max_value=2**200))
_leaves = st.one_of(st.none(), st.booleans(), _ints, _text)
_trees = st.recursive(_leaves, lambda children: st.one_of(st.lists(children, max_size=5),
                                                          st.dictionaries(_text, children, max_size=5)),
                      max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_bytes_equal_the_oracle(obj):
    assert dump_json(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [[], {}, [[]], {"": {}}, [2**64, -2**64 - 1], {"b": [True, None], "a": False}])
def test_edge_shapes(obj):
    assert dump_json(obj) == oracle(obj)


@pytest.mark.parametrize("bad", [1.5, (1, 2), {1, 2}, Fraction(1, 2), {1: "a"}],
                         ids=["float", "tuple", "set", "Fraction", "int key"])
@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: ["a", x], lambda x: {"k": [{"j": x}]}],
                         ids=["bare", "in a leaf list", "nested"])
def test_other_types_raise_type_error(bad, wrap):
    with pytest.raises(TypeError):
        dump_json(wrap(bad))


def test_int_beyond_the_digit_limit_raises_like_the_oracle():
    big = 10**5000
    with pytest.raises(ValueError):
        oracle([big])
    with pytest.raises(ValueError):
        dump_json([big])


def test_leaves_no_cyclic_garbage():
    report = classify(InputPolynomial.from_string(13, "x^13-13"), BaseField(13, 1))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        text = report.to_json()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert text == oracle(report.to_json_dict())
