"""galrep's JSON writer against its oracle, ``json.dumps(indent=2, sort_keys=True)``
over the plain data of ``oracles.plain``."""

import contextlib
import gc
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import plain

import galrep.cli as cli
from galrep.classify import ClassificationReport, Eigenvalue, GroupSummary, classify
from galrep.cyclotomic import Cyclotomic, cyclotomic_polynomial
from galrep.errors import UsageError
from galrep.groups import CharacterRow, ConjClass, El
from galrep.json_writer import document, dump_json, entries
from galrep.padic import BaseField, InputPolynomial


def oracle(obj):
    return json.dumps(plain(obj), indent=2, sort_keys=True)


# every code point, lone surrogates included, with the characters json escapes drawn often
_chars = st.one_of(st.characters(exclude_categories=()),
                   st.sampled_from('"\\\x00\x08\n\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600'))
_text = st.text(_chars, max_size=8)
_ints = st.one_of(st.integers(), st.integers(min_value=-2**200, max_value=2**200))
_leaves = st.one_of(st.none(), st.booleans(), _ints, _text)


def _trees(leaves):
    return st.recursive(leaves, lambda children: st.one_of(st.lists(children, max_size=5),
                                                           st.dictionaries(_text, children, max_size=5)),
                        max_leaves=40)


def _cyclotomics(m):
    degree = len(cyclotomic_polynomial(m)) - 1
    coeffs = st.one_of(st.just(0), _ints, st.sampled_from([2**200, -2**200]))
    return st.lists(coeffs, min_size=degree, max_size=degree).map(lambda cs: Cyclotomic(m, tuple(cs)))


_records = st.sampled_from([1, 2, 3, 4, 5, 12, 13]).flatmap(_cyclotomics)
_classes = st.builds(ConjClass, st.builds(El, _ints, _ints, _ints), _ints)


@settings(max_examples=150, deadline=None)
@given(_trees(_leaves))
def test_bytes_equal_the_oracle(obj):
    assert dump_json(obj) == oracle(obj)


@settings(max_examples=150, deadline=None)
@given(_trees(st.one_of(_leaves, _records)))
def test_records_equal_the_oracle(obj):
    assert dump_json(obj) == oracle(obj)


# a class is written as the dict it gives, which the oracle builds from its fields
@settings(max_examples=100, deadline=None)
@given(_classes)
def test_class_dicts_equal_the_oracle(cls):
    assert dump_json(cls.to_json_dict()) == oracle(cls)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_text, _trees(st.one_of(_leaves, _records)), max_size=4))
def test_document_of_entries_is_dump_json(tree):
    assert document(entries(tree)) == dump_json(tree) == oracle(tree)


@pytest.mark.parametrize("obj", [[], {}, [[]], {"": {}}, [2**64, -2**64 - 1], {"b": [True, None], "a": False}])
def test_edge_shapes(obj):
    assert dump_json(obj) == oracle(obj)


# tuple subclasses, which json.dumps would write as lists, are refused by the writer, ConjClass included;
# classes that are not made of ints, which their dicts would give with wrong fields (True for 1), are
# refused when built
_RECORD_LIKE = [(lambda: El(0, 1, 0), TypeError), (lambda: ConjClass(El(0, 1, 0), 5), TypeError),
                (lambda: GroupSummary(40, 2, 10), TypeError),
                (lambda: Eigenvalue(Cyclotomic.rational(5, 5), 4), TypeError),
                (lambda: CharacterRow("wild-", 4, (Cyclotomic.rational(5, 4),), True, ("induced", 1, None)), TypeError),
                (lambda: ConjClass(El(0, 1, "0"), 1), UsageError), (lambda: ConjClass(El(True, 0, 0), 1), UsageError),
                (lambda: ConjClass(El(0, 0, 0), True), UsageError), (lambda: ConjClass((0, 0, 0), 1), UsageError),
                (lambda: ConjClass(El(0, 0, 0), 1)._replace(rep=El(0, 0, 0)._replace(k=True)), UsageError)]
_OTHER_TYPES = [(lambda x=x: x, TypeError) for x in (1.5, (1, 2), {1, 2}, Fraction(1, 2), {1: "a"})]


@pytest.mark.parametrize("bad", _OTHER_TYPES + _RECORD_LIKE,
                         ids=["float", "tuple", "set", "Fraction", "int key", "El", "ConjClass", "GroupSummary",
                              "Eigenvalue", "CharacterRow", "ConjClass of a str", "ConjClass of a bool",
                              "ConjClass of bool size", "ConjClass of a tuple", "ConjClass replaced by a bool"])
@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: ["a", x], lambda x: {"k": [{"j": x}]}],
                         ids=["bare", "in a leaf list", "nested"])
def test_other_types_raise_type_error(bad, wrap):
    build, error = bad
    with pytest.raises(error):
        dump_json(wrap(build()))


def test_int_beyond_the_digit_limit_raises_like_the_oracle():
    big = 10**5000
    with pytest.raises(ValueError):
        oracle([big])
    with pytest.raises(ValueError):
        dump_json([big])


def test_coefficient_beyond_the_digit_limit_raises_like_the_oracle():
    tree = {"values": [Cyclotomic(3, (0, 10**sys.get_int_max_str_digits()))]}
    with pytest.raises(ValueError):
        oracle(tree)
    with pytest.raises(ValueError):
        dump_json(tree)


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


def _whole_outputs():
    for p in (3, 5, 7, 11, 13):
        for n in (1, 2, 3):
            yield ("classify", "--p", str(p), "--f", f"x^{p}-{p}", "--n", str(n))
    yield ("classify", "--p", "5", "--f", "x^5+x+1", "--n", "1")  # refused
    for p in (3, 5, 7, 11, 13, 17, 19):
        for group in ("inertia", "full"):
            yield ("chartab", "--p", str(p), "--group", group, "--group-bound", str(p))
    yield ("count", "--mode", "curve", "--p", "5", "--m", "2")
    yield ("count", "--mode", "twisted", "--p", "5", "--n", "3")
    yield ("verify",)


@pytest.mark.parametrize("argv", tuple(_whole_outputs()), ids=" ".join)
def test_whole_output_equals_the_oracle(argv, monkeypatch):
    """What the CLI prints is the oracle's bytes for the tree it wrote.  A
    report's tree is its to_json_dict(): to_json writes the entries of the
    model curve from text kept per model, not through dump_json."""
    trees = []

    def recording_dump_json(tree):
        trees.append(tree)
        return dump_json(tree)

    to_json = ClassificationReport.to_json

    def recording_to_json(report):
        trees.append(report.to_json_dict())
        return to_json(report)

    monkeypatch.setattr(ClassificationReport, "to_json", recording_to_json)
    monkeypatch.setattr(cli, "dump_json", recording_dump_json)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    [tree] = trees
    # line by line: pytest would take minutes to diff two long strings that differ
    assert out.getvalue().splitlines(keepends=True) == (oracle(tree) + "\n").splitlines(keepends=True)
