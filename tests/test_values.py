import pytest

from fggc.parser import KEYWORDS, parse_value
from fggc.values import (FALSE, NIL, TRUE, UNIT, Atom, Bool, Dist, Domain, Inl,
                         Inr, Pair, Unit, ValueSyntaxError, sorted_values,
                         value_from_json, value_to_json)

EXAMPLES = [
    Atom("S"),
    Atom(""),  # nil, the empty string
    Bool(True),
    Bool(False),
    Unit(),
    Pair(Atom("a"), Atom("b")),
    Inl(Atom("a")),
    Inr(Pair(Atom("S"), Atom("S"))),
    Dist("p", Atom("S")),
    Pair(Inl(Unit()), Inr(Bool(False))),
    Dist("p", Pair(Atom("A"), Inl(Atom("b")))),
    Inl(Dist("p", Atom("S"))),
    Atom("é"),
    # `cons` can build an atom named after a keyword
    *(Atom(k) for k in sorted(KEYWORDS)),
    Inl(Atom("true")),
    Dist("p", Atom("inr")),
]


@pytest.mark.parametrize("v", EXAMPLES)
def test_key_roundtrip(v):
    assert parse_value(v.key()) == v


@pytest.mark.parametrize("v", EXAMPLES)
def test_json_roundtrip(v):
    assert value_from_json(value_to_json(v)) == v


def test_parse_value_literals():
    assert parse_value("nil") == Atom("")
    assert parse_value("ab") == Atom("ab")
    assert parse_value("true") == Bool(True)
    assert parse_value("unit") == Unit()
    assert parse_value("inl a") == Inl(Atom("a"))
    assert parse_value("(A,B)") == Pair(Atom("A"), Atom("B"))
    assert parse_value("inr (S,S)") == Inr(Pair(Atom("S"), Atom("S")))
    assert parse_value(" dist p[(A, inl b)] ") == Dist("p", Pair(Atom("A"), Inl(Atom("b"))))
    # keywords of the source language other than the constants are atoms
    assert parse_value("let") == Atom("let")
    assert parse_value("dist") == Atom("dist")


def test_keyword_named_atoms_print_apart_from_constants():
    constants = {"nil": NIL, "true": TRUE, "false": FALSE, "unit": UNIT}
    for k, v in constants.items():
        assert Atom(k).key() != v.key()
        assert parse_value(v.key()) == v
    assert Atom("nil").key() == "atom nil"
    # `atom` alone, or before a name that is no keyword, is no prefix
    assert parse_value("atom") == Atom("atom")
    with pytest.raises(ValueSyntaxError):
        parse_value("atom a")


@pytest.mark.parametrize("text", ["", "a#2", "(A,B", "a b", "1", "dist p", "dist p[S"])
def test_parse_value_rejects(text):
    with pytest.raises(ValueSyntaxError):
        parse_value(text)


@pytest.mark.parametrize("obj", [{"dist": ""}, {"dist": "p"}, {"dist": "p[S] x"}])
def test_value_from_json_rejects(obj):
    with pytest.raises(ValueSyntaxError):
        value_from_json(obj)


def test_sorted_values_deterministic():
    vs = [Inr(Atom("z")), Atom("b"), Atom("a"), Bool(True), Unit()]
    once = sorted_values(vs)
    again = sorted_values(reversed(vs))
    assert once == again
    assert len(set(once)) == len(once)


def test_domain_index():
    d = Domain("D", sorted_values([Atom("a"), Atom("b")]))
    assert d.values[d.index(Atom("b"))] == Atom("b")
    assert Atom("a") in d
    assert Atom("c") not in d
    with pytest.raises(Exception):
        d.index(Atom("c"))
