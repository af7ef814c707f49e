import copy
import pickle

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


# Values are tagged tuples: the kind tag comes first, so kinds never meet.
DISTINCT_KINDS = [
    (Inl(Atom("a")), Inr(Atom("a"))),
    (Atom("true"), TRUE),
    (Atom("unit"), UNIT),
    (NIL, UNIT),
    (Atom("false"), FALSE),
    (Inl(UNIT), Inr(UNIT)),
    (Pair(Atom("p"), Atom("S")), Dist("p", Atom("S"))),
]


@pytest.mark.parametrize("a,b", DISTINCT_KINDS)
def test_distinct_kinds_with_equal_fields_differ(a, b):
    assert a != b and not a == b
    assert hash(a) != hash(b)
    assert len({a, b}) == 2


def _fresh(v):
    # rebuilt from the key, so no sub-value is shared with `v`
    return parse_value(v.key())


@pytest.mark.parametrize("v", EXAMPLES)
def test_hash_agrees_with_eq_on_fresh_values(v):
    w = _fresh(v)
    assert w is not v and w == v and hash(w) == hash(v)
    assert {v: 1}[w] == 1


def test_repr_is_the_dataclass_form():
    assert repr(Pair(Atom("a"), UNIT)) == "Pair(first=Atom(name='a'), second=Unit())"
    assert repr(Inl(Bool(True))) == "Inl(value=Bool(value=True))"
    assert repr(Inr(NIL)) == "Inr(value=Atom(name=''))"
    assert repr(Dist("p", Atom("S"))) == "Dist(param='p', index=Atom(name='S'))"
    assert str(UNIT) == "Unit()"


def test_fields_keep_their_names():
    d = Dist("p", Pair(Atom("A"), Atom("b")))
    assert d.param == "p" and d.index == Pair(Atom("A"), Atom("b"))
    assert d.name == "p[(A,b)]"
    assert d.index.first == Atom("A") and d.index.second.name == "b"
    assert Pair(first=NIL, second=UNIT) == Pair(NIL, UNIT)
    assert Inr(value=TRUE).value is TRUE and Bool(value=False).value is False


@pytest.mark.parametrize("v", EXAMPLES)
def test_values_are_immutable(v):
    for field in ("name", "value", "first", "second", "param", "index", "other"):
        with pytest.raises(AttributeError):
            setattr(v, field, NIL)


@pytest.mark.parametrize("v", EXAMPLES)
def test_values_are_scalars(v):
    with pytest.raises(TypeError):
        iter(v)
    with pytest.raises(TypeError):
        a, b = v
    with pytest.raises(TypeError):
        list(v)


@pytest.mark.parametrize("v", EXAMPLES)
def test_pickle_and_copy_roundtrip(v):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        w = pickle.loads(pickle.dumps(v, protocol))
        assert w == v and type(w) is type(v) and repr(w) == repr(v)
    for w in (copy.copy(v), copy.deepcopy(v)):
        assert w == v and type(w) is type(v) and hash(w) == hash(v)


def test_sorted_values_order_on_a_mixed_set():
    vs = {Inr(Atom("z")), Atom("b"), Atom(""), Atom("true"), TRUE, FALSE, UNIT,
          Pair(Atom("a"), UNIT), Inl(Atom("a")), Inl(Inr(UNIT)), Dist("p", Atom("S")),
          Atom("unit")}
    assert [v.key() for v in sorted_values(vs)] == [
        "(a,unit)", "atom true", "atom unit", "b", "dist p[S]", "false",
        "inl (inr unit)", "inl a", "inr z", "nil", "true", "unit"]
