import pytest

from conftest import SUITE, load_program
from fggc.ast import (BuiltinApp, Call, Case, If, Observe, Sample, Var,
                      pp_program)
from fggc.frontend import desugar
from fggc.parser import ParseError, parse, parse_expr


@pytest.mark.parametrize("name", SUITE)
def test_print_parse_roundtrip(name):
    source, _ = load_program(name)
    p = parse(source)
    assert parse(pp_program(p)) == p


def test_sample_of_lookup():
    e = parse_expr("sample p[x]")
    assert isinstance(e, Sample)


def test_function_and_main_shape():
    p = parse("fun f(x) = x; f(a)")
    assert len(p.functions) == 1
    assert p.functions[0].params == ["x"]
    assert isinstance(p.main, Call)


def test_pair_vs_parens():
    assert parse_expr("(a, b)") == BuiltinApp("pair", [Var("a"), Var("b")])
    assert parse_expr("(a)") == Var("a")


TRUE, FALSE = BuiltinApp("true", []), BuiltinApp("false", [])


def test_precedence():
    # ((a = b) and c) or d
    e = parse_expr("a = b and c or d")
    assert e == If(If(BuiltinApp("=", [Var("a"), Var("b")]), Var("c"), FALSE), TRUE, Var("d"))


def test_case_arms():
    e = parse_expr("case x of inl(y) => y | inr(z) => z")
    assert isinstance(e, Case)
    assert (e.left_var, e.right_var) == ("y", "z")


def test_positions():
    p = parse("let x = a in\n  f(x)")
    assert p.main.pos == (1, 1)
    assert p.main.body.pos == (2, 3)


def test_syntax_errors():
    with pytest.raises(ParseError):
        parse("let x = in x")
    with pytest.raises(ParseError):
        parse("fun f(x) = x")  # missing ';' and main
    with pytest.raises(ParseError):
        parse_expr("fst(a, b)")  # wrong built-in arity
    with pytest.raises(ParseError) as err:
        parse("if a then b")
    assert "else" in str(err.value)


def test_comments_ignored():
    assert parse("# hello\n x # trailing\n") == parse("x")


@pytest.mark.parametrize("source,pos,message", [
    # a tab is one column, and a comment line only ends a line
    ("# a comment\n\tx $ y", (2, 4), "unexpected character '$'"),
    # '²' is a digit but not a decimal one, so it cannot start a name
    ("x\r\n  ²", (2, 3), "unexpected character '²'"),
    # a comment that ends the source leaves the end of input at its '#'
    ("let x = a in # no body", (1, 14), "expected expression, found 'end of input'"),
])
def test_error_positions(source, pos, message):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.pos, err.value.message) == (pos, message)


def test_desugar_and():
    e = parse("a and b").main
    assert isinstance(e, If)
    assert e.cond == Var("a")
    assert e.then == Var("b")
    assert e.els == BuiltinApp("false", [])


def test_desugar_or():
    e = parse("a or b").main
    assert isinstance(e, If)
    assert e.then == BuiltinApp("true", [])
    assert e.els == Var("b")


def test_desugar_not():
    e = parse("not(a = b)").main
    assert isinstance(e, If)
    assert e.cond == BuiltinApp("=", [Var("a"), Var("b")])
    assert e.then == BuiltinApp("false", [])
    assert e.els == BuiltinApp("true", [])


def test_not_print_parse_roundtrip():
    from fggc.ast import pp_program
    p = parse("fun f(x) = not(x) and not(not(x)); f(true)")
    assert parse(pp_program(p)) == p


def test_not_arity():
    with pytest.raises(ParseError) as err:
        parse("not(a, b)")
    assert "'not'" in str(err.value)


def test_desugar_fail():
    e = parse("fail").main
    assert isinstance(e, Observe)
    assert e.value == BuiltinApp("true", [])
    assert e.dist == BuiltinApp("zerodist", [])


def test_sugar_takes_the_keyword_position():
    e = parse_expr("x or\n  y and not(z)")
    assert e.pos == e.then.pos == (1, 3)
    assert e.els.pos == e.els.els.pos == (2, 5)
    assert e.els.then.pos == e.els.then.then.pos == e.els.then.els.pos == (2, 9)
    f = parse_expr("let u = a in fail")
    assert f.body.pos == f.body.value.pos == f.body.dist.pos == (1, 14)


@pytest.mark.parametrize("name", SUITE)
def test_desugar_idempotent(name):
    # the parser reads the sugar, so desugar is the identity
    p = parse(load_program(name)[0])
    assert desugar(p) is p


EVERY_SURFACE_FORM = """
fun f(x, y) = observe x and not(y) <- (if x or fail then c[x and y] else c[not(y)]);
fun g(x) = case sample s[not(not(x))] of inl(l) => l and fail | inr(r) => not(r) or x;
let a = sample c[fail] in
let u = observe (a = fail) or not(a) <- c[a and true] in
if not(u) and (a or fail) then (f(a or u, not(a)), fail) else (g(fail and a), not(not(u)))
"""


def test_every_surface_form_print_parse_roundtrip():
    """`and`, `or`, `not` and `fail` as observe value and target, call
    argument, case arm, condition, tuple element and lookup index."""
    p = parse(EVERY_SURFACE_FORM)
    text = pp_program(p)
    assert parse(text) == p
    assert pp_program(parse(text)) == text
    assert "fail" in text and "zerodist" not in text
