import pytest

from conftest import SUITE, load_program
from fggc.ast import (And, BuiltinApp, Call, Case, Fail, If, Let, Observe,
                      Or, Sample, Var, pp_program)
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


def test_precedence():
    e = parse_expr("a = b and c or d")
    assert isinstance(e, Or)
    assert isinstance(e.left, And)
    assert e.left.left == BuiltinApp("=", [Var("a"), Var("b")])


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


def test_desugar_and():
    e = desugar(parse("a and b")).main
    assert isinstance(e, If)
    assert e.cond == Var("a")
    assert e.then == Var("b")
    assert e.els == BuiltinApp("false", [])


def test_desugar_or():
    e = desugar(parse("a or b")).main
    assert isinstance(e, If)
    assert e.then == BuiltinApp("true", [])
    assert e.els == Var("b")


def test_desugar_not():
    e = desugar(parse("not(a = b)")).main
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
    e = desugar(parse("fail")).main
    assert isinstance(e, Observe)
    assert e.value == BuiltinApp("true", [])
    assert e.dist == BuiltinApp("zerodist", [])


@pytest.mark.parametrize("name", SUITE)
def test_desugar_idempotent(name):
    source, _ = load_program(name)
    once = desugar(parse(source))
    assert desugar(once) == once
