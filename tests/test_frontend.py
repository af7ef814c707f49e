import importlib
import itertools

import pytest

from conftest import SUITE, cnf_pcfgw, load_program
from fggc.frontend import (_MAX_NESTING, _WEIGHT_LIMIT, DomainError, apply_builtin,
                           check_program, scope_check)
from fggc.params import Params, params_from_json
from fggc.parser import parse
from fggc.translate import compile_source
from fggc.values import Atom, Bool, Inl, Inr, Pair

frontend_module = importlib.import_module("fggc.frontend")


def _check(source, params=None):
    return check_program(source, params or Params())


def _diags(source, params=None):
    params = params or Params()
    return scope_check(parse(source), frozenset(params.global_names()))


@pytest.mark.parametrize("name", SUITE)
def test_suite_programs_check(name):
    source, params = load_program(name)
    program, domains = check_program(source, params)
    assert program.main.ty is not None
    for d in domains.values():
        assert len(d.values) > 0


def test_unbound_variable():
    (d,) = _diags("z")
    assert "z" in d.message


def test_call_arity_mismatch():
    diags = _diags("fun d(x) = x; d(a, b)",
                   params_from_json({"domains": {"k": ["a", "b"]}}))
    assert any("argument" in d.message for d in diags)


def test_undeclared_function():
    diags = _diags("g(a)", params_from_json({"domains": {"k": ["a"]}}))
    assert any("'g'" in d.message for d in diags)


def test_duplicate_function():
    diags = _diags("fun f(x) = x; fun f(y) = y; f(a)",
                   params_from_json({"domains": {"k": ["a"]}}))
    assert any("duplicate" in d.message for d in diags)


def test_shadowing_rejected():
    params = params_from_json({"domains": {"k": ["a"]}})
    diags = _diags("let x = a in let x = a in x", params)
    assert any("shadows" in d.message for d in diags)
    diags = _diags("fun f(x) = let f = x in f; f(a)", params)
    assert any("shadows" in d.message for d in diags)


def test_builtins_partial():
    assert apply_builtin("=", (Atom("a"), Atom("a"))) == Bool(True)
    assert apply_builtin("!=", (Atom("a"), Atom("b"))) == Bool(True)
    assert apply_builtin("fst", (Pair(Atom("a"), Atom("b")),)) == Atom("a")
    assert apply_builtin("fst", (Atom("a"),)) is None
    assert apply_builtin("car", (Atom("ab"),)) == Atom("a")
    assert apply_builtin("cdr", (Atom("ab"),)) == Atom("b")
    assert apply_builtin("car", (Atom(""),)) is None  # car of nil is undefined
    assert apply_builtin("cons", (Atom("a"), Atom("b"))) == Atom("ab")
    assert apply_builtin("cons", (Atom("ab"), Atom("c"))) is None


def test_not_is_a_builtin():
    # `not(x)` parses to an `if`, not a call to a function named `not`
    program, _ = _check("fun f(x) = not(x); f(true)")
    assert set(program.main.ty.result.values) <= {Bool(False), Bool(True)}
    assert not _diags("fun f(x) = not(x); f(true)")


def test_if_condition_must_be_boolean():
    params = params_from_json({"domains": {"k": ["a", "b"]}})
    with pytest.raises(DomainError) as err:
        _check("if a then a else b", params)
    assert "boolean" in str(err.value)


def test_sample_needs_distribution():
    params = params_from_json({"domains": {"k": ["a"]}})
    with pytest.raises(DomainError) as err:
        _check("sample a", params)
    assert "distribution" in str(err.value)


def test_case_needs_sum():
    params = params_from_json({"domains": {"k": ["a"]}})
    with pytest.raises(DomainError):
        _check("case a of inl(x) => x | inr(y) => y", params)


def test_sample_result_is_support_union():
    source, params = load_program("casetest")
    program, _ = _check_with(source, params)
    scrutinee = program.main.scrutinee
    vals = set(scrutinee.ty.result.values)
    assert vals == {Inl(Atom("A")), Inl(Atom("B")), Inr(Atom("C"))}


def _check_with(source, params):
    return check_program(source, params)


def test_suffix_domain_inferred():
    # the string scorer threads suffixes of the input through w
    source, params = load_program("pcfgw")
    program, _ = check_program(source, params)
    d = program.functions[0]
    env = dict(d.body.ty.env)
    suffixes = {v for v in env["w"].values if isinstance(v, Atom)}
    assert {Atom("ab"), Atom("b"), Atom("")} <= suffixes


def test_unbounded_recursion_diagnosed():
    # cons grows strings forever without a declared enumeration
    params = params_from_json({"params": {"c": {"u": {"true": 0.5, "false": 0.5}}},
                               "domains": {"atoms": ["a"]}})
    src = "fun f(w) = if sample c[u] then w else f(cons(a, w)); f(nil)"
    with pytest.raises(DomainError) as err:
        check_program(src, params)
    assert "enumeration" in str(err.value)


def test_env_extends_only_at_binders():
    source, params = load_program("pcfg")
    program, _ = check_program(source, params)

    def walk(e, env_names):
        assert [x for x, _ in e.ty.env] == env_names
        from fggc.ast import Case, Let
        for name, child, child_env in _children(e, env_names):
            walk(child, child_env)

    def _children(e, env_names):
        from fggc.ast import (BuiltinApp, Call, Case, If, Let, Lookup,
                              Observe, Sample)
        if isinstance(e, Let):
            yield "bound", e.bound, env_names
            yield "body", e.body, env_names + [e.name]
        elif isinstance(e, Case):
            yield "scrutinee", e.scrutinee, env_names
            yield "left", e.left, env_names + [e.left_var]
            yield "right", e.right, env_names + [e.right_var]
        elif isinstance(e, If):
            yield "cond", e.cond, env_names
            yield "then", e.then, env_names
            yield "else", e.els, env_names
        elif isinstance(e, (Call, BuiltinApp)):
            for a in e.args:
                yield "arg", a, env_names
        elif isinstance(e, Sample):
            yield "arg", e.arg, env_names
        elif isinstance(e, Observe):
            yield "value", e.value, env_names
            yield "dist", e.dist, env_names
        elif isinstance(e, Lookup):
            yield "index", e.index, env_names

    f = program.functions[0]
    walk(f.body, list(f.params))
    walk(program.main, [])


def _uniform(values):
    return {v: 1.0 / len(values) for v in values}


def test_set_limit_diagnosed():
    # strings over ten letters: the set of suffixes passes the limit at length 5
    params = params_from_json({"params": {
        "c": {"u": {"true": 0.5, "false": 0.5}},
        "d": {"u": _uniform("abcdefghij")}}})
    src = "fun f(w) = if sample c[u] then w else f(cons(sample d[u], w)); f(nil)"
    with pytest.raises(DomainError) as err:
        check_program(src, params)
    assert "exceeded the size limit" in str(err.value)


def test_product_limit_diagnosed_at_builtin():
    params = params_from_json({"params": {"d": {"u": _uniform([f"a{i}" for i in range(1001)])}}})
    src = "let x = sample d[u] in\nlet y = sample d[u] in\n  (x, y)"
    with pytest.raises(DomainError) as err:
        check_program(src, params)
    assert "too large to enumerate" in str(err.value)
    assert err.value.pos == (3, 3)


def test_type_error_names_smallest_bad_value():
    letters = "zyxwvutsrqponmlkjihgfedcba"
    params = params_from_json({"params": {"d": {"u": _uniform(letters)}}})
    with pytest.raises(DomainError) as err:
        check_program("if sample d[u] then true else false", params)
    assert str(err.value) == "1:1: if condition is not boolean (can be a)"


def _call_chain(depth):
    """f0 calls f1, ..., which calls f{depth}, which returns its argument."""
    lines = [f"fun f{i}(x) = let y = f{i + 1}(x) in y;" for i in range(depth)]
    return "\n".join(lines + [f"fun f{depth}(x) = x;", "f0(true)"])


@pytest.mark.parametrize("depth", [400, 1000])
def test_deep_call_chain_compiles(depth):
    # each body is walked on its own, so a long chain of calls adds no stack depth
    cu = compile_source(_call_chain(depth), Params())
    assert len(cu.fgg.rules) == depth + 2


def test_deep_bodies_calling_each_other_type_one_body_at_a_time():
    """Each body is a 250-deep let chain whose innermost expression calls
    the next function. Domain assignment walks each body on its own, so the
    four take one body's stack, not four nested ones."""
    lines = []
    for i in range(4):
        chain = "".join(f"let x{j} = x{j - 1} in " for j in range(1, 251))
        inner = f"f{i + 1}(x250)" if i < 3 else "x250"
        lines.append(f"fun f{i}(x0) = {chain}{inner};")
    program, _ = _check("\n".join(lines + ["f0(true)"]))
    assert program.main.ty.result.values == (Bool(True),)


def test_callee_shared_by_many_callers():
    # each caller adds one value to g's parameter set, and each value
    # reaches g's result
    n = 600
    atoms = [f"a{i}" for i in range(n)]
    lines = ["fun g(x) = inl(x);"]
    lines += [f"fun c{i}(x) = let u = g(x) in x;" for i in range(n)]
    lines.append("".join(f"let y{i} = c{i}(a{i}) in " for i in range(n)) + "y0")
    program, _ = _check("\n".join(lines), params_from_json({"domains": {"atoms": atoms}}))
    assert len(program.functions[0].body.ty.result.values) == n


def _counted_check(monkeypatch, source, params):
    """check_program's DomainError on `source`, and its apply_builtin calls."""
    calls = [0]
    apply = frontend_module.apply_builtin

    def count(op, args):
        calls[0] += 1
        return apply(op, args)

    monkeypatch.setattr(frontend_module, "apply_builtin", count)
    with pytest.raises(DomainError) as err:
        check_program(source, params)
    return str(err.value), calls[0]


ATOM_A = params_from_json({"domains": {"atoms": ["a"]}})


def test_sum_feedback_applies_each_value_once(monkeypatch):
    # g's parameter set gains one `inr` level per evaluation, and `inr` is
    # applied to each of its values once, up to the one nested too deep
    message, calls = _counted_check(
        monkeypatch, "fun g(x) = inr(x);\nfun h(x) = let u = g(x) in g(u);\nh(a)", ATOM_A)
    assert "value-set propagation did not stabilize" in message
    assert calls == _MAX_NESTING + 1


def test_pair_self_feed_diagnosed_before_enumeration(monkeypatch):
    # the parameter set grows 1, 2, 5, 26, 677 values: the pairs of the 26
    # are enumerated, the 677² that would pass the size limit are not
    message, calls = _counted_check(monkeypatch, "fun g(x) = g((x, x)); g(a)", ATOM_A)
    assert "exceeded the size limit" in message
    assert calls == 26 ** 2


def test_string_chain_diagnosed_by_weight(monkeypatch):
    # one atom per evaluation: a, aa, aaa, ... until the strings that `cons`
    # built hold more than _WEIGHT_LIMIT characters; `cons` runs once per
    # string, plus one call for `nil`
    message, calls = _counted_check(monkeypatch, "fun f(s) = f(cons(a, s)); f(nil)", ATOM_A)
    assert "value-set propagation did not stabilize" in message
    k = next(k for k in itertools.count() if k * (k + 1) // 2 > _WEIGHT_LIMIT)
    assert calls == k + 1


@pytest.mark.parametrize("n", [300, 1000])
def test_long_string_types_out(n):
    # w's set is exactly the n + 1 suffixes of the input: `fail` adds no value
    source, params = cnf_pcfgw(n)
    program, _ = check_program(source, params)
    w0 = params.inputs["w0"].name
    env = dict(program.functions[0].body.ty.env)
    assert set(env["w"].values) == {Atom(w0[i:]) for i in range(n + 1)}
