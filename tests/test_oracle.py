import pytest

from conftest import SUITE, load_program
from fixtures import pcfg_fgg
from fggc.frontend import check_program
from fggc.oracle import (OracleError, branches, enumerate_derivations,
                         inside_reference, interpret, truncated_wX)
from fggc.params import Params
from fggc.translate import compile_source
from fggc.values import Atom, Bool, Inl, Inr, Pair, Unit


def _program(name):
    source, params = load_program(name)
    program, _ = check_program(source, params)
    return program, params


def test_interpret_constant():
    program, params = check_or_load("true", Params())
    assert interpret(program, params, 1) == {Bool(True): 1.0}


def check_or_load(source, params):
    program, _ = check_program(source, params)
    return program, params


def test_interpret_pcfg_depths():
    program, params = _program("pcfg")
    assert interpret(program, params, 2) == {Unit(): pytest.approx(0.7)}
    assert interpret(program, params, 3) == {Unit(): pytest.approx(0.847)}


@pytest.mark.parametrize("name", SUITE)
def test_interpret_monotone_in_depth(name):
    program, params = _program(name)
    prev = {}
    for d in range(1, 6):
        cur = interpret(program, params, d)
        for v, w in prev.items():
            assert cur.get(v, 0.0) >= w - 1e-15
        prev = cur


def test_branch_weights_positive():
    program, params = _program("failtest")
    for b in branches(program, params, 5):
        assert b.weight > 0.0
        assert b.depth <= 5


def test_enumerate_counts():
    source, params = load_program("pcfg")
    g = compile_source(source, params).fgg
    counts = [len(enumerate_derivations(g, "gen", h)) for h in (1, 2, 3, 4)]
    assert counts == [1, 2, 5, 26]


def test_enumerate_no_rules():
    g = pcfg_fgg()
    g.labels["Y"] = type(g.labels["X"])("Y", 1, g.labels["X"].kind)
    assert enumerate_derivations(g, "Y", 3) == []


def test_enumerate_limit():
    source, params = load_program("pcfg")
    g = compile_source(source, params).fgg
    with pytest.raises(OracleError):
        enumerate_derivations(g, "gen", 8, limit=100)


def test_truncated_below_minimum_height():
    source, params = load_program("pcfg")
    g = compile_source(source, params).fgg
    t = truncated_wX(g, g.start, 0)
    assert t.total() == 0.0


def test_truncated_pcfg_values():
    source, params = load_program("pcfg")
    g = compile_source(source, params).fgg
    assert truncated_wX(g, g.start, 1).total() == pytest.approx(0.7)
    assert truncated_wX(g, g.start, 2).total() == pytest.approx(0.847)


_SPEC_PCFG = {
    Atom("S"): {Inr(Pair(Atom("A"), Atom("B"))): 0.6, Inl(Atom("a")): 0.4},
    Atom("A"): {Inl(Atom("a")): 1.0},
    Atom("B"): {Inl(Atom("b")): 1.0},
}


def test_inside_reference_values():
    assert inside_reference(_SPEC_PCFG, "ab") == pytest.approx(0.6)
    assert inside_reference(_SPEC_PCFG, "a") == pytest.approx(0.4)
    assert inside_reference(_SPEC_PCFG, "ba") == 0.0
    assert inside_reference(_SPEC_PCFG, "") == 0.0


def test_inside_rejects_non_cnf():
    bad = {Atom("S"): {Unit(): 1.0}}
    with pytest.raises(OracleError):
        inside_reference(bad, "a")
