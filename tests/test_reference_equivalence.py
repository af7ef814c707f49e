"""The indexed `inline` pass and the prepared-rule solver against their
straightforward references (reference_impl.py): identical grammars and pass
logs, bit-identical solver states."""

import importlib
import json
import random

import numpy as np
import pytest

import reference_impl
from conftest import SUITE, load_program
from fggc.fgg import (FGG, NONTERMINAL, TERMINAL, Edge, EdgeLabel, FactorTable,
                      Hypergraph, Node, Rule, fgg_to_json)
from fggc.frontend import check_program
from fggc.inference import solve_fixed_point
from fggc.params import params_from_json
from fggc.translate import ALL_PASSES, CompilationUnit, simplify, translate
from fggc.values import Bool, Domain
from genprog import random_program

translate_module = importlib.import_module("fggc.translate")

PASS_SETS = [ALL_PASSES, ("inline",), ("prune", "inline", "compose", "contract")]
GENERATED = [(seed, nfun) for seed in range(5) for nfun in (2, 4, 8)]


def _compiled(source, params):
    program, _ = check_program(source, params)
    return translate(program, params)


def _same_grammar(cu0, passes, monkeypatch):
    got = simplify(cu0, passes)
    with monkeypatch.context() as m:
        m.setattr(translate_module, "_pass_inline", reference_impl.pass_inline)
        want = simplify(cu0, passes)
    assert json.dumps(fgg_to_json(got.fgg)) == json.dumps(fgg_to_json(want.fgg))
    assert got.pass_log == want.pass_log
    return got


def _same_solve(g, **kw):
    got = solve_fixed_point(g, **kw)
    want = reference_impl.solve_fixed_point(g, **kw)
    assert (got.status, got.iteration, got.ops) == (want.status, want.iteration, want.ops)
    assert got.delta == want.delta
    assert list(got.tau) == list(want.tau)
    for name, t in want.tau.items():
        assert got.tau[name].domains == t.domains
        assert got.tau[name].data.shape == t.data.shape
        assert got.tau[name].data.tobytes() == t.data.tobytes()


@pytest.mark.parametrize("passes", PASS_SETS, ids=lambda p: "+".join(p))
@pytest.mark.parametrize("name", SUITE)
def test_suite_programs_match_reference(name, passes, monkeypatch):
    source, params = load_program(name)
    cu = _same_grammar(_compiled(source, params), passes, monkeypatch)
    _same_solve(cu.fgg, max_iter=300)


@pytest.mark.parametrize("name", SUITE)
def test_unsimplified_solve_matches_reference(name):
    source, params = load_program(name)
    _same_solve(_compiled(source, params).fgg, max_iter=300)


@pytest.mark.parametrize("seed,nfun", GENERATED)
def test_generated_programs_match_reference(seed, nfun, monkeypatch):
    source, params = random_program(random.Random(f"equivalence-{seed}-{nfun}"), nfun)
    cu0 = _compiled(source, params_from_json(params))
    for passes in PASS_SETS:
        _same_solve(_same_grammar(cu0, passes, monkeypatch).fgg)


def test_collapse_cascade_matches_reference(monkeypatch):
    """A function whose one rule is one `if` edge, whose one rule is one
    `case` edge: collapsing the `if` leaves the function collapsible again."""
    kinds = {"$start": "start", "f": "fun", "x": "if", "y": "case"}
    labels = {name: EdgeLabel(name, 1, NONTERMINAL) for name in kinds}
    labels["t"] = EdgeLabel("t", 1, TERMINAL)

    def unit_rule(lhs, label):
        return Rule(lhs, Hypergraph([Node("v", "B")], [Edge("e0", label, ("v",))], ("v",)))

    rules = [unit_rule("$start", "f"), unit_rule("f", "x"), unit_rule("x", "y"),
             unit_rule("y", "t"), unit_rule("y", "t")]
    domain = Domain("B", [Bool(False), Bool(True)])
    g = FGG(labels=labels, rules=rules, start="$start", domains={"B": domain},
            factors={"t": FactorTable("t", ("B",), np.array([0.25, 0.75]))})
    cu = CompilationUnit(fgg=g, provenance={}, label_kinds=kinds,
                         factor_origins={"t": "builtin"})
    got = _same_grammar(cu, ("inline",), monkeypatch)
    assert got.pass_log == [("inline", 2)]
    assert [r.lhs for r in got.fgg.rules] == ["$start", "f", "f"]
