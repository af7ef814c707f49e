import importlib
import random

import numpy as np
import pytest

from conftest import SUITE, load_program
from fggc.ast import Case, Expr, FunDef, If, Program
from fggc.fgg import (FGG, NONTERMINAL, TERMINAL, Edge, EdgeLabel, FactorTable,
                      Hypergraph, Node, Rule, validate)
from fggc.frontend import check_program
from fggc.inference import solve_fixed_point
from fggc.params import Params, params_from_json
from fggc.translate import (ALL_PASSES, CompilationUnit, compile_source, simplify,
                            translate)
from fggc.values import Atom, Bool, Dist, Domain, Inl, Inr, Pair
from genprog import random_program


def _count_rules_law(program: Program) -> int:
    """#rules = #subexpressions + #if + #case + #fundefs + 1."""
    count = 0

    def walk(e: Expr):
        nonlocal count
        count += 2 if isinstance(e, (If, Case)) else 1
        for name in ("bound", "body", "cond", "then", "els", "scrutinee",
                     "left", "right", "value", "dist", "arg", "index"):
            child = getattr(e, name, None)
            if isinstance(child, Expr):
                walk(child)
        for a in getattr(e, "args", []):
            walk(a)

    for f in program.functions:
        walk(f.body)
    walk(program.main)
    return count + len(program.functions) + 1


@pytest.mark.parametrize("name", SUITE)
def test_rule_count_law(name):
    source, params = load_program(name)
    program, _ = check_program(source, params)
    cu = translate(program, params)
    assert len(cu.fgg.rules) == _count_rules_law(program)


@pytest.mark.parametrize("name", SUITE)
def test_unsimplified_grammar_validates(name):
    source, params = load_program(name)
    cu = compile_source(source, params, passes=())
    assert validate(cu.fgg) == []


@pytest.mark.parametrize("name", SUITE)
def test_arity_law(name):
    source, params = load_program(name)
    program, _ = check_program(source, params)
    cu = translate(program, params)
    g = cu.fgg
    assert g.labels[g.start].arity == 1
    # every nonterminal's arity is |env| + 1 by construction; check via rules
    for r in g.rules:
        assert g.labels[r.lhs].arity == len(r.rhs.ext)


def test_constant_program_shape():
    g = compile_source("true", Params(), passes=()).fgg
    # start rule plus one constant rule
    assert len(g.rules) == 2
    g = compile_source("true", Params()).fgg
    assert len(g.rules) == 1


def test_figure_style_pcfg_shape():
    # after all passes the recursive sampler compiles to three rules:
    # one start rule and two rules for the recursive function
    source, params = load_program("pcfg")
    g = compile_source(source, params).fgg
    assert len(g.rules) == 3
    lhss = sorted(r.lhs for r in g.rules)
    assert lhss[0] == "$start"
    assert lhss[1] == lhss[2]  # the two case arms of the same nonterminal
    # the recursive rule mentions its own nonterminal twice
    rec = [r for r in g.rules
           if sum(1 for e in r.rhs.edges if e.label == r.lhs) == 2]
    assert len(rec) == 1


def test_string_scorer_shape():
    # start rule plus two d-rules, with w threaded as an extra external node
    source, params = load_program("pcfgw")
    g = compile_source(source, params).fgg
    d_rules = [r for r in g.rules if r.lhs == "d"]
    assert len(d_rules) == 2
    for r in d_rules:
        assert len(r.rhs.ext) == 3  # x, w, result


def test_if_contributes_two_rules():
    params = params_from_json(
        {"params": {"c": {"u": {"true": 0.5, "false": 0.5}}},
         "domains": {"atoms": ["A", "B"]}})
    program, _ = check_program("if sample c[u] then A else B", params)
    cu = translate(program, params)
    if_rules = [r for r in cu.fgg.rules if cu.label_kinds.get(r.lhs) == "if"]
    assert len(if_rules) == 2


def test_sample_rule_shape():
    params = params_from_json({"params": {"c": {"u": {"true": 1.0}}}})
    program, _ = check_program("sample c[u]", params)
    cu = translate(program, params)
    sample_rules = [r for r in cu.fgg.rules
                    if cu.label_kinds.get(r.lhs) == "sample"]
    (rule,) = sample_rules
    nts = [e for e in rule.rhs.edges if cu.fgg.labels[e.label].is_nonterminal]
    terms = [e for e in rule.rhs.edges if cu.fgg.labels[e.label].is_terminal]
    assert len(nts) == 1 and len(terms) == 1


def test_observe_wires_value_to_result():
    params = params_from_json({"params": {"c": {"u": {"true": 0.5}},
                                          "d": {"u": {"true": 0.8}}}})
    program, _ = check_program("observe (sample c[u]) <- d[u]", params)
    cu = translate(program, params)
    (rule,) = [r for r in cu.fgg.rules if cu.label_kinds.get(r.lhs) == "observe"]
    nts = [e for e in rule.rhs.edges if cu.fgg.labels[e.label].is_nonterminal]
    terms = [e for e in rule.rhs.edges if cu.fgg.labels[e.label].is_terminal]
    assert len(nts) == 2 and len(terms) == 1
    result = rule.rhs.ext[-1]
    # the observed expression's result node is the rule's own result
    value_edge = [e for e in nts if cu.label_kinds.get(e.label) == "sample"][0]
    assert value_edge.att[-1] == result


def test_density_table_matches_params():
    params = params_from_json({"params": {"c": {"u": {"true": 0.4, "false": 0.6}}}})
    cu = compile_source("sample c[u]", params, passes=())
    g = cu.fgg
    density = [name for name, orig in cu.factor_origins.items()
               if orig == "density" and name in g.factors]
    (name,) = density
    tab = g.factors[name]
    dist_dom = g.domains[tab.domains[0]]
    val_dom = g.domains[tab.domains[1]]
    i = dist_dom.index(Dist("c[u]"))
    assert tab.weights[i, val_dom.index(Bool(True))] == pytest.approx(0.4)
    assert tab.weights[i, val_dom.index(Bool(False))] == pytest.approx(0.6)


def test_equality_builtin_is_indicator():
    params = params_from_json({"domains": {"k": ["a", "b"]},
                               "params": {"c": {"u": {"a": 0.5, "b": 0.5}}}})
    cu = compile_source("let x = sample c[u] in x = b", params, passes=("inline",))
    g = cu.fgg
    eq = [n for n, orig in cu.factor_origins.items()
          if orig == "builtin" and n in g.factors
          and len(g.factors[n].domains) == 3]
    (name,) = eq
    tab = g.factors[name]
    d1, d2, dv = (g.domains[d] for d in tab.domains)
    for i, a in enumerate(d1.values):
        for j, b in enumerate(d2.values):
            want = Bool(a == b)
            for k, v in enumerate(dv.values):
                assert tab.weights[i, j, k] == (1.0 if v == want else 0.0)


def test_recursive_call_appears_in_own_rule():
    source, params = load_program("pcfg")
    g = compile_source(source, params).fgg
    rec_rules = [r for r in g.rules if r.lhs == "gen"
                 and any(e.label == "gen" for e in r.rhs.edges)]
    assert len(rec_rules) == 1


def test_empty_pass_set_is_identity():
    source, params = load_program("pcfg")
    a = compile_source(source, params, passes=()).fgg
    b = compile_source(source, params, passes=()).fgg
    from fggc.fgg import dumps
    assert dumps(a) == dumps(b)
    cu = compile_source(source, params, passes=())
    assert cu.pass_log == []


def _start_weights(g):
    st = solve_fixed_point(g)
    assert st.status == "converged"
    return {k: w for k, w in st.tau[g.start].items()}


@pytest.mark.parametrize("name", SUITE)
@pytest.mark.parametrize("passes", [("inline",), ("compose",), ("contract",),
                                    ("prune",), ALL_PASSES])
def test_pass_safety(name, passes):
    source, params = load_program(name)
    base = compile_source(source, params, passes=()).fgg
    simplified = compile_source(source, params, passes=passes).fgg
    assert validate(simplified) == []
    # recursive programs only reach the fixed point to the solver tolerance;
    # non-recursive ones converge exactly
    tol = 1e-8 if name in ("pcfg", "mutual", "pcfgw") else 1e-12
    w0 = _start_weights(base)
    w1 = _start_weights(simplified)
    d0 = dict(w0)
    for k, w in w1.items():
        assert abs(w - d0.pop(k, 0.0)) <= tol
    for k, w in d0.items():
        assert abs(w) <= tol


@pytest.mark.parametrize("name", SUITE)
def test_fired_passes_reduce_rule_count(name):
    source, params = load_program(name)
    cu0 = compile_source(source, params, passes=())
    n = len(cu0.fgg.rules)
    for p in ALL_PASSES:
        cu = compile_source(source, params, passes=(p,))
        fired = sum(k for _, k in cu.pass_log)
        if p in ("inline", "prune") and fired:
            assert len(cu.fgg.rules) < n


def test_provenance_spans():
    source, params = load_program("pcfg")
    cu = compile_source(source, params, passes=())
    for label, span in cu.provenance.items():
        line, col = span.split(":")
        assert int(line) >= 1 and int(col) >= 1


def test_simplify_rebuilds_grow_linearly(monkeypatch):
    """simplify rebuilds each rule a bounded number of times: with four
    times the functions it builds at most about four times the rules (a
    pass that rescans the grammar per inlined label builds about sixteen)."""
    translate_module = importlib.import_module("fggc.translate")

    def rebuilds(nfun):
        source, params = random_program(random.Random(f"scaling-{nfun}"), nfun)
        params = params_from_json(params)
        program, _ = check_program(source, params)
        cu = translate(program, params)
        built = []

        class CountingRule(Rule):
            def __init__(self, *args, **kw):
                built.append(1)
                super().__init__(*args, **kw)

        with monkeypatch.context() as m:
            m.setattr(translate_module, "Rule", CountingRule)
            simplify(cu)
        return len(built)

    small, large = rebuilds(12), rebuilds(48)
    assert small > 0
    assert large / small <= 6, (small, large)


def test_each_distinct_table_is_tabulated_once(monkeypatch):
    """A terminal table depends only on its construct and its domains, so
    translation tabulates each distinct one once, however many sites share
    it. The distinct ones are counted here from the labels: construct (the
    label's name before '@'), domains and contents."""
    translate_module = importlib.import_module("fggc.translate")
    source, params = random_program(random.Random("shared-tables"), 48)
    params = params_from_json(params)
    program, _ = check_program(source, params)
    calls = {"_graph": 0, "_density_table": 0}
    for name in calls:
        def counted(*args, _f=getattr(translate_module, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(translate_module, name, counted)
    cu = translate(program, params)
    distinct = {"_graph": set(), "_density_table": set()}
    for label, tab in cu.fgg.factors.items():
        kind = "_density_table" if cu.factor_origins[label] == "density" else "_graph"
        distinct[kind].add((label.split("@")[0], tab.domains, tab.weights.tobytes()))
    for name in calls:
        assert 0 < calls[name] <= len(distinct[name]), name
    assert sum(calls.values()) < len(cu.fgg.factors)  # some tables are shared


@pytest.mark.parametrize("name", SUITE)
def test_translated_tables_are_read_only(name):
    source, params = load_program(name)
    cu = compile_source(source, params, passes=())
    assert cu.fgg.factors
    for tab in cu.fgg.factors.values():
        with pytest.raises(ValueError, match="read-only"):
            tab.weights[...] = 0.0


def _generated_unit(nfun):
    source, params = random_program(random.Random("inline-builds"), nfun)
    params = params_from_json(params)
    program, _ = check_program(source, params)
    return translate(program, params)


def _count_hypergraph_builds(monkeypatch) -> list:
    """Make the translator record each hypergraph it builds in the list returned."""
    translate_module = importlib.import_module("fggc.translate")
    built = []

    class CountingHypergraph(translate_module.Hypergraph):
        def __init__(self, *args, **kw):
            built.append(1)
            super().__init__(*args, **kw)

    monkeypatch.setattr(translate_module, "Hypergraph", CountingHypergraph)
    return built


def test_inline_builds_each_rule_once(monkeypatch):
    """The inline pass expands each kept rule once and builds one
    hypergraph per rule it changed, however many edges it inlined there,
    plus one per rule the collapse relabels: at most two per rule left,
    where building one per inlined edge would be `fired`."""
    cu = _generated_unit(24)
    built = _count_hypergraph_builds(monkeypatch)
    out = simplify(cu, ("inline",))
    ((_, fired),) = out.pass_log
    assert fired > 2 * len(out.fgg.rules)
    assert 0 < len(built) <= 2 * len(out.fgg.rules)


@pytest.mark.parametrize("name", ["compose", "contract"])
def test_compose_and_contract_build_each_changed_rule_once(monkeypatch, name):
    """compose and contract edit a rule's edges in place and build one
    hypergraph per rule they changed, however often they fired there. On
    this inlined program both fire more often than they change rules."""
    cu = simplify(_generated_unit(48), ("inline",))
    before = [r.rhs for r in cu.fgg.rules]
    built = _count_hypergraph_builds(monkeypatch)
    fired = getattr(importlib.import_module("fggc.translate"), f"_pass_{name}")(cu)
    changed = sum(r.rhs is not rhs for r, rhs in zip(cu.fgg.rules, before))
    assert fired > changed > 0
    assert len(built) == changed


def test_inline_refuses_a_cycle_of_single_rule_labels():
    """`a` and `b` each have one rule and use each other: splicing either
    into `$start` never ends, so inline names the cycle instead. The
    translator makes no such grammar."""
    kinds = {"$start": "start", "a": "let", "b": "let"}
    labels = {name: EdgeLabel(name, 1, NONTERMINAL) for name in kinds}
    labels["t"] = EdgeLabel("t", 1, TERMINAL)

    def rule(lhs, *uses):
        return Rule(lhs, Hypergraph([Node("v", "B")],
                                    [Edge(f"e{i}", l, ("v",)) for i, l in enumerate(uses)],
                                    ("v",)))

    g = FGG(labels=labels, rules=[rule("$start", "a"), rule("a", "b", "t"), rule("b", "a")],
            start="$start", domains={"B": Domain("B", [Bool(False), Bool(True)])},
            factors={"t": FactorTable("t", ("B",), np.array([0.5, 0.5]))})
    cu = CompilationUnit(fgg=g, provenance={}, label_kinds=kinds,
                         factor_origins={"t": "builtin"})
    with pytest.raises(ValueError, match="cycle a -> b -> a"):
        simplify(cu, ("inline",))
