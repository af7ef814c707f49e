import importlib
import random

import pytest

import reference_impl
from conftest import SUITE, load_program
from fggc.ast import Case, Expr, If
from fggc.fgg import Rule, dumps, validate
from fggc.frontend import check_program
from fggc.inference import solve_fixed_point
from fggc.params import Params, params_from_json
from fggc.translate import ALL_PASSES, compile_source, simplify, translate
from fggc.values import Bool, Dist
from genprog import random_program


def _subexpressions(e: Expr):
    yield e
    for name in ("bound", "body", "cond", "then", "els", "scrutinee",
                 "left", "right", "value", "dist", "arg", "index"):
        child = getattr(e, name, None)
        if isinstance(child, Expr):
            yield from _subexpressions(child)
    for a in getattr(e, "args", []):
        yield from _subexpressions(a)


@pytest.mark.parametrize("name", SUITE)
def test_rule_count_law(name):
    """One rule per function body and for the main body, and one per arm of
    each `if` and `case`, whose arms replace the rule of a body that is one,
    less the rules with an all-zero table. The paper's translation has
    #subexpressions + #if + #case + #fundefs + 1."""
    source, params = load_program(name)
    program, _ = check_program(source, params)
    bodies = [f.body for f in program.functions] + [program.main]
    everything = [s for body in bodies for s in _subexpressions(body)]
    branches = sum(isinstance(s, (If, Case)) for s in everything)
    branch_bodies = sum(isinstance(body, (If, Case)) for body in bodies)
    ref = reference_impl.translate(program, params)
    assert len(ref.fgg.rules) == len(everything) + branches + len(bodies)
    reference_impl.pass_inline(ref)
    assert len(ref.fgg.rules) == len(bodies) + 2 * branches - branch_bodies
    pruned = reference_impl.pass_prune(ref)
    assert pruned == (2 if name == "pcfgw" else 1 if name == "failtest" else 0)
    assert len(translate(program, params).fgg.rules) == len(ref.fgg.rules)


@pytest.mark.parametrize("name", SUITE)
def test_unsimplified_grammar_validates(name):
    """The translator's grammar and the paper's translation validate."""
    source, params = load_program(name)
    program, _ = check_program(source, params)
    for g in (translate(program, params).fgg, reference_impl.translate(program, params).fgg):
        assert validate(g) == []


@pytest.mark.parametrize("name", SUITE)
def test_arity_law(name):
    source, params = load_program(name)
    program, _ = check_program(source, params)
    for g in (translate(program, params).fgg, reference_impl.translate(program, params).fgg):
        assert g.labels[g.start].arity == 1
        # every nonterminal's arity is |env| + 1 by construction; check via rules
        for r in g.rules:
            assert g.labels[r.lhs].arity == len(r.rhs.ext)


def test_constant_program_shape():
    # one start rule holding the constant; the paper's translation adds a
    # rule for the constant
    (rule,) = compile_source("true", Params()).fgg.rules
    assert [e.id for e in rule.rhs.edges] == ["e0.e0"]
    program, _ = check_program("true", Params())
    assert len(reference_impl.translate(program, Params()).fgg.rules) == 2


def test_copies_merge_and_zero_rules_drop():
    """A variable's copy table is made only where its two nodes cannot be
    one: both external (`fun f(x) = x`). A `let` chain merges every copy. A
    program that always fails keeps one start rule, and its weight is 0."""
    params = params_from_json({"domains": {"atoms": ["a"]}})

    def copies(g):
        return [name for name in g.labels if name.startswith("copy@")]

    assert copies(compile_source("fun f(x) = x; f(a)", params).fgg) == ["copy@1:12"]
    assert copies(compile_source("let x = a in let y = x in y", params).fgg) == []
    for source in ("fail", "if true then fail else fail"):
        g = compile_source(source, Params()).fgg
        assert [r.lhs for r in g.rules] == [g.start]
        weights = solve_fixed_point(g).tau[g.start].items()
        assert [(v.key(), w) for (v,), w in weights] == [("true", 0.0)]


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
    # as the main body, the arms are the start symbol's rules
    program, _ = check_program("if sample c[u] then A else B", params)
    g = translate(program, params).fgg
    assert [r.lhs for r in g.rules] == [g.start, g.start]
    # elsewhere, the arms are the rules of a label of the `if`'s own
    program, _ = check_program("let x = if sample c[u] then A else B in x", params)
    g = translate(program, params).fgg
    assert sorted(r.lhs for r in g.rules) == [g.start, "if@1:9", "if@1:9"]


def test_sample_rule_shape():
    """`sample c[u]` is spliced into the start rule: its density edge e0.e1
    joins the distribution node e0.%1 to the result, and the lookup feeding
    that node is spliced under e0.e0."""
    params = params_from_json({"params": {"c": {"u": {"true": 1.0}}}})
    program, _ = check_program("sample c[u]", params)
    g = translate(program, params).fgg
    (rule,) = g.rules
    assert all(g.labels[e.label].is_terminal for e in rule.rhs.edges)
    assert [e.id for e in rule.rhs.edges] == ["e0.e1", "e0.e0.e1", "e0.e0.e0.e0"]
    density = rule.rhs.edges[0]
    assert density.label.startswith("density@") and density.att == ("e0.%1",) + rule.rhs.ext


def test_observe_wires_value_to_result():
    params = params_from_json({"params": {"c": {"u": {"true": 0.5}},
                                          "d": {"u": {"true": 0.8}}}})
    program, _ = check_program("observe (sample c[u]) <- d[u]", params)
    g = translate(program, params).fgg
    (rule,) = g.rules
    result = rule.rhs.ext[-1]
    densities = {e.id: e.att for e in rule.rhs.edges if e.label.startswith("density@")}
    # the observed expression's result node is the rule's own result: both
    # the observation's density (e0.e2) and the sample's (e0.e0.e1) end there
    assert densities == {"e0.e2": ("e0.%1", result), "e0.e0.e1": ("e0.e0.%1", result)}


def test_density_table_matches_params():
    params = params_from_json({"params": {"c": {"u": {"true": 0.4, "false": 0.6}}}})
    g = compile_source("sample c[u]", params).fgg
    (name,) = [name for name in g.factors if name.startswith("density@")]
    tab = g.factors[name]
    dist_dom = g.domains[tab.domains[0]]
    val_dom = g.domains[tab.domains[1]]
    i = dist_dom.index(Dist("c[u]"))
    assert tab.weights[i, val_dom.index(Bool(True))] == pytest.approx(0.4)
    assert tab.weights[i, val_dom.index(Bool(False))] == pytest.approx(0.6)


def test_equality_builtin_is_indicator():
    params = params_from_json({"domains": {"k": ["a", "b"]},
                               "params": {"c": {"u": {"a": 0.5, "b": 0.5}}}})
    g = compile_source("let x = sample c[u] in x = b", params).fgg
    (name,) = [name for name in g.factors if name.startswith("=@")]
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
    """Compiling is deterministic, and the shim that perfbench/ calls with
    an empty pass list logs nothing (see translate.simplify)."""
    source, params = load_program("pcfg")
    a = compile_source(source, params).fgg
    cu = compile_source(source, params, ())
    assert dumps(a) == dumps(cu.fgg)
    assert cu.pass_log == []


def _start_weights(g):
    st = solve_fixed_point(g)
    assert st.status == "converged"
    return {k: w for k, w in st.tau[g.start].items()}


@pytest.mark.parametrize("name", SUITE)
@pytest.mark.parametrize("passes", [("inline",), ("compose",), ("contract",),
                                    ("prune",), ALL_PASSES])
def test_pass_safety(name, passes):
    """Whatever pass list perfbench/'s shim is given, the compiled grammar
    validates and has the start weights of the paper's translation."""
    source, params = load_program(name)
    program, _ = check_program(source, params)
    base = reference_impl.translate(program, params).fgg
    simplified = compile_source(source, params, passes).fgg
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


@pytest.mark.parametrize("name", SUITE + [f"gen-{seed}" for seed in range(5)])
def test_inline_and_compose_do_nothing(name):
    """Every pass name, `inline` and `compose` as the others, is kept only
    for perfbench/ (see translate.simplify): each fires 0 times and leaves
    the grammar as it is."""
    if name.startswith("gen-"):
        source, params = random_program(random.Random(int(name[4:])), 8)
        params = params_from_json(params)
    else:
        source, params = load_program(name)
    program, _ = check_program(source, params)
    cu = translate(program, params)
    want = simplify(cu, ())
    for p in ALL_PASSES:
        got = simplify(cu, (p,))
        assert got.pass_log == [(p, 0)]
        assert dumps(got.fgg) == dumps(want.fgg)


@pytest.mark.parametrize("name", SUITE)
def test_fired_passes_reduce_rule_count(name):
    """Where the reference passes fire on the paper's translation, the
    translator's grammar is smaller by as much: inlining and pruning leave
    it fewer rules, and contracting fewer nodes and edges."""
    source, params = load_program(name)
    program, _ = check_program(source, params)
    g = translate(program, params).fgg
    ref = reference_impl.translate(program, params)

    def size(g):
        return sum(len(r.rhs.nodes) + len(r.rhs.edges) for r in g.rules)

    n = len(ref.fgg.rules)
    assert reference_impl.pass_inline(ref) > 0
    assert len(g.rules) < n
    before = size(ref.fgg)
    if reference_impl.pass_contract(ref):
        assert size(g) < before
    n = len(ref.fgg.rules)
    if reference_impl.pass_prune(ref):
        assert len(g.rules) < n


def test_provenance_spans():
    source, params = load_program("pcfg")
    cu = compile_source(source, params)
    for label, span in cu.provenance.items():
        line, col = span.split(":")
        assert int(line) >= 1 and int(col) >= 1


def test_simplify_rebuilds_grow_linearly(monkeypatch):
    """Compiling builds each rule a bounded number of times: with four
    times the functions it builds at most about four times the rules (a
    pass that rescans the whole grammar after each change would build about
    sixteen)."""
    translate_module = importlib.import_module("fggc.translate")

    def rebuilds(nfun):
        source, params = random_program(random.Random(f"scaling-{nfun}"), nfun)
        params = params_from_json(params)
        built = []

        class CountingRule(Rule):
            def __init__(self, *args, **kw):
                built.append(1)
                super().__init__(*args, **kw)

        with monkeypatch.context() as m:
            m.setattr(translate_module, "Rule", CountingRule)
            compile_source(source, params)
        return len(built)

    small, large = rebuilds(12), rebuilds(48)
    assert small > 0
    assert large / small <= 6, (small, large)


def test_each_distinct_table_is_tabulated_once(monkeypatch):
    """A terminal table depends only on its construct and its domains, so
    translation tabulates each distinct one once, however many sites share
    it. The distinct ones are counted here from every label made, those of
    rules dropped later included: construct (the label's name before '@'),
    domains and contents."""
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
    distinct = {"_graph": set(), "_density_table": set()}
    made = []

    def recorded(label, domains, weights, _table=translate_module.FactorTable):
        kind = "_density_table" if label.startswith("density@") else "_graph"
        distinct[kind].add((label.split("@")[0], domains, weights.tobytes()))
        made.append(label)
        return _table(label, domains, weights)

    monkeypatch.setattr(translate_module, "FactorTable", recorded)
    translate(program, params)
    for name in calls:
        assert 0 < calls[name] <= len(distinct[name]), name
    assert sum(calls.values()) < len(made)  # some tables are shared


@pytest.mark.parametrize("name", SUITE)
def test_translated_tables_are_read_only(name):
    source, params = load_program(name)
    cu = compile_source(source, params)
    assert cu.fgg.factors
    for tab in cu.fgg.factors.values():
        with pytest.raises(ValueError, match="read-only"):
            tab.weights[...] = 0.0


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


def _pruned_reference(nfun):
    """A generated program, and the paper's translation of it inlined,
    contracted and pruned, with the reference's contract firings."""
    source, params = random_program(random.Random("inline-builds"), nfun)
    params = params_from_json(params)
    program, _ = check_program(source, params)
    ref = reference_impl.translate(program, params)
    reference_impl.pass_inline(ref)
    fired = reference_impl.pass_contract(ref)
    reference_impl.pass_prune(ref)
    return program, params, ref.fgg, fired


def test_translation_builds_each_rule_once(monkeypatch):
    """The translator builds one hypergraph per rule it keeps: the rules
    pruning keeps, some of which only pruned rules reach, so that the
    grammar has fewer."""
    program, params, ref, _ = _pruned_reference(24)
    built = _count_hypergraph_builds(monkeypatch)
    g = translate(program, params).fgg
    assert len(built) == len(ref.rules) > len(g.rules)


def test_contract_builds_each_changed_rule_once(monkeypatch):
    """The translator merges a variable's nodes as it builds the rule, so
    it builds one hypergraph per rule however many merges it made there: on
    this program contracting the reference's grammar fires more often than
    the translator builds rules."""
    program, params, ref, fired = _pruned_reference(48)
    built = _count_hypergraph_builds(monkeypatch)
    translate(program, params)
    assert fired > len(built) == len(ref.rules) > 0
