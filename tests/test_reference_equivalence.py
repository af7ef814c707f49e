"""The translator, the prepared-rule solver, the compiled einsum
contraction, the one-traversal domain assignment and the parser over tag
arrays against their straightforward references (reference_impl.py): the
paper's translation inlined, contracted and pruned, with the same start
weights before the passes; solver states that agree with whole-grammar
Kleene iteration; rule contributions equal to 1e-12 relative; identical
domain annotations and errors; identical ASTs, positions included, and
identical syntax errors. On grammars without recursion, the
dependency-ordered solve gives the reference's limit bit for bit."""

import dataclasses
import functools
import importlib
import json
import math
import random
import sys

import numpy as np
import pytest

import reference_impl
from conftest import (FAIL_PARAMS, FAIL_POSITIONS, PROGRAMS_DIR, SUITE, cnf_pcfgw,
                      load_program)
from fggc.ast import BuiltinApp, Expr, Var
from fggc.fgg import FGG, Rule, fgg_to_json, rules_by_lhs, validate
from fggc.frontend import DomainError, assign_domains, check_program, scope_check
from fggc.inference import dependency_components, rule_contribution, solve_fixed_point
from fggc.params import params_from_json
from fggc.parser import ParseError, parse, parse_value
from fggc.translate import (ALL_PASSES, CompilationUnit, _Translator, compile_source,
                            simplify, translate)
from fggc.values import ValueSyntaxError
from genprog import random_program

frontend_module = importlib.import_module("fggc.frontend")

# pass lists for the shim that perfbench/ calls (see translate.simplify);
# each leaves the grammar as it is
PASS_SETS = [ALL_PASSES, ("inline",), ("prune", "inline", "compose", "contract")]
GENERATED = [(seed, nfun) for seed in range(5) for nfun in (2, 4, 8)]


def _compiled(source, params):
    program, _ = check_program(source, params)
    return translate(program, params)


def _program(name):
    """A suite program by name, or a `genprog` one named gen-SEED-NFUN."""
    if not name.startswith("gen-"):
        return load_program(name)
    _, seed, nfun = name.split("-")
    source, params = random_program(random.Random(f"equivalence-{seed}-{nfun}"), int(nfun))
    return source, params_from_json(params)


def _reference(source, params):
    program, _ = check_program(source, params)
    return reference_impl.compile_program(program, params)


def _rules(g):
    """Each nonterminal's rules, in order, as comparable tuples."""
    return {lhs: [(r.rhs.nodes, r.rhs.edges, r.rhs.ext) for r in rules]
            for lhs, rules in rules_by_lhs(g.rules).items()}


def _same_grammar(cu, ref):
    """The translator's unit `cu` holds the grammar of the reference
    pipeline's `ref` (reference_impl.compile_program) up to the renaming of
    terminal labels that the rules' edges induce: the same nonterminals in
    the same order, start symbol, domains and provenance, and each
    nonterminal's rules in the same order, node for node and edge for edge,
    where every reference terminal label maps to one translator label of the
    same construct, domains and table. The reference gives each occurrence
    a label of its own; the translator gives each distinct table one label,
    so no two of its terminal labels share (construct, domains). Only where
    a nonterminal's rules sit among the others' may differ (the reference's
    inlining appends a collapsed function's rules last)."""
    g, want = cu.fgg, ref.fgg

    def labels(f, terminal):
        return [(k, v) for k, v in f.labels.items() if v.is_terminal == terminal]

    assert labels(g, False) == labels(want, False)
    assert g.start == want.start
    assert {n: d.values for n, d in g.domains.items()} == {
        n: d.values for n, d in want.domains.items()}
    got_rules, want_rules = _rules(g), _rules(want)
    assert got_rules.keys() == want_rules.keys()
    rename = {}  # reference terminal label -> translator label
    for lhs, rules in want_rules.items():
        assert len(got_rules[lhs]) == len(rules)
        for (nodes, edges, ext), (g_nodes, g_edges, g_ext) in zip(rules, got_rules[lhs]):
            assert (g_nodes, g_ext) == (nodes, ext)
            assert [(e.id, e.att) for e in g_edges] == [(e.id, e.att) for e in edges]
            for e, mine in zip(edges, g_edges):
                if want.labels[e.label].is_terminal:
                    assert rename.setdefault(e.label, mine.label) == mine.label
                else:
                    assert mine.label == e.label
    assert rename.keys() == dict(labels(want, True)).keys() == want.factors.keys()
    assert set(rename.values()) == dict(labels(g, True)).keys() == g.factors.keys()
    for label, mine in rename.items():
        assert mine.split("@")[0] == label.split("@")[0]
        assert g.labels[mine].arity == want.labels[label].arity
        assert g.factors[mine].domains == want.factors[label].domains
        assert g.factors[mine].weights.tobytes() == want.factors[label].weights.tobytes()
    tables = [(k.split("@")[0], t.domains, t.weights.tobytes()) for k, t in g.factors.items()]
    assert len(set(tables)) == len(tables)
    assert cu.provenance == ref.provenance


def _same_solve(g, tol=1e-10, **kw):
    """The dependency-ordered solve against whole-grammar Jacobi iteration:
    the same outcome in no more sweeps or work, and the same tensors to
    `tol`."""
    got = solve_fixed_point(g, tol=tol, **kw)
    want = reference_impl.solve_fixed_point(g, tol=tol, **kw)
    assert got.status == want.status
    assert got.iteration <= want.iteration
    assert got.ops <= want.ops
    assert list(got.tau) == list(want.tau)
    for name, t in want.tau.items():
        assert got.tau[name].domains == t.domains
        np.testing.assert_allclose(got.tau[name].data, t.data, rtol=0, atol=tol)


GENERATED_NAMES = [f"gen-{seed}-{nfun}" for seed, nfun in GENERATED]
NON_RECURSIVE = ([name for name in SUITE if name not in ("mutual", "pcfg", "pcfgw")]
                 + GENERATED_NAMES)


@pytest.mark.parametrize("name", NON_RECURSIVE)
def test_non_recursive_solve_is_the_reference_limit(name):
    """One pass in dependency order gives, bit for bit, the tensors that
    Jacobi iteration reaches when its last sweep changes nothing, on the
    translator's grammar and on the paper's translation."""
    source, params = _program(name)
    program, _ = check_program(source, params)
    checked = 0
    for g in [_compiled(source, params).fgg, reference_impl.translate(program, params).fgg]:
        components = dependency_components(rules_by_lhs(g.rules), g.nonterminals())
        assert not any(recursive for _, recursive in components)
        got = solve_fixed_point(g)
        assert (got.status, got.iteration, got.delta) == ("converged", 1, 0.0)
        want = reference_impl.solve_fixed_point(g)
        assert got.ops * want.iteration == want.ops  # each rule applied once
        if want.delta != 0.0:
            continue
        checked += 1
        assert list(got.tau) == list(want.tau)
        for label, t in want.tau.items():
            assert got.tau[label].domains == t.domains
            assert got.tau[label].data.tobytes() == t.data.tobytes()
    assert checked


def _start_weights(g):
    """The start tensor, solved tightly enough that a recursive grammar's
    iterates agree to 1e-12 relative however the translation shaped it."""
    state = solve_fixed_point(g, tol=1e-15)
    assert state.status == "converged"
    return state.tau[g.start].data


@pytest.mark.parametrize("name", SUITE + GENERATED_NAMES)
def test_translation_is_the_inlined_reference_translation(name):
    """The translator builds the grammar of the paper's translation inlined,
    with its copies contracted and its rules with an all-zero table pruned
    (see _same_grammar). The paper's translation gives the same start
    weights."""
    source, params = _program(name)
    got = _compiled(source, params)
    _same_grammar(got, _reference(source, params))
    program, _ = check_program(source, params)
    want = _start_weights(reference_impl.translate(program, params).fgg)
    np.testing.assert_allclose(_start_weights(got.fgg), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", SUITE + GENERATED_NAMES)
def test_random_pass_orders_match_reference(name):
    """The shim that perfbench/ calls: seeded random lists of 0 to 6 pass
    names, repeats allowed, leave the translator's grammar as it is, which
    is the reference pipeline's, and log each name as firing 0 times."""
    source, params = _program(name)
    cu0 = _compiled(source, params)
    want = json.dumps(fgg_to_json(cu0.fgg))
    rng = random.Random(f"pass-orders-{name}")
    for _ in range(6):
        passes = tuple(rng.choice(ALL_PASSES) for _ in range(rng.randint(0, 6)))
        got = simplify(cu0, passes)
        assert json.dumps(fgg_to_json(got.fgg)) == want
        assert got.pass_log == [(p, 0) for p in passes]
    _same_grammar(cu0, _reference(source, params))


@pytest.mark.parametrize("passes", PASS_SETS, ids=lambda p: "+".join(p))
@pytest.mark.parametrize("name", SUITE)
def test_suite_programs_match_reference(name, passes):
    source, params = load_program(name)
    cu = simplify(_compiled(source, params), passes)
    _same_grammar(cu, _reference(source, params))
    _same_solve(cu.fgg, max_iter=300)


@pytest.mark.parametrize("name", SUITE)
def test_unsimplified_solve_matches_reference(name):
    """The solvers agree on the paper's translation, before any pass."""
    source, params = load_program(name)
    program, _ = check_program(source, params)
    _same_solve(reference_impl.translate(program, params).fgg, max_iter=300)


@pytest.mark.parametrize("seed,nfun", GENERATED)
def test_generated_programs_match_reference(seed, nfun):
    source, params = random_program(random.Random(f"equivalence-{seed}-{nfun}"), nfun)
    params = params_from_json(params)
    cu = _compiled(source, params)
    _same_grammar(cu, _reference(source, params))
    _same_solve(cu.fgg)


def _same_contributions(g):
    """Every rule's contribution, by the compiled contraction and by the
    hand-written elimination, under the iterates after 1, 3 and 10 steps."""
    for iterations in (1, 3, 10):
        tau = reference_impl.solve_fixed_point(g, max_iter=iterations, tol=0.0).tau
        for rule in g.rules:
            got = rule_contribution(g, rule, tau)
            want = reference_impl.rule_contribution(g, rule, tau)
            assert got.domains == want.domains
            np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", SUITE)
def test_suite_contributions_match_reference(name):
    source, params = load_program(name)
    _same_contributions(compile_source(source, params).fgg)
    _same_contributions(_compiled(source, params).fgg)


@pytest.mark.parametrize("seed,nfun", GENERATED)
def test_generated_contributions_match_reference(seed, nfun):
    source, params = random_program(random.Random(f"equivalence-{seed}-{nfun}"), nfun)
    _same_contributions(compile_source(source, params_from_json(params)).fgg)


@pytest.mark.parametrize("n", [8, 16, 24])
def test_string_scoring_contributions_match_reference(n):
    source, _ = load_program("pcfgw")
    params = json.loads((PROGRAMS_DIR / "pcfgw.params.json").read_text())
    params["inputs"]["w0"] = ("ab" * n)[:n]
    _same_contributions(compile_source(source, params_from_json(params)).fgg)


def _nodes(e):
    """Every expression node below `e`, in a fixed order."""
    yield e
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, Expr):
                yield from _nodes(child)


def _annotations(program):
    out = []
    for body in [f.body for f in program.functions] + [program.main]:
        for e in _nodes(body):
            domains = [(x, d.name, d.values) for x, d in e.ty.env]
            domains.append(("", e.ty.result.name, e.ty.result.values))
            out.append((type(e).__name__, e.pos, e.resolution if isinstance(e, Var) else None,
                        domains))
    return out


def _same_domains(source, params):
    programs = [parse(source) for _ in range(2)]
    assert not scope_check(programs[0], frozenset(params.global_names()))
    got = assign_domains(programs[0], params)
    want = reference_impl.assign_domains(programs[1], params)
    assert {n: d.values for n, d in got.items()} == {n: d.values for n, d in want.items()}
    assert _annotations(programs[0]) == _annotations(programs[1])


@pytest.mark.parametrize("name", SUITE)
def test_suite_domains_match_reference(name):
    _same_domains(*load_program(name))


@pytest.mark.parametrize("source", FAIL_POSITIONS.values(), ids=FAIL_POSITIONS.keys())
def test_fail_positions_match_reference(source):
    """`fail` in each position: the same domains, grammar and solve as the
    reference's empty value set and zero-table terminal."""
    params = params_from_json(FAIL_PARAMS)
    _same_domains(source, params)
    cu = _compiled(source, params)
    _same_grammar(cu, _reference(source, params))
    _same_solve(cu.fgg)


@pytest.mark.parametrize("seed,nfun", GENERATED)
def test_generated_domains_match_reference(seed, nfun):
    source, params = random_program(random.Random(f"equivalence-{seed}-{nfun}"), nfun)
    _same_domains(source, params_from_json(params))


# Programs whose parameter sets grow after the callee's first evaluation, so
# that a caller read a result that grew later.
LATE_GROWTH = [
    # g is shared: f1's argument reaches it first, then f2 adds a constant
    # and its own parameter
    """fun g(x) = inl(x);
fun f1(x) = let u = g(x) in (x, u);
fun f2(y) = let v = g(b) in let w = g(y) in (v, w);
let a1 = f1(a) in let a2 = f2(c) in (a1, a2)""",
    # the argument of h's second call is the result of its first
    """fun g(x) = case x of inl(y) => inr(y) | inr(z) => inl(z);
fun h(x) = let u = g(x) in g(u);
h(inl(a))""",
    # a function nothing calls adds an argument to one that main calls
    """fun g(x) = (x, b);
fun unused(y) = g(c);
g(a)""",
    # a recursive function and main share a non-recursive callee
    """fun k(x) = inl(x);
fun r(x) = if x = c then k(b) else let u = k(c) in r(c);
let v = k(a) in r(v)""",
    # two mutually recursive functions, each growing the other's parameter
    # set: f gives g b and its own a, then g gives f c, which f gives g
    """fun f(x) = if x = a then g(b) else g(x);
fun g(y) = if y = c then y else f(c);
f(a)""",
]


@pytest.mark.parametrize("source", LATE_GROWTH)
def test_late_parameter_growth_matches_reference(source):
    _same_domains(source, params_from_json({"domains": {"atoms": ["a", "b", "c"]}}))


@pytest.mark.parametrize("n", [8, 23, 64])
def test_chart_size_domains_match_reference(n):
    _same_domains(*cnf_pcfgw(n))


def _builtin_calls(monkeypatch, source, params):
    """apply_builtin calls of the library and of the reference on `source`,
    and the size of every built-in's final argument product, summed."""
    calls = {}

    def counted(name, apply):
        def count(op, args):
            calls[name] = calls.get(name, 0) + 1
            return apply(op, args)
        return count

    monkeypatch.setattr(frontend_module, "apply_builtin",
                        counted("library", frontend_module.apply_builtin))
    monkeypatch.setattr(reference_impl, "apply_builtin",
                        counted("reference", reference_impl.apply_builtin))
    program = parse(source)
    assign_domains(program, params)
    reference_impl.assign_domains(parse(source), params)
    once = sum(math.prod(len(a.ty.result.values) for a in e.args)
               for body in [f.body for f in program.functions] + [program.main]
               for e in _nodes(body) if isinstance(e, BuiltinApp))
    return calls["library"], calls["reference"], once


def test_non_recursive_program_applies_each_builtin_once_per_final_tuple(monkeypatch):
    """On a generated program, whose call graph is a tree, each built-in
    runs once per tuple of its final argument values. The reference,
    whole-program passes and then a typing walk, applies built-ins five
    times as often on this program."""
    source, params = random_program(random.Random("once"), 30)
    library, reference, once = _builtin_calls(monkeypatch, source, params_from_json(params))
    assert library == once
    assert reference > 4 * once


def test_recursive_body_applies_each_builtin_once_per_final_tuple(monkeypatch):
    """pcfgw's body is evaluated about twice per input symbol, each time on
    the values its inputs gained: over all evaluations a built-in still runs
    once per tuple of its final argument values, where the reference runs
    it on every tuple in every pass."""
    library, reference, once = _builtin_calls(monkeypatch, *cnf_pcfgw(64))
    assert library == once
    assert reference > 50 * once


ATOMS_A_B = {"domains": {"k": ["a", "b"]}}


@pytest.mark.parametrize("source,params", [
    ("if a then a else b", ATOMS_A_B),
    ("sample a", ATOMS_A_B),
    ("observe a <- a", ATOMS_A_B),
    ("case a of inl(x) => x | inr(y) => y", ATOMS_A_B),
    ("fun f(w) = if sample c[u] then w else f(cons(a, w)); f(nil)",
     {"params": {"c": {"u": {"true": 0.5, "false": 0.5}}}, "domains": {"atoms": ["a"]}}),
    # no recursion, but g's results flow back into g: a, aa, aaa, ...
    ("fun g(x) = cons(a, x); fun h(x) = let u = g(x) in g(u); h(nil)", ATOMS_A_B),
])
def test_domain_errors_match_reference(source, params):
    params = params_from_json(params)
    messages = []
    for assign in (assign_domains, reference_impl.assign_domains):
        with pytest.raises(DomainError) as err:
            assign(parse(source), params)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# Rules that weigh 0 and the nonterminals only they derive: a chain of calls
# that ends in `fail`, and cycles with and without a way out.
DEAD_CHAIN = "".join(f"fun f{i}(x) = f{i + 1}(x);\n" for i in range(3000)) + \
    "fun f3000(x) = fail;\nf0(a)"
DEAD_RULES = {
    "chain": DEAD_CHAIN,
    "self-loop": "fun f(x) = f(x); f(a)",
    "mutual-productive": "fun f(x) = if sample c[u] then g(x) else x; fun g(x) = f(x); f(a)",
    "mutual-unproductive":
        "fun f(x) = if sample c[u] then g(x) else f(x); fun g(x) = f(x); g(a)",
    # the start symbol keeps its last rule with no all-zero table, the first
    "start-restore": "fun f(x) = f(x); if sample c[u] then f(a) else fail",
}
DEAD_PARAMS = {"params": {"c": {"u": {"true": 0.5, "false": 0.5}}},
               "domains": {"atoms": ["a"]}}


def _dead_rule_input(name):
    if name in DEAD_RULES:
        return DEAD_RULES[name], params_from_json(DEAD_PARAMS)
    if name in FAIL_POSITIONS:
        return FAIL_POSITIONS[name], params_from_json(FAIL_PARAMS)
    return _program(name)


@pytest.mark.parametrize("name", list(DEAD_RULES) + list(FAIL_POSITIONS)
                         + SUITE + GENERATED_NAMES)
def test_dead_rule_pass_matches_reference(name):
    """The translator's one-worklist pass keeps the grammar that
    reference_impl's pass_prune and sweep-until-stable _gc keep of every
    rule it built: the same rules in the same order, labels, tables,
    domains and provenance."""
    source, params = _dead_rule_input(name)
    program, _ = check_program(source, params)
    t = _Translator(program, params)
    cu = t.translate_program()
    every = FGG(labels=dict(t.labels), rules=[Rule(lhs, rhs.graph()) for lhs, rhs in t.rules],
                start=cu.fgg.start, domains=dict(t.domains), factors=dict(t.factors))
    ref = CompilationUnit(fgg=every, provenance=dict(t.provenance))
    reference_impl.pass_prune(ref)
    reference_impl._gc(ref)
    assert json.dumps(fgg_to_json(cu.fgg)) == json.dumps(fgg_to_json(ref.fgg))
    assert cu.provenance == ref.provenance


@pytest.mark.parametrize("name", [name for name in DEAD_RULES if name != "chain"])
def test_dead_rule_programs_match_reference(name):
    source, params = _dead_rule_input(name)
    cu = _compiled(source, params)
    _same_grammar(cu, _reference(source, params))
    _same_solve(cu.fgg)


@pytest.mark.parametrize("name", ["chain", "self-loop", "mutual-unproductive",
                                  "start-restore"])
def test_weightless_program_keeps_one_start_rule(name):
    """When no derivation of the start symbol has weight, whether a call
    chain ends in `fail` or a cycle never leaves, only the start symbol's
    rule is left: weight 0, and a grammar that validates."""
    g = _compiled(*_dead_rule_input(name)).fgg
    assert [r.lhs for r in g.rules] == [g.start]
    assert validate(g) == []
    assert not solve_fixed_point(g).tau[g.start].data.any()


def test_cycle_with_a_way_out_keeps_its_rules():
    g = _compiled(*_dead_rule_input("mutual-productive")).fgg
    assert sorted(r.lhs for r in g.rules) == ["$start", "f", "f", "g"]
    np.testing.assert_allclose(solve_fixed_point(g, tol=1e-14).tau[g.start].data, [1.0])


# ---------------------------------------------------------------------------
# The parser over tag arrays against the parser over Token objects


@functools.cache
def _workloads():
    """perfbench/workloads.py, which generates the benchmark's queries."""
    sys.path.append(str(PROGRAMS_DIR.parents[1] / "perfbench"))
    return importlib.import_module("workloads")


# every cky, programs and recursion query of seeds 1 to 3, one name per
# workload and seed
WORKLOAD_SEEDS = [f"{w}-{seed}" for w in ("cky", "programs", "recursion") for seed in (1, 2, 3)]


@functools.cache
def _inputs(name):
    """(source, params) pairs: a suite or `genprog` program, or every
    query of a workload-seed name."""
    workload, _, seed = name.rpartition("-")
    if workload not in ("cky", "programs", "recursion"):
        return [_program(name)]
    return [(q.source, params_from_json(q.params))
            for q in _workloads().queries(workload, int(seed))]


def _syntax(node):
    """`node` as nested tuples of the class and every field, `pos` included."""
    if isinstance(node, list):
        return [_syntax(x) for x in node]
    if dataclasses.is_dataclass(node):
        return (type(node).__name__, *((k, _syntax(v)) for k, v in vars(node).items()))
    return node


def _outcome(read, text):
    """What `read(text)` gives: the syntax tree or value, or the error."""
    try:
        result = read(text)
    except ParseError as e:
        return "ParseError", e.message, e.pos
    except ValueSyntaxError as e:
        return "ValueSyntaxError", str(e)
    return _syntax(result)


@pytest.mark.parametrize("name", SUITE + GENERATED_NAMES + WORKLOAD_SEEDS)
def test_parse_matches_reference(name):
    for source in {source: None for source, _ in _inputs(name)}:
        got = _outcome(parse, source)
        assert got[0] == "Program"
        assert got == _outcome(reference_impl.reference_parse, source)


@pytest.mark.parametrize("name", SUITE + GENERATED_NAMES + WORKLOAD_SEEDS)
def test_parse_value_matches_reference(name):
    """Every value in the program's domains, read back from its key(); and
    a seeded sample of those keys with one token deleted, duplicated or
    swapped with the next."""
    keys = {v.key(): v for source, params in _inputs(name)
            for d in check_program(source, params)[1].values() for v in d.values}
    for key, v in keys.items():
        assert parse_value(key) == reference_impl.reference_parse_value(key) == v
    rng = random.Random(f"value-mutants-{name}")
    for key in rng.sample(sorted(keys), min(len(keys), 100)):
        for kind in ("delete", "duplicate", "swap"):
            text = _mutate(rng, key, kind)
            assert _outcome(parse_value, text) == \
                _outcome(reference_impl.reference_parse_value, text), text


@pytest.mark.parametrize("text", [
    "", " ", ",", ")", "()", "(a", "(a,", "(a b)", "(a, b, c)", "((a), (b, c))",
    "atom", "atom in", "atom atom", "atom (", "atom x", "atom true x", "(atom of, inl atom inr)",
    "dist", "dist p", "dist p [", "dist p [a]", "dist p [a", "dist [a]", "dist in [a]",
    "dist dist [dist]", "dist p [dist q [inl nil]]", "inl", "inl inr a", "inr (a, unit)",
    "fun", "=>", "a\nb", "a\r\n", "\ta", "\ufeffa", "a²", "²a", "_x'", "'a", "a#b"])
def test_parse_value_literals_match_reference(text):
    assert _outcome(parse_value, text) == _outcome(reference_impl.reference_parse_value, text)


def _spans(source):
    """The (offset, length) of each token of `source`."""
    starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    return [(starts[t.pos[0] - 1] + t.pos[1] - 1, len(t.text))
            for t in reference_impl.tokenize(source)[:-1]]


def _mutate(rng, source, kind):
    """`source` with one seeded token-level change of the given kind."""
    spans = _spans(source)
    k = rng.randrange(len(spans))
    at, n = spans[k]
    if kind == "delete":
        return source[:at] + source[at + n:]
    if kind == "duplicate":
        return source[:at + n] + " " + source[at:]
    if kind == "swap":
        if k + 1 == len(spans):
            return source
        at2, n2 = spans[k + 1]
        return source[:at] + source[at2:at2 + n2] + source[at + n:at2] + source[at:at + n] \
            + source[at2 + n2:]
    if kind == "insert":
        at = rng.choice([0, rng.randrange(len(source) + 1)])
        return source[:at] + rng.choice(["$", "\u00b2", "\f", "\ufeff"]) + source[at:]
    if kind == "comment":  # a comment with no newline after it ends the source
        return source[:rng.choice([at, len(source.rstrip())])] + "# trailing"
    if kind == "crlf-tabs":
        spaced = source.replace("\n", "\r\n")
        spaced = "".join("\t" if c == " " and rng.random() < 0.5 else c for c in spaced)
        return _mutate(rng, spaced, rng.choice(["delete", "duplicate", "swap", "insert"]))
    raise ValueError(kind)


MUTATIONS = ["delete", "duplicate", "swap", "insert", "comment", "crlf-tabs"]


@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("name", SUITE)
def test_parse_errors_match_reference(name, kind):
    """Seeded token-level mutations of a suite program parse to the same
    tree or fail with the same message at the same position."""
    source, _ = load_program(name)
    rng = random.Random(f"parse-mutants-{name}-{kind}")
    for _ in range(25):
        text = _mutate(rng, source, kind)
        assert _outcome(parse, text) == _outcome(reference_impl.reference_parse, text), text
