import itertools
import json
import random

import numpy as np
import pytest

import reference_impl
from reference_impl import assignment_weight
from conftest import PROGRAMS_DIR, SUITE, cnf_pcfgw, load_program
from fixtures import pcfg_fgg, pcfg_tree_graph, quadratic_fgg
from genprog import random_program
from fggc import inference
from fggc.fgg import (FGG, NONTERMINAL, TERMINAL, Edge, EdgeLabel, FactorTable,
                      Hypergraph, Node, Rule, dumps, loads, rules_by_lhs)
from fggc.inference import (CONVERGED, DIVERGENT, MAX_ITER, InferenceError,
                            OpCounter, WeightTensor, align,
                            dependency_components, external_marginal,
                            plan_elimination, plan_order, query_start,
                            rule_contribution, solve_fixed_point)
from fggc.oracle import enumerate_derivations, inside_reference, truncated_wX
from fggc.params import params_from_json
from fggc.translate import compile_source
from fggc.values import Atom, Domain


def test_assignment_weight_empty_graph():
    h = Hypergraph([Node("n", "Dn")], [], ())
    g = pcfg_fgg()
    assert assignment_weight(h, g.domains, g.factors, {"n": Atom("S")}) == 1.0


def test_assignment_weight_tree():
    g = pcfg_fgg()
    h = pcfg_tree_graph()
    asg = {"N1": Atom("S"), "N2": Atom("T"), "N3": Atom("T"),
           "W4": Atom("a"), "W5": Atom("b")}
    # 1 (root is S) * 0.3 (S -> T T) * 0.6 (T -> a) * 0.4 (T -> b)
    assert assignment_weight(h, g.domains, g.factors, asg) == pytest.approx(
        0.3 * 0.6 * 0.4)
    asg["N1"] = Atom("T")  # violates the root indicator
    assert assignment_weight(h, g.domains, g.factors, asg) == 0.0


def test_assignment_weight_outside_domain():
    g = pcfg_fgg()
    h = pcfg_tree_graph()
    asg = {"N1": Atom("zzz"), "N2": Atom("T"), "N3": Atom("T"),
           "W4": Atom("a"), "W5": Atom("b")}
    with pytest.raises(InferenceError):
        assignment_weight(h, g.domains, g.factors, asg)


def _brute_marginal(h, domains, factors):
    node_doms = [(n.id, domains[n.domain]) for n in h.nodes]
    out = {}
    for combo in itertools.product(*(d.values for _, d in node_doms)):
        asg = {nid: v for (nid, _), v in zip(node_doms, combo)}
        w = assignment_weight(h, domains, factors, asg)
        key = tuple(asg[x] for x in h.ext)
        out[key] = out.get(key, 0.0) + w
    return out


def test_external_marginal_against_brute_force():
    g = pcfg_fgg()
    h = pcfg_tree_graph()
    for ext in [(), ("N1",), ("N2", "W4"), ("W5", "N1")]:
        he = Hypergraph(h.nodes, h.edges, ext)
        t = external_marginal(he, g.domains, g.factors)
        brute = _brute_marginal(he, g.domains, g.factors)
        for key, w in t.items():
            assert w == pytest.approx(brute[key], abs=1e-12)


def test_external_marginal_all_nodes_external():
    g = pcfg_fgg()
    h = pcfg_tree_graph()
    ext = tuple(n.id for n in h.nodes)
    he = Hypergraph(h.nodes, h.edges, ext)
    t = external_marginal(he, g.domains, g.factors)
    for key, w in t.items():
        asg = dict(zip(ext, key))
        assert w == pytest.approx(
            assignment_weight(he, g.domains, g.factors, asg), abs=1e-15)


def test_marginalization_consistency():
    g = pcfg_fgg()
    h = pcfg_tree_graph()
    wide = external_marginal(Hypergraph(h.nodes, h.edges, ("N1", "N2")),
                             g.domains, g.factors)
    narrow = external_marginal(Hypergraph(h.nodes, h.edges, ("N1",)),
                               g.domains, g.factors)
    np.testing.assert_allclose(wide.data.sum(axis=1), narrow.data, atol=1e-12)


def test_order_independence():
    g = pcfg_fgg()
    h = pcfg_tree_graph()
    he = Hypergraph(h.nodes, h.edges, ("N1",))
    internal = [n.id for n in h.nodes if n.id != "N1"]
    rng = random.Random(5)
    base = external_marginal(he, g.domains, g.factors)
    for _ in range(10):
        order = internal[:]
        rng.shuffle(order)
        t = external_marginal(he, g.domains, g.factors, order=order)
        np.testing.assert_allclose(t.data, base.data, atol=1e-12)


def test_unconstrained_node_multiplicity():
    d = Domain("D3", (Atom("a"), Atom("b"), Atom("c")))
    h = Hypergraph([Node("n", "D3")], [], ())
    t = external_marginal(h, {"D3": d}, {})
    assert float(t.data) == 3.0


def test_unconstrained_node_scales_the_other_factors():
    d = Domain("D3", (Atom("a"), Atom("b"), Atom("c")))
    h = Hypergraph([Node("n", "D3"), Node("m", "D3"), Node("x", "D3")],
                   [Edge("e", "t", ("m",))], ("x", "m"))
    factors = {"t": FactorTable("t", ("D3",), np.array([1.0, 2.0, 3.0]))}
    t = external_marginal(h, {"D3": d}, factors)
    # n is summed out unconstrained (x3); x is external but unattached
    np.testing.assert_array_equal(t.data, np.full((3, 1), 3.0) * [1.0, 2.0, 3.0])


@pytest.mark.parametrize("name", SUITE)
def test_chunked_contraction_matches_one_call(name, monkeypatch):
    """Operand groups split into einsum calls of two operands each give the
    same iterates as groups contracted in one call."""
    source, params = load_program(name)
    g = compile_source(source, params, ()).fgg
    whole = solve_fixed_point(g, max_iter=10, tol=0.0)
    monkeypatch.setattr(inference, "_MAX_OPERANDS", 2)
    chunked = solve_fixed_point(g, max_iter=10, tol=0.0)
    for label, t in whole.tau.items():
        np.testing.assert_allclose(chunked.tau[label].data, t.data, rtol=1e-12, atol=0)


@pytest.mark.parametrize("a,b,out", [
    ([0, 1], [1, 2], [0, 2]),              # a matrix product
    ([0, 1, 2], [0, 2, 3], [0, 1, 3]),     # label 0 is a batch label
    ([0, 1, 2], [3, 0, 2], [3, 1, 0]),     # the output order needs a transpose
    ([1, 2, 0], [0, 2], [1]),              # two summed labels, no columns
    ([0], [0], []),                        # a dot product
])
def test_matmul_plan_matches_einsum(a, b, out):
    sizes = [3, 4, 5, 2]
    rng = np.random.default_rng(7)
    x = rng.random([sizes[m] for m in a])
    y = rng.random([sizes[m] for m in b])
    plan = inference.matmul_plan(a, b, out, sizes, inference._split(a, b, out))
    np.testing.assert_allclose(plan(x, y), np.einsum(x, a, y, b, out), rtol=1e-12, atol=0)


@pytest.mark.parametrize("a,b,out", [
    ([0, 0], [0, 1], [1]),       # a repeated label: a diagonal
    ([0, 1], [1, 2], [0, 1, 2]), # no summed label: an outer product
    ([0, 1], [1, 2], [2]),       # label 0 is summed by one operand only
])
def test_matmul_plan_leaves_other_steps_to_einsum(a, b, out):
    assert inference._split(a, b, out) is None


def test_lowered_steps_of_string_scoring_match_einsum(monkeypatch):
    """Every step the size rule lowers, on a length-64 string, gives what
    np.einsum gives on the same operands, whether it runs while its rule is
    built, in `apply`, or in the ordered solve on each level's part of the
    batch (a plan with a batch size of -1)."""
    source, params = cnf_pcfgw(64)
    g = compile_source(source, params).fgg
    tau = solve_fixed_point(g).tau
    lowered = {}
    index = None  # of the rule being built and applied
    batched = []
    real_plan = inference.matmul_plan

    def checked(la, lb, out, sizes, *args):
        plan = real_plan(la, lb, out, sizes, *args)
        batched.append(-1 in sizes)

        def run(x, y):
            got = plan(x, y)
            np.testing.assert_allclose(got, np.einsum(x, la, y, lb, out), rtol=1e-12, atol=0)
            lowered[index] += 1
            return got
        return run

    monkeypatch.setattr(inference, "matmul_plan", checked)
    for index, rule in enumerate(g.rules):
        lowered[index] = 0
        inference._Contraction(rule.rhs, g.domains, g.factors, tau, {rule.lhs}).apply(tau)
    # the rule for `inr(yz) => ...`, which calls d twice
    (binary,) = [i for i, r in enumerate(g.rules)
                 if r.lhs == "d" and sum(e.label == "d" for e in r.rhs.edges) == 2]
    assert lowered[binary] >= 1 and not any(batched)
    index = "ordered"
    lowered[index] = 0
    st = solve_fixed_point(g)
    (d,) = [c for c in st.components if "d" in c.members]
    assert d.method == inference.ORDERED and d.iterations == 64
    assert any(batched) and lowered[index] >= d.iterations


def test_lowered_steps_of_binary_rule_copy_no_operand(monkeypatch):
    """In the sweeps of a length-64 string, each matrix product of the rule
    that calls d twice reads its operands where they are: np.matmul gets
    views of them, each with a unit-stride matrix axis, as BLAS reads it."""
    source, params = cnf_pcfgw(64)
    g = compile_source(source, params).fgg
    tau = solve_fixed_point(g).tau
    (rule,) = [r for r in g.rules if r.lhs == "d" and sum(e.label == "d" for e in r.rhs.edges) == 2]
    calls = []
    real_matmul, real_plan = np.matmul, inference.matmul_plan
    monkeypatch.setattr(np, "matmul", lambda x, y: calls.append((x, y)) or real_matmul(x, y))
    checked = []
    sweeping = False

    def checking(*args):
        plan = real_plan(*args)

        def run(x, y):
            calls.clear()
            z = plan(x, y)
            if sweeping:
                ((vx, vy),) = calls
                for view, operand in ((vx, x), (vy, y)):
                    assert np.shares_memory(view, operand)
                    assert view.itemsize in view.strides[-2:]
                checked.append(1)
            return z
        return run

    monkeypatch.setattr(inference, "matmul_plan", checking)
    c = inference._Contraction(rule.rhs, g.domains, g.factors, tau, {"d"})
    want = rule_contribution(g, rule, tau)
    sweeping = True
    np.testing.assert_allclose(c.apply(tau).data, want.data, rtol=1e-12, atol=0)
    assert len(checked) == sum(plan is not None for _, _, plan, _ in c.steps) >= 3


def _sweeps_only(monkeypatch):
    """Solve every recursive component by Kleene sweeps, as one that no
    ranking orders is."""
    monkeypatch.setattr(inference, "_rankings", lambda *args: iter(()))


def test_alignment_is_built_once_per_solve(monkeypatch):
    """Each edge's alignment onto its nodes (the index and mask of a
    nonterminal edge's tensor, and a terminal table's, once per terminal
    label and node domains) is built when its rule is compiled, never per
    sweep (string scoring solved by sweeps)."""
    source, params = cnf_pcfgw(23)
    g = compile_source(source, params).fgg
    _sweeps_only(monkeypatch)
    built = []
    real = inference.alignment
    monkeypatch.setattr(inference, "alignment", lambda *args: built.append(1) or real(*args))
    nonterminal = [e for r in g.rules for e in r.rhs.edges if g.labels[e.label].is_nonterminal]
    terminal = set()
    for r in g.rules:
        nodes = {n.id: n.domain for n in r.rhs.nodes}
        terminal |= {(e.label, tuple(nodes[a] for a in e.att))
                     for e in r.rhs.edges if g.labels[e.label].is_terminal}
    edges = len(nonterminal) + len(terminal)
    assert nonterminal and len(terminal) < sum(len(r.rhs.edges) for r in g.rules) - len(nonterminal)
    iterations = set()
    for max_iter in (2, 10000):
        built.clear()
        iterations.add(solve_fixed_point(g, max_iter=max_iter).iteration)
        assert len(built) == edges
    assert len(iterations) == 2


@pytest.mark.parametrize("name", ["gen-16", "pcfgw", "cnf-23"])
def test_grammar_read_from_json_aligns_as_compiled(name, monkeypatch):
    """The solver shares a terminal table's alignment by label, so a
    grammar written to JSON and read back, one array per label, aligns as
    often as the compiled one and gives the same tensors bit for bit."""
    if name.startswith("gen-"):
        source, params = random_program(random.Random("json-align"), int(name[4:]))
        params = params_from_json(params)
    else:
        source, params = cnf_pcfgw(int(name[4:])) if name.startswith("cnf-") else load_program(name)
    g = compile_source(source, params).fgg
    calls = []
    real = inference.align
    monkeypatch.setattr(inference, "align", lambda *args: calls.append(1) or real(*args))
    states = []
    for grammar in (g, loads(dumps(g))):
        calls.clear()
        states.append((solve_fixed_point(grammar), len(calls)))
    (want, want_calls), (got, got_calls) = states
    assert got_calls == want_calls > 0
    assert (got.status, got.iteration, got.delta, got.ops) == (
        want.status, want.iteration, want.delta, want.ops)
    assert list(got.tau) == list(want.tau)
    for label, t in want.tau.items():
        assert got.tau[label].data.tobytes() == t.data.tobytes()


def test_repeated_attachment_diagonal():
    d = Domain("D2", (Atom("a"), Atom("b")))
    tab = np.array([[1.0, 2.0], [3.0, 4.0]])
    h = Hypergraph([Node("n", "D2")], [Edge("e", "t", ("n", "n"))], ())
    factors = {"t": FactorTable("t", ("D2", "D2"), tab)}
    t = external_marginal(h, {"D2": d}, factors)
    assert float(t.data) == pytest.approx(1.0 + 4.0)


def test_align_widening_and_narrowing():
    d_small = Domain("Ds", (Atom("a"),))
    d_big = Domain("Db", (Atom("a"), Atom("b")))
    arr = np.array([5.0])
    wide = align(arr, (d_small,), (d_big,))
    np.testing.assert_array_equal(wide, [5.0, 0.0])
    narrow = align(np.array([1.0, 2.0]), (d_big,), (d_small,))
    np.testing.assert_array_equal(narrow, [1.0])


def test_plan_chain_cost_linear():
    d = Domain("D", (Atom("a"), Atom("b")))
    n = 8
    node_domains = {f"n{i}": d for i in range(n)}
    scopes = [(f"n{i}", f"n{i+1}") for i in range(n - 1)]
    plan = plan_order(node_domains, scopes, ext=set())
    assert plan.cost <= (n - 1) * len(d) ** 2 + len(d)


def test_plan_clique_cost():
    d = Domain("D", (Atom("a"), Atom("b"), Atom("c")))
    node_domains = {x: d for x in "abc"}
    scopes = [("a", "b"), ("b", "c"), ("a", "c")]
    plan = plan_order(node_domains, scopes, ext=set())
    assert plan.cost >= len(d) ** 3


@pytest.mark.parametrize("seed", range(40))
def test_plan_order_matches_reference_on_random_graphs(seed):
    """The bit-mask planner gives the order and cost of the set-based one,
    ties between equal fills included."""
    rng = random.Random(f"plan-{seed}")
    domains = [Domain(f"D{k}", tuple(Atom(f"v{i}") for i in range(k))) for k in range(1, 5)]
    names = [f"n{i}" for i in range(rng.randint(1, 16))]
    node_domains = {n: rng.choice(domains) for n in names}
    scopes = [tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
              for _ in range(rng.randint(0, 2 * len(names)))]
    ext = set(rng.sample(names, rng.randint(0, min(3, len(names)))))
    assert plan_order(node_domains, scopes, ext) == reference_impl.plan_order(node_domains, scopes, ext)


@pytest.mark.parametrize("name", SUITE + ["cnf-64"])
def test_plan_order_matches_reference_on_rules(name):
    source, params = cnf_pcfgw(64) if name == "cnf-64" else load_program(name)
    g = compile_source(source, params).fgg
    for rule in g.rules:
        node_domains = {n.id: g.domains[n.domain] for n in rule.rhs.nodes}
        scopes = [e.att for e in rule.rhs.edges]
        ext = set(rule.rhs.ext)
        assert plan_order(node_domains, scopes, ext) == reference_impl.plan_order(node_domains, scopes, ext)


def test_rule_contribution_no_nonterminals():
    g = pcfg_fgg()
    term_rule = g.rules[2]
    c = rule_contribution(g, term_rule, {})
    m = external_marginal(term_rule.rhs, g.domains, g.factors)
    np.testing.assert_allclose(c.data, m.data)


def test_rule_contribution_quadratic_branch():
    # branch rule with tau[S] = 0.7: contribution 0.3 * 0.7 * 0.7
    g = quadratic_fgg()
    tau = {"S": WeightTensor((), np.array(0.7))}
    branch_rule = g.rules[1]
    c = rule_contribution(g, branch_rule, tau)
    assert float(c.data) == pytest.approx(0.147, abs=1e-15)


def test_rule_contribution_rank_mismatch():
    g = pcfg_fgg()
    tau = {"X": WeightTensor((), np.array(1.0))}
    with pytest.raises(InferenceError):
        rule_contribution(g, g.rules[1], tau)


def test_fixed_point_quadratic_least_root():
    st = solve_fixed_point(quadratic_fgg(0.7, 0.3), tol=1e-10)
    assert st.status == "converged"
    assert abs(float(st.tau["S"].data) - 1.0) < 1e-6
    # the contraction factor at the root is 0.6, so 40 iterations already
    # put the estimate within 1e-6
    st40 = solve_fixed_point(quadratic_fgg(0.7, 0.3), max_iter=40, tol=0.0)
    assert abs(float(st40.tau["S"].data) - 1.0) < 1e-6


def test_fixed_point_variant_root():
    st = solve_fixed_point(quadratic_fgg(0.2, 0.8))
    assert abs(float(st.tau["S"].data) - 0.25) < 1e-6


def test_first_iterate_is_leaf_weight():
    st = solve_fixed_point(quadratic_fgg(0.7, 0.3), max_iter=1)
    assert float(st.tau["S"].data) == pytest.approx(0.7)
    assert st.status != "converged"


def test_monotone_iterates():
    g = quadratic_fgg(0.7, 0.3)
    prev = None
    for it in range(1, 30):
        st = solve_fixed_point(g, max_iter=it, tol=0.0)
        cur = float(st.tau["S"].data)
        if prev is not None:
            assert cur >= prev - 1e-15
        prev = cur


def test_divergence_detected():
    st = solve_fixed_point(quadratic_fgg(0.2, 1.8))
    assert st.status == DIVERGENT
    with pytest.raises(InferenceError):
        query_start(quadratic_fgg(0.2, 1.8))


def test_acyclic_grammar_exact_after_depth_iterations():
    g = pcfg_fgg()
    # this grammar is recursive, so compare truncations instead: tau after n
    # whole-grammar Jacobi sweeps (the reference solver, which applies the
    # library's rule_contribution) equals the sum over derivation trees of
    # height <= n
    for n in range(1, 5):
        st = reference_impl.solve_fixed_point(g, max_iter=n, tol=0.0)
        brute = truncated_wX(g, "S'", n - 1)
        np.testing.assert_allclose(st.tau["S'"].data, brute.data, atol=1e-12)


@pytest.mark.parametrize("name", SUITE)
def test_truncation_equivalence(name):
    source, params = load_program(name)
    g = compile_source(source, params).fgg
    for n in range(1, 5):
        st = reference_impl.solve_fixed_point(g, max_iter=n, tol=0.0)
        brute = truncated_wX(g, g.start, n - 1)
        np.testing.assert_allclose(st.tau[g.start].data, brute.data, atol=1e-12)


def test_normalization_proper_pcfg():
    source, params = load_program("pcfg")
    g = compile_source(source, params).fgg
    t = query_start(g)
    assert t.total() == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Solving one dependency component at a time


def _scalar_fgg(rules, start, weight=0.5) -> FGG:
    """A grammar of arity-0 nonterminals: `rules` lists (lhs, callees) pairs;
    each rule is a scalar factor `weight` times its callees' weights."""
    labels = {"w": EdgeLabel("w", 0, TERMINAL)}
    grammar = []
    for lhs, callees in rules:
        for x in (lhs, *callees):
            labels.setdefault(x, EdgeLabel(x, 0, NONTERMINAL))
        edges = [Edge("f", "w", ())] + [Edge(f"e{i}", x, ()) for i, x in enumerate(callees)]
        grammar.append(Rule(lhs, Hypergraph([], edges, ())))
    return FGG(labels=labels, rules=grammar, start=start, domains={},
               factors={"w": FactorTable("w", (), np.array(weight))})


def _components(g):
    return dependency_components(rules_by_lhs(g.rules), g.nonterminals())


def test_long_chain_one_pass():
    """5000 nonterminals in a chain: no recursion limit, one exact pass."""
    n = 5000
    rules = [(f"X{i}", [f"X{i + 1}"]) for i in range(n - 1)] + [(f"X{n - 1}", [])]
    g = _scalar_fgg(rules, "X0", weight=1.0)
    comps = _components(g)
    assert comps[0] == ([f"X{n - 1}"], False) and comps[-1] == (["X0"], False)
    st = solve_fixed_point(g)
    assert (st.status, st.iteration, st.delta) == (CONVERGED, 1, 0.0)
    assert float(st.tau["X0"].data) == 1.0
    assert st.ops == n


def test_mutual_recursion_is_one_component():
    g = _scalar_fgg([("S", ["A"]), ("A", ["B"]), ("B", ["A", "A"]), ("B", []),
                    ("A", ["L"]), ("L", [])], "S")
    assert _components(g) == [(["L"], False), (["A", "B"], True), (["S"], False)]
    assert _components(_scalar_fgg([("S", ["S", "S"]), ("S", [])], "S")) == [(["S"], True)]
    source, params = load_program("mutual")
    g = compile_source(source, params).fgg
    recursive = [members for members, rec in _components(g) if rec]
    assert len(recursive) == 1 and {"even", "odd"} <= set(recursive[0])


@pytest.mark.parametrize("seed", range(20))
def test_components_against_reachability(seed):
    """Components are the classes of mutual reachability, callees first."""
    rng = random.Random(seed)
    names = [f"N{i}" for i in range(12)]
    rules = [(x, rng.sample(names, rng.randrange(3))) for x in names for _ in range(2)]
    g = _scalar_fgg(rules, "N0")
    reach = {x: {y for lhs, callees in rules if lhs == x for y in callees} for x in names}
    for _ in names:  # transitive closure
        reach = {x: ys.union(*(reach[y] for y in ys)) for x, ys in reach.items()}
    comps = _components(g)
    assert sorted(m for members, _ in comps for m in members) == sorted(names)
    where = {m: i for i, (members, _) in enumerate(comps) for m in members}
    for x in names:
        assert [m for m in g.nonterminals() if where[m] == where[x]] == comps[where[x]][0]
        for y in names:
            same = x == y or (y in reach[x] and x in reach[y])
            assert (where[x] == where[y]) == same
            if y in reach[x] and not same:
                assert where[y] < where[x]  # callee first
        assert comps[where[x]][1] == (x in reach[x])


def _mixed_fgg():
    """Non-recursive S and T over a recursive pair A, B and a recursive C
    that calls A."""
    return _scalar_fgg([("S", ["T", "C"]), ("S", ["A"]), ("T", ["A", "B"]), ("T", []),
                       ("A", ["B", "B"]), ("A", []), ("B", ["A"]), ("B", []),
                       ("C", ["C", "A"]), ("C", [])], "S", weight=0.3)


def test_mixed_components_agree_with_whole_grammar_iteration():
    """Suite programs are compared in test_reference_equivalence."""
    g = _mixed_fgg()
    tol = 1e-10
    got = solve_fixed_point(g, tol=tol)
    want = reference_impl.solve_fixed_point(g, tol=tol)
    assert got.status == want.status == CONVERGED
    assert got.iteration <= want.iteration
    assert got.ops < want.ops
    for label, t in want.tau.items():
        np.testing.assert_allclose(got.tau[label].data, t.data, rtol=0, atol=tol)


@pytest.mark.parametrize("name", ["pcfg", "mutual", "mixed", "cnf-8", "cnf-23", "cnf-64"])
def test_frozen_steps_change_nothing_but_ops(name, monkeypatch):
    """Running each rule's known steps once, when its component's rules are
    built, leaves a Kleene solve as it is bit for bit; each such step runs
    once instead of once per sweep (string scoring solved by sweeps)."""
    if name == "mixed":
        g = _mixed_fgg()
    else:
        source, params = cnf_pcfgw(int(name[4:])) if name.startswith("cnf-") else load_program(name)
        g = compile_source(source, params).fgg
    if name.startswith("cnf-"):
        _sweeps_only(monkeypatch)
    folded, applies = {}, {}
    real = inference._Contraction

    class Counted(real):
        def __init__(self, *args, counter, **kwargs):
            before = counter.ops
            super().__init__(*args, counter=counter, **kwargs)
            folded[self] = counter.ops - before

        def apply(self, tau):
            applies[self] = applies.get(self, 0) + 1
            return super().apply(tau)

    class Unfolded:
        """A rule built anew, every tensor known, each time it is applied,
        so that every step runs in every sweep."""

        def __init__(self, graph, domains, factors, tau, live, counter, **kwargs):
            self.args = graph, domains, factors
            self.counter = counter

        def apply(self, tau):
            return real(*self.args, tau, (), counter=self.counter).result

    monkeypatch.setattr(inference, "_Contraction", Counted)
    got = solve_fixed_point(g)
    monkeypatch.setattr(inference, "_Contraction", Unfolded)
    want = solve_fixed_point(g)
    assert (got.status, got.iteration, got.delta) == (want.status, want.iteration, want.delta)
    assert list(got.tau) == list(want.tau)
    for label, t in want.tau.items():
        assert got.tau[label].data.tobytes() == t.data.tobytes()
    swept = [c for c in applies if applies[c] > 1]
    assert any(folded[c] for c in swept)
    assert got.ops == want.ops - sum(ops * (applies[c] - 1) for c, ops in folded.items())
    if name != "mixed":  # one recursive component: its sweeps are the solve's
        assert got.ops == want.ops - (got.iteration - 1) * sum(folded[c] for c in swept)


def test_rule_without_member_edge_runs_once(monkeypatch):
    """A recursive component's rule that uses none of its members runs its
    steps once, when it is built, and none in any sweep."""
    runs = []
    real_run = inference._Contraction._run
    monkeypatch.setattr(inference._Contraction, "_run",
                        staticmethod(lambda step, vals: runs.append(1) or real_run(step, vals)))
    built, applied = {}, {}
    real = inference._Contraction

    class Counted(real):
        def __init__(self, *args, **kwargs):
            before = len(runs)
            super().__init__(*args, **kwargs)
            built[self] = len(runs) - before

        def apply(self, tau):
            before = len(runs)
            result = super().apply(tau)
            applied.setdefault(self, []).append(len(runs) - before)
            return result

    monkeypatch.setattr(inference, "_Contraction", Counted)
    st = solve_fixed_point(_mixed_fgg())
    assert st.iteration > 2
    constant = [c for c in built if not c.tau_slots and len(applied[c]) > 1]
    assert len(constant) == 3  # the rules A -> w, B -> w and C -> w
    for c in constant:
        assert built[c] >= 1 and not c.steps and set(applied[c]) == {0}


def test_contraction_without_live_label_is_finished_when_built(monkeypatch):
    """With no live label, every step runs when the rule is built: no step
    is kept, and `apply` returns the finished tensor without running one."""
    source, params = cnf_pcfgw(8)
    g = compile_source(source, params).fgg
    tau = solve_fixed_point(g).tau
    (rule,) = [r for r in g.rules if r.lhs == "d" and sum(e.label == "d" for e in r.rhs.edges) == 2]
    folded = OpCounter()
    swept = inference._Contraction(rule.rhs, g.domains, g.factors, tau, {"d"}, counter=folded)
    built = folded.ops
    want = swept.apply(tau).data.tobytes()
    assert folded.ops == built + swept.ops  # `apply` counts in the counter it was built with
    counter = OpCounter()
    c = inference._Contraction(rule.rhs, g.domains, g.factors, tau, (), counter=counter)
    assert swept.steps and not c.steps and not c.tau_slots and c.ops == 0
    assert counter.ops == built + swept.ops
    monkeypatch.setattr(inference._Contraction, "_run",
                        staticmethod(lambda *args: pytest.fail("a step ran in apply")))
    assert c.apply(tau) is c.result
    assert counter.ops == built + swept.ops
    assert c.result.data.tobytes() == want


def test_nonterminal_without_rules_stays_zero():
    g = _scalar_fgg([("S", ["A"]), ("S", [])], "S")
    st = solve_fixed_point(g)
    assert float(st.tau["A"].data) == 0.0
    assert float(st.tau["S"].data) == 0.5
    assert (st.status, st.iteration, st.delta) == (CONVERGED, 1, 0.0)


def test_max_iter_in_inner_component_fills_start():
    source, params = load_program("pcfg")
    g = compile_source(source, params).fgg
    st = solve_fixed_point(g, max_iter=3)
    assert st.status == MAX_ITER and st.iteration == 3
    (inner,) = [m for m, rec in _components(g) if rec]
    assert g.start not in inner
    start = st.tau[g.start].total()
    assert 0.0 < start < 1.0
    # the start weight is the last iterate of the inner component, passed up
    whole = reference_impl.solve_fixed_point(g, max_iter=4, tol=0.0)
    assert start == pytest.approx(whole.tau[g.start].total(), rel=1e-12)


def test_divergence_in_inner_component_stops_the_solve():
    source, _ = load_program("pcfg")
    g = compile_source(source, params_from_json(
        {"params": {"p": {"S": {"inl a": 0.2, "inr (S,S)": 1.8}}}})).fgg
    st = solve_fixed_point(g)
    assert st.status == DIVERGENT
    assert st.tau[g.start].total() == 0.0  # its component was never reached


# ---------------------------------------------------------------------------
# String scoring: the component of `d` is solved in size order (ROADMAP item
# "Chart-order evaluation"), exactly, with delta 0, where Kleene sweeps under
# the absolute stopping rule stopped early on queries of small total weight.


def _ab_pcfgw(n):
    """pcfgw.ppl under its own parameters, scoring abab... of length n."""
    source, _ = load_program("pcfgw")
    obj = json.loads((PROGRAMS_DIR / "pcfgw.params.json").read_text())
    obj["inputs"]["w0"] = ("ab" * n)[:n]
    return source, params_from_json(obj)


@pytest.mark.parametrize("grammar,n", [
    *[pytest.param(_ab_pcfgw, n, id=str(n)) for n in (24, 32, 48, 64)],
    *[pytest.param(cnf_pcfgw, n, id=f"cnf-{n}") for n in range(1, 9)],
    *[pytest.param(cnf_pcfgw, n, id=f"cnf-{n}") for n in (11, 16, 32, 64, 96, 128)],
])
def test_string_scoring_matches_cky_at_default_settings(grammar, n):
    source, params = grammar(n)
    w = params.inputs["w0"].name
    assert len(w) == n
    g = compile_source(source, params).fgg
    st = solve_fixed_point(g)
    want = inside_reference(params.params["p"], w, "S")
    assert st.status == CONVERGED
    assert abs(st.tau[g.start].total() - want) <= 1e-9 * want
    (d,) = [c for c in st.components if "d" in c.members]
    if n > 1:  # one symbol gives one level, which orders nothing
        assert (d.method, d.status, d.delta, d.iterations) == ("ordered", CONVERGED, 0.0, n)


@pytest.mark.parametrize("name", ["pcfg", "mutual", "mixed"])
def test_unranked_components_are_swept_without_verification(name, monkeypatch):
    """A component whose candidate levels fail the checks that need no
    solver work (one level only, or none) is solved by Kleene sweeps, with
    no verifying contraction built."""
    if name == "mixed":
        g = _mixed_fgg()
    else:
        source, params = load_program(name)
        g = compile_source(source, params).fgg
    monkeypatch.setattr(inference, "_verified", lambda *args: pytest.fail("verified"))
    st = solve_fixed_point(g)
    recursive = [members for members, rec in _components(g) if rec]
    assert [c.members for c in st.components if c.method == inference.KLEENE] == recursive
    assert {c.method for c in st.components} == {inference.ONE_PASS, inference.KLEENE}


UNARY_PCFGW = """\
fun d(x, w) =
  case sample p[x] of
    inl(a) => if w != nil and car(w) = a then cdr(w) else fail
  | inr(r) => case r of inl(y) => d(y, w)
            | inr(yz) => let w2 = d(fst(yz), w) in d(snd(yz), w2);
if d(S, w0) = nil then unit else fail
"""


def test_same_span_unary_arm_fails_verification_and_is_swept(monkeypatch):
    """A unary arm reads d over the span it defines, an entry of its own
    level, so the ranking fails the check that every entry read is lower:
    the component stays on Kleene sweeps, as the reference solves it."""
    params = params_from_json({"params": {"p": {
        "S": {"inl a": 0.3, "inr (inl T)": 0.2, "inr (inr (S,T))": 0.5},
        "T": {"inl b": 0.6, "inr (inl S)": 0.1, "inr (inr (T,S))": 0.3}}},
        "inputs": {"w0": "abab"}})
    g = compile_source(UNARY_PCFGW, params).fgg
    verdicts = []
    real = inference._verified
    monkeypatch.setattr(inference, "_verified",
                        lambda *args: verdicts.append(real(*args)) or verdicts[-1])
    tol = 1e-12
    got = solve_fixed_point(g, tol=tol)
    assert verdicts and not any(verdicts)
    (d,) = [c for c in got.components if "d" in c.members]
    assert (d.method, d.status) == (inference.KLEENE, CONVERGED) and d.iterations > 4
    want = reference_impl.solve_fixed_point(g, tol=tol)
    assert want.status == CONVERGED
    for label, t in want.tau.items():
        np.testing.assert_allclose(got.tau[label].data, t.data, rtol=0, atol=tol)
    assert got.tau[g.start].total() > 0
    # the failed verification's ops are not the component's: it counts the
    # sweeps alone, as when no ranking is tried
    monkeypatch.setattr(inference, "_rankings", lambda *args: iter(()))
    swept = solve_fixed_point(g, tol=tol)
    assert [(c.method, c.iterations, c.delta, c.ops) for c in got.components] == \
        [(c.method, c.iterations, c.delta, c.ops) for c in swept.components]
    for label, t in swept.tau.items():
        assert got.tau[label].data.tobytes() == t.data.tobytes()


FIXED_ARG_PCFGW = """\
fun d(x, w) =
  case sample p[x] of
    inl(a) => if w != nil and car(w) = a then cdr(w) else fail
  | inr(yz) => let w2 = d(fst(yz), FIRST) in d(snd(yz), w2);
if d(S, w0) = nil then unit else fail
"""


@pytest.mark.parametrize("first,method", [("nil", inference.ORDERED), ("w0", inference.KLEENE)])
def test_recursive_arm_that_ignores_the_ranked_argument(first, method):
    """A binary arm that reads d at a fixed string leaves the rule's `w`, a
    level-carrying external node, attached to no edge. The verifying
    contraction holds it as a vector of ones: at `nil` every such read is
    below level 1, so the ranking holds; at `w0` a read can be of the
    entry's own level, so it fails and the component is swept. Either way
    the tensors are the reference's."""
    params = params_from_json({"params": {"p": {"S": {"inl a": 0.6, "inr (S,S)": 0.4}}},
                               "inputs": {"w0": "aaa"}})
    g = compile_source(FIXED_ARG_PCFGW.replace("FIRST", first), params).fgg
    tol = 1e-12
    got = solve_fixed_point(g, tol=tol)
    (d,) = [c for c in got.components if "d" in c.members]
    assert (d.method, d.status) == (method, CONVERGED)
    want = reference_impl.solve_fixed_point(g, tol=tol)
    assert want.status == CONVERGED
    for label, t in want.tau.items():
        np.testing.assert_allclose(got.tau[label].data, t.data, rtol=0, atol=tol)
    assert (got.tau[g.start].total() > 0) == (first == "w0")


@pytest.mark.parametrize("first", [None, "nil"])
def test_span_split_is_verified_by_its_form(first, monkeypatch):
    """CKY's binary rule, d(x, w, v) from d(y, w, w2) and d(z, w2, v), is
    ordered by its form alone: the two reads' levels sum to the rule's, so
    `_verified` builds no support contraction. A read at a fixed string
    (d(y, nil, w2)) breaks the sum, and the contraction decides."""
    built = []
    monkeypatch.setattr(inference, "Hypergraph", lambda *args: built.append(args) or Hypergraph(*args))
    if first is None:
        source, params = cnf_pcfgw(16)
    else:
        source = FIXED_ARG_PCFGW.replace("FIRST", first)
        params = params_from_json({"params": {"p": {"S": {"inl a": 0.6, "inr (S,S)": 0.4}}},
                                   "inputs": {"w0": "aaa"}})
    st = solve_fixed_point(compile_source(source, params).fgg)
    (d,) = [c for c in st.components if "d" in c.members]
    assert d.method == inference.ORDERED
    assert bool(built) == (first is not None)


def test_ordered_solve_ops_grow_at_most_cubically():
    """Doubling the string multiplies the solve's ops by at most 9 (the
    cubic inside algorithm's 8, and a margin), where sweeps also grow in
    number."""
    ops = []
    for n in (48, 96):
        source, params = cnf_pcfgw(n)
        ops.append(solve_fixed_point(compile_source(source, params).fgg).ops)
    assert ops[1] <= 9 * ops[0]


# Known defect (the ROADMAP item "Make `converged` true"): Kleene iteration
# needs about 1/eps sweeps on a critical grammar.
@pytest.mark.xfail(strict=True, reason="Kleene iteration is too slow at Z = 1 "
                                         "(ROADMAP, \"Make `converged` true\")")
def test_critical_pcfg_converges_at_default_settings():
    source, _ = load_program("pcfg")
    g = compile_source(source, params_from_json(
        {"params": {"p": {"S": {"inl a": 0.5, "inr (S,S)": 0.5}}}})).fgg
    st = solve_fixed_point(g)
    assert st.status == CONVERGED
    assert abs(st.tau[g.start].total() - 1.0) <= 1e-9
