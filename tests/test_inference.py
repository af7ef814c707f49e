import itertools
import random

import numpy as np
import pytest

from conftest import SUITE, load_program
from fixtures import pcfg_fgg, pcfg_tree_graph, quadratic_fgg
from fggc import inference
from fggc.fgg import Edge, FactorTable, Hypergraph, Node
from fggc.inference import (DIVERGENT, InferenceError, OpCounter,
                            WeightTensor, align, assignment_weight,
                            external_marginal, plan_elimination,
                            plan_order, query_start, rule_contribution,
                            solve_fixed_point)
from fggc.oracle import enumerate_derivations, truncated_wX
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
    # iterations equals the sum over derivation trees of height <= n
    for n in range(1, 5):
        st = solve_fixed_point(g, max_iter=n, tol=0.0)
        brute = truncated_wX(g, "S'", n - 1)
        np.testing.assert_allclose(st.tau["S'"].data, brute.data, atol=1e-12)


@pytest.mark.parametrize("name", SUITE)
def test_truncation_equivalence(name):
    source, params = load_program(name)
    g = compile_source(source, params).fgg
    for n in range(1, 5):
        st = solve_fixed_point(g, max_iter=n, tol=0.0)
        brute = truncated_wX(g, g.start, n - 1)
        np.testing.assert_allclose(st.tau[g.start].data, brute.data, atol=1e-12)


def test_normalization_proper_pcfg():
    source, params = load_program("pcfg")
    g = compile_source(source, params).fgg
    t = query_start(g)
    assert t.total() == pytest.approx(1.0, abs=1e-6)
