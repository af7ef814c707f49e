import json
import random

import numpy as np
import pytest

from conftest import SUITE, load_program
from fixtures import (DN, pcfg_depth2_derivation, pcfg_fgg, pcfg_tree_graph,
                      quadratic_fgg)
from fggc.fgg import (FGG, NONTERMINAL, TERMINAL, DerivationTree, Edge, EdgeLabel,
                      FactorTable, Hypergraph, Node, Rule,
                      StructuralError, dumps, isomorphic, loads, validate,
                      yield_graph)
from fggc.translate import compile_source


def test_yield_base_case():
    g = pcfg_fgg()
    term_rule = g.rules[2]
    h = yield_graph(DerivationTree(term_rule, {}), g.labels)
    assert isomorphic(h, term_rule.rhs)


def test_yield_depth2_tree():
    # root + binary + two terminal expansions: 5 variables, 4 factors
    g = pcfg_fgg()
    h = yield_graph(pcfg_depth2_derivation(g), g.labels)
    assert len(h.nodes) == 5
    assert len(h.edges) == 4
    assert h.ext == ()
    assert isomorphic(h, pcfg_tree_graph())


def test_yield_missing_child():
    g = pcfg_fgg()
    with pytest.raises(StructuralError):
        yield_graph(DerivationTree(g.rules[0], {}), g.labels)


def test_yield_ext_arity_law():
    source, params = load_program("pcfg")
    g = compile_source(source, params).fgg
    from fggc.oracle import enumerate_derivations
    for x in ("$start", "gen"):
        for t in enumerate_derivations(g, x, 4):
            h = yield_graph(t, g.labels)
            assert len(h.ext) == g.labels[x].arity


def test_isomorphic_identity_and_renaming():
    h = pcfg_tree_graph()
    assert isomorphic(h, h)
    renamed = Hypergraph(
        [Node(f"x{i}", n.domain) for i, n in enumerate(h.nodes)],
        [Edge(e.id, e.label,
              tuple(f"x{[n.id for n in h.nodes].index(a)}" for a in e.att))
         for e in h.edges],
        ())
    assert isomorphic(h, renamed)


def test_isomorphic_respects_ext_order():
    nodes = [Node("u", "Dn"), Node("v", "Dn")]
    edges = [Edge("e", "p-term", ("u", "v"))]
    a = Hypergraph(nodes, edges, ("u", "v"))
    b = Hypergraph(nodes, edges, ("v", "u"))
    assert not isomorphic(a, b)


def test_isomorphic_detects_label_change():
    h = pcfg_tree_graph()
    other = Hypergraph(h.nodes, [Edge(e.id, e.label if e.id != "f2" else "eq-S",
                                      e.att if e.id != "f2" else e.att[:1])
                                 for e in h.edges], ())
    assert not isomorphic(h, other)


def test_validate_clean_fixtures():
    assert validate(pcfg_fgg()) == []
    assert validate(quadratic_fgg()) == []


def test_validate_arity_mismatch():
    g = pcfg_fgg()
    bad = g.rules[0]
    g.rules[0] = Rule(bad.lhs, Hypergraph(
        bad.rhs.nodes, [Edge("f0", "p-bin", ("N1",))] + list(bad.rhs.edges[1:]),
        bad.rhs.ext))
    diags = validate(g)
    assert any("attachment" in d.message for d in diags)


def test_validate_missing_factor_table():
    g = pcfg_fgg()
    del g.factors["eq-S"]
    diags = validate(g)
    assert any("factor table" in d.message for d in diags)


def test_validate_duplicate_ext():
    g = pcfg_fgg()
    r = g.rules[1]
    g.labels["X"] = EdgeLabel("X", 2, NONTERMINAL)
    g.rules[1] = Rule(r.lhs, Hypergraph(r.rhs.nodes, r.rhs.edges, ("N1", "N1")))
    diags = validate(g)
    assert any("distinct" in d.message for d in diags)


def test_validate_negative_weight():
    g = pcfg_fgg()
    g.factors["eq-S"] = FactorTable("eq-S", ("Dn",), np.array([1.0, -0.5]))
    diags = validate(g)
    assert any("negative" in d.message for d in diags)


@pytest.mark.parametrize("name", SUITE)
def test_serialization_roundtrip(name):
    source, params = load_program(name)
    g = compile_source(source, params).fgg
    g2 = loads(dumps(g))
    assert validate(g2) == []
    assert [r.lhs for r in g2.rules] == [r.lhs for r in g.rules]
    for r, r2 in zip(g.rules, g2.rules):
        assert isomorphic(r.rhs, r2.rhs)
    for name_, tab in g.factors.items():
        np.testing.assert_array_equal(tab.weights, g2.factors[name_].weights)
    assert dumps(g2) == dumps(g)


def test_arity_0_table_is_a_bare_number():
    """A table over no domain is written as a bare JSON number and read
    back from one, an integer included."""
    g = FGG(labels={"S": EdgeLabel("S", 0, NONTERMINAL), "w": EdgeLabel("w", 0, TERMINAL)},
            rules=[Rule("S", Hypergraph([], [Edge("e", "w", ())], ()))], start="S",
            domains={}, factors={"w": FactorTable("w", (), np.array(0.5))})
    obj = json.loads(dumps(g))
    assert obj["factors"]["w"]["table"] == 0.5
    obj["factors"]["w"]["table"] = 2
    g2 = loads(json.dumps(obj))
    assert validate(g2) == []
    assert g2.factors["w"].weights.shape == () and float(g2.factors["w"].weights) == 2.0


def test_serialization_deterministic():
    g1 = pcfg_fgg()
    g2 = pcfg_fgg()
    assert dumps(g1) == dumps(g2)


def _random_fgg(rng):
    """Small random single-nonterminal grammar used for validator fuzzing."""
    dom = DN
    labels = {"S": EdgeLabel("S", 1, NONTERMINAL)}
    factors = {}
    rules = []
    for ri in range(rng.randint(1, 3)):
        n_nodes = rng.randint(1, 3)
        nodes = [Node(f"n{i}", "Dn") for i in range(n_nodes)]
        edges = []
        for ei in range(rng.randint(1, 3)):
            arity = rng.randint(1, min(2, n_nodes))
            att = tuple(rng.sample([n.id for n in nodes], arity))
            if rng.random() < 0.3:
                edges.append(Edge(f"r{ri}e{ei}", "S", att[:1]))
            else:
                name = f"t{ri}x{ei}"
                labels[name] = EdgeLabel(name, arity, TERMINAL)
                shape = tuple(len(dom) for _ in range(arity))
                factors[name] = FactorTable(
                    name, tuple("Dn" for _ in range(arity)),
                    np.array([[rng.random() for _ in range(shape[-1])]
                              for _ in range(shape[0])]).reshape(shape)
                    if arity == 2 else
                    np.array([rng.random() for _ in range(len(dom))]))
            pass
        rules.append(Rule("S", Hypergraph(nodes, edges, (nodes[0].id,))))
    from fggc.fgg import FGG
    return FGG(labels=labels, rules=rules, start="S",
               domains={"Dn": dom}, factors=factors)


def test_validate_soundness_fuzz():
    # every grammar that validates cleanly must run through the solver
    # without structural errors
    from fggc.inference import solve_fixed_point
    rng = random.Random(123)
    checked = 0
    for _ in range(50):
        g = _random_fgg(rng)
        if validate(g):
            continue
        solve_fixed_point(g, max_iter=20)
        checked += 1
    assert checked >= 20


def test_hypergraph_keeps_node_and_edge_instances():
    n, e = Node("v", "B"), Edge("e0", "t", ("v",))
    h = Hypergraph([n, ("w", "B")], [e, ("e1", "t", ["w"])], ["v"])
    assert h.nodes[0] is n and h.edges[0] is e
    assert h.nodes[1] == Node("w", "B") and h.edges[1] == Edge("e1", "t", ("w",))
    assert h.ext == ("v",)
