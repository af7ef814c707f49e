"""Reference implementations kept for equivalence tests.

These are the straightforward forms of two hot paths: the `inline` pass
that rescans the whole grammar from its first label after every inlined
label, and the Jacobi solver that scans all rules for every nonterminal
and rebuilds every rule's factors on every iteration. The library's
indexed versions must produce identical grammars and bit-identical solver
states (see test_reference_equivalence.py).
"""

from __future__ import annotations

import numpy as np

from fggc.fgg import FGG, Edge, Hypergraph, Node, Rule
from fggc.inference import (CONVERGED, DIVERGENT, MAX_ITER, OpCounter,
                            SolverState, WeightTensor, plan_elimination,
                            rule_contribution)
from fggc.translate import PROTECTED_KINDS, CompilationUnit, _inline_edge


def pass_inline(cu: CompilationUnit) -> int:
    """Inline single-rule nonterminals other than if/case/function lhs, and
    collapse function/start rules whose whole rhs is one if/case edge."""
    g = cu.fgg
    fired = 0
    while True:
        by_lhs: dict[str, list[Rule]] = {}
        for r in g.rules:
            by_lhs.setdefault(r.lhs, []).append(r)
        candidate = None
        for name, lab in g.labels.items():
            if (lab.is_nonterminal and cu.label_kinds.get(name) not in PROTECTED_KINDS
                    and len(by_lhs.get(name, [])) == 1):
                sub = by_lhs[name][0].rhs
                if any(e.label == name for e in sub.edges):
                    continue  # self-recursive; cannot inline
                if any(e.label == name for r in g.rules if r.lhs != name
                       for e in r.rhs.edges):
                    candidate = (name, sub)
                    break
        if candidate is None:
            break
        name, sub = candidate
        new_rules = []
        for r in g.rules:
            if r.lhs == name:
                continue
            rhs = r.rhs
            while True:
                hit = next((e for e in rhs.edges if e.label == name), None)
                if hit is None:
                    break
                rhs = _inline_edge(rhs, hit, sub)
                fired += 1
            new_rules.append(Rule(r.lhs, rhs))
        g.rules = new_rules
        del g.labels[name]

    # unit-rule collapse: fun/start whose rhs is exactly one if/case edge
    changed = True
    while changed:
        changed = False
        by_lhs = {}
        for r in g.rules:
            by_lhs.setdefault(r.lhs, []).append(r)
        for name in list(g.labels):
            if cu.label_kinds.get(name) not in ("fun", "start"):
                continue
            rules = by_lhs.get(name, [])
            if len(rules) != 1:
                continue
            rhs = rules[0].rhs
            if (len(rhs.edges) == 1 and len(rhs.nodes) == len(rhs.ext)
                    and rhs.edges[0].att == rhs.ext
                    and cu.label_kinds.get(rhs.edges[0].label) in ("if", "case")):
                child = rhs.edges[0].label
                uses = sum(1 for r in g.rules for e in r.rhs.edges if e.label == child)
                if uses != 1:
                    continue
                child_rules = [r for r in g.rules if r.lhs == child]
                # relabel: reuse this rule's node names for the external slots
                replacement = []
                for cr in child_rules:
                    ren = dict(zip(cr.rhs.ext, rhs.ext))
                    nodes = [Node(ren.get(n.id, n.id), n.domain) for n in cr.rhs.nodes]
                    edges = [Edge(e.id, e.label, tuple(ren.get(a, a) for a in e.att))
                             for e in cr.rhs.edges]
                    replacement.append(Rule(name, Hypergraph(nodes, edges, rhs.ext)))
                g.rules = [r for r in g.rules if r.lhs not in (name, child)] + replacement
                del g.labels[child]
                fired += 1
                changed = True
                break
    return fired


def solve_fixed_point(g: FGG, tol: float = 1e-10, max_iter: int = 10000,
                      divergence_bound: float = 1e12) -> SolverState:
    """Kleene iteration from zero tensors, synchronous (Jacobi) updates,
    rescanning the rules for every nonterminal and preparing every rule
    anew on every iteration."""
    nts = [n for n in g.nonterminals() if g.ext_domains(n) is not None]
    shapes = {n: g.domain_tuple(g.ext_domains(n)) for n in nts}
    tau = {n: WeightTensor.zeros(shapes[n]) for n in nts}
    plans = {id(r): plan_elimination(g, r).order for r in g.rules}
    counter = OpCounter()
    state = SolverState(tau=tau, iteration=0, delta=float("inf"), status=MAX_ITER)
    for it in range(1, max_iter + 1):
        new_tau = {}
        for n in nts:
            acc = WeightTensor.zeros(shapes[n])
            for r in g.rules:
                if r.lhs != n:
                    continue
                c = rule_contribution(g, r, tau, order=plans[id(r)], counter=counter)
                acc.data += c.data
            new_tau[n] = acc
        delta = 0.0
        for n in nts:
            d = float(np.max(np.abs(new_tau[n].data - tau[n].data))) if tau[n].data.size else 0.0
            delta = max(delta, d)
        tau = new_tau
        state.tau = tau
        state.iteration = it
        state.delta = delta
        state.ops = counter.ops
        if any(np.any(t.data > divergence_bound) for t in tau.values()):
            state.status = DIVERGENT
            return state
        if delta < tol:
            state.status = CONVERGED
            return state
    state.status = MAX_ITER
    return state
