"""Exact inference: external marginals by variable elimination, and
nonterminal weight tensors as the least fixed point of tau = F(tau), solved
one strongly connected component of the nonterminal dependency graph at a
time, callees first: one exact pass for a non-recursive component, Kleene
iteration for a recursive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fgg import FGG, Hypergraph, Rule, rules_by_lhs
from .scc import strongly_connected_components
from .values import Domain, FggcError, Value


class InferenceError(FggcError):
    pass


@dataclass
class WeightTensor:
    domains: tuple[Domain, ...]
    data: np.ndarray  # shape = tuple of domain sizes

    @classmethod
    def zeros(cls, domains) -> "WeightTensor":
        domains = tuple(domains)
        return cls(domains, np.zeros(tuple(len(d) for d in domains)))

    def __getitem__(self, values) -> float:
        if isinstance(values, Value):
            values = (values,)
        idx = tuple(d.index(v) for d, v in zip(self.domains, values))
        return float(self.data[idx])

    def items(self):
        from itertools import product
        for idx in product(*(range(len(d)) for d in self.domains)):
            yield tuple(d.values[i] for d, i in zip(self.domains, idx)), float(self.data[idx])

    def total(self) -> float:
        return float(self.data.sum())


class OpCounter:
    """Counts elementary table operations: the size of the product that each
    einsum step of a contraction ranges over, summed."""

    def __init__(self):
        self.ops = 0


def align(arr: np.ndarray, table_domains, node_domains) -> np.ndarray:
    """Reindex a table from its own per-axis domains onto the attachment
    nodes' domains. Values missing from the table's domain contribute 0;
    values of the table's domain absent from a node's domain are dropped.
    """
    for ax, (td, nd) in enumerate(zip(table_domains, node_domains)):
        if td is nd or td == nd:
            continue
        idx = np.zeros(len(nd), dtype=int)
        mask = np.zeros(len(nd), dtype=bool)
        for i, v in enumerate(nd.values):
            if v in td:
                idx[i] = td.index(v)
                mask[i] = True
        arr = np.take(arr, idx, axis=ax)
        shape = [1] * arr.ndim
        shape[ax] = len(nd)
        arr = arr * mask.reshape(shape)
    return arr


# ---------------------------------------------------------------------------
# Elimination planning (min-fill, deterministic tie-break by node id)


@dataclass
class EliminationPlan:
    order: list[str]
    cost: float


def plan_order(node_domains: dict[str, Domain], scopes, ext) -> EliminationPlan:
    """Min-fill ordering over the interaction graph induced by factor scopes."""
    neighbors: dict[str, set[str]] = {n: set() for n in node_domains}
    for scope in scopes:
        for a in scope:
            for b in scope:
                if a != b:
                    neighbors[a].add(b)
    internal = sorted(n for n in node_domains if n not in ext)
    remaining = set(node_domains)
    order: list[str] = []
    cost = 0.0
    pending = set(internal)
    while pending:
        best = None
        for n in sorted(pending):
            nbrs = [m for m in neighbors[n] if m in remaining]
            fill = sum(1 for i, a in enumerate(nbrs) for b in nbrs[i + 1:]
                       if b not in neighbors[a])
            if best is None or fill < best[0]:
                best = (fill, n, nbrs)
        _, n, nbrs = best
        clique = 1.0
        for m in nbrs + [n]:
            clique *= len(node_domains[m])
        cost += clique
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    neighbors[a].add(b)
        order.append(n)
        pending.discard(n)
        remaining.discard(n)
    return EliminationPlan(order=order, cost=cost)


def plan_elimination(g: FGG, rule: Rule) -> EliminationPlan:
    rhs = rule.rhs
    node_domains = {n.id: g.domains[n.domain] for n in rhs.nodes}
    return plan_order(node_domains, [e.att for e in rhs.edges], set(rhs.ext))


# ---------------------------------------------------------------------------
# External marginal over terminal-only graphs


def external_marginal(g: Hypergraph, domains: dict[str, Domain], factors,
                      order=None, counter: OpCounter | None = None) -> WeightTensor:
    """Marginal weight tensor over the external nodes of a terminal-only graph."""
    return _Contraction(g, domains, factors, order=order).apply({}, counter)


# ---------------------------------------------------------------------------
# Compiled variable elimination

# np.einsum takes < 32 operands on numpy 1.x (< 64 on numpy 2), labels in range(52)
_MAX_OPERANDS = 31


class _Contraction:
    """A hypergraph's sum-product onto its external nodes, compiled once into
    a fixed list of np.einsum steps; only the nonterminal edges' tensors
    change between applications.

    Terminal tables are aligned onto their nodes here. Each node of the
    elimination order gets one step over the operands that mention it, and a
    last step maps what remains onto `ext`. A repeated attachment is a
    repeated label (a diagonal), an unattached external node a vector of
    ones, an unattached internal node a constant scale. A node with one
    value carries no label (its axes are reshaped away), and labels are
    numbered within each step, so a step's labels are its nodes of size > 1.
    """

    def __init__(self, graph: Hypergraph, domains: dict[str, Domain], factors,
                 is_terminal=lambda label: True, order=None):
        node_domains = {n.id: domains[n.domain] for n in graph.nodes}
        self.sizes = {n: len(d) for n, d in node_domains.items()}
        self.ext_domains = tuple(node_domains[n] for n in graph.ext)
        if order is None:
            order = plan_order(node_domains, [e.att for e in graph.edges], set(graph.ext)).order
        self.operands: list = []  # arrays; None where apply puts a tau tensor
        self.tau_slots: list = []  # (position, edge, node domains, shape)
        work = []  # (labelled nodes, operand position)
        for e in graph.edges:
            nds = tuple(node_domains[a] for a in e.att)
            shape = tuple(len(d) for d in nds if len(d) > 1)
            arr = None
            if is_terminal(e.label):
                tab = factors[e.label]
                tds = tuple(domains[d] for d in tab.domains)
                arr = align(np.asarray(tab.weights, dtype=float), tds, nds).reshape(shape)
            else:
                self.tau_slots.append((len(self.operands), e, nds, shape))
            work.append((self._labelled(e.att), self._operand(arr)))
        attached = {a for e in graph.edges for a in e.att}
        out = self._labelled(graph.ext)
        work += [((n,), self._operand(np.ones(self.sizes[n]))) for n in out if n not in attached]
        scale = float(math.prod(len(d) for n, d in node_domains.items()
                                if n not in attached and n not in graph.ext))
        if scale != 1.0 or not work:
            work.append(((), self._operand(np.array(scale))))
        self.steps: list = []  # ([(operand position, labels)], output labels)
        self.ops = 0
        for n in order:
            group = [w for w in work if n in w[0]]
            if group:
                work = [w for w in work if n not in w[0]]
                keep = tuple(dict.fromkeys(m for s, _ in group for m in s if m != n))
                work.append((keep, self._step(group, keep)))
        self._step(work, out)  # also sums any internal node `order` left out
        self.shape = tuple(len(d) for d in self.ext_domains)

    def _labelled(self, nodes) -> tuple:
        return tuple(n for n in nodes if self.sizes[n] > 1)

    def _operand(self, arr) -> int:
        self.operands.append(arr)
        return len(self.operands) - 1

    def _step(self, group, out) -> int:
        """Add the steps contracting `group` onto `out`; return the position
        of the result. A group too large for one call is multiplied in
        chunks that keep all their labels, and summed by the last call."""
        while len(group) > _MAX_OPERANDS:
            chunk, group = group[:_MAX_OPERANDS], group[_MAX_OPERANDS:]
            keep = tuple(dict.fromkeys(m for s, _ in chunk for m in s))
            group.insert(0, (keep, self._step(chunk, keep)))
        label = {m: i for i, m in enumerate(dict.fromkeys(m for s, _ in group for m in s))}
        self.steps.append(([(pos, [label[m] for m in s]) for s, pos in group],
                           [label[m] for m in out]))
        self.ops += math.prod(self.sizes[m] for m in label)
        return len(self.operands) + len(self.steps) - 1

    def apply(self, tau: dict[str, WeightTensor],
              counter: OpCounter | None = None) -> WeightTensor:
        vals = list(self.operands)
        for i, e, nds, shape in self.tau_slots:
            t = tau[e.label]
            if len(t.domains) != len(e.att):
                raise InferenceError(
                    f"tensor for {e.label} has rank {len(t.domains)}, edge arity {len(e.att)}")
            vals[i] = align(t.data, t.domains, nds).reshape(shape)
        for operands, out in self.steps:
            args = []
            for pos, labels in operands:
                args += (vals[pos], labels)
            vals.append(np.einsum(*args, out))
        if counter is not None:
            counter.ops += self.ops
        result = np.array(vals[-1], dtype=float, order="C").reshape(self.shape)
        if not np.all(np.isfinite(result)):
            raise InferenceError("non-finite result in external marginal (overflow)")
        return WeightTensor(self.ext_domains, result)


# ---------------------------------------------------------------------------
# Fixed-point solver


def _rule_contraction(g: FGG, rule: Rule, order=None) -> _Contraction:
    return _Contraction(rule.rhs, g.domains, g.factors,
                        lambda label: g.labels[label].is_terminal, order)


def rule_contribution(g: FGG, rule: Rule, tau: dict[str, WeightTensor],
                      order=None, counter: OpCounter | None = None) -> WeightTensor:
    """One-level unrolling: nonterminal edges act as factors with table tau[X]."""
    return _rule_contraction(g, rule, order).apply(tau, counter)


CONVERGED = "converged"
MAX_ITER = "max-iter"
DIVERGENT = "divergent"
DIVERGENCE_BOUND = 1e12  # an entry above this is taken to mean an infinite weight


@dataclass
class SolverState:
    tau: dict[str, WeightTensor]
    iteration: int
    delta: float
    status: str
    ops: int = 0


def dependency_components(by_lhs: dict[str, list[Rule]], nts) -> list[tuple[list[str], bool]]:
    """The strongly connected components of the graph "a rule of X uses Y"
    over the nonterminals `nts`, callees first, each with its members in
    `nts` order and whether it is recursive (more than one member, or a
    member whose rules use it)."""
    known = set(nts)
    calls = {n: list(dict.fromkeys(e.label for r in by_lhs.get(n, ())
                                   for e in r.rhs.edges if e.label in known))
             for n in nts}
    return strongly_connected_components(nts, calls)


def solve_fixed_point(g: FGG, tol: float = 1e-10, max_iter: int = 10000) -> SolverState:
    """Least fixed point of tau = F(tau) by Kleene iteration from zero
    tensors, one dependency component at a time, callees first.

    A non-recursive component takes one pass, which is exact (delta 0). A
    recursive one takes synchronous (Jacobi) sweeps over its own rules, with
    the tensors of earlier components final, until the largest absolute
    change is below `tol` (converged), `max_iter` sweeps have run (max-iter:
    the later components are still solved from this last iterate) or an
    entry exceeds DIVERGENCE_BOUND (divergent: the solve stops); a one-pass
    component's entries are exact, so a large one there is not divergent.
    The state reports the most sweeps and the largest final delta of any
    component. Each rule is compiled once per solve (see _Contraction).
    """
    by_lhs = rules_by_lhs(g.rules)
    ext = g.ext_domains()
    nts = [n for n in g.nonterminals() if n in ext]
    shapes = {n: g.domain_tuple(ext[n]) for n in nts}
    tau = {}
    for n in nts:
        try:
            tau[n] = WeightTensor.zeros(shapes[n])
        except ValueError as e:  # numpy's limit on the number of axes
            raise InferenceError(f"nonterminal {n!r} of arity {len(shapes[n])}: {e}") from None
    prepared = {n: [_rule_contraction(g, r) for r in by_lhs.get(n, ())] for n in nts}
    counter = OpCounter()
    state = SolverState(tau=tau, iteration=0, delta=0.0, status=CONVERGED)
    for members, recursive in dependency_components(by_lhs, nts):
        delta, status = float("inf"), MAX_ITER
        for it in range(1, (max_iter if recursive else min(max_iter, 1)) + 1):
            new_tau = {}
            for n in members:
                acc = WeightTensor.zeros(shapes[n])
                for rule in prepared[n]:
                    acc.data += rule.apply(tau, counter).data
                new_tau[n] = acc
            delta = 0.0
            if recursive:
                for n in members:
                    d = float(np.max(np.abs(new_tau[n].data - tau[n].data))) if tau[n].data.size else 0.0
                    delta = max(delta, d)
            tau.update(new_tau)
            state.iteration = max(state.iteration, it)
            state.ops = counter.ops
            if recursive and any(np.any(t.data > DIVERGENCE_BOUND) for t in new_tau.values()):
                status = DIVERGENT
                break
            if delta < tol or not recursive:
                status = CONVERGED
                break
        state.delta = max(state.delta, delta)
        if status == DIVERGENT:
            state.status = DIVERGENT
            return state
        if status == MAX_ITER:
            state.status = MAX_ITER
    return state


def query_start(g: FGG, tol: float = 1e-10, max_iter: int = 10000) -> WeightTensor:
    state = solve_fixed_point(g, tol=tol, max_iter=max_iter)
    if state.status == DIVERGENT:
        raise InferenceError("divergent grammar: weights exceed the divergence bound")
    return state.tau[g.start]
