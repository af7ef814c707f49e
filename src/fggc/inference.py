"""Exact inference: external marginals by variable elimination, and
nonterminal weight tensors as the least fixed point of tau = F(tau), solved
one strongly connected component of the nonterminal dependency graph at a
time, callees first: one exact pass for a non-recursive component, Kleene
iteration for a recursive one.

Each rule's elimination is compiled once per solve, when the tensors of
its component's callees are final, into a list of steps: large two-operand
steps run as batched BLAS matrix products (np.matmul), with operands
ordered so that BLAS reads them without a copy, the rest as np.einsum. The
steps and the op counts do not depend on that choice. The answers, and so
the deltas, can differ from all-einsum execution in the last bits, as can
runs with different BLAS thread counts; the iterations change only if such
a difference moves a delta across `tol`. A step that reads no tensor of
the component's own nonterminals runs there, once, so a sweep runs only
the steps that do, and a rule with none is a constant; that changes no
bit of the answers.
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
    step of a contraction ranges over (einsum or matmul alike), summed over
    the steps that actually run, so a step run when its rule is built
    counts once, and a step kept for the sweeps once per sweep."""

    def __init__(self):
        self.ops = 0


def alignment(table_domains, node_domains) -> tuple:
    """How to reindex a table from its own per-axis domains onto the
    attachment nodes' domains: for each axis whose domains differ, the
    axis, the index into the table's domain of each node value, and a mask
    that zeroes the node values the table's domain lacks (None if it lacks
    none). Values of the table's domain absent from a node's domain are
    dropped. See `align`."""
    moved = []
    for ax, (td, nd) in enumerate(zip(table_domains, node_domains)):
        if td is nd or td == nd:
            continue
        idx = np.zeros(len(nd), dtype=int)
        hit = np.zeros(len(nd), dtype=bool)
        for i, v in enumerate(nd.values):
            if v in td:
                idx[i] = td.index(v)
                hit[i] = True
        mask = None
        if not hit.all():
            shape = [1] * len(table_domains)
            shape[ax] = len(nd)
            mask = hit.reshape(shape)
        moved.append((ax, idx, mask))
    return tuple(moved)


def _realign(arr: np.ndarray, moved) -> np.ndarray:
    """Apply an `alignment` to an array of the table's shape."""
    for ax, idx, mask in moved:
        arr = np.take(arr, idx, axis=ax)
        if mask is not None:
            arr = arr * mask
    return arr


def align(arr: np.ndarray, table_domains, node_domains) -> np.ndarray:
    """Reindex a table from its own per-axis domains onto the attachment
    nodes' domains. Values missing from the table's domain contribute 0;
    values of the table's domain absent from a node's domain are dropped.
    """
    return _realign(arr, alignment(table_domains, node_domains))


# ---------------------------------------------------------------------------
# Elimination planning (min-fill, deterministic tie-break by node id)


@dataclass
class EliminationPlan:
    order: list[str]
    cost: float


def plan_order(node_domains: dict[str, Domain], scopes, ext) -> EliminationPlan:
    """Min-fill ordering over the interaction graph induced by factor scopes:
    each step eliminates the internal node whose remaining neighbours lack
    the fewest edges among themselves, the first by name on a tie, and the
    scan stops at the first node that lacks none. Nodes are numbered in
    name order, and each node's neighbourhood is a bit mask that includes
    the node itself."""
    names = sorted(node_domains)
    index = {n: i for i, n in enumerate(names)}
    adj = [1 << i for i in range(len(names))]
    for scope in scopes:
        if len(scope) > 1:
            mask = 0
            for a in scope:
                mask |= 1 << index[a]
            for a in scope:
                adj[index[a]] |= mask
    sizes = [len(node_domains[n]) for n in names]
    pending = [i for i, n in enumerate(names) if n not in ext]
    remaining = (1 << len(names)) - 1
    order: list[str] = []
    cost = 0.0
    while pending:
        best = None
        for i in pending:
            nbrs = (adj[i] & remaining) ^ (1 << i)
            fill = 0
            rest = nbrs
            while rest:  # each neighbour's missing edges to the neighbours above it
                low = rest & -rest
                fill += (rest & ~adj[low.bit_length() - 1]).bit_count()
                rest ^= low
            if best is None or fill < best[0]:
                best = (fill, i, nbrs)
                if not fill:
                    break
        _, i, nbrs = best
        clique = sizes[i]
        rest = nbrs
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            clique *= sizes[a]
            adj[a] |= nbrs
            rest ^= low
        cost += float(clique)
        order.append(names[i])
        pending.remove(i)
        remaining ^= 1 << i
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
    return _Contraction(g, domains, factors, {}, (), order, counter=counter).result


# ---------------------------------------------------------------------------
# Compiled variable elimination

# np.einsum takes < 32 operands on numpy 1.x (< 64 on numpy 2), labels in range(52)
_MAX_OPERANDS = 31
# a two-operand step over fewer products stays on np.einsum: there its cost
# per call is about that of the matmul plan's reshapes, and building the plan
# costs more than it saves in rules that are applied once (lowering every
# step that qualifies made the solves of generated non-recursive programs
# about a tenth slower)
_MIN_MATMUL = 4096


def _split(a, b, out):
    """The labels of the step `a, b -> out` split as one batched matrix
    product: (batch, rows, inner, cols), the labels kept from both operands,
    kept from `a` only, summed, and kept from `b` only, the first three in
    `a`'s order and the columns in `b`'s. None when the step does not
    qualify: an operand repeats a label, a label of one operand only is
    summed, or no label is summed."""
    batch, rows, inner = [], [], []
    for m in a:
        (rows if m not in b else batch if m in out else inner).append(m)
    cols = [m for m in b if m not in a]
    if (not inner or len(set(a)) < len(a) or len(set(b)) < len(b)
            or any(m not in out for m in rows + cols)):
        return None
    return batch, rows, inner, cols


def matmul_plan(a: list, b: list, out: list, sizes: list, split):
    """The einsum step `a, b -> out` (label lists; `sizes[m]` the length of
    label m) as one batched np.matmul, given `split = _split(a, b, out)`: a
    function of the two operands. The operands are viewed as (batch, rows,
    inner) and (batch, inner, columns), each part's labels in the split's
    order, so the products are those of the einsum, summed in BLAS's order;
    the result, made in (batch, rows, columns) order, is viewed in
    `out`'s."""
    batch, rows, inner, cols = split
    mid = batch + rows + cols
    ta = [a.index(m) for m in batch + rows + inner]
    tb = [b.index(m) for m in batch + inner + cols]
    nb, nr, ni, nc = (math.prod(sizes[m] for m in x) for x in split)
    shape = [sizes[m] for m in mid]
    to = [mid.index(m) for m in out]

    def run(x, y):
        z = np.matmul(x.transpose(ta).reshape(nb, nr, ni), y.transpose(tb).reshape(nb, ni, nc))
        return z.reshape(shape).transpose(to)
    return run


def _viewable(mem, batch, x, y) -> bool:
    """Whether an array laid out in C order over the labels `mem` is, with
    no copy, a stack over `batch` of matrices over `x` by `y` (each a list
    of labels of `mem`, merged in that order) that BLAS can read: each
    list's labels are adjacent in `mem`, and unless one of the three is
    empty the innermost label is not a batch label."""
    at = {m: i for i, m in enumerate(mem)}
    if any(at[m] + 1 != at[n] for block in (batch, x, y) for m, n in zip(block, block[1:])):
        return False
    return not (batch and x and y) or mem[-1] not in batch


class _Contraction:
    """A hypergraph's sum-product onto its external nodes, built once the
    tensors of every label but those in `live` are final: `tau` holds the
    nonterminal edges' tensors, terminal tables come from `factors`.

    Terminal tables are aligned onto their nodes here (once per terminal
    label and node domains when several contractions share an `aligned`
    cache), and so is each nonterminal edge's tensor: a known one's data at
    once, a live one's `alignment` for `apply` to index with. Each node of
    the elimination order gets one step over the operands that mention it,
    and a last step maps what remains onto `ext`. A repeated attachment is a
    repeated label (a diagonal), an unattached external node a vector of
    ones, an unattached internal node a constant scale. A node with one
    value carries no label (its axes are reshaped away), and labels are
    numbered within each step, so a step's labels are its nodes of size > 1.

    A step runs as np.einsum, except a two-operand step of at least
    `_MIN_MATMUL` products that `_split` can lower: that one runs as one
    batched BLAS matrix product (`matmul_plan`; the pairwise lowering of
    opt_einsum, Smith & Gray, JOSS 2018). The steps and their op counts are
    the same either way. The products are summed in another order, so a
    result can differ from all-einsum execution in the last bits, and the
    BLAS build and thread count can move those bits too.

    A lowered step whose result another step reads is compiled when that
    step is, so that it can choose which operand goes on the left: the
    order that leaves fewer arrays needing a copy before BLAS can read
    them, counting its two operands and, when the reading step is lowered
    too, its own result as that step reads it (the given order on a tie).
    Each array is taken to be laid out in C order over its labels, and the
    result's labels are put in `_split`'s (batch, rows, columns) order, in
    which np.matmul lays it out, so the next step sees it as it is.

    `values` holds the operands and then one slot per step, by position,
    None where the value depends on a live tensor. A step whose operands
    are all known runs as soon as it is compiled, its product size counted
    in `counter`; `steps` keeps the others, in an order that computes each
    operand before it is read, each with its slot. `apply` runs them on
    the live tensors and counts `ops`, their product size, in `counter`
    each time; with no live step, `result` is the finished tensor and
    `apply` returns it.
    """

    def __init__(self, graph: Hypergraph, domains: dict[str, Domain], factors,
                 tau: dict[str, WeightTensor], live, order=None,
                 aligned: dict | None = None, counter: OpCounter | None = None):
        node_domains = {n.id: domains[n.domain] for n in graph.nodes}
        self.sizes = {n: len(d) for n, d in node_domains.items()}
        self.ext_domains = tuple(node_domains[n] for n in graph.ext)
        self.shape = tuple(map(self.sizes.__getitem__, graph.ext))
        if order is None:
            order = plan_order(node_domains, [e.att for e in graph.edges], set(graph.ext)).order
        if aligned is None:
            aligned = {}
        self._counter = counter if counter is not None else OpCounter()
        node_names = {n.id: n.domain for n in graph.nodes}
        self.values: list = []
        self.tau_slots: list = []  # (position, label, alignment, shape)
        work = []  # (labelled nodes, operand position)
        for e in graph.edges:
            nds = tuple(map(node_domains.__getitem__, e.att))
            labels = self._labelled(e.att)
            shape = tuple(map(self.sizes.__getitem__, labels))
            if e.label in tau:
                t = tau[e.label]
                if len(t.domains) != len(e.att):
                    raise InferenceError(
                        f"tensor for {e.label} has rank {len(t.domains)}, edge arity {len(e.att)}")
                moved = alignment(t.domains, nds)
                if e.label in live:
                    arr = None
                    self.tau_slots.append((len(self.values), e.label, moved, shape))
                else:
                    arr = _realign(t.data, moved).reshape(shape)
            else:
                key = (e.label, tuple(map(node_names.__getitem__, e.att)))
                arr = aligned.get(key)
                if arr is None:
                    tab = factors[e.label]
                    tds = tuple(domains[d] for d in tab.domains)
                    arr = aligned[key] = align(np.asarray(tab.weights, dtype=float),
                                               tds, nds).reshape(shape)
            work.append((labels, self._operand(arr)))
        attached = {a for e in graph.edges for a in e.att}
        out = self._labelled(graph.ext)
        work += [((n,), self._operand(np.ones(self.sizes[n]))) for n in out if n not in attached]
        scale = float(math.prod(size for n, size in self.sizes.items()
                                if n not in attached and n not in graph.ext))
        if scale != 1.0 or not work:
            work.append(((), self._operand(np.array(scale))))
        self.steps: list = []  # ([(operand position, labels)], output labels, matmul plan, slot)
        self.ops = 0
        self._pending: dict = {}  # lowered steps compiled when their reader is
        for n in order:
            group = [w for w in work if n in w[0]]
            if group:
                work = [w for w in work if n not in w[0]]
                keep = tuple(dict.fromkeys(m for s, _ in group for m in s if m != n))
                work.append((keep, self._step(group, keep)))
        self._step(work, out, last=True)  # also sums any internal node `order` left out
        self.result = None if self.steps else self._finish(self.values[-1])

    def _labelled(self, nodes) -> tuple:
        return tuple(n for n in nodes if self.sizes[n] > 1)

    def _operand(self, arr) -> int:
        self.values.append(arr)
        return len(self.values) - 1

    def _step(self, group, out, last=False) -> int:
        """Add the steps contracting `group` onto `out`; return the position
        of the result. A group too large for one call is multiplied in
        chunks that keep all their labels, and summed by the last call. A
        lowered step that is not the `last` waits in `_pending` for the
        step that reads its result."""
        while len(group) > _MAX_OPERANDS:
            chunk, group = group[:_MAX_OPERANDS], group[_MAX_OPERANDS:]
            keep = tuple(dict.fromkeys(m for s, _ in chunk for m in s))
            group.insert(0, (keep, self._step(chunk, keep)))
        names = dict.fromkeys(m for s, _ in group for m in s)
        size = math.prod(self.sizes[m] for m in names)
        split = (_split(group[0][0], group[1][0], out)
                 if len(group) == 2 and size >= _MIN_MATMUL else None)
        if self._pending and any(pos in self._pending for _, pos in group):
            settled = [(self._settle(pos, split is not None and (group[1 - i][0], out)), pos)
                       if pos in self._pending else (s, pos) for i, (s, pos) in enumerate(group)]
            if settled != group:  # a settled operand's labels moved
                names = dict.fromkeys(m for s, _ in settled for m in s)
                if split is not None:
                    split = _split(settled[0][0], settled[1][0], out)
            group = settled
        pos = self._operand(None)
        if split is not None and not last:
            self._pending[pos] = group, out, split, size
        else:
            self._compile(pos, group, out, names, split, size)
        return pos

    def _compile(self, pos, group, out, names, split, size):
        """Compile the step `group -> out` into slot `pos`, its labels
        numbered in `names`' order, and run it now if it reads no live
        value; `split` is `_split`'s of its labels if it is lowered."""
        label = {m: i for i, m in enumerate(names)}
        operands = [(p, [label[m] for m in s]) for s, p in group]
        labels_out = [label[m] for m in out]
        plan = None if split is None else matmul_plan(
            operands[0][1], operands[1][1], labels_out, [self.sizes[m] for m in names],
            [[label[m] for m in part] for part in split])
        step = operands, labels_out, plan, pos
        if any(self.values[p] is None for p, _ in operands):
            self.steps.append(step)
            self.ops += size
        else:
            self.values[pos] = self._run(step, self.values)
            self._counter.ops += size

    def _settle(self, pos, reader) -> tuple:
        """Compile the lowered step whose result is at `pos`, now that the
        step reading it is known, and return the result's labels. `reader`
        is, when that step is lowered too, its other operand's labels and
        its output labels, else False."""
        group, keep, split, size = self._pending.pop(pos)
        options = []
        (a, _), (b, _) = group
        for pair, s in ((group, split), (group[::-1], _split(b, a, keep))):
            (x, _), (y, _) = pair
            batch, rows, inner, cols = s
            mid = tuple(batch + rows + cols)
            copies = (not _viewable(x, batch, rows, inner)) + (not _viewable(y, batch, inner, cols))
            if reader:
                copies += not _viewable(mid, *_split(mid, *reader)[:3])
            options.append((copies, pair, mid, s))
        _, group, mid, split = min(options, key=lambda o: o[0])
        names = dict.fromkeys(m for s, _ in group for m in s)
        self._compile(pos, group, mid, names, split, size)
        return mid

    @staticmethod
    def _run(step, vals):
        """The value of one compiled step, its operands taken from `vals`."""
        operands, out, plan, _ = step
        if plan is not None:
            (a, _), (b, _) = operands
            return plan(vals[a], vals[b])
        args = []
        for pos, labels in operands:
            args += (vals[pos], labels)
        return np.einsum(*args, out)

    def _finish(self, arr) -> WeightTensor:
        """The tensor over `ext` that the last step's value `arr` holds."""
        result = np.array(arr, dtype=float, order="C").reshape(self.shape)
        if not np.all(np.isfinite(result)):
            raise InferenceError("non-finite result in external marginal (overflow)")
        return WeightTensor(self.ext_domains, result)

    def apply(self, tau: dict[str, WeightTensor]) -> WeightTensor:
        """The sum-product with the live labels' tensors taken from `tau`."""
        if self.result is not None:
            return self.result
        vals = list(self.values)
        for i, label, moved, shape in self.tau_slots:
            vals[i] = _realign(tau[label].data, moved).reshape(shape)
        for step in self.steps:
            vals[step[3]] = self._run(step, vals)
        self._counter.ops += self.ops
        return self._finish(vals[-1])


# ---------------------------------------------------------------------------
# Fixed-point solver


def rule_contribution(g: FGG, rule: Rule, tau: dict[str, WeightTensor],
                      order=None, counter: OpCounter | None = None) -> WeightTensor:
    """One-level unrolling: nonterminal edges act as factors with table tau[X]."""
    return _Contraction(rule.rhs, g.domains, g.factors, tau, (), order, counter=counter).result


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
    component. Each rule is compiled once per solve, when its component is
    reached and its callees' tensors are final (see _Contraction), with
    each terminal label aligned once per solve onto each tuple of node
    domains it meets. Its steps that read no member's tensor run there,
    once, so a sweep runs only the rest, and a rule that uses no member
    (every rule of a one-pass component) is a constant. Each rule's result
    is still added in grammar order, so the tensors are those of running
    every step in every sweep; `ops` counts the steps run at build time
    once.
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
    aligned: dict = {}
    counter = OpCounter()
    state = SolverState(tau=tau, iteration=0, delta=0.0, status=CONVERGED)
    for members, recursive in dependency_components(by_lhs, nts):
        live = set(members)
        prepared = {n: [_Contraction(r.rhs, g.domains, g.factors, tau, live,
                                     aligned=aligned, counter=counter)
                        for r in by_lhs.get(n, ())]
                    for n in members}
        delta, status = float("inf"), MAX_ITER
        for it in range(1, (max_iter if recursive else min(max_iter, 1)) + 1):
            new_tau = {}
            for n in members:
                acc = WeightTensor.zeros(shapes[n])
                for rule in prepared[n]:
                    acc.data += rule.apply(tau).data
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
