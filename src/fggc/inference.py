"""Exact inference: external marginals by variable elimination, and
nonterminal weight tensors as the least fixed point of tau = F(tau), solved
one strongly connected component of the nonterminal dependency graph at a
time, callees first, each by one method: one exact pass for a
non-recursive component; for a recursive one whose entries a verified size
ranking orders, one exact evaluation per entry, level by level (the order
in which a semiring parser evaluates an acyclic deduction graph: Goodman,
"Semiring Parsing", CL 1999); Kleene iteration for any other.

Each rule's elimination is planned once per solve, when the tensors of
its component's callees are final, as a list of steps: large two-operand
steps run as batched BLAS matrix products (np.matmul), the rest as
np.einsum. The steps and the op counts are the same either way. The
answers, and so the deltas, can differ from all-einsum execution in the
last bits, as can runs with different BLAS thread counts; the iterations
change only if such a difference moves a delta across `tol`. A step that
reads no tensor of the component's own nonterminals runs as it is made,
once. A rule with no other step (every rule of a non-recursive component,
a recursive one's constant rules) is contracted straight to its array
(`_contract`), so it costs about its einsums; any other keeps the rest of
its steps for each sweep or level (`_Contraction`). That changes no bit of
the answers. No step result or recursive tensor exceeds MAX_ENTRIES entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import product

import numpy as np

from .fgg import FGG, FactorTable, Hypergraph, Rule, rules_by_lhs
from .frontend import _measure
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
        return cls(domains, np.zeros([len(d.values) for d in domains]))

    def __getitem__(self, values) -> float:
        if isinstance(values, Value):
            values = (values,)
        idx = tuple(d.index(v) for d, v in zip(self.domains, values))
        return float(self.data[idx])

    def items(self):
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
        pos = td.positions(nd)
        idx, mask = np.array(pos, dtype=int), None
        if -1 in pos:
            hit = idx >= 0
            idx[~hit] = 0
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
    """Min-fill ordering over the interaction graph induced by factor scopes
    (`node_domains` gives each node's domain, or anything of its length):
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
    return _marginal(g, domains, factors, {}, order, counter)


def _marginal(g: Hypergraph, domains, factors, tau, order, counter) -> WeightTensor:
    """The sum-product of `g` onto its external nodes, every tensor known."""
    result = _contract(_Known(domains, factors, tau, counter), g, order)
    return WeightTensor(tuple(domains[g.domain_of(n)] for n in g.ext),
                        _finite(np.array(result, dtype=float, order="C")))


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
# the most entries of one array the solver makes (1 GiB of float64): a step
# or a tensor larger than this is refused before it is allocated
MAX_ENTRIES = 2 ** 27


def _bound(entries: int, what: str) -> None:
    if entries > MAX_ENTRIES:
        raise InferenceError(f"{what} of {entries} entries exceeds the bound of "
                             f"{MAX_ENTRIES} entries on one array")


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
    `out`'s. One label kept in `out` may have size -1, a length known only
    when the plan runs."""
    batch, rows, inner, cols = split
    mid = batch + rows + cols
    ta = [a.index(m) for m in batch + rows + inner]
    tb = [b.index(m) for m in batch + inner + cols]
    nb, nr, ni, nc = (max(math.prod(sizes[m] for m in x), -1) for x in split)
    shape = [sizes[m] for m in mid]
    to = [mid.index(m) for m in out]

    def run(x, y):
        z = np.matmul(x.transpose(ta).reshape(nb, nr, ni), y.transpose(tb).reshape(nb, ni, nc))
        return z.reshape(shape).transpose(to)

    return run


def _run(args: list, out, plan) -> np.ndarray:
    """One step's value: `args`, each operand followed by its labels,
    summed onto the labels `out`."""
    return np.einsum(*args, out) if plan is None else plan(args[0], args[2])


def _step(counter: OpCounter, group, out, names, sizes, keep=None, batch=None):
    """Contract `group`, (labels, value) pairs, onto the labels `out`
    (`names`: their labels in order of first appearance): at once, its
    product size counted, giving the array, if every value is one; else
    `keep(group, args, out, plan, size, names)` keeps it. A group too large
    for one call is multiplied in chunks that keep all their labels. A
    result over MAX_ENTRIES entries (a whole batch's) is refused first."""
    while len(group) > _MAX_OPERANDS:
        chunk, group = group[:_MAX_OPERANDS], group[_MAX_OPERANDS:]
        kept = tuple(dict.fromkeys(m for s, _ in chunk for m in s))
        group.insert(0, (kept, _step(counter, chunk, kept, kept, sizes, keep, batch)))
    size = 1
    for m in names:  # a loop: faster than math.prod on a few small factors
        size *= sizes[m]
    if size > MAX_ENTRIES:  # the result's entries are at most its product size
        _bound(math.prod([sizes[m] for m in out]), "a contraction step's result")
    label = dict(zip(names, range(len(names))))
    args = []  # each operand followed by its labels
    for s, v in group:
        args.append(v)
        args.append([label[m] for m in s])
    labels_out = [label[m] for m in out]
    split = _split(group[0][0], group[1][0], out) if size >= _MIN_MATMUL and len(group) == 2 else None
    plan = None if split is None else matmul_plan(
        args[1], args[3], labels_out, [-1 if m == batch else sizes[m] for m in names],
        [[label[m] for m in part] for part in split])
    if keep is None or int not in map(type, args[::2]):
        counter.ops += size
        return _run(args, labels_out, plan)
    return keep(group, args, labels_out, plan, size, names)


class _Known:
    """What one solve's contractions read and reuse: domains and their
    sizes, terminal tables (`factors`), known tensors (`tau`), the
    `OpCounter`, and `aligned`: each label's table aligned onto, or
    tensor's `alignment` to, each tuple of node domains it meets, made once."""

    def __init__(self, domains, factors, tau, counter: OpCounter | None = None):
        self.domains, self.factors, self.tau = domains, factors, tau
        self.counter = counter if counter is not None else OpCounter()
        self.size = {name: len(d.values) for name, d in domains.items()}
        self.aligned = {}


def _contract(known: _Known, graph: Hypergraph, order=None, c=None, live=(), batch=None):
    """The sum-product of `graph` onto its external nodes: with no `c`,
    every tensor known, each step run as it is made and nothing but arrays
    kept, an array (maybe a view, not checked for overflow); else `c`, the
    `_Contraction` being built, keeps the steps that read a `live` tensor.

    Terminal tables are aligned onto their nodes, and so is each known
    tensor (an edge whose alignment moves nothing reads the tensor's data
    as it is). Each node of size > 1 in the elimination order gets one step
    over the operands that mention it, and a last step maps what remains
    onto `ext`. The order is min-fill (`plan_order`) unless at most one
    internal node has size > 1, which forces it. A repeated attachment is
    a repeated label (a diagonal), an unattached external node a vector of
    ones, an unattached internal node a constant scale. A node with one
    value carries no label (its axes are reshaped away), and labels are
    numbered within each step, so a step's labels are its nodes of size > 1."""
    dom, sizes = {}, {}
    for n in graph.nodes:
        dom[n.id] = d = n.domain
        sizes[n.id] = known.size[d]
    ext, planned, b, keep = graph.ext, sizes, None, None
    if c is not None:
        c.sizes, c.shape, keep = sizes, tuple(map(sizes.__getitem__, ext)), c._keep
    if batch is not None:
        nodes, index = batch
        c.batch = b = "~" + "".join(sizes)  # a name no node has
        sizes[b] = len(index[0])
        c._gather = {n: ix for n, ix in zip(nodes, index) if sizes[n] > 1}
        ext = (b, *(n for n in graph.ext if n not in nodes))
        planned = {n: k for n, k in sizes.items() if n not in nodes}
    if order is None:  # min-fill, unless at most one internal node has size > 1
        order = [n for n in planned if sizes[n] > 1 and n not in ext]
        if len(order) > 1:
            scopes = [e.att if b is None else tuple(dict.fromkeys(b if a in nodes else a for a in e.att))
                      for e in graph.edges]
            ranges = {n: range(k) for n, k in planned.items()}
            order = [n for n in plan_order(ranges, scopes, set(ext)).order if sizes[n] > 1]
            if b is not None:  # the nodes no member edge holds first: their steps run once
                held = {a for e in graph.edges if e.label in live for a in e.att}
                order = sorted(order, key=held.__contains__)
    work, aligned, tau = [], known.aligned, known.tau  # (labels, array or live position)
    for e in graph.edges:
        label, att = e.label, e.att
        labels = tuple([a for a in att if sizes[a] > 1])
        key = (label, tuple([dom[a] for a in att]))
        v = aligned.get(key)  # a table aligned, or a tensor's alignment
        if label in tau:
            t = tau[label]
            if v is None:
                if len(t.domains) != len(att):
                    raise InferenceError(f"tensor for {label} has rank {len(t.domains)}, "
                                         f"edge arity {len(att)}")
                v = aligned[key] = alignment(t.domains, map(known.domains.__getitem__, key[1]))
            if label in live:
                work.append(c._live(label, att, labels, v))
                continue
            v = (_realign(t.data, v) if v else t.data).reshape([sizes[a] for a in labels])
        elif v is None:
            tab = known.factors[label]
            v = aligned[key] = align(np.asarray(tab.weights, dtype=float),
                                     tuple(map(known.domains.__getitem__, tab.domains)),
                                     tuple(map(known.domains.__getitem__, key[1]))
                                     ).reshape([sizes[a] for a in labels])
        work.append((labels, v) if b is None else c._gathered(v, labels))
    attached = set().union(*[e.att for e in graph.edges])
    held = attached if b is None else {m for s, _ in work for m in s}
    out = tuple([m for m in ext if m == b or sizes[m] > 1])
    work += [((n,), np.ones(sizes[n])) for n in out if n not in held]
    scale = float(math.prod([k for n, k in sizes.items() if n not in attached and n not in ext])
                  if len(attached) < len(sizes) else 1)
    if scale != 1.0 or not work:
        work.append(((), np.array(scale)))
    for n in order:
        group = [w for w in work if n in w[0]]
        if group:
            work = [w for w in work if n not in w[0]]
            names = dict.fromkeys([m for s, _ in group for m in s])
            kept = tuple([m for m in names if m != n])
            if b is not None:  # also sum the nodes no other operand holds
                kept = tuple(m for m in kept if m in out or any(m in s for s, _ in work))
            work.append((kept, _step(known.counter, group, kept, names, sizes, keep, b)))
    if b is not None and len(work) == 1 and sorted(work[0][0]) == sorted(out):
        (labels, v), = work  # viewed in `out`'s order, not copied into it
        c.final = c._slot(v, labels), [labels.index(m) for m in out]
        return None
    # the last step also sums any internal node `order` left out
    last = _step(known.counter, work, out, dict.fromkeys([m for s, _ in work for m in s]),
                 sizes, keep, b)
    return last.reshape([sizes[n] for n in graph.ext]) if c is None else c._slot(last, out)


class _Contraction:
    """A hypergraph's sum-product onto its external nodes, built by
    `_contract` once the tensors of every label but those in `live` are
    final (`known.tau`), for `apply` to run on the live labels' tensors,
    each read by its `alignment`.

    With a `batch`, a pair of the rule's external nodes (say) and, for
    each, its value index at each entry of a list (an ordered component's
    ranked entries, `_ordered`), those nodes are merged into one batch node
    over the list: every known operand holding them is gathered over it
    once, the nodes that no member edge holds are eliminated first, so
    that their steps run now, and a node only one pending operand holds is
    summed in the step that makes it. `apply_part` then runs the steps
    that read a member on one part of the list, each member edge gathered
    from the member's tensor by that part; the size of the batch node
    (-1 to `matmul_plan`) is the part's, and its ops count per entry.

    A step runs as np.einsum, except a two-operand step of at least
    `_MIN_MATMUL` products that `_split` can lower: that one runs as one
    batched BLAS matrix product (`matmul_plan`; the pairwise lowering of
    opt_einsum, Smith & Gray, JOSS 2018). The steps and their op counts are
    the same either way. The products are summed in another order, so a
    result can differ from all-einsum execution in the last bits, and the
    BLAS build and thread count can move those bits too.

    A step whose operands are all known runs as soon as it is made;
    its array is all that is kept of it. `steps` keeps the others, in an
    order that computes each operand before it is read, each with the
    positions in `values` of its operands and of its result (the last is
    the contraction's). `apply` runs them on the live tensors and counts
    `ops`, their product size, each time. Its result may be a view and is
    not checked for overflow: the callers sum and check.
    """

    batch = final = None  # see the class docstring

    def __init__(self, graph: Hypergraph, known: _Known, live, order=None, batch=None):
        self._counter = known.counter
        self.values, self.tau_slots, self.steps, self.ops = [], [], [], 0
        self.cut, self.batch_ops = {}, 0
        _contract(known, graph, order, self, live, batch)

    def _live(self, label, att, labels, moved):
        """A live edge's labels and the position in `values` that `apply`
        fills from its tensor by the `alignment` `moved`."""
        shape = tuple(map(self.sizes.__getitem__, labels))
        if self.batch is not None:
            labels, moved = self._slot_gather(att, moved)
        self.tau_slots.append((len(self.values), label, moved, shape))
        self.values.append(None)
        return labels, len(self.values) - 1

    def _gathered(self, arr, labels):
        """A known operand over `labels` with its gathered nodes' axes
        replaced by one batch axis, first."""
        at = [i for i, m in enumerate(labels) if m in self._gather]
        if not at:
            return labels, arr
        rest = [i for i in range(len(labels)) if i not in at]
        arr = arr.transpose(at + rest)[tuple(self._gather[labels[i]] for i in at)]
        return (self.batch, *(labels[i] for i in rest)), arr

    def _slot_gather(self, att, moved):
        """The labels of a member edge's operand and how `apply_part` reads
        it from the member's tensor: its axes in the order gathered nodes',
        those the edge's `alignment` moves, the rest; one index array per
        gathered axis, each batch entry's values with the alignment folded
        in, and the mask of the batch entries the tensor's domains lack;
        for each moved axis, its position after the gather, its index and
        mask; the labelled shape."""
        by_axis = {ax: (idx, hit) for ax, idx, hit in moved}
        front = [ax for ax, a in enumerate(att) if a in self._gather]
        shift = [ax for ax in by_axis if ax not in front]
        rest = [ax for ax in range(len(att)) if ax not in front and ax not in shift]
        lead = 1 if front else 0
        index, mask = [], None
        for ax in front:
            ix = self._gather[att[ax]]
            idx, hit = by_axis.get(ax, (None, None))
            index.append(ix if idx is None else idx[ix])
            if hit is not None:
                hit = hit.ravel()[ix]
                mask = hit if mask is None else mask & hit
        if mask is not None:
            mask = mask.reshape([-1] + [1] * (len(shift) + len(rest)))
        after = []
        for k, ax in enumerate(shift):
            idx, hit = by_axis[ax]
            if hit is not None:
                shape = [1] * (lead + len(shift) + len(rest))
                shape[lead + k] = -1
                hit = hit.reshape(shape)
            after.append((lead + k, idx, hit))
        labels = (self.batch,) * lead + tuple(att[a] for a in shift + rest if self.sizes[att[a]] > 1)
        shape = tuple(-1 if m == self.batch else self.sizes[m] for m in labels)
        return labels, (tuple(front + shift + rest), tuple(index), mask, tuple(after), shape)

    def _slot(self, v, labels) -> int:
        """The position in `values` of a work value over `labels`, a known
        array added (its batch axis cut by `apply_part`) when a step reads it."""
        if type(v) is int:
            return v
        if self.batch in labels:
            self.cut[len(self.values)] = labels.index(self.batch)
        self.values.append(v)
        return len(self.values) - 1

    def _keep(self, group, args, out, plan, size, names) -> int:
        """Keep a step that reads a live value (see `_step`): the position
        of its result."""
        at = [self._slot(v, s) for s, v in group]
        self.steps.append((at, args, out, plan, len(self.values)))
        self.values.append(None)
        if self.batch in names:  # the part's share counts when it runs
            self.batch_ops += size // self.sizes[self.batch]
        else:
            self.ops += size
        return len(self.values) - 1

    def _replay(self, vals) -> list:
        """`vals`, a copy of `values` with the live operands in, with each
        kept step's result put in its slot."""
        for at, args, out, plan, slot in self.steps:
            args = args.copy()  # its operands' places filled from `vals`
            args[::2] = [vals[p] for p in at]
            vals[slot] = _run(args, out, plan)
        return vals

    def apply(self, tau: dict[str, WeightTensor]) -> np.ndarray:
        """The sum-product over `shape` with the live labels' tensors taken
        from `tau`: an array that may be a view, not checked for overflow."""
        vals = list(self.values)
        for i, label, moved, shape in self.tau_slots:
            vals[i] = _realign(tau[label].data, moved).reshape(shape)
        self._counter.ops += self.ops
        return self._replay(vals)[-1].reshape(self.shape)

    def apply_part(self, layouts: dict, start: int, stop: int) -> np.ndarray:
        """A batched contraction's result over the batch entries
        `start:stop`: an array over the batch axis and then the other
        labelled external nodes. `layouts[label, order]` is a live label's
        tensor with its axes in the order, a tuple, that its edge reads."""
        part = slice(start, stop)
        vals = list(self.values)
        for pos, axis in self.cut.items():
            vals[pos] = vals[pos][(slice(None),) * axis + (part,)]
        for i, label, (perm, index, mask, after, shape), _ in self.tau_slots:
            arr = layouts[label, perm]
            if index:
                arr = arr[tuple(ix[part] for ix in index)]
                if mask is not None:
                    arr = arr * mask[part]
            for axis, idx, hit in after:
                arr = np.take(arr, idx, axis=axis)
                if hit is not None:
                    arr = arr * hit
            vals[i] = arr.reshape(shape)
        self._counter.ops += self.ops + self.batch_ops * (stop - start)
        vals = self._replay(vals)  # the last value over `out`'s labels: a view
        return vals[-1] if self.final is None else vals[self.final[0]].transpose(self.final[1])


# ---------------------------------------------------------------------------
# Fixed-point solver


def rule_contribution(g: FGG, rule: Rule, tau: dict[str, WeightTensor],
                      order=None, counter: OpCounter | None = None) -> WeightTensor:
    """One-level unrolling: nonterminal edges act as factors with table tau[X]."""
    return _marginal(rule.rhs, g.domains, g.factors, tau, order, counter)


CONVERGED = "converged"
MAX_ITER = "max-iter"
DIVERGENT = "divergent"
DIVERGENCE_BOUND = 1e12  # an entry above this is taken to mean an infinite weight


ONE_PASS, ORDERED, KLEENE = "one-pass", "ordered", "kleene"


@dataclass
class ComponentState:
    """How one dependency component was solved: its members, the method
    (ONE_PASS, ORDERED or KLEENE), its status, the sweeps (or, ORDERED,
    the levels) run, the final delta, and the ops counted while solving
    it: an ordered component's include the verification of its ranking, a
    Kleene component's leave out a verification that failed."""
    members: list[str]
    method: str
    status: str
    iterations: int
    delta: float
    ops: int


@dataclass
class SolverState:
    tau: dict[str, WeightTensor]
    iteration: int
    delta: float
    status: str
    ops: int = 0
    components: list[ComponentState] = field(default_factory=list)


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


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise InferenceError("non-finite result in external marginal (overflow)")
    return arr


def _sweep(prepared: dict, shapes, tau) -> dict[str, WeightTensor]:
    """Every member's rules, each a constant's array or a `_Contraction`
    applied to `tau`, summed in grammar order into a fresh array per
    member, which is then checked for overflow."""
    new_tau = {}
    for n, rules in prepared.items():
        acc = np.zeros(tuple(map(len, shapes[n])))
        for rule in rules:
            acc += rule.apply(tau) if isinstance(rule, _Contraction) else rule
        new_tau[n] = WeightTensor(shapes[n], _finite(acc))
    return new_tau


def _one_pass(known: _Known, rules: dict, shapes, max_iter: int) -> tuple:
    """A non-recursive component: each rule is a constant, contracted
    straight to its array when the sum reaches it, so one pass is exact."""
    if max_iter < 1:
        return {n: WeightTensor.zeros(shapes[n]) for n in rules}, MAX_ITER, 0, float("inf")
    return _sweep({n: (_contract(known, r.rhs) for r in rs) for n, rs in rules.items()},
                  shapes, known.tau), CONVERGED, 1, 0.0


def _kleene(prepared: dict, shapes, tau, tol: float, max_iter: int) -> tuple:
    """Synchronous (Jacobi) sweeps from `tau` until the largest absolute
    change is below `tol` (converged), `max_iter` sweeps have run
    (max-iter), or an entry exceeds DIVERGENCE_BOUND (divergent)."""
    cur, new_tau = dict(tau), {n: tau[n] for n in prepared}
    delta, status = float("inf"), MAX_ITER
    for it in range(1, max_iter + 1):
        new_tau = _sweep(prepared, shapes, cur)
        delta = 0.0
        for n in prepared:
            d = float(np.max(np.abs(new_tau[n].data - cur[n].data))) if cur[n].data.size else 0.0
            delta = max(delta, d)
        cur.update(new_tau)
        if any(np.any(t.data > DIVERGENCE_BOUND) for t in new_tau.values()):
            status = DIVERGENT
            break
        if delta < tol:
            status = CONVERGED
            break
    return new_tau, status, it if max_iter >= 1 else 0, delta


@dataclass
class _Ranking:
    """A ranking of one member's entries: `coef`, the coefficient of each
    axis that has one; `level`, an integer array over those axes in
    increasing order; and the entries of level `floor` or more (the set S),
    by level: `index`, one array of value indices per such axis, and each
    level's `bounds` in it."""
    coef: dict[int, int]
    level: np.ndarray
    index: tuple = ()
    bounds: dict = field(default_factory=dict)


def _rankings(members, ext, sizes):
    """The candidate rankings of a recursive component, in the order they
    are tried: for j = 1, 2, ..., each member's level is the size of its
    j-th argument from the last minus the size of its last axis, the
    result (the call consumes input). A member with no such argument ends
    the candidates."""
    for j in range(1, min(len(ext[n]) for n in members)):
        ranks = {}
        for n in members:
            coef = {len(ext[n]) - 1 - j: 1, len(ext[n]) - 1: -1}
            axes = sorted(coef)
            level = 0
            for k, ax in enumerate(axes):
                shape = [1] * len(axes)
                shape[k] = -1
                level = level + coef[ax] * sizes(ext[n][ax]).reshape(shape)
            ranks[n] = _Ranking(coef, level)
        yield ranks


def _plausible(ranks, constants, floor: int) -> bool:
    """Whether a ranking survives the checks that need no solver work: the
    entries of level `floor` or more hold more than one level, and the
    constant rules (`constants`, each member's arrays of the rules with no
    member edge) put no weight on an entry of level below `floor`."""
    levels = [r.level[r.level >= floor] for r in ranks.values()]
    if len({int(f(lv)) for lv in levels if lv.size for f in (np.min, np.max)}) < 2:
        return False
    for n, consts in constants.items():
        r = ranks[n]
        for data in consts:
            other = tuple(ax for ax in range(data.ndim) if ax not in r.coef)
            if np.any(data.any(axis=other) & (r.level < floor)):
                return False
    return True


def _verified(g: FGG, live: dict, ranks, floor: int, tau, sizes, counter: OpCounter) -> bool:
    """Whether the ranking `ranks` orders the component's live rules: one
    contraction per rule of supports (each table and each earlier
    component's tensor replaced by its support, each member edge by 1[S],
    S the entries of level >= `floor`) onto its level-carrying nodes, in which
    every supported output entry is in S (F maps S into S) and every
    member entry read is of a lower level than the entry it is read for.
    An edge that holds no level-carrying node is left out, as if its
    support were full, and so is an internal node no edge left holds: that
    can only make the checks stricter, and it keeps the contraction small.
    A level-carrying node that no edge holds (an argument that the rule
    ignores) ranges over all its values. Each comparison reads the support
    reduced onto the nodes whose sizes it depends on. `sizes` gives a
    domain's value sizes by name.

    At a floor of 1, a rule with two or more member edges whose output
    level is, node by node, the sum of their levels (a split of a span, as
    in CKY's binary rule) needs no contraction: each read is in S, of level
    >= 1, so the output is in S and exceeds each read by the others'."""
    members = set(ranks)
    support, factors = {}, {}
    known = _Known(g.domains, factors, support, counter)
    for n, rules in live.items():
        for rule in rules:
            rhs = rule.rhs
            levels = []  # each read's level, as a coefficient per node
            for coef, att in [(ranks[n].coef, rhs.ext)] + [(ranks[e.label].coef, e.att)
                                                            for e in rhs.edges if e.label in members]:
                level = {}
                for ax, c in coef.items():
                    level[att[ax]] = level.get(att[ax], 0) + c
                levels.append(level)
            out, *slots = levels
            total = {}
            for slot in slots:
                for a, c in slot.items():
                    total[a] = total.get(a, 0) + c
            if floor >= 1 and len(slots) > 1 and {a: c for a, c in total.items() if c} == \
                    {a: c for a, c in out.items() if c}:
                continue
            if not support:  # each member's 1[S]
                for m, r in ranks.items():
                    t = tau[m]
                    keep = (r.level >= floor).reshape([k if ax in r.coef else 1
                                                       for ax, k in enumerate(t.data.shape)])
                    support[m] = WeightTensor(t.domains, np.ones(t.data.shape) * keep)
            onto = tuple(dict.fromkeys(a for level in levels for a in level))
            near = [e for e in rhs.edges if any(a in onto for a in e.att)]
            for e in near:
                if e.label in factors or e.label in support:
                    continue
                if e.label in g.factors:
                    tab = g.factors[e.label]
                    factors[e.label] = FactorTable(e.label, tab.domains,
                                                   (np.asarray(tab.weights) > 0).astype(float))
                else:
                    t = tau[e.label]
                    support[e.label] = WeightTensor(t.domains, (t.data > 0).astype(float))
            nodes = [x for x in rhs.nodes if x.id in onto or any(x.id in e.att for e in near)]
            held = _contract(known, Hypergraph(nodes, near, onto)) > 0
            # out >= floor, and out - slot >= 1 for each slot, wherever held
            for level, least in [(out, floor)] + [({a: out.get(a, 0) - slot.get(a, 0)
                                                    for a in {**out, **slot}}, 1) for slot in slots]:
                at = [k for k, a in enumerate(onto) if level.get(a, 0)]
                value = 0
                for i, k in enumerate(at):
                    shape = [1] * len(at)
                    shape[i] = -1
                    value = value + level[onto[k]] * sizes(rhs.domain_of(onto[k])).reshape(shape)
                rest = tuple(k for k in range(len(onto)) if k not in at)
                if np.any(held.any(axis=rest) & (value < least)):
                    return False
    return True


def _ranking(g: FGG, rules: dict, constant: dict, ext, tau, sizes, counter) -> dict | None:
    """The first candidate ranking (`_rankings`) of a recursive component
    that passes `_plausible` and then `_verified` with the floor at 1, or
    else at the lowest level of any entry (S every entry: a loop over its
    input ends at level 0), its levels indexed (`_index_levels`); None if
    none does. The verifying contractions' ops go into `counter` only when
    a ranking is returned, so a component that falls back to Kleene sweeps
    counts the sweeps' ops alone."""
    members = list(rules)
    consts = {n: [c for c in cs if c is not None] for n, cs in constant.items()}
    live = {n: [r for r, c in zip(rules[n], constant[n]) if c is None] for n in members}
    checks = OpCounter()  # counted in `counter` only if a ranking is used
    for lowest in (False, True):
        for ranks in _rankings(members, {n: ext[n] for n in members}, sizes):
            floor = min(int(r.level.min()) for r in ranks.values()) if lowest else 1
            if (floor < 1 or not lowest) and _plausible(ranks, consts, floor) and \
                    _verified(g, live, ranks, floor, tau, sizes, checks):
                for r in ranks.values():
                    _index_levels(r, floor)
                counter.ops += checks.ops
                return ranks
    return None


@cache
def _max_axes() -> int:
    """numpy's limit on the axes of an array: 64 on numpy 2, 32 on 1.x."""
    try:
        np.empty((0,) * 64)
        return 64
    except ValueError:
        return 32


def _value_sizes(domain: Domain) -> np.ndarray:
    """Each value's size: its atom characters plus pair and sum
    constructors (`frontend._measure`)."""
    return np.array([_measure(v)[1] for v in domain.values])


def _ordered(rules: dict, constant: dict, ranks, shapes, build) -> tuple:
    """Each member's ranked entries (level `floor` or more), one level at a
    time in increasing order, each from the final entries of lower levels:
    the constant rules' arrays gathered once, the live rules' batched
    contractions applied to the level's part of the batch, the sum
    scattered into the member's tensor and into each copy of it that a
    member edge reads with its axes in another order (so that a level's
    gather reads whole rows). Exact: delta 0, and the levels are the
    iterations."""
    prepared = {}
    for n, rs in rules.items():
        gathered = sorted(ranks[n].coef)
        prepared[n] = ([c for c in constant[n] if c is not None],
                       [build(r.rhs, batch=(tuple(r.rhs.ext[ax] for ax in gathered), ranks[n].index))
                        for r, c in zip(rs, constant[n]) if c is None])
    cur = {n: WeightTensor.zeros(shapes[n]) for n in prepared}
    layouts = {}  # (member, axis order) -> its tensor in that order
    for n, (_, live) in prepared.items():
        for c in live:
            for _, label, (perm, *_), _ in c.tau_slots:
                if (label, perm) not in layouts:
                    data = cur[label].data
                    layouts[label, perm] = data if perm == tuple(range(data.ndim)) else \
                        np.zeros(data.transpose(perm).shape)
    plan = {}
    for n, (consts, live) in prepared.items():
        r = ranks[n]
        axes = sorted(r.coef)
        order = axes + [ax for ax in range(len(shapes[n])) if ax not in r.coef]
        targets = []  # each copy, flat, and each entry's flat offsets (entry, other axes)
        for arr, perm in [(cur[n].data, None)] + [(arr, perm) for (label, perm), arr in layouts.items()
                                                  if label == n and arr is not cur[n].data]:
            view = arr if perm is None else arr.transpose(np.argsort(perm))
            step = [view.strides[ax] // view.itemsize for ax in order]
            at = sum(ix * k for ix, k in zip(r.index, step))
            rest = np.zeros(1, dtype=int)
            for ax, k in zip(order[len(axes):], step[len(axes):]):
                rest = (rest[:, None] + k * np.arange(view.shape[ax])).ravel()
            targets.append((arr.reshape(-1), np.add.outer(at, rest)))
        known = None
        for c in consts:
            part = c.transpose(order)[r.index].reshape(len(r.index[0]), -1)
            known = part if known is None else known + part
        plan[n] = targets, known, live
    levels = sorted(set().union(*(r.bounds for r in ranks.values())))
    for level in levels:
        for n, (targets, known, live) in plan.items():
            if level not in ranks[n].bounds:
                continue
            start, stop = ranks[n].bounds[level]
            acc = 0.0 if known is None else known[start:stop]
            for c in live:
                acc = acc + c.apply_part(layouts, start, stop).reshape(stop - start, -1)
            for flat, at in targets:
                flat[at[start:stop]] = acc
    for t in cur.values():
        _finite(t.data)
    return cur, CONVERGED, len(levels), 0.0


def _index_levels(r: _Ranking, floor: int) -> None:
    """Fill in `r.index` and `r.bounds`: the entries of level >= `floor`,
    by level (in index order within one)."""
    flat = r.level.ravel()
    pick = np.flatnonzero(flat >= floor)
    pick = pick[np.argsort(flat[pick], kind="stable")]
    r.index = np.unravel_index(pick, r.level.shape)
    levels = flat[pick]
    starts = [0, *(np.flatnonzero(levels[1:] != levels[:-1]) + 1).tolist()]
    stops = [*starts[1:], pick.size]
    r.bounds = {int(levels[s]): (s, e) for s, e in zip(starts, stops)}


def solve_fixed_point(g: FGG, tol: float = 1e-10, max_iter: int = 10000) -> SolverState:
    """Least fixed point of tau = F(tau), one dependency component at a
    time, callees first, each by one method:

    - one-pass: a non-recursive component; each rule is a constant, so one
      pass is exact (delta 0);
    - ordered: a recursive component whose entries a size ranking orders
      (ROADMAP item "Chart-order evaluation"): a level per entry,
      sum over its axes of +-1 times the size of its value (`_rankings`),
      checked first against the constant rules (`_plausible`) and then
      per rule, by its form or by one support contraction (`_verified`),
      for the entries of level 1 or more or else for all (`_ranking`).
      Its entries are computed once, level by level in increasing order,
      from final lower levels (`_ordered`); exact, delta 0, `iterations`
      the number of levels. `tol` and `max_iter` do not apply;
    - kleene: any other recursive component: synchronous (Jacobi) sweeps
      from zero tensors until the largest absolute change is below `tol`
      (converged), `max_iter` sweeps have run (max-iter: the later
      components are still solved from this last iterate) or an entry
      exceeds DIVERGENCE_BOUND (divergent: the solve stops). A component
      exact by construction (one-pass or ordered) is never divergent.

    The state reports the most iterations and the largest final delta of
    any component, and each component's ComponentState in `components`.
    Each rule is contracted once per solve, when its component is reached
    and its callees' tensors are final, with each terminal label aligned
    once per solve onto each tuple of node domains it meets (`_Known`). A
    rule that uses no member (every rule of a one-pass component) is a
    constant, contracted straight to its array (`_contract`); any other is
    a `_Contraction`, whose steps that read no member's tensor run once,
    so a sweep or a level runs only the rest. Each rule's result is still
    added in grammar order, so a Kleene component's tensors are those of
    running every step in every sweep; `ops` counts the steps run at build
    time once. A recursive member's tensor of more than MAX_ENTRIES entries
    is refused (InferenceError) before its zeros are made.
    """
    by_lhs = rules_by_lhs(g.rules)
    ext = g.ext_domains()
    nts = [n for n in g.nonterminals() if n in ext]
    shapes = {n: g.domain_tuple(ext[n]) for n in nts}
    for n in nts:
        if len(shapes[n]) > _max_axes():
            raise InferenceError(f"nonterminal {n!r} of arity {len(shapes[n])}: numpy "
                                 f"arrays have at most {_max_axes()} axes")
    tau = {}  # each member's zeros or final tensor, made when its component is reached
    value_sizes = cache(lambda name: _value_sizes(g.domains[name]))
    counter = OpCounter()
    known = _Known(g.domains, g.factors, tau, counter)
    state = SolverState(tau=tau, iteration=0, delta=0.0, status=CONVERGED)
    for members, recursive in dependency_components(by_lhs, nts):
        before = counter.ops
        rules = {n: by_lhs.get(n, ()) for n in members}
        if not recursive:
            method, solved = ONE_PASS, _one_pass(known, rules, shapes, max_iter)
        else:
            for n in members:
                _bound(math.prod(map(len, shapes[n])), f"the tensor of nonterminal {n!r}")
                tau[n] = WeightTensor.zeros(shapes[n])
            build = partial(_Contraction, known=known, live=set(members))
            # each rule that uses no member, contracted (a constant); None for the others
            constant = {n: [None if any(e.label in rules for e in r.rhs.edges) else _contract(known, r.rhs)
                            for r in rs] for n, rs in rules.items()}
            ranks = _ranking(g, rules, constant, ext, tau, value_sizes, counter)
            if ranks:
                method, solved = ORDERED, _ordered(rules, constant, ranks, shapes, build)
            else:
                prepared = {n: [build(r.rhs) if c is None else c for r, c in zip(rules[n], constant[n])]
                            for n in members}
                method, solved = KLEENE, _kleene(prepared, shapes, tau, tol, max_iter)
        tensors, status, iterations, delta = solved
        tau.update(tensors)
        state.components.append(ComponentState(members, method, status, iterations, delta,
                                               counter.ops - before))
        state.iteration = max(state.iteration, iterations)
        state.delta = max(state.delta, delta)
        state.ops = counter.ops
        if status == DIVERGENT:
            state.status = DIVERGENT
            break
        if status == MAX_ITER:
            state.status = MAX_ITER
    # in grammar order, with zeros for the members of components not reached
    state.tau = {n: tau[n] if n in tau else WeightTensor.zeros(shapes[n]) for n in nts}
    return state


def query_start(g: FGG, tol: float = 1e-10, max_iter: int = 10000) -> WeightTensor:
    state = solve_fixed_point(g, tol=tol, max_iter=max_iter)
    if state.status == DIVERGENT:
        raise InferenceError("divergent grammar: weights exceed the divergence bound")
    return state.tau[g.start]
