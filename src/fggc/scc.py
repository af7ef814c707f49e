"""Strongly connected components of a directed graph, for the solver's
graph "a rule of X uses Y" over nonterminals."""

from __future__ import annotations


def strongly_connected_components(nodes, successors) -> list[tuple[list, bool]]:
    """The strongly connected components of the graph with edges n -> m for
    m in successors[n], every m one of `nodes`. Successors come first: a
    component precedes every component with an edge into it. Each component
    has its members in `nodes` order and says whether it is recursive (more
    than one member, or a member that is its own successor). Tarjan's
    algorithm with an explicit stack, so a deep graph meets no recursion
    limit."""
    rank = {n: i for i, n in enumerate(nodes)}
    number: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    work: list = []  # (node, iterator over its successors not yet visited)
    out = []

    def enter(n):
        number[n] = low[n] = len(number)
        stack.append(n)
        on_stack.add(n)
        work.append((n, iter(successors[n])))

    for root in nodes:
        if root in number:
            continue
        enter(root)
        while work:
            n, succ = work[-1]
            for m in succ:
                if m not in number:
                    enter(m)
                    break
                if m in on_stack:
                    low[n] = min(low[n], number[m])
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    low[caller] = min(low[caller], low[n])
                if low[n] == number[n]:
                    members = []
                    while not members or members[-1] != n:
                        members.append(stack.pop())
                        on_stack.discard(members[-1])
                    members.sort(key=rank.__getitem__)
                    out.append((members, len(members) > 1 or n in successors[n]))
    return out
