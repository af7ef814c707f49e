"""Seeded generator of non-recursive test programs (stdlib `random` only).

A program has `nfun` two-argument functions f0 .. f{nfun-1} over a small
alphabet of atoms. Their call graph is a random tree rooted at f0, so every
function is reachable from the main expression and none is recursive. Each
body first binds the results of its calls with `let`, then returns a random
expression of nested `let`, `if`, `case`, `sample` and `observe` over the
variables in scope.
"""

from __future__ import annotations

import random

ATOMS = ("a", "b", "c")


class _Writer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.fresh = 0

    def name(self, base: str) -> str:
        self.fresh += 1
        return f"{base}{self.fresh}"

    def leaf(self, env: list[str]) -> str:
        return self.rng.choice(env) if self.rng.random() < 0.8 else self.rng.choice(ATOMS)

    def cond(self, env: list[str]) -> str:
        a, b = self.leaf(env), self.rng.choice(env)
        return f"{a} {self.rng.choice(('=', '!='))} {b}"

    def expr(self, env: list[str], depth: int) -> str:
        if depth == 0:
            return self.leaf(env)
        r = self.rng.random()
        if r < 0.3:
            x = self.name("v")
            return (f"let {x} = {self.expr(env, depth - 1)} in "
                    f"{self.expr(env + [x], depth - 1)}")
        if r < 0.55:
            return (f"if {self.cond(env)} then {self.expr(env, depth - 1)} "
                    f"else {self.expr(env, depth - 1)}")
        if r < 0.8:
            left, right = self.name("l"), self.name("r")
            scrut = (f"(if {self.cond(env)} then inl({self.leaf(env)}) "
                     f"else inr({self.leaf(env)}))")
            return (f"case {scrut} of inl({left}) => ({self.expr(env + [left], depth - 1)}) "
                    f"| inr({right}) => {self.expr(env + [right], depth - 1)}")
        if r < 0.9:
            return f"sample c[{self.rng.choice(env)}]"
        return f"observe {self.rng.choice(env)} <- o[{self.rng.choice(env)}]"

    def body(self, children: list[str], depth: int) -> str:
        env = ["x", "y"]
        head = ""
        for child in children:
            u = self.name("u")
            head += f"let {u} = {child}({self.rng.choice(env)}, {self.rng.choice(env)}) in "
            env = env + [u]
        return head + self.expr(env, depth)


def random_program(rng: random.Random, nfun: int, depth: int = 3) -> tuple[str, dict]:
    """Source text and parameter-file object of one generated program."""
    writer = _Writer(rng)
    children: dict[int, list[str]] = {i: [] for i in range(nfun)}
    for i in range(1, nfun):
        children[rng.randrange(i)].append(f"f{i}")
    lines = [f"fun f{i}(x, y) = {writer.body(children[i], depth)};" for i in range(nfun)]
    lines.append("let x = sample c[a] in f0(x, b)")
    c, o = {}, {}
    for a in ATOMS:
        support = rng.sample(ATOMS, 2)
        w = 0.2 + 0.6 * rng.random()
        c[a] = {support[0]: w, support[1]: 1.0 - w}
        o[a] = {v: 0.1 + 0.9 * rng.random() for v in ATOMS}
    params = {"domains": {"atoms": list(ATOMS)}, "params": {"c": c, "o": o}}
    return "\n".join(lines) + "\n", params
