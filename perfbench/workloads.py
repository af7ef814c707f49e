"""Seeded query sets for the benchmark, and the oracle answer of each query.

A query is one call of the library as `fggc infer PROG.ppl --params P.json`
makes it: source text and a parameter object in, start-symbol weights out.
Every input is drawn from `random.Random` seeded with the workload name and
the seed, so one seed always gives byte-identical queries. Sizes come from
a fixed grid (cky lengths; programs' function counts crossed with their
alphabets) or from stratified draws (one draw per equal-width stratum,
jittered within it), so that two seeds exercise the same mix of sizes and
the run-to-run spread comes from the system, not from the luck of the draw.

The oracles share only the parser and the parameter reader with the
compiler: `inside_reference` is a textbook CKY chart, the recursive
programs have closed forms, and `interpret` enumerates the execution
branches of the parsed source program directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from fggc.frontend import desugar
from fggc.oracle import inside_reference, interpret
from fggc.parser import parse
from fggc.params import params_from_json
from fggc.values import FALSE, TRUE, UNIT

# Verbatim copies of tests/programs/{pcfgw,pcfg,mutual}.ppl, frozen here so
# the benchmark's inputs do not move when the test fixtures are edited.
PCFGW = """\
# PCFG string scorer: d consumes a prefix of w, returns the rest
fun d(x, w) =
  case sample p[x] of
    inl(a) => if w != nil and car(w) = a then cdr(w) else fail
  | inr(yz) => let w2 = d(fst(yz), w) in d(snd(yz), w2);
if d(S, w0) = nil then unit else fail
"""

PCFG = """\
# generative PCFG sampler: derives a tree, returns unit
fun gen(x) =
  case sample p[x] of
    inl(a) => unit
  | inr(yz) => let u = gen(fst(yz)) in gen(snd(yz));
gen(S)
"""

MUTUAL = """\
# mutually recursive parity of a geometric chain length
fun even(n) = case sample p[n] of inl(stop) => true | inr(m) => odd(m);
fun odd(n) = case sample p[n] of inl(stop) => false | inr(m) => even(m);
even(N)
"""

# cky: half-octave string lengths 8 * 2^(k/2), so the median query sits in
# the middle stratum (n=23) and every seed has the same length mix.
CKY_LENGTHS = (8, 11, 16, 23, 32, 45, 64)
CKY_GRAMMARS_PER_LENGTH = 15
CKY_NONTERMINALS = ("S", "T", "U", "V")
CKY_TERMINALS = ("a", "b", "c")

# recursion: per program, one draw per stratum of the stated range.
RECURSION_PER_PROGRAM = 24
PCFG_BRANCH = (0.2, 0.5)        # b, uniform
MUTUAL_STOP = (1e-3, 0.5)       # s, log-uniform

# programs: every seed generates one program per (function count, alphabet)
# pair of this fixed grid, 24 in all; only the program structure varies.
# The function counts are the midpoints of eight equal strata of 30-60.
PROGRAM_FUNCTIONS = (31, 35, 39, 43, 47, 51, 55, 59)
PROGRAM_ALPHABETS = (4, 5, 6)
# Effects go one to each of seven equal strata of the functions in level
# order, in this order, so that their depths do not move with the seed.
PROGRAM_EFFECTS = ("observe", "sample", "observe", "sample", "observe", "sample", "observe")


@dataclass(frozen=True)
class Query:
    qid: str
    kind: str          # "pcfgw", "pcfg", "mutual" or "program"
    source: str
    params: dict       # parameter file contents, as `load_params` reads them
    size: dict         # the drawn size parameters, for reports


def _strata(rng: random.Random, count: int):
    """One jittered draw in each of `count` equal strata of [0, 1)."""
    return [(i + rng.random()) / count for i in range(count)]


# ---------------------------------------------------------------------------
# cky


def random_proper_cnf(rng: random.Random) -> dict:
    """A proper CNF grammar: every nonterminal's rule weights sum to one."""
    p = {}
    for x in CKY_NONTERMINALS:
        rhss = [f"inl {t}" for t in CKY_TERMINALS] + [
            f"inr ({y},{z})" for y in CKY_NONTERMINALS for z in CKY_NONTERMINALS]
        ws = [rng.random() for _ in rhss]
        total = sum(ws)
        p[x] = {r: w / total for r, w in zip(rhss, ws)}
    return p


def cky_queries(seed: int) -> list[Query]:
    rng = random.Random(f"cky-{seed}")
    out = []
    for j in range(CKY_GRAMMARS_PER_LENGTH):
        for n in CKY_LENGTHS:
            p = random_proper_cnf(rng)
            w = "".join(rng.choice(CKY_TERMINALS) for _ in range(n))
            out.append(Query(f"cky-{seed}-{j}-n{n}", "pcfgw", PCFGW,
                             {"params": {"p": p}, "inputs": {"w0": w}}, {"n": n}))
    return out


# ---------------------------------------------------------------------------
# recursion


def pcfg_params(b: float) -> dict:
    return {"params": {"p": {"S": {"inl a": 1.0 - b, "inr (S,S)": b}}}}


def mutual_params(s: float) -> dict:
    return {"params": {"p": {"N": {"inl stop": s, "inr N": 1.0 - s}}}}


def pcfg_total(b: float) -> float:
    """Least solution of Z = (1-b) + b Z^2."""
    return (1.0 - math.sqrt(1.0 - 4.0 * b * (1.0 - b))) / (2.0 * b)


def mutual_parity(s: float) -> dict:
    """P(even returns true) and P(false) for stop probability s."""
    return {TRUE: 1.0 / (2.0 - s), FALSE: (1.0 - s) / (2.0 - s)}


def recursion_queries(seed: int) -> list[Query]:
    rng = random.Random(f"recursion-{seed}")
    lo, hi = PCFG_BRANCH
    bs = [lo + u * (hi - lo) for u in _strata(rng, RECURSION_PER_PROGRAM)]
    lo, hi = (math.log(v) for v in MUTUAL_STOP)
    ss = [math.exp(lo + u * (hi - lo)) for u in _strata(rng, RECURSION_PER_PROGRAM)]
    rng.shuffle(bs)
    rng.shuffle(ss)
    out = []
    for i, (b, s) in enumerate(zip(bs, ss)):
        out.append(Query(f"recursion-{seed}-pcfg-{i}", "pcfg", PCFG, pcfg_params(b), {"b": b}))
        out.append(Query(f"recursion-{seed}-mutual-{i}", "mutual", MUTUAL,
                         mutual_params(s), {"s": s}))
    return out


# ---------------------------------------------------------------------------
# programs


class _ProgramWriter:
    """Writes the body of each function of a generated program.

    Every body has one shape: one or two `let`s binding atoms, then an `if`
    or a `case` whose two arms are pair-valued. Each arm returns a child's
    result or a pair of atoms; further children are bound by the `let`s.
    Each child is called exactly once, so the call graph is the generated
    tree and the program size is set by the number of functions. Half the
    bodies, chosen at random, branch with `case`, the others with `if`. Call
    arguments and conditions use variables only, and a condition compares
    two different ones, so few branches are dead. The language has no `not`,
    so negation is written as `!=` or `if ... then false else true`.
    """

    def __init__(self, rng: random.Random, atoms: list[str]):
        self.rng = rng
        self.atoms = atoms

    def var(self, env: list[str]) -> str:
        return self.rng.choice(env)

    def value(self, env: list[str]) -> str:
        """A variable, or one time in five an atom literal."""
        return self.rng.choice(env) if self.rng.random() < 0.8 else self.rng.choice(self.atoms)

    def cond(self, env: list[str]) -> str:
        a, b = self.rng.sample(env, 2)
        r = self.rng.random()
        if r < 0.45:
            return f"{a} = {b}"
        if r < 0.9:
            return f"{a} != {b}"
        return f"(if {a} = {b} then false else true)"

    def call(self, child: str, env: list[str]) -> str:
        return f"{child}({self.var(env)}, {self.var(env)})"

    def half(self, child: str, env: list[str]) -> str:
        return f"{self.rng.choice(('fst', 'snd'))}({self.call(child, env)})"

    def arm(self, env: list[str], child: str | None) -> str:
        if child:
            return self.call(child, env)
        return f"({self.value(env)}, {self.value(env)})"

    def body(self, children: list[str], effect: str, use_case: bool) -> str:
        env = ["x", "y"]
        bound = []
        if effect == "sample":
            bound.append(f"sample c[{self.var(env)}]")
        elif effect == "observe":
            bound.append(f"observe {self.var(env)} <- o[{self.var(env)}]")
        arms = children[-2:] + [None] * (2 - len(children[-2:]))
        self.rng.shuffle(arms)
        bound += [self.half(c, env) for c in children[:-2]]
        if not bound:
            bound.append(self.var(env))
        head = ""
        for i, expr in enumerate(bound, 1):
            head += f"let u{i} = {expr} in "
            env = env + [f"u{i}"]
        if not use_case:
            return (head + f"if {self.cond(env)} then {self.arm(env, arms[0])} "
                    f"else {self.arm(env, arms[1])}")
        scrut = (f"(if {self.cond(env)} then inl({self.value(env)}) "
                 f"else inr({self.value(env)}))")
        return (head + f"case {scrut} of inl(l) => {self.arm(env + ['l'], arms[0])} "
                f"| inr(r) => {self.arm(env + ['r'], arms[1])}")


def tree_levels(nfun: int) -> list[int]:
    """The number of functions at each depth of the call tree: the root,
    two, three, then the rest spread evenly over depths 3 to nfun // 4.
    Solve iterations and `simplify` time follow the depth, so the shape is
    fixed by `nfun` and only which parent each function hangs from varies."""
    depth = nfun // 4
    rest = nfun - 6
    spread = [rest // (depth - 2) + (i < rest % (depth - 2)) for i in range(depth - 2)]
    return [1, 2, 3] + spread


def random_program(rng: random.Random, k: int, nfun: int) -> tuple[str, dict]:
    """A non-recursive program of `nfun` two-argument functions over a
    k-atom alphabet, whose call graph is a random tree rooted at f0 with the
    level widths of `tree_levels`, and its parameter file. The main
    expression samples both arguments of f0 from the whole alphabet; three
    functions sample (support 3, weights at least 0.2/3) and four observe
    (densities in [0.1, 1])."""
    atoms = [chr(ord("A") + i) for i in range(k)]
    writer = _ProgramWriter(rng, atoms)
    children: dict[int, list[str]] = {i: [] for i in range(nfun)}
    above, start = [0], 1
    for width in tree_levels(nfun)[1:]:
        level = list(range(start, start + width))
        for i in level:
            parent = rng.choice([j for j in above if len(children[j]) < 3])
            children[parent].append(f"f{i}")
        above, start = level, start + width
    effects = ["pure"] * nfun
    for n, effect in enumerate(PROGRAM_EFFECTS):
        lo, hi = n * nfun // len(PROGRAM_EFFECTS), (n + 1) * nfun // len(PROGRAM_EFFECTS)
        effects[rng.randrange(lo, hi)] = effect
    cases = [i < nfun // 2 for i in range(nfun)]
    rng.shuffle(cases)
    lines = [f"fun f{i}(x, y) = {writer.body(children[i], effects[i], cases[i])};"
             for i in range(nfun)]
    lines.append("let x = sample top[A] in let y = sample top[B] in f0(x, y)")
    top = {}
    for v in ("A", "B"):
        ws = [0.2 + 0.8 * rng.random() for _ in atoms]
        top[v] = {a: w / sum(ws) for a, w in zip(atoms, ws)}
    c, o = {}, {}
    for a in atoms:
        support = rng.sample(atoms, 3)
        ws = [0.2 + 0.8 * rng.random() for _ in support]
        c[a] = {v: w / sum(ws) for v, w in zip(support, ws)}
        o[a] = {v: 0.1 + 0.9 * rng.random() for v in atoms}
    params = {"domains": {"atoms": atoms}, "params": {"top": top, "c": c, "o": o}}
    return "\n".join(lines) + "\n", params


def programs_queries(seed: int) -> list[Query]:
    rng = random.Random(f"programs-{seed}")
    out = []
    for i, (nfun, k) in enumerate((n, k) for n in PROGRAM_FUNCTIONS for k in PROGRAM_ALPHABETS):
        source, params = random_program(rng, k, nfun)
        out.append(Query(f"programs-{seed}-{i}", "program", source, params,
                         {"functions": nfun, "alphabet": k}))
    return out


def structural_depth_bound(source: str) -> int:
    """A depth bound for `interpret` above any branch's structural depth: a
    branch enters each function body and each if/case arm at most once per
    level, and a non-recursive program has fewer levels than keywords."""
    words = source.replace("(", " ").split()
    return 2 + sum(1 for t in words if t in ("fun", "if", "case"))


# ---------------------------------------------------------------------------


WORKLOADS = {
    "cky": cky_queries,
    "recursion": recursion_queries,
    "programs": programs_queries,
}


def queries(workload: str, seed: int) -> list[Query]:
    return WORKLOADS[workload](seed)


def oracle(q: Query) -> dict:
    """Start-symbol weights the query must produce, keyed by value."""
    if q.kind == "pcfgw":
        grammar = params_from_json(q.params).params["p"]
        return {UNIT: inside_reference(grammar, q.params["inputs"]["w0"], "S")}
    if q.kind == "pcfg":
        return {UNIT: pcfg_total(q.size["b"])}
    if q.kind == "mutual":
        return mutual_parity(q.size["s"])
    program = desugar(parse(q.source))
    return interpret(program, params_from_json(q.params), structural_depth_bound(q.source))
