import pathlib
import random
import sys

import pytest

TESTS_DIR = pathlib.Path(__file__).parent
PROGRAMS_DIR = TESTS_DIR / "programs"
sys.path.insert(0, str(TESTS_DIR))

SUITE = ["const", "letchain", "branch", "casetest", "observe", "failtest",
         "mutual", "pcfg", "pcfgw"]
# programs where every if/case code path has nonzero weight, so derivation
# trees and interpreter code paths are in bijection (pcfgw's string
# constraint gives some trees weight zero)
BRANCHING_SUITE = [n for n in SUITE if n != "pcfgw"]

# `fail` as a let-bound value, a call argument (the only one of `g`), a case
# scrutinee, an observe value, a tuple element and an if condition, each on
# one of two paths; none of these programs can return `true`
FAIL_POSITIONS = {
    "let-bound": "if sample c[u] then (let x = fail in A) else B",
    "call-argument": "fun f(x) = (x, A); if sample c[u] then f(fail) else f(B)",
    "only-argument": "fun g(x) = A; if sample c[u] then g(fail) else B",
    "case-scrutinee": "if sample c[u] then (case fail of inl(l) => A | inr(r) => r) else B",
    "observe-value": "if sample c[u] then observe fail <- c[u] else false",
    "tuple-element": "if sample c[u] then (A, fail) else (B, B)",
    "if-condition": "if sample c[u] then (if fail then A else B) else B",
}
FAIL_PARAMS = {"params": {"c": {"u": {"true": 0.5, "false": 0.5}}},
               "domains": {"atoms": ["A", "B"]}}


def load_program(name):
    from fggc.params import load_params
    source = (PROGRAMS_DIR / f"{name}.ppl").read_text()
    params = load_params(str(PROGRAMS_DIR / f"{name}.params.json"))
    return source, params


def cnf_pcfgw(n, seed=1):
    """pcfgw.ppl scoring a random n-symbol string over a, b, c under a
    random proper CNF grammar on the nonterminals S, T, U, V, as the
    benchmark's string-scoring queries do."""
    from fggc.params import params_from_json
    rng = random.Random(f"cnf-{seed}-{n}")
    nonterminals, terminals = "STUV", "abc"
    p = {}
    for x in nonterminals:
        rhss = [f"inl {t}" for t in terminals]
        rhss += [f"inr ({y},{z})" for y in nonterminals for z in nonterminals]
        weights = [rng.random() for _ in rhss]
        p[x] = {r: w / sum(weights) for r, w in zip(rhss, weights)}
    w = "".join(rng.choice(terminals) for _ in range(n))
    source = (PROGRAMS_DIR / "pcfgw.ppl").read_text()
    return source, params_from_json({"params": {"p": p}, "inputs": {"w0": w}})


@pytest.fixture
def programs_dir():
    return PROGRAMS_DIR
