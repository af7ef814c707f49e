"""Acceptance criteria, one test per criterion.

Each test prints a single line "criterion N (<name>): PASS" on success; a
failed assertion marks the criterion failed. Tolerances: exact oracle
cross-checks at 1e-12, fixed-point limits at 1e-8, CKY equivalence at 1e-9.
"""

import itertools
import json
import random

import numpy as np
import pytest

import reference_impl
from conftest import BRANCHING_SUITE, PROGRAMS_DIR, SUITE, load_program
from fixtures import pcfg_depth2_derivation, pcfg_fgg, pcfg_tree_graph
from fggc.cli import main as cli_main
from fggc.fgg import isomorphic, yield_graph
from fggc.frontend import check_program
from fggc.inference import (DIVERGENT, OpCounter, rule_contribution,
                            solve_fixed_point, query_start)
from fggc.oracle import (branches, enumerate_derivations, inside_reference,
                         interpret, truncated_wX)
from fggc.params import params_from_json
from fggc.translate import compile_source
from fggc.values import Atom, Inl, Inr, Pair, Unit


def _weight_map(tensor):
    return {v: w for (v,), w in tensor.items()}


def test_criterion_1_semantics_preservation():
    # interpreter vs truncated derivation sums, exactly; fixed point vs the
    # oracle limit (exact enumeration for finite-branch programs, closed
    # forms computed here for the recursive ones)
    assert len(SUITE) >= 8
    for name in SUITE:
        source, params = load_program(name)
        program, _ = check_program(source, params)
        g = compile_source(source, params).fgg
        for d in range(1, 5):
            wm = interpret(program, params, d + 1)
            t = _weight_map(truncated_wX(g, g.start, d))
            for v in set(wm) | set(t):
                assert abs(wm.get(v, 0.0) - t.get(v, 0.0)) <= 1e-12, (name, d, v)
        st = solve_fixed_point(g)
        assert st.status == "converged", name
        limit = _oracle_limit(name, program, params)
        got = _weight_map(st.tau[g.start])
        for v in set(limit) | set(got):
            assert abs(limit.get(v, 0.0) - got.get(v, 0.0)) <= 1e-8, (name, v)
    print("criterion 1 (semantics preservation): PASS")


def _oracle_limit(name, program, params):
    if name == "pcfg":
        # total mass is the least root of 0.3 z^2 - z + 0.7 = 0
        z = min(r.real for r in np.roots([0.3, -1.0, 0.7]) if abs(r.imag) < 1e-12)
        return {Unit(): z}
    if name == "mutual":
        # even-true mass E satisfies E = 0.5 + 0.25 E; the parameters are
        # proper and the program has no observe, so the rest of the unit
        # mass lands on false
        e_true = float(np.linalg.solve(np.array([[1.0 - 0.25]]),
                                       np.array([0.5]))[0])
        from fggc.values import Bool
        return {Bool(True): e_true, Bool(False): 1.0 - e_true}
    # finite branch set: deep enumeration is exact
    return interpret(program, params, 12)


def test_criterion_2_least_fixed_point():
    source, params = load_program("pcfg")
    g = compile_source(source, params).fgg
    st = solve_fixed_point(g, tol=1e-10)
    assert st.status == "converged"
    # within 40 iterations the start weight is already 1e-6 close to Z = 1
    st40 = solve_fixed_point(g, max_iter=40, tol=0.0)
    assert abs(st40.tau[g.start].total() - 1.0) < 1e-6
    variant = params_from_json(
        {"params": {"p": {"S": {"inl a": 0.2, "inr (S,S)": 0.8}}}})
    g2 = compile_source(source, variant).fgg
    st2 = solve_fixed_point(g2)
    assert abs(st2.tau[g2.start].total() - 0.25) < 1e-6
    # entrywise monotone nondecreasing iterates
    prev = {n: t.data.copy() for n, t in
            solve_fixed_point(g, max_iter=1, tol=0.0).tau.items()}
    for it in range(2, 45):
        cur = solve_fixed_point(g, max_iter=it, tol=0.0).tau
        for n, t in cur.items():
            assert np.all(t.data >= prev[n] - 1e-15), (n, it)
        prev = {n: t.data.copy() for n, t in cur.items()}
    print("criterion 2 (least fixed point): PASS")


def _random_proper_cnf(rng, nts=("S", "T"), terms=("a", "b")):
    p = {}
    for x in nts:
        rhss = [f"inl {t}" for t in terms] + [
            f"inr ({y},{z})" for y in nts for z in nts]
        ws = [rng.random() for _ in rhss]
        total = sum(ws)
        p[x] = {r: w / total for r, w in zip(rhss, ws)}
    return p


def _as_inside_tables(p):
    out = {}
    for x, dist in p.items():
        row = {}
        for rtext, w in dist.items():
            if rtext.startswith("inl "):
                row[Inl(Atom(rtext[4:]))] = w
            else:
                y, z = rtext[5:-1].split(",")
                row[Inr(Pair(Atom(y), Atom(z)))] = w
        out[Atom(x)] = row
    return out


def test_criterion_3_cky_equivalence():
    source = (PROGRAMS_DIR / "pcfgw.ppl").read_text()
    rng = random.Random(20240817)
    for _ in range(3):
        p = _random_proper_cnf(rng)
        tables = _as_inside_tables(p)
        for length in range(1, 7):
            for chars in itertools.product("ab", repeat=length):
                w = "".join(chars)
                params = params_from_json({"params": {"p": p},
                                           "inputs": {"w0": w}})
                g = compile_source(source, params).fgg
                got = query_start(g, tol=1e-12).total()
                want = inside_reference(tables, w, "S")
                assert abs(got - want) <= 1e-9, (w, got, want)
    print("criterion 3 (CKY equivalence): PASS")


def test_criterion_4_yield_fidelity():
    g = pcfg_fgg()
    derived = yield_graph(pcfg_depth2_derivation(g), g.labels)
    assert isomorphic(derived, pcfg_tree_graph())
    print("criterion 4 (yield fidelity): PASS")


def test_criterion_5_code_path_bijection():
    for name in BRANCHING_SUITE:
        source, params = load_program(name)
        program, _ = check_program(source, params)
        g = compile_source(source, params).fgg
        for d in range(1, 5):
            paths = {b.path for b in branches(program, params, d)
                     if b.depth <= d}
            trees = enumerate_derivations(g, g.start, d)
            assert len(paths) == len(trees), (name, d, len(paths), len(trees))
    print("criterion 5 (code-path bijection): PASS")


def _start_map(g):
    st = solve_fixed_point(g)
    assert st.status == "converged"
    return _weight_map(st.tau[g.start])


def test_criterion_6_pass_safety():
    # the compiled grammar, whose copies are merged and whose rules with an
    # all-zero table are dropped, against the paper's translation
    recursive = {"pcfg", "mutual", "pcfgw"}
    for name in SUITE:
        source, params = load_program(name)
        # non-recursive programs reach their fixed point exactly, so the
        # start weights must agree to 1e-12; recursive ones carry the
        # solver truncation error, so compare at 1e-8
        tol = 1e-8 if name in recursive else 1e-12
        program, _ = check_program(source, params)
        paper = reference_impl.translate(program, params).fgg
        g = compile_source(source, params).fgg
        base, got = _start_map(paper), _start_map(g)
        for v in set(base) | set(got):
            assert abs(base.get(v, 0.0) - got.get(v, 0.0)) <= tol, (name, v)
        for size in (lambda r: 1, lambda r: len(r.rhs.nodes), lambda r: len(r.rhs.edges)):
            assert sum(map(size, g.rules)) <= sum(map(size, paper.rules)), name
    print("criterion 6 (pass safety): PASS")


def test_criterion_7_elimination_cost_scaling():
    source = (PROGRAMS_DIR / "pcfgw.ppl").read_text()

    def ops_for(n):
        params = params_from_json({
            "params": {"p": {"S": {"inl a": 0.5, "inr (S,S)": 0.5}}},
            "inputs": {"w0": "a" * n}})
        g = compile_source(source, params).fgg
        (rule,) = [r for r in g.rules if r.lhs != g.start
                   and sum(1 for e in r.rhs.edges
                           if g.labels[e.label].is_nonterminal) == 2]
        st = solve_fixed_point(g, max_iter=5)
        counter = OpCounter()
        rule_contribution(g, rule, st.tau, counter=counter)
        return counter.ops

    lengths = [4, 6, 8, 12]
    counts = [ops_for(n) for n in lengths]
    for (n1, c1), (n2, c2) in zip(zip(lengths, counts),
                                  zip(lengths[1:], counts[1:])):
        ratio = c2 / c1
        ideal = (n2 / n1) ** 3
        assert 0.5 <= ratio / ideal <= 2.0, (n1, n2, ratio, ideal)
    print("criterion 7 (elimination-cost scaling): PASS")


def test_criterion_8_divergence_robustness(tmp_path, capsys):
    source, _ = load_program("pcfg")
    improper = params_from_json(
        {"params": {"p": {"S": {"inl a": 0.2, "inr (S,S)": 1.8}}}})
    g = compile_source(source, improper).fgg
    st = solve_fixed_point(g)
    assert st.status == DIVERGENT
    assert st.iteration < 10000
    assert all(np.all(np.isfinite(t.data)) for t in st.tau.values())
    # the CLI reports it with exit code 3
    params_path = tmp_path / "improper.json"
    params_path.write_text(json.dumps(
        {"params": {"p": {"S": {"inl a": 0.2, "inr (S,S)": 1.8}}}}))
    code = cli_main(["infer", str(PROGRAMS_DIR / "pcfg.ppl"),
                     "--params", str(params_path)])
    capsys.readouterr()
    assert code == 3
    print("criterion 8 (divergence robustness): PASS")
