"""The benchmark's own checks: seeded inputs, repeatable counts, oracles
against hand-checked values, and the result format of run.py."""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import harness
import run
import workloads
from fggc.oracle import inside_reference
from fggc.params import load_params, params_from_json
from fggc.values import FALSE, TRUE, UNIT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs(name):
    def dump(seed):
        return [json.dumps(asdict(q), sort_keys=True) for q in workloads.queries(name, seed)]

    first, again, other = dump(7), dump(7), dump(8)
    assert "\n".join(first).encode() == "\n".join(again).encode()
    assert first != other


def test_strata_cover_the_stated_ranges():
    cky = workloads.queries("cky", 1)
    lengths = sorted(len(q.params["inputs"]["w0"]) for q in cky)
    assert lengths == sorted(workloads.CKY_LENGTHS * workloads.CKY_GRAMMARS_PER_LENGTH)
    rec = workloads.queries("recursion", 1)
    bs = sorted(q.size["b"] for q in rec if q.kind == "pcfg")
    ss = sorted(q.size["s"] for q in rec if q.kind == "mutual")
    assert 0.2 <= bs[0] and bs[-1] < 0.5 and 1e-3 <= ss[0] and ss[-1] < 0.5
    progs = workloads.queries("programs", 1)
    grid = sorted((n, k) for n in workloads.PROGRAM_FUNCTIONS for k in (4, 5, 6))
    assert sorted((q.size["functions"], q.size["alphabet"]) for q in progs) == grid
    assert all(30 <= n <= 60 for n, _ in grid) and len(progs) >= 22
    assert all("not(" not in q.source for q in progs)


def test_program_shape_is_fixed_by_size():
    for n in workloads.PROGRAM_FUNCTIONS:
        levels = workloads.tree_levels(n)
        assert sum(levels) == n and levels[0] == 1
        assert all(b <= 3 * a for a, b in zip(levels, levels[1:]))
    for q in workloads.queries("programs", 4):
        bodies = q.source.splitlines()[:-1]
        depth = {0: 0}
        for i, body in enumerate(bodies):
            for child in re.findall(r"f(\d+)\(", body.split("=", 1)[1]):
                depth[int(child)] = depth[i] + 1
        assert sorted(depth) == list(range(len(bodies)))
        assert max(depth.values()) == len(workloads.tree_levels(len(bodies))) - 1
        assert sum("case (" in b for b in bodies) == len(bodies) // 2
        assert sum("sample c[" in b for b in bodies) == 3
        assert sum("observe" in b for b in bodies) == 4


def _small_cases():
    cky = [q for q in workloads.queries("cky", 2)[:2]]
    rec = [workloads.Query("pcfg", "pcfg", workloads.PCFG, workloads.pcfg_params(0.3),
                           {"b": 0.3}),
           workloads.Query("mutual", "mutual", workloads.MUTUAL,
                           workloads.mutual_params(0.5), {"s": 0.5})]
    prog = min(workloads.queries("programs", 2), key=lambda q: q.size["functions"])
    return cky + rec + [prog]


def test_counts_repeat_and_tracing_changes_no_result():
    tracer = harness.Tracer()
    for q in _small_cases():
        params = params_from_json(q.params)
        want = workloads.oracle(q)
        a = harness.judge(harness.run_query(q.source, params), want)
        b = harness.judge(harness.run_query(q.source, params), want)
        t, root, layer = harness.run_traced_query(tracer, q.qid, q.source, params)
        harness.judge(t, want)
        assert a.counts == b.counts, q.qid
        assert a.answer == b.answer == t.answer, q.qid
        assert (a.counts["iterations"], a.counts["ops"]) == (layer["iterations"], layer["ops"])
        assert a.counts["rules"] == layer["simplify"]["rules"]
        assert a.counts["fired"] == layer["fired"]
        assert a.status == t.status and a.ok == t.ok and a.explained
        selfs = tracer.self_times(root)
        assert abs(sum(selfs.values()) - (root.end - root.start)) < 1e-9


def test_generated_program_matches_interpreter():
    q = min(workloads.queries("programs", 3), key=lambda q: q.size["functions"])
    out = harness.judge(harness.run_query(q.source, params_from_json(q.params)),
                        workloads.oracle(q))
    assert out.ok, (out.status, out.rel_err)


def test_mutual_oracle_hand_value():
    p = workloads.mutual_parity(0.5)
    assert p[TRUE] == pytest.approx(2 / 3, abs=1e-15)
    assert p[FALSE] == pytest.approx(1 / 3, abs=1e-15)


def test_pcfg_oracle_is_least_root():
    for b in (0.2, 0.35, 0.5):
        assert workloads.pcfg_total(b) == pytest.approx(1.0, abs=1e-12)
    assert workloads.pcfg_total(0.6) == pytest.approx(2 / 3, abs=1e-12)


def test_inside_reference_on_fixture():
    # S -> S S (0.5), S -> a (0.25), S -> b (0.25): "ab" has one parse
    params = load_params(str(ROOT / "tests" / "programs" / "pcfgw.params.json"))
    assert inside_reference(params.params["p"], "ab", "S") == pytest.approx(
        0.5 * 0.25 * 0.25, abs=1e-15)


def test_judge_separates_known_defect_from_wrong_answers():
    want = {UNIT: 0.5}
    low = harness.judge(harness.Outcome(0.1, 0.1, status="converged", answer={UNIT: 0.4}), want)
    assert not low.ok and low.explained and low.rel_err == pytest.approx(0.2)
    high = harness.judge(harness.Outcome(0.1, 0.1, status="converged", answer={UNIT: 0.6}), want)
    assert not high.ok and not high.explained
    stuck = harness.judge(harness.Outcome(0.1, 0.1, status="max-iter", answer={UNIT: 0.5}), want)
    assert not stuck.ok and stuck.explained
    raised = harness.judge(harness.Outcome(0.1, 0.0, error="DomainError: x"), want)
    assert not raised.ok and not raised.explained


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 13)]) == (7.0, 7 / 12 * 100)
    samples = [(harness.Outcome(t, 0.0), k) for t, k in
               ((1, 1.0), (5, 1.0), (2, 0.5), (3, 1.0), (4, 1.0), (6, 0.5), (8, 2.0))]
    assert run.per_query(samples, 3, "latency_s") == [3.0, 4.5, 2.0]


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {n: u for n, (u, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {n: u for n, (u, _) in run.PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_run_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cky",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
