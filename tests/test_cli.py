import json
import re

import numpy as np
import pytest

from conftest import FAIL_PARAMS, FAIL_POSITIONS, PROGRAMS_DIR, load_program
from fggc import cli
from fggc import fgg as fggmod
from fggc.cli import main
from fggc.fgg import FactorTable, StructuralError
from fggc.frontend import DomainError, check_program
from fggc.inference import InferenceError
from fggc.oracle import OracleError
from fggc.params import ParamError, Params, params_from_json
from fggc.parser import ParseError, parse
from fggc.translate import compile_source
from fggc.values import FggcError, ValueSyntaxError


def _p(name, kind="ppl"):
    return str(PROGRAMS_DIR / f"{name}.{kind}")


def _params(name):
    return str(PROGRAMS_DIR / f"{name}.params.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compile_to_stdout(capsys):
    code, out, err = run(capsys, "compile", _p("pcfg"), "--params", _params("pcfg"))
    assert code == 0
    g = fggmod.loads(out)
    assert len(g.rules) == 3


def test_compile_writes_sidecar(tmp_path, capsys):
    out_path = tmp_path / "pcfg.json"
    code, out, err = run(capsys, "compile", _p("pcfg"), "--params",
                         _params("pcfg"), "--out", str(out_path))
    assert code == 0
    g = fggmod.loads(out_path.read_text())
    assert len(g.rules) == 3
    side = json.loads((tmp_path / "pcfg.json.provenance.json").read_text())
    assert list(side) == ["provenance"]


def test_sidecar_names_only_grammar_labels(tmp_path, capsys):
    out_path = tmp_path / "pcfgw.json"
    code, _, _ = run(capsys, "compile", _p("pcfgw"), "--params",
                     _params("pcfgw"), "--out", str(out_path))
    assert code == 0
    labels = {l["name"] for l in json.loads(out_path.read_text())["labels"]}
    side = json.loads((tmp_path / "pcfgw.json.provenance.json").read_text())
    assert side["provenance"] and set(side["provenance"]) <= labels
    cu = compile_source(*load_program("pcfgw"))
    assert set(cu.provenance) <= set(cu.fgg.labels)
    # every variable's copy is merged away in pcfgw
    assert not [name for name in cu.fgg.labels if name.startswith("copy@")]


@pytest.mark.parametrize("command", ["compile", "render"])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, where):
    """An --out in a directory that does not exist, or naming a directory,
    is diagnosed like an unreadable source: one error line, exit 2."""
    out_path = tmp_path / "missing" / "G.json" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, command, _p("pcfg"), "--params", _params("pcfg"),
                         "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert f"cannot write {str(out_path)!r}" in err
    _one_line_error(err)
    assert not (tmp_path / f"{out_path.name}.provenance.json").exists()


def test_unwritable_sidecar_leaves_no_grammar(tmp_path, capsys):
    """When the provenance sidecar cannot be written, `compile --out`
    exits 2 and leaves no grammar and no other file behind."""
    (tmp_path / "G.json.provenance.json").mkdir()
    code, out, err = run(capsys, "compile", _p("pcfg"), "--params", _params("pcfg"),
                         "--out", str(tmp_path / "G.json"))
    assert code == 2
    assert out == ""
    _one_line_error(err)
    assert [p.name for p in tmp_path.iterdir()] == ["G.json.provenance.json"]


@pytest.mark.parametrize("command", ["compile", "infer", "compare"])
def test_passes_flag_is_refused(capsys, command):
    """The translator builds the final grammar, so there is no pass list to
    choose: an old `--passes` command line exits 2 with one error line."""
    code, out, err = run(capsys, command, _p("pcfg"), "--params", _params("pcfg"),
                         "--passes", "none")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --passes none" in err
    _one_line_error(err)


def test_compile_broken_source(tmp_path, capsys):
    bad = tmp_path / "bad.ppl"
    bad.write_text("let x = in x")
    code, _, err = run(capsys, "compile", str(bad))
    assert code == 2
    assert "error" in err


def test_compile_missing_file(capsys):
    code, _, err = run(capsys, "compile", "no-such-file.ppl")
    assert code == 2


def test_infer_pcfg(capsys):
    code, out, _ = run(capsys, "infer", _p("pcfg"), "--params", _params("pcfg"))
    assert code == 0
    assert "status: converged" in out
    (value_line,) = [l for l in out.splitlines() if l.startswith("unit:")]
    assert abs(float(value_line.split(":")[1]) - 1.0) < 1e-6


def test_infer_divergent_exit_code(tmp_path, capsys):
    params = tmp_path / "div.json"
    params.write_text(json.dumps(
        {"params": {"p": {"S": {"inl a": 0.2, "inr (S,S)": 1.8}}}}))
    code, out, _ = run(capsys, "infer", _p("pcfg"), "--params", str(params))
    assert code == 3
    assert "divergent" in out


def test_large_finite_weight_without_recursion_converges(tmp_path, capsys):
    """A weight above the divergence bound in a one-pass component is exact."""
    src, params = tmp_path / "big.ppl", tmp_path / "big.params.json"
    src.write_text("sample p[a]")
    params.write_text(json.dumps({"params": {"p": {"a": {"b": 1e13}}},
                                  "domains": {"k": ["a", "b"]}}))
    code, out, _ = run(capsys, "infer", str(src), "--params", str(params))
    assert code == 0
    assert "status: converged" in out
    assert "b: 1e+13" in out


def test_infer_from_compiled_json_matches_source(tmp_path, capsys):
    """For every suite program, inferring from the grammar `compile --out`
    wrote prints what inferring from the source prints, byte for byte:
    every label's table is written, shared or not."""
    names = sorted(p.stem for p in PROGRAMS_DIR.glob("*.ppl"))
    assert "pcfg" in names
    for name in names:
        out_path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "compile", _p(name), "--params", _params(name),
                         "--out", str(out_path))
        assert code == 0
        code1, out1, _ = run(capsys, "infer", str(out_path))
        code2, out2, _ = run(capsys, "infer", _p(name), "--params", _params(name))
        assert code1 == code2, name
        assert out1 == out2, name  # same numbers to the last digit
        assert "iterations: " in out2 and "status: " in out2


def test_infer_max_iter_one(tmp_path, capsys):
    import sys
    sys.path.insert(0, str(PROGRAMS_DIR.parent))
    from fixtures import quadratic_fgg
    path = tmp_path / "quad.json"
    path.write_text(fggmod.dumps(quadratic_fgg()))
    code, out, _ = run(capsys, "infer", str(path), "--max-iter", "1")
    assert code == 5
    (line,) = [l for l in out.splitlines() if l.startswith("()")]
    assert float(line.split(":")[1]) == pytest.approx(0.7)
    assert "status: max-iter" in out


@pytest.mark.parametrize("flags,message", [
    (["--max-iter", "0"], "--max-iter must be at least 1"),
    (["--max-iter", "-3"], "--max-iter must be at least 1"),
    (["--tol", "0"], "--tol must be a positive finite number"),
    (["--tol=-1e-10"], "--tol must be a positive finite number"),
    (["--tol", "nan"], "--tol must be a positive finite number"),
    (["--tol", "inf"], "--tol must be a positive finite number"),
])
def test_infer_rejects_degenerate_solver_flags(capsys, flags, message):
    """No solve with these flags can report a meaningful weight: zero sweeps
    leave every weight 0, and a tolerance that is not positive and finite
    can never be met."""
    code, out, err = run(capsys, "infer", _p("const"), "--params", _params("const"), *flags)
    assert code == 2
    assert out == ""
    assert message in err
    _one_line_error(err)


@pytest.mark.parametrize("argv,message", [
    (["compare", _p("pcfg"), "--params", _params("pcfg"), "--tol", "nan"],
     "--tol must be a positive finite number"),
    (["compare", _p("pcfg"), "--params", _params("pcfg"), "--tol=-1"],
     "--tol must be a positive finite number"),
    (["compare", _p("pcfg"), "--params", _params("pcfg"), "--depth", "0"],
     "--depth must be at least 1"),
    (["compare", _p("pcfg"), "--params", _params("pcfg"), "--depth=-2"],
     "--depth must be at least 1"),
    (["enumerate", _p("pcfg"), "--params", _params("pcfg"), "--depth", "0"],
     "--depth must be at least 1"),
], ids=["compare-tol-nan", "compare-tol-negative", "compare-depth-0",
        "compare-depth-negative", "enumerate-depth-0"])
def test_compare_and_enumerate_reject_degenerate_flags(capsys, argv, message):
    """`delta > nan` is never true, so `--tol nan` would pass any grammar;
    a depth below 1 compares or enumerates nothing."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
    _one_line_error(err)


@pytest.mark.parametrize("argv,message", [
    (["infer", _p("const"), "--max-iter", "abc"], "invalid int value: 'abc'"),
    # argparse takes -1e-10 for an option, not a value
    (["infer", _p("const"), "--tol", "-1e-10"], "--tol: expected one argument"),
    (["frobnicate", _p("const")], "invalid choice: 'frobnicate'"),
])
def test_bad_arguments_end_in_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
    _one_line_error(err)


@pytest.mark.parametrize("source", [
    "fun f(x) = not(x); f(true)",
    "let x = sample c[u] in if not(x) then not(x = true) else not(false)",
])
def test_infer_not_matches_interpreter(tmp_path, capsys, source):
    from fggc.oracle import interpret
    from fggc.params import load_params
    from fggc.parser import parse
    src = tmp_path / "not.ppl"
    src.write_text(source + "\n")
    params = tmp_path / "not.params.json"
    params.write_text(json.dumps({"params": {"c": {"u": {"true": 0.3, "false": 0.7}}}}))
    code, out, _ = run(capsys, "infer", str(src), "--params", str(params))
    assert code == 0
    assert "status: converged" in out
    got = {l.split(":")[0]: float(l.split(":")[1]) for l in out.splitlines()
           if l.startswith(("true:", "false:"))}
    want = {v.key(): w for v, w in
            interpret(parse(source), load_params(str(params)), 4).items()}
    assert set(want) <= set(got)
    for value, weight in got.items():
        assert weight == pytest.approx(want.get(value, 0.0), abs=1e-12)


def test_twelve_significant_digits(capsys):
    code, out, _ = run(capsys, "infer", _p("observe"), "--params",
                       _params("observe"))
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("true:")][0]
    # 0.4 accumulates no error here; printed value parses back exactly
    assert float(line.split(":")[1]) == pytest.approx(0.4, abs=1e-12)


def test_compare_clean(capsys):
    code, out, _ = run(capsys, "compare", _p("pcfg"), "--params",
                       _params("pcfg"), "--depth", "4")
    assert code == 0
    assert "all comparisons within tolerance" in out


def test_compare_assigns_domains_once(capsys, monkeypatch):
    from fggc import frontend
    calls = []
    assign = frontend.assign_domains
    monkeypatch.setattr(frontend, "assign_domains",
                        lambda *args: calls.append(args) or assign(*args))
    code, _, _ = run(capsys, "compare", _p("pcfg"), "--params", _params("pcfg"))
    assert code == 0
    assert len(calls) == 1


def test_compare_truncates_each_depth_once(capsys, monkeypatch):
    """The fixed point is checked against the truncation at --depth that the
    depth loop's last pass made, not against a second one."""
    depths = []
    truncate = cli.truncated_wX
    monkeypatch.setattr(cli, "truncated_wX",
                        lambda g, start, d: depths.append(d) or truncate(g, start, d))
    code, out, _ = run(capsys, "compare", _p("casetest"), "--params", _params("casetest"),
                       "--depth", "3")
    assert code == 0 and depths == [1, 2, 3]
    last = out.split("depth 3:\n")[1].split("fixed point:")[0]
    truncated = re.findall(r"(\S+): interpret=\S+ truncated=(\S+)", last)
    assert len(truncated) == 5
    assert re.findall(r"(\S+): fixpoint=\S+ truncated@3=(\S+)", out) == truncated


def test_non_ascii_identifier_names_a_distribution(tmp_path, capsys):
    """A lookup key that the source spells as an atom, `é`, is spelt the
    same way in the parameter file."""
    src = tmp_path / "accent.ppl"
    src.write_text("sample p[é]\n")
    params = tmp_path / "accent.json"
    params.write_text(json.dumps({"params": {"p": {"é": {"a": 0.5, "b": 0.5}}}}),
                      encoding="utf-8")
    code, out, err = run(capsys, "infer", str(src), "--params", str(params))
    assert code == 0, err
    assert "a: 0.5\n" in out and "b: 0.5\n" in out


def test_keyword_named_atom_prints_apart_from_the_boolean(tmp_path, capsys):
    """`cons` builds the atom `true`, which infer prints as `atom true`, not
    as the boolean that the other branch returns."""
    src = tmp_path / "kw.ppl"
    src.write_text("if sample c[u] then cons(t, cons(r, cons(u, cons(e, nil))))"
                   " else sample c[u]\n")
    params = tmp_path / "kw.json"
    params.write_text(json.dumps({"params": {"c": {"u": {"true": 0.75, "false": 0.25}}},
                                  "domains": {"atoms": ["t", "r", "u", "e"]}}))
    code, out, err = run(capsys, "infer", str(src), "--params", str(params))
    assert code == 0, err
    assert out.startswith("atom true: 0.75\nfalse: 0.0625\ntrue: 0.1875\n")


def test_compare_trivial_program(tmp_path, capsys):
    src = tmp_path / "t.ppl"
    src.write_text("true\n")
    code, out, _ = run(capsys, "compare", str(src))
    assert code == 0


@pytest.mark.parametrize("source", ["fail", "if true then fail else fail"])
def test_program_that_always_fails_infers_zero(tmp_path, capsys, source):
    """Every rule of such a program has an all-zero table, and the start
    symbol keeps one, so inference still knows the start symbol's domains.
    `fail` has no value, so that domain is the placeholder for an empty
    set, `unit`."""
    src = tmp_path / "fails.ppl"
    src.write_text(source + "\n")
    code, out, err = run(capsys, "infer", str(src))
    assert (code, err) == (0, "") and out.startswith("unit: 0\n")
    code, _, err = run(capsys, "compare", str(src))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("source", FAIL_POSITIONS.values(), ids=FAIL_POSITIONS.keys())
def test_fail_anywhere_agrees_with_interpreter(tmp_path, capsys, source):
    """`fail` drops its path wherever it stands and adds no value to any
    domain, so no start value holds `true`."""
    src, params = tmp_path / "fail.ppl", tmp_path / "fail.params.json"
    src.write_text(source + "\n")
    params.write_text(json.dumps(FAIL_PARAMS))
    code, out, err = run(capsys, "compare", str(src), "--params", str(params))
    assert (code, err) == (0, "")
    assert "true" not in out


def test_compare_corrupted_grammar_exit_4(tmp_path, capsys):
    source, params = load_program("pcfg")
    cu = compile_source(source, params)
    g = cu.fgg
    # corrupt one factor table: tables are shared and read-only, so replace it
    name = sorted(g.factors)[0]
    tab = g.factors[name]
    g.factors[name] = FactorTable(name, tab.domains, tab.weights * 3.0 + 0.1)
    bad = tmp_path / "bad.json"
    bad.write_text(fggmod.dumps(g))
    code, _, err = run(capsys, "compare", _p("pcfg"), "--params",
                       _params("pcfg"), "--fgg", str(bad))
    assert code == 4
    assert "MISMATCH" in err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", _p("pcfg"), "--params",
                       _params("pcfg"), "--depth", "3", "--nonterminal", "gen")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("height")]
    assert lines[0].endswith("1 tree(s)")
    assert lines[1].endswith("2 tree(s)")
    assert lines[2].endswith("5 tree(s)")


def test_render_dot(capsys):
    code, out, _ = run(capsys, "render", _p("pcfg"), "--params", _params("pcfg"))
    assert code == 0
    assert out.count("subgraph") == 3


def test_render_latex(capsys):
    code, out, _ = run(capsys, "render", _p("pcfg"), "--params",
                       _params("pcfg"), "--format", "latex")
    assert code == 0
    assert out.startswith("\\documentclass")


def test_render_deterministic(capsys):
    _, a, _ = run(capsys, "render", _p("pcfg"), "--params", _params("pcfg"))
    _, b, _ = run(capsys, "render", _p("pcfg"), "--params", _params("pcfg"))
    assert a == b


def test_compile_deterministic(capsys):
    _, a, _ = run(capsys, "compile", _p("pcfgw"), "--params", _params("pcfgw"))
    _, b, _ = run(capsys, "compile", _p("pcfgw"), "--params", _params("pcfgw"))
    assert a == b


def _one_line_error(err):
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _edit_json(edit):
    def damage(path):
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
    return damage


def _drop_factor_domains(obj):
    for body in obj["factors"].values():
        del body["domains"]


def _undeclared_label(obj):
    obj["rules"][0]["rhs"]["edges"][0]["label"] = "nosuch"


def _unknown_kind(obj):
    next(l for l in obj["labels"] if l["kind"] == "terminal")["kind"] = "factor"


def _domains_as_list(obj):
    obj["domains"] = []


def _start_without_rule(obj):
    obj["rules"] = [r for r in obj["rules"] if r["lhs"] != obj["start"]]


def _truncate(path):
    path.write_text(path.read_text()[:200])


# where each kind of name sits in a grammar: (the object that holds it, its key);
# a list there once passed the reader and ended in a TypeError traceback
_NAMES = {
    "label name": lambda g: (g["labels"][0], "name"),
    "label kind": lambda g: (g["labels"][0], "kind"),
    "start": lambda g: (g, "start"),
    "rule lhs": lambda g: (g["rules"][0], "lhs"),
    "node id": lambda g: (g["rules"][0]["rhs"]["nodes"][0], "id"),
    "node domain": lambda g: (g["rules"][0]["rhs"]["nodes"][0], "domain"),
    "edge id": lambda g: (g["rules"][0]["rhs"]["edges"][0], "id"),
    "edge label": lambda g: (g["rules"][0]["rhs"]["edges"][0], "label"),
    "edge att entry": lambda g: (g["rules"][0]["rhs"]["edges"][0]["att"], 0),
    "ext entry": lambda g: (g["rules"][0]["rhs"]["ext"], 0),
    "factor domain": lambda g: (next(iter(g["factors"].values()))["domains"], 0),
}


def _listed(where):
    def edit(obj):
        holder, key = where(obj)
        holder[key] = [holder[key]]
    return _edit_json(edit)


def _rename_node(rhs, old, new):
    for n in rhs["nodes"]:
        n["id"] = new if n["id"] == old else n["id"]
    for e in rhs["edges"]:
        e["att"] = [new if a == old else a for a in e["att"]]
    rhs["ext"] = [new if x == old else x for x in rhs["ext"]]


def _att_string(obj):
    """An edge of arity 1 whose `att` is its node's one-character id."""
    rhs = obj["rules"][0]["rhs"]
    edge = next(e for e in rhs["edges"] if len(e["att"]) == 1)
    _rename_node(rhs, edge["att"][0], "y")
    edge["att"] = "y"


def _ext_string(obj):
    """The start rule's `ext` as its one node's one-character id."""
    rhs = next(r for r in obj["rules"] if r["lhs"] == obj["start"])["rhs"]
    _rename_node(rhs, rhs["ext"][0], "y")
    rhs["ext"] = "y"


def _domain_as(value):
    """The domain of the one atom `a` spelt as `value`."""
    def edit(obj):
        name = next(n for n, vals in obj["domains"].items() if vals == [{"atom": "a"}])
        obj["domains"][name] = value
    return edit


def _factor_domains_string(obj):
    body = next(b for b in obj["factors"].values() if len(b["domains"]) == 1)
    body["domains"] = body["domains"][0]


def _indicator_table(obj):
    """The first two-axis table of more than one row whose first entry is 1."""
    return next(b["table"] for b in obj["factors"].values()
                if len(b["domains"]) == 2 and len(b["table"]) > 1 and b["table"][0][0] == 1.0)


def _first_entry(change):
    def edit(obj):
        table = _indicator_table(obj)
        table[0][0] = change(table[0][0])
    return edit


def _bool_table(obj):
    table = _indicator_table(obj)
    table[:] = [[bool(x) for x in row] for row in table]


# where a list belongs, a string or an object, which a reader iterating over
# it once took for the list of its characters or keys (or indexed, as with
# `labels` and `rules`, with a Python error naming no field); where an
# object belongs, a list, a string or a number; booleans and strings
# where a number belongs, which once loaded as 1, 0 and the number spelt; an
# integer beyond float range, which once ended in an OverflowError traceback
_WRONG_TYPES = {
    "att-string": (_att_string, "edge att must be a list, not str"),
    "ext-string": (_ext_string, "ext must be a list, not str"),
    "domain-string": (_domain_as("a"), "domain values must be a list, not str"),
    "domain-object": (_domain_as({"a": 1}), "domain values must be a list, not dict"),
    "factor-domains-string": (_factor_domains_string, "factor domains must be a list, not str"),
    "table-bools": (_bool_table, "factor table entry must be a number, not bool"),
    "table-mixed": (_first_entry(bool), "factor table entry must be a number, not bool"),
    "table-string": (_first_entry(str), "factor table entry must be a number, not str"),
    "table-huge-integer": (_first_entry(lambda x: 10 ** 400), "factor table entry is too large"),
    "labels-string": (lambda obj: obj.update(labels="ab"), "labels must be a list, not str"),
    "rules-object": (lambda obj: obj.update(rules={"x": 1}), "rules must be a list, not dict"),
    "nodes-number": (lambda obj: obj["rules"][0]["rhs"].update(nodes=3),
                     "rhs nodes must be a list, not int"),
    "edges-object": (lambda obj: obj["rules"][0]["rhs"].update(edges={}),
                     "rhs edges must be a list, not dict"),
    "factors-list": (lambda obj: obj.update(factors=[]), "factors must be an object, not list"),
    "label-string": (lambda obj: obj["labels"].__setitem__(0, "S"), "label must be an object, not str"),
    "rule-number": (lambda obj: obj["rules"].__setitem__(0, 1), "rule must be an object, not int"),
    "node-list": (lambda obj: obj["rules"][0]["rhs"]["nodes"].__setitem__(0, ["x", "D"]),
                  "node must be an object, not list"),
    "edge-string": (lambda obj: obj["rules"][0]["rhs"]["edges"].__setitem__(0, "e"),
                    "edge must be an object, not str"),
}


# an arity that is not a JSON integer once loaded as int(arity): 1.7, true
# and "1" all as 1
_ARITIES = {"float": 1.7, "bool": True, "string": "1"}


def _bad_arity(value):
    def edit(obj):
        next(l for l in obj["labels"] if l["arity"] == 1)["arity"] = value
    return _edit_json(edit)


@pytest.mark.parametrize("damage,message", [
    (_truncate, "bad FGG JSON"),
    (_edit_json(_drop_factor_domains), "bad FGG JSON"),
    (_edit_json(_undeclared_label), "undeclared label 'nosuch'"),
    (_edit_json(_unknown_kind), "has unknown kind 'factor'"),
    (_edit_json(_domains_as_list), "bad FGG JSON: domains must be an object, not list"),
    (_edit_json(_start_without_rule), "start symbol '$start' has no rule"),
] + [(_listed(where), f"bad FGG JSON: {name} must be a string") for name, where in _NAMES.items()]
    + [(_bad_arity(value), f"bad FGG JSON: label arity must be an integer, not {type(value).__name__}")
       for value in _ARITIES.values()]
    + [(_edit_json(edit), f"bad FGG JSON: {message}") for edit, message in _WRONG_TYPES.values()],
    ids=["truncated", "factor-without-domains", "undeclared-label", "unknown-kind",
         "domains-as-list", "start-without-rule"]
    + ["listed-" + name.replace(" ", "-") for name in _NAMES]
    + ["arity-" + kind for kind in _ARITIES] + list(_WRONG_TYPES))
@pytest.mark.parametrize("command", ["infer", "compare"])
def test_malformed_grammar_json_exit_2(tmp_path, capsys, command, damage, message):
    path = tmp_path / "g.json"
    run(capsys, "compile", _p("pcfg"), "--params", _params("pcfg"), "--out", str(path))
    damage(path)
    if command == "infer":
        code, _, err = run(capsys, "infer", str(path))
    else:
        code, _, err = run(capsys, "compare", _p("pcfg"), "--params", _params("pcfg"),
                           "--fgg", str(path))
    assert code == 2
    assert message in err
    _one_line_error(err)


def _nullary_start(obj):
    """The start symbol takes no node, and its one rule is the empty graph."""
    next(l for l in obj["labels"] if l["name"] == obj["start"])["arity"] = 0
    obj["rules"] = [r for r in obj["rules"] if r["lhs"] != obj["start"]]
    obj["rules"].append({"lhs": obj["start"], "rhs": {"nodes": [], "edges": [], "ext": []}})


def test_compare_needs_a_start_symbol_of_arity_1(tmp_path, capsys):
    """`infer` takes a start symbol of any arity; `compare` reads one value
    per derivation, so it refuses another grammar."""
    path = tmp_path / "g.json"
    run(capsys, "compile", _p("pcfg"), "--params", _params("pcfg"), "--out", str(path))
    _edit_json(_nullary_start)(path)
    code, out, err = run(capsys, "infer", str(path))
    assert (code, err) == (0, "") and out.startswith("(): 1\n")
    code, _, err = run(capsys, "compare", _p("pcfg"), "--params", _params("pcfg"),
                       "--fgg", str(path))
    assert code == 2
    assert "start symbol '$start' has arity 0" in err
    _one_line_error(err)


def _let_chain(tmp_path, n):
    body = "".join(f"let x{i} = x{i - 1} in " for i in range(2, n + 1))
    src = tmp_path / "chain.ppl"
    src.write_text(f"let x1 = true in {body}x{n}\n")
    return str(src)


def test_deep_let_chain_is_diagnosed(tmp_path, capsys):
    code, _, err = run(capsys, "infer", _let_chain(tmp_path, 1200))
    assert code == 2
    assert "nested too deeply" in err
    _one_line_error(err)


def test_600_deep_let_chain_infers(tmp_path, capsys):
    code, out, _ = run(capsys, "infer", _let_chain(tmp_path, 600))
    assert code == 0
    assert "true: 1" in out and "status: converged" in out


def test_900_deep_let_chain_infers(tmp_path, capsys):
    """Every phase, the translator's splicing included, recurses at most
    once per nesting level, so 900 levels fit Python's default limit."""
    code, out, _ = run(capsys, "infer", _let_chain(tmp_path, 900))
    assert code == 0
    assert "true: 1" in out and "status: converged" in out


def _numpy_max_axes():
    try:
        np.zeros((1,) * 64)
        return 64
    except ValueError:  # numpy 1.x
        return 32


def _wide_if(tmp_path, n):
    """`if` under n bound variables, each with the one-value domain {true}:
    the `if` nonterminal has n + 1 external nodes."""
    body = "".join(f"let x{i} = x{i - 1} in " for i in range(2, n + 1))
    src = tmp_path / "wide.ppl"
    src.write_text(f"let x1 = true in {body}if x{n} then x1 else x2\n")
    return str(src)


def test_wide_if_over_numpy_axis_limit_is_diagnosed(tmp_path, capsys):
    code, out, err = run(capsys, "infer", _wide_if(tmp_path, 70))
    assert code == 2 and out == ""
    assert "arity 71" in err
    _one_line_error(err)


def test_wide_if_within_numpy_axis_limit_infers(tmp_path, capsys):
    # 62 bound variables on numpy 2 (64 axes), 30 on numpy 1.x (32 axes)
    code, out, _ = run(capsys, "infer", _wide_if(tmp_path, _numpy_max_axes() - 2))
    assert code == 0
    assert "true: 1" in out and "status: converged" in out


def test_unit_chain_beyond_einsum_operand_limit_infers(tmp_path, capsys):
    """70 one-value factors end up in one contraction, more operands than
    one np.einsum call takes."""
    src = tmp_path / "units.ppl"
    src.write_text("".join(f"let x{i} = unit in " for i in range(1, 71)) + "x70\n")
    code, out, _ = run(capsys, "infer", str(src))
    assert code == 0
    assert "unit: 1" in out and "status: converged" in out


def _pcfg_weight(weight):
    return {"params": {"p": {"S": {"inl a": weight, "inr (S,S)": 0.3}}}}


@pytest.mark.parametrize("obj,messages", [
    (_pcfg_weight(float("nan")), ["non-finite weight", "p[S]"]),
    (_pcfg_weight(float("inf")), ["non-finite weight", "p[S]"]),
    (_pcfg_weight(float("-inf")), ["non-finite weight", "p[S]"]),
    # malformed files: each once ended in an AttributeError or TypeError
    ({"params": {"p": 5}}, ["parameter map 'p' is not a JSON object"]),
    ({"params": {"p": {"S": 3}}}, ["distribution p[S] is not a JSON object"]),
    ([1, 2], ["the parameter file is not a JSON object"]),
    ({"domains": {"gen.x": 5}}, ["domain 'gen.x' is not a JSON list"]),
    (_pcfg_weight(None), ["weight in p[S] is not a number"]),
], ids=["nan", "inf", "-inf", "number-map", "number-row", "list-file",
        "number-domain", "null-weight"])
def test_non_finite_param_weight_exit_2(tmp_path, capsys, obj, messages):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(obj))
    code, out, err = run(capsys, "infer", _p("pcfg"), "--params", str(params))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot read params ")
    assert all(m in err for m in messages)


def test_infer_max_iter_in_inner_component(capsys):
    """The recursive `gen` component stops at --max-iter; the start
    nonterminal above it is still solved from that last iterate."""
    code, out, _ = run(capsys, "infer", _p("pcfg"), "--params", _params("pcfg"),
                       "--max-iter", "3")
    assert code == 5
    (line,) = [l for l in out.splitlines() if l.startswith("unit:")]
    assert 0.0 < float(line.split(":")[1]) < 1.0
    assert "iterations: 3" in out.splitlines()
    assert "status: max-iter" in out.splitlines()


def test_closed_stdout_exits_1_without_traceback():
    """`fggc compare ... | head -1`: the reader has gone when fggc writes."""
    import os
    import subprocess
    import sys
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(PROGRAMS_DIR.parents[1] / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fggc.cli", "compare", _p("pcfg"), "--params", _params("pcfg")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_readme_infer_example(capsys):
    """The README's `fggc infer` example prints what the CLI prints."""
    root = PROGRAMS_DIR.parents[1]
    block = (root / "README.md").read_text().split("$ fggc infer ", 1)[1].split("```", 1)[0]
    command, *shown = block.strip().splitlines()
    code, out, _ = run(capsys, "infer", *(str(root / a) if (root / a).exists() else a
                                          for a in command.split()))
    assert code == 0

    def lines(text):
        return [l for l in text.splitlines() if l.startswith(("unit:", "iterations:", "status:"))]

    assert len(lines("\n".join(shown))) == 3
    assert lines(out) == lines("\n".join(shown))


def test_unbounded_sum_nesting_is_not_stabilizing(tmp_path, capsys):
    """`g` is fed its own result, so its value set grows one `inr` deeper
    per evaluation: diagnosed as propagation that does not stabilize, not
    as input nested too deeply."""
    src = tmp_path / "sums.ppl"
    src.write_text("fun g(x) = inr(x);\nfun h(x) = let u = g(x) in g(u);\nh(a)\n")
    params = tmp_path / "sums.json"
    params.write_text(json.dumps({"domains": {"atoms": ["a"]}}))
    code, out, err = run(capsys, "infer", str(src), "--params", str(params))
    assert code == 2 and out == ""
    assert "value-set propagation did not stabilize" in err
    _one_line_error(err)


def test_memory_error_exit_2(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.64 GiB for an array")

    monkeypatch.setattr(cli, "solve_fixed_point", exhausted)
    code, out, err = run(capsys, "infer", _p("pcfg"), "--params", _params("pcfg"))
    assert code == 2 and out == ""
    assert "out of memory" in err and "8.64 GiB" in err
    _one_line_error(err)


def test_every_library_error_is_an_fggc_error():
    for cls in (ParseError, DomainError, ParamError, StructuralError,
                InferenceError, OracleError, ValueSyntaxError):
        assert issubclass(cls, FggcError), cls
    assert issubclass(ValueSyntaxError, ValueError)
    assert str(FggcError("m", (3, 4))) == "3:4: m"
    # (0, 0) is the position of a node the source does not spell
    assert str(DomainError("m", (0, 0))) == str(FggcError("m")) == "m"


_BAD_VALUE_GRAMMAR = json.dumps({"labels": [], "domains": {"d": [{"pair": 5}]},
                                 "rules": [], "factors": {}, "start": "S"})


@pytest.mark.parametrize("bad_input,error", [
    (lambda: parse("let x = in x"), ParseError),
    (lambda: check_program("y", Params()), DomainError),
    (lambda: check_program("fun f(x) = f(x); f(", Params()), ParseError),
    (lambda: params_from_json({"params": {"p": 5}}), ParamError),
    (lambda: params_from_json({"params": {"p": {"S": {"a": None}}}}), ParamError),
    (lambda: params_from_json({"params": {"p": {"(S": {}}}}), ValueSyntaxError),
    (lambda: fggmod.loads(_BAD_VALUE_GRAMMAR), ValueSyntaxError),
    (lambda: params_from_json({"domains": {"d": [{"bool": "false"}]}}), ValueSyntaxError),
], ids=["parse", "check_program-scope", "check_program-parse", "params-shape",
        "params-weight", "params-key", "fgg-loads", "params-bool"])
def test_library_entry_points_raise_their_own_error(bad_input, error):
    with pytest.raises(error):
        bad_input()
