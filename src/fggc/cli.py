"""Command-line driver.

Subcommands:
    compile    source -> FGG JSON (plus a provenance sidecar with --out)
    infer      fixed-point weights of the start symbol
    compare    interpreter vs derivation enumeration vs fixed point
    enumerate  count derivation trees and truncated weights by height
    render     dot or LaTeX diagrams, one per rule

Exit codes: 0 success, 2 front-end error (parse/scope/domain/params/IO,
malformed grammar JSON, bad command-line arguments, input nested too
deeply, a nonterminal with more external nodes than numpy has axes, memory
exhausted), 3 divergent grammar, 4 comparison failure, 5 `infer` stopped
at --max-iter without converging, 1 stdout closed by its reader (a broken pipe).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import fgg as fggmod
from .fgg import FGG, validate
from .frontend import check_program
from .inference import DIVERGENT, MAX_ITER, solve_fixed_point
from .oracle import enumerate_derivations, interpret, truncated_wX
from .params import Params, load_params
from .render import to_dot, to_latex
from .translate import compile_source, translate
from .values import FggcError

EXIT_FRONTEND = 2
EXIT_DIVERGENT = 3
EXIT_MISMATCH = 4
EXIT_MAX_ITER = 5


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_params(path: str | None) -> Params:
    if path is None:
        return Params()
    try:
        return load_params(path)
    except (OSError, ValueError, FggcError) as e:
        raise FggcError(f"cannot read params {path!r}: {e}")


def _read_source(path: str) -> str:
    try:  # utf-8-sig drops a leading byte-order mark
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FggcError(f"cannot read {path!r}: {e}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise FggcError(f"cannot write {path!r}: {e}")


def _load_grammar(path: str) -> FGG:
    try:
        g = fggmod.loads(_read_source(path))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FggcError(f"bad FGG JSON: {e}")
    diags = validate(g)
    if diags:
        raise FggcError("; ".join(str(d) for d in diags))
    return g


def _compile(args) -> FGG:
    """Load a grammar: .json files directly, anything else as source."""
    if args.input.endswith(".json"):
        return _load_grammar(args.input)
    return _compile_unit(args).fgg


def _compile_unit(args):
    source = _read_source(args.input)
    return compile_source(source, _load_params(args.params))


def cmd_compile(args) -> int:
    cu = _compile_unit(args)
    diags = validate(cu.fgg)
    if diags:
        raise FggcError("compiled grammar failed validation: "
                        + "; ".join(str(d) for d in diags))
    text = fggmod.dumps(cu.fgg)
    if args.out:
        _write(args.out, text)
        side = args.out + ".provenance.json"
        try:
            _write(side, json.dumps({"provenance": cu.provenance}, indent=2, sort_keys=True)
                   + "\n")
        except FggcError:
            os.remove(args.out)  # a failed command leaves no grammar behind
            raise
        print(f"wrote {args.out} ({len(cu.fgg.rules)} rules) and {side}")
    else:
        print(text, end="")
    return 0


def _check_flags(args) -> None:
    """Refuse --max-iter, --depth and --tol values that no run can honour:
    zero sweeps or levels compute nothing, and a tolerance that is not
    positive and finite can never be met (every `delta > nan` is false)."""
    if getattr(args, "max_iter", 1) < 1:
        raise FggcError(f"--max-iter must be at least 1, got {args.max_iter}")
    if getattr(args, "depth", 1) < 1:
        raise FggcError(f"--depth must be at least 1, got {args.depth}")
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        raise FggcError(f"--tol must be a positive finite number, got {tol}")


def cmd_infer(args) -> int:
    g = _compile(args)
    state = solve_fixed_point(g, tol=args.tol, max_iter=args.max_iter)
    t = state.tau[g.start]
    for values, w in t.items():
        label = ", ".join(v.key() for v in values) or "()"
        print(f"{label}: {fmt(w)}")
    print(f"iterations: {state.iteration}")
    print(f"delta: {fmt(state.delta)}")
    print(f"status: {state.status}")
    return {DIVERGENT: EXIT_DIVERGENT, MAX_ITER: EXIT_MAX_ITER}.get(state.status, 0)


def cmd_compare(args) -> int:
    source = _read_source(args.input)
    params = _load_params(args.params)
    program, _ = check_program(source, params)
    g = _load_grammar(args.fgg) if args.fgg else translate(program, params).fgg
    arity = g.labels[g.start].arity
    if arity != 1:  # only a --fgg grammar can have another
        raise FggcError(f"start symbol {g.start!r} has arity {arity}; compare needs "
                        "arity 1, one node for the program's value")

    failures: list[str] = []
    for d in range(1, args.depth + 1):
        wm = interpret(program, params, d + 1)
        t = truncated_wX(g, g.start, d)
        seen = set()
        print(f"depth {d}:")
        for (v,), w in t.items():
            wi = wm.get(v, 0.0)
            seen.add(v)
            delta = abs(w - wi)
            print(f"  {v.key()}: interpret={fmt(wi)} truncated={fmt(w)} delta={fmt(delta)}")
            if delta > args.tol:
                failures.append(f"depth {d}, value {v.key()}: "
                                f"interpret {fmt(wi)} vs truncated {fmt(w)}")
        for v, wi in wm.items():
            if v not in seen and wi > args.tol:
                failures.append(f"depth {d}: interpreter value {v.key()} "
                                f"({fmt(wi)}) missing from grammar domain")
    state = solve_fixed_point(g)
    print(f"fixed point: status={state.status} iterations={state.iteration}")
    if state.status != DIVERGENT:  # `t` is the loop's last, at args.depth
        for (v,), w in state.tau[g.start].items():
            wt = t[(v,)]
            print(f"  {v.key()}: fixpoint={fmt(w)} truncated@{args.depth}={fmt(wt)}")
            if wt > w + 1e-8:
                failures.append(f"fixed point below truncation at {v.key()}: "
                                f"{fmt(w)} < {fmt(wt)}")
    if failures:
        for f in failures:
            print(f"MISMATCH: {f}", file=sys.stderr)
        return EXIT_MISMATCH
    print("all comparisons within tolerance")
    return 0


def cmd_enumerate(args) -> int:
    g = _compile(args)
    x = args.nonterminal or g.start
    if x not in g.ext_domains():
        raise FggcError(f"unknown nonterminal {x!r}")
    for h in range(1, args.depth + 1):
        trees = enumerate_derivations(g, x, h)
        print(f"height <= {h}: {len(trees)} tree(s)")
    for values, w in truncated_wX(g, x, args.depth - 1).items():
        label = ", ".join(v.key() for v in values) or "()"
        print(f"truncated weight [{label}]: {fmt(w)}")
    return 0


def cmd_render(args) -> int:
    g = _compile(args)
    if args.format == "latex":
        text = to_latex(g)
    elif args.format == "json":
        text = fggmod.dumps(g)
    else:
        text = to_dot(g)
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as an FggcError (one `error:` line, exit 2)
    instead of printing usage and exiting; subcommand parsers inherit it."""

    def error(self, message):
        raise FggcError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="fggc",
                         description="compile probabilistic programs "
                         "to factor graph grammars and run exact inference")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="source file, or compiled .json grammar")
        p.add_argument("--params", help="parameter file (JSON)")

    p = sub.add_parser("compile", help="translate source to FGG JSON")
    common(p)
    p.add_argument("--out", help="output path (default: stdout, no sidecar)")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("infer", help="fixed-point start-symbol weights")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10000)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("compare", help="cross-check compiler against oracles")
    common(p)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--fgg", help="compare against this grammar JSON, as "
                   "`fggc compile` writes it, instead of compiling the source")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("enumerate", help="count derivation trees by height")
    common(p)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--nonterminal", help="nonterminal to expand (default: start)")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("render", help="emit diagrams for a grammar")
    common(p)
    p.add_argument("--format", choices=["dot", "latex", "json"], default="dot")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_render)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        with np.errstate(over="ignore"):  # the solver reports an overflow as an error
            code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`fggc compare ... | head -1`): point stdout
        # at devnull so the flush at exit fails silently, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except FggcError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FRONTEND
    except RecursionError:
        print("error: input is nested too deeply to process", file=sys.stderr)
        return EXIT_FRONTEND
    except MemoryError as e:  # numpy's allocation failure is a MemoryError too
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory",
              file=sys.stderr)
        return EXIT_FRONTEND


if __name__ == "__main__":
    sys.exit(main())
