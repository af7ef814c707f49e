"""Rendering of grammars to Graphviz dot and to standalone TikZ."""

from __future__ import annotations

from .fgg import FGG, Rule


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _rule_dot(g: FGG, rule: Rule, idx: int, out: list[str]) -> None:
    rhs = rule.rhs
    ext = set(rhs.ext)
    out.append(f'  subgraph "cluster_{idx}" {{')
    out.append(f'    label="{_esc(rule.lhs)} (rule {idx})";')
    for n in rhs.nodes:
        style = ', style=filled, fillcolor="lightblue"' if n.id in ext else ""
        out.append(f'    "{idx}:{n.id}" [label="{_esc(n.id)}\\n{_esc(n.domain)}", '
                   f'shape=ellipse{style}];')
    for e in rhs.edges:
        shape = "box" if g.labels[e.label].is_terminal else "box, peripheries=2"
        out.append(f'    "{idx}:{e.id}" [label="{_esc(e.label)}", shape={shape}];')
        for i, a in enumerate(e.att):
            out.append(f'    "{idx}:{e.id}" -- "{idx}:{a}" [label="{i}"];')
    out.append("  }")


def to_dot(g: FGG) -> str:
    """One graph with a cluster per rule; external nodes are highlighted."""
    out = ["graph fgg {", "  node [fontsize=10]; edge [fontsize=8];"]
    for idx, rule in enumerate(g.rules):
        _rule_dot(g, rule, idx, out)
    out.append("}")
    return "\n".join(out) + "\n"


def _grid(n: int) -> list[tuple[float, float]]:
    cols = max(1, int(n ** 0.5 + 0.9999))
    return [(2.0 * (i % cols), -1.5 * (i // cols)) for i in range(n)]


def _rule_tikz(g: FGG, rule: Rule, out: list[str]) -> None:
    rhs = rule.rhs
    ext = set(rhs.ext)
    items = [("node", n.id, n.id, n.domain) for n in rhs.nodes]
    items += [("edge", e.id, e.label, "") for e in rhs.edges]
    coords = _grid(len(items))
    out.append(r"\begin{tikzpicture}[every node/.style={font=\scriptsize}]")
    out.append(rf"\node at (0,1.2) {{$\mathit{{{_tex(rule.lhs)}}} \to$}};")
    for (kind, name, label, extra), (x, y) in zip(items, coords):
        if kind == "node":
            style = "circle,draw" + (",fill=blue!15" if name in ext else "")
            text = _tex(label) + (rf"\,{{:}}\,{_tex(extra)}" if extra else "")
        else:
            lab = g.labels[label] if label in g.labels else None
            style = "rectangle,draw" + (",double" if lab and lab.is_nonterminal else "")
            text = _tex(label)
        out.append(rf"\node[{style}] ({_tid(name)}) at ({x:.1f},{y:.1f}) {{{text}}};")
    for e in rhs.edges:
        for i, a in enumerate(e.att):
            out.append(rf"\draw ({_tid(e.id)}) -- node[pos=0.5,auto] {{{i}}} ({_tid(a)});")
    out.append(r"\end{tikzpicture}")


def _tex(s: str) -> str:
    for a, b in (("\\", r"\textbackslash "), ("_", r"\_"), ("%", r"\%"),
                 ("$", r"\$"), ("#", r"\#"), ("&", r"\&"), ("{", r"\{"),
                 ("}", r"\}")):
        s = s.replace(a, b)
    return s


def _tid(s: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in s)


def to_latex(g: FGG) -> str:
    """Standalone document, one tikzpicture per rule."""
    out = [r"\documentclass{standalone}", r"\usepackage{tikz}",
           r"\begin{document}", r"\begin{tabular}{l}"]
    for rule in g.rules:
        _rule_tikz(g, rule, out)
        out.append(r"\\[1em]")
    out.append(r"\end{tabular}")
    out.append(r"\end{document}")
    return "\n".join(out) + "\n"
