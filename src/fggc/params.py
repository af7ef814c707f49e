"""Parameter files: declared domains, distribution tables, and input constants.

File format (JSON):

    {
      "domains": {name: [value, ...]},
      "params":  {name: {key: {value: weight, ...}, ...}},
      "inputs":  {name: value}
    }

Keys and values are written in the literal syntax of fggc.values (e.g.
"inl a", "(A,B)", "ab"). A parameter map entry params["p"]["S"] declares the
distribution named "p[S]"; looking up p[x] at x = S evaluates to that
distribution, and sampling it ranges over the declared support keys.
"""

from __future__ import annotations

import json
import math

from .values import Atom, Dist, Inl, Inr, Pair, Value, value_from_json

ZERO_DIST = "__zero__"  # reserved: density 0 everywhere (the target of fail)


class ParamError(Exception):
    pass


class Params:
    def __init__(self, domains=None, params=None, inputs=None):
        # domains: name -> list[Value]; params: name -> {key Value: {Value: float}}
        self.domains: dict[str, list[Value]] = domains or {}
        self.params: dict[str, dict[Value, dict[Value, float]]] = params or {}
        self.inputs: dict[str, Value] = inputs or {}

    # -- distributions ------------------------------------------------------

    def dist_table(self, dist_name: str) -> dict[Value, float]:
        """Support and weights for a named distribution like "p[S]"."""
        if dist_name == ZERO_DIST:
            return {}
        if "[" in dist_name and dist_name.endswith("]"):
            pname, keytext = dist_name.split("[", 1)
            key = _parse_key(keytext[:-1])
            table = self.params.get(pname, {}).get(key)
            if table is not None:
                return table
        raise ParamError(f"unknown distribution {dist_name!r}")

    def lookup_keys(self, pname: str) -> list[Value]:
        if pname not in self.params:
            raise ParamError(f"unknown parameter map {pname!r}")
        return list(self.params[pname].keys())

    def dist_value(self, pname: str, key: Value) -> Dist:
        return Dist(f"{pname}[{key.key()}]")

    # -- name resolution ----------------------------------------------------

    def global_names(self) -> set[str]:
        """Identifiers that resolve outside any binder: inputs and known atoms."""
        names = set(self.inputs)
        for v in self._all_values():
            names |= _atom_names(v)
        return names

    def _all_values(self):
        for vs in self.domains.values():
            yield from vs
        for table in self.params.values():
            for key, weights in table.items():
                yield key
                yield from weights.keys()
        yield from self.inputs.values()


def _atom_names(v: Value) -> set[str]:
    if isinstance(v, Atom) and v.name:
        return {v.name}
    if isinstance(v, Pair):
        return _atom_names(v.first) | _atom_names(v.second)
    if isinstance(v, (Inl, Inr)):
        return _atom_names(v.value)
    return set()


def _parse_key(text: str) -> Value:
    from .values import parse_value
    return parse_value(text)


def params_from_json(obj: dict) -> Params:
    domains = {name: [value_from_json(v) for v in vals]
               for name, vals in obj.get("domains", {}).items()}
    params: dict[str, dict[Value, dict[Value, float]]] = {}
    for pname, table in obj.get("params", {}).items():
        out: dict[Value, dict[Value, float]] = {}
        for keytext, weights in table.items():
            key = _parse_key(keytext)
            row: dict[Value, float] = {}
            for vtext, w in weights.items():
                w = float(w)
                if not math.isfinite(w):
                    raise ParamError(f"non-finite weight {w} in {pname}[{keytext}]")
                if w < 0:
                    raise ParamError(f"negative weight in {pname}[{keytext}]")
                row[_parse_key(vtext)] = w
            out[key] = row
        params[pname] = out
    inputs = {name: value_from_json(v) for name, v in obj.get("inputs", {}).items()}
    return Params(domains, params, inputs)


def load_params(path: str) -> Params:
    with open(path, encoding="utf-8") as f:
        return params_from_json(json.load(f))
