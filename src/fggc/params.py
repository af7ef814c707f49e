"""Parameter files: declared domains, distribution tables, and input constants.

File format (JSON):

    {
      "domains": {name: [value, ...]},
      "params":  {name: {key: {value: weight, ...}, ...}},
      "inputs":  {name: value}
    }

Keys and values are written in the literal syntax that `Value.key()` prints
and `parser.parse_value` reads (e.g. "inl a", "(A,B)", "ab"); its identifiers
are the source language's. A parameter map entry params["p"]["S"] declares
the distribution `dist p[S]`, the value `Dist("p", Atom("S"))`; looking up
p[x] at x = S evaluates to it, and sampling it ranges over the declared
support keys. These are the only distributions: the language has no
built-in one, and `fail` drops a path without observing anything.
"""

from __future__ import annotations

import json
import math

from .parser import parse_value
from .values import (Atom, Dist, FggcError, Inl, Inr, Pair, Value,
                     value_from_json)


class ParamError(FggcError):
    pass


class Params:
    def __init__(self, domains=None, params=None, inputs=None):
        # domains: name -> list[Value]; params: name -> {key Value: {Value: float}}
        self.domains: dict[str, list[Value]] = domains or {}
        self.params: dict[str, dict[Value, dict[Value, float]]] = params or {}
        self.inputs: dict[str, Value] = inputs or {}

    # -- distributions ------------------------------------------------------

    def dist_table(self, d: Dist) -> dict[Value, float]:
        """Support and weights of the distribution `d`."""
        table = self.params.get(d.param, {}).get(d.index)
        if table is None:
            raise ParamError(f"unknown distribution {d.name!r}")
        return table

    def lookup_keys(self, pname: str) -> list[Value]:
        if pname not in self.params:
            raise ParamError(f"unknown parameter map {pname!r}")
        return list(self.params[pname].keys())

    # -- name resolution ----------------------------------------------------

    def global_names(self) -> set[str]:
        """Identifiers that resolve outside any binder: inputs and known atoms."""
        names = set(self.inputs)
        stack = list(set(self._all_values()))  # rows repeat their keys: walk each once
        while stack:
            v = stack.pop()
            if isinstance(v, Atom):
                if v.name:
                    names.add(v.name)
            elif isinstance(v, Pair):
                stack += v.first, v.second
            elif isinstance(v, (Inl, Inr)):
                stack.append(v.value)
        return names

    def _all_values(self):
        for vs in self.domains.values():
            yield from vs
        for table in self.params.values():
            for key, weights in table.items():
                yield key
                yield from weights.keys()
        yield from self.inputs.values()


def _items(obj, what: str):
    """The entries of a JSON object, or ParamError if `obj` is not one."""
    if not isinstance(obj, dict):
        raise ParamError(f"{what} is not a JSON object")
    return obj.items()


def params_from_json(obj: dict) -> Params:
    _items(obj, "the parameter file")
    domains = {}
    for name, vals in _items(obj.get("domains", {}), '"domains"'):
        if not isinstance(vals, list):
            raise ParamError(f"domain {name!r} is not a JSON list")
        domains[name] = [value_from_json(v) for v in vals]
    params: dict[str, dict[Value, dict[Value, float]]] = {}
    for pname, table in _items(obj.get("params", {}), '"params"'):
        out: dict[Value, dict[Value, float]] = {}
        for keytext, weights in _items(table, f"parameter map {pname!r}"):
            key = parse_value(keytext)
            row: dict[Value, float] = {}
            for vtext, w in _items(weights, f"distribution {pname}[{keytext}]"):
                if isinstance(w, bool) or not isinstance(w, (int, float, str)):
                    raise ParamError(f"weight in {pname}[{keytext}] is not a number")
                try:
                    w = float(w)  # a numeric string reads as its number
                except ValueError as e:
                    raise ParamError(str(e)) from None
                if not math.isfinite(w):
                    raise ParamError(f"non-finite weight {w} in {pname}[{keytext}]")
                if w < 0:
                    raise ParamError(f"negative weight in {pname}[{keytext}]")
                row[parse_value(vtext)] = w
            out[key] = row
        params[pname] = out
    inputs = {name: value_from_json(v) for name, v in _items(obj.get("inputs", {}), '"inputs"')}
    return Params(domains, params, inputs)


def load_params(path: str) -> Params:
    with open(path, encoding="utf-8-sig") as f:  # drops a leading byte-order mark
        return params_from_json(json.load(f))
