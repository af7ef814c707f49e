"""Runtime values and finite domains.

Values are the things variables range over: atoms (which double as finite
strings, with the empty atom playing the role of nil), booleans, unit,
pairs, tagged sums, and distributions, each the table of one key of a
parameter map.

Each value is a tuple whose first item is a small-int tag naming its kind,
followed by its fields: `Pair(a, b)` is the tuple `(_PAIR, a, b)`. The tag
comes first and no two kinds share one, so values of different kinds never
compare equal, and `hash` and `==` are tuple's own, which run in C however
deep a value nests. Fields are read by name, as properties.
"""

from __future__ import annotations

import json
from operator import itemgetter


class FggcError(Exception):
    """Base class of every error that bad input raises, from any layer.

    `pos` is a (line, column) pair; the message leads with it, unless it is
    None or (0, 0), the position of a node that the source does not spell.
    """

    def __init__(self, message: str, pos: tuple[int, int] | None = None):
        super().__init__(message if pos in (None, (0, 0)) else f"{pos[0]}:{pos[1]}: {message}")
        self.message = message
        self.pos = pos


class Value(tuple):
    """Base class for all values, each an immutable tagged tuple.

    A value acts as a scalar: iterating or unpacking it raises TypeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def key(self) -> str:
        """Canonical string form; doubles as a deterministic sort key."""
        raise NotImplementedError

    def __iter__(self):
        raise TypeError(f"{type(self).__name__} value is not iterable")

    def __reduce__(self):
        return type(self), self[1:]  # the constructor's arguments: pickle, copy

    def __repr__(self):
        fields = ", ".join(f"{f}={x!r}" for f, x in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({fields})"


_new = tuple.__new__
_ATOM, _BOOL, _UNIT, _PAIR, _INL, _INR, _DIST = range(7)  # kind tags


class Atom(Value):
    __slots__ = ()
    _fields = ("name",)
    name = property(itemgetter(1))

    def __new__(cls, name: str):
        return _new(cls, (_ATOM, name))

    def key(self) -> str:
        if self.name in ("true", "false", "unit", "nil", "inl", "inr"):
            return f"atom {self.name}"  # the bare word reads as another value
        return self.name or "nil"


class Bool(Value):
    __slots__ = ()
    _fields = ("value",)
    value = property(itemgetter(1))

    def __new__(cls, value: bool):
        return _new(cls, (_BOOL, value))

    def key(self) -> str:
        return "true" if self.value else "false"


class Unit(Value):
    __slots__ = ()

    def __new__(cls):
        return _new(cls, (_UNIT,))

    def key(self) -> str:
        return "unit"


class Pair(Value):
    __slots__ = ()
    _fields = ("first", "second")
    first = property(itemgetter(1))
    second = property(itemgetter(2))

    def __new__(cls, first: Value, second: Value):
        return _new(cls, (_PAIR, first, second))

    def key(self) -> str:
        return f"({self.first.key()},{self.second.key()})"


class Inl(Value):
    __slots__ = ()
    _fields = ("value",)
    value = property(itemgetter(1))

    def __new__(cls, value: Value):
        return _new(cls, (_INL, value))

    def key(self) -> str:
        return f"inl {_wrap(self.value)}"


class Inr(Value):
    __slots__ = ()
    _fields = ("value",)
    value = property(itemgetter(1))

    def __new__(cls, value: Value):
        return _new(cls, (_INR, value))

    def key(self) -> str:
        return f"inr {_wrap(self.value)}"


class Dist(Value):
    """The distribution `param[index]` of the parameter map `param`."""

    __slots__ = ()
    _fields = ("param", "index")
    param = property(itemgetter(1))
    index = property(itemgetter(2))  # hides tuple.index, which no value uses

    def __new__(cls, param: str, index: Value):
        return _new(cls, (_DIST, param, index))

    @property
    def name(self) -> str:
        """The name the parameter file gives the table, e.g. "p[S]"."""
        return f"{self.param}[{self.index.key()}]"

    def key(self) -> str:
        return f"dist {self.name}"


def _wrap(v: Value) -> str:
    # inl/inr arguments need parens unless they are already atomic
    if isinstance(v, (Inl, Inr, Dist)):
        return f"({v.key()})"
    return v.key()


TRUE = Bool(True)
FALSE = Bool(False)
UNIT = Unit()
NIL = Atom("")


class ValueSyntaxError(FggcError, ValueError):
    """A value literal or JSON value encoding that does not read as a value."""


# ---------------------------------------------------------------------------
# JSON interchange encoding (tagged objects).

def value_to_json(v: Value):
    if isinstance(v, Atom):
        return {"atom": v.name}
    if isinstance(v, Bool):
        return {"bool": v.value}
    if isinstance(v, Unit):
        return "unit"
    if isinstance(v, Pair):
        return {"pair": [value_to_json(v.first), value_to_json(v.second)]}
    if isinstance(v, Inl):
        return {"inl": value_to_json(v.value)}
    if isinstance(v, Inr):
        return {"inr": value_to_json(v.value)}
    if isinstance(v, Dist):
        return {"dist": v.name}
    raise TypeError(f"not a value: {v!r}")


_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "array", dict: "object"}


def json_type(x) -> str:
    """The JSON name of the kind of `x`, a value read from JSON."""
    return _JSON_TYPES.get(type(x), type(x).__name__)


def value_from_json(obj) -> Value:
    from .parser import parse_value  # the parser imports this module
    if obj == "unit":
        return UNIT
    if isinstance(obj, str):
        # convenience: bare strings are parsed as literals
        return parse_value(obj)
    if isinstance(obj, bool):
        return Bool(obj)
    if isinstance(obj, dict) and len(obj) == 1:
        (tag, body), = obj.items()
        if tag == "atom" and isinstance(body, str):
            return Atom(body)
        if tag == "bool" and isinstance(body, bool):
            return Bool(body)
        if tag == "pair" and isinstance(body, list) and len(body) == 2:
            return Pair(value_from_json(body[0]), value_from_json(body[1]))
        if tag == "inl":
            return Inl(value_from_json(body))
        if tag == "inr":
            return Inr(value_from_json(body))
        if tag == "dist" and isinstance(body, str):
            v = parse_value(f"dist {body}")
            if isinstance(v, Dist):  # not the atom `dist` of an empty body
                return v
    raise ValueSyntaxError(f"bad value encoding: {json.dumps(obj, default=repr)}")


# ---------------------------------------------------------------------------


class Domain:
    """A named, ordered, finite, nonempty set of values."""

    def __init__(self, name: str, values):
        values = tuple(values)
        if not values:
            raise ValueError(f"domain {name!r} is empty")
        if len(set(values)) != len(values):
            raise ValueError(f"domain {name!r} has duplicate values")
        self.name = name
        self.values = values
        self._index = {v: i for i, v in enumerate(values)}
        self._seen: dict = {}

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, v) -> bool:
        return v in self._index

    def __iter__(self):
        return iter(self.values)

    def positions(self, other: Domain) -> tuple[int, ...]:
        """The index here of each of `other`'s values, -1 for one this
        domain lacks; kept, with `other`, for the next call."""
        got = self._seen.get(id(other))
        if got is None or got[0] is not other:  # a copy's entries hold stale ids
            got = self._seen[id(other)] = other, tuple(self._index.get(v, -1) for v in other.values)
        return got[1]

    def index(self, v: Value) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise KeyError(f"value {v.key()} not in domain {self.name}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Domain) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"Domain({self.name!r}, {[v.key() for v in self.values]})"


def sorted_values(values) -> tuple[Value, ...]:
    """Deterministic ordering of a set of values (by canonical key)."""
    return tuple(sorted(values, key=lambda v: v.key()))
