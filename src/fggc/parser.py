"""Lexer and recursive-descent parser for the source language.

Concrete syntax (low to high precedence):

    program  ::= { "fun" IDENT "(" [IDENT {"," IDENT}] ")" "=" expr ";" } expr
    expr     ::= "let" IDENT "=" expr "in" expr
               | "if" expr "then" expr "else" expr
               | "case" expr "of" "inl" "(" IDENT ")" "=>" expr
                                "|" "inr" "(" IDENT ")" "=>" expr
               | "sample" atom
               | "observe" orexpr "<-" expr
               | orexpr
    orexpr   ::= andexpr { "or" andexpr }
    andexpr  ::= cmpexpr { "and" cmpexpr }
    cmpexpr  ::= atom [ ("=" | "!=") atom ]
    atom     ::= "true" | "false" | "unit" | "nil" | "fail"
               | "(" expr ")" | "(" expr "," expr ")"
               | IDENT "(" [expr {"," expr}] ")"     -- call or named built-in
               | IDENT "[" expr "]"                  -- parameter lookup
               | IDENT

    value    ::= "(" value ")" | "(" value "," value ")"
               | "true" | "false" | "unit" | "nil"
               | ("inl" | "inr") value
               | "dist" IDENT "[" value "]"
               | "atom" KEYWORD                      -- the atom named KEYWORD
               | IDENT | KEYWORD                     -- an atom

`value` is the literal syntax that `Value.key()` prints and parameter files
use (see parse_value); an atom named `true`, `false`, `unit`, `nil`, `inl`
or `inr` prints as `atom NAME`. Comments run from '#' to end of line. `a and b`
parses to `if a then b else false`, `a or b` to `if a then true else b` and
`not(e)` to `if e then false else true`; each form, and each constant it
adds, takes the position of its keyword. `fail` is a core form of its own
(`ast.Fail`), which has no value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import ast
from .ast import (BuiltinApp, Call, Case, Expr, Fail, FunDef, If, Let,
                  Lookup, Observe, Program, Sample, Var)
from .values import (FALSE, NIL, TRUE, UNIT, Atom, Dist, FggcError, Inl,
                     Inr, Pair, Value, ValueSyntaxError)

KEYWORDS = {
    "fun", "let", "in", "sample", "observe", "if", "then", "else", "case",
    "of", "inl", "inr", "and", "or", "fail", "true", "false", "unit", "nil",
}

SYMBOLS = ["<-", "=>", "!=", "(", ")", "[", "]", ",", ";", "=", "|"]


_CONSTANTS = {"true": TRUE, "false": FALSE, "unit": UNIT, "nil": NIL}


class ParseError(FggcError):
    pass


@dataclass
class Token:
    kind: str  # "ident", "kw", "sym", "eof"
    text: str
    pos: tuple[int, int]


# Spaces, tabs and carriage returns, then one token, comment or newline. An
# identifier starts with a letter or '_' (checked in tokenize, since
# `[^\W\d]` also takes digits that are not decimal, such as '²') and goes on
# with letters, digits, '_' and "'". Any other character is unexpected.
_TOKEN = re.compile(r"[ \t\r]*(?:(?P<ident>[^\W\d][\w']*)|(?P<sym>"
                    + "|".join(re.escape(sym) for sym in SYMBOLS)
                    + r")|(?P<newline>\n)|(?P<comment>#[^\n]*)|(?P<bad>[^ \t\r]))")


def tokenize(source: str) -> list[Token]:
    """The tokens of `source`, each at its (line, column), both from 1; a
    tab is one column."""
    toks: list[Token] = []
    line, start = 1, 0  # the current line and the index of its first character
    m = None
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text, pos = m.group(kind), (line, m.start(kind) - start + 1)
        if kind == "ident" and (text[0].isalpha() or text[0] == "_"):
            toks.append(Token("kw" if text in KEYWORDS else "ident", text, pos))
        elif kind == "sym":
            toks.append(Token("sym", text, pos))
        elif kind == "newline":
            line, start = line + 1, m.end()
        elif kind != "comment":
            raise ParseError(f"unexpected character {text[0]!r}", pos)
    # a comment that ends the source leaves the end of input at its '#'
    end = m.start(m.lastgroup) if m is not None and m.lastgroup == "comment" else len(source)
    toks.append(Token("eof", "", (line, end - start + 1)))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    @property
    def tok(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.tok
        self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.tok
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            want = "end of input" if kind == "eof" else repr(text)
            raise ParseError(f"expected {want}, found {self.tok.text or 'end of input'!r}",
                             self.tok.pos)
        return self.advance()

    def ident(self) -> Token:
        if not self.at("ident"):
            raise ParseError(f"expected identifier, found {self.tok.text or 'end of input'!r}",
                             self.tok.pos)
        return self.advance()

    # -- grammar ------------------------------------------------------------

    def program(self) -> Program:
        funs: list[FunDef] = []
        while self.at("kw", "fun"):
            pos = self.advance().pos
            name = self.ident().text
            self.expect("sym", "(")
            params: list[str] = []
            if not self.at("sym", ")"):
                params.append(self.ident().text)
                while self.at("sym", ","):
                    self.advance()
                    params.append(self.ident().text)
            self.expect("sym", ")")
            self.expect("sym", "=")
            body = self.expr()
            self.expect("sym", ";")
            funs.append(FunDef(name, params, body, pos))
        main = self.expr()
        self.expect("eof")
        return Program(funs, main)

    def expr(self) -> Expr:
        t = self.tok
        if self.at("kw", "let"):
            self.advance()
            name = self.ident().text
            self.expect("sym", "=")
            bound = self.expr()
            self.expect("kw", "in")
            body = self.expr()
            return Let(name, bound, body, pos=t.pos)
        if self.at("kw", "if"):
            self.advance()
            cond = self.expr()
            self.expect("kw", "then")
            then = self.expr()
            self.expect("kw", "else")
            els = self.expr()
            return If(cond, then, els, pos=t.pos)
        if self.at("kw", "case"):
            self.advance()
            scrut = self.expr()
            self.expect("kw", "of")
            self.expect("kw", "inl")
            self.expect("sym", "(")
            lv = self.ident().text
            self.expect("sym", ")")
            self.expect("sym", "=>")
            left = self.expr()
            self.expect("sym", "|")
            self.expect("kw", "inr")
            self.expect("sym", "(")
            rv = self.ident().text
            self.expect("sym", ")")
            self.expect("sym", "=>")
            right = self.expr()
            return Case(scrut, lv, left, rv, right, pos=t.pos)
        if self.at("kw", "sample"):
            self.advance()
            return Sample(self.atom(), pos=t.pos)
        if self.at("kw", "observe"):
            self.advance()
            value = self.orexpr()
            self.expect("sym", "<-")
            dist = self.expr()
            return Observe(value, dist, pos=t.pos)
        return self.orexpr()

    def orexpr(self) -> Expr:
        e = self.andexpr()
        while self.at("kw", "or"):
            pos = self.advance().pos
            e = If(e, _const("true", pos), self.andexpr(), pos=pos)
        return e

    def andexpr(self) -> Expr:
        e = self.cmpexpr()
        while self.at("kw", "and"):
            pos = self.advance().pos
            e = If(e, self.cmpexpr(), _const("false", pos), pos=pos)
        return e

    def cmpexpr(self) -> Expr:
        e = self.atom()
        if self.at("sym", "=") or self.at("sym", "!="):
            op = self.advance()
            rhs = self.atom()
            return BuiltinApp(op.text, [e, rhs], pos=op.pos)
        return e

    def atom(self) -> Expr:
        t = self.tok
        if t.kind == "kw" and t.text in ("true", "false", "unit", "nil"):
            self.advance()
            return _const(t.text, t.pos)
        if self.at("kw", "fail"):
            self.advance()
            return Fail(pos=t.pos)
        if self.at("kw", "inl") or self.at("kw", "inr"):
            op = self.advance()
            self.expect("sym", "(")
            arg = self.expr()
            self.expect("sym", ")")
            return BuiltinApp(op.text, [arg], pos=op.pos)
        if self.at("sym", "("):
            self.advance()
            e = self.expr()
            if self.at("sym", ","):
                self.advance()
                second = self.expr()
                self.expect("sym", ")")
                return BuiltinApp("pair", [e, second], pos=t.pos)
            self.expect("sym", ")")
            return e
        if self.at("ident"):
            name = self.advance()
            if self.at("sym", "("):
                self.advance()
                args: list[Expr] = []
                if not self.at("sym", ")"):
                    args.append(self.expr())
                    while self.at("sym", ","):
                        self.advance()
                        args.append(self.expr())
                self.expect("sym", ")")
                if name.text in ast.NAMED_BUILTINS:
                    want = ast.BUILTIN_ARITY[name.text]
                    if len(args) != want:
                        raise ParseError(
                            f"built-in {name.text!r} takes {want} argument(s), got {len(args)}",
                            name.pos)
                    if name.text == "not":
                        return If(args[0], _const("false", name.pos),
                                  _const("true", name.pos), pos=name.pos)
                    return BuiltinApp(name.text, args, pos=name.pos)
                return Call(name.text, args, pos=name.pos)
            if self.at("sym", "["):
                self.advance()
                index = self.expr()
                self.expect("sym", "]")
                return Lookup(name.text, index, pos=name.pos)
            return Var(name.text, pos=name.pos)
        raise ParseError(f"expected expression, found {t.text or 'end of input'!r}", t.pos)

    def value(self) -> Value:
        t = self.advance()
        if t.kind == "sym" and t.text == "(":
            v = self.value()
            if self.at("sym", ","):
                self.advance()
                v = Pair(v, self.value())
            self.expect("sym", ")")
            return v
        if t.kind == "kw" and t.text in _CONSTANTS:
            return _CONSTANTS[t.text]
        if t.kind == "kw" and t.text in ("inl", "inr"):
            return (Inl if t.text == "inl" else Inr)(self.value())
        if t.text == "dist" and self.at("ident"):
            param = self.advance().text
            self.expect("sym", "[")
            index = self.value()
            self.expect("sym", "]")
            return Dist(param, index)
        if t.text == "atom" and self.at("kw"):
            return Atom(self.advance().text)
        if t.kind in ("ident", "kw"):
            return Atom(t.text)
        raise ParseError(f"expected value, found {t.text or 'end of input'!r}", t.pos)


def _const(op: str, pos: tuple[int, int]) -> BuiltinApp:
    return BuiltinApp(op, [], pos=pos)


def parse(source: str) -> Program:
    return _Parser(tokenize(source)).program()


def parse_expr(source: str) -> Expr:
    p = _Parser(tokenize(source))
    e = p.expr()
    p.expect("eof")
    return e


def parse_value(text: str) -> Value:
    """The value that the literal `text` spells, in the syntax Value.key()
    prints; raises ValueSyntaxError if it spells none."""
    try:
        if "#" in text:  # tokenize would drop the rest of the line as a comment
            raise ParseError("unexpected character '#'")
        p = _Parser(tokenize(text))
        v = p.value()
        p.expect("eof")
        return v
    except ParseError as e:
        raise ValueSyntaxError(f"bad value literal {text!r}: {e}") from None
