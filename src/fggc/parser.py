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

The tokenizer scans each line with one regular expression and returns three
parallel lists: tags, texts and (line, column) positions. A keyword or
symbol is tagged with its own text; every identifier has the tag IDENT and
the end of input the tag EOF, sentinels that no token can spell. The parser
reads those lists by index and branches on tags.

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
from operator import itemgetter

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


# The tags of identifiers and of the end of input: no token holds a '%'.
IDENT, EOF = "%ident", "%eof"
_TAGS = {w: w for w in (*KEYWORDS, *SYMBOLS)}

# One token or comment. An identifier starts with a letter or '_' (checked in
# tokenize, since `[^\W\d]` also takes digits that are not decimal, such as
# '²') and goes on with letters, digits, '_' and "'". Any other character but
# a space, tab or carriage return is unexpected.
_TOKEN = re.compile(r"[^\W\d][\w']*|" + "|".join(re.escape(sym) for sym in SYMBOLS)
                    + r"|#.*|[^ \t\r]")
_text = itemgetter(0)


def tokenize(source: str) -> tuple[list[str], list[str], list[tuple[int, int]]]:
    """The tags, texts and (line, column) positions of the tokens of
    `source`, as three parallel lists that end with EOF; line and column
    count from 1, and a tab is one column."""
    texts: list[str] = []
    poses: list[tuple[int, int]] = []
    # only '\n' ends a line: str.splitlines would also split at '\f' and more
    for line_no, line in enumerate(source.split("\n"), 1):
        found = [*_TOKEN.finditer(line)]
        end = len(line) + 1  # the end of input, if this line is the last
        if found and found[-1][0][0] == "#":  # a comment, which ends the line
            end = found.pop().start() + 1
        texts += map(_text, found)
        poses += [(line_no, m.start() + 1) for m in found]
    bad = {w for w in set(texts).difference(_TAGS) if not (w[0].isalpha() or w[0] == "_")}
    if bad:
        i = next(i for i, w in enumerate(texts) if w in bad)
        raise ParseError(f"unexpected character {texts[i][0]!r}", poses[i])
    tags = [_TAGS.get(w, IDENT) for w in texts]
    tags.append(EOF)
    texts.append("")
    poses.append((line_no, end))
    return tags, texts, poses


class _Parser:
    def __init__(self, source: str):
        self.tags, self.texts, self.poses = tokenize(source)
        self.i = 0

    def expect(self, tag: str) -> tuple[int, int]:
        """Consume a token tagged `tag`; its position."""
        i = self.i
        if self.tags[i] != tag:
            want = "end of input" if tag == EOF else repr(tag)
            raise ParseError(f"expected {want}, found {self.texts[i] or 'end of input'!r}",
                             self.poses[i])
        self.i = i + 1
        return self.poses[i]

    def ident(self) -> str:
        """Consume an identifier; its text."""
        i = self.i
        if self.tags[i] != IDENT:
            raise ParseError(f"expected identifier, found {self.texts[i] or 'end of input'!r}",
                             self.poses[i])
        self.i = i + 1
        return self.texts[i]

    # -- grammar ------------------------------------------------------------

    def program(self) -> Program:
        tags = self.tags
        funs: list[FunDef] = []
        while tags[self.i] == "fun":
            pos = self.expect("fun")
            name = self.ident()
            self.expect("(")
            params: list[str] = []
            if tags[self.i] != ")":
                params.append(self.ident())
                while tags[self.i] == ",":
                    self.i += 1
                    params.append(self.ident())
            self.expect(")")
            self.expect("=")
            body = self.expr()
            self.expect(";")
            funs.append(FunDef(name, params, body, pos))
        main = self.expr()
        self.expect(EOF)
        return Program(funs, main)

    def expr(self) -> Expr:
        i = self.i
        tag, pos = self.tags[i], self.poses[i]
        if tag == "let":
            self.i = i + 1
            name = self.ident()
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            return Let(name, bound, self.expr(), pos=pos)
        if tag == "if":
            self.i = i + 1
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            return If(cond, then, self.expr(), pos=pos)
        if tag == "case":
            self.i = i + 1
            scrut = self.expr()
            self.expect("of")
            self.expect("inl")
            self.expect("(")
            lv = self.ident()
            self.expect(")")
            self.expect("=>")
            left = self.expr()
            self.expect("|")
            self.expect("inr")
            self.expect("(")
            rv = self.ident()
            self.expect(")")
            self.expect("=>")
            return Case(scrut, lv, left, rv, self.expr(), pos=pos)
        if tag == "sample":
            self.i = i + 1
            return Sample(self.atom(), pos=pos)
        if tag == "observe":
            self.i = i + 1
            value = self.orexpr()
            self.expect("<-")
            return Observe(value, self.expr(), pos=pos)
        return self.orexpr()

    def orexpr(self) -> Expr:
        e = self.andexpr()
        while self.tags[self.i] == "or":
            pos = self.expect("or")
            e = If(e, _const("true", pos), self.andexpr(), pos=pos)
        return e

    def andexpr(self) -> Expr:
        e = self.cmpexpr()
        while self.tags[self.i] == "and":
            pos = self.expect("and")
            e = If(e, self.cmpexpr(), _const("false", pos), pos=pos)
        return e

    def cmpexpr(self) -> Expr:
        e = self.atom()
        i = self.i
        op = self.tags[i]
        if op == "=" or op == "!=":
            self.i = i + 1
            return BuiltinApp(op, [e, self.atom()], pos=self.poses[i])
        return e

    def atom(self) -> Expr:
        tags, i = self.tags, self.i
        tag, pos = tags[i], self.poses[i]
        self.i = i + 1
        if tag == IDENT:
            name = self.texts[i]
            if tags[i + 1] == "(":
                self.i = i + 2
                args: list[Expr] = []
                if tags[self.i] != ")":
                    args.append(self.expr())
                    while tags[self.i] == ",":
                        self.i += 1
                        args.append(self.expr())
                self.expect(")")
                if name in ast.NAMED_BUILTINS:
                    want = ast.BUILTIN_ARITY[name]
                    if len(args) != want:
                        raise ParseError(
                            f"built-in {name!r} takes {want} argument(s), got {len(args)}", pos)
                    if name == "not":
                        return If(args[0], _const("false", pos), _const("true", pos), pos=pos)
                    return BuiltinApp(name, args, pos=pos)
                return Call(name, args, pos=pos)
            if tags[i + 1] == "[":
                self.i = i + 2
                index = self.expr()
                self.expect("]")
                return Lookup(name, index, pos=pos)
            return Var(name, pos=pos)
        if tag == "(":
            e = self.expr()
            if tags[self.i] == ",":
                self.i += 1
                second = self.expr()
                self.expect(")")
                return BuiltinApp("pair", [e, second], pos=pos)
            self.expect(")")
            return e
        if tag in _CONSTANTS:
            return _const(tag, pos)
        if tag == "fail":
            return Fail(pos=pos)
        if tag == "inl" or tag == "inr":
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return BuiltinApp(tag, [arg], pos=pos)
        raise ParseError(f"expected expression, found {self.texts[i] or 'end of input'!r}", pos)

    def value(self) -> Value:
        tags, i = self.tags, self.i
        tag, text = tags[i], self.texts[i]
        self.i = i + 1
        if tag == "(":
            v = self.value()
            if tags[self.i] == ",":
                self.i += 1
                v = Pair(v, self.value())
            self.expect(")")
            return v
        if tag in _CONSTANTS:
            return _CONSTANTS[tag]
        if tag == "inl" or tag == "inr":
            return (Inl if tag == "inl" else Inr)(self.value())
        if text == "dist" and tags[i + 1] == IDENT:
            param = self.texts[i + 1]
            self.i = i + 2
            self.expect("[")
            index = self.value()
            self.expect("]")
            return Dist(param, index)
        if text == "atom" and tags[i + 1] in KEYWORDS:
            self.i = i + 2
            return Atom(self.texts[i + 1])
        if tag == IDENT or tag in KEYWORDS:
            return Atom(text)
        raise ParseError(f"expected value, found {text or 'end of input'!r}", self.poses[i])


def _const(op: str, pos: tuple[int, int]) -> BuiltinApp:
    return BuiltinApp(op, [], pos=pos)


def parse(source: str) -> Program:
    return _Parser(source).program()


def parse_expr(source: str) -> Expr:
    p = _Parser(source)
    e = p.expr()
    p.expect(EOF)
    return e


def parse_value(text: str) -> Value:
    """The value that the literal `text` spells, in the syntax Value.key()
    prints; raises ValueSyntaxError if it spells none."""
    try:
        if "#" in text:  # tokenize would drop the rest of the line as a comment
            raise ParseError("unexpected character '#'")
        p = _Parser(text)
        v = p.value()
        p.expect(EOF)
        return v
    except ParseError as e:
        raise ValueSyntaxError(f"bad value literal {text!r}: {e}") from None
