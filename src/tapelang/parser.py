"""Lexer and recursive-descent parser for `.tl` sources.

The grammar is ML-flavored; see the README for the full reference.  The
parser expands sugar on the way in: `flip()`/`flip(e)` become labeled
rand tests, `let x = e1 in e2` becomes an applied lambda, `e1; e2` a
wildcard let, `&&`/`||` become conditionals, and `some`/`none`/`option`
are the usual injections into `unit + t`.  What comes out is the unique
annotated tree for the source; `print(parse(s))` re-parses to the same
tree.

The lexer is one regular expression, `_TOKEN`, walked with `finditer`.
It skips blanks (space, tab, carriage return) and `#` comments, counts
newlines, and reads an integer literal as ASCII `[0-9]+`, a word as a
letter or `_` followed by letters, digits and `_`, and punctuation as
the longest match in `PUNCT`; any other character is an error.  A
token's kind is the keyword or punctuation itself, "ident" for any other
word, "num" for an integer literal (not "int", a keyword) and "eof" at
the end of input.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .syntax import (
    ANNOTATED_FORMS, BASE_TYPES, BINOP_LEVELS, PREFIX_FORMS, TYPE_BINDERS,
    TYPE_OPS, App, Binop, Bool, Expr, Hole, If, Inl, Inr, Int, Load, Match,
    Pack, Pair, Rand, Rec, Store, TApp, TLam, TRef, TSum, TUnit, TVar, Type,
    Unpack, Unit, Var,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# `||` and `&&` are sugar for conditionals, at the two loosest levels.
_SUGAR = {"||": lambda a, b: If(a, Bool(True), b),
          "&&": lambda a, b: If(a, b, Bool(False))}
# Binary operators: op -> (level, chains), level 0 the loosest.
_LEVELS = {op: (i, chains)
           for i, (ops, chains) in enumerate(
               ((("||",), True), (("&&",), True), *BINOP_LEVELS))
           for op in ops}
# Type operators: op -> (level, constructor, associativity), 0 the loosest.
_TY_LEVELS = {op: (i, ctor, assoc)
              for i, (op, ctor, assoc) in enumerate(TYPE_OPS)}
_NOT_AN_OP = (-1, None, None)

# The keywords that start an item.
_ITEM_WORDS = {*PREFIX_FORMS, *ANNOTATED_FORMS, "pack", "some", "none",
               "rand", "flip", "true", "false", "hole", "match"}
_ITEM_START = {"num", "ident", "(", "!", *_ITEM_WORDS}
_CONSTANTS = {"true": Bool(True), "false": Bool(False), "hole": Hole()}

KEYWORDS = {
    "let", "in", "if", "then", "else", "fun", "rec", "with", "end", "unpack",
    "as", "tfun", "option", *_ITEM_WORDS, *BASE_TYPES, *TYPE_BINDERS,
    *(op for op in _LEVELS if op.isalpha()),
}

PUNCT = ["<-", "->", "<=", "&&", "||", "(", ")", "[", "]", ",", ";", ".",
         ":", "+", "-", "*", "=", "<", "!", "|"]

# One alternative per token class; punctuation longest first, so that
# `<-` is one token whatever the order of PUNCT.
_TOKEN = re.compile("|".join((
    r"(?P<newline>\n)", r"(?P<skip>[ \t\r]+|#[^\n]*)", r"(?P<num>[0-9]+)",
    r"(?P<word>[^\W\d]\w*)",
    "(?P<punct>%s)" % "|".join(map(re.escape, sorted(PUNCT, key=len,
                                                     reverse=True))),
    r"(?P<bad>.)")))


class Token(NamedTuple):
    kind: str  # a keyword or punctuation, "ident", "num" or "eof"
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "word" and (text[0].isalpha() or text[0] == "_"):
            toks.append(Token(text if text in KEYWORDS else "ident", text,
                              line, col))
        elif kind in ("num", "punct"):
            toks.append(Token(text if kind == "punct" else kind, text,
                              line, col))
        elif kind != "skip":
            # a stray character, or a word that starts with a numeral such
            # as `²`: `\w` takes those, but they start no word
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
    toks.append(Token("eof", "", line, len(src) - line_start + 1))
    return toks


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.pos = 0

    # -- token plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def take(self, kind: str) -> Token | None:
        """Consume the next token if it is of this kind."""
        return self.next() if self.toks[self.pos].kind == kind else None

    def expect(self, kind: str) -> Token:
        return self.take(kind) or self.wanted(repr(kind))

    def ident(self) -> str:
        return (self.take("ident") or self.wanted("identifier")).text

    def wanted(self, what: str):
        t = self.peek()
        self.fail(f"expected {what}, found {t.text or t.kind!r}")

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def annotation(self) -> Type:
        """`[t]`"""
        self.expect("[")
        ann = self.type_()
        self.expect("]")
        return ann

    # -- types

    def type_(self, floor: int = 0) -> Type:
        """A type whose operators are of level `floor` or tighter in
        TYPE_OPS, by precedence climbing; at floor 0 also a binder, whose
        body extends as far right as it can."""
        if floor == 0 and self.peek().kind in TYPE_BINDERS:
            ctor = TYPE_BINDERS[self.next().kind]
            var = self.ident()
            self.expect(".")
            return ctor(var, self.type_())
        left = self.ty_atom()
        while True:
            level, ctor, assoc = _TY_LEVELS.get(self.peek().kind, _NOT_AN_OP)
            if level < floor:
                return left
            self.next()
            left = ctor(left, self.type_(level if assoc == "right"
                                         else level + 1))

    def ty_atom(self) -> Type:
        kind = self.peek().kind
        if kind in BASE_TYPES:
            self.next()
            return BASE_TYPES[kind]()
        if self.take("ref"):
            return TRef(self.ty_atom())
        if self.take("option"):
            return TSum(TUnit(), self.ty_atom())
        if kind == "ident":
            return TVar(self.next().text)
        if self.take("("):
            inner = self.type_()
            self.expect(")")
            return inner
        self.wanted("a type")

    # -- expressions

    def expr(self) -> Expr:
        kind = self.peek().kind
        if kind == "let":
            self.next()
            name = self.ident()
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            return App(Rec("_", name, self.expr(), None, None), bound)
        if kind == "fun":
            self.next()
            if self.take("("):
                name = self.ident()
                self.expect(":")
                pty = self.type_()
                self.expect(")")
            elif self.peek().text == "_":
                self.next()
                name, pty = "_", TUnit()
            else:
                self.fail("fun parameter needs a type: fun (x : t) -> ... "
                          "(only `fun _ ->` may omit it, defaulting to unit)")
            self.expect("->")
            return Rec("_", name, self.expr(), pty, None)
        if kind == "rec":
            self.next()
            fname = self.ident()
            self.expect("(")
            param = self.ident()
            self.expect(":")
            pty = self.type_()
            self.expect(")")
            self.expect(":")
            rty = self.type_()
            self.expect("=")
            return Rec(fname, param, self.expr(), pty, rty)
        if kind == "tfun":
            self.next()
            var = self.ident()
            self.expect("->")
            return TLam(var, self.expr())
        if kind == "if":
            self.next()
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            return If(cond, then, self.expr())
        if kind == "unpack":
            self.next()
            packed = self.seq()
            self.expect("as")
            tvar = self.ident()
            self.expect(",")
            var = self.ident()
            self.expect("in")
            return Unpack(packed, tvar, var, self.expr())
        return self.seq()

    def seq(self) -> Expr:
        first = self.assign()
        if self.take(";"):
            return App(Rec("_", "_", self.expr(), None, None), first)
        return first

    def assign(self) -> Expr:
        left = self.binary(0)
        if self.take("<-"):
            return Store(left, self.assign())
        return left

    def binary(self, floor: int) -> Expr:
        """Operators of level `floor` or tighter, by precedence climbing.
        After an operator of level L the next may be of level L only if L
        chains; otherwise it must be looser, and at `floor` or tighter."""
        left = self.app()
        ceiling = len(_LEVELS)  # above every level
        while True:
            op = self.peek().kind
            level, chains = _LEVELS.get(op, (-1, False))
            if not floor <= level <= ceiling:
                return left
            self.next()
            right = self.binary(level + 1)
            left = (_SUGAR[op](left, right) if op in _SUGAR
                    else Binop(op, left, right))
            ceiling = level if chains else level - 1

    def app(self) -> Expr:
        e = self.item()
        while self.peek().kind in _ITEM_START:
            e = App(e, self.item())
        return e

    def item(self) -> Expr:
        """An atom with its type applications, or a form around an item."""
        kind = self.peek().kind
        if kind == "!":
            self.next()
            return Load(self.item())
        if kind in PREFIX_FORMS:
            self.next()
            return PREFIX_FORMS[kind](self.item())
        if kind in ANNOTATED_FORMS:
            self.next()
            ann = self.annotation()
            return ANNOTATED_FORMS[kind](self.item(), ann)
        if kind == "pack":
            self.next()
            self.expect("[")
            witness = self.type_()
            self.expect(",")
            ex = self.type_()
            self.expect("]")
            return Pack(self.item(), witness, ex)
        if kind == "some":
            self.next()
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Inr(inner, TUnit())
        if kind == "none":
            self.next()
            return Inl(Unit(), self.annotation())
        if kind == "rand":
            self.next()
            self.expect("(")
            bound = self.expr()
            label = self.expr() if self.take(",") else Unit()
            self.expect(")")
            return Rand(bound, label)
        if kind == "flip":
            self.next()
            self.expect("(")
            label = Unit() if self.peek().kind == ")" else self.expr()
            self.expect(")")
            return If(Binop("=", Rand(Int(1), label), Int(0)),
                      Bool(False), Bool(True))
        e = self.atom()
        while self.peek().kind == "[":
            e = TApp(e, self.annotation())
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            try:
                n = int(t.text)
            except ValueError:  # more digits than int() converts
                self.fail(f"integer literal too long ({len(t.text)} digits)")
            self.next()
            return Int(n)
        if t.kind == "ident":
            self.next()
            return Var(t.text)
        if t.kind in _CONSTANTS:
            self.next()
            return _CONSTANTS[t.kind]
        if self.take("match"):
            return self.match_()
        if self.take("("):
            if self.take(")"):
                return Unit()
            first = self.expr()
            if self.take(","):
                second = self.expr()
                self.expect(")")
                return Pair(first, second)
            self.expect(")")
            return first
        self.wanted("an expression")

    def match_(self) -> Expr:
        """The rest of a match, after its keyword."""
        scrutinee = self.expr()
        self.expect("with")
        self.take("|")
        arms: dict[str, tuple[str, Expr]] = {}
        while True:
            t = self.peek()
            if t.kind not in ("inl", "inr", "some", "none"):
                self.fail("expected a match arm (inl/inr/some/none)")
            self.next()
            if t.kind == "none":
                side, var = "inl", "_"
            else:
                side = "inr" if t.kind == "some" else t.kind
                var = self.ident()
            self.expect("->")
            body = self.expr()
            if side in arms:
                raise ParseError(f"duplicate {side} arm in match", t.line, t.col)
            arms[side] = (var, body)
            if not self.take("|"):
                break
        self.expect("end")
        if set(arms) != {"inl", "inr"}:
            self.fail("match needs exactly one inl/none arm and one inr/some arm")
        lv, lb = arms["inl"]
        rv, rb = arms["inr"]
        return Match(scrutinee, lv, lb, rv, rb)


def parse(src: str) -> Expr:
    """Parse one program (a single expression) from source text."""
    p = Parser(src)
    e = p.expr()
    p.expect("eof")
    return e


def parse_type(src: str) -> Type:
    p = Parser(src)
    t = p.type_()
    p.expect("eof")
    return t
