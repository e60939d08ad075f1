"""Lexer and recursive-descent parser for `.tl` sources.

The grammar is ML-flavored; see the README for the full reference.  The
parser expands sugar on the way in: `flip()`/`flip(e)` become labeled
rand tests, `let x = e1 in e2` becomes an applied lambda, `e1; e2` a
wildcard let, `&&`/`||` become conditionals, and `some`/`none`/`option`
are the usual injections into `unit + t`.  What comes out is the unique
annotated tree for the source; `print(parse(s))` re-parses to the same
tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    ANNOTATED_FORMS, BASE_TYPES, BINOP_LEVELS, PREFIX_FORMS, TYPE_BINDERS, App,
    Binop, Bool, Expr, Hole, If, Inl, Inr, Int, Load, Match, Pack, Pair, Rand,
    Rec, Store, TApp, TArrow, TLam, TProd, TRef, TSum, TUnit, TVar, Type,
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

# The keywords that start an item.
_ITEM_WORDS = {*PREFIX_FORMS, *ANNOTATED_FORMS, "pack", "some", "none",
               "rand", "flip", "true", "false", "hole", "match"}

KEYWORDS = {
    "let", "in", "if", "then", "else", "fun", "rec", "with", "end", "unpack",
    "as", "tfun", "option", *_ITEM_WORDS, *BASE_TYPES, *TYPE_BINDERS,
    *(op for op in _LEVELS if op.isalpha()),
}

PUNCT = ["<-", "->", "<=", "&&", "||", "(", ")", "[", "]", ",", ";", ".",
         ":", "+", "-", "*", "=", "<", "!", "|"]


@dataclass
class Token:
    kind: str  # "int", "ident", "kw", or the punctuation itself
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            toks.append(Token("kw" if word in KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if src.startswith(p, i):
                toks.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.pos = 0

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            t = self.peek()
            wanted = text or kind
            raise ParseError(f"expected {wanted!r}, found {t.text or t.kind!r}",
                             t.line, t.col)
        return self.next()

    def expect_kw(self, word: str) -> Token:
        return self.expect("kw", word)

    def ident(self) -> str:
        if self.at("ident"):
            return self.next().text
        t = self.peek()
        raise ParseError(f"expected identifier, found {t.text or t.kind!r}",
                         t.line, t.col)

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- types

    def type_(self) -> Type:
        if self.peek().text in TYPE_BINDERS:
            ctor = TYPE_BINDERS[self.next().text]
            var = self.ident()
            self.expect(".")
            return ctor(var, self.type_())
        return self.ty_arrow()

    def ty_arrow(self) -> Type:
        left = self.ty_sum()
        if self.at("->"):
            self.next()
            return TArrow(left, self.type_())
        return left

    def ty_sum(self) -> Type:
        left = self.ty_prod()
        while self.at("+"):
            self.next()
            left = TSum(left, self.ty_prod())
        return left

    def ty_prod(self) -> Type:
        left = self.ty_atom()
        while self.at("*"):
            self.next()
            left = TProd(left, self.ty_atom())
        return left

    def ty_atom(self) -> Type:
        t = self.peek()
        if t.kind == "kw":
            if t.text in BASE_TYPES:
                self.next()
                return BASE_TYPES[t.text]()
            if t.text == "ref":
                self.next()
                return TRef(self.ty_atom())
            if t.text == "option":
                self.next()
                return TSum(TUnit(), self.ty_atom())
        if t.kind == "ident":
            return TVar(self.next().text)
        if self.at("("):
            self.next()
            inner = self.type_()
            self.expect(")")
            return inner
        self.fail(f"expected a type, found {t.text or t.kind!r}")

    # -- expressions

    def expr(self) -> Expr:
        t = self.peek()
        if t.kind == "kw":
            if t.text == "let":
                return self.let_()
            if t.text == "fun":
                return self.fun_()
            if t.text == "rec":
                return self.rec_()
            if t.text == "tfun":
                self.next()
                var = self.ident()
                self.expect("->")
                return TLam(var, self.expr())
            if t.text == "if":
                self.next()
                cond = self.expr()
                self.expect_kw("then")
                then = self.expr()
                self.expect_kw("else")
                return If(cond, then, self.expr())
            if t.text == "unpack":
                self.next()
                packed = self.seq()
                self.expect_kw("as")
                tvar = self.ident()
                self.expect(",")
                var = self.ident()
                self.expect_kw("in")
                return Unpack(packed, tvar, var, self.expr())
        return self.seq()

    def let_(self) -> Expr:
        self.expect_kw("let")
        name = self.ident()
        self.expect("=")
        bound = self.expr()
        self.expect_kw("in")
        body = self.expr()
        return App(Rec("_", name, body, None, None), bound)

    def fun_(self) -> Expr:
        self.expect_kw("fun")
        if self.at("("):
            self.next()
            name = self.ident()
            self.expect(":")
            pty = self.type_()
            self.expect(")")
        elif self.at("ident") and self.peek().text == "_":
            self.next()
            name, pty = "_", TUnit()
        else:
            self.fail("fun parameter needs a type: fun (x : t) -> ... "
                      "(only `fun _ ->` may omit it, defaulting to unit)")
        self.expect("->")
        return Rec("_", name, self.expr(), pty, None)

    def rec_(self) -> Expr:
        self.expect_kw("rec")
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

    def seq(self) -> Expr:
        first = self.assign()
        if self.at(";"):
            self.next()
            rest = self.expr()
            return App(Rec("_", "_", rest, None, None), first)
        return first

    def assign(self) -> Expr:
        left = self.binary(0)
        if self.at("<-"):
            self.next()
            return Store(left, self.assign())
        return left

    def binary(self, floor: int) -> Expr:
        """Operators of level `floor` or tighter, by precedence climbing.
        After an operator of level L the next may be of level L only if L
        chains; otherwise it must be looser, and at `floor` or tighter."""
        left = self.app()
        ceiling = len(_LEVELS)  # above every level
        while True:
            op = self.peek().text
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
        while self.starts_item():
            e = App(e, self.item())
        return e

    def starts_item(self) -> bool:
        t = self.peek()
        return (t.kind in ("int", "ident", "(", "!")
                or t.kind == "kw" and t.text in _ITEM_WORDS)

    def item(self) -> Expr:
        t = self.peek()
        if self.at("!"):
            self.next()
            return Load(self.item())
        if t.kind == "kw":
            if t.text in PREFIX_FORMS:
                self.next()
                return PREFIX_FORMS[t.text](self.item())
            if t.text in ANNOTATED_FORMS:
                self.next()
                self.expect("[")
                ann = self.type_()
                self.expect("]")
                return ANNOTATED_FORMS[t.text](self.item(), ann)
            if t.text == "pack":
                self.next()
                self.expect("[")
                witness = self.type_()
                self.expect(",")
                ex = self.type_()
                self.expect("]")
                return Pack(self.item(), witness, ex)
            if t.text == "some":
                self.next()
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return Inr(inner, TUnit())
            if t.text == "none":
                self.next()
                self.expect("[")
                ann = self.type_()
                self.expect("]")
                return Inl(Unit(), ann)
            if t.text == "rand":
                self.next()
                self.expect("(")
                bound = self.expr()
                label: Expr = Unit()
                if self.at(","):
                    self.next()
                    label = self.expr()
                self.expect(")")
                return Rand(bound, label)
            if t.text == "flip":
                self.next()
                self.expect("(")
                label = Unit()
                if not self.at(")"):
                    label = self.expr()
                self.expect(")")
                return If(Binop("=", Rand(Int(1), label), Int(0)),
                          Bool(False), Bool(True))
        return self.atom_with_tapps()

    def atom_with_tapps(self) -> Expr:
        e = self.atom()
        while self.at("["):
            self.next()
            ty = self.type_()
            self.expect("]")
            e = TApp(e, ty)
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Int(int(t.text))
        if t.kind == "ident":
            self.next()
            return Var(t.text)
        if t.kind == "kw":
            if t.text == "true":
                self.next()
                return Bool(True)
            if t.text == "false":
                self.next()
                return Bool(False)
            if t.text == "hole":
                self.next()
                return Hole()
            if t.text == "match":
                return self.match_()
        if self.at("("):
            self.next()
            if self.at(")"):
                self.next()
                return Unit()
            first = self.expr()
            if self.at(","):
                self.next()
                second = self.expr()
                self.expect(")")
                return Pair(first, second)
            self.expect(")")
            return first
        self.fail(f"expected an expression, found {t.text or t.kind!r}")

    def match_(self) -> Expr:
        self.expect_kw("match")
        scrutinee = self.expr()
        self.expect_kw("with")
        if self.at("|"):
            self.next()
        arms: dict[str, tuple[str, Expr]] = {}
        while True:
            t = self.peek()
            if t.kind != "kw" or t.text not in ("inl", "inr", "some", "none"):
                self.fail("expected a match arm (inl/inr/some/none)")
            self.next()
            if t.text == "none":
                side, var = "inl", "_"
            else:
                side = "inr" if t.text == "some" else t.text
                var = self.ident()
            self.expect("->")
            body = self.expr()
            if side in arms:
                raise ParseError(f"duplicate {side} arm in match", t.line, t.col)
            arms[side] = (var, body)
            if self.at("|"):
                self.next()
                continue
            break
        self.expect_kw("end")
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
