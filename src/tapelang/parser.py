"""Lexer and recursive-descent parser for `.tl` sources.

The grammar is ML-flavored; see the README for the full reference.  The
parser expands sugar on the way in: `flip()`/`flip(e)` become labeled
rand tests, `let x = e1 in e2` becomes an applied lambda, `e1; e2` a
wildcard let, `&&`/`||` become conditionals, and `some`/`none`/`option`
are the usual injections into `unit + t`.  `fun`, `let`, `;` and `rec _`
build closures with no name (`Rec.fname` None).  The keyword `hole` reads
as `Var("hole")`: a context is a term whose one free variable is `hole`,
which no binder can capture.  What comes out is the unique annotated tree
for the source; `print(parse(s))` re-parses to the same tree.

The lexer is one regular expression, `_TOKEN`, read with one `findall`
in `Parser.__init__`.  It skips blanks (space, tab, carriage return,
newline) and `#` comments, and reads an integer literal as ASCII
`[0-9]+`, a word as a letter or `_` followed by letters, digits and `_`,
and punctuation as the longest match in `PUNCT`; any other character is
an error.  The tokens are two flat lists, `kinds` and `texts`.  A
token's kind is the keyword or punctuation itself, "ident" for any other
word, "num" for an integer literal (not "int", a keyword) and "eof" at
the end of input.  Tokens keep no offsets and nothing counts lines while
lexing: only when a `ParseError` is raised at token i does `fail` lex
the source again with `_TOKEN` to find token i's offset, and from it the
line and column.
"""

from __future__ import annotations

import re
import string

from .syntax import (
    ANNOTATED_FORMS, BASE_TYPES, BINOP_LEVELS, PREFIX_FORMS, TYPE_BINDERS,
    TYPE_OPS, App, Binop, Bool, Expr, If, Inl, Inr, Int, Load, Match,
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
_NO_OP = (-1, None, None)  # the level of a token that is no type operator

# The keywords that start an expression form, those that start a form
# around an item, and those that start an item.
_EXPR_WORDS = {"let", "fun", "rec", "tfun", "if", "unpack"}
_FORMS = {"!", *PREFIX_FORMS, *ANNOTATED_FORMS, "pack", "some", "none",
          "rand", "flip"}
_CONSTANTS = {"true": Bool(True), "false": Bool(False), "hole": Var("hole")}
_ITEM_WORDS = {*_FORMS - {"!"}, *_CONSTANTS, "match"}
_ITEM_START = {"num", "ident", "(", "!", *_ITEM_WORDS}

KEYWORDS = {
    "in", "then", "else", "with", "end", "as", "option", *_EXPR_WORDS,
    *_ITEM_WORDS, *BASE_TYPES, *TYPE_BINDERS,
    *(op for op in _LEVELS if op.isalpha()),
}

PUNCT = ["<-", "->", "<=", "&&", "||", "(", ")", "[", "]", ",", ";", ".",
         ":", "+", "-", "*", "=", "<", "!", "|"]

# One alternative per token class, blanks in none, so that `findall`
# skips them; punctuation longest first, so that `<-` is one token
# whatever the order of PUNCT.
_TOKEN = re.compile("|".join((
    r"#[^\n]*", r"[0-9]+", r"[^\W\d]\w*",
    *map(re.escape, sorted(PUNCT, key=len, reverse=True)), r"[^ \t\r\n]")))
_KINDS = {text: text for text in (*KEYWORDS, *PUNCT)}
# The kind of any other token, by its first character where that is ASCII:
# a letter or `_` leads a word, a digit a literal.
_LEADS = {**dict.fromkeys(string.ascii_letters + "_", "ident"),
          **dict.fromkeys(string.digits, "num")}


class Parser:
    def __init__(self, src: str):
        self.src, self.pos = src, 0
        # token i: kind (a keyword or punctuation, "ident", "num" or
        # "eof") and text
        texts = _TOKEN.findall(src)
        kinds = [_KINDS.get(text) or _LEADS.get(text[0]) for text in texts]
        if None in kinds:  # a comment, a word led by a letter outside
            # ASCII, or a character that starts no token
            tokens = zip(kinds, texts)
            kinds, texts = [], []
            for kind, text in tokens:
                if kind is None:
                    if text[0] == "#":
                        continue
                    if not text[0].isalpha():
                        # a stray character, or a word that starts with a
                        # numeral such as `²`: `\w` takes those, but they
                        # start no word
                        self.fail(f"unexpected character {text[0]!r}",
                                  len(kinds))
                    kind = "ident"
                kinds.append(kind)
                texts.append(text)
        kinds.append("eof")
        texts.append("")
        self.kinds, self.texts = kinds, texts

    # -- token plumbing

    def next(self) -> str:
        """Consume the next token (never the end); return its text."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def take(self, kind: str) -> bool:
        """Consume the next token if it is of this kind."""
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str) -> None:
        if self.kinds[self.pos] != kind:
            self.wanted(repr(kind))
        self.pos += 1

    def ident(self) -> str:
        if self.kinds[self.pos] != "ident":
            self.wanted("identifier")
        return self.next()

    def wanted(self, what: str):
        found = self.texts[self.pos] or self.kinds[self.pos]
        self.fail(f"expected {what}, found {found!r}")

    def fail(self, msg: str, tok: int | None = None):
        """Raise at token `tok`, by default the next one.  Tokens keep no
        offsets: the source is lexed again to find the token's."""
        src = self.src
        starts = [m.start() for m in _TOKEN.finditer(src)
                  if src[m.start()] != "#"]
        off = [*starts, len(src)][self.pos if tok is None else tok]
        raise ParseError(msg, src.count("\n", 0, off) + 1,
                         off - src.rfind("\n", 0, off))

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
        if floor == 0 and self.kinds[self.pos] in TYPE_BINDERS:
            ctor = TYPE_BINDERS[self.next()]
            var = self.ident()
            self.expect(".")
            return ctor(var, self.type_())
        left = self.ty_atom()
        while True:
            level, ctor, assoc = _TY_LEVELS.get(self.kinds[self.pos], _NO_OP)
            if level < floor:
                return left
            self.next()
            left = ctor(left, self.type_(level if assoc == "right"
                                         else level + 1))

    def ty_atom(self) -> Type:
        kind = self.kinds[self.pos]
        if kind in BASE_TYPES:
            self.next()
            return BASE_TYPES[kind]()
        if self.take("ref"):
            return TRef(self.ty_atom())
        if self.take("option"):
            return TSum(TUnit(), self.ty_atom())
        if kind == "ident":
            return TVar(self.next())
        if self.take("("):
            inner = self.type_()
            self.expect(")")
            return inner
        self.wanted("a type")

    # -- expressions

    def expr(self) -> Expr:
        kind = self.kinds[self.pos]
        if kind not in _EXPR_WORDS:
            return self.seq()
        self.pos += 1
        if kind == "let":
            name = self.ident()
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            return App(Rec(None, name, self.expr(), None, None), bound)
        if kind == "fun":
            if self.take("("):
                name = self.ident()
                self.expect(":")
                pty = self.type_()
                self.expect(")")
            elif self.texts[self.pos] == "_":
                self.next()
                name, pty = "_", TUnit()
            else:
                self.fail("fun parameter needs a type: fun (x : t) -> ... "
                          "(only `fun _ ->` may omit it, defaulting to unit)")
            self.expect("->")
            return Rec(None, name, self.expr(), pty, None)
        if kind == "rec":
            fname = self.ident()
            fname = None if fname == "_" else fname  # `rec _` has no name
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
            var = self.ident()
            self.expect("->")
            return TLam(var, self.expr())
        if kind == "if":
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            return If(cond, then, self.expr())
        # the last form: unpack
        packed = self.seq()
        self.expect("as")
        tvar = self.ident()
        self.expect(",")
        var = self.ident()
        self.expect("in")
        return Unpack(packed, tvar, var, self.expr())

    def seq(self) -> Expr:
        first = self.assign()
        if self.take(";"):
            return App(Rec(None, "_", self.expr(), None, None), first)
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
            op = self.kinds[self.pos]
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
        while self.kinds[self.pos] in _ITEM_START:
            e = App(e, self.item())
        return e

    def item(self) -> Expr:
        """An atom with its type applications, or a form around an item."""
        kind = self.kinds[self.pos]
        if kind not in _FORMS:
            e = self.atom()
            while self.kinds[self.pos] == "[":
                e = TApp(e, self.annotation())
            return e
        self.pos += 1
        if kind == "!":
            return Load(self.item())
        if kind in PREFIX_FORMS:
            return PREFIX_FORMS[kind](self.item())
        if kind in ANNOTATED_FORMS:
            ann = self.annotation()
            return ANNOTATED_FORMS[kind](self.item(), ann)
        if kind == "pack":
            self.expect("[")
            witness = self.type_()
            self.expect(",")
            ex = self.type_()
            self.expect("]")
            return Pack(self.item(), witness, ex)
        if kind == "some":
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            return Inr(inner, TUnit())
        if kind == "none":
            return Inl(Unit(), self.annotation())
        if kind == "rand":
            self.expect("(")
            bound = self.expr()
            label = self.expr() if self.take(",") else Unit()
            self.expect(")")
            return Rand(bound, label)
        # the last form: flip
        self.expect("(")
        label = Unit() if self.kinds[self.pos] == ")" else self.expr()
        self.expect(")")
        return If(Binop("=", Rand(Int(1), label), Int(0)),
                  Bool(False), Bool(True))

    def atom(self) -> Expr:
        kind = self.kinds[self.pos]
        if kind == "num":
            text = self.texts[self.pos]
            try:
                n = int(text)
            except ValueError:  # more digits than int() converts
                self.fail(f"integer literal too long ({len(text)} digits)")
            self.pos += 1
            return Int(n)
        if kind == "ident":
            return Var(self.next())
        if kind in _CONSTANTS:
            self.pos += 1
            return _CONSTANTS[kind]
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
        keyword = self.pos - 1
        scrutinee = self.expr()
        self.expect("with")
        self.take("|")
        arms: dict[str, tuple[str, Expr]] = {}
        while True:
            arm, kind = self.pos, self.kinds[self.pos]
            if kind not in ("inl", "inr", "some", "none"):
                self.fail("expected a match arm (inl/inr/some/none)")
            self.pos += 1
            if kind == "none":
                side, var = "inl", "_"
            else:
                side = "inr" if kind == "some" else kind
                var = self.ident()
            self.expect("->")
            body = self.expr()
            if side in arms:
                self.fail(f"duplicate {side} arm in match", arm)
            arms[side] = (var, body)
            if not self.take("|"):
                break
        self.expect("end")
        if set(arms) != {"inl", "inr"}:
            self.fail("match needs exactly one inl/none arm and one inr/some "
                      "arm", keyword)
        return Match(scrutinee, *arms["inl"], *arms["inr"])


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
