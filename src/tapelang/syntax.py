"""Terms, types, and values for the tape language.

Surface terms carry type annotations (parameter types, injection and fold
targets, pack witnesses, type-application arguments), which `erase`
strips; the step relation treats them as inert, so either form runs.
Term binding is stated once, in the scope table `TERM_SCOPES` that free
variables and `subst` (which only plugs closed values, so never renames)
read.  The type walks, `free_tvars`, `tsubst(t, a, T)` and `types_equal`,
take types only: each form of `TYPE_BINDERS` binds its `var` in its `body`.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, replace
from itertools import count
from operator import add, le, lt, mod, mul, sub
from typing import Optional


def node(cls):
    """Frozen dataclass, lazily hashed once as (class name, *field values).

    `cls._fields` is the field-name tuple in constructor order and
    `cls._args(x)` the tuple of x's field values, so a node is rebuilt as
    `cls(*args)`, and `cls._exprs` lists the (position, name) of each
    field annotated `Expr`, the subterms that free variables and
    substitution walk.  A generated `__init__`, with the dataclass's
    parameters and defaults, fills `__dict__` past the frozen
    `__setattr__`, then runs any `__post_init__`.  What is kept per node
    sits in its `__dict__` outside the fields, so `==`, `repr` and
    `render` never see it: the hash (`_h`), an expression's free
    variables (`_fv`) and height (`_ht`), and whether a pair, injection,
    fold or pack is a value (`_isval`).
    """
    cls = dataclass(frozen=True)(cls)
    fields = dataclasses.fields(cls)
    tag, names = cls.__name__, tuple(f.name for f in fields)
    cls._fields = names
    # annotations are strings here (`from __future__ import annotations`);
    # a term's subterm field spelled otherwise would not be walked, so it
    # is refused
    cls._exprs = tuple((i, f.name) for i, f in enumerate(fields)
                       if f.type == "Expr")
    odd = [f.name for f in fields if "Expr" in str(f.type) and f.type != "Expr"]
    if odd and any(b.__name__ == "Expr" for b in cls.__mro__):
        raise TypeError(f"{tag}: annotate subterm fields {odd} as 'Expr'")
    sets = "d = self.__dict__" + "".join(f"; d[{n!r}] = {n}" for n in names)
    post = "; self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    vals = "".join(f"x.{n}, " for n in names)
    exec(f"def __init__(self, {', '.join(names)}): {sets}{post}\n"
         f"def args(x): return ({vals})\ndef key(x): return ({tag!r}, {vals})",
         env := {})
    env["__init__"].__defaults__ = cls.__init__.__defaults__
    cls.__init__, cls._args = env["__init__"], staticmethod(env["args"])
    key = env["key"]  # (class name, *field values), hashed once

    def cached_hash(self) -> int:
        h = self.__dict__.get("_h")
        if h is None:
            h = self.__dict__["_h"] = hash(key(self))
        return h

    cls.__hash__ = cached_hash
    return cls


# ---------------------------------------------------------------------------
# Types


class Type:
    def __str__(self) -> str:
        return render_type(self)


@node
class TUnit(Type):
    pass


@node
class TBool(Type):
    pass


@node
class TNat(Type):
    pass


@node
class TInt(Type):
    pass


@node
class TTape(Type):
    pass


@node
class TVar(Type):
    name: str


@node
class TRef(Type):
    content: Type


@node
class TProd(Type):
    left: Type
    right: Type


@node
class TSum(Type):
    left: Type
    right: Type


@node
class TArrow(Type):
    dom: Type
    cod: Type


@node
class TForall(Type):
    var: str
    body: Type


@node
class TExists(Type):
    var: str
    body: Type


@node
class TMu(Type):
    var: str
    body: Type


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    # Whether the node is a value: fixed per class, except for the value
    # forms around other terms, which set it once per node as they are built.
    _isval = False

    def __str__(self) -> str:
        return render(self)


class _Value(Expr):
    """A value form that is a value whatever its fields hold."""
    _isval = True


class _ValueIfFieldIs(Expr):
    """A value form around one `value` field: a value when that field is."""

    def __post_init__(self):
        self.__dict__["_isval"] = self.value._isval


# -- value forms


@node
class Int(_Value):
    n: int


@node
class Bool(_Value):
    b: bool


@node
class Unit(_Value):
    pass


@node
class Loc(_Value):
    """Heap location; runtime-only, no surface syntax."""
    index: int


@node
class Label(_Value):
    """Tape label; runtime-only, no surface syntax."""
    index: int


@node
class Rec(_Value):
    """Recursive closure `rec f x = body`; `fun` is the f = '_' case."""
    fname: str
    param: str
    body: Expr
    param_ty: Optional[Type] = None
    ret_ty: Optional[Type] = None


@node
class TLam(_Value):
    """Type abstraction; the body is suspended, the whole term is a value."""
    tvar: Optional[str]
    body: Expr


@node
class Pair(Expr):
    left: Expr
    right: Expr

    def __post_init__(self):
        self.__dict__["_isval"] = self.left._isval and self.right._isval


@node
class Inl(_ValueIfFieldIs):
    value: Expr
    other_ty: Optional[Type] = None  # the right branch of the sum


@node
class Inr(_ValueIfFieldIs):
    value: Expr
    other_ty: Optional[Type] = None  # the left branch of the sum


@node
class Fold(_ValueIfFieldIs):
    value: Expr
    mu_ty: Optional[Type] = None


@node
class Pack(_ValueIfFieldIs):
    value: Expr
    witness_ty: Optional[Type] = None
    ex_ty: Optional[Type] = None


# -- computation forms


@node
class Var(Expr):
    name: str


@node
class App(Expr):
    fn: Expr
    arg: Expr


@node
class TApp(Expr):
    fn: Expr
    ty_arg: Optional[Type] = None


@node
class If(Expr):
    cond: Expr
    then: Expr
    orelse: Expr


@node
class Fst(Expr):
    pair: Expr


@node
class Snd(Expr):
    pair: Expr


@node
class Match(Expr):
    scrutinee: Expr
    left_var: str
    left_body: Expr
    right_var: str
    right_body: Expr


@node
class Unfold(Expr):
    value: Expr


@node
class Unpack(Expr):
    packed: Expr
    tvar: Optional[str]
    var: str
    body: Expr


@node
class Alloc(Expr):
    init: Expr


@node
class Load(Expr):
    ref: Expr


@node
class Store(Expr):
    ref: Expr
    value: Expr


@node
class AllocTape(Expr):
    bound: Expr


@node
class Rand(Expr):
    """rand(bound, label); the unlabeled form carries a unit label."""
    bound: Expr
    label: Expr


@node
class Binop(Expr):
    op: str  # one of the operators of BINOP_LEVELS
    left: Expr
    right: Expr


@node
class Hole(Expr):
    """Context hole; must be plugged before typechecking or evaluation."""
    pass


def is_value(e: Expr) -> bool:
    return e._isval


# ---------------------------------------------------------------------------
# Term binding, stated once: per binding form, (binder field, scoped field)
# pairs.  The name a binder field holds is bound in its scoped field only.
# The name of a `Rec` named "_", which is not recursive, binds nothing; a
# parameter "_" does bind (`fun _ -> _` keeps its meaning).  Free variables
# and substitution read this table.

TERM_SCOPES = {Rec: (("fname", "body"), ("param", "body")),
               Match: (("left_var", "left_body"), ("right_var", "right_body")),
               Unpack: (("var", "body"),)}


def _binds(x: Expr) -> dict[str, frozenset[str]]:
    """{scoped field: the names bound over it} of one binding form."""
    out = {}
    for binder, scoped in TERM_SCOPES[type(x)]:
        name = getattr(x, binder)
        if not (binder == "fname" and name == "_"):
            out[scoped] = out.get(scoped, frozenset()) | {name}
    return out


_NO_NAMES: frozenset[str] = frozenset()


def free_vars(e: Expr) -> frozenset[str]:
    return _free(e)


def _free(e: Expr) -> frozenset[str]:
    """free_vars, found once per node and kept in its `__dict__` with the
    node's height.  A node that has them kept has them kept at every node
    below it too.  One post-order walk without recursion, so a deep value
    (a long list) is walked like any other: a stack of (node, expanded)
    pairs expands each node once, shared or not, and fills it once every
    subterm of it is filled."""
    if "_fv" not in e.__dict__:
        todo = [(e, False)]
        while todo:
            x, expanded = todo.pop()
            if "_fv" in x.__dict__:  # filled through another parent, or before
                continue
            if x._exprs and not expanded:
                todo.append((x, True))
                for _, f in x._exprs:
                    todo.append((getattr(x, f), False))
                continue
            fv, ht = frozenset((x.name,)) if type(x) is Var else _NO_NAMES, 0
            bound = _binds(x) if type(x) in TERM_SCOPES else {}
            for _, f in x._exprs:
                sub = getattr(x, f)
                fv |= sub._fv - bound[f] if f in bound else sub._fv
                ht = sub._ht if sub._ht > ht else ht
            x.__dict__["_fv"], x.__dict__["_ht"] = fv, ht + 1
    return e._fv


def height(e: Expr) -> int:
    """The height of e as a tree of terms (a node with no subterm is 1),
    kept with its free variables.  `==` and `hash` on e recurse about
    this deep."""
    _free(e)
    return e._ht


def free_tvars(t: Type) -> frozenset[str]:
    """The type variables free in the type t."""
    if type(t) is TVar:
        return frozenset((t.name,))
    if type(t) in _BINDER_TYPES:
        return free_tvars(t.body) - {t.var}
    out = _NO_NAMES
    for name in t._fields:
        out |= free_tvars(getattr(t, name))
    return out


def _rebuild(x, f):
    """x with f(v) in place of each field value v that is a term or a type,
    or x itself when every such f(v) is v."""
    args, changed = [], False
    for name in x._fields:
        v = v2 = getattr(x, name)
        if isinstance(v, (Expr, Type)):
            v2 = f(v)
            changed |= v2 is not v
        args.append(v2)
    return type(x)(*args) if changed else x


def subst(e: Expr, name: str, value: Expr) -> Expr:
    """Substitute the closed value for every free occurrence of name.
    Subtrees where name is not free are returned as they are, shared;
    where it is free, an open value is refused with a ValueError, since
    a binder on the way could capture it and nothing is renamed.  Each
    node rebuilt keeps its free variables, those of the node it replaces
    without name, and its height, so later calls find them."""
    if name not in _free(e):
        return e
    if _free(value):
        raise ValueError(f"subst: the value for {name} is not closed")
    return _subst(e, name, value, frozenset((name,)))


def _subst(e: Expr, name: str, value: Expr, drop: frozenset[str]) -> Expr:
    """subst at a node where name is free (so its free variables, and
    those of every node below it, are kept)."""
    if type(e) is Var:
        return value
    bound = _binds(e) if type(e) in TERM_SCOPES else {}
    args = [*e._args(e)]
    ht = e._ht  # a subterm rebuilt is no shorter than the one it replaces
    for i, f in e._exprs:
        v = args[i]
        if name in v._fv and name not in bound.get(f, ()):
            v = args[i] = _subst(v, name, value, drop)
            if v._ht >= ht:
                ht = v._ht + 1
    out = type(e)(*args)
    out.__dict__["_fv"], out.__dict__["_ht"] = e._fv - drop, ht
    return out


def tsubst(t: Type, var: str, repl: Type) -> Type:
    """Capture-avoiding substitution of the type repl for the type variable
    var in the type t.  A binder is renamed (a -> a1, ...) only where it
    would capture: it names a free variable of repl and var is free below."""
    return _tsubst(t, var, repl, free_tvars(repl))


def _tsubst(t: Type, var: str, repl: Type, taken: frozenset[str]) -> Type:
    if type(t) is TVar:
        return repl if t.name == var else t
    if type(t) in _BINDER_TYPES:
        if t.var == var:  # var is not free below
            return t
        if t.var in taken and var in free_tvars(t.body):
            # rename the binder apart from repl and from its scope
            b, avoid = t.var, taken | free_tvars(t.body)
            fresh = next(f"{b}{i}" for i in count(1) if f"{b}{i}" not in avoid)
            t = type(t)(fresh, tsubst(t.body, b, TVar(fresh)))
    return _rebuild(t, lambda v: _tsubst(v, var, repl, taken))


def types_equal(a: Type, b: Type) -> bool:
    """Alpha-equivalence of types."""
    return _alpha_eq(a, b, {}, {}, 0)


def _alpha_eq(a: Type, b: Type, la: dict[str, int], lb: dict[str, int],
              depth: int) -> bool:
    """la and lb map each name bound above a and b to the depth of its
    binder (the number of binders above it); a bound name matches by that
    number, a free one by name."""
    if type(a) is not type(b):
        return False
    if type(a) is TVar:
        return la.get(a.name, a.name) == lb.get(b.name, b.name)
    if type(a) in _BINDER_TYPES:
        return _alpha_eq(a.body, b.body, {**la, a.var: depth},
                         {**lb, b.var: depth}, depth + 1)
    for name in a._fields:
        if not _alpha_eq(getattr(a, name), getattr(b, name), la, lb, depth):
            return False
    return True


def erase(e: Expr) -> Expr:
    """Strip every type annotation, leaving the core term: every Type field,
    and the type variable that a `tfun` or an `unpack` binds, becomes None."""
    out = _rebuild(e, lambda v: erase(v) if isinstance(v, Expr) else None)
    return replace(out, tvar=None) if type(e) in (TLam, Unpack) else out


def plug_hole(ctx: Expr, filling: Expr) -> Expr:
    """Replace every hole in a one-hole context."""
    if isinstance(ctx, Hole):
        return filling
    return _rebuild(ctx, lambda v: plug_hole(v, filling)
                    if isinstance(v, Expr) else v)


# ---------------------------------------------------------------------------
# Concrete syntax: the keyword forms and operator precedence that the
# parser reads and the printers below print.

BASE_TYPES = {"unit": TUnit, "bool": TBool, "nat": TNat, "int": TInt,
              "tape": TTape}
TYPE_BINDERS = {"forall": TForall, "exists": TExists, "mu": TMu}
_BINDER_TYPES = frozenset(TYPE_BINDERS.values())  # each binds var in body
# `word e`, around one item
PREFIX_FORMS = {"fst": Fst, "snd": Snd, "ref": Alloc, "unfold": Unfold,
                "alloctape": AllocTape}
# `word[t] e`, around one item, with the type annotation t
ANNOTATED_FORMS = {"fold": Fold, "inl": Inl, "inr": Inr}
# Binop precedence levels, loosest first: (operators, whether they chain
# to the left); a level that does not chain takes one operator only.
BINOP_LEVELS = ((("=", "<=", "<"), False), (("+", "-"), True),
                (("*", "mod"), True))
# What each operator but `=` computes on two integers, and the type of its
# result; TNat stands for nat when both operands are nat, else int.
INT_OPS = {"+": (add, TNat), "-": (sub, TInt), "*": (mul, TNat),
           "mod": (mod, TNat), "<": (lt, TBool), "<=": (le, TBool)}
# The types `=` compares, each with the class of its values.
COMPARABLE = {TNat: Int, TInt: Int, TBool: Bool, TUnit: Unit, TTape: Label,
              TRef: Loc}
# Type operators, loosest first: (operator, constructor, associativity).
TYPE_OPS = (("->", TArrow, "right"), ("+", TSum, "left"),
            ("*", TProd, "left"))

_WORD = {cls: word for table in (BASE_TYPES, TYPE_BINDERS, PREFIX_FORMS,
                                 ANNOTATED_FORMS)
         for word, cls in table.items()}


# ---------------------------------------------------------------------------
# Pretty-printing.  Parser-produced trees print back to sources that
# re-parse to the same tree; core trees print without annotations for
# diagnostics and for the canonical ordering of distribution outcomes.

# Type print levels: a binder at 0, TYPE_OPS[i] at i + 1, then atoms.
_TY_TOP, _TY_ATOM = 0, len(TYPE_OPS) + 1
_TY_OP_PREC = {ctor: (op, i + 1, assoc)
               for i, (op, ctor, assoc) in enumerate(TYPE_OPS)}


def _parens(s: str, level: int, want: int) -> str:
    return s if level >= want else f"({s})"


def render_type(t: Type) -> str:
    return _rt(t, _TY_TOP)


def _rt(t: Type, want: int) -> str:
    word = _WORD.get(type(t))
    if word is not None:
        if not t._fields:  # a base type
            return word
        s = f"{word} {t.var}. {_rt(t.body, _TY_TOP)}"  # a binder
        return _parens(s, _TY_TOP, want)
    if type(t) in _TY_OP_PREC:
        op, prec, assoc = _TY_OP_PREC[type(t)]
        a, b = (getattr(t, name) for name in t._fields)
        left, right = (prec + 1, prec) if assoc == "right" else (prec, prec + 1)
        return _parens(f"{_rt(a, left)} {op} {_rt(b, right)}", prec, want)
    match t:
        case TVar(a):
            return a
        case TRef(c):
            return f"ref {_rt(c, _TY_ATOM)}"
    raise ValueError(f"unknown type node {t!r}")


# Print levels, loosest first; BINOP_LEVELS[i] prints at _E_BINOP + i.
_E_TOP, _E_STORE, _E_BINOP = range(3)
_E_APP, _E_ITEM, _E_ATOM = (_E_BINOP + len(BINOP_LEVELS) + i for i in range(3))
_BINOP_PREC = {op: (_E_BINOP + i, chains)
               for i, (ops, chains) in enumerate(BINOP_LEVELS) for op in ops}


class IntTooLong(ValueError):
    """An integer too long to print: more digits than a literal may have."""

    def __init__(self):
        super().__init__(f"integer longer than {sys.get_int_max_str_digits()}"
                         f" digits, the most a literal may have")


def render(e: Expr) -> str:
    return _re(e, _E_TOP)


def _re(e: Expr, want: int) -> str:
    word = _WORD.get(type(e))
    if word is not None:  # `word e`, or `word[t] e` when annotated
        v, *types = (getattr(e, name) for name in e._fields)
        ann = "".join(f"[{render_type(t)}]" for t in types if t is not None)
        return _parens(f"{word}{ann} {_re(v, _E_ITEM)}", _E_ITEM, want)
    match e:
        case Int(n):
            try:
                return str(n) if n >= 0 else f"(0 - {-n})"
            except ValueError:  # more digits than str() converts
                raise IntTooLong() from None
        case Bool(b):
            return "true" if b else "false"
        case Unit():
            return "()"
        case Loc(i):
            return f"loc({i})"
        case Label(i):
            return f"tape({i})"
        case Var(x):
            return x
        case Hole():
            return "hole"
        case App(Rec("_", x, body, None, None), arg):
            s = f"let {x} = {_re(arg, _E_TOP)} in {_re(body, _E_TOP)}"
            return _parens(s, _E_TOP, want)
        case Rec("_", x, body, pt, None):
            if x == "_" and isinstance(pt, TUnit):
                s = f"fun _ -> {_re(body, _E_TOP)}"
            elif pt is None:
                s = f"fun {x} -> {_re(body, _E_TOP)}"
            else:
                s = f"fun ({x} : {render_type(pt)}) -> {_re(body, _E_TOP)}"
            return _parens(s, _E_TOP, want)
        case Rec(f, x, body, pt, rt):
            if pt is None and rt is None:
                s = f"rec {f} {x} = {_re(body, _E_TOP)}"
            else:
                s = (f"rec {f} ({x} : {render_type(pt)}) : {render_type(rt)}"
                     f" = {_re(body, _E_TOP)}")
            return _parens(s, _E_TOP, want)
        case TLam(tv, body):
            s = f"tfun {tv if tv is not None else '_'} -> {_re(body, _E_TOP)}"
            return _parens(s, _E_TOP, want)
        case If(c, t, o):
            s = f"if {_re(c, _E_TOP)} then {_re(t, _E_TOP)} else {_re(o, _E_TOP)}"
            return _parens(s, _E_TOP, want)
        case Unpack(p, tv, x, body):
            s = (f"unpack {_re(p, _E_STORE)} as "
                 f"{tv if tv is not None else '_'}, {x} in {_re(body, _E_TOP)}")
            return _parens(s, _E_TOP, want)
        case Match(s0, lv, lb, rv, rb):
            s = (f"match {_re(s0, _E_TOP)} with inl {lv} -> {_re(lb, _E_TOP)}"
                 f" | inr {rv} -> {_re(rb, _E_TOP)} end")
            return s  # delimited by match/end, never needs parens
        case Store(r, v):
            s = f"{_re(r, _E_BINOP)} <- {_re(v, _E_STORE)}"
            return _parens(s, _E_STORE, want)
        case Binop(op, a, b):
            prec, chains = _BINOP_PREC[op]
            s = f"{_re(a, prec if chains else prec + 1)} {op} {_re(b, prec + 1)}"
            return _parens(s, prec, want)
        case App(fn, arg):
            s = f"{_re(fn, _E_APP)} {_re(arg, _E_ITEM)}"
            return _parens(s, _E_APP, want)
        case Load(r):
            return _parens(f"!{_re(r, _E_ITEM)}", _E_ITEM, want)
        case Rand(b, l):
            label = "" if isinstance(l, Unit) else f", {_re(l, _E_TOP)}"
            return _parens(f"rand({_re(b, _E_TOP)}{label})", _E_ITEM, want)
        case Pack(v, w, ex):
            if w is None and ex is None:
                return _parens(f"pack {_re(v, _E_ITEM)}", _E_ITEM, want)
            ann = f"[{render_type(w)}, {render_type(ex)}]"
            return _parens(f"pack{ann} {_re(v, _E_ITEM)}", _E_ITEM, want)
        case Pair(a, b):
            return f"({_re(a, _E_TOP)}, {_re(b, _E_TOP)})"
        case TApp(fn, t):
            ann = "_" if t is None else render_type(t)
            return _parens(f"{_re(fn, _E_ATOM)}[{ann}]", _E_ITEM, want)
    raise ValueError(f"unknown expr node {e!r}")
