"""Terms, types, and values for the tape language.

Surface terms carry type annotations (parameter types, injection and fold
targets, pack witnesses, type-application arguments), which `erase`
strips; the step relation treats them as inert, so either form runs.
Nodes are hash-consed (`node`): equal nodes are one object, so `==` and
`hash` are identity and never walk a term, however tall.  Each node gets
its facts when it is built, from its subterms' facts: a term's free
variables and whether it is a value, a type's free type variables.
Binding is stated once, in the scope table `SCOPES` that the constructor
and `subst` (which only plugs closed values, so never renames) read.  A
context is a term whose one free variable is `hole`: `plug_hole` is a
substitution.  The type walks, `tsubst(t, a, T)` and `types_equal`, take
types only: each form of `TYPE_BINDERS` binds its `var` in its `body`.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, replace
from itertools import count
from operator import add, le, lt, mod, mul, sub
from typing import Optional


# The intern table, (class, *field values) -> the one live node with them,
# pruned when it outgrows max(FLOOR, twice what the last prune left).
_TABLE: dict[tuple, object] = {}
FLOOR = 2048
_limit = FLOOR
_new = object.__new__


def _prune() -> None:
    """Drop every node that only the table holds, newest first.  A node's
    fields are older than it, and each key is released before the next is
    read, so a dead tree goes in one pass, a node at a time."""
    global _limit
    probe = {(): object()}
    alone = sys.getrefcount(probe[()])  # read as a node only _TABLE holds
    keys = list(_TABLE)
    while keys:
        key = keys.pop()
        if sys.getrefcount(_TABLE[key]) == alone:
            del _TABLE[key]
    _limit = max(FLOOR, 2 * len(_TABLE))


# Binding, stated once: per binding form, by class name, (binder field,
# scoped field) pairs.  The name a binder field holds is bound in its scoped
# field only, and None (a `Rec` with no name) binds nothing; `node` reads
# this table.  A variable, `Var` or `TVar`, is free in itself.
SCOPES = {"Rec": (("fname", "body"), ("param", "body")),
          "Match": (("left_var", "left_body"), ("right_var", "right_body")),
          "Unpack": (("var", "body"),),
          "TForall": (("var", "body"),), "TExists": (("var", "body"),),
          "TMu": (("var", "body"),)}
_NO_NAMES: frozenset[str] = frozenset()


def _facts(cls, root: str, subs: list[tuple]) -> list[str]:
    """Source lines that set a new term's or type's facts from those of its
    subterms, the fields annotated `root`, given as (position, field,
    binder fields bound over it).  Its free names, `_fv`: a variable's own
    name, else the union of its subterms' less what its binders hold over
    each (None, in no set, takes nothing away); a subterm's set is reused
    where nothing is added or taken away, and a binder is subtracted only
    where it occurs.
    A term's `_isval`: true for a `_Value`, and for a `_ValueIfFieldsAre`
    when all its subterms are values."""
    lines = []
    for k, (_, f, bound) in enumerate(subs):
        s = "s" if k else "fv"  # the first subterm's set starts fv
        lines.append(f"{s} = {f}._fv")
        lines += [f"if {b} in {s}: {s} = {s} - {{{b}}}" for b in bound]
        if k:
            lines.append("if s: fv = fv | s if fv else s")
    if not subs:
        var = cls.__name__ in ("Var", "TVar")
        lines.append("fv = frozenset((name,))" if var else "fv = _NO_NAMES")
    lines.append("d['_fv'] = fv")
    if root == "Expr":
        isval = (" and ".join(f"{f}._isval" for _, f, _ in subs)
                 if issubclass(cls, _ValueIfFieldsAre) else
                 issubclass(cls, _Value))
        lines.append(f"d['_isval'] = {isval}")
    return lines


def node(cls):
    """Frozen dataclass, interned (hash-consed): building a node whose class
    and field values are those of a live node returns that node, so `==`
    and `hash` are identity, in C, however tall the node.

    `cls._fields` is the field-name tuple in constructor order and
    `cls._args(x)` the tuple of x's field values, so a node is rebuilt as
    `cls(*args)`.  A generated `__new__`, with the dataclass's parameters
    and defaults, looks `(cls, *field values)` up in `_TABLE`; a miss
    fills a new node's `__dict__` past the frozen `__setattr__`, sets a
    term's or a type's facts (`_facts`) from those of its subterms, which
    are older, and keeps the node.  So each node's facts are found once,
    when it is built, without walking below it.  A field annotated `int`
    takes an int only, since `True == 1` and they hash alike.  The facts
    sit in the `__dict__` outside the fields, so `repr` and `render`
    never see them.  For a term, `cls._scopes(*args)` gives the
    (position, names bound over it) of each subterm, the fields
    annotated `Expr` that substitution walks.
    """
    cls = dataclass(frozen=True, eq=False, init=False)(cls)
    fields = dataclasses.fields(cls)
    tag, names = cls.__name__, tuple(f.name for f in fields)
    cls._fields = names
    # annotations are strings here (`from __future__ import annotations`);
    # a subterm field spelled otherwise would not be read, so it is refused
    root = next((b.__name__ for b in cls.__mro__
                 if b.__name__ in ("Expr", "Type")), None)
    odd = [f.name for f in fields if root and root in str(f.type)
           and f.type != root]
    if odd:
        raise TypeError(f"{tag}: annotate subterm fields {odd} as {root!r}")
    subs = [(i, f.name, [b for b, scoped in SCOPES.get(tag, ())
                         if scoped == f.name])
            for i, f in enumerate(fields) if root and f.type == root]
    ints = "".join(f"\n    if {n}.__class__ is not int: raise TypeError("
                   f"f'{tag}.{n} takes an int, not {{{n}!r}}')"
                   for f, n in zip(fields, names) if f.type == "int")
    sets = "".join(f"; d[{n!r}] = {n}" for n in names)
    facts = "".join(f"\n        {line}"
                    for line in (_facts(cls, root, subs) if root else ()))
    scopes = "".join(f"({i}, ({''.join(f'{b}, ' for b in bound)})), "
                     for i, _, bound in subs)
    exec(f"def __new__(cls, {', '.join(names)}):{ints}\n"
         f"    x = _TABLE.get(key := (cls, {', '.join(names)}))\n"
         f"    if x is None:\n"
         f"        x = _new(cls); d = x.__dict__{sets}{facts}\n"
         f"        _TABLE[key] = x\n"
         f"        if len(_TABLE) > _limit: _prune()\n    return x\n"
         f"def args(x): return ({''.join(f'x.{n}, ' for n in names)})\n"
         f"def scopes({', '.join(names)}): return ({scopes})",
         globals(), env := {})
    env["__new__"].__defaults__ = tuple(
        f.default for f in fields if f.default is not dataclasses.MISSING)
    cls.__new__ = staticmethod(env["__new__"])
    cls._args = staticmethod(env["args"])
    cls._scopes = staticmethod(env["scopes"])
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
    def __str__(self) -> str:
        return render(self)


class _Value(Expr):
    """A value form that is a value whatever its fields hold."""


class _ValueIfFieldsAre(Expr):
    """A value form around other terms: a value when they all are."""


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
    """Closure `rec f x = body`; nameless (f None) from `fun`, `let`, `;`."""
    fname: Optional[str]
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
class Pair(_ValueIfFieldsAre):
    left: Expr
    right: Expr


@node
class Inl(_ValueIfFieldsAre):
    value: Expr
    other_ty: Optional[Type] = None  # the right branch of the sum


@node
class Inr(_ValueIfFieldsAre):
    value: Expr
    other_ty: Optional[Type] = None  # the left branch of the sum


@node
class Fold(_ValueIfFieldsAre):
    value: Expr
    mu_ty: Optional[Type] = None


@node
class Pack(_ValueIfFieldsAre):
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


def is_value(e: Expr) -> bool:
    return e._isval


def free_vars(e: Expr) -> frozenset[str]:
    return e._fv


def free_tvars(t: Type) -> frozenset[str]:
    """The type variables free in the type t."""
    return t._fv


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
    a binder on the way could capture it and nothing is renamed."""
    if name not in e._fv:
        return e
    if value._fv:
        raise ValueError(f"subst: the value for {name} is not closed")
    return _subst(e, name, value)


def _subst(e: Expr, name: str, value: Expr) -> Expr:
    """subst at a node where name is free: into each subterm where it is
    free and not bound by e."""
    if type(e) is Var:
        return value
    args = [*e._args(e)]
    for i, bound in e._scopes(*args):
        if name in args[i]._fv and name not in bound:
            args[i] = _subst(args[i], name, value)
    return type(e)(*args)


def tsubst(t: Type, var: str, repl: Type) -> Type:
    """Capture-avoiding substitution of the type repl for the type variable
    var in the type t.  A binder is renamed (a -> a1, ...) only where it
    would capture: it names a free variable of repl and var is free below."""
    if var not in t._fv:
        return t
    if type(t) is TVar:
        return repl
    if type(t) in _BINDER_TYPES and t.var in repl._fv:
        # rename the binder apart from repl and from its scope
        b, avoid = t.var, repl._fv | t.body._fv
        fresh = next(f"{b}{i}" for i in count(1) if f"{b}{i}" not in avoid)
        t = type(t)(fresh, tsubst(t.body, b, TVar(fresh)))
    return _rebuild(t, lambda v: tsubst(v, var, repl))


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
    """C[e]: ctx with filling, open or not, for its free variable `hole`."""
    return _subst(ctx, "hole", filling) if "hole" in ctx._fv else ctx


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
        case App(Rec(None, x, body, None, None), arg):
            s = f"let {x} = {_re(arg, _E_TOP)} in {_re(body, _E_TOP)}"
            return _parens(s, _E_TOP, want)
        case Rec(None, x, body, pt, None):
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
                s = (f"rec {f or '_'} ({x} : {render_type(pt)}) : "
                     f"{render_type(rt)} = {_re(body, _E_TOP)}")
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
