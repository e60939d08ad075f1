"""Terms, types, and values for the tape language.

Surface terms carry type annotations (parameter types, injection and fold
targets, pack witnesses, type-application arguments); `erase` strips them
down to the bare core terms normally used for evaluation.  The step
relation treats annotations as inert, so either form can be run.
Substitution only ever plugs closed values, so shadowing checks are all
it needs to stay capture-free.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, Optional


def node(cls):
    """Frozen dataclass, lazily hashed once as (class name, *field values)."""
    cls = dataclass(frozen=True)(cls)
    tag, names = cls.__name__, tuple(f.name for f in dataclasses.fields(cls))

    def cached_hash(self) -> int:
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((tag,) + tuple(getattr(self, n) for n in names))
            object.__setattr__(self, "_h", h)
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


def free_tvars(t: Type) -> frozenset[str]:
    match t:
        case TVar(a):
            return frozenset((a,))
        case TRef(c):
            return free_tvars(c)
        case TProd(a, b) | TSum(a, b) | TArrow(a, b):
            return free_tvars(a) | free_tvars(b)
        case TForall(v, b) | TExists(v, b) | TMu(v, b):
            return free_tvars(b) - {v}
        case _:
            return frozenset()


def _fresh_tvar(taken: frozenset[str], base: str) -> str:
    cand = base
    i = 0
    while cand in taken:
        i += 1
        cand = f"{base}{i}"
    return cand


def tsubst_type(t: Type, var: str, repl: Type) -> Type:
    """Capture-avoiding substitution of repl for the free type variable var."""
    match t:
        case TVar(a):
            return repl if a == var else t
        case TRef(c):
            return TRef(tsubst_type(c, var, repl))
        case TProd(a, b):
            return TProd(tsubst_type(a, var, repl), tsubst_type(b, var, repl))
        case TSum(a, b):
            return TSum(tsubst_type(a, var, repl), tsubst_type(b, var, repl))
        case TArrow(a, b):
            return TArrow(tsubst_type(a, var, repl), tsubst_type(b, var, repl))
        case TForall(v, b) | TExists(v, b) | TMu(v, b):
            ctor = type(t)
            if v == var:
                return t
            if v in free_tvars(repl):
                v2 = _fresh_tvar(free_tvars(repl) | free_tvars(b), v)
                b = tsubst_type(b, v, TVar(v2))
                v = v2
            return ctor(v, tsubst_type(b, var, repl))
        case _:
            return t


def types_equal(a: Type, b: Type) -> bool:
    """Alpha-equivalence of types."""
    return _alpha_eq(a, b, {}, {})


def _alpha_eq(a: Type, b: Type, la: dict[str, int], lb: dict[str, int]) -> bool:
    match a, b:
        case TVar(x), TVar(y):
            if x in la or y in lb:
                return la.get(x) == lb.get(y) and la.get(x) is not None
            return x == y
        case TRef(c1), TRef(c2):
            return _alpha_eq(c1, c2, la, lb)
        case (TProd(x1, y1), TProd(x2, y2)) | (TSum(x1, y1), TSum(x2, y2)) | \
             (TArrow(x1, y1), TArrow(x2, y2)):
            return _alpha_eq(x1, x2, la, lb) and _alpha_eq(y1, y2, la, lb)
        case (TForall(v1, b1), TForall(v2, b2)) | (TExists(v1, b1), TExists(v2, b2)) | \
             (TMu(v1, b1), TMu(v2, b2)):
            depth = len(la)
            la2 = dict(la)
            lb2 = dict(lb)
            la2[v1] = depth
            lb2[v2] = depth
            return _alpha_eq(b1, b2, la2, lb2)
        case _:
            return type(a) is type(b) and not dataclasses.fields(a)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    def __str__(self) -> str:
        return render(self)


# -- value forms


@node
class Int(Expr):
    n: int


@node
class Bool(Expr):
    b: bool


@node
class Unit(Expr):
    pass


@node
class Loc(Expr):
    """Heap location; runtime-only, no surface syntax."""
    index: int


@node
class Label(Expr):
    """Tape label; runtime-only, no surface syntax."""
    index: int


@node
class Rec(Expr):
    """Recursive closure `rec f x = body`; `fun` is the f = '_' case."""
    fname: str
    param: str
    body: Expr
    param_ty: Optional[Type] = None
    ret_ty: Optional[Type] = None


@node
class TLam(Expr):
    """Type abstraction; the body is suspended, the whole term is a value."""
    tvar: Optional[str]
    body: Expr


@node
class Pair(Expr):
    left: Expr
    right: Expr


@node
class Inl(Expr):
    value: Expr
    other_ty: Optional[Type] = None  # the right branch of the sum


@node
class Inr(Expr):
    value: Expr
    other_ty: Optional[Type] = None  # the left branch of the sum


@node
class Fold(Expr):
    value: Expr
    mu_ty: Optional[Type] = None


@node
class Pack(Expr):
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
    op: str  # one of + - * mod = < <=
    left: Expr
    right: Expr


@node
class Hole(Expr):
    """Context hole; must be plugged before typechecking or evaluation."""
    pass


BINOPS = ("+", "-", "*", "mod", "=", "<", "<=")


def is_value(e: Expr) -> bool:
    match e:
        case Int() | Bool() | Unit() | Loc() | Label() | Rec() | TLam():
            return True
        case Pair(a, b):
            return is_value(a) and is_value(b)
        case Inl(v, _) | Inr(v, _) | Fold(v, _) | Pack(v, _, _):
            return is_value(v)
        case _:
            return False


def free_vars(e: Expr) -> frozenset[str]:
    match e:
        case Var(x):
            return frozenset((x,))
        case Rec(f, x, body, _, _):
            # '_' as the recursion name means "not recursive": it binds nothing.
            bound = {x} if f == "_" else {f, x}
            return free_vars(body) - bound
        case Match(s, lv, lb, rv, rb):
            return free_vars(s) | (free_vars(lb) - {lv}) | (free_vars(rb) - {rv})
        case Unpack(p, _, x, body):
            return free_vars(p) | (free_vars(body) - {x})
        case _:
            out: frozenset[str] = frozenset()
            for child in _expr_children(e):
                out |= free_vars(child)
            return out


def _expr_children(e: Expr) -> Iterator[Expr]:
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        if isinstance(v, Expr):
            yield v


def subst(e: Expr, name: str, value: Expr) -> Expr:
    """Substitute the closed value for every free occurrence of name."""
    match e:
        case Var(x):
            return value if x == name else e
        case Rec(f, x, body, pt, rt):
            if name == x or (name == f and f != "_"):
                return e
            return Rec(f, x, subst(body, name, value), pt, rt)
        case Match(s, lv, lb, rv, rb):
            s2 = subst(s, name, value)
            lb2 = lb if lv == name else subst(lb, name, value)
            rb2 = rb if rv == name else subst(rb, name, value)
            return Match(s2, lv, lb2, rv, rb2)
        case Unpack(p, tv, x, body):
            p2 = subst(p, name, value)
            body2 = body if x == name else subst(body, name, value)
            return Unpack(p2, tv, x, body2)
        case _:
            changes = {}
            for f in dataclasses.fields(e):
                v = getattr(e, f.name)
                if isinstance(v, Expr):
                    v2 = subst(v, name, value)
                    if v2 is not v:
                        changes[f.name] = v2
            return dataclasses.replace(e, **changes) if changes else e


def tsubst_expr(e: Expr, var: str, repl: Type) -> Expr:
    """Substitute a type into every annotation; used when reducing
    annotated type applications and unpacks."""
    def go_ty(t: Optional[Type]) -> Optional[Type]:
        return None if t is None else tsubst_type(t, var, repl)

    match e:
        case TLam(tv, body):
            if tv == var:
                return e
            return TLam(tv, tsubst_expr(body, var, repl))
        case Unpack(p, tv, x, body):
            p2 = tsubst_expr(p, var, repl)
            body2 = body if tv == var else tsubst_expr(body, var, repl)
            return Unpack(p2, tv, x, body2)
        case _:
            changes = {}
            for f in dataclasses.fields(e):
                v = getattr(e, f.name)
                if isinstance(v, Expr):
                    v2 = tsubst_expr(v, var, repl)
                    if v2 is not v:
                        changes[f.name] = v2
                elif isinstance(v, Type):
                    v2 = tsubst_type(v, var, repl)
                    if v2 is not v:
                        changes[f.name] = v2
            return dataclasses.replace(e, **changes) if changes else e


def erase(e: Expr) -> Expr:
    """Strip every type annotation, leaving the core term."""
    match e:
        case Rec(f, x, body, _, _):
            return Rec(f, x, erase(body), None, None)
        case TLam(_, body):
            return TLam(None, erase(body))
        case Inl(v, _):
            return Inl(erase(v), None)
        case Inr(v, _):
            return Inr(erase(v), None)
        case Fold(v, _):
            return Fold(erase(v), None)
        case Pack(v, _, _):
            return Pack(erase(v), None, None)
        case TApp(fn, _):
            return TApp(erase(fn), None)
        case Unpack(p, _, x, body):
            return Unpack(erase(p), None, x, erase(body))
        case _:
            changes = {}
            for f in dataclasses.fields(e):
                v = getattr(e, f.name)
                if isinstance(v, Expr):
                    v2 = erase(v)
                    if v2 is not v:
                        changes[f.name] = v2
            return dataclasses.replace(e, **changes) if changes else e


def plug_hole(ctx: Expr, filling: Expr) -> Expr:
    """Replace every hole in a one-hole context."""
    if isinstance(ctx, Hole):
        return filling
    changes = {}
    for f in dataclasses.fields(ctx):
        v = getattr(ctx, f.name)
        if isinstance(v, Expr):
            v2 = plug_hole(v, filling)
            if v2 is not v:
                changes[f.name] = v2
    return dataclasses.replace(ctx, **changes) if changes else ctx


def has_hole(e: Expr) -> bool:
    if isinstance(e, Hole):
        return True
    return any(has_hole(c) for c in _expr_children(e))


# ---------------------------------------------------------------------------
# Pretty-printing.  Parser-produced trees print back to sources that
# re-parse to the same tree; core trees print without annotations for
# diagnostics and for the canonical ordering of distribution outcomes.

_TY_ATOM, _TY_PROD, _TY_SUM, _TY_ARROW, _TY_TOP = 4, 3, 2, 1, 0


def render_type(t: Type) -> str:
    return _rt(t, _TY_TOP)


def _ty_parens(s: str, level: int, minimum: int) -> str:
    return s if level >= minimum else f"({s})"


def _rt(t: Type, want: int) -> str:
    match t:
        case TUnit():
            return "unit"
        case TBool():
            return "bool"
        case TNat():
            return "nat"
        case TInt():
            return "int"
        case TTape():
            return "tape"
        case TVar(a):
            return a
        case TRef(c):
            return _ty_parens(f"ref {_rt(c, _TY_ATOM)}", _TY_ATOM, want)
        case TProd(a, b):
            s = f"{_rt(a, _TY_PROD)} * {_rt(b, _TY_ATOM)}"
            return _ty_parens(s, _TY_PROD, want)
        case TSum(a, b):
            s = f"{_rt(a, _TY_SUM)} + {_rt(b, _TY_PROD)}"
            return _ty_parens(s, _TY_SUM, want)
        case TArrow(a, b):
            s = f"{_rt(a, _TY_SUM)} -> {_rt(b, _TY_ARROW)}"
            return _ty_parens(s, _TY_ARROW, want)
        case TForall(v, b):
            return _ty_parens(f"forall {v}. {_rt(b, _TY_TOP)}", _TY_TOP, want)
        case TExists(v, b):
            return _ty_parens(f"exists {v}. {_rt(b, _TY_TOP)}", _TY_TOP, want)
        case TMu(v, b):
            return _ty_parens(f"mu {v}. {_rt(b, _TY_TOP)}", _TY_TOP, want)
    raise ValueError(f"unknown type node {t!r}")


_E_TOP, _E_SEQ, _E_STORE, _E_CMP, _E_ADD, _E_MUL, _E_APP, _E_ITEM, _E_ATOM = range(9)


def render(e: Expr) -> str:
    return _re(e, _E_TOP)


def _parens(s: str, level: int, want: int) -> str:
    return s if level >= want else f"({s})"


def _re(e: Expr, want: int) -> str:
    match e:
        case Int(n):
            return str(n) if n >= 0 else f"(0 - {-n})"
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
            s = (f"unpack {_re(p, _E_TOP)} as {tv if tv is not None else '_'}, {x}"
                 f" in {_re(body, _E_TOP)}")
            return _parens(s, _E_TOP, want)
        case Match(s0, lv, lb, rv, rb):
            s = (f"match {_re(s0, _E_TOP)} with inl {lv} -> {_re(lb, _E_TOP)}"
                 f" | inr {rv} -> {_re(rb, _E_TOP)} end")
            return s  # delimited by match/end, never needs parens
        case Store(r, v):
            s = f"{_re(r, _E_CMP)} <- {_re(v, _E_STORE)}"
            return _parens(s, _E_STORE, want)
        case Binop(op, a, b):
            if op in ("=", "<", "<="):
                s = f"{_re(a, _E_ADD)} {op} {_re(b, _E_ADD)}"
                return _parens(s, _E_CMP, want)
            if op in ("+", "-"):
                s = f"{_re(a, _E_ADD)} {op} {_re(b, _E_MUL)}"
                return _parens(s, _E_ADD, want)
            s = f"{_re(a, _E_MUL)} {op} {_re(b, _E_APP)}"
            return _parens(s, _E_MUL, want)
        case App(fn, arg):
            s = f"{_re(fn, _E_APP)} {_re(arg, _E_ITEM)}"
            return _parens(s, _E_APP, want)
        case Load(r):
            return _parens(f"!{_re(r, _E_ITEM)}", _E_ITEM, want)
        case Fst(p):
            return _parens(f"fst {_re(p, _E_ITEM)}", _E_ITEM, want)
        case Snd(p):
            return _parens(f"snd {_re(p, _E_ITEM)}", _E_ITEM, want)
        case Alloc(v):
            return _parens(f"ref {_re(v, _E_ITEM)}", _E_ITEM, want)
        case Unfold(v):
            return _parens(f"unfold {_re(v, _E_ITEM)}", _E_ITEM, want)
        case AllocTape(b):
            return _parens(f"alloctape {_re(b, _E_ITEM)}", _E_ITEM, want)
        case Rand(b, Unit()):
            return f"rand({_re(b, _E_TOP)})"
        case Rand(b, l):
            return f"rand({_re(b, _E_TOP)}, {_re(l, _E_TOP)})"
        case Fold(v, t):
            ann = "" if t is None else f"[{render_type(t)}]"
            return _parens(f"fold{ann} {_re(v, _E_ITEM)}", _E_ITEM, want)
        case Inl(v, t):
            ann = "" if t is None else f"[{render_type(t)}]"
            return _parens(f"inl{ann} {_re(v, _E_ITEM)}", _E_ITEM, want)
        case Inr(v, t):
            ann = "" if t is None else f"[{render_type(t)}]"
            return _parens(f"inr{ann} {_re(v, _E_ITEM)}", _E_ITEM, want)
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
