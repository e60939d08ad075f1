"""Annotation-driven typechecker.

Synthesis-directed: the annotations the surface syntax requires (lambda
parameters, rec result types, injection complements, fold targets, pack
witnesses, type-application arguments) make every rule syntax-directed,
so no inference or unification happens anywhere.  `nat` is the
non-negative fragment of the single integer carrier; `fits` lets a nat
flow wherever an int is demanded, through products, sums and arrows as
the table `_VARIANCE` says (an arrow's domain flips), and everything
else is invariant.  The typing rules are stated once each, in `_SYNTH`,
one per form, which is read by the class of the node at hand.  Each
demand that a subterm's type fit is one `_synth_fit`, and operators are
typed from the tables `INT_OPS` and `COMPARABLE` of `syntax`, which the
step rule reads too.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    COMPARABLE, INT_OPS, Alloc, AllocTape, App, Binop, Bool, Expr, Fold, Fst,
    If, Inl, Inr, Int, Label, Load, Loc, Match, Pack, Pair, Rand, Rec,
    Snd, Store, TApp, TArrow, TBool, TExists, TForall, TInt, TLam, TMu, TNat,
    TProd, TRef, TSum, TTape, TUnit, TVar, Type, Unfold, Unit, Unpack, Var,
    RuleTable, free_tvars, render, render_type, tsubst, types_equal,
)


class TypecheckError(Exception):
    pass


def fits(a: Type, b: Type) -> bool:
    """True when a value of type a is acceptable where b is demanded: the
    least upper bound of a and b is b."""
    up = _bound(a, b, up=True)
    return up is not None and types_equal(up, b)


def is_ground(t: Type, mu_vars: frozenset[str] = frozenset()) -> bool:
    """Whether values of type t are observations: unit, bool, nat and int,
    and products, sums and mu types over them (mu_vars, the variables of
    the mu types around t, count as ground)."""
    if type(t) in (TProd, TSum):
        return is_ground(t.left, mu_vars) and is_ground(t.right, mu_vars)
    if type(t) is TMu:
        return is_ground(t.body, mu_vars | {t.var})
    return (type(t) in (TUnit, TBool, TNat, TInt)
            or type(t) is TVar and t.name in mu_vars)


def _join(a: Type, b: Type, where: str) -> Type:
    """The least type both branches fit: their upper `_bound`."""
    out = _bound(a, b, up=True)
    if out is None:
        raise TypecheckError(f"{where}: branch type mismatch: "
                             f"{render_type(a)} vs {render_type(b)}")
    return out


# The constructors that subtyping looks through, with the variance of each
# field in constructor order: True where the bound goes the same way
# (covariant), False where it flips (an arrow's domain).
_VARIANCE = {TProd: (True, True), TSum: (True, True), TArrow: (False, True)}


def _bound(a: Type, b: Type, up: bool) -> Optional[Type]:
    """The least upper (up) or greatest lower bound of a and b under the
    nat <= int order, or None when they have none.  This is the one
    statement of subtyping; `fits` and `_join` read it."""
    if {type(a), type(b)} == {TNat, TInt}:
        return TInt() if up else TNat()
    if types_equal(a, b):
        return a
    variance = _VARIANCE.get(type(a))
    if variance is None or type(b) is not type(a):
        return None
    parts = [_bound(getattr(a, name), getattr(b, name), up == covariant)
             for name, covariant in zip(a._fields, variance)]
    return None if None in parts else type(a)(*parts)


def typecheck(e: Expr) -> Type:
    """Synthesize the type of the closed program e, or raise
    TypecheckError.  Location literals exist only at run time, so a
    program that contains one is rejected."""
    return _SYNTH[type(e)](e, {}, frozenset())


def _wf(t: Type, tvars: frozenset[str], where: str) -> None:
    loose = free_tvars(t) - tvars
    if loose:
        raise TypecheckError(f"{where}: unknown type variable {min(loose)!r}")


def _open(tv: Optional[str], tvars: frozenset[str], form: str):
    """tvars and the type variable tv that a `form` binds, named and new."""
    if tv is None:
        raise TypecheckError(f"missing type-variable annotation on {form}")
    if tv in tvars:
        raise TypecheckError(f"shadowed type variable {tv!r}")
    return tvars | {tv}


def _synth_as(e: Expr, env: dict[str, Type], tvars: frozenset[str], cls,
              msg: str):
    """The type of e, which must be a `cls`; else raise msg, formatted with
    that type as `ty` and e as `e`."""
    t = _SYNTH[type(e)](e, env, tvars)
    if not isinstance(t, cls):
        raise TypecheckError(msg.format(ty=render_type(t), e=render(e)))
    return t


def _synth_fit(e: Expr, env: dict[str, Type], tvars: frozenset[str],
               want: Type, msg: str, at: Optional[Expr] = None) -> Type:
    """The type of e, which must fit want; else raise msg, formatted with
    that type as `ty`, want as `want` and `at` (by default e) as `e`."""
    t = _SYNTH[type(e)](e, env, tvars)
    if not fits(t, want):
        raise TypecheckError(msg.format(
            ty=render_type(t), want=render_type(want),
            e=render(e if at is None else at)))
    return t


# The annotations each form must carry: (field, name used in messages).
_ANNOTATIONS = {
    Rec: (("param_ty", "fun parameter"),),
    TApp: (("ty_arg", "type application"),),
    Inl: (("other_ty", "inl"),),
    Inr: (("other_ty", "inr"),),
    Fold: (("mu_ty", "fold"),),
    Pack: (("witness_ty", "pack witness"), ("ex_ty", "pack")),
}


def _annotated(e: Expr, tvars: frozenset[str]) -> None:
    """Refuse a form of `_ANNOTATIONS` that lacks an annotation, then one
    whose annotation names an unknown type variable."""
    notes = _ANNOTATIONS[type(e)]
    for field, where in notes:
        if getattr(e, field) is None:
            raise TypecheckError(f"missing {where} annotation")
    for field, where in notes:
        _wf(getattr(e, field), tvars, where)


# The typing rules, one per form, in `_SYNTH` below: a rule takes the term,
# the term context env and the type-variable context tvars, and gives the
# term's type.  A rule types a subterm a through the table itself,
# `_SYNTH[type(a)](a, env, tvars)`, so that each tree level takes one
# frame.  A form of `_ANNOTATIONS` checks its annotations first.

def _var(e: Var, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    x = e.name
    if x not in env:
        raise TypecheckError("context hole must be plugged before typechecking"
                             if x == "hole" else f"unbound variable {x!r}")
    return env[x]


def _app(e: App, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    fn, arg = e.fn, e.arg
    if (type(fn) is Rec and fn.fname is None and fn.param_ty is None
            and fn.ret_ty is None):
        # `let`: the bound expression's type annotates the binder
        body = fn.body
        return _SYNTH[type(body)](
            body, {**env, fn.param: _SYNTH[type(arg)](arg, env, tvars)}, tvars)
    fn_ty = _synth_as(fn, env, tvars, TArrow,
                      "applied a non-function of type {ty}: {e}")
    _synth_fit(arg, env, tvars, fn_ty.dom, "argument type {ty} does "
               "not fit parameter type {want} in {e}", e)
    return fn_ty.cod


def _rec(e: Rec, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    _annotated(e, tvars)
    f, x, body, pty, rty = e._args(e)
    env2 = dict(env)
    if f is not None and rty is not None:
        env2[f] = TArrow(pty, rty)
    env2[x] = pty  # the parameter shadows the function's own name
    if rty is None:
        if f is not None:
            raise TypecheckError(
                f"recursive function {f!r} needs a result annotation")
        return TArrow(pty, _SYNTH[type(body)](body, env2, tvars))
    _wf(rty, tvars, "rec result")
    _synth_fit(body, env2, tvars, rty,
               "rec body has type {ty}, annotation says {want}")
    return TArrow(pty, rty)


def _tlam(e: TLam, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    body = e.body
    return TForall(e.tvar, _SYNTH[type(body)](
        body, env, _open(e.tvar, tvars, "tfun")))


def _tapp(e: TApp, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    _annotated(e, tvars)
    fn_ty = _synth_as(e.fn, env, tvars, TForall,
                      "type application of non-polymorphic {ty}")
    return tsubst(fn_ty.body, fn_ty.var, e.ty_arg)


def _pair(e: Pair, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    a, b = e.left, e.right
    return TProd(_SYNTH[type(a)](a, env, tvars),
                 _SYNTH[type(b)](b, env, tvars))


def _inl(e: Inl, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    _annotated(e, tvars)
    v = e.value
    return TSum(_SYNTH[type(v)](v, env, tvars), e.other_ty)


def _inr(e: Inr, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    _annotated(e, tvars)
    v = e.value
    return TSum(e.other_ty, _SYNTH[type(v)](v, env, tvars))


def _match(e: Match, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    s_ty = _synth_as(e.scrutinee, env, tvars, TSum,
                     "match scrutinee has non-sum type {ty}")
    lb, rb = e.left_body, e.right_body
    return _join(_SYNTH[type(lb)](lb, {**env, e.left_var: s_ty.left}, tvars),
                 _SYNTH[type(rb)](rb, {**env, e.right_var: s_ty.right}, tvars),
                 "match")


def _if(e: If, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    _synth_fit(e.cond, env, tvars, TBool(),
               "if condition has type {ty}, wanted {want}")
    t, o = e.then, e.orelse
    return _join(_SYNTH[type(t)](t, env, tvars),
                 _SYNTH[type(o)](o, env, tvars), "if")


def _fold(e: Fold, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    _annotated(e, tvars)
    mu = e.mu_ty
    if not isinstance(mu, TMu):
        raise TypecheckError(
            f"fold annotation {render_type(mu)} is not a mu type")
    _synth_fit(e.value, env, tvars, tsubst(mu.body, mu.var, mu),
               "fold body has type {ty}, unrolling wants {want}")
    return mu


def _unfold(e: Unfold, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    v_ty = _synth_as(e.value, env, tvars, TMu, "unfold of non-mu type {ty}")
    return tsubst(v_ty.body, v_ty.var, v_ty)


def _pack(e: Pack, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    _annotated(e, tvars)
    ex = e.ex_ty
    if not isinstance(ex, TExists):
        raise TypecheckError(
            f"pack annotation {render_type(ex)} is not existential")
    _synth_fit(e.value, env, tvars, tsubst(ex.body, ex.var, e.witness_ty),
               "packed value has type {ty}, wanted {want}")
    return ex


def _unpack(e: Unpack, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    p_ty = _synth_as(e.packed, env, tvars, TExists,
                     "unpack of non-existential type {ty}")
    tv, body = e.tvar, e.body
    tvars = _open(tv, tvars, "unpack")
    opened = tsubst(p_ty.body, p_ty.var, TVar(tv))
    out = _SYNTH[type(body)](body, {**env, e.var: opened}, tvars)
    if tv in free_tvars(out):
        raise TypecheckError(
            f"existential type variable {tv!r} escapes its unpack")
    return out


def _store(e: Store, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    r_ty = _synth_as(e.ref, env, tvars, TRef,
                     "store into non-reference type {ty}")
    _synth_fit(e.value, env, tvars, r_ty.content,
               "stored value has type {ty}, cell holds {want}")
    return TUnit()


def _alloc_tape(e: AllocTape, env: dict[str, Type],
                tvars: frozenset[str]) -> Type:
    _synth_fit(e.bound, env, tvars, TNat(),
               "alloctape bound has type {ty}, wanted {want}")
    return TTape()


def _rand(e: Rand, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    _synth_fit(e.bound, env, tvars, TNat(),
               "rand bound has type {ty}, wanted {want}")
    lab = e.label
    l_ty = _SYNTH[type(lab)](lab, env, tvars)
    if not (fits(l_ty, TUnit()) or fits(l_ty, TTape())):
        raise TypecheckError(
            f"rand label has type {render_type(l_ty)}, wanted unit or tape")
    return TNat()


def _binop(e: Binop, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    op, a, b = e.op, e.left, e.right
    ta, tb = _SYNTH[type(a)](a, env, tvars), _SYNTH[type(b)](b, env, tvars)
    if op == "=":
        joined = _join(ta, tb, "equality")
        if type(joined) not in COMPARABLE:
            raise TypecheckError(
                f"equality at non-comparable type {render_type(joined)}")
        return TBool()
    if op not in INT_OPS:
        raise TypecheckError(f"unknown operator {op!r}")
    result = INT_OPS[op][1]
    kind = "comparison" if result is TBool else "arithmetic"
    for t in (ta, tb):
        if not fits(t, TInt()):
            raise TypecheckError(f"{kind} operand has type "
                                 f"{render_type(t)}, wanted int")
    if result is not TNat or (fits(ta, TNat()) and fits(tb, TNat())):
        return result()
    return TInt()


def _loc(e: Loc, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    raise TypecheckError(
        f"location literal loc({e.index}) outside runtime checking")


def _cannot(e, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    raise TypecheckError(f"cannot type {render(e)}")


_SYNTH = RuleTable(_cannot, {
    Int: lambda e, env, tvars: TNat() if e.n >= 0 else TInt(),
    Bool: lambda e, env, tvars: TBool(),
    Unit: lambda e, env, tvars: TUnit(),
    Label: lambda e, env, tvars: TTape(),
    Loc: _loc, Var: _var, App: _app, Rec: _rec, TLam: _tlam, TApp: _tapp,
    Pair: _pair,
    Fst: lambda e, env, tvars: _synth_as(e.pair, env, tvars, TProd,
                                         "fst of non-pair type {ty}").left,
    Snd: lambda e, env, tvars: _synth_as(e.pair, env, tvars, TProd,
                                         "snd of non-pair type {ty}").right,
    Inl: _inl, Inr: _inr, Match: _match, If: _if, Fold: _fold,
    Unfold: _unfold, Pack: _pack, Unpack: _unpack,
    Alloc: lambda e, env, tvars: TRef(
        _SYNTH[type(e.init)](e.init, env, tvars)),
    Load: lambda e, env, tvars: _synth_as(
        e.ref, env, tvars, TRef, "load from non-reference type {ty}").content,
    Store: _store, AllocTape: _alloc_tape, Rand: _rand, Binop: _binop,
})
