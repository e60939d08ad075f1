"""Annotation-driven typechecker.

Synthesis-directed: the annotations the surface syntax requires (lambda
parameters, rec result types, injection complements, fold targets, pack
witnesses, type-application arguments) make every rule syntax-directed,
so no inference or unification happens anywhere.  `nat` is the
non-negative fragment of the single integer carrier; `fits` lets a nat
flow wherever an int is demanded, through products, sums and arrows as
the table `_VARIANCE` says (an arrow's domain flips), and everything
else is invariant.  Each demand that a subterm's type fit is one
`_synth_fit`, and operators are typed from the tables `INT_OPS` and
`COMPARABLE` of `syntax`, which the step rule reads too.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    COMPARABLE, INT_OPS, Alloc, AllocTape, App, Binop, Bool, Expr, Fold, Fst,
    Hole, If, Inl, Inr, Int, Label, Load, Loc, Match, Pack, Pair, Rand, Rec,
    Snd, Store, TApp, TArrow, TBool, TExists, TForall, TInt, TLam, TMu, TNat,
    TProd, TRef, TSum, TTape, TUnit, TVar, Type, Unfold, Unit, Unpack, Var,
    free_tvars, render, render_type, tsubst, types_equal,
)


class TypecheckError(Exception):
    pass


def fits(a: Type, b: Type) -> bool:
    """True when a value of type a is acceptable where b is demanded: the
    least upper bound of a and b is b.  (`_bound` returns a itself only
    when a and b are equal.)"""
    up = _bound(a, b, up=True)
    return up is a or (up is not None and types_equal(up, b))


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
    return _synth(e, {}, frozenset())


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
    t = _synth(e, env, tvars)
    if not isinstance(t, cls):
        raise TypecheckError(msg.format(ty=render_type(t), e=render(e)))
    return t


def _synth_fit(e: Expr, env: dict[str, Type], tvars: frozenset[str],
               want: Type, msg: str, at: Optional[Expr] = None) -> Type:
    """The type of e, which must fit want; else raise msg, formatted with
    that type as `ty`, want as `want` and `at` (by default e) as `e`."""
    t = _synth(e, env, tvars)
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


def _synth(e: Expr, env: dict[str, Type], tvars: frozenset[str]) -> Type:
    """The type of e under the term context env and the type-variable
    context tvars."""
    notes = _ANNOTATIONS.get(type(e), ())
    for field, where in notes:
        if getattr(e, field) is None:
            raise TypecheckError(f"missing {where} annotation")
    for field, where in notes:
        _wf(getattr(e, field), tvars, where)
    match e:
        case Int(n):
            return TNat() if n >= 0 else TInt()
        case Bool(_):
            return TBool()
        case Unit():
            return TUnit()
        case Label(_):
            return TTape()
        case Loc(i):
            raise TypecheckError(
                f"location literal loc({i}) outside runtime checking")
        case Var(x):
            if x not in env:
                raise TypecheckError(f"unbound variable {x!r}")
            return env[x]
        case Hole():
            raise TypecheckError("context hole must be plugged before typechecking")

        case App(Rec("_", x, body, None, None), arg):
            # let-binding: the bound expression's type annotates the binder
            return _synth(body, {**env, x: _synth(arg, env, tvars)}, tvars)
        case App(fn, arg):
            fn_ty = _synth_as(fn, env, tvars, TArrow,
                              "applied a non-function of type {ty}: {e}")
            _synth_fit(arg, env, tvars, fn_ty.dom, "argument type {ty} does "
                       "not fit parameter type {want} in {e}", e)
            return fn_ty.cod

        case Rec(f, x, body, pty, rty):
            env2 = dict(env)
            if f != "_" and rty is not None:
                env2[f] = TArrow(pty, rty)
            env2[x] = pty  # the parameter shadows the function's own name
            if rty is None:
                if f != "_":
                    raise TypecheckError(
                        f"recursive function {f!r} needs a result annotation")
                return TArrow(pty, _synth(body, env2, tvars))
            _wf(rty, tvars, "rec result")
            _synth_fit(body, env2, tvars, rty,
                       "rec body has type {ty}, annotation says {want}")
            return TArrow(pty, rty)

        case TLam(tv, body):
            return TForall(tv, _synth(body, env, _open(tv, tvars, "tfun")))
        case TApp(fn, ty_arg):
            fn_ty = _synth_as(fn, env, tvars, TForall,
                              "type application of non-polymorphic {ty}")
            return tsubst(fn_ty.body, fn_ty.var, ty_arg)

        case Pair(a, b):
            return TProd(_synth(a, env, tvars), _synth(b, env, tvars))
        case Fst(p):
            return _synth_as(p, env, tvars, TProd,
                             "fst of non-pair type {ty}").left
        case Snd(p):
            return _synth_as(p, env, tvars, TProd,
                             "snd of non-pair type {ty}").right

        case Inl(v, other):
            return TSum(_synth(v, env, tvars), other)
        case Inr(v, other):
            return TSum(other, _synth(v, env, tvars))
        case Match(s, lv, lb, rv, rb):
            s_ty = _synth_as(s, env, tvars, TSum,
                             "match scrutinee has non-sum type {ty}")
            return _join(_synth(lb, {**env, lv: s_ty.left}, tvars),
                         _synth(rb, {**env, rv: s_ty.right}, tvars), "match")

        case If(c, t, o):
            _synth_fit(c, env, tvars, TBool(),
                       "if condition has type {ty}, wanted {want}")
            return _join(_synth(t, env, tvars), _synth(o, env, tvars), "if")

        case Fold(v, mu):
            if not isinstance(mu, TMu):
                raise TypecheckError(
                    f"fold annotation {render_type(mu)} is not a mu type")
            _synth_fit(v, env, tvars, tsubst(mu.body, mu.var, mu),
                       "fold body has type {ty}, unrolling wants {want}")
            return mu
        case Unfold(v):
            v_ty = _synth_as(v, env, tvars, TMu, "unfold of non-mu type {ty}")
            return tsubst(v_ty.body, v_ty.var, v_ty)

        case Pack(v, witness, ex):
            if not isinstance(ex, TExists):
                raise TypecheckError(
                    f"pack annotation {render_type(ex)} is not existential")
            _synth_fit(v, env, tvars, tsubst(ex.body, ex.var, witness),
                       "packed value has type {ty}, wanted {want}")
            return ex
        case Unpack(p, tv, x, body):
            p_ty = _synth_as(p, env, tvars, TExists,
                             "unpack of non-existential type {ty}")
            tvars = _open(tv, tvars, "unpack")
            opened = tsubst(p_ty.body, p_ty.var, TVar(tv))
            out = _synth(body, {**env, x: opened}, tvars)
            if tv in free_tvars(out):
                raise TypecheckError(
                    f"existential type variable {tv!r} escapes its unpack")
            return out

        case Alloc(v):
            return TRef(_synth(v, env, tvars))
        case Load(r):
            return _synth_as(r, env, tvars, TRef,
                             "load from non-reference type {ty}").content
        case Store(r, v):
            r_ty = _synth_as(r, env, tvars, TRef,
                             "store into non-reference type {ty}")
            _synth_fit(v, env, tvars, r_ty.content,
                       "stored value has type {ty}, cell holds {want}")
            return TUnit()

        case AllocTape(b):
            _synth_fit(b, env, tvars, TNat(),
                       "alloctape bound has type {ty}, wanted {want}")
            return TTape()
        case Rand(b, lab):
            _synth_fit(b, env, tvars, TNat(),
                       "rand bound has type {ty}, wanted {want}")
            l_ty = _synth(lab, env, tvars)
            if not (fits(l_ty, TUnit()) or fits(l_ty, TTape())):
                raise TypecheckError(
                    f"rand label has type {render_type(l_ty)}, wanted unit or tape")
            return TNat()

        case Binop(op, a, b):
            ta, tb = _synth(a, env, tvars), _synth(b, env, tvars)
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

    raise TypecheckError(f"cannot type {render(e)}")
