"""Test-side readings of what the library's results drop.

`strata` is the reference stepping loop: exec_0, exec_1, ... over whole
configuration distributions, re-projected at every depth by `split`.
It is the plain reading of the stratified semantics, with no frontier,
no settled accumulator and no early stop.  Tests use it as the oracle
for `dist.exec_val_trace` and `dist.exec_val_bounds`, and to read
configurations (reachable sets, settled states).  `assoc_dom` reads the
key set of an association-list heap value.

`ref_is_value`, `ref_free_vars` and `ref_subst` are the plain recursive
readings of `syntax.is_value`, `free_vars` and `subst`: no cached node
metadata, and a substitution that rebuilds every node it visits.  Tests
use them as the oracle for the cached metadata and the sharing `subst`.
"""

import dataclasses
from fractions import Fraction
from typing import Iterator

from tapelang.semantics import Config, step_weights
from tapelang.subdist import SubDistr
from tapelang.syntax import (Bool, Expr, Fold, Inl, Inr, Int, Label, Loc, Match,
                             Pack, Pair, Rec, TLam, Unit, Unpack, Var)

ZERO = Fraction(0)


def strata(config: Config) -> Iterator[dict[Config, Fraction]]:
    """exec_0, exec_1, ...: the configuration distribution at each depth.
    Values persist where they land; stuck mass drains out at the next
    stratum."""
    cur = {config: Fraction(1)}
    while True:
        yield cur
        nxt: dict[Config, Fraction] = {}
        for cfg, p in cur.items():
            if ref_is_value(cfg.expr):
                nxt[cfg] = nxt.get(cfg, ZERO) + p
                continue
            for cfg2, q in step_weights(cfg).items():
                nxt[cfg2] = nxt.get(cfg2, ZERO) + p * q
        cur = nxt


def split(stratum: dict[Config, Fraction]) -> tuple[SubDistr[Expr], Fraction]:
    """(value lower bound, residual non-value mass) of one stratum."""
    values: dict[Expr, Fraction] = {}
    residual = ZERO
    for cfg, p in stratum.items():
        if ref_is_value(cfg.expr):
            values[cfg.expr] = values.get(cfg.expr, ZERO) + p
        else:
            residual += p
    return SubDistr(values), residual


def assoc_dom(value: Expr) -> frozenset[int]:
    """Key set of an association-list value (fold of nil/cons cells)."""
    keys = set()
    while True:
        if not isinstance(value, Fold):
            raise ValueError("not an association list value")
        inner = value.value
        if isinstance(inner, Inl):
            return frozenset(keys)
        if not isinstance(inner, Inr):
            raise ValueError("not an association list value")
        cell = inner.value
        if not (isinstance(cell, Pair) and isinstance(cell.left, Pair)
                and isinstance(cell.left.left, Int)):
            raise ValueError("malformed association list cell")
        keys.add(cell.left.left.n)
        value = cell.right


def ref_is_value(e: Expr) -> bool:
    match e:
        case Int() | Bool() | Unit() | Loc() | Label() | Rec() | TLam():
            return True
        case Pair(a, b):
            return ref_is_value(a) and ref_is_value(b)
        case Inl(v, _) | Inr(v, _) | Fold(v, _) | Pack(v, _, _):
            return ref_is_value(v)
        case _:
            return False


def ref_free_vars(e: Expr) -> frozenset[str]:
    match e:
        case Var(x):
            return frozenset((x,))
        case Rec(f, x, body, _, _):
            # '_' as the recursion name means "not recursive": it binds nothing.
            bound = {x} if f == "_" else {f, x}
            return ref_free_vars(body) - bound
        case Match(s, lv, lb, rv, rb):
            return (ref_free_vars(s) | (ref_free_vars(lb) - {lv})
                    | (ref_free_vars(rb) - {rv}))
        case Unpack(p, _, x, body):
            return ref_free_vars(p) | (ref_free_vars(body) - {x})
        case _:
            out: frozenset[str] = frozenset()
            for f in dataclasses.fields(e):
                child = getattr(e, f.name)
                if isinstance(child, Expr):
                    out |= ref_free_vars(child)
            return out


def ref_subst(e: Expr, name: str, value: Expr) -> Expr:
    """Substitute the closed value for every free occurrence of name."""
    match e:
        case Var(x):
            return value if x == name else e
        case Rec(f, x, body, pt, rt):
            if name == x or (name == f and f != "_"):
                return e
            return Rec(f, x, ref_subst(body, name, value), pt, rt)
        case Match(s, lv, lb, rv, rb):
            s2 = ref_subst(s, name, value)
            lb2 = lb if lv == name else ref_subst(lb, name, value)
            rb2 = rb if rv == name else ref_subst(rb, name, value)
            return Match(s2, lv, lb2, rv, rb2)
        case Unpack(p, tv, x, body):
            p2 = ref_subst(p, name, value)
            body2 = body if x == name else ref_subst(body, name, value)
            return Unpack(p2, tv, x, body2)
        case _:
            changes = {}
            for f in dataclasses.fields(e):
                v = getattr(e, f.name)
                if isinstance(v, Expr):
                    v2 = ref_subst(v, name, value)
                    if v2 is not v:
                        changes[f.name] = v2
            return dataclasses.replace(e, **changes) if changes else e
