"""The binding operations of `syntax`, which read its scope table,
against the hand-written recursions they replaced (`_oracle.ref_*`),
compared with `==`; and a check of the table itself.  The reference
`tsubst` renames a binder that names a free variable of the replacement
even where nothing below it is substituted; `tsubst` does not, and its
result is compared with the reference's up to alpha-equivalence there."""

import random
import typing

import pytest

from _gen import rand_program, subterms
from _oracle import (ref_erase, ref_free_tvars, ref_free_vars, ref_subst,
                     ref_tsubst_type, ref_types_equal)
from test_trace_oracle import SMALLEST
from tapelang import syntax
from tapelang.corpus import build, list_entries
from tapelang.dist import exec_val_trace
from tapelang.parser import parse, parse_type
from tapelang.semantics import EMPTY_STATE
from tapelang.subdist import dret
from tapelang.syntax import (SCOPES, TYPE_BINDERS, Binop, Expr, Rec, TArrow,
                             TBool, TInt, TLam, TNat, TProd, TRef, TSum, TUnit,
                             TVar, Type, Unit, Unpack, Var, erase, free_tvars,
                             free_vars, plug_hole, render, render_type, subst,
                             tsubst, types_equal)
from tapelang.typecheck import TypecheckError, typecheck

# the string fields that bind nothing: a variable occurrence, an operator
NOT_BINDERS = {(Var, "name"), (TVar, "name"), (Binop, "op")}
# the type binder forms, each binding its `var` in its `body`
BINDERS = tuple(TYPE_BINDERS.values())
# the type variables that terms bind: only the typechecker reads them, and
# `erase` nulls them
TERM_TVARS = {(TLam, "tvar"), (Unpack, "tvar")}
# the binder fields that may hold None, which binds nothing: the name of a
# closure that is not recursive
NAMELESS = {(Rec, "fname")}
NODE_CLASSES = [c for c in vars(syntax).values() if isinstance(c, type)
                and issubclass(c, (Expr, Type)) and hasattr(c, "_fields")]


def nodes(x):
    """Every node of a term or a type, annotation types and their parts
    included."""
    yield x
    for name in x._fields:
        v = getattr(x, name)
        if isinstance(v, (Expr, Type)):
            yield from nodes(v)


# polymorphic programs: the corpus and the generator write no tfun or forall
POLY = [
    "(tfun a -> fun (x : a) -> (x, inl[a] x)) [int] 3",
    "let id = tfun a -> fun (x : a) -> x in (id [forall b. b -> b] id, id [nat] 1)",
    "unpack pack[int, exists a. a * (a -> bool)] (1, fun (x : int) -> x = 1)"
    " as c, p in (snd p) (fst p)",
    "tfun a -> fun (f : forall b. (b -> a) * (mu c. unit + b * c)) -> f",
]


def annotated_trees():
    """Both sides of every corpus entry at its smallest parameters and
    each context plugged with them, as parsed (annotations kept), then
    the polymorphic programs and generated programs with and without
    effects."""
    for name, _ in list_entries():
        entry = build(name, SMALLEST.get(name, {}))
        for side in (entry.left, entry.right):
            yield side()
            for ctx in entry.contexts:
                yield plug_hole(ctx.expr(), side())
    yield from map(parse, POLY)
    rng = random.Random(41)
    for effects in (False, True):
        for _ in range(100):
            yield rand_program(rng, depth=4, effects=effects,
                               tapes=effects)[0]


def test_scope_tables_name_binder_and_scoped_fields():
    """Each row of `SCOPES` pairs a field declared `str` (`Optional[str]`
    where it may bind nothing, `NAMELESS`) with a field declared `Expr` in
    a term, `Type` in a type, and each type binder form
    binds its `var: str` in its `body: Type`; every other string field of
    a node binds nothing, or is a type variable a term binds
    (`Optional[str]`, which erasure nulls), so a binding form without its
    row fails here."""
    rows = set()
    for tag, pairs in SCOPES.items():
        cls = getattr(syntax, tag)
        hints = typing.get_type_hints(cls)
        for binder, scoped in pairs:
            want = typing.Optional[str] if (cls, binder) in NAMELESS else str
            assert hints[binder] == want, (cls, binder)
            root = Expr if issubclass(cls, Expr) else Type
            assert hints[scoped] is root, (cls, scoped)
            rows.add((cls, binder))
    for cls in BINDERS:
        assert typing.get_type_hints(cls) == {"var": str, "body": Type}, cls
        assert SCOPES[cls.__name__] == (("var", "body"),), cls
    for cls, name in TERM_TVARS:
        assert typing.get_type_hints(cls)[name] == typing.Optional[str]
    for cls in NODE_CLASSES:
        for name, hint in typing.get_type_hints(cls).items():
            if hint in (str, typing.Optional[str]):
                assert (cls, name) in rows | NOT_BINDERS | TERM_TVARS, (
                    cls, name)


def test_scope_tables_match_the_trees():
    """On parsed and erased trees every binder field holds a name, or
    None where it may bind nothing, and every scoped field a term or a
    type; a type variable that a term binds holds a name until erasure
    makes it None."""
    seen = set()
    for tree in annotated_trees():
        for core in (tree, erase(tree)):
            for x in nodes(core):
                for binder, scoped in SCOPES.get(type(x).__name__, ()):
                    name = getattr(x, binder)
                    assert isinstance(name, str) or (
                        name is None and (type(x), binder) in NAMELESS), (
                        render(core), binder)
                    assert isinstance(getattr(x, scoped), (Expr, Type))
                    seen.add(type(x))
                if (type(x), "tvar") in TERM_TVARS:
                    assert (x.tvar is None) == (core is not tree), render(core)
                    seen.add(type(x))
    assert {getattr(syntax, tag) for tag in SCOPES} | {TLam} <= seen


def test_rec_named_underscore_binds_nothing():
    """`fun` builds a closure with no name, and so does `rec _`: that `_`
    names nothing, while a parameter `_` binds, so the `_` in the inner
    function is the outer parameter."""
    outer = parse("fun _ -> fun (x : int) -> _")
    assert outer.fname is None and outer.param == "_"
    assert free_vars(outer) == ref_free_vars(outer) == frozenset()
    inner = outer.body
    assert free_vars(inner) == ref_free_vars(inner) == {"_"}
    assert subst(inner, "_", Unit()) == ref_subst(inner, "_", Unit())
    assert render(subst(inner, "_", Unit())) == "fun (x : int) -> ()"
    src = "rec _ (x : int) : int = x + 1"
    nameless = parse(src)
    assert nameless.fname is None
    assert render(nameless) == src and parse(render(nameless)) == nameless
    with pytest.raises(TypecheckError, match="^unbound variable '_'$"):
        typecheck(parse("(rec _ (x : int) : int = _ 1) 2"))
    const = parse("((fun _ -> fun (y : int) -> _) ()) 3")
    assert exec_val_trace(erase(const), EMPTY_STATE, 10)[-1] == (
        dret(Unit()), 0)


def _names(tree) -> tuple[list[str], list[Type]]:
    """Type variables to substitute for (every binder name of the tree and
    one bound nowhere) and types to substitute: closed ones, and type
    variables named like the binders of the tree's types, which those
    binders must be renamed apart from."""
    term_level = {x.tvar for x in nodes(tree) if isinstance(x, (TLam, Unpack))}
    type_level = {x.var for x in nodes(tree) if isinstance(x, BINDERS)}
    names = sorted((term_level | type_level | {"q"}) - {None})
    repls = [TNat(), TArrow(TVar("q"), TInt())]
    repls += [TVar(a) for a in sorted(type_level)]
    return names, repls


def binders_kept(x: Type, y: Type) -> int:
    """How many binders of x have the same name at the same place in y;
    the walk stops at x's type variables, where a substitution may have
    put a type."""
    if isinstance(x, TVar) or type(x) is not type(y):
        return 0
    return (isinstance(x, BINDERS) and x.var == y.var) + sum(
        binders_kept(getattr(x, f), getattr(y, f)) for f in x._fields
        if isinstance(getattr(x, f), Type))


def needless_renaming(x: Type, got: Type, want: Type) -> bool:
    """Asserts that tsubst's result got on x is the reference's want, or
    else that the reference renamed a binder needlessly: got is then
    alpha-equivalent to want and keeps more binders of x by their names.
    Returns whether it was the second case."""
    if got == want:
        return False
    assert types_equal(got, want), (render_type(got), render_type(want))
    assert binders_kept(x, got) > binders_kept(x, want), render_type(got)
    return True


def test_binding_operations_match_reference_on_trees():
    checked = needless = 0
    for tree in annotated_trees():
        names, repls = _names(tree)
        types = {x for x in nodes(tree) if isinstance(x, Type)}
        for sub in subterms(tree):
            assert erase(sub) == ref_erase(sub), render(sub)
        for var in names:
            for repl in repls:
                for t in types:
                    needless += needless_renaming(
                        t, tsubst(t, var, repl), ref_tsubst_type(t, var, repl))
                    checked += 1
        some = sorted(types, key=render_type)[:30]
        for t in types:
            assert free_tvars(t) == ref_free_tvars(t), render_type(t)
            for u in some:
                assert_types_equal_matches(t, u)
    assert checked > 5_000 and needless > 0, (checked, needless)


POOL = ("a", "b", "c")


def de_bruijn(t: Type, bound: tuple[str, ...] = ()):
    """t with each bound name replaced by the number of binders between
    it and its own, innermost first; free names are kept."""
    if isinstance(t, TVar):
        return bound.index(t.name) if t.name in bound else t.name
    if isinstance(t, BINDERS):
        return type(t), de_bruijn(t.body, (t.var,) + bound)
    return (type(t), *(de_bruijn(getattr(t, f), bound) for f in t._fields))


def shadows(t: Type, bound: frozenset[str] = frozenset()) -> bool:
    """Whether a binder in t rebinds a name already bound above it."""
    if isinstance(t, BINDERS):
        return t.var in bound or shadows(t.body, bound | {t.var})
    return any(shadows(getattr(t, f), bound) for f in t._fields
               if isinstance(getattr(t, f), Type))


def assert_types_equal_matches(t: Type, u: Type) -> None:
    """types_equal(t, u) is de Bruijn equality, in either order.  The
    reference `ref_types_equal` numbers a binder by how many names are
    bound above it, which a shadowing binder in its first argument does
    not raise; it is compared where no binder in t shadows."""
    want = de_bruijn(t) == de_bruijn(u)
    assert types_equal(t, u) == want == types_equal(u, t), (
        render_type(t), render_type(u))
    if not shadows(t):
        assert ref_types_equal(t, u) == want


def rand_poly_type(rng: random.Random, depth: int) -> Type:
    """A type over ∀/∃/μ whose names all come from POOL."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return TVar(rng.choice(POOL)) if rng.random() < 0.6 else rng.choice(
            (TUnit(), TBool(), TInt()))
    if roll < 0.55:
        return rng.choice(BINDERS)(rng.choice(POOL),
                                   rand_poly_type(rng, depth - 1))
    if roll < 0.65:
        return TRef(rand_poly_type(rng, depth - 1))
    return rng.choice((TProd, TSum, TArrow))(rand_poly_type(rng, depth - 1),
                                             rand_poly_type(rng, depth - 1))


def _renamed(t: Type, names: dict[str, str]) -> Type:
    """t with every name, bound or free, mapped through names."""
    if isinstance(t, TVar):
        return TVar(names[t.name])
    if isinstance(t, BINDERS):
        return type(t)(names[t.var], _renamed(t.body, names))
    return type(t)(*(_renamed(getattr(t, f), names) for f in t._fields))


def _retargets(t: Type) -> list[Type]:
    """t with one name occurrence changed to another name of POOL, for
    each occurrence and name: near misses of t."""
    if isinstance(t, TVar):
        return [TVar(n) for n in POOL if n != t.name]
    out = []
    for i, f in enumerate(t._fields):
        if isinstance(getattr(t, f), Type):
            for v in _retargets(getattr(t, f)):
                args = [getattr(t, g) for g in t._fields]
                args[i] = v
                out.append(type(t)(*args))
    return out


def test_binding_operations_match_reference_on_generated_types():
    """Over a three-name pool binders shadow each other and capture the
    replacement's names, so renaming fires.  Each type is compared with
    its renamings, its near misses and their renamings, in both orders."""
    rng = random.Random(43)
    renamed = equal = shadowing = needless = 0
    for _ in range(400):
        t = rand_poly_type(rng, 4)
        assert free_tvars(t) == ref_free_tvars(t), render_type(t)
        for var in POOL:
            repl = rand_poly_type(rng, 2)
            got = tsubst(t, var, repl)
            needless += needless_renaming(t, got, ref_tsubst_type(t, var, repl))
            renamed += any(isinstance(x, BINDERS) and x.var not in POOL
                           for x in nodes(got))
        perm = dict(zip(POOL, rng.sample(POOL, 3)))
        near = _retargets(t)
        for u in (_renamed(t, perm), rand_poly_type(rng, 4), t, *near,
                  *(_renamed(v, perm) for v in near)):
            assert_types_equal_matches(t, u)
            equal += types_equal(t, u) and u != t
        shadowing += shadows(t)
    # renaming where it must (58 results) and where the reference renamed
    # needlessly (166 substitutions) both fire
    assert renamed >= 50 and needless >= 100, (renamed, needless)
    assert equal >= 20, equal
    assert shadowing >= 60, shadowing


@pytest.mark.parametrize("src, other, want", [
    # a shadowing binder still counts: c names the third binder, y the
    # second
    ("forall a. forall a. forall c. c -> c",
     "forall x. forall y. forall z. y -> y", False),
    ("forall a. forall a. forall c. c -> c",
     "forall x. forall y. forall z. z -> z", True),
    ("forall a. forall a. a", "forall x. forall y. y", True),
    ("forall a. forall a. a", "forall x. forall y. x", False),
    ("mu a. a * (exists a. a)", "mu b. b * (exists c. c)", True),
])
def test_types_equal_under_shadowing(src, other, want):
    t, u = parse_type(src), parse_type(other)
    assert types_equal(t, u) == types_equal(u, t) == want
    assert (de_bruijn(t) == de_bruijn(u)) == want


@pytest.mark.parametrize("src, var, repl, want", [
    # a binder that would capture the replacement is renamed apart
    ("forall a. b -> a", "b", "a", "forall a1. a -> a1"),
    ("mu a. a + (exists a1. a1 * b)", "b", "a", "mu a1. a1 + (exists a1. a1 * a)"),
    # the variable bound here is not free: nothing changes
    ("forall b. b", "b", "int", "forall b. b"),
    # nothing is substituted under the binder, so it captures nothing
    ("forall a. int", "b", "a", "forall a. int"),
    ("(forall a. int) -> b", "b", "a", "(forall a. int) -> a"),
])
def test_tsubst_renames_type_binders(src, var, repl, want):
    t = parse_type(src)
    got = tsubst(t, var, parse_type(repl))
    assert got == parse_type(want) and render_type(got) == want
    assert (got is t) == (want == src)

