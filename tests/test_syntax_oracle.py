"""Differential tests: the facts each node of `syntax` gets when it is
built (`is_value`, `free_vars`, `free_tvars`) and its sharing `subst`
against the plain recursive references in `_oracle`, compared with `==`,
plus `is` where `subst` must share."""

import dataclasses
import random
from itertools import islice
from typing import Optional

import pytest

from _gen import rand_program, subterms
from _oracle import (ref_free_tvars, ref_free_vars, ref_is_value, ref_subst,
                     strata)
from test_binding_oracle import POLY, nodes
from test_trace_oracle import SMALLEST, assert_matches_oracle
from tapelang.corpus import build, list_entries
from tapelang.parser import parse
from tapelang.semantics import Config, EMPTY_STATE
from tapelang.syntax import (Expr, Fst, Inl, Int, Match, Pair, Rec, Snd,
                             TArrow, TInt, TVar, Type, Unit, Unpack, Var,
                             erase, free_tvars, free_vars, is_value, node,
                             plug_hole, render, render_type, subst, tsubst)
from tapelang.typecheck import fits, typecheck

# closed values to substitute: a base value and a closure
VALUES = (Int(7), Rec(None, "y", Var("y")))


def _binds(e: Expr, field: str) -> set[str]:
    """The names e binds in its field `field`."""
    match e, field:
        case Rec(f, x, _, _, _), "body":
            return {f, x} - {None}  # a closure with no name
        case Match(_, lv, _, _, _), "left_body":
            return {lv}
        case Match(_, _, _, rv, _), "right_body":
            return {rv}
        case Unpack(_, _, x, _), "body":
            return {x}
    return set()


def scoped_subterms(e: Expr, bound: frozenset = frozenset()):
    """(subterm, names bound above it) for every node of the tree."""
    yield e, bound
    for f in dataclasses.fields(e):
        child = getattr(e, f.name)
        if isinstance(child, Expr):
            yield from scoped_subterms(child, bound | _binds(e, f.name))


def assert_facts(fresh) -> None:
    """Each of the nodes fresh carries its facts in its `__dict__` from
    birth, before anything reads them (its free names, and whether a term
    is a value), and they equal the references."""
    fresh = list(fresh)
    for n in fresh:
        assert "_fv" in n.__dict__, n
        assert isinstance(n, Type) or "_isval" in n.__dict__, render(n)
    for n in fresh:
        if isinstance(n, Type):
            assert free_tvars(n) == ref_free_tvars(n), render_type(n)
        else:
            assert is_value(n) == ref_is_value(n), render(n)
            assert free_vars(n) == ref_free_vars(n), render(n)


def assert_metadata(x: Expr | Type):
    """The facts of every node of the term or type x, the types it is
    annotated with included, are there and equal the references."""
    assert_facts(nodes(x))


def rebuilt(got: Expr, old: set[int], v: Expr) -> list[Expr]:
    """The nodes of subst(sub, name, v) that subst built: those that are
    neither v nor a node of sub (whose ids are old)."""
    out, todo = [], [got]
    while todo:
        n = todo.pop()
        if n is not v and id(n) not in old:
            out.append(n)
            todo += [c for c in (getattr(n, f) for f in n._fields)
                     if isinstance(c, Expr)]
    return out


def assert_subst_matches(e: Expr) -> int:
    """For every subterm and every name bound above it or free in e (and
    one bound nowhere), subst equals the reference, returns the subterm
    itself where the name is not free, and builds nodes whose metadata the
    references agree with and that carry them from birth.  Returns the
    number of substitutions checked."""
    checked = 0
    for sub, bound in scoped_subterms(e, ref_free_vars(e) | {"unbound_name"}):
        old, fv = {id(n) for n in subterms(sub)}, ref_free_vars(sub)
        for name in sorted(bound):
            for v in VALUES:
                got = subst(sub, name, v)
                assert got == ref_subst(sub, name, v), (render(sub), name)
                if name not in fv:
                    assert got is sub, (render(sub), name)
                assert_facts(rebuilt(got, old, v))
                checked += 1
    return checked


def corpus_sides():
    """Both sides of every corpus entry at its smallest parameters, as
    parsed and erased."""
    for name, _ in list_entries():
        entry = build(name, SMALLEST.get(name, {}))
        for side in (entry.left, entry.right):
            yield side()
            yield erase(side())


def corpus_programs():
    """Every context of every corpus entry at its smallest parameters,
    plugged with each side and erased, as the engine runs them."""
    for name, _ in list_entries():
        entry = build(name, SMALLEST.get(name, {}))
        for side in (entry.left, entry.right):
            for ctx in entry.contexts:
                yield erase(plug_hole(ctx.expr(), side()))


def test_subst_matches_reference_on_corpus():
    assert sum(assert_subst_matches(e) for e in corpus_sides()) > 10_000


def test_subst_matches_reference_on_generated_programs():
    rng = random.Random(23)
    for effects in (False, True):
        for _ in range(150):
            e, _ = rand_program(rng, depth=4, effects=effects)
            assert_subst_matches(e)
            assert_subst_matches(erase(e))


# x is free outside a binder of x and occurs under it, once per binder form
SHADOWING = [
    "x + (fun (x : int) -> x) x",
    "(fun (x : int) -> fun (x : int) -> x) x",
    "x + (rec x (y : int) : int = x y) 1",
    "x + (rec f (x : int) : int = f x) 1",
    "match inl[int] x with inl x -> x | inr y -> x end",
    "match inr[int] x with inl y -> x | inr x -> x end",
    "unpack pack[int * int, exists a. a] (x, x) as a, x in (x, fun (x : int) -> x)",
]


def test_subst_respects_every_binder():
    for src in SHADOWING:
        assert assert_subst_matches(parse(src)) > 0
        assert assert_subst_matches(erase(parse(src))) > 0


def test_subst_refuses_an_open_value():
    """subst does not rename, so it takes closed values only: an open one,
    which a binder on the way could capture, is refused."""
    e = parse("x + (fun (free_x : int) -> x + free_x) 1")
    for value in (Var("free_x"), parse("fun (y : int) -> free_x")):
        with pytest.raises(ValueError, match="value for x is not closed"):
            subst(e, "x", value)


def test_metadata_of_shared_subterms():
    """A node with two parents (the parser makes every `true` one node)
    is filled once, before either parent."""
    s = Var("x")
    for e in (Pair(Fst(s), Snd(s)), parse("(fst (true, 1), snd (true, 2))")):
        assert free_vars(e) == ref_free_vars(e)
        assert_metadata(e)


def test_free_vars_of_deep_and_shared_values():
    """No recursion, so a value 100,001 terms tall is walked; each node is
    walked once, so a pair tree shared 2**40 ways is too."""
    tall = Unit()
    for _ in range(100_000):
        tall = Inl(tall, None)
    wide = Unit()
    for _ in range(40):
        wide = Pair(wide, wide)
    assert free_vars(tall) == free_vars(wide) == frozenset()
    assert free_vars(Pair(Var("x"), wide)) == {"x"}


@pytest.mark.parametrize("annotation", [Optional[Expr], Expr, "Expr | None"])
def test_a_subterm_field_not_annotated_expr_is_refused(annotation):
    """Free variables and subst walk the fields annotated with the string
    "Expr"; a term class whose field is spelled any other way would have
    that field skipped, so `node` refuses it."""
    with pytest.raises(TypeError, match="annotate subterm fields"):
        node(type("Odd", (Expr,), {"__annotations__": {"sub": annotation}}))


def test_subst_shares_closed_subtrees():
    e = parse("fun (x : int) -> (fun (y : int) -> y + 1, x + (fun (z : int) -> z) 2)")
    body = e.body
    out = subst(body, "x", Int(5))
    assert out.left is body.left  # x is not free in the left component
    assert out.right.right is body.right.right
    assert render(out) == "(fun (y : int) -> y + 1, 5 + (fun (z : int) -> z) 2)"
    assert subst(e, "x", Int(5)) is e  # bound, so not free


def test_metadata_of_parsed_plugged_and_erased_nodes():
    for e in corpus_sides():
        assert_metadata(e)
    for e in corpus_programs():
        assert_metadata(e)
    for e in map(parse, POLY):
        assert_metadata(e)
        for t in {t for t in nodes(e) if isinstance(t, Type)}:
            for var in ("a", "b", "c"):
                assert_metadata(tsubst(t, var, TArrow(TVar("a"), TInt())))


def test_metadata_of_stepped_nodes():
    """Configurations reached by stepping are built by `plug` and `subst`:
    their metadata agrees with the references."""
    rng = random.Random(29)
    programs = list(corpus_programs())[::3]
    programs += [erase(rand_program(rng, depth=4, effects=True)[0])
                 for _ in range(40)]
    for e in programs:
        for stratum in islice(strata(Config(e, EMPTY_STATE)), 12):
            for cfg in stratum:
                assert_metadata(cfg.expr)


def test_metadata_of_replaced_nodes():
    """dataclasses.replace runs the constructor, so a node made by it
    carries metadata for its new fields, not the old node's."""
    fillers = (Unit(), Var("free_x"), parse("1 + 2"))
    for e in corpus_sides():
        for sub in subterms(e):
            is_value(sub), free_vars(sub), hash(sub)  # fill the caches
            for f in dataclasses.fields(sub):
                if isinstance(getattr(sub, f.name), Expr):
                    for filler in fillers:
                        assert_metadata(dataclasses.replace(sub, **{f.name: filler}))


def test_cached_metadata_is_invisible():
    src = "let f = fun (x : int) -> (x, inl[bool] x) in f 3"
    e, fresh = parse(src), parse(src)
    hash(e), free_vars(e), is_value(e), subst(e, "f", Int(0))
    for sub in subterms(e):
        free_vars(sub)
    assert e == fresh and repr(e) == repr(fresh) and render(e) == render(fresh)
    assert [f.name for f in dataclasses.fields(e)] == list(type(e)._fields)


def test_generated_effect_programs_are_well_typed():
    rng = random.Random(31)
    seen = {"rec": 0, "rec f f": 0, "ref": 0}
    for _ in range(200):
        e, ty = rand_program(rng, depth=4, effects=True)
        assert fits(typecheck(e), ty), render(e)
        for sub in subterms(e):
            if isinstance(sub, Rec) and sub.fname is not None:
                seen["rec f f" if sub.fname == sub.param else "rec"] += 1
            seen["ref"] += type(sub).__name__ == "Store"
    assert min(seen.values()) >= 20, seen


def test_generated_effect_traces_match_oracle():
    rng = random.Random(37)
    for _ in range(60):
        e, _ = rand_program(rng, depth=4, effects=True)
        assert_matches_oracle(erase(e), EMPTY_STATE, 40)
