"""Hash-consing: each distinct node is one object, so `==` and `hash` are
identity, and the intern table keeps what is alive and lets the rest go."""

import dataclasses
import gc
import random
import weakref
from itertools import islice

import pytest

from _gen import rand_program, subterms
from _oracle import strata
from tapelang import corpus, syntax
from tapelang.parser import parse
from tapelang.semantics import EMPTY_STATE, Config, State, Tape
from tapelang.syntax import (Bool, Expr, Inl, Int, Label, Loc, Pair, Type,
                             Unit, Var, erase, render)


def shape(x):
    """x as plain nested tuples, its class name and fields all the way
    down, so that two nodes are structurally equal exactly when their
    shapes are `==`.  A scalar keeps its type, so True is not 1."""
    if hasattr(type(x), "_fields"):
        return (type(x).__name__, *(shape(getattr(x, f)) for f in x._fields))
    if type(x) is tuple:
        return ("tuple", *map(shape, x))
    return (type(x).__name__, x)


def rebuild(x):
    """A node built afresh, bottom up, from x's shape."""
    if hasattr(type(x), "_fields"):
        return type(x)(*(rebuild(getattr(x, f)) for f in x._fields))
    if type(x) is tuple:
        return tuple(map(rebuild, x))
    return x


def types_in(x):
    """Every type node under x, annotations included."""
    for f in x._fields:
        v = getattr(x, f)
        if isinstance(v, Type):
            yield v
        if hasattr(type(v), "_fields"):
            yield from types_in(v)


def generated_nodes():
    """The terms, types, stores and configurations of generated programs,
    as parsed, erased and stepped."""
    rng = random.Random(41)
    for _ in range(40):
        e, _ = rand_program(rng, depth=4, effects=True)
        yield from subterms(e)
        yield from types_in(e)
        yield from subterms(erase(e))
        for stratum in islice(strata(Config(erase(e), EMPTY_STATE)), 8):
            for cfg in stratum:
                yield cfg
                yield cfg.state
                yield from cfg.state.tapes


def test_a_node_built_twice_is_one_object():
    for name, _ in corpus.list_entries():
        entry = corpus.build(name)
        for src in (entry.left_source, entry.right_source):
            assert parse(src) is parse(src)
    for x in generated_nodes():
        assert rebuild(x) is x, render(x) if isinstance(x, Expr) else x


def test_identity_is_structural_equality():
    """Over every pair of the generated nodes: the same object exactly when
    their shapes are equal, and `==` and `hash` are identity."""
    by_shape, seen = {}, {}
    for x in generated_nodes():
        seen[id(x)] = x
        assert by_shape.setdefault(shape(x), x) is x, shape(x)
    assert len(by_shape) == len(seen) > 1_000
    nodes = list(seen.values())
    for a, b in zip(nodes, nodes[1:]):
        assert a != b and hash(a) == object.__hash__(a)


def test_int_fields_tell_true_from_1():
    """True == 1 and they hash alike, so a field declared `int` takes an
    int only; otherwise `Int(True)` would be the interned `Int(1)`."""
    for make in (lambda: Int(True), lambda: Int(1.0), lambda: Loc(False),
                 lambda: Label(True), lambda: Tape(True, ())):
        with pytest.raises(TypeError, match="takes an int, not"):
            make()
    assert repr((Int(1), Bool(True))) == "(Int(n=1), Bool(b=True))"


def test_prune_drops_garbage_and_keeps_what_is_held():
    gc.collect()  # what only cyclic garbage holds is held until then
    syntax._prune()
    live = len(syntax._TABLE)
    held = Pair(Int(123_456_789), Var("held"))
    before = (id(held), id(held.left))
    garbage = [Pair(Int(-987_654_321 - i), Var("gone")) for i in range(3)]
    dead = [weakref.ref(x) for g in garbage for x in (g, g.left, g.right)]
    del garbage
    assert all(r() is not None for r in dead)  # the table still holds them
    syntax._prune()
    assert all(r() is None for r in dead)
    assert len(syntax._TABLE) == live + 3  # held, its Int and Var("held")
    assert (id(held), id(held.left)) == before
    assert Pair(Int(123_456_789), Var("held")) is held
    # garbage made in a loop is dropped as the table grows: the table stays
    # under its limit, which stays near the live set (the 3 held nodes and
    # the node being built when a prune runs)
    for i in range(8 * max(syntax.FLOOR, live)):
        Int(-i)
    assert len(syntax._TABLE) <= syntax._limit <= max(syntax.FLOOR,
                                                      2 * (live + 4))


def test_a_deep_chain_is_built_and_freed_without_recursion():
    gc.collect()
    syntax._prune()
    live = len(syntax._TABLE)
    tall = Unit()
    for _ in range(100_000):
        tall = Inl(tall, None)
    innermost = weakref.ref(tall)
    for _ in range(99_999):
        innermost = weakref.ref(innermost().value)
    assert type(innermost()) is Inl and innermost().value is Unit()
    del tall
    syntax._prune()
    assert innermost() is None and len(syntax._TABLE) <= live + 1


def test_replace_builds_through_the_table():
    e = parse("fun (x : int) -> x")
    assert dataclasses.replace(e, param="y") is parse("fun (y : int) -> x")
    assert State((), (Tape(1, (0,)),)) is State(tapes=(Tape(1, (0,)),))
