"""Surface syntax: tokenizing, parsing, and the print/parse round trip."""

import dataclasses

import pytest

from tapelang import corpus
from tapelang.parser import ParseError, parse, parse_type
from tapelang.syntax import (App, Binop, Bool, Hole, If, Inl, Int, Match,
                             Pair, Rand, Rec, Unit, Var, render, render_type)


def test_literals_and_atoms():
    assert parse("42") == Int(42)
    assert parse("true") == Bool(True)
    assert parse("()") == Unit()
    assert parse("x") == Var("x")
    assert parse("hole") == Hole()


def test_let_desugars_to_application():
    e = parse("let x = 1 in x")
    assert isinstance(e, App)
    assert isinstance(e.fn, Rec)
    assert e.fn.fname == "_"
    assert e.fn.param == "x"
    assert e.arg == Int(1)


def test_seq_is_wildcard_let():
    e = parse("x <- 1; 2")
    assert isinstance(e, App) and isinstance(e.fn, Rec)
    assert e.fn.param == "_"
    assert e.fn.body == Int(2)


def test_or_and_desugar_to_if():
    e = parse("a || b")
    assert e == If(Var("a"), Bool(True), Var("b"))
    e = parse("a && b")
    assert e == If(Var("a"), Var("b"), Bool(False))


def test_flip_sugar():
    e = parse("flip()")
    assert isinstance(e, If)
    assert isinstance(e.cond, Binop) and e.cond.op == "="
    assert isinstance(e.cond.left, Rand)
    assert e.cond.left.bound == Int(1)
    assert e.cond.left.label == Unit()
    # note the branch order: rand = 0 means false
    assert e.then == Bool(False) and e.orelse == Bool(True)


def test_flip_labeled():
    e = parse("flip(t)")
    assert e.cond.left.label == Var("t")


def test_rand_forms():
    assert parse("rand(3)") == Rand(Int(3), Unit())
    assert parse("rand(3, t)") == Rand(Int(3), Var("t"))


def test_match_optional_leading_pipe():
    one = parse("match s with inl x -> 1 | inr y -> 2 end")
    two = parse("match s with | inl x -> 1 | inr y -> 2 end")
    assert one == two
    assert isinstance(one, Match)


def test_application_is_left_associative():
    e = parse("f a b")
    assert e == App(App(Var("f"), Var("a")), Var("b"))


def test_if_swallows_seq_in_then_branch():
    e = parse("if b then x <- 1; true else false")
    assert isinstance(e, If)
    assert isinstance(e.then, App)  # the sequence
    assert e.orelse == Bool(False)


def test_annotations_required_on_named_params():
    with pytest.raises(ParseError):
        parse("fun x -> x")
    parse("fun (x : int) -> x")
    parse("fun _ -> 3")


def test_rec_requires_both_annotations():
    with pytest.raises(ParseError):
        parse("rec f (x : int) = x")
    parse("rec f (x : int) : int = f x")


@pytest.mark.parametrize("bad", [
    "let x = 1",              # missing in
    "match s with end",       # no arms
    "if b then 1",            # missing else
    "(1, 2",                  # unclosed
    "fold 1",                 # fold needs a type argument
    "1 = 2 = 3",              # comparison is non-associative
    "pack[int] 3",            # pack needs both types
    "",                       # empty input
    "1 2 extra )",            # trailing junk
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_error_carries_position():
    try:
        parse("let x = in x")
        assert False
    except ParseError as exc:
        assert "1:" in str(exc)


def test_type_syntax():
    t = parse_type("mu a. unit + (int * a)")
    assert parse_type(render_type(t)) == t
    t = parse_type("exists a. (unit -> a) * ((a * a) -> int)")
    assert "exists a." in render_type(t)
    with pytest.raises(ParseError):
        parse_type("int ->")


def test_arrow_is_right_associative():
    assert render_type(parse_type("int -> int -> bool")) == \
        render_type(parse_type("int -> (int -> bool)"))


def _roundtrip(src: str):
    e = parse(src)
    assert parse(render(e)) == e, src


def test_roundtrip_small_forms():
    for src in [
        "let x = rand(3) in x + 1",
        "fun (p : int * bool) -> (snd p, fst p)",
        "match inl[bool] 3 with inl x -> x | inr b -> 0 end",
        "pack[int, exists a. a * (a -> int)] ((3, fun (x : int) -> x))",
        "unpack p as a, v in (snd v) (fst v)",
        "fold[mu a. unit + a] (inl[mu a. unit + a] ())",
        "let t = alloctape 2 in rand(2, t)",
        "let r = ref 0 in (r <- !r + 1; !r)",
        "(fun _ -> ()) ()",
        "if 1 <= 2 then some(3) else none[int]",
        "tfun a -> fun (x : a) -> x",
        "(tfun a -> fun (x : a) -> x)[bool] true",
    ]:
        _roundtrip(src)


def test_roundtrip_whole_corpus():
    """Pretty-printing any shipped source re-parses to the same tree."""
    for name, _ in corpus.list_entries():
        entry = corpus.build(name)
        _roundtrip(entry.left_source)
        _roundtrip(entry.right_source)
        for src in entry.extras.values():
            _roundtrip(src)
        for ctx in entry.contexts:
            _roundtrip(ctx.source)


def test_roundtrip_all_parameterizations():
    for name, params in [("elgamal-real", {"p": 3}), ("elgamal-real", {"p": 7}),
                         ("elgamal-rand", {"p": 3}), ("elgamal-rand", {"p": 7}),
                         ("hash", {"n": 0}), ("hash", {"n": 2}),
                         ("lazy-int", {"digits": 3, "base": 3}),
                         ("hash-rng", {"max": 1})]:
        entry = corpus.build(name, params)
        _roundtrip(entry.left_source)
        _roundtrip(entry.right_source)


def _nodes(x):
    if dataclasses.is_dataclass(x):
        yield x
        for f in dataclasses.fields(x):
            yield from _nodes(getattr(x, f.name))


def test_node_hash_is_class_name_and_fields():
    """A node hashes as (class name, *field values), as dataclass equality
    compares; checked on every term and type node of the corpus."""
    for name, _ in corpus.list_entries():
        entry = corpus.build(name)
        for tree in (entry.left(), entry.right(), entry.type_()):
            for x in _nodes(tree):
                assert hash(x) == hash((type(x).__name__,) + tuple(
                    getattr(x, f.name) for f in dataclasses.fields(x)))
