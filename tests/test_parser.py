"""Surface syntax: tokenizing, parsing, and the print/parse round trip."""

import dataclasses
import random
import sys
from collections import Counter

import pytest

from _gen import rand_program
from tapelang import corpus, parser
from tapelang.parser import (KEYWORDS, PUNCT, ParseError, Parser, parse,
                             parse_type)
from tapelang.syntax import (
    ANNOTATED_FORMS, BASE_TYPES, BINOP_LEVELS, PREFIX_FORMS, TYPE_BINDERS,
    TYPE_OPS, App, Binop, Bool, Expr, If, Int, Label, Load, Loc, Match,
    Pack, Pair, Rand, Rec, Store, TApp, TArrow, TLam, TProd, TRef, TSum, TUnit,
    TVar, Type, Unit, Unpack, Var, render, render_type)


def test_literals_and_atoms():
    assert parse("42") == Int(42)
    assert parse("true") == Bool(True)
    assert parse("()") == Unit()
    assert parse("x") == Var("x")
    assert parse("hole") == Var("hole")  # a context's one free variable


def test_let_desugars_to_application():
    e = parse("let x = 1 in x")
    assert isinstance(e, App)
    assert isinstance(e.fn, Rec)
    assert e.fn.fname is None
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


def test_operator_precedence():
    """Loosest to tightest: `||`, `&&`, `= <= <`, `+ -`, `* mod`; all but
    the comparisons chain to the left, and a comparison may be followed
    by a looser operator."""
    a, b, c, d = (Var(x) for x in "abcd")
    assert parse("a || b && c = d") == If(
        a, Bool(True), If(b, Binop("=", c, d), Bool(False)))
    assert parse("1 = 2 && true") == If(
        Binop("=", Int(1), Int(2)), Bool(True), Bool(False))
    assert parse("a - b - c * d mod a") == Binop(
        "-", Binop("-", a, b), Binop("mod", Binop("*", c, d), a))
    assert parse("a + b <= c * d") == Binop(
        "<=", Binop("+", a, b), Binop("*", c, d))
    assert parse("a < b || c") == If(Binop("<", a, b), Bool(True), c)


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
    "1 = 2 && 3 = 4 < 5",     # ... also after a looser operator
    "pack[int] 3",            # pack needs both types
    "",                       # empty input
    "1 2 extra )",            # trailing junk
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


@pytest.mark.parametrize("src, where", [
    ("²", "1:1"), ("½", "1:1"), ("1 + ٣", "1:5"), ("12²", "1:3"),
    ("let x =\n  ٣ in x", "2:3"), ("x + ²y", "1:5"),
])
def test_non_ascii_digits_are_parse_errors(src, where):
    """An integer literal is ASCII digits only; a numeral that is not one
    (`²`, `½`, the Arabic-Indic `٣`) starts no token."""
    char = next(c for c in src if c.isnumeric() and not c.isascii())
    for fn in (parse, parse_type):
        with pytest.raises(ParseError) as exc:
            fn(src)
        assert str(exc.value) == f"{where}: unexpected character {char!r}"


def test_overlong_integer_literals_are_parse_errors():
    """A literal with more digits than `int()` converts is a ParseError at
    the literal, not the interpreter's own ValueError."""
    limit = sys.get_int_max_str_digits()
    assert parse("7" * limit) == Int(int("7" * limit))
    for src, where in (("1" * (limit + 1), "1:1"),
                       (f"let x = 2 in\n  x + {'9' * 5000}", "2:7")):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert str(exc.value).startswith(
            f"{where}: integer literal too long")


@pytest.mark.parametrize("src, line, col", [
    ("match inl[int] 1 with inl x -> x end", 1, 1),
    ("(match inl[int] 1 with inl x -> x end) + 1", 1, 2),
    ("1;\n  match inr[int] 1 with some x -> x end;\n3", 2, 3),
])
def test_one_arm_match_is_an_error_at_its_keyword(src, line, col):
    """A match with one arm is refused at its `match` keyword, not at
    whatever follows its `end`."""
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == (f"{line}:{col}: match needs exactly one "
                              "inl/none arm and one inr/some arm")


def test_unicode_letters_make_identifiers():
    assert parse("λ") == Var("λ")
    assert parse("x²") == Var("x²")
    assert parse("f x² λ") == App(App(Var("f"), Var("x²")), Var("λ"))
    assert parse_type("λ -> x²") == TArrow(TVar("λ"), TVar("x²"))


@pytest.mark.parametrize("fn, src, want", [
    (parse, "fun _ -> # comment", "1:19: expected an expression, found 'eof'"),
    (parse, "1 +\n  # c", "2:6: expected an expression, found 'eof'"),
    (parse, "(1 # c", "1:7: expected ')', found 'eof'"),
    (parse_type, "int -> # c", "1:11: expected a type, found 'eof'"),
])
def test_end_of_input_after_a_trailing_comment(fn, src, want):
    """End of input is reported where the input ends, past a comment on
    the last line."""
    with pytest.raises(ParseError) as exc:
        fn(src)
    assert str(exc.value) == want


def test_operators_lex_as_one_token_of_their_own_kind():
    """Every operator of the syntax tables and of the `&&`/`||` sugar is
    one token whose kind is the operator; an alphabetic one is a keyword.
    So is every punctuation mark, adjacent to other tokens."""
    ops = ({op for level, _ in BINOP_LEVELS for op in level}
           | {op for op, _, _ in TYPE_OPS} | set(parser._SUGAR))
    for op in sorted(ops | set(PUNCT)):
        src = f"a {op} b" if op.isalpha() else f"a{op}b"
        p = Parser(src)
        assert list(zip(p.kinds, p.texts)) == [
            ("ident", "a"), (op, op), ("ident", "b"), ("eof", "")], op
        assert not op.isalpha() or op in KEYWORDS, op
    # a keyword's kind is the keyword; a literal's kind is not "int"
    assert Parser("int 1)").kinds == ["int", "num", ")", "eof"]


def test_type_operators_follow_the_table():
    """`->` is loosest and right-associative; `+` then `*` chain left."""
    a, b, c = TVar("a"), TVar("b"), TVar("c")
    assert parse_type("a -> b -> c") == TArrow(a, TArrow(b, c))
    assert parse_type("a + b + c") == TSum(TSum(a, b), c)
    assert parse_type("a * b + c * a -> b") == TArrow(
        TSum(TProd(a, b), TProd(c, a)), b)
    assert parse_type("a -> forall b. b * int") == TArrow(
        a, parse_type("forall b. b * int"))
    for src in ("a * (b + c)", "(a -> b) -> c", "a + (b -> c)",
                "(a + b) * int", "a -> (forall b. b) -> c", "a * (b * c)"):
        assert render_type(parse_type(src)) == src


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
    """`print(parse(src))` prints a source that re-parses to the tree."""
    e = parse(src)
    assert parse(render(e)) == e == parse(str(e)), src


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


def test_roundtrip_generated_programs():
    """render then parse gives back every generated program, with and
    without the effectful forms (recursion, refs, pack and unpack)."""
    rng = random.Random(47)
    for effects in (False, True):
        for _ in range(200):
            e, _ = rand_program(rng, depth=4, effects=effects)
            assert parse(render(e)) == e, render(e)


# Names a random tree binds and reads; `_` is an identifier like any other
# but the name of a `rec`, where it names nothing: that name is drawn as None.
NAMES, TVARS = ("x", "y", "f", "_"), ("a", "b")
REC_NAMES = ("x", "y", "f", None)
EXPR_FORMS = ("let", "fun", "fun _", "rec", "tfun", "if", "unpack", "match",
              "store", "binop", "app", "load", *PREFIX_FORMS,
              *ANNOTATED_FORMS, "pack", "rand", "rand labeled", "pair",
              "type application")


def any_type(rng: random.Random, depth: int):
    """A random type of any form the type parser produces."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([*(c() for c in BASE_TYPES.values()),
                           *(TVar(a) for a in TVARS)])
    sub = lambda: any_type(rng, depth - 1)
    kind = rng.randrange(3)
    if kind == 0:
        binder = rng.choice(list(TYPE_BINDERS.values()))
        return binder(rng.choice(TVARS), sub())
    if kind == 1:
        return TRef(sub())
    return rng.choice(TYPE_OPS)[1](sub(), sub())


def any_expr(rng: random.Random, depth: int, drawn: Counter):
    """A random tree of any form the parser produces, well-typed or not;
    drawn counts the forms of EXPR_FORMS it holds."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((lambda: Int(rng.choice((0, 1, 12))),
                           lambda: Bool(rng.random() < 0.5), Unit,
                           lambda: Var("hole"),
                           lambda: Var(rng.choice(NAMES))))()
    e = lambda: any_expr(rng, depth - 1, drawn)
    t = lambda: any_type(rng, 2)
    v = lambda: rng.choice(NAMES)
    form = rng.choice(EXPR_FORMS)
    drawn[form] += 1
    match form:
        case "let":
            return App(Rec(None, v(), e(), None, None), e())
        case "fun":
            return Rec(None, v(), e(), t(), None)
        case "fun _":
            return Rec(None, "_", e(), TUnit(), None)
        case "rec":
            return Rec(rng.choice(REC_NAMES), v(), e(), t(), t())
        case "tfun":
            return TLam(rng.choice(TVARS), e())
        case "if":
            return If(e(), e(), e())
        case "unpack":
            return Unpack(e(), rng.choice(TVARS), v(), e())
        case "match":
            return Match(e(), v(), e(), v(), e())
        case "store":
            return Store(e(), e())
        case "binop":
            ops = [op for level, _ in BINOP_LEVELS for op in level]
            return Binop(rng.choice(ops), e(), e())
        case "app":
            return App(e(), e())
        case "load":
            return Load(e())
        case "pack":
            return Pack(e(), t(), t())
        case "rand":
            return Rand(e(), Unit())
        case "rand labeled":
            return Rand(e(), e())
        case "pair":
            return Pair(e(), e())
        case "type application":
            return TApp(e(), t())
    if form in PREFIX_FORMS:
        return PREFIX_FORMS[form](e())
    return ANNOTATED_FORMS[form](e(), t())


def _classes(base: type) -> set[type]:
    """The node classes under base, those that `node` made."""
    out = set()
    for cls in base.__subclasses__():
        out |= _classes(cls)
        if hasattr(cls, "_fields"):
            out.add(cls)
    return out


def test_roundtrip_every_form():
    """render then parse is the identity on random trees of every form the
    parser produces, each form inside each other one; every node class but
    the runtime-only `Loc` and `Label` is drawn."""
    rng, drawn, seen = random.Random(2301), Counter(), set()
    for _ in range(5000):
        e = any_expr(rng, 4, drawn)
        assert parse(render(e)) == e, render(e)
        seen |= {type(x) for x in _nodes(e)}
    assert set(drawn) == set(EXPR_FORMS)
    assert seen == (_classes(Expr) | _classes(Type)) - {Loc, Label}


def _nodes(x):
    if dataclasses.is_dataclass(x):
        yield x
        for f in dataclasses.fields(x):
            yield from _nodes(getattr(x, f.name))


def test_printers_refuse_what_is_not_a_node():
    for printer in (render, render_type):
        with pytest.raises(ValueError, match="^unknown (expr|type) node"):
            printer(object())
