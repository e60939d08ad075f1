"""Annotation-driven type synthesis, subsumption, and rejection cases."""

import dataclasses
import inspect
import random

import pytest

from _gen import rand_program
from _oracle import ref_fits
from tapelang.parser import parse, parse_type
from tapelang.syntax import (Binop, Int, Rec, TArrow, TBool, TInt, TNat, TProd,
                             TSum, TUnit, Var, erase, render, render_type)
from tapelang.typecheck import TypecheckError, fits, is_ground, typecheck


def ty(src: str) -> str:
    return render_type(typecheck(parse(src)))


def rejects(src: str) -> str:
    with pytest.raises(TypecheckError) as exc:
        typecheck(parse(src))
    return str(exc.value)


def test_base_literals():
    assert ty("3") == "nat"
    assert ty("0 - 1") == "int"
    assert ty("true") == "bool"
    assert ty("()") == "unit"


def test_arith_and_comparison():
    assert ty("1 + 2 * 3") == "nat"
    assert ty("1 - 2") == "int"
    assert ty("7 mod 3") == "nat"
    assert ty("1 <= 2") == "bool"
    assert ty("1 = 2") == "bool"
    rejects("1 + true")
    rejects("() < ()")


@pytest.mark.parametrize("op, nats, with_int", [
    ("+", "nat", "int"), ("-", "int", "int"), ("*", "nat", "int"),
    ("mod", "nat", "int"), ("<", "bool", "bool"), ("<=", "bool", "bool"),
    ("=", "bool", "bool")])
def test_operator_result_types(op, nats, with_int):
    assert ty(f"1 {op} 2") == nats
    assert ty(f"(0 - 1) {op} 2") == ty(f"2 {op} (0 - 1)") == with_int


def test_unknown_operator_is_rejected():
    """An operator that no step rule computes has no typing rule either."""
    with pytest.raises(TypecheckError) as exc:
        typecheck(Binop("^", Int(1), Int(2)))
    assert str(exc.value) == "unknown operator '^'"


def test_nat_fits_int_but_not_conversely():
    assert ty("(fun (x : int) -> x) 3") == "int"
    rejects("(fun (x : nat) -> x) (0 - 1)")


def test_fits_reads_the_bound_not_its_identity():
    """The upper bound of int and nat is the one interned `TInt()`, which
    is `a` itself when a is int: that must not read as "a equals b"."""
    assert fits(TNat(), TInt()) and fits(TInt(), TInt())
    assert not fits(TInt(), TNat())
    assert not fits(TProd(TInt(), TNat()), TProd(TNat(), TNat()))


@pytest.mark.parametrize("src, ground", [
    ("unit", True), ("bool", True), ("nat", True), ("int", True),
    ("int * (bool + unit)", True), ("mu a. unit + (int * a)", True),
    ("mu a. mu b. a + b", True), ("unit -> bool", False), ("ref int", False),
    ("tape", False), ("forall a. a", False), ("exists a. a", False),
    ("int * (unit -> int)", False), ("mu a. a -> int", False), ("a", False),
])
def test_ground_types(src, ground):
    assert is_ground(parse_type(src)) is ground


def test_deep_subsumption_through_products():
    assert ty("(fun (p : int * int) -> fst p) ((1, 2))") == "int"


def test_arrow_contravariance():
    # a nat -> int consumer accepts an int -> nat function
    src = ("(fun (f : nat -> int) -> f 1) (fun (x : int) -> 2)")
    assert ty(src) == "int"
    rejects("(fun (f : int -> nat) -> f 1) (fun (x : nat) -> 0 - 2)")


def test_branch_join():
    assert ty("if true then 1 else 0 - 1") == "int"
    assert ty("if true then (1, 0 - 1) else (0 - 1, 1)") == "int * int"
    rejects("if true then 1 else true")


def test_named_rec_needs_result_annotation():
    src = "rec f (x : int) : int = f x"
    assert ty(src) == "int -> int"
    rejects("rec f (x : int) : bool = x")


def test_polymorphism():
    assert ty("tfun a -> fun (x : a) -> x") == "forall a. a -> a"
    assert ty("(tfun a -> fun (x : a) -> x)[bool] true") == "bool"
    assert ty("(tfun a -> fun (x : a) -> x)[int * int] ((1, 2))") == \
        "int * int"
    rejects("(tfun a -> fun (x : a) -> x)[bool] 3")
    rejects("fun (x : a) -> x")  # unbound type variable


def test_existentials():
    src = "pack[int, exists a. a * (a -> int)] ((3, fun (x : int) -> x))"
    assert ty(src) == "exists a. a * (a -> int)"
    assert ty(f"unpack {src} as a, p in (snd p) (fst p)") == "int"
    # the witness type must match the body
    rejects("pack[bool, exists a. a * (a -> int)] ((3, fun (x : int) -> x))")
    # the abstract type cannot leak
    rejects(f"unpack {src} as a, p in fst p")


def test_recursive_types():
    lst = "mu a. unit + (int * a)"
    nil = f"fold[{lst}] (inl[int * ({lst})] ())"
    assert ty(nil) == render_type(parse_type(lst))
    cons = f"fold[{lst}] (inr[unit] ((5, {nil})))"
    assert ty(cons) == render_type(parse_type(lst))
    assert ty(f"match unfold {cons} with inl u -> 0 | inr c -> fst c end") \
        == "int"
    rejects(f"fold[{lst}] (inl[bool] ())")


def test_refs():
    assert ty("let r = ref 3 in !r") == "nat"
    assert ty("let r = ref 3 in r <- 4") == "unit"
    assert ty("let r = ref (0 - 1) in (r <- 5; !r)") == "int"
    rejects("let r = ref 3 in r <- true")
    rejects("!3")


def test_ref_equality_is_location_identity():
    assert ty("let r = ref 1 in let s = ref 1 in r = s") == "bool"
    rejects("(fun (x : unit -> int) -> x = x) (fun _ -> 1)")  # closures


def test_tapes():
    assert ty("alloctape 3") == "tape"
    assert ty("let t = alloctape 1 in rand(1, t)") == "nat"
    assert ty("rand(5)") == "nat"
    rejects("rand(true)")
    rejects("rand(1, 2)")
    rejects("alloctape true")


def test_options_are_sum_sugar():
    assert ty("some(3)") == "unit + nat"
    assert ty("none[int]") == "unit + int"
    assert ty("match some(3) with some x -> x | none -> 0 end") == "nat"


def test_unbound_variable():
    msg = rejects("x + 1")
    assert "x" in msg


def test_sequencing_requires_nothing_of_first():
    assert ty("(); 3") == "nat"
    assert ty("let r = ref 0 in (r <- 1; !r)") == "nat"


def test_shadowing():
    assert ty("let x = 1 in let x = true in x") == "bool"


@pytest.mark.parametrize("src, msg", [
    ("hole", "context hole must be plugged before typechecking"),
    ("tfun a -> tfun a -> 1", "shadowed type variable 'a'"),
    ("tfun a -> unpack (pack[int, exists b. b] 1) as a, x in 1",
     "shadowed type variable 'a'"),
    ("fold[int] 1", "fold annotation int is not a mu type"),
    ("pack[int, int] 1", "pack annotation int is not existential"),
])
def test_rejected_with_message(src, msg):
    assert rejects(src) == msg


def test_parameter_shadows_own_rec_name():
    """In `rec f (f : T)` the body's f is the argument, as in the semantics."""
    from tapelang.dist import exec_val_trace
    from tapelang.semantics import EMPTY_STATE
    from tapelang.syntax import erase
    src = "(rec f (f : int) : int = f + 1) 2"
    assert ty(src) == "int"
    lower, residual = exec_val_trace(erase(parse(src)), EMPTY_STATE, 5)[-1]
    assert render(next(iter(lower.support()))) == "3" and residual == 0
    assert "non-function" in rejects("(rec f (f : int) : int = f 0) 2")


def test_location_literal_is_rejected():
    from tapelang.syntax import Load, Loc
    for e, i in ((Loc(0), 0), (Load(Loc(2)), 2)):
        with pytest.raises(TypecheckError) as exc:
            typecheck(e)
        assert str(exc.value) == f"location literal loc({i}) outside runtime checking"


def test_stuck_program_can_still_typecheck():
    # well-typed divergence
    assert ty("(rec f (u : unit) : bool = f u) ()") == "bool"


# -- fits against the structural reference -----------------------------------

def _types_to_depth(bases, depth):
    """Every type over `bases` with products, sums and arrows nested at most
    `depth` deep."""
    out = list(bases)
    for _ in range(depth):
        out = list(bases) + [k(a, b) for k in (TProd, TSum, TArrow)
                             for a in out for b in out]
    return out


def test_fits_matches_reference_on_handwritten_types():
    nat, int_ = TNat(), TInt()
    cases = {
        ("nat -> int", "int -> nat"): False,
        ("int -> nat", "nat -> int"): True,
        ("(int -> nat) -> nat", "(nat -> int) -> int"): False,
        ("(nat -> int) -> nat", "(int -> nat) -> int"): True,
        ("int * nat -> nat", "nat * nat -> int"): True,
        ("nat + int", "int + int"): True,
        ("int + nat", "nat + int"): False,
        ("nat + (int -> nat)", "int + (nat -> int)"): True,
        ("unit + nat", "unit + bool"): False,
        ("forall a. a -> nat", "forall b. b -> nat"): True,
        ("forall a. a -> nat", "forall b. b -> int"): False,
        ("ref nat", "ref int"): False,
    }
    for (a, b), want in cases.items():
        ta, tb = parse_type(a), parse_type(b)
        assert fits(ta, tb) == ref_fits(ta, tb) == want, (a, b)
    small = _types_to_depth((nat, int_, TBool(), TUnit()), 1)
    for a in small:
        for b in small:
            assert fits(a, b) == ref_fits(a, b), (render_type(a), render_type(b))
    rng = random.Random(41)
    deep = _types_to_depth((nat, int_), 2)
    for _ in range(5000):
        a, b = rng.choice(deep), rng.choice(deep)
        assert fits(a, b) == ref_fits(a, b), (render_type(a), render_type(b))


def test_fits_matches_reference_on_checked_programs(monkeypatch):
    """Every pair of types `fits` is asked about while the corpus, the
    generated programs and this file's tests that take no arguments
    typecheck."""
    import sys

    from tapelang import analysis, corpus

    asked = []

    def recording_fits(a, b):
        asked.append((a, b))
        return fits(a, b)

    monkeypatch.setattr(sys.modules["tapelang.typecheck"], "fits",
                        recording_fits)
    monkeypatch.setattr(analysis, "fits", recording_fits)
    for name, _ in corpus.list_entries():
        analysis.check_entry(corpus.build(name), 0)
    rng = random.Random(43)
    for effects in (False, True):
        for _ in range(200):
            e, t = rand_program(rng, depth=4, effects=effects)
            recording_fits(typecheck(e), t)
    here = sys.modules[__name__]
    for name, test in sorted(vars(here).items()):
        if (name.startswith("test_") and "fits_matches" not in name
                and not inspect.signature(test).parameters):
            test()
    assert len(asked) > 1000
    for a, b in asked:
        assert fits(a, b) == ref_fits(a, b), (render_type(a), render_type(b))


def test_shadowed_type_binder_is_not_confused():
    """A forall that rebinds its name still counts in the binder depth:
    forall a. forall a. forall c. c -> c is not forall x. forall y.
    forall z. y -> y, whichever names the outer binders use."""
    for outer in ("a. forall a", "a. forall b"):
        rejects(f"fun (g : forall {outer}. forall c. c -> c) -> "
                "(fun (f : forall x. forall y. forall z. y -> y) -> ()) g")
    assert ty("fun (g : forall a. forall a. forall c. c -> c) -> "
              "(fun (f : forall x. forall y. forall z. z -> z) -> ()) g") == \
        "(forall a. forall a. forall c. c -> c) -> unit"


# Per annotated form: a well-typed source whose root carries the
# annotation, the field that holds it, the same source with an unbound
# type variable there, and the message that gives.
ANNOTATIONS = [
    ("fun (x : int) -> x", "param_ty", "fun (x : b) -> x",
     "fun parameter: unknown type variable 'b'"),
    ("(tfun a -> fun (x : a) -> x)[int]", "ty_arg",
     "(tfun a -> fun (x : a) -> x)[b]",
     "type application: unknown type variable 'b'"),
    ("inl[bool] 1", "other_ty", "inl[b] 1", "inl: unknown type variable 'b'"),
    ("inr[bool] 1", "other_ty", "inr[b] 1", "inr: unknown type variable 'b'"),
    ("fold[mu a. unit + a] (inl[mu a. unit + a] ())", "mu_ty",
     "fold[mu a. unit + b] (inl[mu a. unit + b] ())",
     "fold: unknown type variable 'b'"),
    ("pack[int, exists a. a] 3", "witness_ty", "pack[b, exists a. a] 3",
     "pack witness: unknown type variable 'b'"),
    ("pack[int, exists a. a] 3", "ex_ty", "pack[int, exists a. b] 3",
     "pack: unknown type variable 'b'"),
]


def test_annotation_errors():
    """A hand-built tree without the annotation is missing it, by the
    name the unknown-type-variable message uses; source text cannot
    leave it out."""
    for src, field, unbound, msg in ANNOTATIONS:
        e = parse(src)
        typecheck(e)
        bare = dataclasses.replace(e, **{field: None})
        with pytest.raises(TypecheckError) as exc:
            typecheck(bare)
        assert str(exc.value) == f"missing {msg.split(':')[0]} annotation"
        assert rejects(unbound) == msg


@pytest.mark.parametrize("tree, msg", [
    (lambda: Rec("f", "x", Var("x"), TInt(), None),
     "recursive function 'f' needs a result annotation"),
    (lambda: erase(parse("tfun a -> 1")),
     "missing type-variable annotation on tfun"),
    (lambda: dataclasses.replace(
        parse("unpack pack[int, exists a. a] 1 as a, x in 0"), tvar=None),
     "missing type-variable annotation on unpack"),
], ids=["rec", "tfun", "unpack"])
def test_hand_built_tree_without_its_binder_annotation(tree, msg):
    """Trees that source text cannot write: a recursive function without
    its result type, and a `tfun` or an `unpack` whose type variable is
    erased."""
    with pytest.raises(TypecheckError) as exc:
        typecheck(tree())
    assert str(exc.value) == msg
