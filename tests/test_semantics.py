"""Small-step machine: unique decomposition, exact step weights, heaps,
presampling tapes, and the ghost state step."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from _gen import rand_program, subterms
from tapelang.dist import strata
from tapelang.parser import parse
from tapelang.semantics import (Config, DecompRedex, DecompStuck, DecompValue,
                                EMPTY_STATE, State, Tape, decompose, plug,
                                state_step, step, step_weights)
from tapelang.syntax import (Bool, Expr, Int, Label, Pair, Rand, Unit, erase,
                             is_value, render)
from tapelang.typecheck import fits, typecheck

HALF = Fraction(1, 2)


def reachable(cfg, depth):
    """Configurations reachable in at most `depth` steps: the supports of
    strata 0..depth."""
    return set().union(*islice(strata(cfg), depth + 1))


def run_to_values(src: str, state=EMPTY_STATE, depth=200):
    """Exact value distribution of a source program, as a dict."""
    from tapelang.dist import exec_val_bounds
    lower, residual = exec_val_bounds(erase(parse(src)), state, depth)
    assert residual == 0, f"did not settle: residual {residual}"
    return {render(v): p for v, p in lower.items()}


# -- decomposition ------------------------------------------------------------

def test_decompose_classifies():
    assert isinstance(decompose(parse("3")), DecompValue)
    assert isinstance(decompose(parse("fst true")), DecompStuck)
    d = decompose(parse("1 + 2"))
    assert isinstance(d, DecompRedex) and not d.frames


def test_decompose_plug_roundtrip_random():
    """plug(frames, redex) == e for every generated non-value subterm."""
    rng = random.Random(11)
    seen_redex = 0
    for _ in range(1000):
        e, _ = rand_program(rng, depth=4)
        for sub in subterms(erase(e)):
            d = decompose(sub)
            if isinstance(d, DecompRedex):
                assert plug(d.frames, d.redex) == sub
                seen_redex += 1
            elif isinstance(d, DecompValue):
                assert is_value(sub)
    assert seen_redex > 1000


def test_evaluation_is_right_to_left():
    # argument reduces before the function position
    d = decompose(parse("(fun (x : int) -> x) (1 + 2)"))
    assert isinstance(d, DecompRedex)
    assert render(d.redex) == "1 + 2"
    # and store evaluates its value before the location expression
    d = decompose(parse("(ref 0) <- (1 + 2)"))
    assert render(d.redex) == "1 + 2"
    # pairs and binary operators reduce the right operand first
    d = decompose(parse("(1 + 2, 3 + 4)"))
    assert render(d.redex) == "3 + 4"
    d = decompose(parse("(1 + 2) * (3 + 4)"))
    assert render(d.redex) == "3 + 4"
    # labeled rand evaluates its label before its bound
    d = decompose(parse("rand(1 + 2, alloctape 3)"))
    assert render(d.redex) == "alloctape 3"
    # once the later operand is a value, the earlier one reduces
    d = decompose(parse("(1 + 2, 4)"))
    assert render(d.redex) == "1 + 2"
    d = decompose(parse("(1 + 2) * 4"))
    assert render(d.redex) == "1 + 2"
    d = decompose(Rand(parse("1 + 2"), Label(0)))
    assert render(d.redex) == "1 + 2"


# -- step weights -------------------------------------------------------------

def test_step_weights_sum_to_one_or_empty():
    rng = random.Random(13)
    for _ in range(400):
        e, _ = rand_program(rng, depth=4)
        cfg = Config(erase(e), EMPTY_STATE)
        for c in reachable(cfg, 6):
            w = step_weights(c)
            if w:
                assert sum(w.values()) == 1
            else:
                assert is_value(c.expr) or not step_weights(
                    Config(c.expr, c.state))


def test_step_preserves_types():
    """Annotated terms re-typecheck along every reachable path, at a type
    that fits the original."""
    rng = random.Random(17)
    for _ in range(300):
        e, _ = rand_program(rng, depth=4)
        top = typecheck(e)
        for c in reachable(Config(e, EMPTY_STATE), 6):
            assert fits(typecheck(c.expr), top)


def test_values_do_not_step():
    for src in ["3", "true", "()", "(1, true)", "fun (x : int) -> x",
                "inl[bool] 3", "fold[mu a. unit + a] (inl[mu a. unit + a] ())"]:
        assert step_weights(Config(erase(parse(src)), EMPTY_STATE)) == {}


def test_rand_uniform():
    w = step_weights(Config(Rand(Int(2), Unit()), EMPTY_STATE))
    assert {c.expr.n: p for c, p in w.items()} == {
        0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}


def test_stuck_has_empty_step():
    for src in ["fst true", "1 mod 0", "(3) 4"]:
        cfg = Config(erase(parse(src)), EMPTY_STATE)
        assert step_weights(cfg) == {}
        assert isinstance(decompose(cfg.expr), DecompStuck)


def test_flip_takes_three_steps():
    cfg = Config(erase(parse("flip()")), EMPTY_STATE)
    mu = {cfg: Fraction(1)}
    for _ in range(3):
        nxt = {}
        for c, p in mu.items():
            ws = step_weights(c)
            if not ws:
                nxt[c] = nxt.get(c, 0) + p
            for c2, q in ws.items():
                nxt[c2] = nxt.get(c2, 0) + p * q
        mu = nxt
    got = {render(c.expr): p for c, p in mu.items()}
    assert got == {"true": HALF, "false": HALF}


# -- heap ---------------------------------------------------------------------

def test_alloc_load_store():
    assert run_to_values("let r = ref 3 in (r <- !r + 1; !r)") == \
        {"4": Fraction(1)}


def test_aliasing():
    src = """let r = ref 0 in let s = r in (s <- 7; !r)"""
    assert run_to_values(src) == {"7": Fraction(1)}


def test_fresh_locations_are_distinct():
    src = "let r = ref 0 in let s = ref 0 in (s <- 1; !r)"
    assert run_to_values(src) == {"0": Fraction(1)}


def test_ref_equality_on_locations():
    assert run_to_values("let r = ref 0 in r = r") == {"true": Fraction(1)}
    assert run_to_values("let r = ref 0 in let s = ref 0 in r = s") == \
        {"false": Fraction(1)}


# -- tapes --------------------------------------------------------------------

def test_alloctape_allocates_fresh_labels():
    src = "let t = alloctape 1 in let u = alloctape 5 in (t, u)"
    cfg = Config(erase(parse(src)), EMPTY_STATE)
    (final, p), = [(c, p) for c, p in _run(cfg, 10).items()]
    assert p == 1
    assert final.expr == Pair(Label(0), Label(1))
    assert final.state.tape_get(0) == Tape(1, ())
    assert final.state.tape_get(1) == Tape(5, ())


def _run(cfg, n):
    mu = {cfg: Fraction(1)}
    for _ in range(n):
        nxt = {}
        for c, p in mu.items():
            ws = step_weights(c)
            if not ws:
                nxt[c] = nxt.get(c, 0) + p
            for c2, q in ws.items():
                nxt[c2] = nxt.get(c2, 0) + p * q
        mu = nxt
    return mu


def test_labeled_rand_consumes_tape_head():
    state = State((), ((0, Tape(1, (1, 0))),))
    cfg = Config(Rand(Int(1), Label(0)), state)
    w = step_weights(cfg)
    (c2, p), = w.items()
    assert p == 1
    assert c2.expr == Int(1)
    assert c2.state.tape_get(0) == Tape(1, (0,))  # head consumed, FIFO


def test_labeled_rand_empty_tape_is_uniform():
    state = State((), ((0, Tape(1, ())),))
    w = step_weights(Config(Rand(Int(1), Label(0)), state))
    assert len(w) == 2
    for c2, p in w.items():
        assert p == HALF
        assert c2.state == state  # tape untouched


def test_labeled_rand_mismatched_bound_is_uniform():
    # tape holds bound-3 samples; rand(1, t) ignores them
    state = State((), ((0, Tape(3, (2, 2))),))
    w = step_weights(Config(Rand(Int(1), Label(0)), state))
    assert len(w) == 2
    for c2, p in w.items():
        assert p == HALF
        assert c2.state == state


def test_state_step_appends_at_end():
    state = State((), ((0, Tape(1, (1,))),))
    mu = state_step(state, 0)
    assert mu.mass() == 1
    tapes = sorted(s.tape_get(0).values for s in mu.support())
    assert tapes == [(1, 0), (1, 1)]  # existing head stays first


def test_state_step_unknown_label():
    with pytest.raises(ValueError):
        state_step(EMPTY_STATE, 3)


def test_state_step_uniform_weights():
    state = State((), ((0, Tape(4, ())),))
    mu = state_step(state, 0)
    assert len(mu.support()) == 5
    assert all(p == Fraction(1, 5) for _, p in mu.items())


def test_tape_values_only_grow_under_state_step():
    state = State((), ((0, Tape(2, ())),))
    for s in state_step(state, 0).support():
        for s2 in state_step(s, 0).support():
            vals = s2.tape_get(0).values
            assert len(vals) == 2
            assert vals[0] == s.tape_get(0).values[0]


def test_step_is_a_subdistr():
    mu = step(Config(erase(parse("rand(3)")), EMPTY_STATE))
    assert mu.mass() == 1
    assert len(mu.support()) == 4
