"""Small-step machine: unique decomposition, exact step weights, heaps,
presampling tapes, and the ghost state step."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from _gen import TAPE0_STATES, rand_program, subterms, tape_moves
import _oracle
from _oracle import ref_step_weights, strata
from tapelang import semantics
from tapelang.parser import parse
from tapelang.semantics import (Config, EMPTY_STATE, EVAL_ORDER, State, Tape,
                                decompose, plug, state_step, step_chain,
                                step_weights)
from tapelang.subdist import SubDistr
from tapelang.syntax import (BINOP_LEVELS, Alloc, AllocTape, App, Binop, Bool,
                             Expr, Fold, Fst, If, Inl, Inr, Int, Label, Load,
                             Loc, Match, Pack, Pair, Rand, Rec, Snd, Store,
                             TApp, TLam, TRef, Unfold, Unit, Unpack, Var,
                             erase, is_value, render)
from tapelang.typecheck import TypecheckError, fits, typecheck

HALF = Fraction(1, 2)


def reachable(cfg, depth):
    """Configurations reachable in at most `depth` steps: the supports of
    strata 0..depth."""
    return set().union(*islice(strata(cfg), depth + 1))


def run_to_values(src: str, state=EMPTY_STATE, depth=200):
    """Exact value distribution of a source program, as a dict."""
    from tapelang.dist import exec_val_trace
    lower, residual = exec_val_trace(erase(parse(src)), state, depth)[-1]
    assert residual == 0, f"did not settle: residual {residual}"
    return {render(v): p for v, p in lower.items()}


# -- decomposition ------------------------------------------------------------

def test_decompose_classifies():
    """A value is its own head with no frames; a stuck term and a redex
    are heads too, told apart only by whether a rule applies."""
    for src in ("3", "fst true", "1 + 2"):
        e = erase(parse(src))
        assert decompose(e) == ([], e)
    assert is_value(parse("3"))
    stuck = Config(erase(parse("fst true")), EMPTY_STATE)
    assert not is_value(stuck.expr) and step_weights(stuck) == []
    assert step_weights(Config(erase(parse("1 + 2")), EMPTY_STATE))


def head(e: Expr) -> str:
    return render(decompose(e)[1])


def test_decompose_plug_roundtrip_random():
    """plug(frames, head) == e for every generated subterm; a value is its
    own head, and every field a head evaluates is a value."""
    rng = random.Random(11)
    seen_redex = 0
    for _ in range(1000):
        e, _ = rand_program(rng, depth=4)
        for sub in subterms(erase(e)):
            frames, h = decompose(sub)
            assert plug(frames, h) == sub
            assert all(is_value(getattr(h, name))
                       for name in EVAL_ORDER.get(type(h), ()))
            if is_value(sub):
                assert not frames and h is sub
            elif step_weights(Config(sub, EMPTY_STATE)):
                seen_redex += 1
    assert seen_redex > 1000


def test_evaluation_is_right_to_left():
    # argument reduces before the function position
    assert head(parse("(fun (x : int) -> x) (1 + 2)")) == "1 + 2"
    # and store evaluates its value before the location expression
    assert head(parse("(ref 0) <- (1 + 2)")) == "1 + 2"
    # pairs and binary operators reduce the right operand first
    assert head(parse("(1 + 2, 3 + 4)")) == "3 + 4"
    assert head(parse("(1 + 2) * (3 + 4)")) == "3 + 4"
    # labeled rand evaluates its label before its bound
    assert head(parse("rand(1 + 2, alloctape 3)")) == "alloctape 3"
    # once the later operand is a value, the earlier one reduces
    assert head(parse("(1 + 2, 4)")) == "1 + 2"
    assert head(parse("(1 + 2) * 4")) == "1 + 2"
    assert head(Rand(parse("1 + 2"), Label(0))) == "1 + 2"


# -- step weights -------------------------------------------------------------

def test_step_weights_sum_to_one_or_empty():
    """On effect-free programs from the empty state, then on programs with
    refs and reads of tape 0 from each of TAPE0_STATES, where some of the
    configurations reached have read a sample off the tape."""
    rng = random.Random(13)
    starts = [(rand_program(rng, depth=4)[0], EMPTY_STATE)
              for _ in range(400)]
    for _ in range(200):
        e, _ = rand_program(rng, depth=4, effects=True, tapes=True)
        starts += [(e, state) for state in TAPE0_STATES]
    moved = 0
    for e, state in starts:
        configs = reachable(Config(erase(e), state), 6)
        moved += tape_moves(state, configs)
        for c in configs:
            w = dict(step_weights(c))
            assert w == ref_step_weights(c)
            if w:
                assert sum(w.values()) == 1
    assert moved >= 50, moved


def _ref_chain(config: Config, budget: int):
    """Step the reference while a step has exactly one successor, stopping
    after a step that reaches a value, at a branching or stuck step, or at
    step `budget`: (steps taken, distribution there)."""
    cur, w = config, Fraction(1)
    for k in range(1, budget + 1):
        succ = ref_step_weights(cur)
        if len(succ) != 1 or k == budget:
            return k, {c: w * q for c, q in succ.items()}
        (cur, q), = succ.items()
        w *= q
        if is_value(cur.expr):
            return k, {cur: w}
    return 0, {config: w}


def test_step_chain_matches_stepping_the_reference():
    """step_chain against _ref_chain at budgets 0-6, on the configurations
    reachable from programs with refs and tape reads, run from the empty
    state and from each of TAPE0_STATES; every way a chain ends occurs."""
    rng = random.Random(29)
    configs = set()
    for _ in range(60):
        e = erase(rand_program(rng, depth=4, effects=True, tapes=True)[0])
        for state in (EMPTY_STATE, *TAPE0_STATES):
            configs |= reachable(Config(e, state), 6)
    ends = set()
    for c in configs:
        for budget in range(7):
            k, out = step_chain(c, budget, {})
            assert (k, dict(out)) == _ref_chain(c, budget)
            if 0 < k < budget:
                ends.add("stuck" if not out
                         else "branch" if len(out) > 1
                         else "value" if is_value(out[0][0].expr)
                         else "one successor")
    assert ends >= {"stuck", "branch", "value"}, ends
    assert len(configs) >= 1000, len(configs)


def test_generated_trace_programs_read_tape_samples():
    """The tape programs that test_trace_oracle's
    test_generated_traces_match_oracle draws (seed 5, after 60 effect-free
    ones), run from each of TAPE0_STATES to its depth 30, reach
    configurations that have read a sample off tape 0: the oracle there
    checks the labeled-read path of the store, not only fresh sampling.
    Some of them allocate tapes and read them: the oracle also sees fresh
    labels."""
    rng = random.Random(5)
    for _ in range(60):
        rand_program(rng, depth=4)
    moved = allocating = reading = allocated = 0
    for _ in range(60):
        e, _ = rand_program(rng, depth=4, effects=True, tapes=True)
        nodes = list(subterms(e))
        allocating += any(isinstance(s, AllocTape) for s in nodes)
        reading += any(isinstance(s, Rand) and isinstance(s.label, Var)
                       for s in nodes)
        for state in TAPE0_STATES:
            configs = reachable(Config(erase(e), state), 30)
            moved += tape_moves(state, configs)
            allocated += sum(len(c.state.tapes) > len(state.tapes)
                             for c in configs)
    assert moved >= 100, moved
    assert allocating >= 20 and reading >= 5, (allocating, reading)
    assert allocated >= 100, allocated


def _locs_as_vars(e: Expr) -> Expr:
    """e with each location literal loc(i) replaced by the variable loci."""
    if isinstance(e, Loc):
        return Var(f"loc{e.index}")
    kids = [getattr(e, name) for name in e._fields]
    return type(e)(*(_locs_as_vars(k) if isinstance(k, Expr) else k
                     for k in kids))


def closed_over_heap(c: Config) -> Expr:
    """The configuration as a closed program: its term, each location
    loc(i) read as a variable bound around the whole term to `ref v`, v
    the heap's content at i, at the type of v.  The generator's cells
    hold bools, so a content holds no location itself."""
    e = _locs_as_vars(c.expr)
    for i, v in reversed(list(enumerate(c.state.heap))):
        e = App(Rec(None, f"loc{i}", e, TRef(typecheck(v)), None), Alloc(v))
    return e


def test_step_preserves_types():
    """Annotated terms re-typecheck along every reachable path, at a type
    that fits the original: effect-free programs as they stand, programs
    with a heap with each location typed from the heap's contents, and
    programs that also allocate tapes, whose labels type as `tape`."""
    for effects, tapes, count in ((False, False, 300), (True, False, 100),
                                  (True, True, 100)):
        rng = random.Random(17)
        with_locs = 0  # configurations whose term holds a location
        with_tapes = 0  # configurations that have allocated a tape
        for _ in range(count):
            e, _ = rand_program(rng, depth=4, effects=effects, tapes=tapes)
            top = typecheck(e)
            for c in reachable(Config(e, EMPTY_STATE), 6):
                with_locs += any(isinstance(s, Loc) for s in subterms(c.expr))
                with_tapes += bool(c.state.tapes)
                assert fits(typecheck(closed_over_heap(c)), top)
        assert (with_locs > 0) == effects
        assert (with_tapes > 0) == tapes


def test_values_do_not_step():
    for src in ["3", "true", "()", "(1, true)", "fun (x : int) -> x",
                "inl[bool] 3", "fold[mu a. unit + a] (inl[mu a. unit + a] ())"]:
        assert step_weights(Config(erase(parse(src)), EMPTY_STATE)) == []


def test_rand_uniform():
    w = step_weights(Config(Rand(Int(2), Unit()), EMPTY_STATE))
    assert {c.expr.n: p for c, p in w} == {
        0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}


# programs that get stuck at a head with no rule, some only after a step;
# the rest read or write a tape or location that the store does not hold,
# out of range or negative (which a tuple index would read from the end)
STUCK = [erase(parse(src)) for src in (
    "fst true", "1 mod 0", "(3) 4", "1 = true", "true < 1", "(1, 2) = (1, 2)",
    "alloctape (0 - 1)", "rand(0 - 1)")] + [
    Rand(Int(-1), Label(0)), Rand(Int(1), Label(3)), Rand(Int(1), Label(-1)),
    Load(Loc(1)), Load(Loc(-1)), Store(Loc(1), Int(0)), Store(Loc(-1), Int(0))]


def test_stuck_has_empty_step():
    """Each program reaches a non-value with no successors, with the store
    empty and holding tape 0 and location 0, and every configuration on
    the way steps as the reference step relation does."""
    for e in STUCK[:3]:
        assert not is_value(e) and decompose(e) == ([], e)
        assert step_weights(Config(e, EMPTY_STATE)) == []
    for state in (EMPTY_STATE, State((Int(7),), (Tape(1, (0,)),))):
        for e in STUCK:
            cfgs = reachable(Config(e, state), 3)
            assert any(not is_value(c.expr) and not step_weights(c)
                       for c in cfgs), render(e)
            for c in cfgs:
                assert dict(step_weights(c)) == ref_step_weights(c), \
                    render(c.expr)


def test_rule_table_matches_the_oracle_match():
    """`_head_step`, one rule per head form looked up by type, against the
    oracle's `match` (its `_head_step` where `_head_redex` holds, no
    successors elsewhere), in an empty store and in one with a cell and
    two tapes: on runtime-only heads that no source can write (a read or
    write at a location not allocated, `rand` on a missing label or on a
    label that is not one, `alloctape` of a negative bound), and on one
    head of every form in EVAL_ORDER, with and without a rule applying.
    A rule lists where a head steps, while the oracle states each weight,
    so giving each of n listed successors 1/n checks both the successors
    and that they are uniform."""
    fn = Rec("f", "x", App(Var("f"), Var("x")))
    pair, one = Pair(Int(1), Bool(True)), Int(1)
    runtime_only = [
        Load(Loc(0)), Load(Loc(3)), Load(Loc(-1)), Store(Loc(0), one),
        Store(Loc(3), one), Rand(one, Label(0)), Rand(one, Label(1)),
        Rand(Int(2), Label(0)), Rand(one, Label(5)), Rand(Int(-1), Label(0)),
        Rand(one, Int(0)), Rand(Int(1), Int(0)), AllocTape(Int(-1)),
        AllocTape(Int(0))]
    every_form = [
        App(fn, one), App(one, one), TApp(TLam(None, Var("y"))), TApp(one),
        If(Bool(False), one, Int(2)), If(one, one, one), Fst(pair),
        Snd(pair), Fst(one), Pair(one, one), Inl(one), Inr(one), Fold(one),
        Pack(one), Match(Inl(Int(4)), "l", Var("l"), "r", one),
        Match(Inr(Int(5)), "l", one, "r", Var("r")),
        Match(one, "l", one, "r", one), Unfold(Fold(pair)), Unfold(one),
        Unpack(Pack(pair), None, "p", Snd(Var("p"))),
        Unpack(one, None, "p", one),
        Alloc(pair), Load(one), Store(one, one), AllocTape(Int(2)),
        AllocTape(Bool(True)), Rand(Int(2), Unit()), Rand(Bool(True), Unit()),
        Binop("+", one, Int(2)), Binop("mod", one, Int(0)),
        Binop("=", one, Bool(True)), Binop("=", fn, fn), Binop("<", pair, one)]
    assert set(EVAL_ORDER) <= {type(r) for r in every_form}
    states = (EMPTY_STATE, State((Int(7),), (Tape(1, (1,)), Tape(1, ()))))
    for r in runtime_only + every_form:
        for state in states:
            want = (_oracle._head_step(r, state) if _oracle._head_redex(r)
                    else [])
            got = semantics._head_step(r, state)
            assert [(e, s, Fraction(1, len(got))) for e, s in got] == want, \
                (r, state)


def test_unknown_operator_raises_on_integers_only():
    bad = Config(Binop("^", Int(1), Int(2)), EMPTY_STATE)
    for step_fn in (step_weights, ref_step_weights):
        with pytest.raises(ValueError):
            step_fn(bad)
        assert dict(step_fn(Config(Binop("^", Bool(True), Int(2)),
                                   EMPTY_STATE))) == {}


def _step_outcome(step_fn, c: Config):
    try:
        return dict(step_fn(c))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_every_operator_on_every_kind_of_operand():
    """Each operator, and one that no rule knows, on integers -3..3, both
    booleans, unit, two locations, two tape labels, a pair and a closure,
    in a store with two cells and two tapes: the step agrees with the
    reference step relation, `mod 0` is stuck, and every other
    configuration that typechecks (a location typed from its cell) steps
    to one whose type fits its own."""
    ops = [op for level, _ in BINOP_LEVELS for op in level]
    operands = [*map(Int, range(-3, 4)), Bool(False), Bool(True), Unit(),
                Loc(0), Loc(1), Label(0), Label(1), Pair(Int(1), Bool(True)),
                parse("fun (x : nat) -> x")]
    state = State((Int(0), Bool(True)), (Tape(1, (0,)), Tape(2, ())))
    typed = 0
    for op in ops + ["^"]:
        for a in operands:
            for b in operands:
                c = Config(Binop(op, a, b), state)
                got = _step_outcome(step_weights, c)
                assert got == _step_outcome(ref_step_weights, c), c
                if op == "mod" and b == Int(0):
                    assert got == {}
                    continue
                try:
                    ty = typecheck(closed_over_heap(c))
                except TypecheckError:
                    continue
                typed += 1
                assert len(got) == 1, c
                (c2,) = got
                assert fits(typecheck(closed_over_heap(c2)), ty), c
    # 4 * 49 - 7 arithmetic, 2 * 49 comparisons, = at 58 pairs without a
    # location and at loc(i) = loc(i)
    assert typed == 347, typed


def test_flip_takes_three_steps():
    cfg = Config(erase(parse("flip()")), EMPTY_STATE)
    mu = {cfg: Fraction(1)}
    for _ in range(3):
        nxt = {}
        for c, p in mu.items():
            ws = step_weights(c)
            if not ws:
                nxt[c] = nxt.get(c, 0) + p
            for c2, q in ws:
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
            for c2, q in ws:
                nxt[c2] = nxt.get(c2, 0) + p * q
        mu = nxt
    return mu


def test_labeled_rand_consumes_tape_head():
    state = State((), (Tape(1, (1, 0)),))
    cfg = Config(Rand(Int(1), Label(0)), state)
    w = step_weights(cfg)
    (c2, p), = w
    assert p == 1
    assert c2.expr == Int(1)
    assert c2.state.tape_get(0) == Tape(1, (0,))  # head consumed, FIFO


def test_labeled_rand_empty_tape_is_uniform():
    state = State((), (Tape(1, ()),))
    w = step_weights(Config(Rand(Int(1), Label(0)), state))
    assert len(w) == 2
    for c2, p in w:
        assert p == HALF
        assert c2.state == state  # tape untouched


def test_labeled_rand_mismatched_bound_is_uniform():
    # tape holds bound-3 samples; rand(1, t) ignores them
    state = State((), (Tape(3, (2, 2)),))
    w = step_weights(Config(Rand(Int(1), Label(0)), state))
    assert len(w) == 2
    for c2, p in w:
        assert p == HALF
        assert c2.state == state


def test_state_step_appends_at_end():
    state = State((), (Tape(1, (1,)),))
    mu = state_step(state, 0)
    assert mu.mass() == 1
    tapes = sorted(s.tape_get(0).values for s in mu.support())
    assert tapes == [(1, 0), (1, 1)]  # existing head stays first


def test_state_step_unknown_label():
    with pytest.raises(ValueError):
        state_step(EMPTY_STATE, 3)


def test_state_step_uniform_weights():
    state = State((), (Tape(4, ()),))
    mu = state_step(state, 0)
    assert len(mu.support()) == 5
    assert all(p == Fraction(1, 5) for _, p in mu.items())


def test_tape_values_only_grow_under_state_step():
    state = State((), (Tape(2, ()),))
    for s in state_step(state, 0).support():
        for s2 in state_step(s, 0).support():
            vals = s2.tape_get(0).values
            assert len(vals) == 2
            assert vals[0] == s.tape_get(0).values[0]


def test_step_is_a_subdistr():
    mu = SubDistr(step_weights(Config(erase(parse("rand(3)")), EMPTY_STATE)))
    assert mu.mass() == 1
    assert len(mu.support()) == 4
