"""Sub-distribution monad laws and stratified-execution properties."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import split, strata
from tapelang import semantics
from tapelang.analysis import compare_programs
from tapelang.dist import exec_val_trace
from tapelang.parser import parse
from tapelang.semantics import Config, EMPTY_STATE
from tapelang.subdist import (SubDistr, dbind, dret, dzero, from_jsonable,
                              parse_frac, to_jsonable)
from tapelang.syntax import Int, erase, is_value, render

ATOMS = "abcdef"


@st.composite
def subdistrs(draw, atoms=ATOMS):
    """Random sub-distribution over a small atom set, mass <= 1."""
    n = draw(st.integers(0, len(atoms)))
    support = draw(st.permutations(atoms))[:n]
    weights = {}
    budget = Fraction(1)
    for a in support:
        num = draw(st.integers(0, 6))
        den = draw(st.integers(1, 6))
        w = min(Fraction(num, den * 6), budget)
        budget -= w
        if w > 0:
            weights[a] = w
    return SubDistr(weights)


@st.composite
def kernels(draw):
    """Random function atom -> SubDistr, drawn pointwise."""
    table = {a: draw(subdistrs()) for a in ATOMS}
    return lambda a: table[a]


# -- monad laws ---------------------------------------------------------------

@given(st.sampled_from(ATOMS), kernels())
def test_left_identity(a, f):
    assert dbind(f, dret(a)) == f(a)


@given(subdistrs())
def test_right_identity(mu):
    assert dbind(dret, mu) == mu


@settings(max_examples=200)
@given(subdistrs(), kernels(), kernels())
def test_associativity(mu, f, g):
    lhs = dbind(g, dbind(f, mu))
    rhs = dbind(lambda a: dbind(g, f(a)), mu)
    assert lhs == rhs


@given(subdistrs(), kernels())
def test_bind_mass_never_grows(mu, f):
    assert dbind(f, mu).mass() <= mu.mass() <= 1


@given(kernels())
def test_zero_is_absorbing(f):
    assert dbind(f, dzero()) == dzero()
    assert dzero().mass() == 0


@given(subdistrs())
def test_map_is_bind_ret(mu):
    # the image distribution, stated directly
    image = SubDistr((a.upper(), p) for a, p in mu.items())
    assert image == dbind(lambda a: dret(a.upper()), mu)


@given(subdistrs(), subdistrs())
def test_equality_is_extensional(mu1, mu2):
    same = all(mu1.get(a) == mu2.get(a) for a in ATOMS)
    assert (mu1 == mu2) == same
    if same:
        assert hash(mu1) == hash(mu2)


# -- serialization ------------------------------------------------------------

@given(subdistrs())
def test_jsonable_roundtrip(mu):
    assert from_jsonable(to_jsonable(mu)) == mu


@given(st.integers(-40, 40), st.integers(1, 40))
def test_parse_frac_reads_str_of_fraction(num, den):
    q = Fraction(num, den)
    assert parse_frac(str(q)) == q


@pytest.mark.parametrize("bad", [
    [1, 2], {"0": "1/2"}, {"weights": {"0": 1}}, {"weights": [["0", "1"]]},
    {"weights": {"0": "1/0"}}, {"weights": {"0": "1/"}}])
def test_from_jsonable_reads_only_its_shape(bad):
    with pytest.raises(ValueError):
        from_jsonable(bad)


def test_jsonable_writes_integral_weights_bare():
    assert to_jsonable(SubDistr({"a": Fraction(1, 1)})) == {
        "mass": "1", "weights": {"a": "1"}}
    assert to_jsonable(SubDistr({"b": Fraction(3, 4)})) == {
        "mass": "3/4", "weights": {"b": "3/4"}}
    assert to_jsonable(SubDistr({})) == {"mass": "0", "weights": {}}


# -- stratified execution -----------------------------------------------------

PROGRAMS = [
    "let x = flip() in let y = flip() in x || y",
    "flip()",
    "rand(3) + rand(1)",
    "let r = ref 0 in (r <- rand(2); !r)",
    "if flip() then 1 else (rec f (u : unit) : nat = f u) ()",
    "3",
]


@pytest.mark.parametrize("src", PROGRAMS)
def test_exec_val_monotone_and_bounded(src):
    core = erase(parse(src))
    prev = SubDistr({})
    for n in range(0, 25):
        lo, residual = exec_val_trace(core, EMPTY_STATE, n)[-1]
        assert lo.mass() + residual <= 1
        for v in prev.support():
            assert prev.get(v) <= lo.get(v)
        prev = lo


@pytest.mark.parametrize("src", PROGRAMS)
def test_trace_agrees_with_pointwise_calls(src):
    core = erase(parse(src))
    trace = exec_val_trace(core, EMPTY_STATE, 12)
    assert len(trace) == 13
    run = strata(Config(core, EMPTY_STATE))
    for n, ((lo, residual), stratum) in enumerate(zip(trace, run)):
        assert (lo, residual) == exec_val_trace(core, EMPTY_STATE, n)[-1]
        # terminated mass within n strata, read off the configurations
        assert sum(p for c, p in stratum.items() if is_value(c.expr)) \
            == lo.mass()


def test_exec_mass_exactly_one_without_stuck():
    core = erase(parse("let x = flip() in let y = flip() in x || y"))
    for lo, residual in exec_val_trace(core, EMPTY_STATE, 14):
        assert lo.mass() + residual == 1


def test_stuck_mass_drains():
    core = erase(parse("if flip() then true else fst true"))
    masses = [lo.mass() + residual
              for lo, residual in exec_val_trace(core, EMPTY_STATE, 7)]
    assert masses[0] == 1
    assert masses[-1] == Fraction(1, 2)
    assert all(a >= b for a, b in zip(masses, masses[1:]))


def test_flip_or_value_distribution():
    core = erase(parse("let x = flip() in let y = flip() in x || y"))
    lo, residual = exec_val_trace(core, EMPTY_STATE, 20)[-1]
    assert residual == 0
    assert {render(v): p for v, p in lo.items()} == {
        "true": Fraction(3, 4), "false": Fraction(1, 4)}


def test_divergence_is_all_residual():
    core = erase(parse("(rec f (u : unit) : bool = f u) ()"))
    for n in (0, 5, 17):
        lo, residual = exec_val_trace(core, EMPTY_STATE, n)[-1]
        assert lo.mass() == 0 and residual == 1


def test_stabilized_detector():
    core = erase(parse("flip()"))
    assert not compare_programs(core, core, EMPTY_STATE, 0).stabilized
    assert compare_programs(core, core, EMPTY_STATE, 3).stabilized


def test_exec_depth_zero_of_value():
    core = erase(parse("42"))
    lo, residual = exec_val_trace(core, EMPTY_STATE, 0)[-1]
    assert residual == 0 and lo.mass() == 1


def test_negative_depth_raises():
    core = erase(parse("42"))
    with pytest.raises(ValueError, match=r"^depth must be >= 0, got -1$"):
        exec_val_trace(core, EMPTY_STATE, -1)


# -- run-ahead chains at the edges of the depth budget -------------------------

LOOP = "(rec loop (n : int) : int = if n = 0 then 0 else loop (n - 1))"


def first(depths, holds):
    return next(d for d in depths if holds(d))


def event_depth(run, kind: str) -> int:
    """The depth of the event, read off the oracle's strata."""
    depths = range(len(run) - 1)
    if kind == "value":         # the last mass settles here
        return first(depths, lambda d: split(run[d])[1] == 0)
    if kind == "stuck":         # a stuck configuration sits here
        return first(depths, lambda d: sum(run[d + 1].values()) < 1)
    if kind == "branch":        # the one configuration here branches
        return first(depths, lambda d: len(run[d + 1]) > 1)
    if kind == "converge":      # the branches have merged into one here
        return first(depths, lambda d: len(run[d]) > 1
                     and len(run[d + 1]) == 1) + 1
    raise ValueError(kind)


EDGE_CASES = [
    (f"{LOOP} 6", "value"),
    (f"if flip() then {LOOP} 3 else {LOOP} 5", "value"),
    (f"let u = {LOOP} 4 in fst true", "stuck"),
    (f"let u = {LOOP} 4 in {LOOP} rand(2)", "branch"),
    (f"let x = rand(100) in {LOOP} 300", "converge"),
]


@pytest.mark.parametrize("src, kind", EDGE_CASES)
def test_chain_edges_match_oracle(src, kind):
    """For every depth n around the event, so that a chain ends there at
    n - 1, n or n + 1, the trace is the oracle's strata projected."""
    core = erase(parse(src))
    run = list(islice(strata(Config(core, EMPTY_STATE)), 80))
    at = event_depth(run, kind)
    assert 2 <= at < 70, at
    for n in range(at - 2, at + 3):
        assert exec_val_trace(core, EMPTY_STATE, n) == \
            [split(s) for s in run[:n + 1]], n
    for n in (0, 1):
        assert exec_val_trace(core, EMPTY_STATE, n)[-1] == split(run[n])


def test_converging_chains_step_each_configuration_once(monkeypatch):
    """101 branches merge after one step into one long chain: it runs
    once, so the head steps taken are at most the oracle's (configuration,
    depth) steps."""
    core = erase(parse(f"let x = rand(100) in {LOOP} 300"))
    n = 3000
    run = list(islice(strata(Config(core, EMPTY_STATE)), n + 1))
    assert event_depth(run, "converge") == 2
    assert 1000 < event_depth(run, "value") < n
    oracle_steps = sum(1 for s in run[:n] for c in s if not is_value(c.expr))
    steps = 0
    head_step = semantics._head_step

    def counted(*args):
        nonlocal steps
        steps += 1
        return head_step(*args)

    monkeypatch.setattr(semantics, "_head_step", counted)
    trace = exec_val_trace(core, EMPTY_STATE, n)
    assert trace == [split(s) for s in run]
    assert 0 < steps <= oracle_steps, (steps, oracle_steps)


# -- the β-memo of one pass ------------------------------------------------------

def count_substs(monkeypatch, run):
    """run(), with the `subst` calls of the reduction rules counted."""
    calls = 0
    subst = semantics.subst

    def counted(*args):
        nonlocal calls
        calls += 1
        return subst(*args)

    with monkeypatch.context() as m:
        m.setattr(semantics, "subst", counted)
        out = run()
    return out, calls


def test_memo_shares_redexes_that_branches_reach(monkeypatch):
    """Six branches run the same loop: its β-redexes are substituted once
    per pass, not once per branch, and the trace is the oracle's."""
    core = erase(parse(f"let x = rand(5) in {LOOP} 20 + x"))
    n = 120
    want = [split(s) for s in islice(strata(Config(core, EMPTY_STATE)), n + 1)]
    trace, with_memo = count_substs(
        monkeypatch, lambda: exec_val_trace(core, EMPTY_STATE, n))
    monkeypatch.setattr(semantics, "_STATELESS", ())  # no form memoised
    plain, without = count_substs(
        monkeypatch, lambda: exec_val_trace(core, EMPTY_STATE, n))
    assert trace == plain == want
    assert 0 < with_memo < without / 3, (with_memo, without)


def test_a_chain_cut_at_its_budget_keeps_its_last_redex():
    """A β-redex stepped as the last step a chain's budget allows is kept
    in the memo like any other, so the next chain that meets it takes the
    successor from there without a `subst`."""
    core = erase(parse("(fun (x : int) -> x + 1) 2"))
    memo = {}
    k, out = semantics.step_chain(Config(core, EMPTY_STATE), 1, memo)
    assert k == 1 and [c.expr for c, _ in out] == list(memo.values())
    assert list(memo) == [core] and render(memo[core]) == "2 + 1"


def test_memo_lives_for_one_call(monkeypatch):
    """A program that no other test runs, so the first call starts cold:
    the second one finds nothing kept from it."""
    down = "(rec down (m : int) : int = if m = 0 then 1 else down (m - 1))"
    core = erase(parse(f"let x = rand(3) in {down} 13 + x"))
    run = lambda: exec_val_trace(core, EMPTY_STATE, 90)
    (first, calls1), (second, calls2) = (count_substs(monkeypatch, run)
                                         for _ in range(2))
    assert first == second and calls1 == calls2 > 0


# -- deep values inside a chain ------------------------------------------------

LIST = "mu a. unit + (int * a)"
NIL = f"fold[{LIST}] (inl[int * ({LIST})] ())"


def cons(head: str, tail: str) -> str:
    return f"fold[{LIST}] (inr[unit] (({head}, {tail})))"


def test_long_list_inside_a_chain():
    """`len (mk 2000)` builds a list about 6,000 terms tall and takes it
    apart in one chain.  Nothing walks it by recursion: its free variables
    are found without, and the memo hashes and compares redexes by
    identity."""
    core = erase(parse(f"""
        let mk = rec mk (n : int) : {LIST} =
          if n = 0 then {NIL} else {cons("n", "mk (n - 1)")} in
        let len = rec len (l : {LIST}) : int =
          match unfold l with inl u -> 0 | inr p -> 1 + len (snd p) end in
        len (mk 2000)"""))
    lower, residual = exec_val_trace(core, EMPTY_STATE, 100_000)[-1]
    assert (lower, residual) == (SubDistr({Int(2000): Fraction(1)}), 0)


def test_memo_never_compares_tall_redexes():
    """Two branches build equal lists about 1,350 terms tall with
    different functions, and each then applies `fun l -> 0` to its list.
    Interning makes the lists, and so the two redexes, one object: the
    memo finds the second by identity, without walking the list."""
    def build(f, n):
        wrapped = "acc"
        for _ in range(15):  # 45 terms taller per call
            wrapped = cons(n, wrapped)
        return (f"let {f} = rec {f} ({n} : int) : ({LIST}) -> ({LIST}) = "
                f"fun (acc : {LIST}) -> if {n} = 0 then acc "
                f"else {f} ({n} - 1) ({wrapped}) in ")
    core = erase(parse(
        build("one", "n") + build("two", "m") + f"let nil = {NIL} in "
        "if flip () then (let l = one 30 nil in 0) "
        "else (let l = two 30 nil in 0)"))
    lower, residual = exec_val_trace(core, EMPTY_STATE, 10_000)[-1]
    assert (lower, residual) == (SubDistr({Int(0): Fraction(1)}), 0)
