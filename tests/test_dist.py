"""Sub-distribution monad laws and stratified-execution properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import strata
from tapelang.dist import (SubDistr, dbind, dret, dzero, exec_val_bounds,
                           exec_val_trace, frac_str, from_jsonable,
                           parse_frac, stabilized, to_jsonable)
from tapelang.parser import parse
from tapelang.semantics import Config, EMPTY_STATE
from tapelang.syntax import erase, is_value, render

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
    assert mu.map(str.upper) == dbind(lambda a: dret(a.upper()), mu)


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
def test_frac_str_roundtrip(num, den):
    q = Fraction(num, den)
    assert parse_frac(frac_str(q)) == q


def test_frac_str_integral():
    assert frac_str(Fraction(2, 1)) == "2"
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(Fraction(0)) == "0"


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
        lo, residual = exec_val_bounds(core, EMPTY_STATE, n)
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
        assert (lo, residual) == exec_val_bounds(core, EMPTY_STATE, n)
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
    lo, residual = exec_val_bounds(core, EMPTY_STATE, 20)
    assert residual == 0
    assert {render(v): p for v, p in lo.items()} == {
        "true": Fraction(3, 4), "false": Fraction(1, 4)}


def test_divergence_is_all_residual():
    core = erase(parse("(rec f (u : unit) : bool = f u) ()"))
    for n in (0, 5, 17):
        lo, residual = exec_val_bounds(core, EMPTY_STATE, n)
        assert lo.mass() == 0 and residual == 1


def test_stabilized_detector():
    core = erase(parse("flip()"))
    trace = exec_val_trace(core, EMPTY_STATE, 10)
    assert not stabilized(trace)        # early depths still move
    assert stabilized(trace[3:])        # settled from depth 3 on
    assert not stabilized([])


def test_exec_depth_zero_of_value():
    core = erase(parse("42"))
    lo, residual = exec_val_bounds(core, EMPTY_STATE, 0)
    assert residual == 0 and lo.mass() == 1
