"""Comparison verdicts, erasure checking, and the corpus check."""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest

from _gen import rand_program, subterms
from tapelang import analysis
from tapelang.analysis import (ComparisonReport, WINDOW, check_entry,
                               compare_programs, erasure_check_depths,
                               tv_distance)
from tapelang.corpus import ContextSpec, CorpusEntry, build
from tapelang.dist import exec_val_trace
from tapelang.parser import parse
from tapelang.semantics import EMPTY_STATE, State, Tape
from tapelang.subdist import SubDistr, dbind, dzero
from tapelang.syntax import (Binop, Int, Label, Rand, erase, render,
                             render_type)
from tapelang.typecheck import TypecheckError, is_ground, typecheck


def core(src: str):
    return erase(parse(src))


FLIP = "flip()"
FLIP_OR = "let x = flip() in let y = flip() in x || y"
OMEGA = "(rec f (u : unit) : bool = f u) ()"


def test_exactly_equal():
    rep = compare_programs(core(FLIP), core("if flip() then true else false"),
                           n=10)
    assert rep.verdict == "exactly-equal"
    assert rep.stabilized
    assert rep.residual1 == rep.residual2 == 0
    assert not rep.matched_divergence


def test_distinguished_beats_everything():
    rep = compare_programs(core(FLIP_OR), core(FLIP), n=20)
    assert rep.verdict == "distinguished"
    assert tv_distance(rep.lower1, rep.lower2) == Fraction(1, 4)


def test_distinguished_is_sound_even_with_residual():
    # a stuck program's lower bound already exceeds what flip() can ever
    # put on that value, so the verdict is a refutation despite the
    # missing mass elsewhere
    rep = compare_programs(core("true"), core(FLIP), n=10)
    assert rep.verdict == "distinguished"


def test_drained_stuck_mass_certifies_refutation():
    # the stuck branch leaves the distribution entirely, so residual1 is 0
    # and mu1(false) = 0 is a limit fact, not a bound
    rep = compare_programs(core("if flip() then true else fst true"),
                           core(FLIP), n=10)
    assert rep.verdict == "distinguished"
    assert rep.residual1 == 0
    assert rep.lower1.mass() == Fraction(1, 2)


# ROADMAP item 3's hand pair: no one value refutes it, the sets {0, 1}
# and {2, 3} do; <loop> never cycles and never settles
LOOP = "(rec f (n : int) : nat = f (n + 1)) 0"
COUNTER_LEFT = (f"let x = rand(14) in if x < 7 then 0 else if x < 14 then 1 "
                f"else {LOOP}")
COUNTER_RIGHT = (f"let x = rand(59) in if x < 24 then 0 else if x < 48 then 1 "
                 f"else if x < 51 then 2 else if x < 54 then 3 else {LOOP}")


@pytest.mark.parametrize("depth", [60, 400])
def test_a_set_of_values_refutes_where_no_one_value_does(depth):
    """Left puts 7/15 on each of 0 and 1 and loops with 1/15; right puts
    2/5 on each, 1/20 on each of 2 and 3, and loops with 1/10.  No one
    value's excess on one side beats the other side's residual, but right
    puts 1/10 on {2, 3}, more than the 1/15 that left can still add
    there (and left puts 2/15 more on {0, 1}, more than 1/10)."""
    rep = compare_programs(core(COUNTER_LEFT), core(COUNTER_RIGHT), n=depth)
    lo1, r1, lo2, r2 = rep.lower1, rep.residual1, rep.lower2, rep.residual2
    assert (r1, r2) == (Fraction(1, 15), Fraction(1, 10))
    assert not any(lo1.get(v) > lo2.get(v) + r2 or lo2.get(v) > lo1.get(v) + r1
                   for v in {*lo1.support(), *lo2.support()})
    assert rep.verdict == "distinguished"
    assert tv_distance(rep.lower1, rep.lower2) == Fraction(2, 15)


def test_set_verdict_is_sound_on_generated_programs():
    """Seeded ground-type programs compared in pairs at depths 1, 2, 4 and
    8: where the verdict is `distinguished` and both sides settle, the
    settled distributions differ, and no program is distinguished from
    itself."""
    rng = random.Random(30)
    progs = []
    while len(progs) < 40:
        e, ty = rand_program(rng, depth=3, effects=len(progs) % 2 == 1)
        if is_ground(ty):
            progs.append(erase(e))
    limits = [exec_val_trace(e, EMPTY_STATE, 400)[-1] for e in progs]
    refuted = 0
    for _ in range(400):
        i, j = rng.randrange(len(progs)), rng.randrange(len(progs))
        for n in (1, 2, 4, 8):
            assert compare_programs(progs[i], progs[i], n=n
                                    ).verdict != "distinguished"
            if compare_programs(progs[i], progs[j], n=n
                                ).verdict == "distinguished":
                (lo1, r1), (lo2, r2) = limits[i], limits[j]
                assert r1 == r2 == 0  # every program here settles
                assert lo1 != lo2
                refuted += 1
    assert refuted > 500  # 701


def _mixture(rng, ty: str, programs: list, k: int):
    """`let x = rand(k) in if x < a then P else if x < b then Q else
    LOOP`, with P and Q drawn from `programs` (settled limit, program)
    of type `ty` and LOOP a counter loop that never settles, and its
    exact limit: a/(k+1) of P's plus (b-a)/(k+1) of Q's.  Half the draws
    give each branch at most what the loop keeps and both together more
    than half, as a refutation by a set and by no one value needs."""
    whole = k + 1
    if rng.random() < 0.5:
        b = rng.randint(1, k)
        a = rng.randint(0, b)
    else:
        b = rng.randint(whole // 2 + 1, 2 * whole // 3)
        a = rng.randint(2 * b - whole, whole - b)
    (lim_p, p), (lim_q, q) = rng.choice(programs), rng.choice(programs)
    e = parse(f"let x = rand({k}) in if x < {a} then ({render(p)}) "
              f"else if x < {b} then ({render(q)}) "
              f"else (rec f (n : int) : {ty} = f (n + 1)) 0")
    assert render_type(typecheck(e)) == ty
    limit = SubDistr([(v, Fraction(a, whole) * w) for v, w in lim_p.items()]
                     + [(v, Fraction(b - a, whole) * w)
                        for v, w in lim_q.items()])
    return erase(e), limit


def _refuting_sets(lo1, r1, lo2, r2) -> list:
    """Every (S, side), by enumeration, where S is a set of values on
    which side's lower bound exceeds the other side's lower bound plus
    the other side's residual."""
    values = sorted({*lo1.support(), *lo2.support()}, key=repr)
    out = []
    for size in range(1, len(values) + 1):
        for s in combinations(values, size):
            m1, m2 = (sum(map(lo.get, s), Fraction(0)) for lo in (lo1, lo2))
            if m1 > m2 + r2:
                out.append((s, 1))
            if m2 > m1 + r1:
                out.append((s, 2))
    return out


def test_set_verdict_matches_every_subset_on_generated_mixtures():
    """Generated mixtures of two same-type ground programs and a loop,
    compared in pairs at depths 8, 16 and 32: `distinguished` exactly
    when some set of values refutes, by brute force over every subset of
    the union of the supports, and every refuting set is one on which
    the exact limits differ the same way.  The loop leaves a residual
    beside a spread lower bound, so some verdicts need a set: no one
    value refutes them."""
    rng = random.Random(34)
    by_type: dict = {}
    for _ in range(80):
        e, ty = rand_program(rng, depth=3, effects=rng.random() < 0.5)
        while not is_ground(ty):
            e, ty = rand_program(rng, depth=3, effects=rng.random() < 0.5)
        lim, residual = exec_val_trace(erase(e), EMPTY_STATE, 400)[-1]
        assert residual == 0
        by_type.setdefault(render_type(ty), {}).setdefault(lim, e)
    pools = {ty: list(progs.items()) for ty, progs in sorted(by_type.items())
             if len(progs) >= 3}  # one program per distinct limit
    verdicts = {"distinguished": 0, "inconclusive": 0, "by a set only": 0}
    for _ in range(200):
        ty, k = rng.choice(sorted(pools)), rng.randint(5, 20)
        (e1, lim1), (e2, lim2) = (_mixture(rng, ty, pools[ty], k)
                                  for _ in range(2))
        for n in (8, 16, 32):
            rep = compare_programs(e1, e2, n=n)
            sets = _refuting_sets(rep.lower1, rep.residual1,
                                  rep.lower2, rep.residual2)
            assert rep.verdict == ("distinguished" if sets
                                   else "inconclusive")
            for s, side in sets:
                more, less = (lim1, lim2) if side == 1 else (lim2, lim1)
                assert sum(map(more.get, s)) > sum(map(less.get, s))
            verdicts[rep.verdict] += 1
            verdicts["by a set only"] += bool(sets) and min(
                len(s) for s, _ in sets) > 1
    assert verdicts["by a set only"] > 30, verdicts  # 48 of 155


def test_left_refines():
    # left terminated (stuck half drained); right agrees on everything
    # produced so far but half its mass is still running
    rep = compare_programs(core("if flip() then true else fst true"),
                           core(f"if flip() then true else {OMEGA}"), n=30)
    assert rep.verdict == "left-refines"
    assert rep.residual1 == 0
    assert rep.residual2 == Fraction(1, 2)
    assert rep.lower1 == rep.lower2


def test_residual_blocks_left_refines():
    # half the mass is still running, so nothing is certifiable
    rep = compare_programs(core(f"if flip() then true else {OMEGA}"),
                           core(FLIP), n=30)
    assert rep.verdict == "inconclusive"
    assert rep.residual1 == Fraction(1, 2)


def test_matched_divergence():
    rep = compare_programs(core(OMEGA), core(OMEGA), n=10)
    assert rep.verdict == "inconclusive"
    assert rep.stabilized
    assert rep.matched_divergence
    assert rep.lower1 == rep.lower2 == dzero()
    assert rep.residual1 == rep.residual2 == 1


def test_unstabilized_divergence_is_not_matched():
    # flip() lands its values at depth 3, inside the window starting at 1,
    # so the window sees movement
    rep = compare_programs(core(FLIP), core(FLIP), n=1)
    assert rep.verdict == "inconclusive"
    assert not rep.stabilized
    assert not rep.matched_divergence


def test_report_serialization():
    rep = compare_programs(core(FLIP_OR), core(FLIP), n=20)
    data = rep.to_jsonable()
    assert data["verdict"] == "distinguished"
    assert data["lower1"] == {"false": "1/4", "true": "3/4"}
    assert data["residual1"] == "0"
    assert data["matched_divergence"] is False


# -- tv distance --------------------------------------------------------------

def test_tv_known_values():
    fair = SubDistr({"t": Fraction(1, 2), "f": Fraction(1, 2)})
    skew = SubDistr({"t": Fraction(3, 4), "f": Fraction(1, 4)})
    assert tv_distance(fair, skew) == Fraction(1, 4)
    assert tv_distance(fair, fair) == 0
    assert tv_distance(dzero(), fair) == 1


def test_tv_counts_mass_deficit():
    half = SubDistr({"t": Fraction(1, 2)})
    full = SubDistr({"t": Fraction(1, 2), "f": Fraction(1, 2)})
    assert tv_distance(half, full) == Fraction(1, 2)


def test_tv_symmetry_and_triangle():
    a = SubDistr({"x": Fraction(1, 3)})
    b = SubDistr({"x": Fraction(1, 6), "y": Fraction(1, 2)})
    c = SubDistr({"y": Fraction(1, 4)})
    assert tv_distance(a, b) == tv_distance(b, a)
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c)


# -- erasure ------------------------------------------------------------------

ONE_TAPE = State((), (Tape(1, ()),))


def test_erasure_on_consumer():
    # one read, and two: the presampled value is read once, and a second
    # read samples afresh, as it would without the ghost step
    read = Rand(Int(1), Label(0))
    for e in (read, Binop("+", read, read)):
        assert all(erasure_check_depths(e, ONE_TAPE, 0, 10))


def test_erasure_on_ignoring_program():
    assert erasure_check_depths(core("1 + 2"), ONE_TAPE, 0, 5)[5]


def test_erasure_on_unread_tape():
    two = State((), (Tape(1, ()), Tape(3, ())))
    e = Rand(Int(1), Label(0))  # reads tape 0, never tape 1
    assert all(erasure_check_depths(e, two, 1, 8))


def test_erasure_unknown_label_raises():
    with pytest.raises(ValueError, match="no tape with label 0"):
        erasure_check_depths(core("1"), EMPTY_STATE, 0, 3)


def test_negative_depth_raises():
    """A negative depth used to index the trace from its end."""
    one = core("1")
    calls = [lambda: compare_programs(one, one, EMPTY_STATE, -1),
             lambda: erasure_check_depths(one, ONE_TAPE, 0, -1)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^depth must be >= 0, got -1$"):
            call()


def test_erasure_lemma_on_generated_programs():
    """A ghost sample on tape 0 leaves the value distribution of every
    generated program unchanged at every depth 0..12, whether the tape's
    bound matches the program's reads of it or not."""
    rng = random.Random(3)
    matched = 0
    for _ in range(300):
        e, _ = rand_program(rng, depth=4, effects=True, tapes=True)
        typecheck(e)
        core = erase(e)
        bounds = {s.bound.n for s in subterms(core)
                  if isinstance(s, Rand) and isinstance(s.label, Label)}
        for b in (1, 2):
            matched += b in bounds
            state = State((), (Tape(b, ()),))
            assert all(erasure_check_depths(core, state, 0, 12))
    # the programs do read the ghost-stepped tape at its own bound
    assert matched >= 10


def test_erasure_check_depths_matches_single_calls():
    e = Rand(Int(1), Label(0))
    table = erasure_check_depths(e, ONE_TAPE, 0, 7)
    assert len(table) == 8
    for d, ok in enumerate(table):
        assert ok == erasure_check_depths(e, ONE_TAPE, 0, d)[d]


def test_erasure_binds_only_where_a_bound_changed(monkeypatch):
    """Every trace of `rand(1, t0)` settles at depth 1, and a settled
    trace's lower bound is one object from there on, so the `dbind` is
    made at depths 0 and 1 only, however deep the check goes."""
    calls = []

    def counting(f, mu):
        calls.append(mu)
        return dbind(f, mu)
    monkeypatch.setattr(analysis, "dbind", counting)
    for n in (1, 1000):
        calls.clear()
        assert erasure_check_depths(Rand(Int(1), Label(0)), ONE_TAPE, 0,
                                    n) == [True] * (n + 1)
        assert len(calls) == 2


# -- corpus check -------------------------------------------------------------

def entry(left: str, right: str, contexts, type_: str = "bool",
          **extras) -> CorpusEntry:
    """An entry over sources, its contexts given as (source, expected)."""
    return CorpusEntry("probe", {}, type_, "left", "right", left, right,
                       tuple(ContextSpec(f"c{i}", src, expected)
                             for i, (src, expected) in enumerate(contexts)),
                       depth=20, extras=extras)


def test_probe_runs_contexts():
    rows = check_entry(entry(FLIP_OR, FLIP,
                             [("hole", "distinguished"),
                              ("if hole then 1 else 0", "distinguished")]),
                       20)
    assert [rep.verdict for _, _, rep, _ in rows] == ["distinguished",
                                                      "distinguished"]
    assert all(ok for *_, ok in rows)


@pytest.mark.parametrize("left, type_, ctx, ty", [
    ("fun (u : unit) -> true", "unit -> bool", "hole", "unit -> bool"),
    ("true", "bool", "ref hole", "ref bool"),
])
def test_probe_refuses_a_context_of_non_ground_type(left, type_, ctx, ty):
    """A context whose result is a closure or a location would compare
    them as syntax, which no context observes."""
    with pytest.raises(ValueError, match=f"^probe/c0: context type {ty} "
                                         f"is not ground$"):
        check_entry(entry(left, left, [(ctx, "exactly-equal")], type_), 5)


def test_probe_typechecks_plugged_contexts():
    with pytest.raises(TypecheckError):
        check_entry(entry(FLIP, FLIP, [("hole + 1", "exactly-equal")]), 5)


def test_probe_refuses_a_context_without_its_hole():
    """A context in which `hole` is not free compares C with C, so it
    would pass any pair: here it would call `flip()` and `true` equal."""
    with pytest.raises(ValueError, match="^probe/c0: context has no hole$"):
        check_entry(entry(FLIP, "true", [("1 = 1", "exactly-equal")]), 5)


def test_probe_requires_annotated_inputs():
    # the check typechecks C[e] before erasing it, so the sides and the
    # contexts are annotated source terms
    rows = check_entry(entry(FLIP, FLIP, [("hole", "exactly-equal")]), 9)
    assert rows[0][2].verdict == "exactly-equal"


def test_check_rejects_a_side_off_the_declared_type():
    bad = dataclasses.replace(build("flip-or"), type_source="int")
    with pytest.raises(ValueError, match=r"^flip-or/flip_or: program type "
                                         r"bool does not fit declared int$"):
        check_entry(bad, 0)


def test_check_rejects_an_extra_off_the_declared_type():
    bad = entry(FLIP, FLIP, [("hole", "exactly-equal")], coin="1")
    with pytest.raises(ValueError, match=r"^probe/coin: program type nat "
                                         r"does not fit declared bool$"):
        check_entry(bad, 0)
    # a subtype fits: nat where int is declared
    assert check_entry(entry("1", "0 - 1", [("hole", "distinguished")],
                             "int", small="2"), 5)[0][3]
