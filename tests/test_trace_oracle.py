"""Differential tests: the frontier/settled trace of `dist` against the
reference stepping loop in `_oracle`, and `semantics.step_weights`
against the reference step relation there, compared with `==`."""

import random
import time
from itertools import islice

import pytest

from _gen import TAPE0_STATES, rand_program
from _oracle import ref_step_weights, split, strata
from tapelang.analysis import check_entry
from tapelang.corpus import build, list_entries
from tapelang.dist import exec_val_trace
from tapelang.parser import parse
from tapelang.semantics import (Config, EMPTY_STATE, State, Tape, decompose,
                                step_weights)
from tapelang.syntax import (Label, Pack, TApp, TLam, Unpack, erase,
                             is_value, plug_hole, render, subst)

# the smallest documented parameters; entries not named take none
SMALLEST = {
    "elgamal-real": {"p": 3},
    "elgamal-rand": {"p": 3},
    "hash": {"n": 0},
    "hash-rng": {"max": 1},
    "lazy-int": {"digits": 1, "base": 2},
}


def assert_matches_oracle(e, state, n):
    """The depth-n trace equals the oracle's strata 0..n, projected; the
    last entry of a shorter trace equals the trace at the depths around
    settling and at the ends; and `step_weights` equals the reference step on every
    configuration in those strata, listing no configuration twice."""
    oracle = list(islice(strata(Config(e, state)), n + 1))
    for cfg in set().union(*oracle):
        succ = step_weights(cfg)
        assert len(dict(succ)) == len(succ), cfg
        assert dict(succ) == ref_step_weights(cfg), cfg
    trace = exec_val_trace(e, state, n)
    assert trace == [split(s) for s in oracle]
    settle = next((d for d, (_, r) in enumerate(trace) if r == 0), n)
    for k in {0, max(settle - 1, 0), settle, n // 2, n}:
        assert exec_val_trace(e, state, k)[-1] == trace[k]
    return trace


@pytest.mark.parametrize("name", [name for name, _ in list_entries()])
def test_corpus_traces_match_oracle(name):
    entry = build(name, SMALLEST.get(name, {}))
    for ctx in entry.contexts:
        for side in (entry.left, entry.right):
            prog = erase(plug_hole(ctx.expr(), side()))
            assert_matches_oracle(prog, EMPTY_STATE, entry.depth + 4)


def erase_config(c: Config) -> Config:
    return Config(erase(c.expr), State(tuple(map(erase, c.state.heap)),
                                       c.state.tapes))


def test_annotations_are_inert_at_run_time():
    """On every configuration reachable in 40 strata (at most 3,000 a
    stratum) from unerased programs, the successors erased are the
    successors of the erased configuration, with the same weights: the
    step reads no annotation, so it may leave them as they are.  The
    programs are the plugged contexts of the corpus, generated programs
    with refs and `unpack`, and one type application."""
    rng = random.Random(3)
    starts = [rand_program(rng, depth=4, effects=True)[0]
              for _ in range(100)]
    starts.append(parse("(tfun a -> fun (x : a) -> x)[int] 3"))
    for name, _ in list_entries():
        entry = build(name, SMALLEST.get(name, {}))
        starts += [plug_hole(ctx.expr(), side()) for ctx in entry.contexts
                   for side in (entry.left, entry.right)]
    seen: dict[Config, None] = {}
    for e in starts:
        stratum = [Config(e, EMPTY_STATE)]
        for _ in range(40):
            later: dict[Config, None] = {}
            for c in stratum:
                seen[c] = None
                later.update((c2, None) for c2, _ in step_weights(c))
            stratum = list(later)[:3000]
    tapps = unpacks = 0
    for c in seen:
        succ = step_weights(c)
        assert ([(erase_config(c2), w) for c2, w in succ]
                == step_weights(erase_config(c))), render(c.expr)
        head = decompose(c.expr)[1]
        if succ and isinstance(head, TApp) and isinstance(head.fn, TLam):
            tapps += None not in (head.fn.tvar, head.ty_arg)
        if succ and isinstance(head, Unpack) and isinstance(head.packed, Pack):
            unpacks += None not in (head.tvar, head.packed.witness_ty)
    assert tapps >= 1 and unpacks >= 1, (tapps, unpacks)


def test_report_settle_depths_match_oracle():
    """A report's settle depth is the first all-value stratum, if that is
    within the report's depth."""
    entry = build("flip-or")
    for depth in (3, 9, 20):
        for ctx, (_, _, rep, _) in zip(entry.contexts,
                                       check_entry(entry, depth)):
            got = []
            for side in (entry.left, entry.right):
                run = islice(strata(Config(erase(plug_hole(ctx.expr(), side())),
                                           EMPTY_STATE)), depth + 1)
                got.append(next((d for d, s in enumerate(run)
                                 if all(is_value(c.expr) for c in s)), None))
            assert [rep.settle1, rep.settle2] == got


def test_generated_traces_match_oracle():
    """Effect-free programs from the empty state, then programs with
    recursion, refs, shadowing binders and reads of tape 0 from each of
    the three TAPE0_STATES."""
    rng = random.Random(5)
    for _ in range(60):
        e, _ = rand_program(rng, depth=4)
        assert_matches_oracle(erase(e), EMPTY_STATE, 30)
    for _ in range(60):
        e, _ = rand_program(rng, depth=4, effects=True, tapes=True)
        for state in TAPE0_STATES:
            assert_matches_oracle(erase(e), state, 30)


def test_trace_prefixes_are_shorter_traces():
    """For every k <= n, the depth-k trace is the depth-n trace cut after
    depth k, so a chain stopped by a smaller budget changes nothing
    before it: effect-free programs from the empty state, then programs
    with recursion, refs and reads of tape 0 from each of the three
    TAPE0_STATES."""
    rng = random.Random(7)
    n = 16
    runs = [(erase(rand_program(rng, depth=4)[0]), EMPTY_STATE)
            for _ in range(20)]
    for _ in range(20):
        e = erase(rand_program(rng, depth=4, effects=True, tapes=True)[0])
        runs += [(e, state) for state in TAPE0_STATES]
    for e, state in runs:
        trace = exec_val_trace(e, state, n)
        for k in range(n + 1):
            assert exec_val_trace(e, state, k) == trace[:k + 1], \
                (render(e), k)


def test_round_tripped_generated_traces_match_oracle():
    """Generated programs share no node, but parsed ones do (every `true`
    is one node): each program printed and parsed back runs as the oracle
    does.  Tapes are off, since their labels do not re-parse."""
    rng = random.Random(5)
    for _ in range(300):
        e, _ = rand_program(rng, effects=True)
        assert_matches_oracle(erase(parse(render(e))), EMPTY_STATE, 40)


def test_stuck_mass_trace_matches_oracle():
    core = erase(parse("if flip() then true else fst true"))
    trace = assert_matches_oracle(core, EMPTY_STATE, 12)
    assert trace[-1][1] == 0 and trace[-1][0].mass() < 1


def test_tape_state_trace_matches_oracle():
    state = State((), (Tape(2, (1,)),))
    core = subst(erase(parse("rand(2, t0) + rand(2, t0)")), "t0", Label(0))
    assert_matches_oracle(core, state, 10)


def test_settled_trace_has_constant_tail():
    core = erase(parse("let a = rand(9) in let b = rand(9) in "
                       "let c = rand(9) in a * 100 + b * 10 + c"))
    start = time.perf_counter()
    trace = exec_val_trace(core, EMPTY_STATE, 10_000)
    elapsed = time.perf_counter() - start
    assert len(trace) == 10_001
    k = next(d for d, (_, r) in enumerate(trace) if r == 0)
    assert k < 30 and len(trace[k][0]) == 1000
    assert trace[:k + 3] == [split(s) for s in
                             islice(strata(Config(core, EMPTY_STATE)), k + 3)]
    assert all(entry == trace[k] for entry in trace[k:])
    assert elapsed < 1.0, f"{elapsed:.3f} s"
