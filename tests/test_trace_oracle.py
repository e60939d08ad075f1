"""Differential tests: the frontier/settled trace of `dist` against the
reference stepping loop in `_oracle`, compared with `==`."""

import random
import time
from itertools import islice

import pytest

from _gen import rand_program
from _oracle import split, strata
from tapelang.analysis import check_entry
from tapelang.corpus import build, list_entries
from tapelang.dist import exec_val_bounds, exec_val_trace
from tapelang.parser import parse
from tapelang.semantics import Config, EMPTY_STATE, State, Tape
from tapelang.syntax import Label, erase, is_value, plug_hole, subst

# the smallest documented parameters; entries not named take none
SMALLEST = {
    "elgamal-real": {"p": 3},
    "elgamal-rand": {"p": 3},
    "hash": {"n": 0},
    "hash-rng": {"max": 1},
    "lazy-int": {"digits": 1, "base": 2},
}


def assert_matches_oracle(e, state, n):
    """The depth-n trace equals the oracle's strata 0..n, projected, and
    `exec_val_bounds` equals the trace at the depths around settling and
    at the ends."""
    trace = exec_val_trace(e, state, n)
    assert trace == [split(s) for s in islice(strata(Config(e, state)), n + 1)]
    settle = next((d for d, (_, r) in enumerate(trace) if r == 0), n)
    for k in {0, max(settle - 1, 0), settle, n // 2, n}:
        assert exec_val_bounds(e, state, k) == trace[k]
    return trace


@pytest.mark.parametrize("name", [name for name, _ in list_entries()])
def test_corpus_traces_match_oracle(name):
    entry = build(name, SMALLEST.get(name, {}))
    for ctx in entry.contexts:
        for side in (entry.left, entry.right):
            prog = erase(plug_hole(ctx.expr(), side()))
            assert_matches_oracle(prog, EMPTY_STATE, entry.depth + 4)


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
    rng = random.Random(5)
    for _ in range(60):
        e, _ = rand_program(rng, depth=4)
        assert_matches_oracle(erase(e), EMPTY_STATE, 30)


def test_stuck_mass_trace_matches_oracle():
    core = erase(parse("if flip() then true else fst true"))
    trace = assert_matches_oracle(core, EMPTY_STATE, 12)
    assert trace[-1][1] == 0 and trace[-1][0].mass() < 1


def test_tape_state_trace_matches_oracle():
    state = State((), ((0, Tape(2, (1,))),))
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
