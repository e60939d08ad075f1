"""Corpus registry: builders, parameter validation, and exact oracles."""

import itertools
import re
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest

from _oracle import assoc_dom
from tapelang.analysis import check_entry
from tapelang.corpus import CorpusEntry, build, list_entries
from tapelang.dist import exec_val_trace
from tapelang.syntax import (Bool, Fold, Inl, Inr, Int, Pair, Unit, Var,
                             render)

NAMES = [
    "choice-copying",
    "choice-local",
    "elgamal-rand",
    "elgamal-real",
    "flip-or",
    "hash",
    "hash-rng",
    "keyed-hash",
    "lazy-eager",
    "lazy-int",
]

# every documented (name, params) combination
ALL_PARAMS = (
    [(n, {}) for n in NAMES]
    + [("elgamal-real", {"p": p}) for p in (3, 5, 7, 11)]
    + [("elgamal-rand", {"p": p}) for p in (3, 5, 7, 11)]
    + [("elgamal-real", {"p": 7, "g": 5})]
    + [("hash", {"n": n}) for n in (0, 1, 2)]
    + [("hash-rng", {"max": m}) for m in (1, 2)]
    + [("lazy-int", {"digits": d, "base": b})
       for d in (1, 2, 3) for b in (2, 3)]
)


def holes(e) -> int:
    if e == Var("hole"):
        return 1
    if not is_dataclass(e):
        return 0
    return sum(holes(getattr(e, f.name)) for f in fields(e)
               if not isinstance(getattr(e, f.name), (str, int, bool)))


def test_registry_is_frozen():
    assert [name for name, _ in list_entries()] == NAMES
    assert all(summary for _, summary in list_entries())


def test_unknown_entry():
    with pytest.raises(ValueError, match="unknown corpus entry"):
        build("nonesuch")


@pytest.mark.parametrize("name,params", [
    ("flip-or", {"p": 3}),
    ("lazy-eager", {"n": 1}),
    ("elgamal-real", {"p": 4}),
    ("elgamal-real", {"p": 7, "g": 2}),       # 2 generates only half the group
    ("elgamal-rand", {"q": 1}),
    ("hash", {"n": 3}),
    ("hash-rng", {"max": 0}),
    ("lazy-int", {"digits": 4}),
    ("lazy-int", {"base": 10}),
    ("lazy-int", {"radix": 2}),
])
def test_bad_params(name, params):
    with pytest.raises(ValueError):
        build(name, params)


@pytest.mark.parametrize("name,params", ALL_PARAMS,
                         ids=[f"{n}-{sorted(p.items())}" for n, p in ALL_PARAMS])
def test_builds_and_typechecks(name, params):
    entry = build(name, params)
    check_entry(entry, 0)
    assert entry.name == name
    assert entry.depth > 0
    assert entry.contexts, "every entry ships at least one context"
    for ctx in entry.contexts:
        assert holes(ctx.expr()) == 1
    assert holes(entry.left()) == 0
    assert holes(entry.right()) == 0


def test_context_expectations_are_legal():
    for name, _ in list_entries():
        for ctx in build(name).contexts:
            assert ctx.expected in ("exactly-equal", "distinguished",
                                    "diverges-matched")


def test_param_errors_name_the_entry():
    with pytest.raises(ValueError, match=r"^flip-or: unknown parameters: "
                                         r"\['p'\]$"):
        build("flip-or", {"p": 3})
    with pytest.raises(ValueError, match=r"^lazy-int: base must be one of "
                                         r"\(2, 3\), got 10$"):
        build("lazy-int", {"base": 10})
    with pytest.raises(ValueError, match=r"^2 does not generate the group "
                                         r"mod 7$"):
        build("elgamal-real", {"p": 7, "g": 2})


@pytest.mark.parametrize("name,key,val", [
    ("lazy-int", "digits", 2.0), ("elgamal-real", "p", 5.0),
    ("hash", "n", True)])
def test_params_equal_to_an_allowed_int_are_refused(name, key, val):
    """A float or a bool `==` an allowed integer is not that integer: the
    check refuses it by type, with the error that names the entry."""
    with pytest.raises(ValueError, match=rf"^{name}: {key} must be one of "
                                         rf"\(.*\), got {re.escape(str(val))}$"):
        build(name, {key: val})


@pytest.mark.parametrize("g", [2.0, "2", [2]])
def test_generator_must_be_an_int(g):
    """The ElGamal generator, which no allowed set checks, is refused by
    the group check when it is not an integer, before any arithmetic."""
    with pytest.raises(ValueError, match=rf"^{re.escape(str(g))} does not "
                                         rf"generate the group mod 5$"):
        build("elgamal-real", {"g": g})


def test_elgamal_p11_is_exactly_equal_on_every_context():
    """The largest prime, generator 2, at the shipped depth: each message
    context settles `exactly-equal` on both variants."""
    for variant in ("elgamal-real", "elgamal-rand"):
        entry = build(variant, {"p": 11})
        assert entry.params == {"p": 11, "g": 2}
        rows = check_entry(entry, entry.depth)
        assert [(name, rep.outcome, ok) for name, _, rep, ok in rows] == [
            (f"query-msg-{m}", "exactly-equal", True) for m in (1, 2, 10)]


def test_params_echoed():
    entry = build("elgamal-real", {"p": 3})
    assert entry.params == {"p": 3, "g": 2}
    assert build("lazy-int").params == {"digits": 2, "base": 2}


def test_sides_differ_where_expected():
    for name in NAMES:
        entry = build(name)
        if name == "keyed-hash":
            assert entry.left_source == entry.right_source
        else:
            assert entry.left_source != entry.right_source


# -- association-list domain reader -------------------------------------------

def _alist(pairs):
    """Build the runtime value of an association list from python pairs."""
    out = Fold(Inl(Unit(), None), None)
    for k, v in reversed(pairs):
        out = Fold(Inr(Pair(Pair(Int(k), v), out), None), None)
    return out


def test_assoc_dom():
    assert assoc_dom(_alist([])) == frozenset()
    assert assoc_dom(_alist([(2, Bool(True)), (0, Bool(False))])) == {0, 2}
    # shadowed keys count once
    assert assoc_dom(_alist([(1, Int(3)), (1, Int(4))])) == {1}


@pytest.mark.parametrize("junk", [Int(3), Bool(True), Pair(Int(1), Int(2)),
                                  Fold(Int(0), None)])
def test_assoc_dom_rejects_non_lists(junk):
    with pytest.raises(ValueError):
        assoc_dom(junk)


# -- exact oracle for the lazy-int comparison ---------------------------------

def lazy_int_cmp_oracle(digits: int, base: int) -> dict[int, Fraction]:
    """Distribution of cmp(x, y) for two independent uniform base^digits
    draws, by brute enumeration."""
    total = base ** digits
    counts = {-1: 0, 0: 0, 1: 0}
    for x, y in itertools.product(range(total), repeat=2):
        counts[(x > y) - (x < y)] += 1
    return {k: Fraction(v, total * total) for k, v in counts.items() if v}


def test_lazy_int_oracle_known_law():
    assert lazy_int_cmp_oracle(2, 2) == {
        -1: Fraction(3, 8), 0: Fraction(1, 4), 1: Fraction(3, 8)}


@pytest.mark.parametrize("digits,base,depth", [(1, 2, 260), (2, 2, 420)])
def test_lazy_int_cmp_distribution(digits, base, depth):
    entry = build("lazy-int", {"digits": digits, "base": base})
    ctx = next(c for c in entry.contexts if c.name == "cmp-fresh")
    oracle = lazy_int_cmp_oracle(digits, base)
    for side in (entry.left, entry.right):
        from tapelang.syntax import erase, plug_hole
        from tapelang.semantics import EMPTY_STATE
        prog = erase(plug_hole(ctx.expr(), side()))
        lo, res = exec_val_trace(prog, EMPTY_STATE, depth)[-1]
        assert res == 0
        got = {int(render(v)) if not render(v).startswith("(") else -1: p
               for v, p in lo.items()}
        assert got == oracle


def test_hash_queries_cover_repeats_and_out_of_range():
    for n in (0, 1, 2):
        entry = build("hash", {"n": n})
        seqs = [[int(k) for k in c.name.split("-")[1:]]
                for c in entry.contexts]
        assert any(max(s) > n for s in seqs), "some query lands off-table"
        assert any(len(set(s)) < len(s) for s in seqs), "some query repeats"
        assert max(len(s) for s in seqs) == 3
        assert len(entry.contexts) >= 8
