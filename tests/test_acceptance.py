"""Acceptance gate: eleven end-to-end checks with explicit time budgets.

Each test prints one PASS line (visible under -s) and fails loudly
otherwise.  Everything is exact rational arithmetic — no tolerances.
"""

import dataclasses
import json
import random
import time
from fractions import Fraction
from itertools import islice

from _oracle import assoc_dom, strata
from tapelang.analysis import (check_entry, compare_programs,
                               erasure_check_depths)
from tapelang.cli import run as cli_run
from tapelang.corpus import build, list_entries
from tapelang.coupling import (Relation, bijection_coupling, check_coupling,
                               check_left_partial, couple_bind,
                               strassen_oracle, verify_witness)
from tapelang.dist import exec_val_trace
from tapelang.parser import parse
from tapelang.semantics import EMPTY_STATE, Config, State, Tape, is_value
from tapelang.subdist import SubDistr, dbind, dret
from tapelang.syntax import (Bool, Int, Label, erase, free_vars, plug_hole,
                             render, subst)
from tapelang.typecheck import typecheck

F = Fraction


class budget:
    """Wall-clock budget; the PASS line carries the measured time."""

    def __init__(self, criterion: int, seconds: float, what: str):
        self.criterion, self.seconds, self.what = criterion, seconds, what

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        dt = time.monotonic() - self.t0
        if exc_type is None:
            assert dt < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s "
                f"budget ({dt:.2f}s)")
            print(f"PASS criterion {self.criterion}: {self.what} "
                  f"({dt:.2f}s < {self.seconds:g}s)")
        return False


def core(src: str):
    e = parse(src)
    typecheck(e)
    return erase(e)


def probe(entry, n=None, flip_sides=False):
    if flip_sides:
        entry = dataclasses.replace(entry, left_source=entry.right_source,
                                    right_source=entry.left_source)
    depth = entry.depth if n is None else n
    return [rep for _, _, rep, _ in check_entry(entry, depth)]


def uniform(n: int) -> SubDistr:
    return SubDistr({i: F(1, n + 1) for i in range(n + 1)})


# -- 1: the inequivalent warm-up pair, through the command line ---------------

def test_c01_flip_or_vs_flip_distinguished(tmp_path, capsys):
    a = tmp_path / "or.tl"
    b = tmp_path / "flip.tl"
    a.write_text("let x = flip() in let y = flip() in x || y")
    b.write_text("flip()")
    with budget(1, 1.0, "flip-or vs flip distinguished at depth 20, tv 1/4"):
        rc = cli_run(["compare", str(a), str(b), "--depth", "20",
                      "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert data["verdict"] == "distinguished"
        assert data["lower1"] == {"false": "1/4", "true": "3/4"}
        assert data["lower2"] == {"false": "1/2", "true": "1/2"}
        assert data["residual1"] == "0" and data["residual2"] == "0"
        assert data["tv_lower_bounds"] == "1/4"


# -- 2: lazy vs eager coin under its three contexts ----------------------------

def test_c02_lazy_eager_coin_contexts(capsys):
    entry = build("lazy-eager")
    assert [c.name for c in entry.contexts] == [
        "call-once", "call-twice-pair", "call-store-call"]
    with budget(2, 5.0, "lazy/eager coin exactly equal in all three "
                        "contexts, both orientations, depth 80"):
        for flip_sides in (False, True):
            for rep in probe(entry, n=80, flip_sides=flip_sides):
                assert rep.verdict == "exactly-equal"
                assert rep.residual1 == 0 and rep.residual2 == 0


# -- 3: the erasure lemma, mechanically, tape by tape ---------------------------

# (source with free tape names t0, t1, ..., list of seeded tapes)
ERASURE_SUITE = [
    ("rand(1, t0)", [Tape(1, ())]),
    ("rand(1, t0) + rand(1, t0)", [Tape(1, ())]),
    ("1 + 2", [Tape(3, ())]),
    ("rand(2, t0)", [Tape(2, (1,))]),
    ("rand(1, t0)", [Tape(2, (0, 1))]),          # bound mismatch: tape inert
    ("if rand(1, t0) = 0 then rand(1, t1) else 99",
     [Tape(1, ()), Tape(1, ())]),
    ("let x = ref rand(2, t0) in !x + !x", [Tape(2, ())]),
    ("flip()", [Tape(4, ())]),
    ("let l = alloctape(1) in rand(1, l)", [Tape(1, ())]),
    ("rand(3, t0) * rand(3, t0)", [Tape(3, (2, 0))]),
    ("(rec w (u : unit) : bool = w u) ()", [Tape(1, ())]),     # diverges
    ("rand(1, t0) mod 0", [Tape(1, ())]),                      # goes stuck
    ("(rand(1, t0), rand(1, t1))", [Tape(1, ()), Tape(2, ())]),
    ("let _ = rand(1, t1) in rand(2, t0)", [Tape(2, ()), Tape(1, ())]),
    ("let f = fun (u : unit) -> rand(1, t0) in f () + f ()", [Tape(1, (1,))]),
    ("if flip() then rand(1, t0) else rand(1, t0)", [Tape(1, ())]),
    ("let r = ref 0 in (r <- rand(2, t0); !r)", [Tape(2, ())]),
    ("rand(1, t0) + rand(1, t1) + rand(1, t2)",
     [Tape(1, ()), Tape(1, ()), Tape(1, (0,))]),
    ("(rec f (k : int) : int = if k = 0 then 0 else rand(1, t0) + f (k - 1)) 3",
     [Tape(1, ())]),
    ("let k = rand(5, t0) in if k = 5 then rand(1, t1) else k",
     [Tape(5, ()), Tape(1, ())]),
]


def test_c03_erasure_lemma_suite():
    assert len(ERASURE_SUITE) == 20
    with budget(3, 30.0, "ghost tape steps erased on 20 programs x "
                         "depths 0..25 x every seeded tape"):
        for src, tapes in ERASURE_SUITE:
            e = parse(src)
            for name in sorted(free_vars(e)):
                e = subst(e, name, Label(int(name[1:])))
            typecheck(e)
            prog = erase(e)
            state = State((), tuple(enumerate(tapes)))
            for label in range(len(tapes)):
                table = erasure_check_depths(prog, state, label, range(26))
                assert all(table.values()), (src, label, table)


# -- 4: flow checker against the subset-condition oracle ----------------------

def _rand_subdistr(rng, atoms):
    support = rng.sample(atoms, rng.randint(1, min(12, len(atoms))))
    weights = {a: F(rng.randint(1, 8), rng.randint(8, 24)) for a in support}
    total = sum(weights.values())
    if total > 1:
        weights = {a: p * F(rng.randint(1, 4), 4) / total
                   for a, p in weights.items()}
    return SubDistr(weights)


def _relabel(mu, table):
    return SubDistr({table[a]: p for a, p in mu.items()})


def test_c04_flow_checker_vs_oracle():
    rng = random.Random(20260817)
    A = [f"a{i}" for i in range(12)]
    B = [f"b{i}" for i in range(12)]
    to_b = dict(zip(A, B))
    CH = [f"c{i}" for i in range(8)]
    found = {True: 0, False: 0}
    with budget(4, 60.0, "1000 random instances: flow decision == subset "
                         "oracle, witnesses verify, identity extractions"):
        for i in range(1000):
            kind = i % 10
            if kind == 9:
                # shared universe + identity relation: the coupling logic
                # must collapse to plain (in)equality tests
                mu1 = _rand_subdistr(rng, CH)
                mu2 = mu1 if rng.random() < 0.4 else _rand_subdistr(rng, CH)
                rel = Relation.identity_over(CH)
                exact = check_coupling(mu1, mu2, rel)
                partial = check_left_partial(mu1, mu2, rel)
                assert (exact is not None) == (mu1 == mu2)
                assert (partial is not None) == all(
                    mu1.get(a) <= mu2.get(a) for a in mu1.support())
            elif kind == 8:
                # dominated by construction: left-partial must exist
                half = _rand_subdistr(rng, A)
                mu1 = SubDistr({a: p / 2 for a, p in half.items()})
                pad = {to_b[a]: p for a, p in mu1.items()}
                extra = rng.choice(B)
                pad[extra] = pad.get(extra, F(0)) + F(1, 4)
                mu2 = SubDistr(pad)
                pairs = {(a, to_b[a]) for a in mu1.support()}
                pairs |= {(rng.choice(A), rng.choice(B)) for _ in range(4)}
                rel = Relation.from_pairs(pairs)
                exact = check_coupling(mu1, mu2, rel)
                partial = check_left_partial(mu1, mu2, rel)
                assert partial is not None
            elif kind == 7:
                # equal modulo relabeling: exact must exist
                mu1 = _rand_subdistr(rng, A)
                mu2 = _relabel(mu1, to_b)
                pairs = {(a, to_b[a]) for a in mu1.support()}
                pairs |= {(rng.choice(A), rng.choice(B)) for _ in range(3)}
                rel = Relation.from_pairs(pairs)
                exact = check_coupling(mu1, mu2, rel)
                partial = check_left_partial(mu1, mu2, rel)
                assert exact is not None
            else:
                mu1 = _rand_subdistr(rng, A)
                mu2 = _rand_subdistr(rng, B)
                density = rng.choice((0.15, 0.35, 0.6))
                pairs = {(a, b) for a in A for b in B
                         if rng.random() < density}
                rel = Relation(frozenset(A), frozenset(B), frozenset(pairs))
                exact = check_coupling(mu1, mu2, rel)
                partial = check_left_partial(mu1, mu2, rel)

            for mode, w in (("exact", exact), ("left-partial", partial)):
                assert (w is not None) == strassen_oracle(mu1, mu2, rel, mode)
                found[w is not None] += 1
                if w is not None:
                    assert verify_witness(w, mu1, mu2, rel)
                    assert w.mode == mode
        assert found[True] > 100 and found[False] > 100


# -- 5: permutation couplings and their composition ----------------------------

def test_c05_bijection_couplings_compose():
    rng = random.Random(5)
    with budget(5, 10.0, "uniform{0..N} permutation couplings for N <= 6 "
                         "verify and compose through bind"):
        for n in range(7):
            for _ in range(20):
                perm = list(range(n + 1))
                rng.shuffle(perm)
                w = bijection_coupling(n, perm.__getitem__)
                rel = Relation.from_pairs(
                    (i, perm[i]) for i in range(n + 1))
                assert verify_witness(w, uniform(n), uniform(n), rel)
                assert w.left_marginal() == uniform(n)
                assert w.right_marginal() == uniform(n)

                m = rng.randint(0, 6)
                shift = rng.randint(0, m)

                def kern(a, b, m=m, shift=shift):
                    return bijection_coupling(
                        m, lambda i: (i + a + b + shift) % (m + 1))

                comp = couple_bind(w, kern)
                bound = dbind(lambda _: uniform(m), uniform(n))
                assert comp.mode == "exact"
                assert comp.left_marginal() == bound
                assert comp.right_marginal() == bound
                full = Relation.from_pairs(
                    (i, j) for i in range(m + 1) for j in range(m + 1))
                assert verify_witness(comp, bound, bound, full)


# -- 6: distribution monad laws and execution bounds ---------------------------

def test_c06_monad_laws_and_execution_bounds():
    rng = random.Random(6)
    atoms = "uvwxyz"
    with budget(6, 30.0, "monad laws on 500 random distributions; "
                         "exec bounds monotone over the corpus"):
        for _ in range(500):
            mu = _rand_subdistr(rng, list(atoms))
            f = {a: _rand_subdistr(rng, list(atoms)) for a in atoms}
            g = {a: _rand_subdistr(rng, list(atoms)) for a in atoms}
            a0 = rng.choice(atoms)
            assert dbind(f.__getitem__, dret(a0)) == f[a0]
            assert dbind(dret, mu) == mu
            assert dbind(g.__getitem__, dbind(f.__getitem__, mu)) \
                == dbind(lambda a: dbind(g.__getitem__, f[a]), mu)

        for name, _ in list_entries():
            entry = build(name)
            for side in (entry.left_core(), entry.right_core()):
                trace = exec_val_trace(side, EMPTY_STATE, 30)
                for n in range(30):
                    lo, res = trace[n]
                    lo2, res2 = trace[n + 1]
                    assert all(lo.get(v) <= lo2.get(v) for v in lo.support())
                    assert lo.mass() + res <= 1
                # well-typed, tape-free starts: no stuck mass anywhere
                for n in (0, 9, 30):
                    lo, res = trace[n]
                    assert lo.mass() + res == 1

        stuck = exec_val_trace(core("if flip() then 1 else 1 mod 0"),
                               EMPTY_STATE, 12)
        assert stuck[2][0].mass() + stuck[2][1] == 1
        assert stuck[12][0].mass() + stuck[12][1] == F(1, 2)


# -- 7: the public-key game and its reduction ----------------------------------

def test_c07_elgamal_reductions():
    with budget(7, 60.0, "public-key game == reduction shell for p in "
                         "{3,5,7}, both variants, plus the blinding "
                         "bijection"):
        for p in (3, 5, 7):
            for variant in ("elgamal-real", "elgamal-rand"):
                entry = build(variant, {"p": p})
                g, n = entry.params["g"], p - 2
                for rep in probe(entry):
                    assert rep.verdict == "exactly-equal"
                    assert rep.residual1 == 0 and rep.residual2 == 0
                # blinding fact: msg * g^c ranges uniformly, coupled to
                # g^x by shifting the exponent
                msgs = [int(c.name.rsplit("-", 1)[1])
                        for c in entry.contexts]
                for msg in msgs:
                    k = next(e for e in range(n + 1)
                             if pow(g, e, p) == msg % p)
                    w = bijection_coupling(n, lambda x: (x - k) % (n + 1))
                    rel = Relation.from_predicate(
                        range(n + 1), range(n + 1),
                        lambda x, c: pow(g, x, p) == (msg * pow(g, c, p)) % p)
                    assert verify_witness(w, uniform(n), uniform(n), rel)
                    for (x, c), q in w.joint.items():
                        assert q == F(1, n + 1)
                        assert pow(g, x, p) == (msg * pow(g, c, p)) % p


# -- 8: random hash tables, eager vs lazily sampled -----------------------------

def _settled_states(prog):
    # values persist, so the first all-value stratum is the final one
    for out in islice(strata(Config(prog, EMPTY_STATE)), 401):
        if all(is_value(c.expr) for c in out):
            assert sum(out.values()) == 1
            return [(c.expr, c.state) for c in out]
    raise AssertionError("hash constructor did not settle by depth 400")


def test_c08_hash_contexts_and_domain_invariant():
    with budget(8, 120.0, "hash tables equal under query batches; table "
                          "domains stay aligned on every reachable state"):
        for n in (0, 1, 2):
            entry = build("hash", {"n": n})
            for rep in probe(entry):
                assert rep.verdict == "exactly-equal"
                assert rep.residual1 == 0 and rep.residual2 == 0

            full = set(range(n + 1))
            ctxs = [erase(c.expr()) for c in entry.contexts]
            for side, lazy in ((entry.left_core(), False),
                               (entry.right_core(), True)):
                starts = _settled_states(side)
                for value, st in starts:
                    heap = dict(st.heap)
                    if lazy:
                        # two tables: keys -> tapes (filled at birth),
                        # keys -> sampled bits (filled on demand)
                        tm_loc = 0 if assoc_dom(heap[0]) == full else 1
                        assert assoc_dom(heap[tm_loc]) == full
                        assert assoc_dom(heap[1 - tm_loc]) == set()
                    else:
                        assert assoc_dom(heap[0]) == full
                    for ctx in ctxs:
                        start = Config(plug_hole(ctx, value), st)
                        # strata 0..220 hold every configuration
                        # reachable in at most 220 steps
                        for cfg in set().union(*islice(strata(start), 221)):
                            h = dict(cfg.state.heap)
                            if lazy:
                                assert assoc_dom(h[tm_loc]) == full
                                assert assoc_dom(h[1 - tm_loc]) <= full
                            else:
                                assert assoc_dom(h[0]) == full


# -- 9: a random-boolean source is just a bounded flip counter -----------------

def test_c09_hash_rng_vs_bounded_counter():
    entry = build("hash-rng", {"max": 2})
    with budget(9, 60.0, "lazy-hash RNG == counter-bounded flips for up "
                         "to 4 draws; draws past the bound are false"):
        reports = probe(entry)
        for rep in reports:
            assert rep.verdict == "exactly-equal"
            assert rep.residual1 == 0 and rep.residual2 == 0
        # the 4th draw exceeds MAX=2 (draws use keys 0,1,2 then fall off),
        # so every ((r0,r1),(r2,r3)) outcome has r3 = false
        four = reports[[c.name for c in entry.contexts].index("draw-4")]
        assert four.lower1.mass() == 1
        for v in four.lower1.support():
            assert v.right.right == Bool(False)
        assert len(four.lower1.support()) == 8


# -- 10: lazily compared random integers ---------------------------------------

def test_c10_lazy_int_comparison_distribution():
    entry = build("lazy-int")          # 2 digits, base 2
    oracle = SubDistr({Int(-1): F(3, 8), Int(0): F(1, 4), Int(1): F(3, 8)})
    # independent derivation: enumerate all 16 digit assignments
    counts = {-1: 0, 0: 0, 1: 0}
    for x in range(4):
        for y in range(4):
            counts[(x > y) - (x < y)] += 1
    assert SubDistr({Int(c): F(m, 16) for c, m in counts.items()}) == oracle

    names = [c.name for c in entry.contexts]
    with budget(10, 30.0, "lazy and eager integer comparison both hit the "
                          "exact 3/8, 1/4, 3/8 law; self-compare is 0"):
        for side in (entry.left(), entry.right()):
            for cname, expect in (("cmp-fresh", oracle),
                                  ("cmp-self", SubDistr({Int(0): F(1)}))):
                ctx = entry.contexts[names.index(cname)].expr()
                prog = plug_hole(ctx, side)
                typecheck(prog)
                rep = compare_programs(erase(prog), erase(prog),
                                       n=entry.depth)
                assert rep.residual1 == 0
                assert rep.lower1 == expect


# -- 11: where choices live decides what contexts can see ----------------------

def test_c11_choice_placement():
    with budget(11, 60.0, "copying context splits choose-once from "
                          "choose-per-call; one-shot closures diverge "
                          "in lockstep"):
        copying = build("choice-copying")
        names = [c.name for c in copying.contexts]
        reports = probe(copying, n=40)
        assert reports[names.index("call-once")].verdict == "exactly-equal"
        cp = reports[names.index("copying")]
        assert cp.verdict == "distinguished"
        assert cp.lower1 == SubDistr({Bool(True): F(1)})
        assert cp.lower2 == SubDistr({Bool(True): F(1, 2),
                                      Bool(False): F(1, 2)})

        local = build("choice-local")
        names = [c.name for c in local.contexts]
        reports = probe(local, n=60)
        once = reports[names.index("call-once")]
        assert once.verdict == "exactly-equal"
        assert once.residual1 == 0
        assert once.lower1 == SubDistr({Bool(True): F(1, 2),
                                        Bool(False): F(1, 2)})
        twice = reports[names.index("call-twice")]
        assert twice.verdict == "inconclusive"
        assert twice.matched_divergence
        assert twice.stabilized
        assert twice.lower1 == twice.lower2 == SubDistr({})
        assert twice.residual1 == twice.residual2 == 1
