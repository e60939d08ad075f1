"""Coupling decision procedure: flow checker vs. independent subset
oracle, witness verification, and the ret/bind/bijection combinators."""

import json
import random
from fractions import Fraction

import pytest

from _oracle import ref_solve_flow
from tapelang.cli import run
from tapelang.coupling import (CouplingWitness, Relation, _max_flow,
                               bijection_coupling, check_coupling,
                               check_left_partial, couple_bind, couple_ret,
                               strassen_oracle, verify_witness)
from tapelang.subdist import SubDistr, dbind, dret, to_jsonable


def rand_subdistr(rng, atoms, full_mass=False):
    support = [a for a in atoms if rng.random() < 0.7]
    if not support:
        support = [rng.choice(atoms)]
    nums = [rng.randrange(1, 8) for _ in support]
    den = sum(nums) if full_mass else sum(nums) + rng.randrange(0, 9)
    return SubDistr({a: Fraction(k, den) for a, k in zip(support, nums)})


def rand_relation(rng, left, right, density=0.45):
    pairs = {(a, b) for a in left for b in right if rng.random() < density}
    return Relation(frozenset(left), frozenset(right), frozenset(pairs))


UNIVERSE = [f"u{i}" for i in range(7)]


def test_checker_agrees_with_subset_oracle():
    rng = random.Random(23)
    exercised = {True: 0, False: 0}
    for trial in range(250):
        mu1 = rand_subdistr(rng, UNIVERSE)
        mu2 = rand_subdistr(rng, UNIVERSE)
        rel = rand_relation(rng, UNIVERSE, UNIVERSE)
        for mode, check in (("exact", check_coupling),
                            ("left-partial", check_left_partial)):
            w = check(mu1, mu2, rel)
            assert (w is not None) == strassen_oracle(mu1, mu2, rel, mode)
            if w is not None:
                assert w.mode == mode
                assert verify_witness(w, mu1, mu2, rel)
            exercised[w is not None] += 1
    assert exercised[True] > 20 and exercised[False] > 20


def test_checkers_match_the_recursive_flow():
    """Both checkers' witnesses are the R-edge flows of the recursive
    Dinic they replaced (`_oracle.ref_solve_flow`), compared with `==`.
    Supports have up to 40 integer outcomes, which sort by repr, drawn
    from a relation's sides, so some related pairs fall outside them; a
    planted joint makes half the instances feasible."""
    rng = random.Random(37)
    kinds = ("identity", "band", "threshold", "random")
    exercised = {True: 0, False: 0}
    for trial in range(160):
        n1, n2, k = rng.randint(1, 40), rng.randint(1, 40), rng.randrange(4)
        keep = {"identity": lambda a, b: a == b,
                "band": lambda a, b: abs(a - b) <= k,
                "threshold": lambda a, b: a <= b + k,
                "random": lambda a, b: rng.random() < 0.2}[kinds[trial % 4]]
        rel = Relation(frozenset(range(n1)), frozenset(range(n2)),
                       frozenset((a, b) for a in range(n1)
                                 for b in range(n2) if keep(a, b)))
        if trial % 8 < 4 and rel.pairs:
            planted = rng.sample(sorted(rel.pairs),
                                 rng.randint(1, min(12, len(rel.pairs))))
            joint = CouplingWitness(SubDistr(
                {pair: Fraction(rng.randint(1, 3), 3 * len(planted))
                 for pair in planted}), "exact")
            mu1, mu2 = joint.left_marginal(), joint.right_marginal()
        else:
            mu1 = rand_subdistr(rng, range(n1), full_mass=rng.random() < 0.5)
            mu2 = rand_subdistr(rng, range(n2), full_mass=rng.random() < 0.5)
        flow, flows = ref_solve_flow(mu1, mu2, rel)
        for check in (check_coupling, check_left_partial):
            w = check(mu1, mu2, rel)
            found = flow == mu1.mass() and (check is check_left_partial
                                            or mu1.mass() == mu2.mass())
            assert (w is not None) == found
            assert w is None or list(w.joint.items()) == list(flows.items())
            exercised[found] += 1
    assert exercised[True] > 80 and exercised[False] > 80


def _full_mass(rng, outcomes, heavy=frozenset()):
    """Full-mass weights on `outcomes`, eight times heavier on `heavy`."""
    w = {k: rng.randint(1, 9) * (8 if k in heavy else 1) for k in outcomes}
    return SubDistr({k: Fraction(v, sum(w.values())) for k, v in w.items()})


def _ruled(n1, n2, keep):
    return Relation(frozenset(range(n1)), frozenset(range(n2)),
                    frozenset((a, b) for a in range(n1) for b in range(n2)
                              if keep(a, b)))


def test_checkers_match_the_recursive_flow_at_bench_sizes():
    """The benchmark's shapes at sizes the recursive reference still
    reaches: a feasible dense threshold relation (150 x 150, 11,325
    pairs), a feasible band (300 x 300), and the threshold relation
    with its top quarter S made heavier in mu1 than R(S) is in mu2."""
    rng = random.Random(41)
    threshold = _ruled(150, 150, lambda a, b: a <= b)
    band = _ruled(300, 300, lambda a, b: abs(a - b) <= 2)
    cases = []
    for rel in (threshold, band):
        row = {}
        for a, b in sorted(rel.pairs):
            row.setdefault(a, []).append(b)
        joint = {(a, b): rng.randint(1, 9) for a, bs in row.items()
                 for b in rng.sample(bs, min(2, len(bs)))}
        planted = CouplingWitness(SubDistr(
            {pair: Fraction(k, sum(joint.values()))
             for pair, k in joint.items()}), "exact")
        cases.append((rel, planted.left_marginal(), planted.right_marginal()))
    top = frozenset(range(112, 150))  # S and R(S)
    mu1 = _full_mass(rng, range(150), top)
    mu2 = _full_mass(rng, range(150), frozenset(range(112)))
    assert sum(mu1.get(a) for a in top) > sum(mu2.get(b) for b in top)
    cases.append((threshold, mu1, mu2))
    for (rel, mu1, mu2), feasible in zip(cases, (True, True, False)):
        flow, flows = ref_solve_flow(mu1, mu2, rel)
        assert (flow == mu1.mass()) == feasible
        for check in (check_coupling, check_left_partial):
            w = check(mu1, mu2, rel)
            assert (w is not None) == feasible
            assert w is None or list(w.joint.items()) == list(flows.items())


class _Clash(int):
    """An int outcome whose hash every other one shares."""

    def __hash__(self):
        return 0


def test_witness_does_not_depend_on_the_pair_sets_order():
    """One relation built from its pairs in three shuffled orders gives
    each checker one witness, in one order.  Its outcomes share a hash,
    so its pair set iterates the pairs of each left outcome in an order
    that follows their insertion."""
    rng = random.Random(43)
    outcomes = [_Clash(i) for i in range(30)]
    pairs = [(a, b) for a in outcomes for b in outcomes if rng.random() < 0.4]
    mu1, mu2 = _full_mass(rng, outcomes), _full_mass(rng, outcomes)
    for check in (check_coupling, check_left_partial):
        rows, witnesses = set(), []
        for _ in range(3):
            rng.shuffle(pairs)
            rel = Relation.from_pairs(pairs)
            rows.add(tuple(b for a, b in rel.pairs if a == 0))
            w = check(mu1, mu2, rel)
            assert w is not None
            witnesses.append(list(w.joint.items()))
        assert len(rows) == 3
        assert witnesses[0] == witnesses[1] == witnesses[2]


def test_point_mass_saturates_its_r_edge():
    """With one outcome of weight 1 a side the scale is 1, so the R-edge's
    capacity drops to exactly 0, and the witness still carries it."""
    rel = Relation.from_pairs([("a", "x")])
    for check in (check_coupling, check_left_partial):
        w = check(dret("a"), dret("x"), rel)
        assert w is not None and w.joint == dret(("a", "x"))


def test_large_coprime_denominators_stay_exact():
    """Denominators that are large distinct primes make the scale a
    60-bit and then a 121-bit int; a shortfall of one unit of it must
    still refuse."""
    p1, p2, p3 = 998_244_353, 1_000_000_007, 2 ** 61 - 1
    rel = Relation.from_pairs([("a", "x"), ("a", "y"), ("b", "y")])
    mu1 = SubDistr({"a": Fraction(1, p1), "b": 1 - Fraction(1, p1)})
    mu2 = SubDistr({"x": Fraction(1, p2), "y": 1 - Fraction(1, p2)})
    w = check_coupling(mu1, mu2, rel)
    assert w is not None and verify_witness(w, mu1, mu2, rel)
    assert w.joint == SubDistr({("a", "x"): Fraction(1, p2),
                                ("a", "y"): Fraction(1, p1) - Fraction(1, p2),
                                ("b", "y"): 1 - Fraction(1, p1)})
    one = Relation.from_pairs([("a", "x")])
    low = Fraction(1, p1) - Fraction(1, p2 * p3)
    short = SubDistr({"x": low})
    assert check_left_partial(SubDistr({"a": Fraction(1, p1)}), short,
                              one) is None
    w = check_left_partial(SubDistr({"a": low}), short, one)
    assert w is not None and w.joint == SubDistr({("a", "x"): low})


def test_pairs_outside_the_supports_are_ignored():
    rel = Relation.from_pairs([("a", "x"), ("a", "z"), ("q", "x"),
                               ("b", "z")])
    mu1 = SubDistr({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    mu2 = SubDistr({"x": Fraction(1, 2), "y": Fraction(1, 2)})
    half = SubDistr({"a": Fraction(1, 2)})
    w = check_left_partial(half, mu2, rel)
    assert w is not None and w.joint == SubDistr({("a", "x"): Fraction(1, 2)})
    assert check_left_partial(mu1, mu2, rel) is None
    assert check_coupling(mu1, mu2, rel) is None


def test_empty_left_side_couples_left_partially():
    rel = Relation.from_pairs([("a", "x")])
    w = check_left_partial(SubDistr({}), dret("x"), rel)
    assert w is not None and w.mode == "left-partial" and not w.joint
    assert check_coupling(SubDistr({}), dret("x"), rel) is None


def test_augmenting_path_longer_than_the_recursion_limit(tmp_path):
    """600 outcomes a side, l_i related to b_i and b_(i+1), and b_(i+1)
    sorts before b_i.  The first phase matches each l_i to b_(i+1) and
    leaves l_599 blocked, so the one augmenting path left runs through
    every outcome: 1,201 edges, too deep for a recursive search."""
    n = 600
    left = [f"l{i:05d}" for i in range(n)]
    right = [f"r{n - i:05d}" for i in range(n)]
    rel = Relation.from_pairs((left[i], right[j]) for i in range(n)
                              for j in (i, i + 1) if j < n)
    mu1 = SubDistr({a: Fraction(1, n) for a in left})
    mu2 = SubDistr({b: Fraction(1, n) for b in right})
    w = check_coupling(mu1, mu2, rel)
    assert w is not None and verify_witness(w, mu1, mu2, rel)
    files = []
    for name, obj in (("d1", to_jsonable(mu1)), ("d2", to_jsonable(mu2)),
                      ("rel", {"pairs": sorted(map(list, rel.pairs))})):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps(obj))
    assert run(["couple", *map(str, files)]) == 0


def _rand_network(rng):
    """A random network in `_max_flow`'s layout: edge e runs to to[e]
    with capacity cap[e], its reverse is e ^ 1, adj[u] lists u's edge
    ids in shuffled order; the source is 0 and the sink the last node.
    Some reverse edges have capacity of their own.  Half the networks
    also get a direct source-sink edge and a path through every other
    node, so the first phase saturates the direct edge alone and later
    phases need the longer paths."""
    n = rng.randint(2, 24)
    arcs = []
    if rng.random() < 0.5:
        path = [0, *rng.sample(range(1, n - 1), n - 2), n - 1]
        arcs.append((0, n - 1, rng.randint(1, 5), 0))
        arcs += [(u, v, rng.randint(1, 9), 0) for u, v in zip(path, path[1:])]
    for _ in range(rng.randint(0, 4 * n)):
        u, v = rng.sample(range(n), 2)
        back = rng.randint(0, 12) if rng.random() < 0.2 else 0
        arcs.append((u, v, rng.randint(0, 12), back))
    adj: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, forward, back in arcs:
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += (v, u)
        cap += (forward, back)
    for edges in adj:
        rng.shuffle(edges)
    return adj, to, cap


def test_max_flow_leaves_a_residual_graph_with_a_min_cut():
    """After `_max_flow`, cap holds the residual capacities of a maximum
    flow: each edge pair keeps its total, none is negative, the flow is
    conserved at every inner node and leaves the source as the returned
    value, and the nodes a BFS over cap > 0 reaches from the source miss
    the sink and are the source side S of a cut whose capacity is the
    flow (the min-cut certificate a refutation reads)."""
    rng = random.Random(43)
    multi_phase = 0
    for _ in range(300):
        adj, to, cap = _rand_network(rng)
        s, t = 0, len(adj) - 1
        orig = list(cap)
        flow = _max_flow(adj, to, cap, s, t)
        assert min(cap, default=0) >= 0
        assert all(cap[e] + cap[e ^ 1] == orig[e] + orig[e ^ 1]
                   for e in range(len(cap)))
        out = [sum(orig[e] - cap[e] for e in edges) for edges in adj]
        assert out[s] == flow
        assert out[1:t] == [0] * (t - 1)
        side = {s}
        queue = [s]
        for u in queue:
            for e in adj[u]:
                if cap[e] > 0 and to[e] not in side:
                    side.add(to[e])
                    queue.append(to[e])
        assert t not in side
        assert flow == sum(orig[e] for e in range(len(to))
                           if to[e ^ 1] in side and to[e] not in side)
        direct = sum(orig[e] for e in adj[s] if to[e] == t)
        multi_phase += flow > direct
    assert multi_phase > 100


def test_identity_relation_characterizes_equality():
    rng = random.Random(29)
    ident = Relation.from_pairs((v, v) for v in UNIVERSE)
    for trial in range(120):
        mu1 = rand_subdistr(rng, UNIVERSE)
        mu2 = mu1 if trial % 3 == 0 else rand_subdistr(rng, UNIVERSE)
        coupled = check_coupling(mu1, mu2, ident) is not None
        assert coupled == (mu1 == mu2)
        partial = check_left_partial(mu1, mu2, ident) is not None
        assert partial == all(mu1.get(a) <= mu2.get(a) for a in mu1.support())


def test_exact_requires_equal_masses():
    mu1 = SubDistr({"a": Fraction(1, 2)})
    mu2 = SubDistr({"a": Fraction(3, 4)})
    rel = Relation.from_pairs([("a", "a")])
    assert check_coupling(mu1, mu2, rel) is None
    assert check_left_partial(mu1, mu2, rel) is not None


def test_left_partial_is_oriented():
    mu_small = SubDistr({"a": Fraction(1, 4)})
    mu_big = SubDistr({"a": Fraction(1, 2)})
    rel = Relation.from_pairs([("a", "a")])
    assert check_left_partial(mu_small, mu_big, rel) is not None
    assert check_left_partial(mu_big, mu_small, rel) is None


def test_witness_marginals():
    mu1 = SubDistr({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    mu2 = SubDistr({"x": Fraction(1, 2), "y": Fraction(1, 2)})
    rel = Relation.from_pairs([("a", "x"), ("b", "y"), ("a", "y")])
    w = check_coupling(mu1, mu2, rel)
    assert w is not None
    assert w.left_marginal() == mu1
    assert w.right_marginal() == mu2


def test_verify_rejects_tampered_witnesses():
    mu1 = SubDistr({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    mu2 = SubDistr({"x": Fraction(1, 2), "y": Fraction(1, 2)})
    rel = Relation.from_pairs([("a", "x"), ("b", "y")])
    good = CouplingWitness(SubDistr({("a", "x"): Fraction(1, 2),
                                     ("b", "y"): Fraction(1, 2)}), "exact")
    assert verify_witness(good, mu1, mu2, rel)
    off_relation = CouplingWitness(SubDistr({("a", "y"): Fraction(1, 2),
                                             ("b", "y"): Fraction(1, 2)}),
                                   "exact")
    assert not verify_witness(off_relation, mu1, mu2, rel)
    wrong_marginal = CouplingWitness(SubDistr({("a", "x"): Fraction(3, 4),
                                               ("b", "y"): Fraction(1, 4)}),
                                     "exact")
    assert not verify_witness(wrong_marginal, mu1, mu2, rel)


def test_couple_ret():
    rel = Relation.from_pairs([("a", "x")])
    w = couple_ret("a", "x", rel)
    assert w is not None and w.joint == dret(("a", "x"))
    assert verify_witness(w, dret("a"), dret("x"), rel)
    assert couple_ret("a", "z", rel) is None


def test_couple_bind_composes():
    uni = SubDistr({0: Fraction(1, 2), 1: Fraction(1, 2)})
    rel = Relation.from_pairs((a, 1 - a) for a in range(2))
    w = check_coupling(uni, uni, rel)
    assert w is not None
    # kernel: flip both sides again, related by equality
    inner = Relation.from_pairs((v, v) for v in range(2))

    def kernel(a, b):
        return check_coupling(uni, uni, inner)

    composed = couple_bind(w, kernel)
    assert composed.mode == "exact"
    out1 = dbind(lambda a: uni, uni)
    assert verify_witness(composed, out1, out1,
                          Relation.from_pairs((v, v) for v in range(2)))


def test_couple_bind_mode_propagates():
    uni = SubDistr({0: Fraction(1, 2), 1: Fraction(1, 2)})
    half = SubDistr({0: Fraction(1, 4), 1: Fraction(1, 4)})
    ident = Relation.from_pairs((v, v) for v in range(2))
    w = check_coupling(uni, uni, ident)

    def partial_kernel(a, b):
        return check_left_partial(half, uni, ident)

    composed = couple_bind(w, partial_kernel)
    assert composed.mode == "left-partial"


def test_couple_bind_demands_exact_left_witness():
    uni = SubDistr({0: Fraction(1, 2), 1: Fraction(1, 2)})
    half = SubDistr({0: Fraction(1, 4), 1: Fraction(1, 4)})
    ident = Relation.from_pairs((v, v) for v in range(2))
    partial = check_left_partial(half, uni, ident)
    with pytest.raises(ValueError):
        couple_bind(partial, lambda a, b: couple_ret(a, b, ident))


def test_couple_bind_fails_on_missing_kernel_witness():
    uni = SubDistr({0: Fraction(1, 2), 1: Fraction(1, 2)})
    ident = Relation.from_pairs((v, v) for v in range(2))
    w = check_coupling(uni, uni, ident)
    with pytest.raises(ValueError):
        couple_bind(w, lambda a, b: None)


def test_bijection_coupling():
    w = bijection_coupling(3, lambda x: (x + 1) % 4)
    uni = SubDistr({i: Fraction(1, 4) for i in range(4)})
    rel = Relation.from_pairs((a, b) for a in range(4) for b in range(4)
                              if b == (a + 1) % 4)
    assert verify_witness(w, uni, uni, rel)
    with pytest.raises(ValueError):
        bijection_coupling(3, lambda x: 0)


def test_strassen_rejects_oversized_left_support():
    mu = SubDistr({i: Fraction(1, 16) for i in range(13)})
    rel = Relation.from_pairs((v, v) for v in range(13))
    with pytest.raises(ValueError):
        strassen_oracle(mu, mu, rel)


def test_relation_validation():
    with pytest.raises(ValueError):
        Relation(frozenset("a"), frozenset("x"), frozenset([("a", "q")]))
    rel = Relation.from_pairs((a, b) for a in "ab" for b in "xy")
    assert rel.image({"a"}) == frozenset("xy")
    assert rel.contains("b", "x")


def test_zero_distributions_couple_trivially():
    rel = Relation.from_pairs([("a", "a")])
    w = check_coupling(SubDistr({}), SubDistr({}), rel)
    assert w is not None and w.joint.mass() == 0


def test_unknown_modes_are_refused():
    with pytest.raises(ValueError, match=r"^unknown witness mode 'bogus'$"):
        CouplingWitness(dret(("a", "b")), "bogus")
    mu, rel = dret("a"), Relation.from_pairs([("a", "a")])
    with pytest.raises(ValueError, match=r"^unknown mode 'bogus'$"):
        strassen_oracle(mu, mu, rel, "bogus")
