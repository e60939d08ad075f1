"""Coupling decision procedure: flow checker vs. independent subset
oracle, witness verification, and the ret/bind/bijection combinators."""

import random
from fractions import Fraction

import pytest

from tapelang.coupling import (CouplingWitness, Relation, bijection_coupling,
                               check_coupling, check_left_partial, couple_bind,
                               couple_ret, strassen_oracle, verify_witness)
from tapelang.subdist import SubDistr, dbind, dret


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
