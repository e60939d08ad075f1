"""`SubDistr` construction and mass against a plain `Fraction` reference:
the weights summed outcome by outcome and the mass as
`sum(..., Fraction(0))`, on seeded random inputs."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from tapelang.subdist import SubDistr

# Large primes, so a sum of weights over several of them has a
# denominator far past 64 bits.
PRIMES = [998_244_353, 1_000_000_007, 1_000_000_009, 2 ** 61 - 1,
          2 ** 89 - 1]


def ref_weights(items) -> dict:
    """The weight map a checked constructor must build from items."""
    w = {}
    for a, p in items:
        if p < 0:
            raise ValueError(f"negative weight {p} on {a!r}")
        if p:
            w[a] = w.get(a, Fraction(0)) + Fraction(p)
    if sum(w.values(), Fraction(0)) > 1:
        raise ValueError("total mass exceeds 1")
    return w


def rand_items(rng, full=False):
    """Up to 12 (outcome, weight) items over 6 outcomes, so outcomes
    repeat; weights over large prime and small denominators, some zero,
    some ints, with total mass at most 1 (exactly 1 when full)."""
    n = rng.randrange(0 if not full else 1, 13)
    items = []
    left = Fraction(1)
    for _ in range(n):
        den = rng.choice(PRIMES + [2, 3, 12, 1])
        p = min(left, Fraction(rng.randrange(0, den + 1), den * n))
        if rng.random() < 0.15:
            p = Fraction(0)
        items.append((rng.randrange(6), int(p) if p.denominator == 1 else p))
        left -= p
    if full:
        items.append((rng.randrange(6), left))
    return items


def check_against_reference(mu: SubDistr, items):
    ref = ref_weights(items)
    assert list(mu.items()) == list(ref.items())
    assert all(type(p) is Fraction for _, p in mu.items())
    mass = mu.mass()
    assert type(mass) is Fraction
    assert mass == sum(ref.values(), Fraction(0))
    return mass


@pytest.mark.parametrize("full", [False, True])
def test_construction_and_mass_match_the_fraction_reference(full):
    rng = random.Random(f"subdist/{full}")
    for _ in range(300):
        items = rand_items(rng, full)
        from_list = SubDistr(items)
        from_iter = SubDistr(iter(items))
        last = dict(items)  # a dict keeps each outcome's last weight
        from_dict = SubDistr(last)
        mass = check_against_reference(from_list, items)
        check_against_reference(from_iter, items)
        check_against_reference(from_dict, list(last.items()))
        if full:
            assert mass == 1


def test_int_and_bool_weights_are_stored_as_fractions():
    for mu in (SubDistr({"a": 1}), SubDistr({"a": True}),
               SubDistr([("a", 0), ("b", 1), ("c", False)])):
        assert list(mu.items()) in ([("a", Fraction(1))],
                                    [("b", Fraction(1))])
        assert all(type(p) is Fraction for _, p in mu.items())
        assert type(mu.mass()) is Fraction


@pytest.mark.parametrize("p, q", [(PRIMES[0], PRIMES[1]),
                                  (PRIMES[3], PRIMES[4]),
                                  (PRIMES[2], PRIMES[4])])
def test_mass_one_part_in_p_times_q_over_one_is_refused(p, q):
    """(p-1)/p + (q+1)/(pq) = 1 + 1/(pq): over by one part in about
    2^60 to 2^150."""
    over = [("a", Fraction(p - 1, p)), ("b", Fraction(q + 1, p * q))]
    with pytest.raises(ValueError, match="total mass exceeds 1"):
        SubDistr(over)
    with pytest.raises(ValueError, match="total mass exceeds 1"):
        SubDistr(dict(over))
    split = [("a", Fraction(p - 1, p)), ("a", Fraction(q, p * q))]
    mu = SubDistr(split)  # (p-1)/p + 1/p: exactly 1, on one outcome
    assert list(mu.items()) == [("a", Fraction(1))] and mu.mass() == 1
    with pytest.raises(ValueError, match="total mass exceeds 1"):
        SubDistr(split + [("b", Fraction(1, p * q))])


def test_negative_weight_keeps_its_message():
    with pytest.raises(ValueError, match=r"^negative weight -1/3 on 'x'$"):
        SubDistr({"a": Fraction(1, 3), "x": Fraction(-1, 3)})
    with pytest.raises(ValueError, match=r"^negative weight -1 on 0$"):
        SubDistr([(0, -1)])


def test_empty_distribution_has_fraction_mass_zero():
    for mu in (SubDistr(), SubDistr({}), SubDistr([]),
               SubDistr([("a", 0), ("b", Fraction(0))])):
        assert not mu and mu.mass() == 0 and type(mu.mass()) is Fraction


@pytest.mark.parametrize("weights", [
    {"a": 0.7, "b": 0.3000000000000001},
    {"a": 0.5},
    [("a", Fraction(1, 2)), ("a", 0.25)],
    {"a": Decimal("0.5")},
    {"a": "1/2"},
])
def test_non_rational_weights_raise_type_error(weights):
    items = weights.items() if isinstance(weights, dict) else weights
    p = [p for _, p in items if type(p) is not Fraction][0]
    expected = re.escape(f"weight {p!r} on 'a' is not rational")
    with pytest.raises(TypeError, match=f"^{expected}$"):
        SubDistr(weights)


def test_equals_only_a_subdistr_and_prints_fractions():
    """A dict with the same weights is not a SubDistr, and the repr prints
    each weight in lowest terms."""
    assert (SubDistr({}) == {}) is False
    assert repr(SubDistr({"a": Fraction(1, 2)})) == "SubDistr({'a': 1/2})"
