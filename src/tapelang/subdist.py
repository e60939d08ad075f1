"""Exact finite sub-distributions over hashable outcomes.

Weights are `fractions.Fraction`s, strictly positive, with total mass at
most 1; mass strictly below 1 is how divergence and stuckness show up.
Only rational weights are taken (an int is stored as a `Fraction`; a
float raises `TypeError`), so no floats anywhere.  The mass is one
integer sum over the weights' common denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Callable, Generic, Hashable, Iterable, Iterator, TypeVar

A = TypeVar("A", bound=Hashable)
B = TypeVar("B", bound=Hashable)

ONE = Fraction(1)
ZERO = Fraction(0)


class SubDistr(Generic[A]):
    """Immutable map from outcomes to positive rational weights, mass <= 1."""

    __slots__ = ("w",)

    def __init__(self, weights: dict[A, Fraction] | Iterable[tuple[A, Fraction]] = ()):
        w: dict[A, Fraction] = {}
        items = weights.items() if isinstance(weights, dict) else weights
        for a, p in items:
            if type(p) is not Fraction:
                if not isinstance(p, Rational):
                    raise TypeError(f"weight {p!r} on {a!r} is not rational")
                p = Fraction(p)
            if p.numerator < 0:
                raise ValueError(f"negative weight {p} on {a!r}")
            if p.numerator:
                q = w.get(a)
                w[a] = p if q is None else q + p
        if _mass(w) > 1:
            raise ValueError("total mass exceeds 1")
        self.w = w

    @classmethod
    def unchecked(cls, w: dict[A, Fraction]) -> "SubDistr[A]":
        """Wrap a valid weight map as is: no copy, no checks."""
        mu = cls.__new__(cls)
        mu.w = w
        return mu

    def mass(self) -> Fraction:
        return _mass(self.w)

    def support(self) -> list[A]:
        return list(self.w)

    def get(self, a: A) -> Fraction:
        return self.w.get(a, ZERO)

    def items(self) -> Iterator[tuple[A, Fraction]]:
        return iter(self.w.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubDistr):
            return NotImplemented
        return self.w == other.w

    def __hash__(self):
        return hash(frozenset(self.w.items()))

    def __len__(self) -> int:
        return len(self.w)

    def __bool__(self) -> bool:
        return bool(self.w)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a!r}: {p}" for a, p in self.w.items())
        return f"SubDistr({{{inner}}})"


def _mass(w: dict) -> Fraction:
    """The sum of w's weights: their numerators over one common
    denominator, added as ints."""
    den = lcm(*[p.denominator for p in w.values()])
    return Fraction(sum(p.numerator * (den // p.denominator)
                        for p in w.values()), den)


def dret(a: A) -> SubDistr[A]:
    """Point mass."""
    return SubDistr({a: ONE})


def dzero() -> SubDistr[A]:
    """The zero sub-distribution."""
    return SubDistr({})


def dbind(f: Callable[[A], SubDistr[B]], mu: SubDistr[A]) -> SubDistr[B]:
    """Monadic bind: weight of b is sum over a of mu(a) * f(a)(b)."""
    out: dict[B, Fraction] = {}
    for a, p in mu.items():
        for b, q in f(a).items():
            out[b] = out.get(b, ZERO) + p * q
    return SubDistr(out)


_FRAC = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_frac(s: str) -> Fraction:
    """`num/den` or `num` in ASCII digits, num optionally `-`, nothing but
    whitespace around; else a ValueError that names the weight."""
    m = _FRAC.fullmatch(s.strip())
    if m is None:
        raise ValueError(f"weight {s!r} is not num/den or num")
    num, den = m.groups("1")
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {s!r}") from exc
    except ValueError:  # more digits than int() converts
        digits = max(len(num.lstrip("-")), len(den))
        raise ValueError(f"weight too long ({digits} digits)") from None


def to_jsonable(mu: SubDistr[A], render_key: Callable[[A], str] = str) -> dict:
    """Deterministic JSON form: outcomes sorted by their rendered key;
    outcomes that render alike share one key, their weights summed."""
    weights: dict[str, Fraction] = {}
    for a, p in mu.items():
        k = render_key(a)
        weights[k] = weights.get(k, ZERO) + p
    return {"mass": str(mu.mass()),
            "weights": {k: str(weights[k]) for k in sorted(weights)}}


def from_jsonable(obj) -> SubDistr[str]:
    """Inverse of to_jsonable over string outcomes; a ValueError unless
    obj is `{"weights": {outcome: "num/den", ...}}`."""
    weights = obj.get("weights") if isinstance(obj, dict) else None
    if not (isinstance(weights, dict)
            and all(isinstance(v, str) for v in weights.values())):
        raise ValueError('expected {"weights": {outcome: "num/den", ...}}')
    return SubDistr({k: parse_frac(v) for k, v in weights.items()})
