"""Exact finite sub-distributions over hashable outcomes.

Weights are `fractions.Fraction`s, strictly positive, with total mass at
most 1; mass strictly below 1 is how divergence and stuckness show up.
No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
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
            if p < 0:
                raise ValueError(f"negative weight {p} on {a!r}")
            if p > 0:
                w[a] = w.get(a, ZERO) + p
        if sum(w.values(), ZERO) > 1:
            raise ValueError("total mass exceeds 1")
        self.w = w

    @classmethod
    def unchecked(cls, w: dict[A, Fraction]) -> "SubDistr[A]":
        """Wrap a valid weight map as is: no copy, no checks."""
        mu = cls.__new__(cls)
        mu.w = w
        return mu

    def mass(self) -> Fraction:
        return sum(self.w.values(), ZERO)

    def support(self) -> list[A]:
        return list(self.w)

    def get(self, a: A) -> Fraction:
        return self.w.get(a, ZERO)

    def items(self) -> Iterator[tuple[A, Fraction]]:
        return iter(self.w.items())

    def map(self, fn: Callable[[A], B]) -> "SubDistr[B]":
        out: dict[B, Fraction] = {}
        for a, p in self.w.items():
            b = fn(a)
            out[b] = out.get(b, ZERO) + p
        return SubDistr(out)

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


def frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_frac(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def to_jsonable(mu: SubDistr[A], render_key: Callable[[A], str] = str) -> dict:
    """Deterministic JSON form: outcomes sorted by their rendered key."""
    pairs = sorted(((render_key(a), p) for a, p in mu.items()),
                   key=lambda kp: kp[0])
    return {"mass": frac_str(mu.mass()),
            "weights": {k: frac_str(p) for k, p in pairs}}


def from_jsonable(obj: dict) -> SubDistr[str]:
    """Inverse of to_jsonable over string outcomes."""
    weights = obj["weights"] if "weights" in obj else obj
    return SubDistr({k: parse_frac(v) for k, v in weights.items()})
