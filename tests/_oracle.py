"""Test-side readings of what the library's results drop.

`strata` is the reference stepping loop: exec_0, exec_1, ... over whole
configuration distributions, re-projected at every depth by `split`.
It is the plain reading of the stratified semantics, with no frontier,
no settled accumulator and no early stop.  Tests use it as the oracle
for `dist.exec_val_trace` and `dist.exec_val_bounds`, and to read
configurations (reachable sets, settled states).  `assoc_dom` reads the
key set of an association-list heap value.
"""

from fractions import Fraction
from typing import Iterator

from tapelang.semantics import Config, step_weights
from tapelang.subdist import SubDistr
from tapelang.syntax import Expr, Fold, Inl, Inr, Int, Pair, is_value

ZERO = Fraction(0)


def strata(config: Config) -> Iterator[dict[Config, Fraction]]:
    """exec_0, exec_1, ...: the configuration distribution at each depth.
    Values persist where they land; stuck mass drains out at the next
    stratum."""
    cur = {config: Fraction(1)}
    while True:
        yield cur
        nxt: dict[Config, Fraction] = {}
        for cfg, p in cur.items():
            if is_value(cfg.expr):
                nxt[cfg] = nxt.get(cfg, ZERO) + p
                continue
            for cfg2, q in step_weights(cfg).items():
                nxt[cfg2] = nxt.get(cfg2, ZERO) + p * q
        cur = nxt


def split(stratum: dict[Config, Fraction]) -> tuple[SubDistr[Expr], Fraction]:
    """(value lower bound, residual non-value mass) of one stratum."""
    values: dict[Expr, Fraction] = {}
    residual = ZERO
    for cfg, p in stratum.items():
        if is_value(cfg.expr):
            values[cfg.expr] = values.get(cfg.expr, ZERO) + p
        else:
            residual += p
    return SubDistr(values), residual


def assoc_dom(value: Expr) -> frozenset[int]:
    """Key set of an association-list value (fold of nil/cons cells)."""
    keys = set()
    while True:
        if not isinstance(value, Fold):
            raise ValueError("not an association list value")
        inner = value.value
        if isinstance(inner, Inl):
            return frozenset(keys)
        if not isinstance(inner, Inr):
            raise ValueError("not an association list value")
        cell = inner.value
        if not (isinstance(cell, Pair) and isinstance(cell.left, Pair)
                and isinstance(cell.left.left, Int)):
            raise ValueError("malformed association list cell")
        keys.add(cell.left.left.n)
        value = cell.right
