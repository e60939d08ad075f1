"""Stratified exact execution: distribution of results after n strata.

`strata` is the one stepping loop: it yields exec_0, exec_1, ... as
distributions over configurations, where exec_n is the recursion `ret`
at values or fuel 0, otherwise `step >>= exec_{n-1}`.  Values persist
where they land; stuck mass drains out at the next stratum.

Every result is a projection of one stratum onto result values (states
dropped) plus the residual non-value mass: `exec_val_bounds` at depth n,
`exec_val_trace` at every depth 0..n.  The value part is a pointwise
lower bound on the limit result distribution, monotone in n, so callers
can report two-sided information at a finite depth.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

from .semantics import Config, step_weights
from .subdist import (  # noqa: F401  (re-exported monad surface)
    SubDistr, dbind, dret, dzero, frac_str, from_jsonable, parse_frac,
    to_jsonable,
)
from .syntax import Expr, is_value

ZERO = Fraction(0)


def strata(config: Config) -> Iterator[dict[Config, Fraction]]:
    """exec_0, exec_1, ...: the configuration distribution at each depth."""
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


def _split(stratum: dict[Config, Fraction]) -> tuple[SubDistr[Expr], Fraction]:
    """(value lower bound, residual non-value mass) of one stratum."""
    values: dict[Expr, Fraction] = {}
    residual = ZERO
    for cfg, p in stratum.items():
        if is_value(cfg.expr):
            values[cfg.expr] = values.get(cfg.expr, ZERO) + p
        else:
            residual += p
    return SubDistr(values), residual


def exec_val_bounds(e: Expr, state, n: int) -> tuple[SubDistr[Expr], Fraction]:
    """(value lower bound, residual non-value mass) at depth n."""
    return _split(next(islice(strata(Config(e, state)), n, None)))


def exec_val_trace(e: Expr, state, n: int) -> list[tuple[SubDistr[Expr], Fraction]]:
    """(lower bound, residual) at every depth 0..n, in one forward pass."""
    return [_split(s) for s in islice(strata(Config(e, state)), n + 1)]


def stabilized(trace: Iterable[tuple[SubDistr[Expr], Fraction]]) -> bool:
    """Detector: value lower bounds and residuals constant across the window."""
    window = list(trace)
    if not window:
        return False
    first = window[0]
    return all(entry == first for entry in window[1:])
