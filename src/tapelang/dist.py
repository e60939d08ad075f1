"""Stratified exact execution: distribution of results after n strata.

exec_n is `ret` at values or fuel 0, otherwise `step >>= exec_{n-1}`:
values persist where they land and stuck mass drains out at the next
stratum.  `exec_val_bounds` projects exec_n onto result values (states
dropped) plus the residual non-value mass; `exec_val_trace` does so at
every depth 0..n.  The value part is a pointwise lower bound on the limit
result distribution, monotone in n.

Both run `_settle`, one forward pass that keeps the frontier of non-value
configurations apart from the settled value mass.  A value leaves the
frontier the first time it is reached, so a lower bound is built only at
depths where new mass settled, and once the frontier is empty every
later depth is the same (lower bound, 0) pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .semantics import Config, step_weights
from .subdist import (  # noqa: F401  (re-exported monad surface)
    SubDistr, dbind, dret, dzero, frac_str, from_jsonable, parse_frac,
    to_jsonable,
)
from .syntax import Expr, is_value

ZERO = Fraction(0)


def _settle(config: Config, n: int
            ) -> Iterator[tuple[dict[Expr, Fraction], bool, Fraction]]:
    """Depths 0, 1, ... of exec from `config`, at most n: the settled value
    mass (one dict, updated in place), whether it grew at this depth, and
    the residual.  Ends after the first depth with residual 0."""
    settled: dict[Expr, Fraction] = {}
    arrivals = {config: Fraction(1)}
    for depth in range(n + 1):
        frontier, residual, grew = {}, ZERO, False
        for cfg, p in arrivals.items():
            if is_value(cfg.expr):
                settled[cfg.expr] = settled.get(cfg.expr, ZERO) + p
                grew = True
            else:
                frontier[cfg] = p
                residual += p
        yield settled, grew, residual
        if not frontier or depth == n:
            return
        arrivals = {}
        for cfg, p in frontier.items():
            for cfg2, q in step_weights(cfg).items():
                arrivals[cfg2] = arrivals.get(cfg2, ZERO) + p * q


def exec_val_bounds(e: Expr, state, n: int) -> tuple[SubDistr[Expr], Fraction]:
    """(value lower bound, residual non-value mass) at depth n."""
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    for settled, _, residual in _settle(Config(e, state), n):
        pass
    return SubDistr.unchecked(settled), residual


def exec_val_trace(e: Expr, state, n: int) -> list[tuple[SubDistr[Expr], Fraction]]:
    """(lower bound, residual) at every depth 0..n, in one forward pass."""
    trace = []
    lower = SubDistr.unchecked({})
    for settled, grew, residual in _settle(Config(e, state), n):
        if grew:
            lower = SubDistr.unchecked(dict(settled))
        trace.append((lower, residual))
    return trace + trace[-1:] * (n + 1 - len(trace))


def stabilized(trace: Iterable[tuple[SubDistr[Expr], Fraction]]) -> bool:
    """Detector: value lower bounds and residuals constant across the window."""
    window = list(trace)
    return bool(window) and all(entry == window[0] for entry in window[1:])
