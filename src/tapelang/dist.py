"""Stratified exact execution: distribution of results after n strata.

exec_n is `ret` at values or fuel 0, otherwise `step >>= exec_{n-1}`:
values persist where they land and stuck mass drains out at the next
stratum.  `exec_val_bounds` projects exec_n onto result values (states
dropped) plus the residual non-value mass; `exec_val_trace` does so at
every depth 0..n.  The value part is a pointwise lower bound on the limit
result distribution, monotone in n.

Both run `_settle`, one forward pass over per-depth buckets of arriving
configurations, with the settled value mass kept apart.  A value
settles the first time it is reached, so a lower bound is built only at
depths where new mass settled.  A non-value is stepped once with
`step_weights`; where that gives one successor that is not a value, the
deterministic chain from it runs ahead in `semantics.step_chain` until
it branches, reaches a value, gets stuck or reaches depth n, and only
its end, plugged and hashed, goes into the bucket of its arrival depth.
Chains are shared within one depth, so branches that converge onto one
configuration there run its chain once.  The chains of one pass also
share a bounded memo of the successors of β, `match` and `unpack`
redexes (see `semantics.step_chain`), so branches that reach the same
redex substitute into it once; nothing of it outlives the pass.  Mass
inside a chain sits in no bucket, so the residual is 1 minus the settled
mass minus the drained mass, exactly; stuck mass drains one depth after
it got stuck.  Once the residual is 0 every later depth is the same
(lower bound, 0) pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .semantics import Config, step_chain, step_weights
from .subdist import SubDistr
from .syntax import Expr

ZERO = Fraction(0)


def _settle(config: Config, n: int
            ) -> Iterator[tuple[dict[Expr, Fraction], bool, Fraction]]:
    """Depths 0, 1, ... of exec from `config`, at most n: the settled value
    mass (one dict, updated in place), whether it grew at this depth, and
    the residual.  Ends after the first depth with residual 0."""
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    settled: dict[Expr, Fraction] = {}
    memo: dict[Expr, Expr] = {}  # stateless redex -> successor, this pass
    buckets = {0: {config: Fraction(1)}}  # depth -> arrivals there
    drained: dict[int, Fraction] = {}  # depth -> stuck mass gone there
    residual = Fraction(1)
    for depth in range(n + 1):
        grew = False
        chains: dict[Config, tuple[int, list[tuple[Config, Fraction]]]] = {}
        if depth in drained:
            residual -= drained.pop(depth)
        for cfg, p in buckets.pop(depth, {}).items():
            if cfg.expr._isval:
                v = cfg.expr
                settled[v] = settled[v] + p if v in settled else p
                residual -= p
                grew = True
                continue
            if depth == n:
                continue
            out, arrive = step_weights(cfg), depth + 1
            if len(out) == 1:
                (start, _), = out  # a deterministic step, weight 1
                if not start.expr._isval:
                    if start not in chains:
                        chains[start] = step_chain(start, n - arrive, memo)
                    k, out = chains[start]
                    arrive += k
            if not out:
                drained[arrive] = drained.get(arrive, ZERO) + p
                continue
            bucket = buckets.setdefault(arrive, {})
            for cfg2, q in out:
                pq = p if q == 1 else p * q
                bucket[cfg2] = bucket[cfg2] + pq if cfg2 in bucket else pq
        yield settled, grew, residual
        if not residual:
            return


def exec_val_bounds(e: Expr, state, n: int) -> tuple[SubDistr[Expr], Fraction]:
    """(value lower bound, residual non-value mass) at depth n."""
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
