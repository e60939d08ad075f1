"""Stratified exact execution: distribution of results after n strata.

exec_n is `ret` at values or fuel 0, otherwise `step >>= exec_{n-1}`:
values persist where they land and stuck mass drains out at the next
stratum.  `exec_val_trace` projects exec_n onto result values (states
dropped) plus the residual non-value mass, at every depth 0..n; every
caller reads the depths it needs off that one trace.  The value part is
a pointwise lower bound on the limit result distribution, monotone in n.

The trace is one forward pass over per-depth buckets of arriving
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
(lower bound, 0) pair, so the pass stops there and the trace repeats it.
"""

from __future__ import annotations

from fractions import Fraction

from .semantics import Config, step_chain, step_weights
from .subdist import ONE, ZERO, SubDistr
from .syntax import Expr


def exec_val_trace(e: Expr, state, n: int) -> list[tuple[SubDistr[Expr], Fraction]]:
    """(value lower bound, residual non-value mass) at every depth 0..n,
    in one forward pass."""
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    settled: dict[Expr, Fraction] = {}
    memo: dict[Expr, Expr] = {}  # stateless redex -> successor, this pass
    buckets = {0: {Config(e, state): ONE}}  # depth -> arrivals there
    drained: dict[int, Fraction] = {}  # depth -> stuck mass gone there
    residual = ONE
    lower = SubDistr.unchecked({})
    trace = []
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
        if grew:
            lower = SubDistr.unchecked(dict(settled))
        trace.append((lower, residual))
        if not residual:
            break
    return trace + trace[-1:] * (n + 1 - len(trace))
