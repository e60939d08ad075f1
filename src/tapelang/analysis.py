"""Desk-scale equivalence analysis: erasure checks and program comparison.

A comparison at depth n sees only lower bounds, so the verdicts are
calibrated to what finite prefixes can actually establish:

  exactly-equal   both residuals are 0 and the value distributions agree
                  — a limit fact, since nothing is left to run;
  distinguished   some value v has lower1(v) > lower2(v) + residual2 (or
                  symmetrically) — sound against equality at any depth,
                  because the right side can never catch up;
  left-refines    the left program has terminated fully and sits
                  pointwise below the right lower bound;
  inconclusive    anything else.

Matched divergence (equal value parts, equal residuals, both stable over
a 5-depth window) stays `inconclusive` — the window is evidence, not a
limit proof — but is flagged so callers can report it as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dist import exec_val_trace, stabilized
from .semantics import EMPTY_STATE, State, state_step
from .subdist import SubDistr, frac_str
from .syntax import Expr, erase, plug_hole, render
from .typecheck import typecheck

WINDOW = 5


@dataclass(frozen=True)
class ComparisonReport:
    depth: int
    lower1: SubDistr
    lower2: SubDistr
    residual1: Fraction
    residual2: Fraction
    verdict: str
    stabilized: bool
    # first depth d <= depth with residual 0, else None (not settled)
    settle1: int | None
    settle2: int | None

    @property
    def matched_divergence(self) -> bool:
        """Both sides stuck at the same value distribution and the same
        nonzero residual, stably across the probe window."""
        return (self.verdict == "inconclusive" and self.stabilized
                and self.lower1 == self.lower2
                and self.residual1 == self.residual2)

    def to_jsonable(self) -> dict:
        def dist(mu: SubDistr) -> dict:
            return {render(v): frac_str(p)
                    for v, p in sorted(mu.items(), key=lambda kv: render(kv[0]))}
        return {
            "depth": self.depth,
            "lower1": dist(self.lower1),
            "lower2": dist(self.lower2),
            "residual1": frac_str(self.residual1),
            "residual2": frac_str(self.residual2),
            "verdict": self.verdict,
            "stabilized": self.stabilized,
            "matched_divergence": self.matched_divergence,
        }


def _verdict(lo1: SubDistr, r1: Fraction, lo2: SubDistr, r2: Fraction) -> str:
    support = set(lo1.support()) | set(lo2.support())
    for v in support:
        if lo1.get(v) > lo2.get(v) + r2 or lo2.get(v) > lo1.get(v) + r1:
            return "distinguished"
    if r1 == 0 and r2 == 0 and lo1 == lo2:
        return "exactly-equal"
    if r1 == 0 and all(lo1.get(v) <= lo2.get(v) for v in lo1.support()):
        return "left-refines"
    return "inconclusive"


def compare_programs(e1: Expr, e2: Expr, state: State = EMPTY_STATE,
                     n: int = 50) -> ComparisonReport:
    """Compare result-value lower bounds of two core programs at depth n.

    Runs both to depth n + 4 so the report's stabilization flag covers a
    5-depth window; the reported bounds are the depth-n ones.
    """
    tr1 = exec_val_trace(e1, state, n + WINDOW - 1)
    tr2 = exec_val_trace(e2, state, n + WINDOW - 1)
    lo1, r1 = tr1[n]
    lo2, r2 = tr2[n]
    stable = stabilized(tr1[n:]) and stabilized(tr2[n:])
    settle1, settle2 = (next((d for d, (_, r) in enumerate(tr[:n + 1])
                              if r == 0), None) for tr in (tr1, tr2))
    return ComparisonReport(n, lo1, lo2, r1, r2, _verdict(lo1, r1, lo2, r2),
                            stable, settle1, settle2)


def erasure_check(e: Expr, state: State, label: int, n: int) -> bool:
    """Does prepending a ghost sampling step on tape `label` leave the
    depth-n result distribution unchanged?

    Checks exec_val_bounds(e, state, n)[0] == state_step(state, label) >>=
    (fun s -> exec_val_bounds(e, s, n)[0]), exactly.
    """
    return erasure_check_depths(e, state, label, [n])[n]


def erasure_check_depths(e: Expr, state: State, label: int,
                         depths: Sequence[int]) -> dict[int, bool]:
    """erasure_check at several depths, sharing the forward passes."""
    top = max(depths)
    lhs = exec_val_trace(e, state, top)
    branches = [(p, exec_val_trace(e, s, top))
                for s, p in state_step(state, label).items()]
    out = {}
    for d in depths:
        mixed: dict[Expr, Fraction] = {}
        for p, tr in branches:
            for v, q in tr[d][0].items():
                mixed[v] = mixed.get(v, Fraction(0)) + p * q
        out[d] = SubDistr(mixed) == lhs[d][0]
    return out


def refinement_probe(e1: Expr, e2: Expr, contexts: Sequence[Expr],
                     n: int = 50) -> list[ComparisonReport]:
    """Compare C[e1] against C[e2] for each one-hole context C.

    Both plugged programs are typechecked before erasure, so a context
    that does not fit the common type raises rather than reporting.
    Distinguished entries are sound counterexamples to equivalence; the
    rest of the list is finite-depth evidence only.
    """
    reports = []
    for ctx in contexts:
        c1, c2 = plug_hole(ctx, e1), plug_hole(ctx, e2)
        typecheck(c1)
        typecheck(c2)
        reports.append(compare_programs(erase(c1), erase(c2), EMPTY_STATE, n))
    return reports


def check_entry(entry, depth: int
                ) -> list[tuple[str, str, ComparisonReport, bool]]:
    """Probe a corpus entry with its context family at `depth`.  One row
    per context: its name, its expected outcome, the report, and whether
    the report meets the expectation, i.e. matched divergence for
    `diverges-matched`, else the expected verdict with a stable window."""
    reports = refinement_probe(entry.left(), entry.right(),
                               [ctx.expr() for ctx in entry.contexts], depth)
    rows = []
    for ctx, rep in zip(entry.contexts, reports):
        if ctx.expected == "diverges-matched":
            ok = rep.matched_divergence
        else:
            ok = rep.verdict == ctx.expected and rep.stabilized
        rows.append((ctx.name, ctx.expected, rep, ok))
    return rows


def tv_distance(mu1: SubDistr, mu2: SubDistr) -> Fraction:
    """Total variation, with missing mass charged to a bottom outcome."""
    support = set(mu1.support()) | set(mu2.support())
    gap = sum((abs(mu1.get(v) - mu2.get(v)) for v in support), Fraction(0))
    return (gap + abs(mu1.mass() - mu2.mass())) / 2
