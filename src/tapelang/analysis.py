"""Desk-scale equivalence analysis: erasure checks and program comparison.

A comparison at depth n sees only lower bounds, so the verdicts are
calibrated to what finite prefixes can actually establish:

  exactly-equal   both residuals are 0 and the value distributions agree
                  — a limit fact, since nothing is left to run;
  distinguished   on some set S of values lower1(S) > lower2(S) +
                  residual2 (or symmetrically; the best S is {v :
                  lower1(v) > lower2(v)}) — sound at any depth against
                  equality of the result distributions, because the right
                  side can never catch up.  That refutes equivalence only
                  where result values are observations (`typecheck.is_ground`:
                  unit, bool, nat, int and products, sums and mu over
                  them); a closure, location or label is compared as
                  syntax, so alpha-equivalent closures are told apart
                  (`check_entry` refuses them);
  left-refines    the left program has terminated fully and sits
                  pointwise below the right lower bound;
  inconclusive    anything else.

Matched divergence (equal value parts, equal residuals, both stable over
a 5-depth window) stays `inconclusive` — the window is evidence, not a
limit proof — but is flagged so callers can report it as such.

Every check reads its depths off one `dist.exec_val_trace` per program
and starting state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dist import exec_val_trace
from .parser import parse
from .semantics import EMPTY_STATE, State, state_step
from .subdist import SubDistr, dbind, to_jsonable
from .syntax import Expr, erase, free_vars, plug_hole, render
from .typecheck import fits, is_ground, typecheck

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

    @property
    def outcome(self) -> str:
        """`diverges-matched` under matched divergence, else the verdict."""
        return "diverges-matched" if self.matched_divergence else self.verdict

    def to_jsonable(self) -> dict:
        return {
            "depth": self.depth,
            "lower1": to_jsonable(self.lower1, render)["weights"],
            "lower2": to_jsonable(self.lower2, render)["weights"],
            "residual1": str(self.residual1),
            "residual2": str(self.residual2),
            "verdict": self.verdict,
            "stabilized": self.stabilized,
            "matched_divergence": self.matched_divergence,
        }


def _excess(mu1: SubDistr, mu2: SubDistr) -> Fraction:
    """Σ_v (mu1(v) − mu2(v))⁺: mu1(S) − mu2(S) at S = {v : mu1(v) > mu2(v)},
    the set on which mu1 exceeds mu2 the most."""
    return sum((p - mu2.get(v) for v, p in mu1.items() if p > mu2.get(v)),
               Fraction(0))


def _verdict(lo1: SubDistr, r1: Fraction, lo2: SubDistr, r2: Fraction) -> str:
    x1, x2 = _excess(lo1, lo2), _excess(lo2, lo1)
    if x1 > r2 or x2 > r1:
        return "distinguished"
    if r1 == 0 and x1 == 0:
        return "exactly-equal" if r2 == 0 and x2 == 0 else "left-refines"
    return "inconclusive"


def compare_programs(e1: Expr, e2: Expr, state: State = EMPTY_STATE,
                     n: int = 50) -> ComparisonReport:
    """Compare result-value lower bounds of two core programs at depth n.

    Runs both to depth n + 4 so the report's stabilization flag covers a
    5-depth window; the reported bounds are the depth-n ones.
    """
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    tr1, tr2 = (exec_val_trace(e, state, n + WINDOW - 1) for e in (e1, e2))
    (lo1, r1), (lo2, r2) = tr1[n], tr2[n]
    stable = all(x == tr[n] for tr in (tr1, tr2) for x in tr[n:])
    settle1, settle2 = (next((d for d, (_, r) in enumerate(tr[:n + 1])
                              if r == 0), None) for tr in (tr1, tr2))
    return ComparisonReport(n, lo1, lo2, r1, r2, _verdict(lo1, r1, lo2, r2),
                            stable, settle1, settle2)


def erasure_check_depths(e: Expr, state: State, label: int,
                         n: int) -> list[bool]:
    """For each depth d in 0..n: does prepending a ghost sampling step on
    tape `label` leave the depth-d result distribution unchanged?

    Reads the law exec_val_trace(e, state, n)[d][0] == state_step(state,
    label) >>= (fun s -> exec_val_trace(e, s, n)[d][0]) with `dbind`,
    exactly, from one trace per starting state.  A trace's lower bound is
    one object across depths where nothing settled, so the `dbind` is made
    again only at depths where a lower bound changed.
    """
    ghost = state_step(state, label)
    traces = {s: exec_val_trace(e, s, n) for s in ghost.support()}
    out, last = [], None
    for d, (lower, _) in enumerate(exec_val_trace(e, state, n)):
        bounds = [lower, *(tr[d][0] for tr in traces.values())]
        if bounds != last:  # `is` first, item by item: repeats cost nothing
            held = dbind(lambda s: traces[s][d][0], ghost) == lower
            last = bounds
        out.append(held)
    return out


def check_entry(entry, depth: int
                ) -> list[tuple[str, str, ComparisonReport, bool]]:
    """Check a corpus entry at `depth`.  Both programs and every extra
    must fit the declared type (else a ValueError naming the entry and
    the program), and each context must hold its `hole` and, plugged
    with either side, typecheck at a ground type (else a ValueError naming
    the entry and the context).  One row per context: its name, its
    expected outcome, the comparison of C[left] with C[right], and whether
    that report's `outcome` is the expected one, with a stable window."""
    want, left, right = entry.type_(), entry.left(), entry.right()
    programs = [(entry.left_name, left), (entry.right_name, right),
                *((name, parse(src)) for name, src in entry.extras.items())]
    for name, e in programs:
        got = typecheck(e)
        if not fits(got, want):
            raise ValueError(f"{entry.name}/{name}: program type "
                             f"{got} does not fit declared {want}")
    rows = []
    for ctx in entry.contexts:
        if "hole" not in free_vars(e := ctx.expr()):  # C[left] is C[right]
            raise ValueError(f"{entry.name}/{ctx.name}: context has no hole")
        c1, c2 = plug_hole(e, left), plug_hole(e, right)
        for c in (c1, c2):
            if not is_ground(ty := typecheck(c)):
                raise ValueError(f"{entry.name}/{ctx.name}: context type "
                                 f"{ty} is not ground")
        rep = compare_programs(erase(c1), erase(c2), EMPTY_STATE, depth)
        rows.append((ctx.name, ctx.expected, rep,
                     rep.outcome == ctx.expected and rep.stabilized))
    return rows


def tv_distance(mu1: SubDistr, mu2: SubDistr) -> Fraction:
    """Total variation, with missing mass charged to a bottom outcome: the
    larger of the two excesses."""
    return max(_excess(mu1, mu2), _excess(mu2, mu1))
