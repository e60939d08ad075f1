"""Small-step operational semantics with heaps and presampling tapes.

One step of a configuration is an exact sub-distribution over successor
configurations: a rule lists where a head steps, and `step_chain` gives
a step's n successors 1/n each.  Only `rand(N)` branches: it pops the
head of a matching non-empty tape or else draws afresh, N+1 ways.  No
rule reads a type annotation, so a term steps as its erasure does.
`state_step` is the ghost move that appends one uniformly sampled value
to a chosen tape without touching the program.

Evaluation contexts are stated once, in the table `EVAL_ORDER`: for each
node type, the fields that are evaluated, right to left.  In
applications the argument is evaluated before the function, in stores
the value before the location, in labeled `rand` the label before the
bound, and pairs and binary operators evaluate the right operand first
as well.  A frame is a (node, field position) pair, the node with a hole
at that field; `decompose` walks the table down to the head position and
`plug` refills the holes on the way back up.  The reduction rules are
stated once, in `_RULES`, one per head form, which `_head_step` reads by
the head's type; where no rule applies (a value, a stuck term) there are
no successors.  The operator rule reads what an operator computes from
the tables `INT_OPS` and `COMPARABLE` that the typechecker reads too.
`step_chain` runs them along a deterministic chain, keeping the frame
stack from one head step to the next, and owns the memo of stateless
redexes; `step_weights` is that chain cut at one step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .subdist import SubDistr
from .syntax import (
    COMPARABLE, INT_OPS, Alloc, AllocTape, App, Binop, Bool, Expr, Fold, Fst,
    If, Inl, Inr, Int, Label, Load, Loc, Match, Pack, Pair, Rand, Rec, Snd,
    Store, TApp, TLam, Unfold, Unit, Unpack, node, subst,
)


@node
class Tape:
    bound: int
    values: tuple[int, ...]


@node
class State:
    """Immutable heap + tape store.  Locations and labels are allocated in
    order from 0 and never freed, so each store is a tuple indexed by them;
    the setters take an allocated key or the next one, `len(...)`."""
    heap: tuple[Expr, ...] = ()
    tapes: tuple[Tape, ...] = ()

    def heap_get(self, loc: int) -> Optional[Expr]:
        return self.heap[loc] if 0 <= loc < len(self.heap) else None

    def heap_set(self, loc: int, value: Expr) -> "State":
        return State(self.heap[:loc] + (value,) + self.heap[loc + 1:],
                     self.tapes)

    def tape_get(self, label: int) -> Optional[Tape]:
        return self.tapes[label] if 0 <= label < len(self.tapes) else None

    def tape_set(self, label: int, tape: Tape) -> "State":
        return State(self.heap,
                     self.tapes[:label] + (tape,) + self.tapes[label + 1:])


EMPTY_STATE = State()


@node
class Config:
    expr: Expr
    state: State


# ---------------------------------------------------------------------------
# Evaluation contexts

# The context grammar, one row per node with evaluated subterms: the Expr
# fields in evaluation order (right to left).  Every other field is inert.
EVAL_ORDER: dict[type, tuple[str, ...]] = {
    App: ("arg", "fn"),
    TApp: ("fn",),
    If: ("cond",),
    Fst: ("pair",),
    Snd: ("pair",),
    Pair: ("right", "left"),
    Inl: ("value",),
    Inr: ("value",),
    Fold: ("value",),
    Pack: ("value",),
    Match: ("scrutinee",),
    Unfold: ("value",),
    Unpack: ("packed",),
    Alloc: ("init",),
    Load: ("ref",),
    Store: ("value", "ref"),
    AllocTape: ("bound",),
    Rand: ("label", "bound"),
    Binop: ("right", "left"),
}

# EVAL_ORDER with each field name paired with its constructor position
_HOLES = {cls: tuple((cls._fields.index(name), name) for name in order)
          for cls, order in EVAL_ORDER.items()}

# A frame is a node with a hole at the field of the given constructor
# position; a context is a frame stack, outermost frame first.
Frame = tuple[Expr, int]


def plug(frames: Sequence[Frame], e: Expr) -> Expr:
    """Rebuild a term from a frame stack (outermost frame first)."""
    for outer, i in reversed(frames):
        args = [*outer._args(outer)]
        args[i] = e
        e = type(outer)(*args)
    return e


def decompose(e: Expr) -> tuple[list[Frame], Expr]:
    """Unique decomposition into evaluation context and head: (frames,
    head) with plug(frames, head) == e.  The walk descends into the first
    non-value field that EVAL_ORDER lists for the node; a node whose
    listed fields are all values is the head.  A value is its own head
    with no frames.  Whether a rule applies at the head is `_head_step`'s
    question alone."""
    frames: list[Frame] = []
    while True:
        for i, name in _HOLES.get(type(e), ()):
            sub = getattr(e, name)
            if not sub._isval:
                frames.append((e, i))
                e = sub
                break
        else:
            return frames, e


# ---------------------------------------------------------------------------
# Head reductions


def _beta(rec: Rec, arg: Expr) -> Expr:
    """rec's body with arg for its parameter, then rec for its name where
    still free there; a nameless closure's name, None, is free nowhere."""
    body = subst(rec.body, rec.param, arg)
    return subst(body, rec.fname, rec) if rec.fname in body._fv else body


Steps = list[tuple[Expr, State]]  # where a head steps: (term, store) pairs


def _match(r: Match, state: State) -> Steps:
    v = r.scrutinee
    if type(v) is Inl:
        return [(subst(r.left_body, r.left_var, v.value), state)]
    if type(v) is Inr:
        return [(subst(r.right_body, r.right_var, v.value), state)]
    return []


def _load(r: Load, state: State) -> Steps:
    v = state.heap_get(r.ref.index) if type(r.ref) is Loc else None
    return [] if v is None else [(v, state)]


def _store(r: Store, state: State) -> Steps:
    if type(r.ref) is not Loc or state.heap_get(r.ref.index) is None:
        return []
    return [(Unit(), state.heap_set(r.ref.index, r.value))]


def _alloc_tape(r: AllocTape, state: State) -> Steps:
    if type(r.bound) is not Int or r.bound.n < 0:
        return []
    lbl = len(state.tapes)
    return [(Label(lbl), state.tape_set(lbl, Tape(r.bound.n, ())))]


def _rand(r: Rand, state: State) -> Steps:
    b, lbl = r.bound, r.label
    tape = state.tape_get(lbl.index) if type(lbl) is Label else None
    if type(b) is not Int or b.n < 0 or type(lbl) is not Unit and tape is None:
        return []
    if tape is not None and tape.bound == b.n and tape.values:
        popped = state.tape_set(lbl.index, Tape(b.n, tape.values[1:]))
        return [(Int(tape.values[0]), popped)]
    # unlabeled, an empty tape, or one of another bound: draw afresh
    return [(Int(i), state) for i in range(b.n + 1)]


def _binop(r: Binop, state: State) -> Steps:
    """What an operator computes, from `COMPARABLE` and `INT_OPS`; none for
    `=` at unlike or incomparable values, others at non-integers, `mod 0`."""
    op, a, b = r.op, r.left, r.right
    if op == "=":
        ok = type(a) is type(b) and type(a) in COMPARABLE.values()
        return [(Bool(a == b), state)] if ok else []
    if not (type(a) is Int and type(b) is Int):
        return []
    if op not in INT_OPS:
        raise ValueError(f"unknown operator {op!r}")
    fn, result = INT_OPS[op]
    try:
        return [(COMPARABLE[result](fn(a.n, b.n)), state)]
    except ZeroDivisionError:  # mod 0
        return []


# The reduction rules, one per head form: a rule takes the head and the
# store and lists where the head steps, nowhere where it does not apply.
_RULES = {
    App: lambda r, s: [(_beta(r.fn, r.arg), s)] if type(r.fn) is Rec else [],
    TApp: lambda r, s: [(r.fn.body, s)] if type(r.fn) is TLam else [],
    If: lambda r, s: ([(r.then if r.cond.b else r.orelse, s)]
                      if type(r.cond) is Bool else []),
    Fst: lambda r, s: [(r.pair.left, s)] if type(r.pair) is Pair else [],
    Snd: lambda r, s: [(r.pair.right, s)] if type(r.pair) is Pair else [],
    Unfold: lambda r, s: [(r.value.value, s)] if type(r.value) is Fold else [],
    Unpack: lambda r, s: ([(subst(r.body, r.var, r.packed.value), s)]
                          if type(r.packed) is Pack else []),
    Alloc: lambda r, s: [(Loc(len(s.heap)), s.heap_set(len(s.heap), r.init))],
    Match: _match, Load: _load, Store: _store,
    AllocTape: _alloc_tape, Rand: _rand, Binop: _binop,
}


def _head_step(r: Expr, state: State) -> Steps:
    """Where a head position steps: empty when no rule applies.  No rule
    reads or rewrites a type annotation."""
    rule = _RULES.get(type(r))
    return [] if rule is None else rule(r, state)


# The head forms whose one rule reads no state (β, `match` and `unpack`):
# the successor of such a redex is the successor of every redex `==` it.
_STATELESS = (App, Match, Unpack)
# The most successors a memo holds; a full memo is cleared.
_MEMO_BOUND = 128
_ONE = Fraction(1)


def step_chain(config: Config, budget: int, memo: dict[Expr, Expr]
               ) -> tuple[int, list[tuple[Config, Fraction]]]:
    """Run a deterministic chain ahead: step `config` while it has exactly
    one successor, at most `budget` times.  Returns (k, out), out the
    configurations k steps on with their weights: the n successors of a
    branching step, where a rule lists where the head steps and they get
    1/n each (only `rand` branches, uniformly, to distinct integers), the
    one configuration the chain reached (a value, or the last within the
    budget), or none when the chain got stuck, its mass draining at step
    k.  A stateless redex's successor is read from `memo` (which a caller
    may share between chains), or kept there once its rule has applied;
    redexes are interned, so a lookup hashes and compares by identity,
    however tall the redex.
    Inside the chain the frame stack is kept across head steps
    (refocusing): a head that steps to a non-value is decomposed in place,
    one that steps to a value is plugged into the innermost frame and that
    node re-tested.  Only the chain's end is plugged into a configuration."""
    frames, head = decompose(config.expr)
    state = config.state
    for k in range(1, budget + 1):
        stateless = type(head) in _STATELESS
        e = memo.get(head) if stateless else None
        if e is None:
            succ = _head_step(head, state)
            if stateless and succ:  # kept even at the budget's end
                if len(memo) >= _MEMO_BOUND:
                    memo.clear()
                memo[head] = succ[0][0]
            if len(succ) != 1 or k == budget:
                w = Fraction(1, len(succ)) if len(succ) > 1 else _ONE
                return k, [(Config(plug(frames, e2), s2), w)
                           for e2, s2 in succ]
            e, state = succ[0]
        elif k == budget:
            return k, [(Config(plug(frames, e), state), _ONE)]
        while e._isval and frames:
            e = plug((frames.pop(),), e)
        if e._isval:
            return k, [(Config(e, state), _ONE)]
        inner, head = decompose(e)
        frames += inner
    return 0, [(config, _ONE)]


def step_weights(config: Config) -> list[tuple[Config, Fraction]]:
    """The one-step successors of a configuration, n of them 1/n each,
    where a rule lists where the head steps; none for values and stuck
    ones: `step_chain` cut at one step, with a memo of its own."""
    return step_chain(config, 1, {})[1]


def state_step(state: State, label: int) -> SubDistr[State]:
    """Ghost tape extension: append one uniform sample to the named tape."""
    tape = state.tape_get(label)
    if tape is None:
        raise ValueError(f"state_step: no tape with label {label}")
    w = Fraction(1, tape.bound + 1)
    out: dict[State, Fraction] = {}
    for n in range(tape.bound + 1):
        s2 = state.tape_set(label, Tape(tape.bound, tape.values + (n,)))
        out[s2] = w
    return SubDistr(out)

