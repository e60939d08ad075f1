"""Seeded, type-directed random term generation.

Produces closed, well-typed, annotated source terms over unit/bool/
nat/int, products, sums, and arrows.  rand(k) is the one probabilistic
leaf.  By default there are no refs, tapes, or recursion: the point is
structural coverage of decompose/plug/step.

With `effects=True` the terms also contain
  - bounded recursion: `rec f (n : int) : T` applied to 0..2, whose body
    calls f once, on n - 1, under `n <= 0`; the other subterms of the
    body cannot see f, and the closure around the call may rebind f;
  - `rec f (f : int) : T`, whose parameter shadows its own name;
  - a bool reference cell, written and read back: `ref`, `<-` and `!`;
  - binders that reuse a name already in scope, so shadowing nests
    (`fun x -> fun x -> ...`, and the like for let and match);
  - a `match` or an `unpack` whose binder shadows a name y that the
    scrutinee or the packed value reads, with a branch or body that reads
    the new y: the one shape in which substituting for y under the binder
    changes the term.
With `tapes=True` about half of the `rand(k)` leaves, and about half of
the leaves at type nat or int, read the tape labelled 0 at bound
TAPE_BOUND (`Rand(Int(2), Label(0))`), so the program expects a tape 0
in its starting state; a tape at another bound or an empty one falls
back to fresh sampling, and a tape at TAPE_BOUND with samples hands them
out in order.  Now and then a term binds a fresh tape,
`let t = alloctape TAPE_BOUND in ...`, and below it each tape read is
the sum of a read of label 0 and a read of t.
Drawing these takes extra random numbers, so the same seed gives other
programs than without them; with both options off the stream is the
one the generator has always drawn.
"""

import random

from tapelang.semantics import State, Tape
from tapelang.syntax import (Alloc, AllocTape, App, Binop, Bool, Expr, If,
                             Inl, Inr, Int, Label, Load, Match, Pack, Pair,
                             Rand, Rec, Store, TArrow, TBool, TExists, TInt,
                             TNat, TProd, TRef, TSum, TTape, TUnit, Type, Unit,
                             Unpack, Var, Fst, Snd, types_equal)

_BASES = (TUnit(), TBool(), TNat(), TInt())

TAPE_BOUND = 2
# Starting states for `tapes=True` programs: tape 0 holding one sample at
# bound 1 (a bound the reads do not use), tape 0 empty at TAPE_BOUND, and
# tape 0 holding several samples at TAPE_BOUND, which the reads consume.
TAPE0_STATES = (State((), (Tape(1, (1,)),)),
                State((), (Tape(TAPE_BOUND, ()),)),
                State((), (Tape(TAPE_BOUND, (2, 0, 1, 2)),)))


def rand_type(rng: random.Random, depth: int = 2) -> Type:
    if depth <= 0 or rng.random() < 0.45:
        return rng.choice(_BASES)
    pick = rng.randrange(3)
    a = rand_type(rng, depth - 1)
    b = rand_type(rng, depth - 1)
    return (TProd, TSum, TArrow)[pick](a, b)


def _binder(rng: random.Random, env: dict, prefix: str, effects: bool) -> str:
    """A fresh name, or with effects now and then one already in scope."""
    if effects and env and rng.random() < 0.3:
        return rng.choice(sorted(env))
    return f"{prefix}{len(env)}"


def _tape_read(rng: random.Random, env: dict) -> Expr:
    """A read of label 0 at TAPE_BOUND; where the program has bound
    fresh tapes, that read plus a read of one of them."""
    zero = Rand(Int(TAPE_BOUND), Label(0))
    fresh = [x for x in sorted(env) if isinstance(env[x], TTape)]
    if not fresh:
        return zero
    return Binop("+", zero, Rand(Int(TAPE_BOUND), Var(rng.choice(fresh))))


def rand_value(rng: random.Random, ty: Type, env: dict, depth: int,
               effects: bool = False, tapes: bool = False) -> Expr:
    match ty:
        case TUnit():
            return Unit()
        case TBool():
            return Bool(rng.random() < 0.5)
        case TNat():
            return Int(rng.randrange(4))
        case TInt():
            # a negative number as a parsed program writes it: 0 - n
            n = rng.randrange(-3, 4)
            return Int(n) if n >= 0 else Binop("-", Int(0), Int(-n))
        case TProd(a, b):
            return Pair(rand_value(rng, a, env, depth, effects, tapes),
                        rand_value(rng, b, env, depth, effects, tapes))
        case TSum(a, b):
            if rng.random() < 0.5:
                return Inl(rand_value(rng, a, env, depth, effects, tapes), b)
            return Inr(rand_value(rng, b, env, depth, effects, tapes), a)
        case TArrow(a, b):
            x = _binder(rng, env, "v", effects)
            env2 = dict(env)
            env2[x] = a
            return Rec(None, x,
                       rand_term(rng, b, env2, depth - 1, effects, tapes),
                       a, None)
    raise AssertionError(ty)


def rand_term(rng: random.Random, ty: Type, env: dict, depth: int,
              effects: bool = False, tapes: bool = False) -> Expr:
    """A closed term of the given type (given env), annotations included."""
    def sub(t: Type, env2: dict = env) -> Expr:
        return rand_term(rng, t, env2, depth - 1, effects, tapes)

    if depth <= 0:
        if tapes and isinstance(ty, (TNat, TInt)) and rng.random() < 0.5:
            return _tape_read(rng, env)
        hits = [n for n, t in env.items() if types_equal(t, ty)]
        if hits and rng.random() < 0.5:
            return Var(rng.choice(hits))
        return rand_value(rng, ty, env, 0, effects, tapes)

    if tapes and depth >= 2 and rng.random() < 0.2:
        # let t = alloctape TAPE_BOUND in ..., with room for reads of t
        t = f"t{len(env)}"
        inner = dict(env)
        inner[t] = TTape()
        return App(Rec(None, t, sub(ty, inner), TTape(), None),
                   AllocTape(Int(TAPE_BOUND)))
    if effects and rng.random() < 0.2:
        return _rand_effect(rng, ty, env, sub, depth)
    roll = rng.random()
    if roll < 0.18:
        return rand_value(rng, ty, env, depth, effects, tapes)
    if roll < 0.30:  # if
        return If(sub(TBool()), sub(ty), sub(ty))
    if roll < 0.44:  # beta redex / let
        a = rand_type(rng, 1)
        x = _binder(rng, env, "v", effects)
        env2 = dict(env)
        env2[x] = a
        return App(Rec(None, x, sub(ty, env2), a, None), sub(a))
    if roll < 0.54:  # projection
        other = rand_type(rng, 1)
        if rng.random() < 0.5:
            return Fst(sub(TProd(ty, other)))
        return Snd(sub(TProd(other, ty)))
    if roll < 0.66:  # case split
        a = rand_type(rng, 1)
        b = rand_type(rng, 1)
        scrut = sub(TSum(a, b))
        xl = _binder(rng, env, "l", effects)
        xr = _binder(rng, env, "r", effects)
        envl, envr = dict(env), dict(env)
        envl[xl] = a
        envr[xr] = b
        return Match(scrut, xl, sub(ty, envl), xr, sub(ty, envr))
    if isinstance(ty, (TNat, TInt)):
        if roll < 0.78:
            bound = Int(rng.randrange(3))
            if tapes and rng.random() < 0.5:
                return _tape_read(rng, env)
            return Rand(bound, Unit())
        op = rng.choice(("+", "*", "mod") if isinstance(ty, TNat)
                        else ("+", "-", "*", "mod"))
        left = sub(ty)
        right = Int(rng.randrange(1, 4)) if op == "mod" else sub(TNat())
        return Binop(op, left, right)
    if isinstance(ty, TBool) and roll < 0.80:
        op = rng.choice(("=", "<", "<="))
        return Binop(op, sub(TNat()), sub(TNat()))
    return rand_value(rng, ty, env, depth, effects, tapes)


def _rand_effect(rng: random.Random, ty: Type, env: dict, sub,
                 depth: int) -> Expr:
    """Bounded recursion, a parameter shadowing its rec name, a ref cell,
    or a shadowing match or unpack, at type ty; `sub(t, env)` draws a
    subterm."""
    f, n = f"f{len(env)}", f"n{len(env)}"
    # names a term can be drawn at: every type but a ref cell's or a tape's
    plain = [x for x in sorted(env) if not isinstance(env[x], (TRef, TTape))]
    pick = rng.randrange(5 if plain else 3)
    if pick >= 3:
        return _rand_shadowing(rng, ty, env, sub, depth, rng.choice(plain),
                               pick == 3)
    if pick == 0:
        # f stays out of the subterms' scope: the one call to f is on n - 1
        inner = dict(env)
        inner[n] = TInt()
        r = f if rng.random() < 0.5 else f"r{len(inner)}"
        step_env = dict(inner)
        step_env[r] = ty
        call = App(Var(f), Binop("-", Var(n), Int(1)))
        body = If(Binop("<=", Var(n), Int(0)), sub(ty, inner),
                  App(Rec(None, r, sub(ty, step_env), ty, None), call))
        return App(Rec(f, n, body, TInt(), ty), Int(rng.randrange(3)))
    if pick == 1:
        inner = dict(env)
        inner[f] = TInt()
        return App(Rec(f, f, sub(ty, inner), TInt(), ty), Int(rng.randrange(3)))
    # let c = ref b in (c <- b'); if !c then t else t'
    c = f"c{len(env)}"
    cell = dict(env)
    cell[c] = TRef(TBool())
    read = If(Load(Var(c)), sub(ty, cell), sub(ty, cell))
    body = App(Rec(None, "_", read, TUnit(), None),
               Store(Var(c), sub(TBool(), cell)))
    return App(Rec(None, c, body, TRef(TBool()), None), Alloc(sub(TBool())))


def _rand_shadowing(rng: random.Random, ty: Type, env: dict, sub, depth: int,
                    y: str, as_match: bool) -> Expr:
    """`match` or `unpack` rebinding the name y in scope: y occurs free in
    the scrutinee or packed value, and the rebound y is read at once by a
    `let` at the head of the branch or body."""
    t = env[y]
    z = f"v{len(env)}"
    inner = dict(env)
    inner[z] = t
    reads_y = App(Rec(None, z, sub(ty, inner), t, None), Var(y))
    if not as_match:
        # pack[w, exists a. t] (if b then y else e) as a<depth>, y in ...;
        # the depth keeps nested type variables apart
        packed = Pack(If(sub(TBool()), Var(y), sub(t)), rand_type(rng, 1),
                      TExists("a", t))
        return Unpack(packed, f"a{depth}", y, reads_y)
    other = rand_type(rng, 1)
    x = _binder(rng, env, "l", True)
    env_other = dict(env)
    env_other[x] = other
    if rng.random() < 0.5:
        scrut = If(sub(TBool()), Inl(Var(y), other), sub(TSum(t, other)))
        return Match(scrut, y, reads_y, x, sub(ty, env_other))
    scrut = If(sub(TBool()), Inr(Var(y), other), sub(TSum(other, t)))
    return Match(scrut, x, sub(ty, env_other), y, reads_y)


def rand_program(rng: random.Random, depth: int = 4, effects: bool = False,
                 tapes: bool = False) -> tuple[Expr, Type]:
    ty = rand_type(rng, 2)
    return rand_term(rng, ty, {}, depth, effects, tapes), ty


def tape_moves(start: State, configs) -> int:
    """How many of configs have read a sample off one of start's tapes;
    a tape allocated since does not count."""
    n = len(start.tapes)
    return sum(c.state.tapes[:n] != start.tapes for c in configs)


def subterms(e: Expr):
    """Every node of the tree, for decomposition round-trip walks."""
    yield e
    for name in getattr(e, "__dataclass_fields__", {}):
        child = getattr(e, name)
        if isinstance(child, Expr):
            yield from subterms(child)
