"""Seeded inputs for the benchmark workloads.

Everything here is plain data built from a `random.Random`; nothing
imports tapelang except the coupling generator, which must hand the
checker `SubDistr` and `Relation` objects.  The same seed always gives
the same inputs (`canonical_*` serialise them for the self-tests).

- `DIVERGE_PAIRS`: fixed program pairs whose residual mass never reaches
  0, each compared at three fixed depths (`diverge_probes`).
- `frontend_programs`: well-typed annotated sources, each with the type
  the typechecker must synthesise, below the recursion threshold.
- `deep_programs`: the same chain shapes nested 300 to 3000 deep, which
  the recursive passes cannot handle yet.
- `coupling_specs` / `coupling_instance`: distribution pairs with a
  relation, half feasible (built from a known joint) and half infeasible
  (a planted set S with mu1(S) > mu2(R(S))).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

# -- diverge -----------------------------------------------------------------

_GEO_ARG = "(rec f (n : int) : int = if flip() then n else f (n + 1)) 0"
_GEO_REF = ("let c = ref 0 in (rec g (u : unit) : int = "
            "if flip() then !c else (c <- !c + 1; g ())) ()")
_GEO_TAPE = ("let t = alloctape 1 in (rec f (n : int) : int = "
             "if rand(1, t) = 0 then n else f (n + 1)) 0")
_WALK_ARG = ("(rec w (x : int) : int -> int = fun (s : int) -> "
             "if x = 0 then s else w (if flip() then x + 1 else x - 1) (s + 1)"
             ") 1 0")
_WALK_REF = ("let x = ref (2 - 1) in let s = ref 0 in "
             "(rec w (u : unit) : int = if !x = 0 then !s else "
             "(s <- !s + 1; (if flip() then x <- !x + 1 else x <- !x - 1); "
             "w ())) ()")
_DIGIT_ARG = ("(rec f (n : int) : int = "
              "if flip() then n * 10 + rand(9) else f (n + 1)) 0")
_DIGIT_REF = ("let c = ref 0 in (rec g (u : unit) : int = "
              "if flip() then !c * 10 + rand(9) else (c <- !c + 1; g ())) ()")
_DIGIT_TAPE = ("let t = alloctape 9 in (rec f (n : int) : int = "
               "if flip() then n * 10 + rand(9, t) else f (n + 1)) 0")

# name -> (left source, right source, depth)
DIVERGE_PAIRS = {
    "geometric/arg-vs-ref": (_GEO_ARG, _GEO_REF, 200),
    "geometric/arg-vs-tape": (_GEO_ARG, _GEO_TAPE, 200),
    "walk/arg-vs-ref": (_WALK_ARG, _WALK_REF, 150),
    "digits/arg-vs-ref": (_DIGIT_ARG, _DIGIT_REF, 100),
    "digits/arg-vs-tape": (_DIGIT_ARG, _DIGIT_TAPE, 100),
}


def diverge_probes() -> dict[str, tuple[str, str, int]]:
    """Each pair at a third, two thirds and all of its depth: 15 short
    operations, each timed many times in a run, so that the batch's
    median does not rest on one long operation timed once or twice."""
    return {f"{name}@{depth * k // 3}": (left, right, depth * k // 3)
            for name, (left, right, depth) in DIVERGE_PAIRS.items()
            for k in (1, 2, 3)}


# -- frontend ------------------------------------------------------------------

NAT, INT, BOOL, UNIT = ("nat",), ("int",), ("bool",), ("unit",)
_ATOM, _PROD, _SUM, _ARROW, _TOP = 4, 3, 2, 1, 0

DEEP_NESTINGS = (300, 500, 1000, 3000)
_RANDOM_MAX_DEPTH = 30


def type_text(t: tuple, want: int = _TOP) -> str:
    """Concrete syntax of a type, parenthesised like `render_type`."""
    if len(t) == 1:
        return t[0]
    op, a, b = t
    if op == "*":
        s, level = f"{type_text(a, _PROD)} * {type_text(b, _ATOM)}", _PROD
    elif op == "+":
        s, level = f"{type_text(a, _SUM)} + {type_text(b, _PROD)}", _SUM
    else:
        s, level = f"{type_text(a, _SUM)} -> {type_text(b, _ARROW)}", _ARROW
    return s if level >= want else f"({s})"


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    type_text: str  # what typecheck must synthesise, as render_type prints it
    nesting: int  # nesting depth of the chain, or the random term's depth cap


class _TermGen:
    """Type-directed random terms whose synthesised type is exactly the
    requested one (no nat/int joins anywhere), so the expected type is
    known without running the typechecker."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.fresh = 0

    def var(self) -> str:
        self.fresh += 1
        return f"v{self.fresh}"

    def small_type(self, depth: int = 1) -> tuple:
        r = self.rng.random()
        if depth <= 0 or r < 0.55:
            return self.rng.choice((NAT, INT, BOOL, UNIT))
        op = self.rng.choice(("*", "+", "->"))
        return (op, self.small_type(depth - 1), self.small_type(depth - 1))

    def leaf(self, ty: tuple, env: dict) -> str:
        rng = self.rng
        hits = [x for x, t in env.items() if t == ty]
        if hits and rng.random() < 0.5:
            return rng.choice(hits)
        if ty == NAT:
            return str(rng.randrange(10))
        if ty == INT:
            return f"({rng.randrange(10)} - {rng.randrange(10)})"
        if ty == BOOL:
            return rng.choice(("true", "false"))
        if ty == UNIT:
            return "()"
        op, a, b = ty
        if op == "*":
            return f"({self.leaf(a, env)}, {self.leaf(b, env)})"
        if op == "+":
            if rng.random() < 0.5:
                return f"(inl[{type_text(b)}] {self.leaf(a, env)})"
            return f"(inr[{type_text(a)}] {self.leaf(b, env)})"
        x = self.var()
        return (f"(fun ({x} : {type_text(a)}) -> "
                f"{self.leaf(b, {**env, x: a})})")

    def term(self, ty: tuple, size: int, env: dict, depth: int = 0) -> str:
        if size <= 1 or depth >= _RANDOM_MAX_DEPTH:
            return self.leaf(ty, env)
        rng = self.rng
        d = depth + 1
        left = rng.randint(1, size - 1)
        right = size - 1 - left
        choices = ["let", "if", "app", "match", "proj"]
        if ty in (NAT, INT):
            choices += ["arith"] * 3
        if ty == BOOL:
            choices += ["cmp"] * 2
        if len(ty) == 3:
            choices += [{"*": "pair", "+": "inj", "->": "fun"}[ty[0]]] * 3
        pick = rng.choice(choices)
        if pick == "arith":
            if ty == NAT:
                op = rng.choice(("+", "*"))
                return (f"({self.term(NAT, left, env, d)} {op} "
                        f"{self.term(NAT, right, env, d)})")
            return (f"({self.term(INT, left, env, d)} - "
                    f"{self.term(rng.choice((NAT, INT)), right, env, d)})")
        if pick == "cmp":
            if rng.random() < 0.5:
                return (f"({self.term(INT, left, env, d)} < "
                        f"{self.term(INT, right, env, d)})")
            return (f"({self.term(NAT, left, env, d)} = "
                    f"{self.term(NAT, right, env, d)})")
        if pick == "pair":
            _, a, b = ty
            return (f"({self.term(a, left, env, d)}, "
                    f"{self.term(b, right, env, d)})")
        if pick == "inj":
            _, a, b = ty
            if rng.random() < 0.5:
                return f"(inl[{type_text(b)}] {self.term(a, size - 1, env, d)})"
            return f"(inr[{type_text(a)}] {self.term(b, size - 1, env, d)})"
        if pick == "fun":
            _, a, b = ty
            x = self.var()
            return (f"(fun ({x} : {type_text(a)}) -> "
                    f"{self.term(b, size - 1, {**env, x: a}, d)})")
        if pick == "let":
            a = self.small_type()
            x = self.var()
            return (f"(let {x} = {self.term(a, left, env, d)} in "
                    f"{self.term(ty, right, {**env, x: a}, d)})")
        if pick == "if":
            third = max(1, size // 3)
            return (f"(if {self.term(BOOL, third, env, d)} then "
                    f"{self.term(ty, third, env, d)} else "
                    f"{self.term(ty, max(1, size - 1 - 2 * third), env, d)})")
        if pick == "app":
            a = self.small_type()
            x = self.var()
            return (f"((fun ({x} : {type_text(a)}) -> "
                    f"{self.term(ty, left, {**env, x: a}, d)}) "
                    f"{self.term(a, right, env, d)})")
        if pick == "match":
            a, b = self.small_type(), self.small_type()
            x, y = self.var(), self.var()
            third = max(1, size // 3)
            scrut = self.term(("+", a, b), third, env, d)
            return (f"(match {scrut} with inl {x} -> "
                    f"{self.term(ty, third, {**env, x: a}, d)} | inr {y} -> "
                    f"{self.term(ty, max(1, size - 1 - 2 * third), {**env, y: b}, d)}"
                    f" end)")
        other = self.small_type()
        if rng.random() < 0.5:
            return (f"(fst ({self.term(ty, left, env, d)}, "
                    f"{self.term(other, right, env, d)}))")
        return (f"(snd ({self.term(other, left, env, d)}, "
                f"{self.term(ty, right, env, d)}))")


def _let_chain(rng: random.Random, n: int) -> tuple[str, str]:
    """let x0 = k in let x1 = x0 op k in ... in x(n-1)"""
    parts = [f"let x0 = {rng.randrange(10)} in"]
    ty = NAT
    for i in range(1, n):
        op = rng.choice(("+", "*", "-"))
        if op == "-":
            ty = INT
        parts.append(f"let x{i} = x{i - 1} {op} {rng.randrange(10)} in")
    parts.append(f"x{n - 1}")
    return " ".join(parts), type_text(ty)


def _arith_chain(rng: random.Random, n: int) -> tuple[str, str]:
    """k0 op k1 op ... with n terms, left-nested n deep."""
    out = [str(rng.randrange(10))]
    ty = NAT
    for _ in range(n - 1):
        op = rng.choice(("+", "*", "-"))
        if op == "-":
            ty = INT
        out += [op, str(rng.randrange(10))]
    return " ".join(out), type_text(ty)


def _pair_nest(rng: random.Random, n: int) -> tuple[str, str]:
    """(a0, (a1, ... (a(n-1), ()) ...)) nested n deep."""
    src, ty = "()", "unit"
    for i in range(n):
        leaf, leaf_ty = rng.choice(((str(rng.randrange(10)), "nat"),
                                    (rng.choice(("true", "false")), "bool")))
        src = f"({leaf}, {src})"
        ty = f"{leaf_ty} * {ty if i == 0 else f'({ty})'}"
    return src, ty


def _fun_nest(rng: random.Random, n: int) -> tuple[str, str]:
    """(fun (x0 : int) -> ... -> x0 - x(n-1)) applied to n arguments."""
    params = [rng.choice((NAT, INT)) for _ in range(n)]
    head = " ".join(f"fun (x{i} : {type_text(t)}) ->"
                    for i, t in enumerate(params))
    args = " ".join(str(rng.randrange(10)) for _ in range(n))
    return f"({head} x0 - x{n - 1}) {args}", "int"


def _inj_nest(rng: random.Random, n: int) -> tuple[str, str]:
    """inl[..] (inr[..] (...)) nested n deep around a literal."""
    src, ty, is_sum = str(rng.randrange(10)), "nat", False
    for _ in range(n):
        other = rng.choice(("nat", "bool", "unit"))
        if rng.random() < 0.5:  # the left operand of + needs no parentheses
            src, ty = f"inl[{other}] ({src})", f"{ty} + {other}"
        else:
            src = f"inr[{other}] ({src})"
            ty = f"{other} + {f'({ty})' if is_sum else ty}"
        is_sum = True
    return src, ty


def _match_nest(rng: random.Random, n: int) -> tuple[str, str]:
    """match inl[nat] k with inl x -> (match ...) | inr y -> y end, n deep."""
    src = str(rng.randrange(10))
    for i in range(n):
        side = rng.choice(("inl", "inr"))
        src = (f"match {side}[nat] {rng.randrange(10)} with "
               f"inl a{i} -> ({src}) | inr b{i} -> b{i} end")
    return src, "nat"


CHAINS = {
    "let": _let_chain, "arith": _arith_chain, "pair": _pair_nest,
    "fun": _fun_nest, "inj": _inj_nest, "match": _match_nest,
}
# Deepest nesting generated per chain shape: about half the depth at which
# the first recursive pass overflows Python's default recursion limit
# (let 165, arith 522, pair 81, fun 165, inj 75, match 39 on CPython 3.11),
# so traced runs, whose wrappers add frames, stay below it too.
MAX_NESTING = {"let": 80, "arith": 250, "pair": 40, "fun": 80, "inj": 35,
               "match": 20}
# With the 42 corpus sources, a frontend batch has 100 programs.
RANDOM_TERMS = 34
CHAINS_PER_SHAPE = 4


# A random term's source length varies by about 15% at a given node count,
# and its parse and typecheck cost by about 10% more at a given length.  So
# a random term is a let chain of pieces of at most PIECE nodes, each drawn
# again until its length is within LENGTH_SLACK of CHARS_PER_NODE per node:
# the cost of a sum of many pieces varies little from seed to seed, and the
# batch's percentiles do not move with the seed.
PIECE = 100
CHARS_PER_NODE = 15.5
LENGTH_SLACK = 0.1


def _piece(terms: _TermGen, ty: tuple, size: int, env: dict) -> str:
    target = CHARS_PER_NODE * size
    fresh = terms.fresh
    while True:
        src = terms.term(ty, size, env)
        if abs(len(src) - target) <= LENGTH_SLACK * target:
            return src
        terms.fresh = fresh  # a redraw reuses the variable names


def _random_term(rng: random.Random, size: int) -> tuple[str, tuple]:
    """About `size` nodes: ceil(size / PIECE) pieces, all but the last
    bound by a let, and the type of the last one."""
    terms = _TermGen(rng)
    ty = terms.small_type(2)
    k = math.ceil(size / PIECE)
    n = max(1, (size - (k - 1)) // k)
    env: dict = {}
    binds = []
    for _ in range(k - 1):
        a = terms.small_type()
        x = terms.var()
        binds.append(f"let {x} = {_piece(terms, a, n, env)} in ")
        env = {**env, x: a}
    body = _piece(terms, ty, n, env)
    return (f"({''.join(binds)}{body})" if binds else body), ty


def frontend_programs(seed: int) -> list[Program]:
    """RANDOM_TERMS random terms of about 50 to 3000 nodes plus
    CHAINS_PER_SHAPE chains of each shape nested from 10 to the shape's
    MAX_NESTING, all below the recursion threshold."""
    rng = random.Random(f"frontend/{seed}")
    out = []
    for i, size in enumerate(log_spaced(50, 3000, RANDOM_TERMS)):
        src, ty = _random_term(rng, size)
        out.append(Program(f"random/{i}", src, type_text(ty),
                           _RANDOM_MAX_DEPTH))
    for shape, make in CHAINS.items():
        for i, n in enumerate(log_spaced(10, MAX_NESTING[shape],
                                         CHAINS_PER_SHAPE)):
            src, ty = make(rng, n)
            out.append(Program(f"{shape}/{i}", src, ty, n))
    return out


def deep_programs(seed: int) -> list[Program]:
    """let, arith and pair chains at each of DEEP_NESTINGS."""
    rng = random.Random(f"deep/{seed}")
    out = []
    for n in DEEP_NESTINGS:
        for shape in ("let", "arith", "pair"):
            src, ty = CHAINS[shape](rng, n)
            out.append(Program(f"{shape}/{n}", src, ty, n))
    return out


def canonical_programs(programs: list[Program]) -> bytes:
    return "\n".join(f"{p.name}\t{p.nesting}\t{p.type_text}\t{p.source}"
                     for p in programs).encode()


# -- coupling ------------------------------------------------------------------

RELATION_KINDS = ("identity", "permutation", "threshold", "band", "sparse")
MAX_SUPPORT = 400
COUPLING_SIZES = 20  # 20 sizes x 5 kinds x 2 = 200 instances


@dataclass(frozen=True)
class CouplingInstance:
    name: str
    kind: str
    feasible: bool
    mu1: object  # SubDistr over ints
    mu2: object
    rel: object  # Relation
    planted: frozenset  # the violating left set, empty when feasible


def log_spaced(lo: int, hi: int, count: int) -> list[int]:
    """`count` integers from lo to hi, evenly spaced on a log scale.  Input
    sizes follow such fixed schedules, so every seed does the same amount
    of work and only the contents vary."""
    step = math.log(hi / lo) / (count - 1)
    return [round(lo * math.exp(i * step)) for i in range(count)]


def _partners(kind: str, n1: int, n2: int, rng: random.Random,
              width: int, perm: list[int]) -> dict[int, list[int]]:
    """Right partners of every left outcome under one relation kind."""
    if kind == "identity":
        return {a: [a] for a in range(n1)}
    if kind == "permutation":
        return {a: [perm[a]] for a in range(n1)}
    if kind == "threshold":  # b's rank is at least a's rank
        return {a: [b for b in range(n2) if b * (n1 - 1) >= a * (n2 - 1)]
                for a in range(n1)}
    if kind == "band":  # b within `width` of a's rescaled position
        out = {}
        for a in range(n1):
            c = (a * (n2 - 1) + (n1 - 1) // 2) // (n1 - 1)
            out[a] = [b for b in range(max(0, c - width),
                                       min(n2, c + width + 1))]
        return out
    return {a: sorted(rng.sample(range(n2), rng.randint(1, min(5, n2))))
            for a in range(n1)}


def _weights(rng: random.Random, keys, heavy: frozenset, boost: int) -> dict:
    return {k: rng.randint(1, 9) * (boost if k in heavy else 1) for k in keys}


def _normalise(w: dict) -> dict:
    total = sum(w.values())
    return {k: Fraction(v, total) for k, v in w.items()}


def coupling_instance(seed: int, spec: CouplingSpec) -> CouplingInstance:
    """The instance of `spec` for `seed`, with supports {0..n1-1} and
    {0..n2-1}.  It depends on no other instance, so each can be built just
    before it is used."""
    from tapelang.coupling import Relation
    from tapelang.subdist import SubDistr

    rng = random.Random(f"coupling/{seed}/{spec.name}")
    name, kind, feasible = spec.name, spec.kind, spec.feasible
    n1, n2 = spec.n1, spec.n2
    if kind in ("identity", "permutation"):
        n2 = n1
    perm = list(range(n2))
    rng.shuffle(perm)
    partners = _partners(kind, n1, n2, rng, spec.width, perm)
    planted: frozenset = frozenset()
    if feasible:
        joint = {}
        for a in range(n1):
            for b in rng.sample(partners[a], min(len(partners[a]),
                                                 rng.randint(1, 2))):
                joint[(a, b)] = rng.randint(1, 9)
        joint = _normalise(joint)
        w1, w2 = {}, {}
        for (a, b), p in joint.items():
            w1[a] = w1.get(a, 0) + p
            w2[b] = w2.get(b, 0) + p
    else:
        planted, image = _plant(rng, kind, n1, n2, partners)
        # S heavy on the left, R(S) light on the right, until the subset
        # condition fails for S.
        boost = 2
        while True:
            w1 = _normalise(_weights(rng, range(n1), planted, boost))
            heavy_right = frozenset(range(n2)) - image
            w2 = _normalise(_weights(rng, range(n2), heavy_right, boost))
            if sum(w1[a] for a in planted) > sum(w2[b] for b in image):
                break
            boost *= 2
    pairs = frozenset((a, b) for a in range(n1) for b in partners[a])
    rel = Relation(frozenset(range(n1)), frozenset(range(n2)), pairs)
    return CouplingInstance(name, kind, feasible, SubDistr(w1), SubDistr(w2),
                            rel, planted)


def _plant(rng: random.Random, kind: str, n1: int, n2: int,
           partners: dict[int, list[int]]) -> tuple[frozenset, frozenset]:
    """A left set S whose image R(S) misses part of the right support,
    narrowing `partners` where the relation kind leaves no such S."""
    if kind in ("identity", "permutation"):
        s = frozenset({rng.randrange(n1)})
    elif kind == "threshold":  # the top quarter of the left support
        # A fixed share: the checker's time grows several-fold as S
        # shrinks, which would make the batch's time swing with the seed.
        s = frozenset(range(n1 - max(1, n1 // 4), n1))
    elif kind == "band":  # a short left interval
        lo = rng.randrange(n1)
        s = frozenset(range(lo, min(n1, lo + rng.randint(1, 3))))
    else:
        s = frozenset(rng.sample(range(n1), min(n1, rng.randint(1, 3))))
    image = frozenset(b for a in s for b in partners[a])
    if len(image) == n2:  # everything reachable: confine S to one side
        keep = rng.randrange(n2)
        for a in s:
            partners[a] = [keep]
        image = frozenset({keep})
    return s, image


@dataclass(frozen=True)
class CouplingSpec:
    """The shape of one coupling instance; `coupling_instance` fills it
    in from the seed."""
    name: str
    kind: str
    feasible: bool
    n1: int
    n2: int
    width: int  # band half-width


def coupling_specs() -> list[CouplingSpec]:
    """Every relation kind, feasible and infeasible, at each of
    COUPLING_SIZES log-spaced left supports from 2 to MAX_SUPPORT; the
    right support is half, equal to or double the left one, in turn."""
    out = []
    for j, n1 in enumerate(log_spaced(2, MAX_SUPPORT, COUPLING_SIZES)):
        n2 = min(MAX_SUPPORT, max(2, (n1 // 2, n1, 2 * n1)[j % 3]))
        for kind in RELATION_KINDS:
            for feasible in (True, False):
                name = (f"{kind}/{'feasible' if feasible else 'infeasible'}"
                        f"/{n1}x{n2}")
                out.append(CouplingSpec(name, kind, feasible, n1, n2,
                                        1 + j % 3))
    return out


def canonical_instances(instances: list[CouplingInstance]) -> bytes:
    def dist(mu) -> str:
        return " ".join(f"{a}:{p}" for a, p in sorted(mu.items()))
    lines = []
    for inst in instances:
        lines.append(f"{inst.name}|{dist(inst.mu1)}|{dist(inst.mu2)}|"
                     f"{sorted(inst.rel.pairs)}|{sorted(inst.planted)}")
    return "\n".join(lines).encode()
