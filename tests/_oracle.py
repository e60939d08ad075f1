"""Test-side readings of what the library's results drop.

`strata` is the reference stepping loop: exec_0, exec_1, ... over whole
configuration distributions, re-projected at every depth by `split`.
It is the plain reading of the stratified semantics, with no frontier,
no settled accumulator and no early stop.  Tests use it as the oracle
for `dist.exec_val_trace`, and to read configurations (reachable sets,
settled states).  `assoc_dom` reads the key set of an association-list
heap value.

`ref_step_weights` is the step relation as it was written before the
redex test and the reduction rules were merged into one function: a
`ref_decompose` that classifies each term as a value, a redex or stuck
by `_head_redex`, then `_head_step` and `_binop` on redexes only.  The
four are kept verbatim, but that `_head_step`'s typed rules substitute a
type into annotations with `ref_tsubst_expr`, since `syntax.tsubst`
works in a type only, and that it beta-reduces with `_ref_beta`, built
from `ref_subst`, rather than with `semantics._beta`.  `strata` steps with it, so the trace oracle
checks `semantics.step_weights` against that relation as well.
`ref_sample` walks it one step at a time, a draw only where a step
branches: the reference for `tapelang sample`, which runs whole chains.

`ref_fits` is the structural nat <= int subtyping check that
`typecheck.fits` replaced with a reading of `_bound`.

`ref_is_value`, `ref_free_vars` and `ref_subst` are the plain recursive
readings of `syntax.is_value`, `free_vars` and `subst`: no facts kept
per node, and a substitution that rebuilds every node it visits.  Tests
use them as the oracle for the facts each node gets when it is built and
for the sharing `subst`.

`ref_free_tvars`, `ref_tsubst_type`, `ref_types_equal` (with
`ref_alpha_eq`), `ref_tsubst_expr` and `ref_erase` are the hand-written
recursions, one per binding operation, that `syntax` replaced with walks
over its binding tables; they are kept verbatim, renamed.  `syntax` no
longer substitutes into a term's annotations at all, so `ref_tsubst_expr`
is compared with nothing there.

`ref_solve_flow` is the coupling network's max flow as it was before
`coupling._max_flow`: Dinic with a recursive path search (`_RefFlowNet`),
over R-edges found by testing every pair of left support x right
support.  Both are kept verbatim, renamed.  The recursion is one frame
per edge of an augmenting path, so only small supports may be used.

`ref_tokenize` is the lexer as it was before the parser kept its tokens
in flat lists of kinds, texts and offsets: a `Token` tuple per token
with the line and column counted newline by newline as it lexes.  Its
regular expression, `_REF_TOKEN`, has a group for newlines of its own.
Both are kept verbatim, renamed.
"""

import dataclasses
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple, Optional, Union

from tapelang.coupling import Relation
from tapelang.parser import KEYWORDS, PUNCT, ParseError
from tapelang.semantics import Config, Frame, State, Tape, _HOLES, plug
from tapelang.subdist import SubDistr
from tapelang.syntax import (Alloc, AllocTape, App, Binop, Bool, Expr, Fold,
                             Fst, If, Inl, Inr, Int, Label, Load, Loc, Match,
                             Pack, Pair, Rand, Rec, Snd, Store, TApp, TArrow,
                             TExists, TForall, TInt, TLam, TMu, TNat, TProd,
                             TRef, TSum, TVar, Type, Unfold, Unit, Unpack, Var,
                             render, subst, types_equal)

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
            if ref_is_value(cfg.expr):
                nxt[cfg] = nxt.get(cfg, ZERO) + p
                continue
            for cfg2, q in ref_step_weights(cfg).items():
                nxt[cfg2] = nxt.get(cfg2, ZERO) + p * q
        cur = nxt


def split(stratum: dict[Config, Fraction]) -> tuple[SubDistr[Expr], Fraction]:
    """(value lower bound, residual non-value mass) of one stratum."""
    values: dict[Expr, Fraction] = {}
    residual = ZERO
    for cfg, p in stratum.items():
        if ref_is_value(cfg.expr):
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


def ref_is_value(e: Expr) -> bool:
    match e:
        case Int() | Bool() | Unit() | Loc() | Label() | Rec() | TLam():
            return True
        case Pair(a, b):
            return ref_is_value(a) and ref_is_value(b)
        case Inl(v, _) | Inr(v, _) | Fold(v, _) | Pack(v, _, _):
            return ref_is_value(v)
        case _:
            return False


def ref_free_vars(e: Expr) -> frozenset[str]:
    match e:
        case Var(x):
            return frozenset((x,))
        case Rec(f, x, body, _, _):
            return ref_free_vars(body) - {f, x}
        case Match(s, lv, lb, rv, rb):
            return (ref_free_vars(s) | (ref_free_vars(lb) - {lv})
                    | (ref_free_vars(rb) - {rv}))
        case Unpack(p, _, x, body):
            return ref_free_vars(p) | (ref_free_vars(body) - {x})
        case _:
            out: frozenset[str] = frozenset()
            for f in dataclasses.fields(e):
                child = getattr(e, f.name)
                if isinstance(child, Expr):
                    out |= ref_free_vars(child)
            return out


def ref_subst(e: Expr, name: str, value: Expr) -> Expr:
    """Substitute the closed value for every free occurrence of name."""
    match e:
        case Var(x):
            return value if x == name else e
        case Rec(f, x, body, pt, rt):
            if name in (x, f):
                return e
            return Rec(f, x, ref_subst(body, name, value), pt, rt)
        case Match(s, lv, lb, rv, rb):
            s2 = ref_subst(s, name, value)
            lb2 = lb if lv == name else ref_subst(lb, name, value)
            rb2 = rb if rv == name else ref_subst(rb, name, value)
            return Match(s2, lv, lb2, rv, rb2)
        case Unpack(p, tv, x, body):
            p2 = ref_subst(p, name, value)
            body2 = body if x == name else ref_subst(body, name, value)
            return Unpack(p2, tv, x, body2)
        case _:
            changes = {}
            for f in dataclasses.fields(e):
                v = getattr(e, f.name)
                if isinstance(v, Expr):
                    v2 = ref_subst(v, name, value)
                    if v2 is not v:
                        changes[f.name] = v2
            return dataclasses.replace(e, **changes) if changes else e


@dataclass(frozen=True)
class DecompValue:
    pass


@dataclass(frozen=True)
class DecompStuck:
    frames: tuple[Frame, ...]
    subterm: Expr


@dataclass(frozen=True)
class DecompRedex:
    frames: tuple[Frame, ...]
    redex: Expr


Decomposition = Union[DecompValue, DecompStuck, DecompRedex]

_COMPARABLE = (Int, Bool, Unit, Loc, Label)


def _head_redex(e: Expr) -> bool:
    """Is a head position (all evaluated subterms are values) a redex, i.e.
    does some reduction rule apply to it syntactically?"""
    match e:
        case App(fn, _):
            return isinstance(fn, Rec)
        case TApp(fn, _):
            return isinstance(fn, TLam)
        case If(c, _, _):
            return isinstance(c, Bool)
        case Fst(p) | Snd(p):
            return isinstance(p, Pair)
        case Match(s, _, _, _, _):
            return isinstance(s, (Inl, Inr))
        case Unfold(v):
            return isinstance(v, Fold)
        case Unpack(p, _, _, _):
            return isinstance(p, Pack)
        case Alloc(_):
            return True
        case Load(r):
            return isinstance(r, Loc)
        case Store(r, _):
            return isinstance(r, Loc)
        case AllocTape(b):
            return isinstance(b, Int) and b.n >= 0
        case Rand(b, lab):
            return (isinstance(b, Int) and b.n >= 0
                    and isinstance(lab, (Unit, Label)))
        case Binop(op, a, b):
            if op == "=":
                return (type(a) is type(b) and isinstance(a, _COMPARABLE))
            if op == "mod":
                return (isinstance(a, Int) and isinstance(b, Int) and b.n != 0)
            return isinstance(a, Int) and isinstance(b, Int)
    return False


def ref_decompose(e: Expr) -> Decomposition:
    """Unique decomposition into evaluation context and redex.

    Returns DecompValue for values, DecompRedex(frames, r) when the head
    position admits a reduction rule, and DecompStuck otherwise (e.g.
    `fst true`).  plug(frames, r) rebuilds e exactly.  The walk descends
    into the first non-value field that EVAL_ORDER lists for the node; a
    node whose listed fields are all values is the head position.
    """
    if e._isval:
        return DecompValue()
    frames: list[Frame] = []
    while True:
        for i, name in _HOLES.get(type(e), ()):
            sub = getattr(e, name)
            if not sub._isval:
                frames.append((e, i))
                e = sub
                break
        else:
            if _head_redex(e):
                return DecompRedex(tuple(frames), e)
            return DecompStuck(tuple(frames), e)


def _ref_beta(rec: Rec, v: Expr) -> Expr:
    """rec's body with rec for its name, then v for its parameter: the
    textbook order, kept apart from the engine's step rule so the trace
    tests compare two implementations of beta rather than one."""
    body = rec.body
    if rec.fname is not None and rec.fname != rec.param:
        body = ref_subst(body, rec.fname, rec)
    return ref_subst(body, rec.param, v)


def _head_step(r: Expr, state: State) -> list[tuple[Expr, State, Fraction]]:
    one = Fraction(1)
    match r:
        case App(Rec() as rec, v):
            return [(_ref_beta(rec, v), state, one)]
        case TApp(TLam(tv, body), ty):
            if tv is not None and ty is not None:
                body = ref_tsubst_expr(body, tv, ty)
            return [(body, state, one)]
        case If(Bool(b), t, o):
            return [(t if b else o, state, one)]
        case Fst(Pair(a, _)):
            return [(a, state, one)]
        case Snd(Pair(_, b)):
            return [(b, state, one)]
        case Match(Inl(v, _), lv, lb, _, _):
            return [(subst(lb, lv, v), state, one)]
        case Match(Inr(v, _), _, _, rv, rb):
            return [(subst(rb, rv, v), state, one)]
        case Unfold(Fold(v, _)):
            return [(v, state, one)]
        case Unpack(Pack(v, w, _), tv, x, body):
            if tv is not None and w is not None:
                body = ref_tsubst_expr(body, tv, w)
            return [(subst(body, x, v), state, one)]
        case Alloc(v):
            loc = len(state.heap)
            return [(Loc(loc), state.heap_set(loc, v), one)]
        case Load(Loc(i)):
            v = state.heap_get(i)
            return [] if v is None else [(v, state, one)]
        case Store(Loc(i), v):
            if state.heap_get(i) is None:
                return []
            return [(Unit(), state.heap_set(i, v), one)]
        case AllocTape(Int(n)):
            lbl = len(state.tapes)
            return [(Label(lbl), state.tape_set(lbl, Tape(n, ())), one)]
        case Rand(Int(n), Unit()):
            w = Fraction(1, n + 1)
            return [(Int(i), state, w) for i in range(n + 1)]
        case Rand(Int(n), Label(l)):
            tape = state.tape_get(l)
            if tape is None:
                return []
            if tape.bound == n and tape.values:
                head, rest = tape.values[0], tape.values[1:]
                return [(Int(head), state.tape_set(l, Tape(n, rest)), one)]
            # empty tape, or a tape presampled at a different bound: sample
            # fresh and leave the tape untouched
            w = Fraction(1, n + 1)
            return [(Int(i), state, w) for i in range(n + 1)]
        case Binop(op, a, b):
            return [(_binop(op, a, b), state, one)]
    return []


def _binop(op: str, a: Expr, b: Expr) -> Expr:
    if op == "=":
        return Bool(a == b)
    assert isinstance(a, Int) and isinstance(b, Int)
    x, y = a.n, b.n
    if op == "+":
        return Int(x + y)
    if op == "-":
        return Int(x - y)
    if op == "*":
        return Int(x * y)
    if op == "mod":
        return Int(x % y)
    if op == "<":
        return Bool(x < y)
    if op == "<=":
        return Bool(x <= y)
    raise ValueError(f"unknown operator {op!r}")


def ref_step_weights(config: Config) -> dict[Config, Fraction]:
    d = ref_decompose(config.expr)
    if not isinstance(d, DecompRedex):
        return {}
    out: dict[Config, Fraction] = {}
    for e2, s2, w in _head_step(d.redex, config.state):
        c2 = Config(plug(d.frames, e2), s2)
        out[c2] = out[c2] + w if c2 in out else w
    return out


def ref_sample(e: Expr, samples: int, seed: int, depth: int
               ) -> tuple[dict[str, int], int]:
    """The sampler as a walk of one step at a time: each sample steps from
    (e, empty store) with `ref_step_weights` at most `depth` times, draws
    `randrange(n)` over a step's n > 1 successors in the order the rule
    lists them, and takes a step's one successor without a draw.  Returns
    the counts of the rendered values reached and the number of samples
    that reached none."""
    rng = random.Random(seed)
    counts: dict[str, int] = {}
    nonterm = 0
    for _ in range(samples):
        config = Config(e, State())
        for _ in range(depth):
            out = list(ref_step_weights(config))
            if not out:
                break
            config = out[rng.randrange(len(out))] if len(out) > 1 else out[0]
        if ref_is_value(config.expr):
            key = render(config.expr)
            counts[key] = counts.get(key, 0) + 1
        else:
            nonterm += 1
    return counts, nonterm


def ref_fits(a: Type, b: Type) -> bool:
    """True when a value of type a is acceptable where b is demanded."""
    if types_equal(a, b):
        return True
    if isinstance(a, TNat) and isinstance(b, TInt):
        return True
    if isinstance(a, TProd) and isinstance(b, TProd):
        return ref_fits(a.left, b.left) and ref_fits(a.right, b.right)
    if isinstance(a, TSum) and isinstance(b, TSum):
        return ref_fits(a.left, b.left) and ref_fits(a.right, b.right)
    if isinstance(a, TArrow) and isinstance(b, TArrow):
        return ref_fits(b.dom, a.dom) and ref_fits(a.cod, b.cod)
    return False


def ref_free_tvars(t: Type) -> frozenset[str]:
    match t:
        case TVar(a):
            return frozenset((a,))
        case TRef(c):
            return ref_free_tvars(c)
        case TProd(a, b) | TSum(a, b) | TArrow(a, b):
            return ref_free_tvars(a) | ref_free_tvars(b)
        case TForall(v, b) | TExists(v, b) | TMu(v, b):
            return ref_free_tvars(b) - {v}
        case _:
            return frozenset()


def _ref_fresh_tvar(taken: frozenset[str], base: str) -> str:
    cand = base
    i = 0
    while cand in taken:
        i += 1
        cand = f"{base}{i}"
    return cand


def ref_tsubst_type(t: Type, var: str, repl: Type) -> Type:
    """Capture-avoiding substitution of repl for the free type variable var."""
    match t:
        case TVar(a):
            return repl if a == var else t
        case TRef(c):
            return TRef(ref_tsubst_type(c, var, repl))
        case TProd(a, b):
            return TProd(ref_tsubst_type(a, var, repl), ref_tsubst_type(b, var, repl))
        case TSum(a, b):
            return TSum(ref_tsubst_type(a, var, repl), ref_tsubst_type(b, var, repl))
        case TArrow(a, b):
            return TArrow(ref_tsubst_type(a, var, repl), ref_tsubst_type(b, var, repl))
        case TForall(v, b) | TExists(v, b) | TMu(v, b):
            ctor = type(t)
            if v == var:
                return t
            if v in ref_free_tvars(repl):
                v2 = _ref_fresh_tvar(ref_free_tvars(repl) | ref_free_tvars(b), v)
                b = ref_tsubst_type(b, v, TVar(v2))
                v = v2
            return ctor(v, ref_tsubst_type(b, var, repl))
        case _:
            return t


def ref_types_equal(a: Type, b: Type) -> bool:
    """Alpha-equivalence of types."""
    return ref_alpha_eq(a, b, {}, {})


def ref_alpha_eq(a: Type, b: Type, la: dict[str, int], lb: dict[str, int]) -> bool:
    match a, b:
        case TVar(x), TVar(y):
            if x in la or y in lb:
                return la.get(x) == lb.get(y) and la.get(x) is not None
            return x == y
        case TRef(c1), TRef(c2):
            return ref_alpha_eq(c1, c2, la, lb)
        case (TProd(x1, y1), TProd(x2, y2)) | (TSum(x1, y1), TSum(x2, y2)) | \
             (TArrow(x1, y1), TArrow(x2, y2)):
            return ref_alpha_eq(x1, x2, la, lb) and ref_alpha_eq(y1, y2, la, lb)
        case (TForall(v1, b1), TForall(v2, b2)) | (TExists(v1, b1), TExists(v2, b2)) | \
             (TMu(v1, b1), TMu(v2, b2)):
            depth = len(la)
            la2 = dict(la)
            lb2 = dict(lb)
            la2[v1] = depth
            lb2[v2] = depth
            return ref_alpha_eq(b1, b2, la2, lb2)
        case _:
            return type(a) is type(b) and not a._fields


def _ref_rebuild(e, f):
    """e with f(v) in place of each field value v that is a term or a type,
    or e itself when every such f(v) is v."""
    args, changed = [], False
    for name in e._fields:
        v = getattr(e, name)
        if isinstance(v, (Expr, Type)):
            v2 = f(v)
            changed |= v2 is not v
            v = v2
        args.append(v)
    return type(e)(*args) if changed else e


def ref_tsubst_expr(e: Expr, var: str, repl: Type) -> Expr:
    """Substitute a type into every annotation; used when reducing
    annotated type applications and unpacks."""
    match e:
        case TLam(tv, body):
            if tv == var:
                return e
            return TLam(tv, ref_tsubst_expr(body, var, repl))
        case Unpack(p, tv, x, body):
            p2 = ref_tsubst_expr(p, var, repl)
            body2 = body if tv == var else ref_tsubst_expr(body, var, repl)
            return Unpack(p2, tv, x, body2)
        case _:
            return _ref_rebuild(e, lambda v: ref_tsubst_expr(v, var, repl)
                                if isinstance(v, Expr) else ref_tsubst_type(v, var, repl))


def ref_erase(e: Expr) -> Expr:
    """Strip every type annotation, leaving the core term: every Type field,
    and the type-variable names of `tfun` and `unpack`."""
    match e:
        case TLam(_, body):
            return TLam(None, ref_erase(body))
        case Unpack(p, _, x, body):
            return Unpack(ref_erase(p), None, x, ref_erase(body))
        case _:
            return _ref_rebuild(e, lambda v: ref_erase(v) if isinstance(v, Expr) else None)


class _RefFlowNet:
    def __init__(self, n: int):
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> tuple[int, int]:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])
        return u, len(self.adj[u]) - 1

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return flow
            it = [0] * len(self.adj)
            while True:
                pushed = self._dfs(s, t, None, level, it)
                if pushed == 0:
                    break
                flow += pushed

    def _bfs(self, s: int, t: int) -> Optional[list[int]]:
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = [s]
        for u in queue:
            for v, cap, _ in self.adj[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, u: int, t: int, limit: Optional[int],
             level: list[int], it: list[int]) -> int:
        if u == t:
            return limit if limit is not None else 0
        while it[u] < len(self.adj[u]):
            edge = self.adj[u][it[u]]
            v, cap, rev = edge
            if cap > 0 and level[v] == level[u] + 1:
                nxt = cap if limit is None else min(limit, cap)
                pushed = self._dfs(v, t, nxt, level, it)
                if pushed > 0:
                    edge[1] -= pushed
                    self.adj[v][rev][1] += pushed
                    return pushed
            it[u] += 1
        level[u] = -1
        return 0


def ref_solve_flow(mu1: SubDistr, mu2: SubDistr,
                   rel: Relation) -> tuple[Fraction, dict]:
    """Max flow through the coupling network, plus the R-edge flows.

    Returns (flow value, {(a, b): weight}) in unscaled rationals.
    """
    left = sorted(mu1.support(), key=repr)
    right = sorted(mu2.support(), key=repr)
    denoms = [p.denominator for _, p in mu1.items()]
    denoms += [p.denominator for _, p in mu2.items()]
    scale = lcm(*denoms) if denoms else 1

    n = len(left) + len(right) + 2
    src, snk = 0, n - 1
    lidx = {a: 1 + i for i, a in enumerate(left)}
    ridx = {b: 1 + len(left) + i for i, b in enumerate(right)}
    net = _RefFlowNet(n)
    for a in left:
        net.add_edge(src, lidx[a], int(mu1.get(a) * scale))
    for b in right:
        net.add_edge(ridx[b], snk, int(mu2.get(b) * scale))
    edge_refs = {}
    for a in left:
        for b in right:
            if rel.contains(a, b):
                edge_refs[(a, b)] = net.add_edge(lidx[a], ridx[b], scale)

    flow = net.max_flow(src, snk)
    joint = {}
    for (a, b), (u, i) in edge_refs.items():
        used = scale - net.adj[u][i][1]
        if used:
            joint[(a, b)] = Fraction(used, scale)
    return Fraction(flow, scale), joint


# One alternative per token class; punctuation longest first, so that
# `<-` is one token whatever the order of PUNCT.
_REF_TOKEN = re.compile("|".join((
    r"(?P<newline>\n)", r"(?P<skip>[ \t\r]+|#[^\n]*)", r"(?P<num>[0-9]+)",
    r"(?P<word>[^\W\d]\w*)",
    "(?P<punct>%s)" % "|".join(map(re.escape, sorted(PUNCT, key=len,
                                                     reverse=True))),
    r"(?P<bad>.)")))


class Token(NamedTuple):
    kind: str  # a keyword or punctuation, "ident", "num" or "eof"
    text: str
    line: int
    col: int


def ref_tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _REF_TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "word" and (text[0].isalpha() or text[0] == "_"):
            toks.append(Token(text if text in KEYWORDS else "ident", text,
                              line, col))
        elif kind in ("num", "punct"):
            toks.append(Token(text if kind == "punct" else kind, text,
                              line, col))
        elif kind != "skip":
            # a stray character, or a word that starts with a numeral such
            # as `²`: `\w` takes those, but they start no word
            raise ParseError(f"unexpected character {text[0]!r}", line, col)
    toks.append(Token("eof", "", line, len(src) - line_start + 1))
    return toks
