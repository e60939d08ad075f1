"""R-couplings and left-partial R-couplings between finite sub-distributions.

Existence is decided by an exact max-flow over the bipartite network

    source --mu1(a)--> a --(a,b) in R--> b --mu2(b)--> sink

whose R-edges are the relation's pairs inside both supports, read off
the relation's row index (its pairs grouped by left outcome once, at
construction), so no check walks the pair set.  Witness keys are built
from the two supports' outcomes at an R-edge's ends, which equal the
relation's pairs.  The network's capacities are ints: each weight
times the common denominator of all weights.  An exact coupling
exists iff the masses agree and the flow carries all of mu1's mass; a
left-partial coupling asks only the latter.  The flow does not depend
on which is asked, so it is solved once per (mu1, mu2, relation),
keyed by identity: a relation holds its last two distributions and
their joint until its next check or until it is dropped, and a caller
who asks both questions of one instance runs one flow.  The flow is
Dinic's over flat int arrays, each edge's reverse beside it, with its
own stack for the path search, so no recursion limit bounds a path.
A phase's BFS stops at the sink's level; only the last one, which
misses the sink, runs to the end, so its levels give the source side
of a minimum cut.
Dinic's first phase runs as one greedy pass over the rows, which on
this network is exactly what the phase does (see `_solve_flow`).
The flow on the R-edges is the joint distribution, returned as a
checkable witness rather than a bare boolean.

`strassen_oracle` re-decides existence from the subset condition
(mu1(S) <= mu2(R(S)) for every S) by brute force; it exists purely to
cross-examine the flow checker and is only usable on small supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Hashable, Iterable, Optional

from .subdist import SubDistr, dbind, dret

A = Hashable
B = Hashable


def _two_tuple(pair) -> tuple:
    """`pair` itself when it is a tuple of two outcomes; else a
    ValueError that names it."""
    if not (isinstance(pair, tuple) and len(pair) == 2):
        raise ValueError(f"relation pair {pair!r} is not a 2-tuple")
    return pair


@dataclass(frozen=True)
class Relation:
    """A finite relation, materialized as an explicit pair set.

    `left` and `right` are the admissible supports; `pairs` must be
    2-tuples inside their product.  Construction groups the pairs by
    left outcome, once, into a private row index (left outcome -> its
    right partners) that the checkers read instead of the pair set.
    The relation also remembers its last check, `_last = [mu1, mu2,
    joint]`: the two distributions and their joint (None when the flow
    fell short), held until its next check or until it is dropped.
    Neither takes part in ==, hash or repr.
    """

    left: frozenset
    right: frozenset
    pairs: frozenset
    _rows: dict = field(init=False, repr=False, compare=False)
    _last: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows: dict = {}
        for pair in self.pairs:
            a, b = _two_tuple(pair)
            if a not in self.left or b not in self.right:
                raise ValueError("relation pair outside declared supports")
            rows.setdefault(a, []).append(b)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_last", [None, None, None])

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[A, B]]) -> "Relation":
        ps = frozenset(map(_two_tuple, pairs))
        return Relation(frozenset(a for a, _ in ps),
                        frozenset(b for _, b in ps), ps)

    def contains(self, a: A, b: B) -> bool:
        return (a, b) in self.pairs

    def image(self, subset: Iterable[A]) -> frozenset:
        return frozenset(b for a in subset for b in self._rows.get(a, ()))


@dataclass(frozen=True)
class CouplingWitness:
    joint: SubDistr
    mode: str  # "exact" | "left-partial"

    def __post_init__(self):
        if self.mode not in ("exact", "left-partial"):
            raise ValueError(f"unknown witness mode {self.mode!r}")

    def left_marginal(self) -> SubDistr:
        return self._marginal(0)

    def right_marginal(self) -> SubDistr:
        return self._marginal(1)

    def _marginal(self, side: int) -> SubDistr:
        return SubDistr((pair[side], p) for pair, p in self.joint.items())


# -- exact max-flow (Dinic) on integer capacities


def _max_flow(adj: list[list[int]], to: list[int], cap: list[int],
              s: int, t: int) -> int:
    """Push a maximum flow from s to t, in place.  Edge e runs to to[e]
    with cap[e] capacity left, its reverse edge is e ^ 1, and adj[u]
    lists the ids of u's edges; the residual capacities stay in cap.

    Each phase's BFS stops once t has a level: a node at t's level or
    deeper is a dead end that the path search would only skip.  The
    last BFS, which does not reach t, runs to the end, so the nodes it
    levels are the source side of a minimum cut."""
    flow = 0
    while True:
        level = [-1] * len(adj)
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in adj[u]:
                v = to[e]
                if level[v] < 0 and cap[e] > 0:
                    level[v] = level[u] + 1
                    queue.append(v)
            if level[t] >= 0:  # no node at t's level or deeper leads to t
                break
        else:  # t is unreachable: the levelled nodes are a min cut's S
            return flow
        it = [0] * len(adj)
        nodes, path = [s], []
        while nodes:
            u = nodes[-1]
            if u == t:
                pushed = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                flow += pushed
                del nodes[1:], path[:]
                continue
            edges, deeper = adj[u], level[u] + 1
            for k in range(it[u], len(edges)):
                e = edges[k]
                if cap[e] > 0 and level[to[e]] == deeper:
                    it[u] = k
                    nodes.append(to[e])
                    path.append(e)
                    break
            else:  # a dead end leaves the level graph
                level[nodes.pop()] = -1
                if nodes:
                    path.pop()
                    it[nodes[-1]] += 1


def _solve_flow(mu1: SubDistr, mu2: SubDistr,
                rel: Relation) -> Optional[SubDistr]:
    """The R-edge flows of a maximum flow through the coupling network,
    as a joint distribution, when the flow carries all of mu1's mass
    (equals the sum of the source capacities); else None.  The answer
    is remembered in `rel._last` and read back, with no flow run, when
    mu1 and mu2 are the very objects of the relation's last check
    (`SubDistr` is immutable, so identity implies the same network).

    Nodes are the source 0, mu1's support and then mu2's, each sorted by
    repr, and the sink.  Edges are laid out in `to` and `cap`: source
    edges, sink edges, then the R-edges in (left, right) order.  Left
    node i's R-edges go to its partners in the relation's row index that
    are in mu2's support; the pair set itself is never walked.  Weight p
    has capacity p.numerator * (scale // p.denominator).  The witness
    keys an R-edge i -> j that carries flow by the supports' outcomes at
    its ends, (left[i - 1], right[j - 1 - nl]), which equal its pair.

    Dinic's first phase runs as one pass, and `_max_flow` the rest: left
    nodes in order, each into its R-edges in order, push the least of
    what the source and sink edge have left.  That is the phase's path
    search: its BFS levels left nodes 1 and right nodes 2, an R-edge
    (capacity `scale`, no less than a source edge's) is never the only
    bottleneck, and a right node whose sink edge is full is a dead end.
    """
    last_mu1, last_mu2, joint = rel._last
    if last_mu1 is mu1 and last_mu2 is mu2:
        return joint
    left = sorted(mu1.support(), key=repr)
    right = sorted(mu2.support(), key=repr)
    nl = len(left)
    scale = lcm(*(p.denominator for mu in (mu1, mu2) for _, p in mu.items()))
    ridx = {b: j for j, b in enumerate(right, 1 + nl)}

    adj: list[list[int]] = [[] for _ in range(nl + len(right) + 2)]
    snk = len(adj) - 1
    to: list[int] = []
    cap: list[int] = []
    ends = [(0, i, mu1.get(a)) for i, a in enumerate(left, 1)]
    ends += [(j, snk, mu2.get(b)) for b, j in ridx.items()]
    for u, v, p in ends:
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += (v, u)
        cap += (p.numerator * (scale // p.denominator), 0)
    need = sum(cap[:2 * nl:2])
    base = len(to)
    rows = rel._rows
    for i, a in enumerate(left, 1):
        cols = sorted(filter(None, map(ridx.get, rows.get(a, ()))))
        seg = [i] * (2 * len(cols))
        seg[::2] = cols
        e = len(to)
        to += seg
        adj[i] += range(e, len(to), 2)
    for e in range(base, len(to), 2):
        adj[to[e]].append(e + 1)
    cap += [scale, 0] * ((len(to) - base) // 2)

    # Dinic's first phase.  Node k's source or sink edge is 2k - 2; left
    # node i's R-edges follow its reverse source edge in adj[i].
    pushed = 0
    for i in range(1, nl + 1):
        src = 2 * i - 2
        for e in adj[i][1:]:
            sink = 2 * to[e] - 2
            d = min(cap[src], cap[sink])
            if d:
                for f in (src, e, sink):
                    cap[f] -= d
                    cap[f ^ 1] += d
                pushed += d
                if not cap[src]:
                    break

    joint = None
    if pushed + _max_flow(adj, to, cap, 0, snk) == need:
        joint = SubDistr({(left[to[e + 1] - 1], right[to[e] - 1 - nl]):
                          Fraction(scale - cap[e], scale)
                          for e in range(base, len(to), 2) if cap[e] < scale})
    rel._last[:] = mu1, mu2, joint
    return joint


def check_coupling(mu1: SubDistr, mu2: SubDistr,
                   rel: Relation) -> Optional[CouplingWitness]:
    """Witness of an exact R-coupling of mu1 and mu2, or None."""
    if mu1.mass() != mu2.mass():
        return None
    joint = _solve_flow(mu1, mu2, rel)
    return None if joint is None else CouplingWitness(joint, "exact")


def check_left_partial(mu1: SubDistr, mu2: SubDistr,
                       rel: Relation) -> Optional[CouplingWitness]:
    """Witness of a left-partial R-coupling (left marginal exact,
    right marginal pointwise bounded by mu2), or None."""
    joint = _solve_flow(mu1, mu2, rel)
    return None if joint is None else CouplingWitness(joint, "left-partial")


def verify_witness(w: CouplingWitness, mu1: SubDistr, mu2: SubDistr,
                   rel: Relation) -> bool:
    """Independent certificate check: support inclusion + marginal laws."""
    for pair in w.joint.support():
        if not (isinstance(pair, tuple) and len(pair) == 2
                and rel.contains(*pair)):
            return False
    if w.left_marginal() != mu1:
        return False
    right = w.right_marginal()
    if w.mode == "exact":
        return right == mu2
    return all(right.get(b) <= mu2.get(b) for b in right.support())


def couple_ret(a: A, b: B, rel: Relation) -> Optional[CouplingWitness]:
    """Point witness for ret a vs ret b, when (a, b) is admissible."""
    if not rel.contains(a, b):
        return None
    return CouplingWitness(dret((a, b)), "exact")


def couple_bind(w: CouplingWitness,
                kernel: Callable[[A, B], Optional[CouplingWitness]]
                ) -> CouplingWitness:
    """Compose a coupling with per-pair continuation couplings.

    The input witness must be exact (a left-partial left side would not
    certify anything about the bound left distribution).  Continuations
    may be exact or left-partial; one left-partial continuation makes
    the composite left-partial.
    """
    if w.mode != "exact":
        raise ValueError("couple_bind needs an exact witness on the left")
    mode = "exact"

    def joint_of(pair: tuple) -> SubDistr:
        nonlocal mode
        a, b = pair
        kw = kernel(a, b)
        if kw is None:
            raise ValueError(f"kernel undefined on support pair ({a!r}, {b!r})")
        if kw.mode != "exact":
            mode = "left-partial"
        return kw.joint

    joint = dbind(joint_of, w.joint)
    return CouplingWitness(joint, mode)


def bijection_coupling(n: int, f: Callable[[int], int]) -> CouplingWitness:
    """Couple uniform{0..n} with itself along a permutation f."""
    outs = list(range(n + 1))
    image = sorted(f(i) for i in outs)
    if image != outs:
        raise ValueError(f"f is not a permutation of 0..{n}")
    w = Fraction(1, n + 1)
    return CouplingWitness(SubDistr({(i, f(i)): w for i in outs}), "exact")


def strassen_oracle(mu1: SubDistr, mu2: SubDistr, rel: Relation,
                    mode: str = "exact") -> bool:
    """Subset-condition decision, by enumeration.  Left support <= 12.

    exact: mass(mu1) = mass(mu2) and mu1(S) <= mu2(R(S)) for all S;
    left-partial: the subset condition alone.
    """
    if mode not in ("exact", "left-partial"):
        raise ValueError(f"unknown mode {mode!r}")
    left = sorted(mu1.support(), key=repr)
    if len(left) > 12:
        raise ValueError("strassen_oracle: left support too large")
    if mode == "exact" and mu1.mass() != mu2.mass():
        return False

    right = sorted(mu2.support(), key=repr)
    ridx = {b: i for i, b in enumerate(right)}
    nb = []
    for a in left:
        m = 0
        for b in rel._rows.get(a, ()):
            if b in ridx:
                m |= 1 << ridx[b]
        nb.append(m)
    w1 = [mu1.get(a) for a in left]
    w2 = [mu2.get(b) for b in right]

    total = 1 << len(left)
    sums = [Fraction(0)] * total
    nbrs = [0] * total
    for mask in range(1, total):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        sums[mask] = sums[rest] + w1[low]
        nbrs[mask] = nbrs[rest] | nb[low]
    image_mass: dict[int, Fraction] = {0: Fraction(0)}

    def mass_of(m: int) -> Fraction:
        got = image_mass.get(m)
        if got is None:
            got = sum((w2[i] for i in range(len(right)) if m >> i & 1),
                      Fraction(0))
            image_mass[m] = got
        return got

    return all(sums[mask] <= mass_of(nbrs[mask]) for mask in range(total))

