"""R-couplings and left-partial R-couplings between finite sub-distributions.

Existence is decided by an exact max-flow over the bipartite network

    source --mu1(a)--> a --(a,b) in R--> b --mu2(b)--> sink

scaled to integers by the common denominator of all weights, whose
R-edges are the relation's own pairs inside both supports.  An exact
coupling exists iff the masses agree and the flow saturates them; a
left-partial coupling asks only that the flow equal mass(mu1).  The flow
is Dinic's, with its own stack for the path search, so no recursion
limit bounds a path.  The flow on the R-edges is the joint distribution,
returned as a checkable witness rather than a bare boolean.

`strassen_oracle` re-decides existence from the subset condition
(mu1(S) <= mu2(R(S)) for every S) by brute force; it exists purely to
cross-examine the flow checker and is only usable on small supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Hashable, Iterable, Optional

from .subdist import SubDistr, dret

A = Hashable
B = Hashable


@dataclass(frozen=True)
class Relation:
    """A finite relation, materialized as an explicit pair set.

    `left` and `right` are the admissible supports; `pairs` must stay
    inside their product.
    """

    left: frozenset
    right: frozenset
    pairs: frozenset

    def __post_init__(self):
        for a, b in self.pairs:
            if a not in self.left or b not in self.right:
                raise ValueError("relation pair outside declared supports")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[A, B]]) -> "Relation":
        ps = frozenset(pairs)
        return Relation(frozenset(a for a, _ in ps),
                        frozenset(b for _, b in ps), ps)

    def contains(self, a: A, b: B) -> bool:
        return (a, b) in self.pairs

    def image(self, subset: Iterable[A]) -> frozenset:
        ss = set(subset)
        return frozenset(b for a, b in self.pairs if a in ss)


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


def _max_flow(adj: list[list[list[int]]], s: int, t: int) -> int:
    """Push a maximum flow from s to t through adj, in place; adj[u] lists
    u's edges as [v, capacity left, index of the reverse edge in adj[v]]."""
    flow = 0
    while True:
        level = [-1] * len(adj)
        level[s] = 0
        queue = [s]
        for u in queue:
            for v, cap, _ in adj[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return flow
        it = [0] * len(adj)
        nodes, path = [s], []
        while nodes:
            u = nodes[-1]
            if u == t:
                pushed = min(edge[1] for edge in path)
                for edge in path:
                    edge[1] -= pushed
                    adj[edge[0]][edge[2]][1] += pushed
                flow += pushed
                del nodes[1:], path[:]
                continue
            edges = adj[u]
            while it[u] < len(edges):
                edge = edges[it[u]]
                if edge[1] > 0 and level[edge[0]] == level[u] + 1:
                    nodes.append(edge[0])
                    path.append(edge)
                    break
                it[u] += 1
            else:  # a dead end leaves the level graph
                level[nodes.pop()] = -1
                if nodes:
                    path.pop()
                    it[nodes[-1]] += 1


def _solve_flow(mu1: SubDistr, mu2: SubDistr,
                rel: Relation) -> tuple[Fraction, dict]:
    """Max flow through the coupling network, plus the R-edge flows.

    Returns (flow value, {(a, b): weight}) in unscaled rationals.
    """
    left = sorted(mu1.support(), key=repr)
    right = sorted(mu2.support(), key=repr)
    denoms = [p.denominator for _, p in mu1.items()]
    denoms += [p.denominator for _, p in mu2.items()]
    scale = lcm(*denoms) if denoms else 1

    lidx = {a: i for i, a in enumerate(left, 1)}
    ridx = {b: i for i, b in enumerate(right, 1 + len(left))}
    adj: list[list[list[int]]] = [[] for _ in range(len(left) + len(right) + 2)]
    src, snk = 0, len(adj) - 1

    def add_edge(u: int, v: int, cap: int) -> list[int]:
        adj[u].append([v, cap, len(adj[v])])
        adj[v].append([u, 0, len(adj[u]) - 1])
        return adj[u][-1]

    for a in left:
        add_edge(src, lidx[a], int(mu1.get(a) * scale))
    for b in right:
        add_edge(ridx[b], snk, int(mu2.get(b) * scale))
    # in (left, right) order, so no witness depends on the set's order
    inside = sorted((p for p in rel.pairs if p[0] in lidx and p[1] in ridx),
                    key=lambda p: (lidx[p[0]], ridx[p[1]]))
    r_edges = {p: add_edge(lidx[p[0]], ridx[p[1]], scale) for p in inside}

    flow = _max_flow(adj, src, snk)
    joint = {p: Fraction(scale - edge[1], scale)
             for p, edge in r_edges.items() if edge[1] < scale}
    return Fraction(flow, scale), joint


def _flow_witness(mu1: SubDistr, mu2: SubDistr, rel: Relation,
                  mode: str) -> Optional[CouplingWitness]:
    """The max flow's R-edge flows as a witness of the given mode, when
    the flow carries all of mu1's mass; else None."""
    flow, joint = _solve_flow(mu1, mu2, rel)
    if flow != mu1.mass():
        return None
    return CouplingWitness(SubDistr(joint), mode)


def check_coupling(mu1: SubDistr, mu2: SubDistr,
                   rel: Relation) -> Optional[CouplingWitness]:
    """Witness of an exact R-coupling of mu1 and mu2, or None."""
    if mu1.mass() != mu2.mass():
        return None
    return _flow_witness(mu1, mu2, rel, "exact")


def check_left_partial(mu1: SubDistr, mu2: SubDistr,
                       rel: Relation) -> Optional[CouplingWitness]:
    """Witness of a left-partial R-coupling (left marginal exact,
    right marginal pointwise bounded by mu2), or None."""
    return _flow_witness(mu1, mu2, rel, "left-partial")


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
    out: dict = {}
    mode = "exact"
    for (a, b), p in w.joint.items():
        kw = kernel(a, b)
        if kw is None:
            raise ValueError(f"kernel undefined on support pair ({a!r}, {b!r})")
        if kw.mode != "exact":
            mode = "left-partial"
        for pair, q in kw.joint.items():
            out[pair] = out.get(pair, Fraction(0)) + p * q
    return CouplingWitness(SubDistr(out), mode)


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
        for (x, y) in rel.pairs:
            if x == a and y in ridx:
                m |= 1 << ridx[y]
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

