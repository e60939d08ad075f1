"""The four benchmark workloads: setup, operations and exactness checks.

`setup(name, seed)` prepares a workload and returns its batch: a list
of `Op`s.  Around each operation, untimed, `make` hands over its input
and `check` judges its output; only `run` is timed.  Operations reach
the library through module attributes looked up at call time, so a
tracer installed later sees every call.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import gen

GOLDEN = Path(__file__).resolve().parent / "golden"

# Every corpus entry at each documented parameter value, except the two
# largest (elgamal-rand p=7 and lazy-int digits=3 base=3), which alone
# would take longer than the rest together.
CORPUS_SPECS = (
    [("lazy-eager", {}), ("flip-or", {}), ("choice-copying", {}),
     ("choice-local", {})]
    + [("elgamal-real", {"p": p}) for p in (3, 5, 7)]
    + [("elgamal-rand", {"p": p}) for p in (3, 5)]
    + [("hash", {"n": n}) for n in (0, 1, 2)]
    + [("hash-rng", {"max": m}) for m in (1, 2)]
    + [("keyed-hash", {})]
    + [("lazy-int", {"digits": d, "base": b})
       for d in (1, 2, 3) for b in (2, 3) if (d, b) != (3, 3)]
)


def modules() -> SimpleNamespace:
    """The layer modules, from sys.modules (the package rebinds
    `tapelang.typecheck` to the function of that name)."""
    return SimpleNamespace(**{
        name: importlib.import_module(f"tapelang.{name}")
        for name in ("parser", "typecheck", "syntax", "semantics", "analysis",
                     "coupling", "corpus")})


@dataclass
class Op:
    name: str
    make: Callable[[], object]  # the input, built or looked up
    run: Callable[[object], object]  # input -> output; the timed part
    check: Callable[[object, object], bool]  # (input, output) -> exact?


@dataclass
class Workload:
    ops: list[Op]
    # Untimed extra probes, run once per process: name -> outcome text.
    probes: Callable[[], dict[str, str]] | None = None


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def entry_id(entry) -> str:
    params = " ".join(f"{k}={entry.params[k]}" for k in sorted(entry.params))
    return f"{entry.name} {params}".strip()


# -- operations ----------------------------------------------------------------

def corpus_probe(M, entry, ctx):
    """What `tapelang corpus check` does for one context."""
    c1 = M.syntax.plug_hole(ctx.expr(), entry.left())
    c2 = M.syntax.plug_hole(ctx.expr(), entry.right())
    M.typecheck.typecheck(c1)
    M.typecheck.typecheck(c2)
    return M.analysis.compare_programs(M.syntax.erase(c1), M.syntax.erase(c2),
                                       M.semantics.EMPTY_STATE, entry.depth)


def diverge_probe(M, left: str, right: str, depth: int):
    cores = []
    for src in (left, right):
        ast = M.parser.parse(src)
        M.typecheck.typecheck(ast)
        cores.append(M.syntax.erase(ast))
    return M.analysis.compare_programs(cores[0], cores[1],
                                       M.semantics.EMPTY_STATE, depth)


def frontend_roundtrip(M, src: str):
    """parse -> typecheck -> erase -> render -> parse; returns the type and
    whether the re-parsed tree equals the first one."""
    ast = M.parser.parse(src)
    ty = M.typecheck.typecheck(ast)
    M.syntax.erase(ast)
    again = M.parser.parse(M.syntax.render(ast))
    return ty, again == ast


def coupling_probe(M, inst: gen.CouplingInstance):
    """Both checkers, and the independent check of every witness found."""
    out = []
    for check in (M.coupling.check_coupling, M.coupling.check_left_partial):
        w = check(inst.mu1, inst.mu2, inst.rel)
        out.append(None if w is None else
                   M.coupling.verify_witness(w, inst.mu1, inst.mu2, inst.rel))
    return tuple(out)


# -- workloads -------------------------------------------------------------------

def corpus_entries(M) -> list:
    return [M.corpus.build(name, params) for name, params in CORPUS_SPECS]


def _corpus(M, seed: int) -> Workload:
    golden = load_golden("corpus")
    probes = [(e, c) for e in corpus_entries(M) for c in e.contexts]
    random.Random(f"corpus/{seed}").shuffle(probes)
    ops = []
    for entry, ctx in probes:
        name = f"{entry_id(entry)}/{ctx.name}"
        ops.append(Op(name, lambda e=entry, c=ctx: (e, c),
                      lambda inp: corpus_probe(M, *inp),
                      lambda _, rep, w=golden[name]: rep.to_jsonable() == w))
    return Workload(ops)


def _diverge(M, seed: int) -> Workload:
    golden = load_golden("diverge")
    probes = gen.diverge_probes()
    names = sorted(probes)
    random.Random(f"diverge/{seed}").shuffle(names)
    ops = []
    for name in names:
        ops.append(Op(name, lambda n=name: probes[n],
                      lambda pair: diverge_probe(M, *pair),
                      lambda _, rep, w=golden[name]: rep.to_jsonable() == w))
    return Workload(ops)


def _coupling(M, seed: int) -> Workload:
    """Each instance is built just before its operation and dropped after
    its check, as a user's process holds one input at a time."""
    specs = gen.coupling_specs()
    random.Random(f"coupling/order/{seed}").shuffle(specs)
    oracle: dict[str, tuple[bool, bool]] = {}

    def check(inst: gen.CouplingInstance, out) -> bool:
        exact, partial = out
        found = (exact is not None, partial is not None)
        if found != (inst.feasible, inst.feasible):
            return False
        if any(v is False for v in out):  # a witness failed verification
            return False
        if len(inst.mu1) <= 12:
            if inst.name not in oracle:
                oracle[inst.name] = tuple(
                    M.coupling.strassen_oracle(inst.mu1, inst.mu2, inst.rel,
                                               mode)
                    for mode in ("exact", "left-partial"))
            if oracle[inst.name] != found:
                return False
        return True

    ops = [Op(spec.name, lambda s=spec: gen.coupling_instance(seed, s),
              lambda inst: coupling_probe(M, inst), check)
           for spec in specs]
    return Workload(ops)


def _frontend(M, seed: int) -> Workload:
    types = load_golden("sources")
    programs = [(p.name, p.source, p.type_text)
                for p in gen.frontend_programs(seed)]
    for entry in corpus_entries(M):
        sides = {"left": entry.left_source, "right": entry.right_source,
                 **entry.extras}
        for side, src in sides.items():
            name = f"{entry_id(entry)}/{side}"
            programs.append((name, src, types[name]))
    random.Random(f"frontend/order/{seed}").shuffle(programs)

    def check(out, want: str) -> bool:
        ty, same = out
        return same and M.syntax.render_type(ty) == want

    ops = [Op(name, lambda s=src: s, lambda s: frontend_roundtrip(M, s),
              lambda _, out, w=want: check(out, w))
           for name, src, want in programs]
    deep = gen.deep_programs(seed)
    return Workload(ops, probes=lambda: deep_outcomes(M, deep))


def deep_outcomes(M, programs: list[gen.Program]) -> dict[str, str]:
    """Which pass, if any, each deeply nested program breaks."""
    out = {}
    for p in programs:
        stage = "parse"
        try:
            ast = M.parser.parse(p.source)
            stage = "typecheck"
            ty = M.typecheck.typecheck(ast)
            stage = "erase"
            M.syntax.erase(ast)
            stage = "render"
            text = M.syntax.render(ast)
            stage = "parse again"
            again = M.parser.parse(text)
            stage = "=="
            same = again == ast
        except RecursionError:
            out[p.name] = f"RecursionError in {stage}"
            continue
        ok = same and M.syntax.render_type(ty) == p.type_text
        out[p.name] = "ok" if ok else "wrong output"
    return out


_SETUPS = {"corpus": _corpus, "diverge": _diverge, "coupling": _coupling,
           "frontend": _frontend}
WORKLOADS = tuple(_SETUPS)


def setup(name: str, seed: int) -> Workload:
    return _SETUPS[name](modules(), seed)
