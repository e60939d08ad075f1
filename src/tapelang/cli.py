"""Batch command-line front end.

Every command is a single deterministic invocation: identical inputs and
flags produce byte-identical output (the sampler included, given a fixed
seed).  Rationals print as `num/den` in lowest terms; distribution
outcomes sort by their pretty-printed form.

Exit codes: 0 for success (equal verdicts, witnesses found, checks
passing); 1 for a negative analysis result (distinguished, no witness,
an erasure or corpus check that fails); 2 for usage, parse, or type
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import corpus as corpus_mod
from .analysis import (check_entry, compare_programs, erasure_check_depths,
                       tv_distance)
from .coupling import Relation, check_coupling, check_left_partial
from .dist import (SubDistr, exec_val_bounds, frac_str, from_jsonable,
                   to_jsonable)
from .parser import ParseError, parse
from .semantics import Config, EMPTY_STATE, State, Tape, step_weights
from .syntax import (Label, erase, free_vars, is_value, render, render_type,
                     subst)
from .typecheck import TypecheckError, typecheck


@dataclass
class RunConfig:
    command: str
    paths: tuple[str, ...] = ()
    depth: int = 50
    fmt: str = "table"
    mode: str = "exact"
    label: int = 0
    tapes: tuple[Tape, ...] = ()
    samples: int | None = None
    seed: int = 0
    action: str | None = None
    entry: str | None = None
    params: dict = field(default_factory=dict)
    out_dir: str | None = None
    depth_given: bool = False

    def __post_init__(self):
        if self.depth < 0:
            raise UsageError("depth must be >= 0")
        if self.samples is not None and self.command != "sample":
            raise UsageError("--samples is only meaningful for `sample`; "
                             "all other commands are exact")
        if self.samples is not None and self.samples <= 0:
            raise UsageError("sample count must be positive")


class UsageError(Exception):
    pass


def _load_program(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    try:
        return parse(text)
    except ParseError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _checked_core(path: str):
    e = _load_program(path)
    try:
        typecheck(e)
    except TypecheckError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    return erase(e)


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _dist_lines(mu: SubDistr, render_key=render) -> list[str]:
    rows = sorted((render_key(v), p) for v, p in mu.items())
    width = max((len(k) for k, _ in rows), default=0)
    return [f"  {k.ljust(width)}  {frac_str(p)}" for k, p in rows]


# -- commands -----------------------------------------------------------------

def cmd_typecheck(cfg: RunConfig) -> int:
    e = _load_program(cfg.paths[0])
    try:
        ty = typecheck(e)
    except TypecheckError as exc:
        raise UsageError(f"{cfg.paths[0]}: {exc}") from exc
    if cfg.fmt == "json":
        _emit_json({"type": render_type(ty)})
    else:
        print(render_type(ty))
    return 0


def cmd_dist(cfg: RunConfig) -> int:
    core = _checked_core(cfg.paths[0])
    lower, residual = exec_val_bounds(core, EMPTY_STATE, cfg.depth)
    if cfg.fmt == "json":
        _emit_json({"depth": cfg.depth,
                    "distribution": to_jsonable(lower, render),
                    "residual": frac_str(residual)})
    else:
        print(f"depth: {cfg.depth}")
        print(f"mass: {frac_str(lower.mass())}")
        print(f"residual: {frac_str(residual)}")
        for line in _dist_lines(lower):
            print(line)
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    core1 = _checked_core(cfg.paths[0])
    core2 = _checked_core(cfg.paths[1])
    rep = compare_programs(core1, core2, EMPTY_STATE, cfg.depth)
    if cfg.fmt == "json":
        out = rep.to_jsonable()
        out["tv_lower_bounds"] = frac_str(tv_distance(rep.lower1, rep.lower2))
        _emit_json(out)
    else:
        print(f"verdict: {rep.verdict}")
        print(f"depth: {rep.depth}")
        print(f"stabilized: {'yes' if rep.stabilized else 'no'}")
        if rep.matched_divergence:
            print("matched-divergence: yes")
        print(f"tv(lower bounds): "
              f"{frac_str(tv_distance(rep.lower1, rep.lower2))}")
        print(f"left  (residual {frac_str(rep.residual1)}):")
        for line in _dist_lines(rep.lower1):
            print(line)
        print(f"right (residual {frac_str(rep.residual2)}):")
        for line in _dist_lines(rep.lower2):
            print(line)
    return 1 if rep.verdict == "distinguished" else 0


def cmd_erasure(cfg: RunConfig) -> int:
    e = _load_program(cfg.paths[0])
    state = State((), tuple(enumerate(cfg.tapes)))
    if state.tape_get(cfg.label) is None:
        raise UsageError(f"no tape with label {cfg.label}; seed one per "
                         f"label with --tape BOUND[:v,...]")
    # free variables t0, t1, ... name the seeded tapes
    for name in sorted(free_vars(e)):
        if not (name.startswith("t") and name[1:].isdigit()):
            raise UsageError(f"free variable {name!r}; only t0, t1, ... "
                             f"may be free (they name the seeded tapes)")
        idx = int(name[1:])
        if idx >= len(cfg.tapes):
            raise UsageError(f"free variable {name!r} but only "
                             f"{len(cfg.tapes)} tape(s) seeded")
        e = subst(e, name, Label(idx))
    try:
        typecheck(e)
    except TypecheckError as exc:
        raise UsageError(f"{cfg.paths[0]}: {exc}") from exc
    results = erasure_check_depths(erase(e), state, cfg.label,
                                   range(cfg.depth + 1))
    ok = all(results.values())
    if cfg.fmt == "json":
        _emit_json({"label": cfg.label,
                    "holds": ok,
                    "depths": {str(d): results[d] for d in sorted(results)}})
    else:
        for d in sorted(results):
            print(f"depth {d}: {'ok' if results[d] else 'FAIL'}")
        print(f"erasure at label {cfg.label}: "
              f"{'holds' if ok else 'FAILS'} for depths 0..{cfg.depth}")
    return 0 if ok else 1


def _witness_jsonable(witness) -> dict:
    joint = sorted(([a, b, frac_str(p)] for (a, b), p in witness.joint.items()))
    return {"mode": witness.mode, "joint": joint}


def cmd_couple(cfg: RunConfig) -> int:
    mu1 = from_jsonable(_load_json(cfg.paths[0]))
    mu2 = from_jsonable(_load_json(cfg.paths[1]))
    rel_obj = _load_json(cfg.paths[2])
    try:
        pairs = [(str(a), str(b)) for a, b in rel_obj["pairs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{cfg.paths[2]}: relation JSON needs "
                         f'{{"pairs": [[left, right], ...]}}') from exc
    left = frozenset(mu1.support()) | {a for a, _ in pairs}
    right = frozenset(mu2.support()) | {b for _, b in pairs}
    rel = Relation(left, right, frozenset(pairs))
    check = check_coupling if cfg.mode == "exact" else check_left_partial
    witness = check(mu1, mu2, rel)
    if cfg.fmt == "json":
        _emit_json({"mode": cfg.mode,
                    "witness": None if witness is None
                    else _witness_jsonable(witness)})
    else:
        if witness is None:
            print(f"no {cfg.mode} coupling within the relation")
        else:
            print(f"{witness.mode} coupling found:")
            for a, b, p in _witness_jsonable(witness)["joint"]:
                print(f"  ({a}, {b})  {p}")
    return 0 if witness is not None else 1


def _entry_sources(entry) -> list[tuple[str, str]]:
    files = [(f"{entry.name}-{entry.left_name}.tl", entry.left_source)]
    if entry.right_source != entry.left_source:
        files.append((f"{entry.name}-{entry.right_name}.tl",
                      entry.right_source))
    for extra, src in sorted(entry.extras.items()):
        files.append((f"{entry.name}-{extra}.tl", src))
    for ctx in entry.contexts:
        files.append((f"{entry.name}-ctx-{ctx.name}.tl", ctx.source))
    return files


def cmd_corpus(cfg: RunConfig) -> int:
    if cfg.action == "list":
        entries = corpus_mod.list_entries()
        if cfg.fmt == "json":
            _emit_json([{"name": n, "summary": s} for n, s in entries])
        else:
            width = max(len(n) for n, _ in entries)
            for n, s in entries:
                print(f"{n.ljust(width)}  {s}")
        return 0

    entry = corpus_mod.build(cfg.entry, cfg.params)
    if cfg.action == "emit":
        files = _entry_sources(entry)
        if cfg.out_dir is not None:
            out = Path(cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for fname, src in files:
                (out / fname).write_text(src + "\n")
                print(f"wrote {out / fname}")
        else:
            for fname, src in files:
                print(f"-- {fname}")
                print(src)
                print()
        return 0

    # action == "check": run the context family against expectations
    depth = cfg.depth if cfg.depth_given else entry.depth
    rows = check_entry(entry, depth)
    all_ok = all(ok for *_, ok in rows)
    if cfg.fmt == "json":
        _emit_json({"entry": entry.name,
                    "params": {k: entry.params[k] for k in sorted(entry.params)},
                    "depth": depth,
                    "contexts": [{"name": name, "expected": expected,
                                  "verdict": rep.verdict,
                                  "matched_divergence": rep.matched_divergence,
                                  "settle_depth": {"left": rep.settle1,
                                                   "right": rep.settle2},
                                  "ok": ok}
                                 for name, expected, rep, ok in rows],
                    "ok": all_ok})
    else:
        print(f"{entry.name} {dict(sorted(entry.params.items()))} "
              f"at depth {depth}:")
        for name, expected, rep, ok in rows:
            got = ("diverges-matched" if rep.matched_divergence
                   else rep.verdict)
            left, right = ("not settled" if d is None else d
                           for d in (rep.settle1, rep.settle2))
            print(f"  {name}: expected {expected}, got {got} "
                  f"[{'ok' if ok else 'MISMATCH'}]; settle depth (of {depth}): "
                  f"left {left}, right {right}")
        print("all contexts as expected" if all_ok else "MISMATCHES found")
    return 0 if all_ok else 1


def cmd_sample(cfg: RunConfig) -> int:
    core = _checked_core(cfg.paths[0])
    rng = random.Random(cfg.seed)
    counts: dict[str, int] = {}
    nonterm = 0
    for _ in range(cfg.samples):
        config = Config(core, EMPTY_STATE)
        for _ in range(cfg.depth):
            w = step_weights(config)
            if not w:
                break
            outcomes = sorted(w.items(), key=lambda cp: repr(cp[0]))
            denom = math.lcm(*(p.denominator for _, p in outcomes))
            pick = rng.randrange(denom)
            acc = 0
            for c2, p in outcomes:
                acc += p.numerator * (denom // p.denominator)
                if pick < acc:
                    config = c2
                    break
        if is_value(config.expr):
            key = render(config.expr)
            counts[key] = counts.get(key, 0) + 1
        else:
            nonterm += 1
    freq = {k: Fraction(n, cfg.samples) for k, n in counts.items()}
    if cfg.fmt == "json":
        _emit_json({"samples": cfg.samples, "seed": cfg.seed,
                    "step_budget": cfg.depth,
                    "counts": dict(sorted(counts.items())),
                    "frequencies": {k: frac_str(freq[k])
                                    for k in sorted(freq)},
                    "no_value": nonterm})
    else:
        print(f"samples: {cfg.samples} (seed {cfg.seed}, "
              f"step budget {cfg.depth})")
        for k in sorted(counts):
            print(f"  {k}  {counts[k]}  ({frac_str(freq[k])})")
        if nonterm:
            print(f"  (no value within budget)  {nonterm}")
    return 0


# -- argument handling --------------------------------------------------------

def _parse_tape(text: str) -> Tape:
    bound_s, _, vals_s = text.partition(":")
    try:
        bound = int(bound_s)
        values = tuple(int(v) for v in vals_s.split(",")) if vals_s else ()
    except ValueError as exc:
        raise UsageError(f"bad --tape {text!r}; expected BOUND[:v,...]")
    if bound < 0 or any(v < 0 or v > bound for v in values):
        raise UsageError(f"bad --tape {text!r}; values must lie in "
                         f"0..{bound}")
    return Tape(bound, values)


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for item in pairs:
        key, eq, val = item.partition("=")
        if not eq or not key:
            raise UsageError(f"bad --param {item!r}; expected name=value")
        try:
            params[key] = int(val)
        except ValueError:
            raise UsageError(f"bad --param {item!r}; value must be an "
                             f"integer")
    return params


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tapelang",
        description="exact analysis workbench for a probabilistic "
                    "higher-order language with presampling tapes")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, depth_default=50):
        p.add_argument("--depth", type=int, default=None, metavar="N",
                       help=f"execution depth (default {depth_default})")
        p.add_argument("--format", choices=("table", "json"),
                       default="table", dest="fmt")

    p = sub.add_parser("typecheck", help="print a program's type")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("dist", help="exact value distribution at a depth")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("compare", help="compare two programs' value "
                                       "distributions")
    p.add_argument("file1")
    p.add_argument("file2")
    common(p)

    p = sub.add_parser("erasure", help="check that a ghost tape step "
                                       "preserves the value distribution")
    p.add_argument("file")
    p.add_argument("--label", type=int, default=0, metavar="L",
                   help="tape label to ghost-step (default 0)")
    p.add_argument("--tape", action="append", default=[], metavar="B[:v,..]",
                   help="seed a tape with bound B and optional initial "
                        "values; repeat for labels 0, 1, ...")
    common(p)

    p = sub.add_parser("couple", help="search for an exact or left-partial "
                                      "coupling between two distributions")
    p.add_argument("dist1", help="distribution JSON")
    p.add_argument("dist2", help="distribution JSON")
    p.add_argument("relation", help='relation JSON {"pairs": [[a,b],...]}')
    p.add_argument("--mode", choices=("exact", "left-partial"),
                   default="exact")
    common(p)

    p = sub.add_parser("corpus", help="list, emit, or check the bundled "
                                      "program pairs")
    p.add_argument("action", choices=("list", "emit", "check"))
    p.add_argument("entry", nargs="?")
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="entry parameter, e.g. --param p=5")
    p.add_argument("--out", metavar="DIR",
                   help="emit: write .tl files here instead of stdout")
    common(p)

    p = sub.add_parser("sample", help="pseudo-random executions "
                                      "(exploratory; never exact)")
    p.add_argument("file")
    p.add_argument("--samples", type=int, required=True, metavar="K")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    return ap


_COMMANDS = {
    "typecheck": cmd_typecheck,
    "dist": cmd_dist,
    "compare": cmd_compare,
    "erasure": cmd_erasure,
    "couple": cmd_couple,
    "corpus": cmd_corpus,
    "sample": cmd_sample,
}


def run(argv: list[str]) -> int:
    ap = _build_argparser()
    ns = ap.parse_args(argv)
    try:
        paths = tuple(getattr(ns, name)
                      for name in ("file", "file1", "file2",
                                   "dist1", "dist2", "relation")
                      if hasattr(ns, name))
        cfg = RunConfig(
            command=ns.command,
            paths=paths,
            depth=ns.depth if ns.depth is not None else 50,
            fmt=ns.fmt,
            mode=getattr(ns, "mode", "exact"),
            label=getattr(ns, "label", 0),
            tapes=tuple(_parse_tape(t) for t in getattr(ns, "tape", [])),
            samples=getattr(ns, "samples", None),
            seed=getattr(ns, "seed", 0),
            action=getattr(ns, "action", None),
            entry=getattr(ns, "entry", None),
            params=_parse_params(getattr(ns, "param", [])),
            out_dir=getattr(ns, "out", None),
            depth_given=ns.depth is not None,
        )
        if cfg.command == "corpus" and cfg.action != "list" and not cfg.entry:
            raise UsageError(f"corpus {cfg.action} needs an entry name")
        return _COMMANDS[cfg.command](cfg)
    except (UsageError, ValueError, TypecheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: program nested too deeply (recursion limit "
              f"{sys.getrecursionlimit()})", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
