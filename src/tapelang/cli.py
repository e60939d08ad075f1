"""Batch command-line front end.

Every command is a single deterministic invocation: identical inputs and
flags produce byte-identical output (the sampler included, given a fixed
seed).  Rationals print as `num/den` in lowest terms; distribution
outcomes sort by their pretty-printed form.

Each `cmd_*` returns its whole answer, (exit code, JSON object, table
lines), and `run` prints one of the two as `--format` asks (`corpus
emit` has no `--format`: its lines).  So a command that fails prints
nothing on stdout, only one `error:` line on stderr.

Exit codes: 0 for success (equal verdicts, witnesses found, checks
passing); 1 for a negative analysis result (distinguished, no witness,
an erasure or corpus check that fails); 2 for usage, parse, or type
errors, and for a standard output closed before the answer is written
(a closed standard error too: the `error:` line is then dropped).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import corpus as corpus_mod
from .analysis import (check_entry, compare_programs, erasure_check_depths,
                       tv_distance)
from .coupling import Relation, check_coupling, check_left_partial
from .dist import exec_val_trace
from .parser import ParseError, parse
from .semantics import Config, EMPTY_STATE, State, Tape, step_chain
from .subdist import SubDistr, from_jsonable, to_jsonable
from .syntax import (Label, erase, free_vars, is_value, render, render_type,
                     subst)
from .typecheck import TypecheckError, is_ground, typecheck


class UsageError(Exception):
    pass


MAX_DEPTH = 1_000_000  # the deepest --depth: a trace holds an entry per depth


def _load(path: str, read):
    """read(the text of the file at path); a file, parse, type or JSON
    error is a usage error naming the file."""
    try:
        return read(Path(path).read_text())
    except (OSError, ValueError, ParseError, TypecheckError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _checked(e, ground: bool = False):
    """e erased, once it typechecks (at a ground type, where asked: other
    results are compared as syntax, which no context observes)."""
    ty = typecheck(e)
    if ground and not is_ground(ty):
        raise ValueError(f"compare needs a ground result type (unit, bool, "
                         f"nat, int, and products, sums and mu types of "
                         f"them), not {render_type(ty)}")
    return erase(e)


def _core(path: str, ground: bool = False):
    return _load(path, lambda text: _checked(parse(text), ground))


def _dist_lines(mu: SubDistr) -> list[str]:
    rows = to_jsonable(mu, render)["weights"]
    width = max(map(len, rows), default=0)
    return [f"  {k.ljust(width)}  {p}" for k, p in rows.items()]


# -- commands -----------------------------------------------------------------
_Answer = tuple[int, object, list[str]]  # exit code, JSON object, table lines

def cmd_typecheck(ns: argparse.Namespace) -> _Answer:
    ty = render_type(_load(ns.file, lambda text: typecheck(parse(text))))
    return 0, {"type": ty}, [ty]


def cmd_dist(ns: argparse.Namespace) -> _Answer:
    lower, residual = exec_val_trace(_core(ns.file), EMPTY_STATE, ns.depth)[-1]
    lines = [f"depth: {ns.depth}", f"mass: {lower.mass()}",
             f"residual: {residual}", *_dist_lines(lower)]
    return 0, {"depth": ns.depth, "distribution": to_jsonable(lower, render),
               "residual": str(residual)}, lines


def cmd_compare(ns: argparse.Namespace) -> _Answer:
    rep = compare_programs(_core(ns.file1, True), _core(ns.file2, True),
                           EMPTY_STATE, ns.depth)
    tv = tv_distance(rep.lower1, rep.lower2)
    lines = [f"verdict: {rep.verdict}", f"depth: {rep.depth}",
             f"stabilized: {'yes' if rep.stabilized else 'no'}",
             *(["matched-divergence: yes"] if rep.matched_divergence else []),
             f"tv(lower bounds): {tv}",
             f"left  (residual {rep.residual1}):", *_dist_lines(rep.lower1),
             f"right (residual {rep.residual2}):", *_dist_lines(rep.lower2)]
    return (1 if rep.verdict == "distinguished" else 0,
            {**rep.to_jsonable(), "tv_lower_bounds": str(tv)}, lines)


def _name_tapes(e, tapes: int):
    """e with its free variables t0, t1, ... replaced by the labels of the
    seeded tapes they name."""
    for name in sorted(free_vars(e)):
        if not re.fullmatch(r"t(0|[1-9][0-9]*)", name):
            raise UsageError(f"free variable {name!r}; only t0, t1, ... "
                             f"may be free (they name the seeded tapes)")
        idx = int(name[1:])
        if idx >= tapes:
            raise UsageError(f"free variable {name!r} but only "
                             f"{tapes} tape(s) seeded")
        e = subst(e, name, Label(idx))
    return e


def cmd_erasure(ns: argparse.Namespace) -> _Answer:
    state = State((), tuple(_parse_tape(t) for t in ns.tape))
    if state.tape_get(ns.label) is None:
        raise UsageError(f"no tape with label {ns.label}; seed one per "
                         f"label with --tape BOUND[:v,...]")
    core = _load(ns.file, lambda text: _checked(
        _name_tapes(parse(text), len(ns.tape))))
    results = erasure_check_depths(core, state, ns.label, ns.depth)
    ok = all(results)
    lines = [f"depth {d}: {'ok' if held else 'FAIL'}"
             for d, held in enumerate(results)]
    lines.append(f"erasure at label {ns.label}: "
                 f"{'holds' if ok else 'FAILS'} for depths 0..{ns.depth}")
    return 0 if ok else 1, {
        "label": ns.label, "holds": ok,
        "depths": {str(d): held for d, held in enumerate(results)}}, lines


def _json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _relation(text: str) -> Relation:
    obj = _json(text)
    pairs = obj.get("pairs") if isinstance(obj, dict) else None
    if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(side, str) for side in pair)
            for pair in pairs):
        raise ValueError('relation JSON needs {"pairs": [["left", "right"], '
                         '...]}')
    return Relation.from_pairs(map(tuple, pairs))


def cmd_couple(ns: argparse.Namespace) -> _Answer:
    mu1, mu2 = (_load(path, lambda text: from_jsonable(_json(text)))
                for path in (ns.dist1, ns.dist2))
    rel = _load(ns.relation, _relation)
    check = check_coupling if ns.mode == "exact" else check_left_partial
    witness = check(mu1, mu2, rel)
    if witness is None:
        return 1, {"mode": ns.mode, "witness": None}, [
            f"no {ns.mode} coupling within the relation"]
    joint = sorted([a, b, str(p)] for (a, b), p in witness.joint.items())
    lines = [f"{witness.mode} coupling found:",
             *(f"  ({a}, {b})  {p}" for a, b, p in joint)]
    return 0, {"mode": ns.mode,
               "witness": {"mode": witness.mode, "joint": joint}}, lines


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


def cmd_corpus_list(ns: argparse.Namespace) -> _Answer:
    entries = corpus_mod.list_entries()
    width = max(len(n) for n, _ in entries)
    lines = [f"{n.ljust(width)}  {s}" for n, s in entries]
    return 0, [{"name": n, "summary": s} for n, s in entries], lines


def cmd_corpus_emit(ns: argparse.Namespace) -> _Answer:
    """The entry's sources, or the files written; emit has no JSON form."""
    files = _entry_sources(corpus_mod.build(ns.entry, _parse_params(ns.param)))
    if ns.out is None:
        return 0, None, [line for fname, src in files
                         for line in (f"-- {fname}", src, "")]
    out, written = Path(ns.out), []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for fname, src in files:
            (out / fname).write_text(src + "\n")
            written.append(str(out / fname))
    except OSError as exc:
        done = f" (already written: {', '.join(written)})" if written else ""
        raise UsageError(f"{out}: {exc}{done}") from exc
    return 0, None, [f"wrote {path}" for path in written]


def cmd_corpus_check(ns: argparse.Namespace) -> _Answer:
    entry = corpus_mod.build(ns.entry, _parse_params(ns.param))
    depth = entry.depth if ns.depth is None else ns.depth
    rows = check_entry(entry, depth)
    all_ok = all(ok for *_, ok in rows)
    lines = [f"{entry.name} {dict(sorted(entry.params.items()))} "
             f"at depth {depth}:"]
    for name, expected, rep, ok in rows:
        left, right = ("not settled" if d is None else d
                       for d in (rep.settle1, rep.settle2))
        lines.append(f"  {name}: expected {expected}, got {rep.outcome} "
                     f"[{'ok' if ok else 'MISMATCH'}]; settle depth (of "
                     f"{depth}): left {left}, right {right}")
    lines.append("all contexts as expected" if all_ok else "MISMATCHES found")
    return 0 if all_ok else 1, {
        "entry": entry.name,
        "params": {k: entry.params[k] for k in sorted(entry.params)},
        "depth": depth,
        "contexts": [{"name": name, "expected": expected,
                      "verdict": rep.verdict,
                      "matched_divergence": rep.matched_divergence,
                      "settle_depth": {"left": rep.settle1,
                                       "right": rep.settle2},
                      "ok": ok}
                     for name, expected, rep, ok in rows],
        "ok": all_ok}, lines


def cmd_sample(ns: argparse.Namespace) -> _Answer:
    core = _core(ns.file)
    rng = random.Random(ns.seed)
    memo: dict = {}  # stateless redex -> successor, shared by the samples
    counts: dict[str, int] = {}
    for _ in range(ns.samples):
        config, budget = Config(core, EMPTY_STATE), ns.depth
        while budget and not is_value(config.expr):
            k, out = step_chain(config, budget, memo)  # run to a branch
            budget -= k
            if not out:  # stuck
                break
            config = out[rng.randrange(len(out)) if len(out) > 1 else 0][0]
        if is_value(config.expr):
            key = render(config.expr)
            counts[key] = counts.get(key, 0) + 1
    nonterm = ns.samples - sum(counts.values())
    freq = {k: Fraction(n, ns.samples) for k, n in counts.items()}
    lines = [f"samples: {ns.samples} (seed {ns.seed}, step budget {ns.depth})",
             *(f"  {k}  {counts[k]}  ({freq[k]})" for k in sorted(counts))]
    if nonterm:
        lines.append(f"  (no value within budget)  {nonterm}")
    return 0, {"samples": ns.samples, "seed": ns.seed, "step_budget": ns.depth,
               "counts": dict(sorted(counts.items())),
               "frequencies": {k: str(freq[k]) for k in sorted(freq)},
               "no_value": nonterm}, lines


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
        if key in params:
            raise UsageError(f"--param {key} given twice")
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

    def common(p, run, depth=None):  # depth: the help of --depth, if read
        p.set_defaults(run=run)
        if depth:
            p.add_argument("--depth", type=int, default=50, metavar="N",
                           help=f"{depth}; at most {MAX_DEPTH}")
        p.add_argument("--format", choices=("table", "json"),
                       default="table", dest="fmt")

    p = sub.add_parser("typecheck", help="print a program's type")
    p.add_argument("file")
    common(p, cmd_typecheck)

    p = sub.add_parser("dist", help="exact value distribution at a depth")
    p.add_argument("file")
    common(p, cmd_dist, "execution depth (default 50)")

    p = sub.add_parser("compare", help="compare two programs' value "
                                       "distributions")
    p.add_argument("file1")
    p.add_argument("file2")
    common(p, cmd_compare, "execution depth (default 50)")

    p = sub.add_parser("erasure", help="check that a ghost tape step "
                                       "preserves the value distribution")
    p.add_argument("file")
    p.add_argument("--label", type=int, default=0, metavar="L",
                   help="tape label to ghost-step (default 0)")
    p.add_argument("--tape", action="append", default=[], metavar="B[:v,..]",
                   help="seed a tape with bound B and optional initial "
                        "values; repeat for labels 0, 1, ...")
    common(p, cmd_erasure, "execution depth (default 50)")

    p = sub.add_parser("couple", help="search for an exact or left-partial "
                                      "coupling between two distributions")
    p.add_argument("dist1", help="distribution JSON")
    p.add_argument("dist2", help="distribution JSON")
    p.add_argument("relation", help='relation JSON {"pairs": [[a,b],...]}')
    p.add_argument("--mode", choices=("exact", "left-partial"),
                   default="exact")
    common(p, cmd_couple)

    corpus = sub.add_parser("corpus", help="list, emit, or check the bundled "
                                           "program pairs").add_subparsers(
        dest="action", required=True)
    entry = argparse.ArgumentParser(add_help=False)
    entry.add_argument("entry")
    entry.add_argument("--param", action="append", default=[], metavar="K=V",
                       help="entry parameter, e.g. --param p=5")
    common(corpus.add_parser("list"), cmd_corpus_list)
    p = corpus.add_parser("emit", parents=[entry])
    p.add_argument("--out", metavar="DIR",
                   help="write .tl files here instead of stdout")
    p.set_defaults(run=cmd_corpus_emit, fmt="table")  # no JSON form
    p = corpus.add_parser("check", parents=[entry])
    common(p, cmd_corpus_check, "execution depth (default: the entry's own)")
    p.set_defaults(depth=None)  # the entry's own depth

    p = sub.add_parser("sample", help="pseudo-random executions "
                                      "(exploratory; never exact)")
    p.add_argument("file")
    p.add_argument("--samples", type=int, required=True, metavar="K")
    p.add_argument("--seed", type=int, default=0)
    common(p, cmd_sample, "step budget per sample (default 50)")

    return ap


def _print(text: str, stream) -> bool:
    """Print text and flush; False when the reader is gone, the stream's
    fd then pointed at devnull, so that the flush at exit cannot raise."""
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return False
    return True


def run(argv: list[str]) -> int:
    ns = _build_argparser().parse_args(argv)
    try:
        depth = getattr(ns, "depth", None) or 0
        if not 0 <= depth <= MAX_DEPTH:
            raise UsageError("depth must be >= 0" if depth < 0 else
                             f"depth must be at most {MAX_DEPTH}")
        if getattr(ns, "samples", 1) <= 0:
            raise UsageError("sample count must be positive")
        code, obj, lines = ns.run(ns)
    except (UsageError, ValueError, TypecheckError) as exc:
        msg = str(exc)
    except RecursionError:
        msg = (f"program nested too deeply (recursion limit "
               f"{sys.getrecursionlimit()})")
    else:
        if _print(json.dumps(obj, indent=2, sort_keys=True) if ns.fmt == "json"
                  else "\n".join(lines), sys.stdout):
            return code
        msg = "standard output closed early"
    _print(f"error: {msg}", sys.stderr)  # every error line, dropped if closed
    return 2


def entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
