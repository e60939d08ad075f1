"""A seeded, bounded fuzz of `cli.run`, in process: every call exits 0, 1
or 2, raises nothing, and an exit 2 prints nothing on stdout and exactly
one `error:` line on stderr.

Inputs are generated programs (`_gen.rand_program`), the corpus sources,
its contexts alone (open terms, free in `hole`) and plugged with either
side, and one-token mutants of all of these: a token deleted, doubled,
or replaced by another token of the language.  Depths and sample counts
are small, so the whole run stays within a few seconds.

On every input that typechecks, `sample` must count what the one-step
reference walker `_oracle.ref_sample` counts.
"""

import json
import random
import re
from pathlib import Path

from _gen import rand_program
from _oracle import ref_sample
from tapelang import corpus
from tapelang.cli import run
from tapelang.parser import KEYWORDS, PUNCT, ParseError, Parser, parse
from tapelang.syntax import erase, plug_hole, render
from tapelang.typecheck import TypecheckError, typecheck

TOKENS = sorted(KEYWORDS) + PUNCT + ["x", "t0", "t1", "0", "1", "7"]
ERROR_LINE = re.compile(r"error: [^\n]*\n")


def mutant(rng: random.Random, src: str) -> str:
    """src with one token deleted, doubled or replaced."""
    lexed = Parser(src)
    i = rng.randrange(len(lexed.texts) - 1)  # not the end of input
    start = lexed.starts[i]
    end = start + len(lexed.texts[i])
    token = rng.choice(("", lexed.texts[i] + " " + lexed.texts[i],
                        rng.choice(TOKENS)))
    return f"{src[:start]} {token} {src[end:]}"


def sources(rng: random.Random) -> tuple[list[str], int]:
    """The inputs, and how many of them, first, are plugged contexts: the
    programs of ground type that `compare` is given as its second."""
    plugged, srcs = [], [render(rand_program(rng, depth=3, effects=e)[0])
                         for e in (False, True) for _ in range(12)]
    for name, _ in corpus.list_entries():
        entry = corpus.build(name)
        ctx = rng.choice(entry.contexts)
        plugged += [render(plug_hole(ctx.expr(), side))
                    for side in (entry.left(), entry.right())]
        srcs += [entry.left_source, *entry.extras.values(), ctx.source]
    srcs = plugged + srcs
    return srcs + [mutant(rng, src) for src in srcs for _ in range(2)], \
        len(plugged)


def test_run_exits_0_1_or_2_with_one_error_line(tmp_path, capsys):
    """Each of the five commands on each input, in table or JSON form;
    the inputs reach all three exit codes."""
    rng = random.Random(29)
    srcs, ground = sources(rng)
    paths = [str(tmp_path / f"p{i}.tl") for i in range(len(srcs))]
    for path, src in zip(paths, srcs):
        Path(path).write_text(src)
    codes = []
    for i, path in enumerate(paths):
        other = rng.choice(paths[:ground])
        for argv in (["typecheck", path],
                     ["dist", path, "--depth", "6"],
                     ["compare", path, other, "--depth", "20"],
                     ["sample", path, "--samples", "3", "--depth", "300",
                      "--seed", str(i)],
                     ["erasure", path, "--tape", "1:0", "--tape", "2",
                      "--depth", "4"]):
            fmt = rng.choice(("table", "json"))
            try:
                code = run([*argv, "--format", fmt])
            except Exception as exc:  # what the fuzz looks for
                raise AssertionError(f"{argv} on {srcs[i]!r}") from exc
            out, err = capsys.readouterr()
            context = (argv, srcs[i], code, err)
            assert code in (0, 1, 2), context
            if code == 2:
                assert out == "" and ERROR_LINE.fullmatch(err), context
            else:
                assert out and err == "", context
            codes.append(code)
    assert len(codes) == 5 * len(srcs) and set(codes) == {0, 1, 2}


def test_sample_counts_as_the_one_step_reference(tmp_path, capsys):
    """`sample` runs whole chains and draws only where a step branches;
    on each input that typechecks its counts are `ref_sample`'s."""
    srcs, _ = sources(random.Random(29))
    path = tmp_path / "p.tl"
    checked = 0
    for i, src in enumerate(srcs):
        try:
            typecheck(e := parse(src))
        except (ParseError, TypecheckError):
            continue
        core = erase(e)
        path.write_text(src)
        assert run(["sample", str(path), "--samples", "3", "--depth", "300",
                    "--seed", str(i), "--format", "json"]) == 0, src
        got = json.loads(capsys.readouterr().out)
        assert (got["counts"], got["no_value"]) == (
            ref_sample(core, 3, i, 300)), src
        checked += 1
    assert checked > len(srcs) // 4  # 57 of the 198
