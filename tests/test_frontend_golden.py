"""The front end's outputs, pinned: the outcome of `parse` and
`parse_type` (the tree, or the exception and its exact text) on a seeded
set of inputs; for each expression among them that parses, the outcome
of `typecheck` (the rendered type, or the exception and its text) and a
digest of `render` of the tree and of its erasure; and the exact
`TypecheckError` text of one ill-typed program per elimination form and
per fit, join and operator check.  `tests/golden/frontend.json` holds
them.

Inputs are the corpus sources and types, one-edit mutations of them and
short random token strings.  Two classes are left out and tested in
`test_parser.py`: a non-ASCII digit, and a comment on the last line
(whose end-of-input column once stopped at the `#`).

To record again: `PYTHONPATH=src python tests/test_frontend_golden.py`.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from tapelang import corpus
from tapelang.parser import parse, parse_type
from tapelang.syntax import erase, render, render_type
from tapelang.typecheck import TypecheckError, typecheck

GOLDEN = Path(__file__).parent / "golden" / "frontend.json"
FUNCTIONS = {"parse": parse, "parse_type": parse_type}

EXPR_TOKENS = (
    "let in if then else fun rec with end unpack as tfun option pack some "
    "none rand flip true false hole match fst snd ref unfold alloctape fold "
    "inl inr mod unit bool nat int tape forall exists mu "
    "<- -> <= && || ( ) [ ] , ; . : + - * = < ! | "
    "x y f _ a λ x² x1 0 1 42 007").split() + ["#c\n", "\n", "\t"]
TYPE_TOKENS = (
    "unit bool nat int tape forall exists mu ref option "
    "-> + * ( ) . a b _ , [ 1 x²").split() + ["\n"]
EDIT_CHARS = "()[]<>-=+*!|,;.:_ax1 \n\t#λ$"

# elimination form -> an ill-typed program that reaches its check
ELIMINATIONS = {
    "App": "(fun (f : int * bool) -> f 1) (2, true)",
    "TApp": "(fun (x : forall a. a) -> x) [int] [bool]",
    "Fst": "fst (fun (p : int + bool -> unit) -> p)",
    "Snd": "snd (inl[bool * int] 1)",
    "Match": "match (1, 2) with inl x -> x | inr y -> y end",
    "Unfold": "unfold (fun (x : mu a. unit + a) -> x)",
    "Unpack": "unpack (tfun a -> 1) as b, v in v",
    "Load": "!(ref 1, 2)",
    "Store": "(fun _ -> ref 1) <- 2",
}

# fit, join or operator check -> an ill-typed program that fails it
CHECKS = {
    "argument": "(fun (x : nat) -> x) (0 - 1)",
    "rec body": "rec f (x : int) : nat = x",
    "if condition": "if 1 then 2 else 3",
    "if join": "if true then 1 else ()",
    "match join": "match inl[bool] 1 with inl x -> x | inr y -> y end",
    "equality join": "1 = true",
    "fold": "fold[mu a. unit + a] 1",
    "pack": "pack[int, exists a. a * a] 3",
    "store": "ref 1 <- true",
    "alloctape bound": "alloctape (0 - 2)",
    "rand bound": "rand(true)",
    "rand label": "rand(1, 2)",
    "equality type": "(fun (x : nat) -> x) = (fun (x : nat) -> x)",
    "<": "1 < ()",
    "+": "true + 1",
    "-": "1 - (1, 2)",
    "*": "1 * inl[bool] 2",
    "mod": "(0 - 1) mod false",
}


def fixed_class(src: str) -> bool:
    """Whether src holds a non-ASCII digit or a comment on its last line."""
    return ("#" in src.rsplit("\n", 1)[-1]
            or any(c.isdigit() and not c.isascii() for c in src))


def mutations(rng: random.Random, src: str, n: int) -> list[str]:
    """n one-character edits of src: a deletion, insertion or replacement."""
    out = []
    for _ in range(n):
        i = rng.randrange(len(src) + 1)
        c = rng.choice(EDIT_CHARS)
        out.append(rng.choice((src[:i] + src[i + 1:], src[:i] + c + src[i:],
                               src[:i] + c + src[i + 1:])))
    return out


def token_strings(rng: random.Random, tokens, n: int) -> list[str]:
    return ["".join(rng.choice(("", " ", " ", "\n")) + rng.choice(tokens)
                    for _ in range(rng.randint(1, 6))) for _ in range(n)]


def inputs() -> list[tuple[str, str]]:
    """(function name, source) pairs, the fixed classes left out."""
    rng = random.Random(2301)
    exprs, types = [], ["int -> forall a. a * (b + ref c) -> option a"]
    for name, _ in corpus.list_entries():
        entry = corpus.build(name)
        exprs += [entry.left_source, entry.right_source,
                  *entry.extras.values(), *(c.source for c in entry.contexts)]
        types.append(str(entry.type_()))
    exprs += [m for src in list(exprs) for m in mutations(rng, src, 12)]
    types += [m for src in list(types) for m in mutations(rng, src, 40)]
    exprs += token_strings(rng, EXPR_TOKENS, 3000)
    types += token_strings(rng, TYPE_TOKENS, 1500)
    return [(fn, src) for fn, srcs in (("parse", exprs), ("parse_type", types))
            for src in srcs if not fixed_class(src)]


def outcome(fn, src: str) -> str:
    """A digest of the tree's repr, or the exception's type and text."""
    try:
        tree = fn(src)
    except Exception as exc:  # the outcome being pinned
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(repr(tree).encode()).hexdigest()[:20]


def trees() -> list[tuple[str, object]]:
    """(source, tree) of each expression input that parses."""
    out = []
    for fn, src in inputs():
        if fn == "parse":
            try:
                out.append((src, parse(src)))
            except Exception:  # the parse outcome is pinned above
                pass
    return out


def synth_outcome(tree) -> str:
    """The rendered type of tree, or the exception's type and text."""
    try:
        return render_type(typecheck(tree))
    except Exception as exc:  # the outcome being pinned
        return f"{type(exc).__name__}: {exc}"


def render_digest(tree) -> str:
    """A digest of `render` of the tree and of its erasure."""
    text = f"{render(tree)}\n{render(erase(tree))}"
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def type_error(src: str) -> str:
    with pytest.raises(TypecheckError) as exc:
        typecheck(parse(src))
    return str(exc.value)


def record() -> dict:
    return {"parse": [outcome(FUNCTIONS[fn], src) for fn, src in inputs()],
            "typecheck": {form: type_error(src)
                          for form, src in ELIMINATIONS.items()},
            "checks": {name: type_error(src) for name, src in CHECKS.items()},
            "synth": [synth_outcome(tree) for _, tree in trees()],
            "render": [render_digest(tree) for _, tree in trees()]}


def test_parse_outcomes_are_pinned():
    want = json.loads(GOLDEN.read_text())["parse"]
    got = inputs()
    assert len(got) == len(want)
    for (fn, src), out in zip(got, want):
        assert outcome(FUNCTIONS[fn], src) == out, (fn, src)
    trees = sum(not out.startswith("ParseError") for out in want)
    assert 500 < trees < len(want) - 2_000, trees  # both outcomes are common


def test_typecheck_and_render_outcomes_are_pinned():
    golden = json.loads(GOLDEN.read_text())
    got = trees()
    assert len(got) == len(golden["synth"]) == len(golden["render"])
    for (src, tree), synth, digest in zip(got, golden["synth"],
                                          golden["render"]):
        assert synth_outcome(tree) == synth, src
        assert render_digest(tree) == digest, src
    typed = sum(not out.startswith("TypecheckError")
                for out in golden["synth"])
    assert 50 < typed < len(got) - 100, typed  # both outcomes are common


@pytest.mark.parametrize("form", ELIMINATIONS)
def test_elimination_errors_are_pinned(form):
    want = json.loads(GOLDEN.read_text())["typecheck"][form]
    assert type_error(ELIMINATIONS[form]) == want


@pytest.mark.parametrize("check", CHECKS)
def test_check_errors_are_pinned(check):
    want = json.loads(GOLDEN.read_text())["checks"][check]
    assert type_error(CHECKS[check]) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=0, ensure_ascii=False) + "\n")
