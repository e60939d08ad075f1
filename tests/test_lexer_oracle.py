"""Differential test of the lexer and of `ParseError` positions.

`Parser` keeps its tokens as flat lists of kinds, texts and offsets and
works out a line and column from an offset only when it raises.
`_oracle.ref_tokenize` counts lines and columns token by token as it
lexes.  On seeded mutants of the benchmark's front-end programs and of
the corpus sources, both must give the same `(kind, text)` per token,
and the same tree or the same `ParseError` text, line and column.
"""

import random
import sys
from pathlib import Path

import pytest

from _oracle import ref_tokenize
from tapelang import corpus
from tapelang.parser import KEYWORDS, PUNCT, ParseError, Parser, parse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402  (bench/gen.py: the front-end workload's programs)

# what a mutation inserts: punctuation, comments, line breaks, tabs, a
# numeral that starts no word, a stray character, and keywords, bare and
# spaced
INSERTS = [*PUNCT, "#", "# c", "#\n", "\n", "\n\n", "\r\n", "\t", " \t",
           "²", "x²", "$", *sorted(KEYWORDS),
           *(f" {kw} " for kw in sorted(KEYWORDS))]
# a source of n characters gets about SPREAD / n edited mutants, at
# least one and at most MOST (a random term reaches about 46,000
# characters, a corpus context about 100)
SPREAD, MOST = 3000, 30


class RefParser(Parser):
    """The same grammar over `ref_tokenize`'s tokens, raising at a
    token's own line and column: the offset of token i is i."""

    def __init__(self, src: str):
        self.toks = ref_tokenize(src)
        self.src, self.pos = src, 0
        self.kinds = [t.kind for t in self.toks]
        self.texts = [t.text for t in self.toks]
        self.starts = list(range(len(self.toks)))

    def fail(self, msg: str, off: int | None = None):
        t = self.toks[self.pos if off is None else off]
        raise ParseError(msg, t.line, t.col)


def outcome(cls, src: str):
    """The tokens and the tree, or where and how lexing or parsing
    failed."""
    try:
        p = cls(src)
    except ParseError as exc:
        return "lex", str(exc), exc.line, exc.col
    tokens = list(zip(p.kinds, p.texts))
    try:
        tree = p.expr()
        p.expect("eof")
    except ParseError as exc:
        return tokens, str(exc), exc.line, exc.col
    return tokens, tree


def mutants(rng: random.Random, src: str, n: int) -> list[str]:
    """n mutants of src, each one to three deletions and insertions, and
    one truncation."""
    out = []
    for _ in range(n):
        s = src
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(s) + 1)
            if rng.random() < 0.3:
                s = s[:i] + s[i + rng.randint(1, 4):]
            else:
                s = s[:i] + rng.choice(INSERTS) + s[i:]
        out.append(s)
    return out + [src[:rng.randrange(len(src) + 1)]]


# errors that mutants of the sources below seldom reach: an arm given
# twice (reported at that arm, not at the next token), and the end of
# input after a comment or a carriage return
HAND = ["match x with\n  | inl a -> 1\n  | inl b -> 2\nend",
        "match x with inr a -> 1 | some b ->\n  2 end", "(1, # c",
        "let x = 1 in\r\n", "fun (x : int) ->\n\t\tx + # c\n"]


def sources() -> list[str]:
    out = [*HAND, *(p.source for p in gen.frontend_programs(1))]
    for name, _ in corpus.list_entries():
        entry = corpus.build(name)
        out += [entry.left_source, entry.right_source,
                *entry.extras.values(), *(c.source for c in entry.contexts)]
    return out


def test_tokens_and_parse_errors_match_the_reference_lexer():
    rng = random.Random("lexer-oracle")
    checked = list(HAND)
    for src in sources():
        checked += mutants(rng, src, min(MOST, max(1, SPREAD // len(src))))
    errors = 0
    for s in checked:
        want = outcome(RefParser, s)
        assert outcome(Parser, s) == want, s
        errors += len(want) > 2
    assert errors > 1000


def test_a_duplicate_arm_is_reported_at_that_arm():
    """The one error raised at a token the parser has already passed: the
    second arm of a side, not the `end` after its body."""
    with pytest.raises(ParseError) as exc:
        parse(HAND[0])
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        "3:5: duplicate inl arm in match", 3, 5)
