"""The command line's outputs, pinned: exit code, stdout and stderr of
each invocation below, byte for byte.  `tests/golden/cli.json` holds them.

The invocations cover every command in both formats, usage errors,
`corpus list`/`emit`/`check` and `sample` at two seeds.  Each runs
in-process in a fresh directory that holds the files of FILES, so paths
in the output are relative and the same on every machine.

`SAMPLE_PINS` names the `tests/golden/sample_*.{json,table}` files
that `test_cli` compares `sample` with, byte for byte.

To record all of them again: `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from tapelang.cli import run

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
# (program, seed) -> the rest of the `sample` invocation pinned in
# golden/<program>.seed<seed>.<format>
SAMPLE_PINS = {**{("sample_chains", seed): ["--samples", "30", "--depth",
                                            "200"] for seed in range(4)},
               ("sample_wide", 3): ["--samples", "60"]}

FLIP_OR = "let x = flip() in let y = flip() in x || y"
FAIR = {"weights": {"0": "1/2", "1": "1/2"}}
FILES = {
    "flip.tl": "flip()",
    "flip_or.tl": FLIP_OR,
    "if_flip.tl": "if flip() then true else false",
    "fun.tl": "fun (x : int) -> (x + 1, inl[bool] x)",
    "ill.tl": "1 + true",
    "unparsable.tl": "let x = 1",
    "tape.tl": "rand(2, t0) + rand(1, t1)",
    "free.tl": "x + 1",
    "omega.tl": "(rec f (u : unit) : bool = f u) ()",
    "deep.tl": " + ".join(["1"] * 3000),
    "fair.json": json.dumps(FAIR),
    "skewed.json": json.dumps({"weights": {"0": "3/4", "1": "1/4"}}),
    "half.json": json.dumps({"weights": {"0": "1/2"}}),
    "bad_dist.json": json.dumps({"weights": {"0": 1}}),
    "id.json": json.dumps({"pairs": [["0", "0"], ["1", "1"]]}),
    "diag.json": json.dumps({"pairs": [["0", "0"]]}),
    "bad_rel.json": json.dumps({"pairs": 5}),
    "not_json.json": "{",
}

INVOCATIONS = {
    "typecheck": ["typecheck", "fun.tl"],
    "typecheck json": ["typecheck", "fun.tl", "--format", "json"],
    "typecheck ill-typed": ["typecheck", "ill.tl"],
    "typecheck parse error": ["typecheck", "unparsable.tl"],
    "typecheck missing file": ["typecheck", "missing.tl"],
    "dist": ["dist", "flip_or.tl", "--depth", "20"],
    "dist json": ["dist", "flip_or.tl", "--depth", "20", "--format", "json"],
    "dist depth 0": ["dist", "flip.tl", "--depth", "0"],
    "dist negative depth": ["dist", "flip.tl", "--depth", "-1"],
    "dist too deep": ["dist", "deep.tl"],
    "compare distinguished": ["compare", "flip_or.tl", "flip.tl"],
    "compare distinguished json": ["compare", "flip_or.tl", "flip.tl",
                                   "--format", "json"],
    "compare equal": ["compare", "flip.tl", "if_flip.tl", "--depth", "10"],
    "compare divergent json": ["compare", "omega.tl", "omega.tl",
                               "--depth", "6", "--format", "json"],
    "erasure": ["erasure", "tape.tl", "--tape", "2:1", "--tape", "1",
                "--label", "1", "--depth", "5"],
    "erasure json": ["erasure", "tape.tl", "--tape", "2", "--tape", "1:0",
                     "--depth", "4", "--format", "json"],
    "erasure unseeded label": ["erasure", "tape.tl", "--tape", "2",
                               "--tape", "1", "--label", "2"],
    "erasure free variable": ["erasure", "free.tl", "--tape", "1"],
    "erasure bad tape": ["erasure", "tape.tl", "--tape", "1:5"],
    "couple": ["couple", "fair.json", "fair.json", "id.json"],
    "couple json": ["couple", "fair.json", "fair.json", "id.json",
                    "--format", "json"],
    "couple no witness": ["couple", "fair.json", "skewed.json", "id.json"],
    "couple no witness json": ["couple", "fair.json", "skewed.json",
                               "id.json", "--format", "json"],
    "couple left-partial": ["couple", "half.json", "fair.json", "diag.json",
                            "--mode", "left-partial"],
    "couple bad relation": ["couple", "fair.json", "fair.json",
                            "bad_rel.json"],
    "couple bad distribution": ["couple", "bad_dist.json", "fair.json",
                                "id.json"],
    "couple not json": ["couple", "fair.json", "not_json.json", "id.json"],
    "corpus list": ["corpus", "list"],
    "corpus list json": ["corpus", "list", "--format", "json"],
    "corpus emit": ["corpus", "emit", "flip-or"],
    "corpus emit params": ["corpus", "emit", "elgamal-real", "--param", "p=3"],
    "corpus emit out": ["corpus", "emit", "lazy-eager", "--out", "emitted"],
    "corpus emit bad param": ["corpus", "emit", "hash", "--param", "n=oops"],
    "corpus check flip-or": ["corpus", "check", "flip-or"],
    "corpus check flip-or json": ["corpus", "check", "flip-or",
                                  "--format", "json"],
    "corpus check flip-or depth 3": ["corpus", "check", "flip-or",
                                     "--depth", "3"],
    "corpus check choice-local": ["corpus", "check", "choice-local"],
    "corpus check lazy-eager json": ["corpus", "check", "lazy-eager",
                                     "--format", "json"],
    "corpus check unknown entry": ["corpus", "check", "nonesuch"],
    "corpus check bad param": ["corpus", "check", "elgamal-real",
                               "--param", "p=4"],
    "sample seed 0": ["sample", "flip_or.tl", "--samples", "20"],
    "sample seed 5 json": ["sample", "flip_or.tl", "--samples", "20",
                           "--seed", "5", "--format", "json"],
    "sample no value": ["sample", "omega.tl", "--samples", "3",
                        "--depth", "10"],
    "sample zero count": ["sample", "flip.tl", "--samples", "0"],
}


def sample_argv(name: str, seed: int, fmt: str) -> list[str]:
    """The `sample` invocation of a pinned (program, seed), in a format."""
    return ["sample", str(GOLDEN.parent / f"{name}.tl"), *SAMPLE_PINS[
        name, seed], "--seed", str(seed), "--format", fmt]


def invoke(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text)


@pytest.mark.parametrize("case", INVOCATIONS)
def test_cli_output_is_pinned(case, tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    want = json.loads(GOLDEN.read_text())[case]
    assert invoke(INVOCATIONS[case]) == want


def record() -> dict:
    got = {}
    cwd = os.getcwd()
    for case, argv in INVOCATIONS.items():
        with tempfile.TemporaryDirectory() as tmp:
            write_files(Path(tmp))
            os.chdir(tmp)
            try:
                got[case] = invoke(argv)
            finally:
                os.chdir(cwd)
    return got


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    for name, seed in SAMPLE_PINS:
        for fmt in ("json", "table"):
            got = invoke(sample_argv(name, seed, fmt))
            assert got["exit"] == 0 and not got["stderr"], got
            (GOLDEN.parent / f"{name}.seed{seed}.{fmt}").write_text(
                got["stdout"])
