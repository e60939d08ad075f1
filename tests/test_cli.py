"""End-to-end command-line behavior, run in-process via cli.run."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tapelang.cli import run
from tapelang.subdist import from_jsonable

GOLDEN = Path(__file__).parent / "golden"
FLIP = "flip()"
FLIP_OR = "let x = flip() in let y = flip() in x || y"


@pytest.fixture
def tl(tmp_path):
    def write(src: str, name: str = "prog.tl") -> str:
        p = tmp_path / name
        p.write_text(src)
        return str(p)
    return write


@pytest.fixture
def js(tmp_path):
    def write(obj, name: str) -> str:
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return write


def out_of(capsys) -> str:
    return capsys.readouterr().out


# -- typecheck -----------------------------------------------------------------

def test_typecheck_ok(tl, capsys):
    assert run(["typecheck", tl("fun (x : int) -> x + 1")]) == 0
    assert out_of(capsys).strip() == "int -> int"


def test_typecheck_renames_only_capturing_binders(tl, capsys):
    """`forall a. int` captures nothing when `a` replaces `b`, so it keeps
    its name."""
    src = "tfun a -> (tfun b -> fun (x : forall a. int) -> x)[a]"
    assert run(["typecheck", tl(src)]) == 0
    assert out_of(capsys) == "forall a. (forall a. int) -> (forall a. int)\n"


def test_typecheck_json(tl, capsys):
    assert run(["typecheck", tl(FLIP), "--format", "json"]) == 0
    assert json.loads(out_of(capsys)) == {"type": "bool"}


def test_typecheck_error_exit_2(tl, capsys):
    assert run(["typecheck", tl("1 + true")]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exit_2(tl, capsys):
    assert run(["typecheck", tl("let x = 1")]) == 2


def test_overlong_integer_literal_exit_2(tl, capsys):
    assert run(["typecheck", tl("0 + " + "1" * 5000)]) == 2
    err = capsys.readouterr().err
    assert ": 1:5: integer literal too long" in err
    assert "sys." not in err


def test_missing_file_exit_2(capsys):
    assert run(["typecheck", "/nonexistent/x.tl"]) == 2


# -- dist ----------------------------------------------------------------------

# 2 ** (2 ** 14), an integer of 4,933 digits
HUGE = ("(rec go (k : int) : int -> int = fun (x : int) -> "
        "if k = 0 then x else go (k - 1) (x * x)) 14 2")


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", ["dist", "compare", "sample"])
def test_result_too_long_to_print_exit_2(tl, capsys, command, fmt):
    """A result with more digits than a literal may have is refused before
    anything is printed, with no advice to change the interpreter."""
    path = tl(HUGE)
    args = {"dist": [path], "compare": [path, path],
            "sample": [path, "--samples", "2"]}[command]
    assert run([command, *args, "--depth", "200", "--format", fmt]) == 2
    assert capsys.readouterr() == ("", (
        f"error: integer longer than {sys.get_int_max_str_digits()} digits, "
        f"the most a literal may have\n"))

def test_dist_table(tl, capsys):
    assert run(["dist", tl(FLIP_OR), "--depth", "20"]) == 0
    out = out_of(capsys)
    assert "depth: 20" in out
    assert "residual: 0" in out
    assert "true" in out and "3/4" in out
    assert "false" in out and "1/4" in out


def test_dist_json_roundtrips(tl, capsys):
    assert run(["dist", tl(FLIP_OR), "--depth", "20",
                "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    mu = from_jsonable(data["distribution"])
    assert mu.get("true") == Fraction(3, 4)
    assert mu.get("false") == Fraction(1, 4)
    assert data["residual"] == "0"


# Two distinct values that print alike: Int(-1) prints as `0 - 1` in item
# position, as the Binop the other branch leaves behind does.
PRINT_ALIKE = ("if flip() then (fun (u : unit) -> inl[bool] (0 - 1)) "
               "else (let y = 0 - 1 in fun (u : unit) -> inl[bool] y)")


def test_dist_outcomes_that_print_alike_share_one_row(tl, capsys):
    f = tl(PRINT_ALIKE)
    assert run(["dist", f]) == 0
    assert out_of(capsys).splitlines()[1:] == [
        "mass: 1", "residual: 0", "  fun u -> inl (0 - 1)  1"]
    assert run(["dist", f, "--format", "json"]) == 0
    dist = json.loads(out_of(capsys))["distribution"]
    assert dist == {"mass": "1", "weights": {"fun u -> inl (0 - 1)": "1"}}
    assert from_jsonable(dist).mass() == 1
    assert run(["compare", f, f, "--format", "json"]) == 2
    assert capsys.readouterr().err.endswith(", not unit -> int + bool\n")


def test_dist_of_a_program_whose_literals_the_parser_shares(tl, capsys):
    """The parser makes every `true` (and every `false`) one node, so the
    body substituted into has subterms with more than one parent."""
    src = "let x = 1 in if x = 1 then (true, false) else (false, true)"
    assert run(["dist", tl(src)]) == 0
    assert out_of(capsys).splitlines()[3:] == ["  (true, false)  1"]


@pytest.mark.parametrize("src, row", [
    ("ref 0", "loc(0)"), ("alloctape 1", "tape(0)"),
    ("rec f (x : int) : int = x", "rec f x = x"),
    ("pack[int, exists a. a] 1", "pack 1"),
])
def test_dist_rows_of_runtime_and_erased_values(tl, capsys, src, row):
    """A location and a tape label print as such; a function and a
    package print erased, without their type annotations."""
    assert run(["dist", tl(src)]) == 0
    assert out_of(capsys).splitlines()[3:] == [f"  {row}  1"]


def test_dist_depth_zero(tl, capsys):
    assert run(["dist", tl(FLIP), "--depth", "0"]) == 0
    assert "residual: 1" in out_of(capsys)


def test_negative_depth_exit_2(tl, capsys):
    f = tl(FLIP)
    for argv in (["dist", f], ["compare", f, f],
                 ["erasure", tl("1"), "--tape", "1"],
                 ["corpus", "check", "flip-or"],
                 ["sample", f, "--samples", "3"]):
        assert run(argv + ["--depth", "-1"]) == 2
        assert capsys.readouterr().err == "error: depth must be >= 0\n"


def test_depth_above_the_bound_exit_2(tl, capsys):
    """A trace holds an entry per depth, so --depth is bounded; at the
    bound a program that settles at once is still answered."""
    f = tl(FLIP_OR)
    assert run(["dist", f, "--depth", "1000001"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: depth must be at most 1000000\n"
    assert run(["dist", f, "--depth", "1000000", "--format", "json"]) == 0
    got = json.loads(out_of(capsys))
    assert got["distribution"]["weights"] == {"false": "1/4", "true": "3/4"}
    assert got["residual"] == "0"


@pytest.mark.parametrize("command", ["typecheck", "couple", "corpus list",
                                     "corpus emit"])
def test_depth_only_where_read(tl, js, command):
    """typecheck, couple and corpus list and emit run nothing, so they take
    no --depth."""
    args = {"typecheck": [tl(FLIP)],
            "couple": [js(FAIR, "d.json"), js(FAIR, "d.json"),
                       js({"pairs": [["0", "0"], ["1", "1"]]}, "rel.json")],
            "corpus list": [],
            "corpus emit": ["flip-or"]}[command]
    argv = [*command.split(), *args]
    assert run(argv) == 0
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--depth", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, text", [
    ("dist", "execution depth (default 50)"),
    ("corpus check", "execution depth (default: the entry's own)"),
    ("sample", "step budget per sample (default 50)")])
def test_depth_help_says_what_depth_means(capsys, command, text):
    """corpus check runs at the entry's own depth unless told otherwise,
    and sample's --depth bounds the steps of each sample; each states the
    bound."""
    with pytest.raises(SystemExit) as exc:
        run([*command.split(), "--help"])
    assert exc.value.code == 0
    help_text = " ".join(out_of(capsys).split())
    assert f"--depth N {text}; at most 1000000" in help_text


def _module_env() -> dict[str, str]:
    """The environment in which `python -m tapelang.cli` imports this
    checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_module_entry_point_exit_codes(tl):
    """`python -m tapelang.cli` exits with run's code: 0 for a distribution,
    1 for a distinguished pair, 2 with one error line for a parse error."""
    env = _module_env()

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "tapelang.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
    flip, flip_or = tl(FLIP, "flip.tl"), tl(FLIP_OR, "flip_or.tl")
    assert cli("dist", flip).returncode == 0
    assert cli("compare", flip_or, flip).returncode == 1
    bad = cli("dist", tl("let x = 1 in", "bad.tl"))
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1


def test_closed_stdout_exits_2_without_a_traceback(tl):
    """A reader that stops after one line of an answer larger than a pipe
    holds (`... | head -1`) gets exit 2 and one error line, never a
    `BrokenPipeError` traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "tapelang.cli", "dist", tl("rand(20000)")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_module_env())
    try:
        assert proc.stdout.readline() == "depth: 50\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err


DEEP = {
    "let": lambda n: "".join(f"let x{i} = {i} in " for i in range(n)) + "0",
    "sum": lambda n: " + ".join(["1"] * n),
}


@pytest.mark.parametrize("n", [1000, 3000])
@pytest.mark.parametrize("shape", sorted(DEEP))
def test_dist_deep_nesting_exit_2(tl, capsys, shape, n):
    assert run(["dist", tl(DEEP[shape](n))]) == 2
    assert capsys.readouterr().err == (
        f"error: program nested too deeply (recursion limit "
        f"{sys.getrecursionlimit()})\n")


LIST = "mu a. unit + (int * a)"
MK_LEN = f"""let mk = rec mk (n : int) : {LIST} =
  if n = 0 then fold[{LIST}] (inl[int * ({LIST})] ())
  else fold[{LIST}] (inr[unit] ((n, mk (n - 1)))) in
let len = rec len (l : {LIST}) : int =
  match unfold l with inl u -> 0 | inr p -> 1 + len (snd p) end in
len (mk 2000)"""


def test_dist_long_list_inside_a_chain(tl, capsys):
    """A list 6,000 terms tall, built and taken apart in one chain, is
    not too deep: only its length is a result."""
    assert run(["dist", tl(MK_LEN), "--depth", "100000",
                "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["distribution"]["weights"] == {
        "2000": "1"}


def test_dist_of_a_deep_value_answers(tl, capsys):
    """`mk 300` is a list value about 900 terms tall.  Configurations are
    interned, so the buckets hash and compare them by identity and nothing
    walks the list but `render`."""
    src = MK_LEN.split("let len")[0] + "mk 300"
    assert run(["dist", tl(src), "--depth", "20000", "--format", "json"]) == 0
    out = json.loads(out_of(capsys))
    (text, weight), = out["distribution"]["weights"].items()
    assert (weight, out["distribution"]["mass"], out["residual"]) == (
        "1", "1", "0")
    assert text.startswith("fold inr (300, fold inr (299, ")
    assert text.count("fold inr") == 300


# -- compare -------------------------------------------------------------------

def test_compare_equal_exit_0(tl, capsys):
    a = tl(FLIP, "a.tl")
    b = tl("if flip() then true else false", "b.tl")
    assert run(["compare", a, b, "--depth", "10"]) == 0
    assert "verdict: exactly-equal" in out_of(capsys)


def test_compare_distinguished_exit_1(tl, capsys):
    a = tl(FLIP_OR, "a.tl")
    b = tl(FLIP, "b.tl")
    assert run(["compare", a, b, "--depth", "20"]) == 1
    out = out_of(capsys)
    assert "verdict: distinguished" in out
    assert "tv(lower bounds): 1/4" in out


def test_compare_json_carries_tv(tl, capsys):
    a = tl(FLIP_OR, "a.tl")
    b = tl(FLIP, "b.tl")
    assert run(["compare", a, b, "--depth", "20", "--format", "json"]) == 1
    data = json.loads(out_of(capsys))
    assert data["tv_lower_bounds"] == "1/4"
    assert data["verdict"] == "distinguished"
    assert data["stabilized"] is True


@pytest.mark.parametrize("a, b, ty", [
    ("fun (u : unit) -> 2", "fun (v : unit) -> 2", "unit -> nat"),
    ("let r = ref 0 in r", "let s = ref 1 in s", "ref nat"),
    ("(1, alloctape 1)", "(1, alloctape 1)", "nat * tape"),
])
def test_compare_refuses_a_non_ground_type(tl, capsys, a, b, ty):
    """Closures and locations are compared as syntax, which tells apart
    alpha-equivalent closures and equates references no context could
    confuse, so `compare` takes ground result types only."""
    path = tl(a, "a.tl")
    assert run(["compare", path, tl(b, "b.tl")]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {path}: compare needs a ground result type (unit, bool, "
        f"nat, int, and products, sums and mu types of them), not {ty}\n"))


# -- erasure -------------------------------------------------------------------

def test_erasure_consumer(tl, capsys):
    path = tl("rand(1, t0)")
    assert run(["erasure", path, "--tape", "1", "--depth", "6"]) == 0
    out = out_of(capsys)
    assert "depth 0: ok" in out and "depth 6: ok" in out
    assert "holds" in out


def test_erasure_time_grows_as_its_depth(tl, capsys):
    """Past the depth where every trace settled, a depth costs `erasure` a
    few identity tests and a line: ten times the depths take about ten
    times as long, timed against itself (best of 3 each), not the clock.
    The bound, 30, leaves room for noise; a cost per depth that grew with
    the depth would not meet it."""
    path = tl("rand(1, t0)")

    def seconds(depth):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            assert run(["erasure", path, "--tape", "1",
                        "--depth", str(depth)]) == 0
            best = min(best, time.perf_counter() - start)
            assert out_of(capsys).endswith(f"holds for depths 0..{depth}\n")
        return best
    assert seconds(200_000) < 30 * seconds(20_000)


def test_erasure_names_tapes_under_shared_literals(tl, capsys):
    path = tl("(fst (true, t0), snd (true, 2))")
    assert run(["erasure", path, "--tape", "1"]) == 0
    assert "holds" in out_of(capsys)


def test_erasure_preloaded_tape_json(tl, capsys):
    path = tl("rand(2, t0)")
    assert run(["erasure", path, "--tape", "2:1,0", "--label", "0",
                "--depth", "4", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["holds"] is True
    assert set(data["depths"]) == {str(d) for d in range(5)}


def test_erasure_unseeded_label_exit_2(tl, capsys):
    assert run(["erasure", tl("1 + 1"), "--label", "3",
                "--tape", "1"]) == 2
    # a negative label names no tape; it does not count from the end
    assert run(["erasure", tl("1 + 1"), "--label", "-1",
                "--tape", "1"]) == 2
    assert "no tape with label -1" in capsys.readouterr().err


def test_erasure_stray_free_var_exit_2(tl, capsys):
    assert run(["erasure", tl("x + 1"), "--tape", "1"]) == 2
    assert "free variable" in capsys.readouterr().err


@pytest.mark.parametrize("src, argv, err", [
    ("(t0, t1)", ["--tape", "1"],
     "free variable 't1' but only 1 tape(s) seeded"),
    ("rand(1, t0)", ["--tape", "x"],
     "bad --tape 'x'; expected BOUND[:v,...]"),
])
def test_erasure_bad_tapes_exit_2(tl, capsys, src, argv, err):
    assert run(["erasure", tl(src), *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_erasure_tape_value_out_of_bound_exit_2(tl, capsys):
    assert run(["erasure", tl("1"), "--tape", "1:5"]) == 2


@pytest.mark.parametrize("name", ["t²", "t٣", "t01"])
def test_erasure_tape_names_are_ascii_numerals(tl, capsys, name):
    """A free variable names a tape only as t0, t1, ... written the way
    the lexer reads a numeral: ASCII digits, no leading zero."""
    tapes = ["--tape", "1"] * 4
    assert run(["erasure", tl(f"rand(1, {name})"), *tapes]) == 2
    assert capsys.readouterr().err == (
        f"error: free variable {name!r}; only t0, t1, ... may be free "
        f"(they name the seeded tapes)\n")
    assert run(["erasure", tl("rand(1, t3)"), *tapes]) == 0


# -- couple --------------------------------------------------------------------

FAIR = {"weights": {"0": "1/2", "1": "1/2"}}


def test_couple_identity(js, capsys):
    d = js(FAIR, "d.json")
    rel = js({"pairs": [["0", "0"], ["1", "1"]]}, "rel.json")
    assert run(["couple", d, d, rel]) == 0
    out = out_of(capsys)
    assert "exact coupling found" in out
    assert "(0, 0)  1/2" in out


def test_couple_no_witness_exit_1(js, capsys):
    d1 = js(FAIR, "d1.json")
    d2 = js({"weights": {"0": "3/4", "1": "1/4"}}, "d2.json")
    rel = js({"pairs": [["0", "0"], ["1", "1"]]}, "rel.json")
    assert run(["couple", d1, d2, rel]) == 1
    assert "no exact coupling" in out_of(capsys)


def test_couple_left_partial_json(js, capsys):
    d1 = js({"weights": {"0": "1/2"}}, "d1.json")
    d2 = js(FAIR, "d2.json")
    rel = js({"pairs": [["0", "0"]]}, "rel.json")
    assert run(["couple", d1, d2, rel, "--mode", "left-partial",
                "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["witness"]["joint"] == [["0", "0", "1/2"]]


def test_couple_bad_relation_exit_2(js, capsys):
    d = js(FAIR, "d.json")
    for bad in ({"relation": []}, {"pairs": 5}):
        rel = js(bad, "rel.json")
        assert run(["couple", d, d, rel]) == 2


@pytest.mark.parametrize("pairs", [[[[1], {}]], [[0, 0]], [["0", None]],
                                   ["00", "11"], {"00": 0, "11": 0}])
def test_couple_relation_sides_are_strings(js, capsys, pairs):
    """Each side of a relation pair is an outcome string, `pairs` is a
    list and each pair a list of two; anything else, a two-character
    string included, is a usage error that names the file, not a
    relation read by its text."""
    d = js(FAIR, "d.json")
    rel = js({"pairs": pairs}, "rel.json")
    assert run(["couple", d, d, rel]) == 2
    assert capsys.readouterr().err.startswith(f"error: {rel}: ")


@pytest.mark.parametrize("bad", [
    [1, 2], {"0": "1/2", "1": "1/2"}, {"weights": {"0": 1}},
    {"weights": [["0", "1"]]}, {"weights": {"0": "1/0"}}])
def test_couple_malformed_distribution_exit_2(js, capsys, bad):
    """Only {"weights": {outcome: "num/den"}} is read; anything else is a
    usage error that names the file."""
    d = js(FAIR, "d.json")
    rel = js({"pairs": [["0", "0"]]}, "rel.json")
    path = js(bad, "bad.json")
    for argv in ([path, d, rel], [d, path, rel]):
        assert run(["couple", *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("which", [0, 1, 2])
def test_couple_deep_json_exit_2(js, tmp_path, capsys, which):
    """JSON nested too deeply for the decoder is a usage error naming the
    file, not a program nested too deeply."""
    deep = tmp_path / "deep.json"
    deep.write_text('{"weights": ' + "[" * 100_000 + "]" * 100_000 + "}")
    argv = [js(FAIR, "d.json"), js(FAIR, "d.json"),
            js({"pairs": [["0", "0"]]}, "rel.json")]
    argv[which] = str(deep)
    assert run(["couple", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {deep}: JSON nested too "
                                       f"deeply\n")


# -- corpus --------------------------------------------------------------------

def test_corpus_list(capsys):
    assert run(["corpus", "list"]) == 0
    out = out_of(capsys)
    for name in ("lazy-eager", "flip-or", "elgamal-real", "lazy-int"):
        assert name in out


def test_corpus_list_json(capsys):
    assert run(["corpus", "list", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert len(data) == 10
    assert {"name", "summary"} <= set(data[0])


def test_corpus_check_equal_entry(capsys):
    assert run(["corpus", "check", "lazy-eager"]) == 0
    out = out_of(capsys)
    assert "exactly-equal" in out
    assert "FAIL" not in out


def test_corpus_check_distinguished_entry(capsys):
    # flip-or's contexts expect "distinguished", so the check passes
    assert run(["corpus", "check", "flip-or"]) == 0
    assert "distinguished" in out_of(capsys)


def test_corpus_check_settle_depths(capsys):
    assert run(["corpus", "check", "flip-or"]) == 0
    assert out_of(capsys).splitlines()[1:3] == [
        "  identity: expected distinguished, got distinguished [ok]; "
        "settle depth (of 20): left 9, right 3",
        "  branch: expected distinguished, got distinguished [ok]; "
        "settle depth (of 20): left 10, right 4"]
    assert run(["corpus", "check", "flip-or", "--depth", "3"]) == 1
    assert out_of(capsys).splitlines()[1:3] == [
        "  identity: expected distinguished, got inconclusive [MISMATCH]; "
        "settle depth (of 3): left not settled, right 3",
        "  branch: expected distinguished, got inconclusive [MISMATCH]; "
        "settle depth (of 3): left not settled, right not settled"]


def test_corpus_check_settle_depths_json(capsys):
    assert run(["corpus", "check", "flip-or", "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["depth"] == 20
    assert [c["settle_depth"] for c in data["contexts"]] == [
        {"left": 9, "right": 3}, {"left": 10, "right": 4}]
    assert run(["corpus", "check", "flip-or", "--depth", "3",
                "--format", "json"]) == 1
    data = json.loads(out_of(capsys))
    assert [c["settle_depth"] for c in data["contexts"]] == [
        {"left": None, "right": 3}, {"left": None, "right": None}]


def test_corpus_check_with_params(capsys):
    assert run(["corpus", "check", "elgamal-real", "--param", "p=3"]) == 0


def test_corpus_check_insufficient_depth_exit_1(capsys):
    # depth 1 cannot stabilize anything; the expected verdicts don't appear
    assert run(["corpus", "check", "flip-or", "--depth", "1"]) == 1


def test_corpus_emit_stdout(capsys):
    assert run(["corpus", "emit", "flip-or"]) == 0
    out = out_of(capsys)
    assert "-- flip-or-or.tl" in out or "flip-or" in out
    assert "flip()" in out


def test_corpus_emit_files(tmp_path, capsys):
    out_dir = tmp_path / "emitted"
    assert run(["corpus", "emit", "lazy-eager", "--out", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert any(name.endswith(".tl") for name in files)
    # emitted programs re-parse and typecheck through the CLI
    prog = next(p for p in out_dir.iterdir()
                if "ctx" not in p.name and p.suffix == ".tl")
    assert run(["typecheck", str(prog)]) == 0


def test_corpus_emit_partly_written_prints_nothing(tmp_path, capsys,
                                                  monkeypatch):
    """A command that exits 2 leaves stdout empty, even after some of its
    files are written: here the second file's name is a directory.  The
    error line names the files already written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out" / "flip-or-flip.tl").mkdir(parents=True)
    assert run(["corpus", "emit", "flip-or", "--out", "out"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: out: ")
    written = str(Path("out") / "flip-or-flip_or.tl")
    assert err.endswith(f" (already written: {written})\n")
    assert (tmp_path / written).is_file()


def test_corpus_emit_unwritable_out_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "emitted"
    assert run(["corpus", "emit", "flip-or", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ")
    assert "already written" not in err


@pytest.mark.parametrize("argv", [
    ["list", "flip-or"], ["list", "--param", "p=3"], ["list", "--out", "d"],
    ["emit", "flip-or", "--format", "json"], ["check", "flip-or", "--out", "d"]])
def test_corpus_options_only_where_read(argv):
    """Each corpus action takes only the arguments it reads (--depth is
    checked with the other commands in test_depth_only_where_read)."""
    with pytest.raises(SystemExit) as exc:
        run(["corpus", *argv])
    assert exc.value.code == 2


def test_corpus_unknown_entry_exit_2(capsys):
    assert run(["corpus", "check", "nonesuch"]) == 2


def test_corpus_bad_param_exit_2(capsys):
    assert run(["corpus", "check", "elgamal-real", "--param", "p=4"]) == 2
    assert run(["corpus", "check", "hash", "--param", "n=oops"]) == 2
    capsys.readouterr()
    assert run(["corpus", "check", "hash", "--param", "n"]) == 2
    assert capsys.readouterr() == (
        "", "error: bad --param 'n'; expected name=value\n")


def test_corpus_check_needs_entry(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["corpus", "check"])
    assert exc.value.code == 2


# -- sample --------------------------------------------------------------------

def test_sample_deterministic(tl, capsys):
    path = tl(FLIP)
    assert run(["sample", path, "--samples", "40", "--seed", "7"]) == 0
    first = out_of(capsys)
    assert run(["sample", path, "--samples", "40", "--seed", "7"]) == 0
    assert out_of(capsys) == first
    assert run(["sample", path, "--samples", "40", "--seed", "8"]) == 0
    assert out_of(capsys) != first


def test_sample_json_counts(tl, capsys):
    assert run(["sample", tl(FLIP), "--samples", "25", "--seed", "1",
                "--format", "json"]) == 0
    data = json.loads(out_of(capsys))
    assert sum(data["counts"].values()) + data["no_value"] == 25
    assert data["no_value"] == 0
    assert set(data["counts"]) <= {"true", "false"}


def test_sample_counts_nontermination(tl, capsys):
    omega = tl("(rec f (u : unit) : bool = f u) ()")
    assert run(["sample", omega, "--samples", "5", "--seed", "0",
                "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["no_value"] == 5


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("seed", range(4))
def test_sample_output_is_pinned(seed, fmt, capsys):
    """Byte for byte, over long deterministic chains and branches, with
    some samples cut by the step budget.  `sample` draws one step at a
    time from `step_weights`, and `rng.randrange(1)` consumes randomness
    even on a deterministic step, so stepping whole chains at once would
    change every later draw."""
    assert run(["sample", str(GOLDEN / "sample_chains.tl"), "--samples",
                "30", "--seed", str(seed), "--depth", "200",
                "--format", fmt]) == 0
    want = (GOLDEN / f"sample_chains.seed{seed}.{fmt}").read_text()
    assert out_of(capsys) == want


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_sample_output_is_pinned_on_wide_branches(fmt, capsys):
    """Byte for byte where steps branch 12 and 13 ways.  `sample` orders a
    branch's successors by their text, where `Int(n=10)` comes before
    `Int(n=2)`, so this pins the draw where text order and numeric order
    differ; the `sample_chains` branches (2 to 4 ways) cannot."""
    assert run(["sample", str(GOLDEN / "sample_wide.tl"), "--samples", "60",
                "--seed", "3", "--format", fmt]) == 0
    want = (GOLDEN / f"sample_wide.seed3.{fmt}").read_text()
    assert out_of(capsys) == want


# 10 ** (2 ** 14), far longer than a literal may be, but never printed
SQUARED = """let sq = rec f (n : int) : int -> int = fun (x : int) ->
  if n = 0 then x else f (n - 1) (x * x) in
let big = sq 14 10 in
if big = 0 then 0 else 1"""


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_sample_steps_through_a_long_integer(tl, capsys, fmt):
    """A step with one successor is taken without ordering successors by
    their text, so a configuration holding an integer too long to print
    passes; `dist` gives the same answer."""
    path = tl(SQUARED)
    assert run(["dist", path, "--depth", "200", "--format", "json"]) == 0
    assert json.loads(out_of(capsys))["distribution"]["weights"] == {"1": "1"}
    assert run(["sample", path, "--samples", "3", "--depth", "200",
                "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if fmt == "json":
        assert json.loads(out)["counts"] == {"1": 3}
    else:
        assert out == "samples: 3 (seed 0, step budget 200)\n  1  3  (1)\n"


def test_sample_refuses_a_branch_holding_a_long_integer(tl, capsys):
    """A branch's successors are ordered by their text, and an integer
    too long to print has none: the draw is refused with exit 2."""
    path = tl(SQUARED.replace("if big = 0", "if flip() && big = 0"))
    assert run(["sample", path, "--samples", "3", "--depth", "200"]) == 2
    assert capsys.readouterr() == ("", (
        f"error: integer longer than {sys.get_int_max_str_digits()} digits, "
        f"the most a literal may have\n"))


MK_360 = f"""let mk = rec mk (n : int) : {LIST} =
  if n = 0 then fold[{LIST}] (inl[int * ({LIST})] ())
  else fold[{LIST}] (inr[unit] ((n, mk (n - 1)))) in
let l = mk 360 in 0"""


def test_sample_steps_through_a_deep_evaluation_context(tl, capsys):
    """Building a 360-element list by non-tail recursion nests the
    evaluation context about a thousand frames deep.  `sample` steps
    through it one configuration at a time without hashing one, so no
    configuration is too deep for it."""
    assert run(["sample", tl(MK_360), "--samples", "1",
                "--depth", "100000"]) == 0
    assert capsys.readouterr() == (
        "samples: 1 (seed 0, step budget 100000)\n  0  1  (1)\n", "")


def test_sample_requires_positive_count(tl, capsys):
    assert run(["sample", tl(FLIP), "--samples", "0"]) == 2
    assert run(["sample", tl(FLIP), "--samples", "-1"]) == 2
    assert capsys.readouterr().err == (
        "error: sample count must be positive\n" * 2)
