"""End-to-end command-line behavior, run in-process via cli.run."""

import json
import sys
from fractions import Fraction

import pytest

from tapelang.cli import run
from tapelang.dist import from_jsonable

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


def test_typecheck_json(tl, capsys):
    assert run(["typecheck", tl(FLIP), "--format", "json"]) == 0
    assert json.loads(out_of(capsys)) == {"type": "bool"}


def test_typecheck_error_exit_2(tl, capsys):
    assert run(["typecheck", tl("1 + true")]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exit_2(tl, capsys):
    assert run(["typecheck", tl("let x = 1")]) == 2


def test_missing_file_exit_2(capsys):
    assert run(["typecheck", "/nonexistent/x.tl"]) == 2


# -- dist ----------------------------------------------------------------------

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


def test_dist_depth_zero(tl, capsys):
    assert run(["dist", tl(FLIP), "--depth", "0"]) == 0
    assert "residual: 1" in out_of(capsys)


def test_negative_depth_exit_2(tl, capsys):
    assert run(["dist", tl(FLIP), "--depth", "-1"]) == 2


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


# -- erasure -------------------------------------------------------------------

def test_erasure_consumer(tl, capsys):
    path = tl("rand(1, t0)")
    assert run(["erasure", path, "--tape", "1", "--depth", "6"]) == 0
    out = out_of(capsys)
    assert "depth 0: ok" in out and "depth 6: ok" in out
    assert "holds" in out


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


def test_erasure_stray_free_var_exit_2(tl, capsys):
    assert run(["erasure", tl("x + 1"), "--tape", "1"]) == 2
    assert "free variable" in capsys.readouterr().err


def test_erasure_tape_value_out_of_bound_exit_2(tl, capsys):
    assert run(["erasure", tl("1"), "--tape", "1:5"]) == 2


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
    rel = js({"relation": []}, "rel.json")
    assert run(["couple", d, d, rel]) == 2


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


def test_corpus_unknown_entry_exit_2(capsys):
    assert run(["corpus", "check", "nonesuch"]) == 2


def test_corpus_bad_param_exit_2(capsys):
    assert run(["corpus", "check", "elgamal-real", "--param", "p=4"]) == 2
    assert run(["corpus", "check", "hash", "--param", "n=oops"]) == 2


def test_corpus_check_needs_entry(capsys):
    assert run(["corpus", "check"]) == 2


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


def test_sample_requires_positive_count(tl, capsys):
    assert run(["sample", tl(FLIP), "--samples", "0"]) == 2
