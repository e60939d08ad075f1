"""Guard against library surface that only tests use.

Every public function and method of `src/tapelang` must be named
somewhere else in the library or the benchmark code, be exported in
`tapelang.__all__`, or be documented in README.md.  A function that only
tests call belongs in the tests.  The check goes by name, so a function
whose name is also used there for something else (a local variable, say)
passes it.
"""

import ast
import importlib
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import tapelang

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tapelang"


def public_defs() -> list[tuple[str, str]]:
    """(qualified name, bare name) of each public module-level function
    and each public method, over the library's modules."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{path.stem}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{m.name}", m.name)
                        for m in node.body
                        if isinstance(m, ast.FunctionDef)]
    return [(q, n) for q, n in out if not n.startswith("_")]


def name_counts() -> Counter:
    """How often each identifier occurs in library and benchmark code,
    definitions included."""
    counts = Counter()
    for path in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        src = io.StringIO(path.read_text()).readline
        counts.update(tok.string for tok in tokenize.generate_tokens(src)
                      if tok.type == tokenize.NAME)
    return counts


def test_no_public_function_only_tests_name():
    counts = name_counts()
    readme = (ROOT / "README.md").read_text()
    unused = [qual for qual, name in public_defs()
              if counts[name] < 2  # its own definition only
              and name not in tapelang.__all__
              and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def test_the_guard_sees_the_library():
    quals = {q for q, _ in public_defs()}
    assert {"semantics.step_weights", "coupling.Relation.from_pairs",
            "corpus.CorpusEntry.type_", "cli.run"} <= quals
    assert not any(n.startswith("_") for _, n in public_defs())


def test_readme_names_resolve():
    """Every `module.name` that README.md cites for a library module names
    something that module has, so the docs do not outlive a deletion."""
    modules = {path.stem for path in SRC.glob("*.py")}
    cited = re.findall(r"`(\w+)((?:\.\w+)+)",
                       (ROOT / "README.md").read_text())
    cited = [(mod, path) for mod, path in cited if mod in modules]
    missing = []
    for mod, path in cited:
        obj = importlib.import_module(f"tapelang.{mod}")
        for name in path.split(".")[1:]:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(mod + path)
    assert missing == []
    assert len(cited) >= 10, cited
