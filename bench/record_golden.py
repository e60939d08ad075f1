"""Record the exactness goldens under bench/golden/.

    python3 bench/record_golden.py

Writes the `ComparisonReport.to_jsonable()` of every corpus and diverge
probe, and the synthesised type of every corpus source, as computed by
the library in this checkout.  Re-record only when a change is meant to
alter verdicts or traces; the benchmark counts any mismatch as a failed
operation.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gen  # noqa: E402
import workloads as W  # noqa: E402


def main() -> None:
    M = W.modules()
    entries = W.corpus_entries(M)
    corpus = {f"{W.entry_id(e)}/{c.name}": W.corpus_probe(M, e, c).to_jsonable()
              for e in entries for c in e.contexts}
    diverge = {name: W.diverge_probe(M, *pair).to_jsonable()
               for name, pair in sorted(gen.diverge_probes().items())}
    sources = {}
    for e in entries:
        sides = {"left": e.left_source, "right": e.right_source, **e.extras}
        for side, src in sides.items():
            ty = M.typecheck.typecheck(M.parser.parse(src))
            sources[f"{W.entry_id(e)}/{side}"] = M.syntax.render_type(ty)
    W.GOLDEN.mkdir(exist_ok=True)
    for name, data in (("corpus", corpus), ("diverge", diverge),
                       ("sources", sources)):
        path = W.GOLDEN / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(data)} entries)")


if __name__ == "__main__":
    main()
