"""tapelang workbench benchmark: one workload per process, stdlib only.

    python3 bench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from the repository root.  With `--trace 0` the run repeats the
workload's batch of operations until it has filled `--seconds` (at least
twice) and reports the end-to-end metrics from each operation's median
time, in reference seconds (see hostspeed.py).  With `--trace 1` it runs
the batch once untraced and once under the per-layer tracer and reports
the per-layer metrics, in plain seconds, including the tracing overhead.  Only each
operation's call into the library is timed: its input is made before
and its output checked after, and a wrong output or an exception counts
the operation as failed.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import layertrace
import workloads as W

SRC = Path(__file__).resolve().parents[1] / "src"

# Set-up is sampled 5 to 11 times, enough to spend about SETUP_SECONDS.
SETUP_SAMPLES = (5, 11)
SETUP_SECONDS = 2.0
PERCENTILES = (99.9, 99, 95, 90, 75, 50)

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_s.p50": ("s", "lower"),
    "op_s.tail": ("s", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better)
PER_LAYER = {
    "semantics.step_weights.calls": ("count", "lower"),
    "semantics.step_weights.self_s": ("s", "lower"),
    "semantics.decompose.self_s": ("s", "lower"),
    "semantics.plug.self_s": ("s", "lower"),
    "semantics.successors": ("count", "lower"),
    "syntax.subst.calls": ("count", "lower"),
    "syntax.subst.self_s": ("s", "lower"),
    "dist.exec_val_trace.calls": ("count", "lower"),
    "dist.exec_val_trace.self_s": ("s", "lower"),
    "subdist.SubDistr.calls": ("count", "lower"),
    "subdist.SubDistr.self_s": ("s", "lower"),
    "dist.strata": ("count", "lower"),
    "dist.settle_depth.max": ("strata", "lower"),
    "dist.settled_ratio": ("ratio", "higher"),
    "dist.frontier.mean": ("configs/stratum", "lower"),
    "coupling.check.calls": ("count", "lower"),
    "coupling.check.self_s": ("s", "lower"),
    "coupling.verify_witness.self_s": ("s", "lower"),
    "coupling.edges": ("count", "lower"),
    "coupling.found_ratio": ("ratio", "higher"),
    "parser.calls": ("count", "lower"),
    "parser.self_s": ("s", "lower"),
    "parser.failed": ("count", "lower"),
    "typecheck.calls": ("count", "lower"),
    "typecheck.self_s": ("s", "lower"),
    "typecheck.failed": ("count", "lower"),
    "syntax.erase.self_s": ("s", "lower"),
    "syntax.render.self_s": ("s", "lower"),
    "analysis.compare_programs.self_s": ("s", "lower"),
    "syntax.plug_hole.self_s": ("s", "lower"),
    "corpus.build.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print 'ready' and exit "
                         "(used to time set-up in a fresh interpreter)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def use_sources() -> None:
    """Put ./src first on the import path; exit 2 when it is missing."""
    if not (SRC / "tapelang" / "__init__.py").is_file():
        print(f"bench: no tapelang sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it has set the
    workload up, and the perf_counter() value halfway through."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return t0 + elapsed / 2, elapsed


class Batch:
    """One pass over a workload's operations: per-operation seconds and
    the perf_counter() value halfway through each, the batch's wall time
    (their sum) and the failures found by the checks.
    Each input is made, and each output checked, outside the timed part;
    after operation i, also untimed, `meter` (if given) samples the host's
    speed and `between(i)` (if given) runs."""

    def __init__(self, ops, tracer=None, meter=None, between=None):
        self.times = []
        self.mids = []
        self.failures = []
        for i, op in enumerate(ops):
            inp = op.make()
            # Each operation starts from a collected heap, so that the
            # collections it triggers depend on it alone, not on what ran
            # before it.
            gc.collect()
            if tracer is not None:
                tracer.on = True
            t0 = perf_counter()
            try:
                out, error = op.run(inp), None
            except Exception as exc:  # counted as a failed operation
                out, error = None, exc
            self.times.append(perf_counter() - t0)
            self.mids.append(t0 + self.times[-1] / 2)
            if tracer is not None:
                tracer.on = False
            if error is not None:
                why = "".join(traceback.format_exception_only(error)).strip()
                self.failures.append(f"{op.name}: {why}")
            elif not op.check(inp, out):
                self.failures.append(f"{op.name}: wrong output")
            del inp, out, error
            if meter is not None:
                meter.after(self.times[-1])
            if between is not None:
                between(i)
        self.wall = sum(self.times)


def tail_percentile(n_ops: int) -> float:
    """The highest listed percentile with at least ten of a batch's
    `n_ops` operations beyond it."""
    for p in PERCENTILES:
        if n_ops * (100 - p) / 100 >= 10:
            return p
    return 50


def percentile(values: list[float], p: float) -> float:
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(p * 10) - 1]


def src_line_count() -> int:
    return sum(1 for path in sorted((SRC / "tapelang").glob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def freeze_inputs() -> None:
    """Hide what the harness keeps for the whole run (goldens, prepared
    inputs) from the cyclic garbage collector, so that full collections
    during an operation do not rescan it."""
    gc.collect()
    gc.freeze()


def report_failures(batches: list[Batch]) -> None:
    seen = set()
    for b in batches:
        for f in b.failures:
            if f not in seen:
                seen.add(f)
                print(f"FAILED {f}")


def run_untraced(args) -> dict:
    meter = hostspeed.Meter()
    setups = [time_setup(args.workload, args.seed)]  # (midpoint, seconds)
    meter.after(setups[0][1])
    lo, hi = SETUP_SAMPLES
    samples = min(hi, max(lo, math.ceil(SETUP_SECONDS / setups[0][1])))
    work = W.setup(args.workload, args.seed)
    freeze_inputs()
    t0 = perf_counter()
    batches = [Batch(work.ops, meter=meter)]
    # As many batches as it takes to fill --seconds, counting what runs
    # around the operations (inputs, checks, reference loops), and at
    # least two, so that every operation is timed twice.
    n_batches = max(2, math.ceil(args.seconds / (perf_counter() - t0)))
    # The other set-up samples are spread evenly over the later batches,
    # so that they meet the same changes in host speed as the batches do.
    n_ops = len(work.ops)
    slots = (n_batches - 1) * n_ops
    due = {k * slots // samples for k in range(1, samples)}

    def sample_setup(done: int) -> None:
        if done in due:
            setups.append(time_setup(args.workload, args.seed))
            meter.after(setups[-1][1])

    for b in range(n_batches - 1):
        batches.append(Batch(work.ops, meter=meter, between=lambda i, b=b:
                             sample_setup(b * n_ops + i + 1)))
    while len(setups) < samples:
        setups.append(time_setup(args.workload, args.seed))
        meter.after(setups[-1][1])
    # Each operation's median time over the batches, in reference seconds.
    typical = [statistics.median(meter.scale(b.mids[i], b.times[i])
                                 for b in batches) for i in range(n_ops)]
    attempted = n_ops * len(batches)
    failed = sum(len(b.failures) for b in batches)
    tail = tail_percentile(n_ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": statistics.median(meter.scale(*s) for s in setups),
        "wall_s": sum(typical),
        "op_s.p50": statistics.median(typical),
        "op_s.tail": percentile(typical, tail),
        "ok_ratio": 1 - failed / attempted,
        "peak_rss_mb": rss_mb,
    }
    report_failures(batches)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(batches)} batches x {len(work.ops)} operations")
    print(f"setup_s samples (measured s): "
          f"{' '.join(f'{s:.4f}' for _, s in setups)}")
    print(f"host speed: {len(meter.loops)} reference loops, median "
          f"{statistics.median(meter.loops) * 1e3:.3f} ms (reference "
          f"{hostspeed.REF_LOOP_S * 1e3:g} ms); times below are in "
          f"reference seconds")
    print(f"measured wall_s (median batch): "
          f"{statistics.median(b.wall for b in batches):.4f} s")
    print(f"op_s.* are over the median times of {n_ops} operations; "
          f"op_s.tail is p{tail:g}")
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    if work.probes is not None:
        outcomes = work.probes()
        bad = sum(1 for v in outcomes.values() if v != "ok")
        print(f"deep-nesting probes (untimed, not operations): "
              f"{bad} of {len(outcomes)} fail")
        for name, outcome in outcomes.items():
            print(f"  {name}: {outcome}")
    print(f"info: src/tapelang non-blank lines: {src_line_count()}")
    for name, (unit, _) in END_TO_END.items():
        print(f"  {name:<12} {values[name]:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, (unit, _) in END_TO_END.items()}}


def run_traced(args) -> dict:
    work = W.setup(args.workload, args.seed)
    freeze_inputs()
    plain = Batch(work.ops)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.on = True
        W.setup(args.workload, args.seed)
        tracer.on = False
        build = copy.copy(tracer.funcs["corpus.build"])
        tracer.reset()
        traced = Batch(work.ops, tracer)
    finally:
        tracer.uninstall()
    overhead = traced.wall - plain.wall
    values = layer_values(tracer, build, overhead)
    batches = [plain, traced]
    failed = sum(len(b.failures) for b in batches)
    attempted = sum(len(b.times) for b in batches)
    report_failures(batches)
    print(f"workload {args.workload}  seed {args.seed}  traced: one batch of "
          f"{len(work.ops)} operations each way")
    print(f"untraced wall_s {plain.wall:.4f}  traced wall_s {traced.wall:.4f}  "
          f"overhead {overhead:.4f} s ({overhead / plain.wall:.1%})")
    print(f"{tracer.spans} spans; wrapper time charged to no layer "
          f"{tracer.excluded_s:.4f} s (calibrated per span: "
          f"{tracer.residue * 1e9:.0f} ns credited to the caller, "
          f"{tracer.floor * 1e9:.0f} ns taken off the span's self time)")
    for name, (unit, _) in PER_LAYER.items():
        value = values[name]
        shown = ("absent (never called)" if value is None
                 else f"{value:.6g} {unit}")
        print(f"  {name:<34} {shown}")
    # The result line needs a number for every metric: an absent one
    # reads 0 there.
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name] or 0, "unit": unit}
                        for name, (unit, _) in PER_LAYER.items()}}


def layer_values(tracer, build, overhead: float) -> dict:
    """Per-layer metric values, from the traced batch and from `build`,
    the `corpus.build` statistics of a traced set-up.  A metric whose
    functions never ran is None (absent), not 0: a change that bypasses a
    function must not read as a saving."""
    funcs, layers, work = tracer.funcs, tracer.layers, tracer.work

    def total(attr, *names, table=funcs):
        ran = [table[n] for n in names if n in table and table[n].calls]
        return sum(getattr(st, attr) for st in ran) if ran else None

    def layer_self(layer):
        if total("calls", layer, table=layers) is None:
            return None
        return sum(st.self_s for st in funcs.values() if st.layer == layer)

    def ratio(num, den):
        return None if num is None or not den else num / den

    checks = ("coupling.check_coupling", "coupling.check_left_partial")
    strata = work.get("dist.strata")
    n_checks = total("calls", *checks)
    return {
        "semantics.step_weights.calls": total("calls", "semantics.step_weights"),
        "semantics.step_weights.self_s": total("self_s",
                                               "semantics.step_weights"),
        "semantics.decompose.self_s": total("self_s", "semantics.decompose"),
        "semantics.plug.self_s": total("self_s", "semantics.plug"),
        "semantics.successors": work.get("semantics.successors"),
        "syntax.subst.calls": total("calls", "syntax.subst"),
        "syntax.subst.self_s": total("self_s", "syntax.subst"),
        "dist.exec_val_trace.calls": total("calls", "dist.exec_val_trace"),
        "dist.exec_val_trace.self_s": total("self_s", "dist.exec_val_trace"),
        "subdist.SubDistr.calls": total("calls", "subdist.SubDistr"),
        "subdist.SubDistr.self_s": total("self_s", "subdist.SubDistr"),
        "dist.strata": strata,
        "dist.settle_depth.max": work.get("dist.settle_depth.max"),
        "dist.settled_ratio": ratio(work.get("dist.settled_strata"), strata),
        "dist.frontier.mean": ratio(total("calls", "semantics.step_weights"),
                                    strata),
        "coupling.check.calls": n_checks,
        "coupling.check.self_s": total("self_s", *checks),
        "coupling.verify_witness.self_s": total("self_s",
                                                "coupling.verify_witness"),
        "coupling.edges": work.get("coupling.edges"),
        "coupling.found_ratio": ratio(work.get("coupling.found"), n_checks),
        "parser.calls": total("calls", "parser", table=layers),
        "parser.self_s": layer_self("parser"),
        "parser.failed": total("failed", "parser", table=layers),
        "typecheck.calls": total("calls", "typecheck", table=layers),
        "typecheck.self_s": layer_self("typecheck"),
        "typecheck.failed": total("failed", "typecheck", table=layers),
        "syntax.erase.self_s": total("self_s", "syntax.erase"),
        "syntax.render.self_s": total("self_s", "syntax.render"),
        "analysis.compare_programs.self_s": total("self_s",
                                                  "analysis.compare_programs"),
        "syntax.plug_hole.self_s": total("self_s", "syntax.plug_hole"),
        "corpus.build.self_s": build.self_s if build.calls else None,
        "trace.overhead_s": overhead,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    use_sources()
    if args.setup_only:
        W.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = (run_traced if args.trace else run_untraced)(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
