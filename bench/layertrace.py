"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of each layer module
(and the `SubDistr` constructor) with a timing wrapper, in every
`tapelang` module that holds a reference to it: `dist` and `analysis`
import `step_weights` and `exec_val_trace` by name, and the package
rebinds `tapelang.typecheck` to the function, so modules are looked up in
`sys.modules`, never as package attributes.  `uninstall()` restores the
originals.  Nothing inside `src/` is patched on disk or extended.

A wrapper records a span only while the tracer is `on`.  Each span's
self time is its duration minus the spans it caused, and the wrappers'
own time, work counting included, is charged to no span.  The part a
wrapper cannot time itself, the call into it and the return from it, is
measured once per install (`calibrate`) and credited back to the caller
of every span.  A function that calls itself
by its global name does so without a wrapper: it runs as a copy whose
code names a private alias of itself, so recursion costs nothing extra
and `calls` counts entries from other code.  A layer's `calls` counts
entries from outside the layer and its `failed` those entries that
raised.  Work counts (successors, strata, settle depth, flow-network
edges, witnesses found) are read off the arguments and results of the
wrapped calls.
"""

from __future__ import annotations

import dis
import importlib
import inspect
import math
import sys
import types
from time import perf_counter

LAYERS = ("parser", "typecheck", "syntax", "semantics", "dist", "subdist",
          "analysis", "coupling", "corpus")
CONSTRUCTORS = {"subdist": ("SubDistr",)}
CALIBRATION_LOOPS, CALIBRATION_CALLS = 7, 20000
_MISSING = object()


class Stat:
    __slots__ = ("layer", "calls", "self_s", "failed")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0


class Tracer:
    def __init__(self):
        self.on = False
        self.funcs: dict[str, Stat] = {}  # "layer.func" -> Stat
        self.layers: dict[str, Stat] = {}  # layer -> entries from outside it
        self.work: dict[str, float] = {}
        self.spans = 0  # spans recorded
        self.excluded_s = 0.0  # wrapper time charged to no span
        self.residue = self.floor = 0.0  # see calibrate()
        self._stack: list[list] = []  # [Stat, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.funcs, self.layers):
            for st in table.values():
                st.calls, st.self_s, st.failed = 0, 0.0, 0
        self.work.clear()
        self.spans, self.excluded_s = 0, 0.0

    def count(self, key: str, amount: float = 1) -> None:
        self.work[key] = self.work.get(key, 0) + amount

    # -- wrapping

    def _wrap(self, name: str, layer: str, fn, observe=None):
        stat = self.funcs.setdefault(name, Stat(layer))
        entry = self.layers.setdefault(layer, Stat(layer))
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on or (stack and stack[-1][0] is stat):
                return fn(*args, **kwargs)
            t_in = perf_counter()
            outer = not stack or stack[-1][0].layer != layer
            frame = [stat, 0.0]
            stack.append(frame)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = perf_counter()
                stack.pop()
                stat.calls += 1
                stat.self_s += t1 - t0 - frame[1] - tracer.floor
                if outer:
                    entry.calls += 1
                    entry.failed += failed
                if not failed and observe is not None:
                    observe(args, kwargs, result)
                spent = perf_counter() - t_in + tracer.residue
                tracer.spans += 1
                tracer.excluded_s += spent - (t1 - t0) + tracer.floor
                if stack:
                    stack[-1][1] += spent
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        observers = {
            "semantics.step_weights": self._see_step,
            "dist.exec_val_trace": self._see_trace,
            "coupling.check_coupling": self._see_check,
            "coupling.check_left_partial": self._see_check,
        }
        originals: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"tapelang.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    inner = fn
                    alias = f"_traced_self_{attr}"
                    if _recurses_by_name(fn) and not hasattr(mod, alias):
                        inner = _renamed(fn, attr, alias)
                        self._set(mod, alias, inner)
                    originals[id(fn)] = (fn, self._wrap(name, layer, inner,
                                                        observers.get(name)))
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, cls_name)
                init = cls.__init__
                self._set(cls, "__init__",
                          self._wrap(f"{layer}.{cls_name}", layer, init))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tapelang"
                                   or mod_name.startswith("tapelang.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])
        self.calibrate()

    def calibrate(self) -> None:
        """Measure the two costs per span that the wrapper's clock reads
        cannot separate from the program's: `residue`, the call into the
        wrapper and the return from it beyond a plain call, which the
        caller would be charged for, and `floor`, the self time recorded
        for a function that does nothing.  Every span credits the first
        back to its caller and takes the second off its own self time.
        The fastest of CALIBRATION_LOOPS loops of CALIBRATION_CALLS calls
        is taken."""
        def nothing(x):
            return x

        def loop(fn):
            for i in range(CALIBRATION_CALLS):
                fn(i)

        wrapped = self._wrap("bench.nothing", "bench", nothing)
        parent = self._wrap("bench.loop", "bench", loop)
        outer, inner = self.funcs["bench.loop"], self.funcs["bench.nothing"]
        best = {nothing: math.inf, wrapped: math.inf}
        floor = math.inf
        self.residue = self.floor = 0.0
        self.on = True
        for _ in range(CALIBRATION_LOOPS):
            for child in best:
                outer.self_s = inner.self_s = 0.0
                parent(child)
                best[child] = min(best[child], outer.self_s)
            floor = min(floor, inner.self_s)  # the wrapped child ran last
        self.on = False
        del self.funcs["bench.nothing"], self.funcs["bench.loop"]
        del self.layers["bench"]
        self.reset()
        self.residue = max(0.0, (best[wrapped] - best[nothing])
                           / CALIBRATION_CALLS)
        self.floor = floor / CALIBRATION_CALLS

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patched.clear()
        self.on = False

    # -- work counts read off arguments and results

    def _see_step(self, args, kwargs, result) -> None:
        self.count("semantics.successors", len(result))

    def _see_trace(self, args, kwargs, trace) -> None:
        strata = len(trace) - 1
        settle = next((d for d, (_, residual) in enumerate(trace)
                       if residual == 0), strata)
        self.count("dist.strata", strata)
        self.count("dist.settled_strata", settle)
        self.work["dist.settle_depth.max"] = max(
            self.work.get("dist.settle_depth.max", 0), settle)

    def _see_check(self, args, kwargs, witness) -> None:
        mu1, mu2, rel = (_arg(args, kwargs, i, k)
                         for i, k in enumerate(("mu1", "mu2", "rel")))
        left, right = set(mu1.support()), set(mu2.support())
        self.count("coupling.edges",
                   sum(1 for a, b in rel.pairs if a in left and b in right))
        self.count("coupling.found", witness is not None)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if index < len(args) else kwargs[name]


def _codes(code: types.CodeType):
    """A code object and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def _recurses_by_name(fn) -> bool:
    """Whether `fn` (or a comprehension or closure in it) calls itself by
    its global name, and uses that name for nothing but global loads."""
    uses = [ins.opname for code in _codes(fn.__code__)
            for ins in dis.get_instructions(code)
            if ins.opcode in dis.hasname and ins.argval == fn.__name__]
    return bool(uses) and all(op == "LOAD_GLOBAL" for op in uses)


def _renamed(fn, old: str, new: str):
    """A copy of `fn` whose code loads the global `new` wherever it loaded
    `old`."""
    def rename(code: types.CodeType) -> types.CodeType:
        return code.replace(
            co_names=tuple(new if n == old else n for n in code.co_names),
            co_consts=tuple(rename(c) if isinstance(c, types.CodeType) else c
                            for c in code.co_consts))
    copy = types.FunctionType(rename(fn.__code__), fn.__globals__,
                              fn.__name__, fn.__defaults__, fn.__closure__)
    copy.__kwdefaults__ = fn.__kwdefaults__
    copy.__qualname__ = fn.__qualname__
    return copy
