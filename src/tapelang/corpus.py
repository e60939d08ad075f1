"""Checked example programs, shipped as source text with context families.

Each entry is a pair of programs sharing a type, a family of one-hole
contexts that probe them, and the outcome each context is expected to
produce (`exactly-equal`, `distinguished`, or `diverges-matched`).
Entries are parameterized where the underlying construction scales
(group modulus, key-space bound, digit count) and validated against the
documented desk-scale ranges.

The context families are finite and fixed, so a passing family is
evidence for equivalence, never proof; a `distinguished` report is a
genuine refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .parser import parse, parse_type
from .syntax import Expr, Type


@dataclass(frozen=True)
class ContextSpec:
    name: str
    source: str
    expected: str  # exactly-equal | distinguished | diverges-matched

    def expr(self) -> Expr:
        return parse(self.source)


@dataclass
class CorpusEntry:
    name: str
    params: dict
    type_source: str
    left_name: str
    right_name: str
    left_source: str
    right_source: str
    contexts: tuple[ContextSpec, ...]
    depth: int
    extras: dict = field(default_factory=dict)  # name -> source

    def type_(self) -> Type:
        return parse_type(self.type_source)

    def left(self) -> Expr:
        return parse(self.left_source)

    def right(self) -> Expr:
        return parse(self.right_source)


# -- shared program text ----------------------------------------------------

# Association-list maps: a mutable map from int keys to V is a reference
# to a list (mu a. unit + ((int * V) * a)); set prepends, get returns the
# most recent binding.

def _list_ty(vty: str) -> str:
    return f"mu a. unit + ((int * {vty}) * a)"


def _assoc(vty: str, sfx: str) -> str:
    lst = _list_ty(vty)
    return (
        f"let empty{sfx} = fun _ -> ref (fold[{lst}] (inl[(int * {vty}) * ({lst})] ())) in\n"
        f"let set{sfx} = fun (m : ref ({lst})) -> fun (k : int) -> fun (v : {vty}) ->\n"
        f"  m <- fold[{lst}] (inr[unit] (((k, v), !m))) in\n"
        f"let get{sfx} = fun (m : ref ({lst})) -> fun (k : int) ->\n"
        f"  (rec go (l : {lst}) : option {vty} =\n"
        f"     match unfold l with\n"
        f"     | inl _ -> none[{vty}]\n"
        f"     | inr cell ->\n"
        f"         let kv = fst cell in\n"
        f"         if fst kv = k then some((snd kv)) else go (snd cell)\n"
        f"     end) !m\n"
        f"in\n")


def _pow(p: int) -> str:
    # modular exponentiation by repeated multiplication; exponents are
    # kept within 0..p-2 by the callers (the group has order p-1)
    return (
        "let pow = rec go (b : int) : int -> int =\n"
        "  fun (e : int) ->\n"
        f"    if e = 0 then 1 else (b * go b (e - 1)) mod {p}\n"
        "in\n")


_LAZY_HASH_BODY = """\
let alloc_tapes = rec f (tm : ref ({t_list})) : int -> unit =
  fun (n : int) ->
    let n2 = n - 1 in
    if n2 < 0 then () else (set_t tm n2 (alloctape 1); f tm n2)
in
let lazy_hash = fun (n : int) ->
  let vm = empty_b () in
  let tm = empty_t () in
  alloc_tapes tm (n + 1);
  (fun (k : int) ->
     match get_b vm k with
     | some b -> b
     | none ->
         match get_t tm k with
         | some t -> let b = flip(t) in (set_b vm k b; b)
         | none -> false
         end
     end)
in
"""


def _lazy_hash_prelude() -> str:
    return (_assoc("bool", "_b") + _assoc("tape", "_t")
            + _LAZY_HASH_BODY.format(t_list=_list_ty("tape")))


def _eager_hash_prelude() -> str:
    return (_assoc("bool", "_b") + """\
let sample_all = rec f (m : ref (""" + _list_ty("bool") + """)) : int -> unit =
  fun (n : int) ->
    let n2 = n - 1 in
    if n2 < 0 then () else (let b = flip() in set_b m n2 b; f m n2)
in
let eager_hash = fun (n : int) ->
  let m = empty_b () in
  sample_all m (n + 1);
  (fun (k : int) ->
     match get_b m k with
     | some b -> b
     | none -> false
     end)
in
""")


# -- entry builders ----------------------------------------------------------

def _coin(params: dict) -> CorpusEntry:
    eager = "let b = flip() in fun _ -> b"
    lazy = """\
let r = ref (none[bool]) in
fun _ ->
  match !r with
  | some b -> b
  | none -> let b = flip() in (r <- some(b); b)
  end"""
    lazy_labeled = """\
let t = alloctape 1 in
let r = ref (none[bool]) in
fun _ ->
  match !r with
  | some b -> b
  | none -> let b = flip(t) in (r <- some(b); b)
  end"""
    contexts = (
        ContextSpec("call-once", "let f = hole in f ()", "exactly-equal"),
        ContextSpec("call-twice-pair", "let f = hole in (f (), f ())",
                    "exactly-equal"),
        ContextSpec("call-store-call",
                    "let f = hole in let r = ref (f ()) in "
                    "let b2 = f () in (!r, b2)", "exactly-equal"),
    )
    return CorpusEntry("lazy-eager", {}, "unit -> bool", "lazy", "eager",
                       lazy, eager, contexts, depth=80,
                       extras={"lazy-labeled": lazy_labeled})


def _flip_or(params: dict) -> CorpusEntry:
    left = "let x = flip() in let y = flip() in x || y"
    right = "flip()"
    contexts = (
        ContextSpec("identity", "hole", "distinguished"),
        ContextSpec("branch", "if hole then 1 else 0", "distinguished"),
    )
    return CorpusEntry("flip-or", {}, "bool", "flip_or", "flip",
                       left, right, contexts, depth=20)


_OMEGA = "(rec w (u : unit) : bool = w u) ()"


def _choice_copying(params: dict) -> CorpusEntry:
    # one-shot choice of a constant function vs. a function that chooses
    # per call; copying contexts tell them apart
    left = "if flip() then (fun _ -> true) else (fun _ -> false)"
    right = "fun _ -> (if flip() then true else false)"
    contexts = (
        ContextSpec("call-once", "let f = hole in f ()", "exactly-equal"),
        ContextSpec("copying", "let f = hole in f () = f ()",
                    "distinguished"),
    )
    return CorpusEntry("choice-copying", {}, "unit -> bool",
                       "choose_then_close", "close_then_choose",
                       left, right, contexts, depth=40)


def _choice_local(params: dict) -> CorpusEntry:
    m = f"if !x = 0 then (x <- 1; true) else {_OMEGA}"
    n = f"if !x = 0 then (x <- 1; false) else {_OMEGA}"
    left = (f"let x = ref 0 in "
            f"if flip() then (fun _ -> {m}) else (fun _ -> {n})")
    right = (f"let x = ref 0 in "
             f"fun _ -> (if flip() then ({m}) else ({n}))")
    labeled = (f"let x = ref 0 in let t = alloctape 1 in "
               f"fun _ -> (if flip(t) then ({m}) else ({n}))")
    contexts = (
        ContextSpec("call-once", "let f = hole in f ()", "exactly-equal"),
        ContextSpec("call-twice",
                    "let f = hole in let r1 = f () in let r2 = f () in "
                    "(r1, r2)", "diverges-matched"),
    )
    return CorpusEntry("choice-local", {}, "unit -> bool",
                       "choose_then_close", "close_then_choose",
                       left, right, contexts, depth=60,
                       extras={"labeled": labeled})


# p -> a generator of the group mod p; its keys are the primes allowed
_GENERATORS = {3: 2, 5: 2, 7: 3, 11: 2}
_PRIMES = tuple(_GENERATORS)
_ELGAMAL_SPEC = {"p": (5, _PRIMES), "g": (None, None)}


def _elgamal_query(body: str) -> str:
    """The one-shot query oracle over `pk`, answering with `body`."""
    return ("let count = ref 0 in\n"
            "let query = fun (msg : int) ->\n"
            "  if !count = 0 then\n"
            "    count <- 1;\n"
            + body
            + "  else none[int * int]\n"
            "in (pk, query)")


def _elgamal_contexts(p: int, g: int) -> tuple[ContextSpec, ...]:
    msgs = sorted({1, g % p, p - 1})
    out = []
    for m in msgs:
        src = (f"let r = hole in let pk = fst r in let q = snd r in\n"
               f"match q {m} with\n"
               f"| some bx -> (pk, bx)\n"
               f"| none -> (0, (0, 0))\n"
               f"end")
        out.append(ContextSpec(f"query-msg-{m}", src, "exactly-equal"))
    return tuple(out)


def _elgamal_params(params: dict) -> tuple[int, int, int]:
    p, g = params["p"], params["g"]
    if g is None:
        g = _GENERATORS[p]
    # g must be an int that generates the whole multiplicative group mod p
    if type(g) is not int or len({pow(g, k, p) for k in range(1, p)}) != p - 1:
        raise ValueError(f"{g} does not generate the group mod {p}")
    return p, g, p - 2


def _elgamal(kind: str, params: dict) -> CorpusEntry:
    """The public-key game with `real` or `rand` ciphertexts, against
    its Diffie-Hellman reduction."""
    p, g, n = _elgamal_params(params)
    if kind == "real":
        answer = (f"    let b = rand({n}) in\n"
                  f"    let bb = pow {g} b in\n"
                  f"    let x = (msg * (pow pk b)) mod {p} in\n"
                  f"    some((bb, x))\n")
        c, draw_c = f"pow {g} ((a * b) mod {p - 1})", ""
    else:
        answer = (f"    let b = rand({n}) in\n"
                  f"    let x = rand({n}) in\n"
                  f"    some(((pow {g} b, pow {g} x)))\n")
        c, draw_c = f"pow {g} c", f"  let c = rand({n}) in\n"
    left = (_pow(p)
            + f"let sk = rand({n}) in\n"
            + f"let pk = pow {g} sk in\n"
            + _elgamal_query(answer))
    right = (_pow(p)
             + "let dh =\n"
             + f"  let a = rand({n}) in\n"
             + f"  let b = rand({n}) in\n"
             + draw_c
             + f"  (pow {g} a, (pow {g} b, {c}))\n"
             + "in\n"
             + "let pk = fst dh in\n"
             + "let bb = fst (snd dh) in\n"
             + "let c = snd (snd dh) in\n"
             + _elgamal_query(f"    let x = (msg * c) mod {p} in\n"
                              "    some((bb, x))\n"))
    return CorpusEntry(f"elgamal-{kind}", {"p": p, "g": g},
                       "int * (int -> option (int * int))",
                       f"pk_{kind}", f"dh_{kind}_reduction",
                       left, right, _elgamal_contexts(p, g), depth=420)


_HASH_QUERIES = {
    0: [[0], [1], [0, 0], [0, 1], [1, 0], [0, 0, 0], [0, 1, 0], [7, 7, 7]],
    1: [[0], [1], [2], [0, 0], [0, 1], [1, 1], [2, 0], [0, 1, 0],
        [1, 1, 1], [0, 1, 2]],
    2: [[0], [2], [3], [0, 0], [1, 2], [3, 0], [0, 1, 2], [2, 2, 2],
        [0, 2, 0], [7, 0, 7]],
}


def _call_context(args: list) -> str:
    """A context that applies the plugged function to each argument in
    order and returns the results as nested pairs."""
    lines = ["let h = hole in"]
    for i, a in enumerate(args):
        lines.append(f"let r{i} = h {a} in")
    shapes = {1: "r0", 2: "(r0, r1)", 3: "((r0, r1), r2)",
              4: "((r0, r1), (r2, r3))"}
    lines.append(shapes[len(args)])
    return "\n".join(lines)


def _hash(params: dict) -> CorpusEntry:
    n = params["n"]
    left = _eager_hash_prelude() + f"eager_hash {n}"
    right = _lazy_hash_prelude() + f"lazy_hash {n}"
    contexts = tuple(
        ContextSpec("query-" + "-".join(map(str, ks)), _call_context(ks),
                    "exactly-equal")
        for ks in _HASH_QUERIES[n])
    return CorpusEntry("hash", {"n": n}, "int -> bool",
                       "eager_hash", "lazy_hash",
                       left, right, contexts, depth=520)


def _hash_rng(params: dict) -> CorpusEntry:
    mx = params["max"]
    left = (_lazy_hash_prelude() + f"""\
let init_hash_rng = fun _ ->
  let f = lazy_hash {mx} in
  let c = ref 0 in
  (fun _ ->
     let n = !c in
     let b = f n in
     c <- n + 1;
     b)
in init_hash_rng ()""")
    right = f"""\
let init_bounded_rng = fun _ ->
  let c = ref 0 in
  (fun _ ->
     let n = !c in
     let b = if n <= {mx} then flip() else false in
     c <- n + 1;
     b)
in init_bounded_rng ()"""
    contexts = tuple(
        ContextSpec(f"draw-{d}", _call_context(["()"] * d), "exactly-equal")
        for d in range(1, 5))
    return CorpusEntry("hash-rng", {"max": mx}, "unit -> bool",
                       "hash_rng", "bounded_rng",
                       left, right, contexts, depth=900)


def _keyed_hash(params: dict) -> CorpusEntry:
    # key/value ranges fixed at one bit each: the wrapped hash has key
    # space {0..3} and the wrapper maps (k, v) to k*2 + v
    src = (_lazy_hash_prelude() + """\
let lazy_keyed_hash = fun _ ->
  let f = lazy_hash 3 in
  (fun (k : int) -> fun (v : int) -> f (k * 2 + v))
in lazy_keyed_hash ()""")
    contexts = (
        ContextSpec("two-streams",
                    "let h = hole in (h 0 0, h 1 0)", "exactly-equal"),
        ContextSpec("repeat-query",
                    "let h = hole in let r1 = h 0 1 in let r2 = h 1 0 in "
                    "let r3 = h 0 1 in ((r1, r2), r3)", "exactly-equal"),
    )
    return CorpusEntry("keyed-hash", {}, "int -> int -> bool",
                       "keyed", "keyed", src, src, contexts, depth=700)


def _lazy_int(params: dict) -> CorpusEntry:
    digits, base = params["digits"], params["base"]
    node = "mu a. unit + (int * ref a)"
    nil = f"fold[{node}] (inl[int * ref ({node})] ())"
    tau = "exists a. (unit -> a) * ((a * a) -> int)"
    lazy = f"""\
let get_next = fun (t : tape) -> fun (r : ref ({node})) ->
  match unfold !r with
  | inl _ ->
      let z = rand({base - 1}, t) in
      let nxt = ref ({nil}) in
      r <- fold[{node}] (inr[unit] ((z, nxt)));
      (z, nxt)
  | inr v -> v
  end
in
let sample_lazy = fun _ -> (alloctape {base - 1}, ref ({nil})) in
let cmp_digit = fun (a : int) -> fun (b : int) ->
  if a < b then 0 - 1 else (if b < a then 1 else 0)
in
let cmp_list = rec f (n : int) : tape -> ref ({node}) -> tape -> ref ({node}) -> int =
  fun (t1 : tape) -> fun (l1 : ref ({node})) ->
  fun (t2 : tape) -> fun (l2 : ref ({node})) ->
    if n = 0 then 0
    else (
      let d1 = get_next t1 l1 in
      let d2 = get_next t2 l2 in
      let res = cmp_digit (fst d1) (fst d2) in
      if res = 0 then f (n - 1) t1 (snd d1) t2 (snd d2) else res)
in
let cmp_lazy = fun (xx : (tape * ref ({node})) * (tape * ref ({node}))) ->
  let x1 = fst xx in
  let x2 = snd xx in
  if snd x1 = snd x2 then 0
  else cmp_list {digits} (fst x1) (snd x1) (fst x2) (snd x2)
in
pack[tape * ref ({node}), {tau}] ((sample_lazy, cmp_lazy))"""
    eager = f"""\
let sample_eager = fun _ ->
  (rec go (k : int) : int -> int =
     fun (acc : int) ->
       if k = 0 then acc else go (k - 1) (acc * {base} + rand({base - 1}))
  ) {digits} 0
in
let cmp_int = fun (xx : int * int) ->
  if fst xx < snd xx then 0 - 1
  else (if snd xx < fst xx then 1 else 0)
in
pack[int, {tau}] ((sample_eager, cmp_int))"""
    contexts = (
        ContextSpec("cmp-fresh", """\
unpack hole as a, p in
let x = (fst p) () in
let y = (fst p) () in
(snd p) ((x, y))""", "exactly-equal"),
        ContextSpec("cmp-self", """\
unpack hole as a, p in
let x = (fst p) () in
(snd p) ((x, x))""", "exactly-equal"),
        ContextSpec("cmp-repeat", """\
unpack hole as a, p in
let x = (fst p) () in
let y = (fst p) () in
let r1 = (snd p) ((x, y)) in
let r2 = (snd p) ((x, y)) in
(r1, r2)""", "exactly-equal"),
    )
    return CorpusEntry("lazy-int", {"digits": digits, "base": base},
                       tau, "lazy_sampled", "eager_sampled",
                       lazy, eager, contexts, depth=420)


# name -> (builder, summary, {parameter: (default, allowed values)}); an
# allowed set of None admits any value (the builder checks it)
_ENTRIES = {
    "lazy-eager": (_coin, "eager coin thunk vs. lazily sampled, memoized "
                          "coin thunk", {}),
    "flip-or": (_flip_or, "disjunction of two flips vs. a single flip "
                          "(inequivalent)", {}),
    "choice-copying": (_choice_copying, "choose-function-once vs. "
                       "choose-per-call, split by a copying context", {}),
    "choice-local": (_choice_local, "counter-guarded one-shot closures, "
                     "choice outside vs. inside the closure", {}),
    "elgamal-real": (partial(_elgamal, "real"), "public-key game with real "
                     "encryption vs. its Diffie-Hellman reduction, "
                     f"p in {_PRIMES}", _ELGAMAL_SPEC),
    "elgamal-rand": (partial(_elgamal, "rand"), "public-key game with random "
                     "ciphertext vs. its Diffie-Hellman reduction, "
                     f"p in {_PRIMES}", _ELGAMAL_SPEC),
    "hash": (_hash, "eagerly sampled random hash table vs. per-key lazy "
                    "sampling", {"n": (1, (0, 1, 2))}),
    "hash-rng": (_hash_rng, "random-boolean generator built on a lazy hash "
                            "vs. a counter-bounded flip generator",
                 {"max": (2, (1, 2))}),
    "keyed-hash": (_keyed_hash, "key-partitioned wrapper around the lazy "
                                "hash", {}),
    "lazy-int": (_lazy_int, "digit-by-digit lazily sampled integers vs. "
                 "eager sampling, behind an abstract comparison interface",
                 {"digits": (2, (1, 2, 3)), "base": (2, (2, 3))}),
}


def list_entries() -> list[tuple[str, str]]:
    return [(name, _ENTRIES[name][1]) for name in sorted(_ENTRIES)]


def build(name: str, params: dict | None = None) -> CorpusEntry:
    """The entry `name`, its parameters checked against the table and
    defaulted where absent."""
    if name not in _ENTRIES:
        raise ValueError(f"unknown corpus entry {name!r}; "
                         f"known: {', '.join(sorted(_ENTRIES))}")
    builder, _, spec = _ENTRIES[name]
    params = dict(params or {})
    unknown = sorted(set(params) - set(spec))
    if unknown:
        raise ValueError(f"{name}: unknown parameters: {unknown}")
    for key, (default, allowed) in spec.items():
        val = params.setdefault(key, default)
        if allowed is not None and (type(val) is not int or val not in allowed):
            raise ValueError(f"{name}: {key} must be one of {allowed}, "
                             f"got {val}")
    return builder(params)
