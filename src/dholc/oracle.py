"""Finite-model evaluation and exhaustive countermodel search for simply
typed HOL with choice.

Semantics: full function spaces over finite carriers.  Every value is encoded
as an integer index into the canonical enumeration of its type — booleans are
0/1, base-type elements are 0..n-1, and a function is the positional encoding
of its table in base |codomain| (application is digit extraction, equality is
index equality, abstraction accumulates digits).  Choice picks the first
element in canonical order satisfying the body, else the first element of the
carrier; carriers are nonempty, so this is total, and it validates the HOL
choice rule by construction: whenever a witness exists, the chosen element is
one.

Each term is compiled once into nested Python closures that read and write a
shared list of variable slots (closure generation, Feeley & Lapalme 1987).
The closures are specialised to the node combinations erased obligations are
made of (superoperators, Proebsting 1995): an application spine with a
variable head is one digit lookup, and a ∀ over ⇒ is one loop.  A
countermodel is a model of the axioms and the negated conjecture, so the
search runs one kind of check: it reassigns the constants' slots depth first
and, at each level, runs the checks that level completes, the axioms and then
¬conjecture.  A check's value depends only on the constants it mentions, yet
the DFS revisits each assignment of them once for every assignment of the
constants in between.  So each check is memoised, per carrier sizes, on the
values of the earlier constants it reads, and compiled and evaluated only when
a memo miss first needs it (MACE-style finders likewise search for a model of
the clauses and the negated goal; Claessen & Sörensson 2003).  The deadline is
also checked per carrier-size tuple, per run of a level's values and inside
binder loops over many values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .syntax import (
    App,
    AxiomDecl,
    Base,
    BaseTypeDecl,
    BOOL,
    Bool,
    Choice,
    ConstDecl,
    Eq,
    Falsum,
    Forall,
    Implies,
    Lambda,
    Pi,
    Term,
    Theory,
    Type,
    free_vars,
    is_simple_type,
    neg,
    spine,
    Var,
    alpha_eq,
)


class OracleError(Exception):
    pass


def active_backend() -> str:
    """Name of the evaluator, recorded by the benchmark harness."""
    return "closures"


# ---------------------------------------------------------------------------
# Budgets / models


@dataclass(frozen=True)
class SearchBudget:
    max_size: int = 3  # max carrier size per base type (Bool is fixed at 2)
    max_models: int = 2_000_000  # cap on the interpretation-space product
    max_seconds: float = 30.0

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max carrier size must be at least 1")
        if self.max_models < 1:
            raise ValueError("max model count must be at least 1")
        if not self.max_seconds > 0:  # NaN too: it would disable the deadline
            raise ValueError("max seconds must be positive")


@dataclass
class FiniteModel:
    sizes: dict[str, int]
    consts: dict[str, int]
    types: dict[str, Type]

    def decode(self, name: str):
        return decode_value(self.types[name], self.consts[name], self.sizes)

    def describe(self) -> str:
        lines = [f"|{a}| = {n}" for a, n in self.sizes.items()]
        for name in self.consts:
            lines.append(f"{name} = {_show_value(self.types[name], self.decode(name))}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "sizes": dict(self.sizes),
            "constants": {n: self.decode(n) for n in self.consts},
        }


def type_card(ty: Type, sizes: dict[str, int]) -> int:
    match ty:
        case Bool():
            return 2
        case Base(name=n, args=args):
            if args:
                raise OracleError(f"dependent base type {n!r} reached the oracle")
            if n not in sizes:
                raise OracleError(f"no carrier size for base type {n!r}")
            return sizes[n]
        case Pi(domain=d, codomain=c):
            return type_card(c, sizes) ** type_card(d, sizes)
        case _:
            raise OracleError(f"not a type: {ty!r}")


def decode_value(ty: Type, val: int, sizes: dict[str, int]):
    match ty:
        case Bool():
            return bool(val)
        case Base():
            return val
        case Pi(domain=d, codomain=c):
            cc = type_card(c, sizes)
            return [
                decode_value(c, (val // cc**i) % cc, sizes)
                for i in range(type_card(d, sizes))
            ]
        case _:
            raise OracleError(f"not a type: {ty!r}")


def _show_value(ty: Type, decoded) -> str:
    if isinstance(decoded, list):
        return "[" + ", ".join(_show_value(ty.codomain, x) for x in decoded) + "]"
    return str(decoded)


# ---------------------------------------------------------------------------
# Compilation to closures

# A compiled term: called with no arguments, it returns the term's value under
# the current contents of its compiler's slot list.
Closure = Callable[[], int]

# The closure builders.  Each closure is made in a small function of its own,
# so it captures only what it reads and Compiler._go keeps plain locals rather
# than a cell for every variable that one of its branches would capture.


def _false() -> int:
    return 0


def _read(env: list[int], slot: int) -> Closure:
    return lambda: env[slot]


def _implies(l: Closure, r: Closure) -> Closure:
    return lambda: r() if l() else 1


def _not(l: Closure) -> Closure:  # l ⇒ ⊥
    return lambda: 0 if l() else 1


def _eq(l: Closure, r: Closure) -> Closure:
    return lambda: 1 if l() == r() else 0


def _forall(env: list[int], slot: int, values: Iterable[int], body: Closure) -> Closure:
    def forall() -> int:
        for v in values:
            env[slot] = v
            if not body():
                return 0
        return 1

    return forall


def _forall_implies(
    env: list[int], slot: int, values: Iterable[int], l: Closure, r: Closure
) -> Closure:
    def forall() -> int:  # ∀x. l ⇒ r, with no call for the implication
        for v in values:
            env[slot] = v
            if l() and not r():
                return 0
        return 1

    return forall


def _forall_not(env: list[int], slot: int, values: Iterable[int], l: Closure) -> Closure:
    def forall() -> int:  # ∀x. l ⇒ ⊥
        for v in values:
            env[slot] = v
            if l():
                return 0
        return 1

    return forall


def _choice(env: list[int], slot: int, values: Iterable[int], body: Closure) -> Closure:
    def choice() -> int:
        for v in values:
            env[slot] = v
            if body():
                return v
        return 0

    return choice


def _lam(env: list[int], slot: int, values: Iterable[int], body: Closure, d: int) -> Closure:
    def lam() -> int:
        acc = 0
        pw = 1
        for v in values:
            env[slot] = v
            acc += body() * pw
            pw *= d
        return acc

    return lam


def _apply(f: Closure, u: Closure, c: int) -> Closure:
    return lambda: f() // c ** u() % c


# A spine h a1 … ak whose head h is a variable of type A1 > … > Ak > R is one
# digit of env[h] in base c = |R|, at the mixed-radix index
# i = ((a1·n2 + a2)·n3 + a3)…, where nj = |Aj|.  pw[i] is c**i.  The "s"
# builders read variable arguments straight from their slots; the others call
# one closure per argument.


def _spine1s(env, h, s1, pw, c) -> Closure:
    return lambda: env[h] // pw[env[s1]] % c


def _spine2s(env, h, s1, s2, n2, pw, c) -> Closure:
    return lambda: env[h] // pw[env[s1] * n2 + env[s2]] % c


def _spine3s(env, h, s1, s2, s3, n2, n3, pw, c) -> Closure:
    return lambda: env[h] // pw[(env[s1] * n2 + env[s2]) * n3 + env[s3]] % c


def _spine1(env, h, a1, pw, c) -> Closure:
    return lambda: env[h] // pw[a1()] % c


def _spine2(env, h, a1, a2, n2, pw, c) -> Closure:
    return lambda: env[h] // pw[a1() * n2 + a2()] % c


def _spine3(env, h, a1, a2, a3, n2, n3, pw, c) -> Closure:
    return lambda: env[h] // pw[(a1() * n2 + a2()) * n3 + a3()] % c


def _spine(env, h, args, radices, pw, c) -> Closure:
    def spine() -> int:
        i = 0
        for a, n in zip(args, radices):
            i = i * n + a()
        return env[h] // pw[i] % c

    return spine


_SLOT_SPINES = {1: _spine1s, 2: _spine2s, 3: _spine3s}
_CALL_SPINES = {1: _spine1, 2: _spine2, 3: _spine3}

# A spine with at most this many digit positions reads its powers from a list;
# a longer one computes c**i.  A constant's card is c to the number of its
# digit positions, and the search's max_models check bounds that card, so with
# c ≥ 2 and max_models below 2**64 every spine of a constant gets a list.  A
# bound variable of a huge function type never makes compile build a huge one.
_POWER_TABLE_MAX = 64


# A binder over more than this many values checks the search's deadline at
# each value, so that one evaluation cannot overrun max_seconds by looping
# over a huge function space.  Smaller ranges stay plain ranges: the erased
# obligations of the corpus bind at most 2 values at the sizes searched.
_CLOCKED_RANGE_MIN = 16


class _OutOfTime(Exception):
    pass


class _ClockedRange:
    """range(n) for one binder, raising _OutOfTime once the deadline passes."""

    __slots__ = ("n", "deadline")

    def __init__(self, n: int, deadline: float):
        self.n = n
        self.deadline = deadline

    def __iter__(self):
        clock, deadline = time.monotonic, self.deadline
        for v in range(self.n):
            if clock() > deadline:
                raise _OutOfTime
            yield v


# A search level looks at the clock before each run of this many values, so a
# level that rejects almost every value still stops in time.
_LEVEL_CLOCK_EVERY = 1024


def _check_argument(domain: Type, ty: Type) -> None:
    """An argument's type must be its function's domain: a digit index
    computed from an argument of another type reads the wrong digit, or none."""
    if ty != domain and not alpha_eq(ty, domain):
        raise OracleError("ill-typed application argument reached the oracle")


class _Powers:
    """c**i on demand, indexed like a power table."""

    __slots__ = ("c",)

    def __init__(self, c: int):
        self.c = c

    def __getitem__(self, i: int) -> int:
        return self.c**i


class Compiler:
    """Compiles terms into nested Python closures over one shared slot list,
    ``env``.  Slots 0..n-1 hold the values of the named symbols (constants
    first, then extra assignment variables); binder slots are allocated after
    them, one per binder occurrence, so no two closures write the same slot.

    The closures specialise the shapes that dominate erased obligations
    (Proebsting's superoperators, POPL 1995): an application spine with a
    variable head is one closure that reads one digit of the head's value,
    taking variable arguments straight from their slots; ``l ⇒ ⊥`` is a
    negation; and ``∀x. l ⇒ r`` is one loop with no call for the implication.
    Other applications, such as a λ-redex or an ε of function type applied to
    an argument, stay one closure per ``App``.

    With a ``deadline`` (a ``time.monotonic`` value), a binder over more than
    _CLOCKED_RANGE_MIN values raises _OutOfTime from inside the closure once
    the deadline has passed."""

    def __init__(
        self, sizes: dict[str, int], symbols: dict[str, Type], deadline: Optional[float] = None
    ):
        self.sizes = sizes
        self.deadline = deadline
        self.symbol_types = dict(symbols)
        self.slot_of = {name: i for i, name in enumerate(symbols)}
        self.env: list[int] = [0] * len(symbols)
        self._tables: dict[tuple[int, int], list[int]] = {}

    def compile(self, t: Term) -> tuple[Closure, Type]:
        """Returns (closure computing the term's value, simple type of the term)."""
        return self._go(t, {})

    def _lookup(self, n: str, benv: dict[str, tuple[int, Type]]) -> tuple[int, Type]:
        if n in benv:
            return benv[n]
        if n in self.slot_of:
            return self.slot_of[n], self.symbol_types[n]
        raise OracleError(f"unbound symbol {n!r} in oracle term")

    def _bind(self, x: str, a: Type, benv: dict[str, tuple[int, Type]]):
        slot = len(self.env)
        self.env.append(0)
        n = type_card(a, self.sizes)
        if self.deadline is None or n <= _CLOCKED_RANGE_MIN:
            values = range(n)
        else:
            values = _ClockedRange(n, self.deadline)
        return slot, values, {**benv, x: (slot, a)}

    def _bool(self, t: Term, benv: dict[str, tuple[int, Type]], what: str) -> Closure:
        fn, ty = self._go(t, benv)
        if not isinstance(ty, Bool):
            raise OracleError(f"ill-typed {what} reached the oracle")
        return fn

    def _powers(self, c: int, digits: int):
        if digits > _POWER_TABLE_MAX:
            return _Powers(c)
        table = self._tables.get((c, digits))
        if table is None:
            table = self._tables[c, digits] = [c**j for j in range(digits)]
        return table

    def _go(self, t: Term, benv: dict[str, tuple[int, Type]]) -> tuple[Closure, Type]:
        match t:
            case Var(name=n):
                slot, ty = self._lookup(n, benv)
                return _read(self.env, slot), ty
            case Falsum():
                return _false, BOOL
            case Implies(lhs=l, rhs=r):
                lf = self._bool(l, benv, "implication")
                if isinstance(r, Falsum):
                    return _not(lf), BOOL
                return _implies(lf, self._bool(r, benv, "implication")), BOOL
            case Eq(lhs=l, rhs=r):
                lf, _ = self._go(l, benv)
                rf, _ = self._go(r, benv)
                return _eq(lf, rf), BOOL
            case Forall(bound=x, annot=a, body=b):
                slot, values, inner = self._bind(x, a, benv)
                if not isinstance(b, Implies):
                    body = self._bool(b, inner, "quantifier body")
                    return _forall(self.env, slot, values, body), BOOL
                lf = self._bool(b.lhs, inner, "implication")
                if isinstance(b.rhs, Falsum):
                    return _forall_not(self.env, slot, values, lf), BOOL
                rf = self._bool(b.rhs, inner, "implication")
                return _forall_implies(self.env, slot, values, lf, rf), BOOL
            case Choice(bound=x, annot=a, body=b):
                slot, values, inner = self._bind(x, a, benv)
                body = self._bool(b, inner, "choice body")
                return _choice(self.env, slot, values, body), a
            case Lambda(bound=x, annot=a, body=b):
                slot, values, inner = self._bind(x, a, benv)
                body, bt = self._go(b, inner)
                return _lam(self.env, slot, values, body, type_card(bt, self.sizes)), Pi(x, a, bt)
            case App(fun=f, arg=u):
                head, args = spine(t)
                if isinstance(head, Var):
                    return self._spine(head.name, args, benv)
                ff, ft = self._go(f, benv)
                uf, ut = self._go(u, benv)
                if not isinstance(ft, Pi):
                    raise OracleError("application of a non-function reached the oracle")
                _check_argument(ft.domain, ut)
                return _apply(ff, uf, type_card(ft.codomain, self.sizes)), ft.codomain
            case _:
                raise OracleError(f"not a term: {t!r}")

    def _spine(
        self, name: str, args: list[Term], benv: dict[str, tuple[int, Type]]
    ) -> tuple[Closure, Type]:
        h, ty = self._lookup(name, benv)
        radices: list[int] = []
        getters: list = []  # a slot for a variable argument, else a closure
        for u in args:
            if not isinstance(ty, Pi):
                raise OracleError("application of a non-function reached the oracle")
            radices.append(type_card(ty.domain, self.sizes))
            if isinstance(u, Var):
                getter, uty = self._lookup(u.name, benv)
            else:
                getter, uty = self._go(u, benv)
            _check_argument(ty.domain, uty)
            getters.append(getter)
            ty = ty.codomain
        c = type_card(ty, self.sizes)
        pw = self._powers(c, prod(radices))
        env = self.env
        k = len(args)
        if k in _SLOT_SPINES and all(type(g) is int for g in getters):
            return _SLOT_SPINES[k](env, h, *getters, *radices[1:], pw, c), ty
        calls = [_read(env, g) if type(g) is int else g for g in getters]
        if k in _CALL_SPINES:
            return _CALL_SPINES[k](env, h, *calls, *radices[1:], pw, c), ty
        return _spine(env, h, calls, radices, pw, c), ty


class CompiledTerms:
    """The closures of one Compiler, run against its shared slot list."""

    def __init__(self, compiler: Compiler):
        self.env = compiler.env

    def run(self, root: Closure) -> int:
        return root()


# ---------------------------------------------------------------------------
# Public evaluation


def eval_term(model: FiniteModel, env: dict[str, tuple[Type, int]], t: Term) -> int:
    """Evaluate ``t`` in ``model`` under ``env`` (name -> (type, value)).
    Returns the integer encoding; for booleans 0/1."""
    symbols = dict(model.types)
    for n, (ty, _) in env.items():
        symbols[n] = ty
    for n, v in list(model.consts.items()) + [(n, v) for n, (_, v) in env.items()]:
        if not 0 <= v < type_card(symbols[n], model.sizes):
            raise OracleError(f"value {v} of {n!r} is outside its type")
    comp = Compiler(model.sizes, symbols)
    root, _ = comp.compile(t)
    ct = CompiledTerms(comp)
    for n, v in model.consts.items():
        ct.env[comp.slot_of[n]] = v
    for n, (_, v) in env.items():
        ct.env[comp.slot_of[n]] = v
    return ct.run(root)


# ---------------------------------------------------------------------------
# Countermodel search


@dataclass
class SearchResult:
    status: str  # "countermodel" | "none" | "exhausted"
    model: Optional[FiniteModel] = None
    detail: str = ""

    @property
    def found(self) -> bool:
        return self.status == "countermodel"


# Memo rows one carrier-size tuple may store, in bytes.  Each row is charged
# its length plus _ROW_OVERHEAD for its object header, key and dict entry.
# Past the cap, new rows are still filled and used, but not kept.
MEMO_MAX_BYTES = 32 << 20
_ROW_OVERHEAD = 160
_UNKNOWN = 2  # a memo entry not evaluated yet; known ones hold 0 or 1


class _Rows:
    """The memo rows of one carrier-size tuple and the bytes charged for them."""

    __slots__ = ("stored",)

    def __init__(self):
        self.stored = 0

    def new(self, memo: dict, key, width: int) -> bytearray:
        """A row of ``width`` unknown entries, kept in ``memo`` under ``key``
        while the rows kept so far leave room for it."""
        row = bytearray((_UNKNOWN,)) * width
        cost = width + _ROW_OVERHEAD
        if self.stored + cost <= MEMO_MAX_BYTES:
            memo[key] = row
            self.stored += cost
        return row


def _no_slots(env: list[int]) -> tuple:
    return ()


def _compile_bool(comp: Compiler, t: Term) -> Closure:
    fn, ty = comp.compile(t)
    if not isinstance(ty, Bool):
        raise OracleError("non-boolean axiom or conjecture reached the oracle")
    return fn


class _Check:
    """One check at one carrier-size tuple: its term, the key of the earlier
    slots it reads, its memo, and its closure once first needed."""

    __slots__ = ("term", "key", "memo", "root")

    def __init__(self, term: Term, reads: tuple[int, ...]):
        self.term = term
        self.key = itemgetter(*reads) if reads else _no_slots
        self.memo: dict = {}
        self.root: Optional[Closure] = None


def _first_sizes(n: int, total: int, max_size: int) -> list[int]:
    """The lexicographically first n sizes in 1..max_size that sum to total."""
    sizes = []
    for after in range(n - 1, -1, -1):
        first = max(1, total - after * max_size)
        sizes.append(first)
        total -= first
    return sizes


def _size_tuples(nbases: int, max_size: int):
    """Every tuple of nbases sizes in 1..max_size, ordered by (total,
    lexicographic) and made one at a time: there can be too many to list."""
    for total in range(nbases, nbases * max_size + 1):
        sizes = _first_sizes(nbases, total, max_size)
        while True:
            yield tuple(sizes)
            # the last position that can grow by one while the ones after it,
            # which sum to rest, can still give that one up
            rest = 0
            for i in range(nbases - 1, -1, -1):
                if sizes[i] < max_size and rest > nbases - 1 - i:
                    break
                rest += sizes[i]
            else:
                break
            sizes[i] += 1
            sizes[i + 1 :] = _first_sizes(nbases - 1 - i, rest - 1, max_size)


def countermodel(
    thy: Theory,
    conjecture: Term,
    budget: SearchBudget = SearchBudget(),
) -> SearchResult:
    """Exhaustive search for a model of the axioms and the negated
    conjecture, up to the budget.  Deterministic enumeration: carrier sizes
    ordered by (total, lexicographic), interpretations in canonical integer
    order, constants in declaration order.  Budget exhaustion is reported
    distinctly from an exhaustive "none up to bound".

    The checks are the axioms in declaration order, then ¬conjecture.  Each
    level of the search, the assignment of one constant, runs the checks
    whose last constant it is, and an assignment of every constant that
    passes them all is the countermodel.

    Each check has a memo for the current carrier sizes, keyed by the values
    of the earlier constants it reads.  An entry is a row with one result per
    value of the level's own constant, unknown until that value is first
    tried under that key, so a check is evaluated at most once per (values
    read, level value).  Rows are kept up to MEMO_MAX_BYTES per size tuple,
    and nothing outlives the call.  A check is compiled when it is first
    evaluated at a carrier size, so an ill-typed axiom that the search never
    evaluates raises no OracleError.

    The deadline is checked before each carrier-size tuple, before each run
    of _LEVEL_CLOCK_EVERY values of a level, and, through the Compiler, at
    every value of a binder over more than _CLOCKED_RANGE_MIN values, so no
    long evaluation, level or run of size tuples overruns it by much: the
    search ends as "exhausted"."""
    bases = [d.name for d in thy if isinstance(d, BaseTypeDecl)]
    for d in thy:
        if isinstance(d, BaseTypeDecl) and d.telescope:
            raise OracleError(f"dependent base type {d.name!r} reached the oracle")
    consts = [(d.name, d.ty) for d in thy if isinstance(d, ConstDecl)]
    if len({n for n, _ in consts}) != len(consts):
        raise OracleError("duplicate constant name in the oracle signature")
    for _, ty in consts:
        if not is_simple_type(ty):
            raise OracleError("non-simple constant type reached the oracle")
    index = {n: i for i, (n, _) in enumerate(consts)}
    nconsts = len(consts)
    # A check runs right after the highest-indexed constant it mentions has
    # been assigned, at that constant's level, and is memoised on the others.
    upfront: list[Term] = []
    levels: list[list[tuple[Term, tuple[int, ...]]]] = [[] for _ in range(nconsts)]
    for t in [d.term for d in thy if isinstance(d, AxiomDecl)] + [neg(conjecture)]:
        symbols = free_vars(t)
        for v in symbols:
            if v not in index:
                raise OracleError(f"free symbol {v!r} not declared for the oracle")
        slots = sorted(index[v] for v in symbols)
        if slots:
            levels[slots[-1]].append((t, tuple(slots[:-1])))
        else:
            upfront.append(t)

    deadline = time.monotonic() + budget.max_seconds
    detail = ""

    for size_tuple in _size_tuples(len(bases), budget.max_size):
        if time.monotonic() > deadline:
            return _out_of_time(size_tuple)
        sizes = dict(zip(bases, size_tuple))
        space = 1
        for _, ty in consts:
            space *= type_card(ty, sizes)
            if space > budget.max_models:
                break
        if space > budget.max_models:
            detail = f"interpretation space exceeds {budget.max_models} at sizes {size_tuple}"
            continue

        comp = Compiler(sizes, dict(consts), deadline)
        ct = CompiledTerms(comp)
        run = ct.run
        env = ct.env
        cards = [type_card(ty, sizes) for _, ty in consts]
        checks = [[_Check(t, reads) for t, reads in level] for level in levels]
        new_row = _Rows().new

        def dfs(i: int) -> bool:
            if i == nconsts:
                return True
            width = cards[i]
            rows = []
            for check in checks[i]:
                k = check.key(env)
                row = check.memo.get(k)
                if row is None:
                    row = new_row(check.memo, k, width)
                rows.append((check, row))
            for start in range(0, width, _LEVEL_CLOCK_EVERY):
                if time.monotonic() > deadline:
                    raise _OutOfTime
                for v in range(start, min(start + _LEVEL_CLOCK_EVERY, width)):
                    env[i] = v
                    for check, row in rows:
                        r = row[v]
                        if r == _UNKNOWN:
                            if check.root is None:
                                check.root = _compile_bool(comp, check.term)
                            r = row[v] = run(check.root)
                        if not r:
                            break
                    else:
                        if dfs(i + 1):
                            return True
            return False

        try:
            if all(run(_compile_bool(comp, t)) for t in upfront) and dfs(0):
                model = FiniteModel(
                    sizes=sizes,
                    consts={n: env[comp.slot_of[n]] for n, _ in consts},
                    types={n: ty for n, ty in consts},
                )
                return SearchResult("countermodel", model)
        except _OutOfTime:
            return _out_of_time(size_tuple)
        finally:
            # dfs refers to itself; breaking that cycle frees this size's
            # closures and memos now instead of at some later full collection.
            del dfs

    if detail:
        return SearchResult("exhausted", detail=detail)
    return SearchResult("none", detail=f"exhaustive up to carrier size {budget.max_size}")


def _out_of_time(size_tuple: tuple[int, ...]) -> SearchResult:
    return SearchResult("exhausted", detail=f"wall-time budget exceeded at sizes {size_tuple}")


def merge_context(thy: Theory, ctx) -> Theory:
    """Contexts and theories coincide for the oracle: context variables become
    constants to solve for, assumptions become axioms."""
    return Theory(tuple(thy.decls) + tuple(ctx.decls))

