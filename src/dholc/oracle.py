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

Each term is compiled once into nested Python closures, one per subterm, that
read and write a shared list of variable slots (closure generation, Feeley &
Lapalme 1987); the countermodel search reassigns the constants' slots and
reruns the axiom and conjecture closures.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Optional

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
    Var,
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


class Compiler:
    """Compiles terms into nested Python closures over one shared slot list,
    ``env``.  Slots 0..n-1 hold the values of the named symbols (constants
    first, then extra assignment variables); binder slots are allocated after
    them, one per binder occurrence, so no two closures write the same slot."""

    def __init__(self, sizes: dict[str, int], symbols: dict[str, Type]):
        self.sizes = sizes
        self.symbol_types = dict(symbols)
        self.slot_of = {name: i for i, name in enumerate(symbols)}
        self.env: list[int] = [0] * len(symbols)

    def compile(self, t: Term) -> tuple[Closure, Type]:
        """Returns (closure computing the term's value, simple type of the term)."""
        return self._go(t, {})

    def _binder(self, x: str, a: Type, body: Term, benv: dict[str, tuple[int, Type]]):
        slot = len(self.env)
        self.env.append(0)
        fn, ty = self._go(body, {**benv, x: (slot, a)})
        return slot, range(type_card(a, self.sizes)), fn, ty

    def _go(self, t: Term, benv: dict[str, tuple[int, Type]]) -> tuple[Closure, Type]:
        env = self.env
        match t:
            case Var(name=n):
                if n in benv:
                    slot, ty = benv[n]
                elif n in self.slot_of:
                    slot, ty = self.slot_of[n], self.symbol_types[n]
                else:
                    raise OracleError(f"unbound symbol {n!r} in oracle term")
                return (lambda: env[slot]), ty
            case Falsum():
                return (lambda: 0), BOOL
            case Implies(lhs=l, rhs=r):
                lf, lt = self._go(l, benv)
                rf, rt = self._go(r, benv)
                if not isinstance(lt, Bool) or not isinstance(rt, Bool):
                    raise OracleError("ill-typed implication reached the oracle")
                return (lambda: rf() if lf() else 1), BOOL
            case Eq(lhs=l, rhs=r):
                lf, _ = self._go(l, benv)
                rf, _ = self._go(r, benv)
                return (lambda: 1 if lf() == rf() else 0), BOOL
            case Forall(bound=x, annot=a, body=b):
                slot, values, body, bt = self._binder(x, a, b, benv)
                if not isinstance(bt, Bool):
                    raise OracleError("ill-typed quantifier body reached the oracle")

                def forall() -> int:
                    for v in values:
                        env[slot] = v
                        if not body():
                            return 0
                    return 1

                return forall, BOOL
            case Choice(bound=x, annot=a, body=b):
                slot, values, body, bt = self._binder(x, a, b, benv)
                if not isinstance(bt, Bool):
                    raise OracleError("ill-typed choice body reached the oracle")

                def choice() -> int:
                    for v in values:
                        env[slot] = v
                        if body():
                            return v
                    return 0

                return choice, a
            case Lambda(bound=x, annot=a, body=b):
                slot, values, body, bt = self._binder(x, a, b, benv)
                d = type_card(bt, self.sizes)

                def lam() -> int:
                    acc = 0
                    pw = 1
                    for v in values:
                        env[slot] = v
                        acc += body() * pw
                        pw *= d
                    return acc

                return lam, Pi(x, a, bt)
            case App(fun=f, arg=u):
                ff, ft = self._go(f, benv)
                uf, _ = self._go(u, benv)
                if not isinstance(ft, Pi):
                    raise OracleError("application of a non-function reached the oracle")
                c = type_card(ft.codomain, self.sizes)
                return (lambda: ff() // c ** uf() % c), ft.codomain
            case _:
                raise OracleError(f"not a term: {t!r}")


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


class _OutOfTime(Exception):
    pass


def _size_tuples(nbases: int, max_size: int):
    return sorted(
        itertools.product(range(1, max_size + 1), repeat=nbases), key=lambda t: (sum(t), t)
    )


def countermodel(
    thy: Theory,
    conjecture: Term,
    budget: SearchBudget = SearchBudget(),
) -> SearchResult:
    """Exhaustive search for a model of all axioms falsifying the conjecture,
    up to the budget.  Deterministic enumeration: carrier sizes ordered by
    (total, lexicographic), interpretations in canonical integer order,
    constants in declaration order with axioms checked as soon as all their
    symbols are assigned.  Budget exhaustion is reported distinctly from an
    exhaustive "none up to bound"."""
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
    axioms = [d.term for d in thy if isinstance(d, AxiomDecl)]
    known = {n for n, _ in consts}
    for t in axioms + [conjecture]:
        for v in free_vars(t):
            if v not in known:
                raise OracleError(f"free symbol {v!r} not declared for the oracle")

    deadline = time.monotonic() + budget.max_seconds
    exhausted_any = False
    detail = ""

    for size_tuple in _size_tuples(len(bases), budget.max_size):
        sizes = dict(zip(bases, size_tuple))
        space = 1
        for _, ty in consts:
            space *= type_card(ty, sizes)
            if space > budget.max_models:
                break
        if space > budget.max_models:
            exhausted_any = True
            detail = f"interpretation space exceeds {budget.max_models} at sizes {size_tuple}"
            continue

        comp = Compiler(sizes, {n: ty for n, ty in consts})
        # An axiom is checked right after the highest-indexed constant it
        # mentions has been assigned.
        scheduled: dict[int, list[Closure]] = {i: [] for i in range(len(consts))}
        upfront: list[Closure] = []
        for axiom in axioms:
            root, _ = comp.compile(axiom)
            slots = {comp.slot_of[v] for v in free_vars(axiom)}
            if slots:
                scheduled[max(slots)].append(root)
            else:
                upfront.append(root)
        conj_root, _ = comp.compile(conjecture)
        ct = CompiledTerms(comp)
        env = ct.env

        cards = [type_card(ty, sizes) for _, ty in consts]
        steps = 0

        def dfs(i: int) -> bool:
            nonlocal steps
            steps += 1
            if steps % 1024 == 0 and time.monotonic() > deadline:
                raise _OutOfTime
            if i == len(consts):
                return ct.run(conj_root) == 0
            for v in range(cards[i]):
                env[i] = v
                if all(ct.run(r) != 0 for r in scheduled[i]):
                    if dfs(i + 1):
                        return True
            return False

        try:
            if all(ct.run(r) != 0 for r in upfront):
                if dfs(0):
                    model = FiniteModel(
                        sizes=sizes,
                        consts={n: env[comp.slot_of[n]] for n, _ in consts},
                        types={n: ty for n, ty in consts},
                    )
                    return SearchResult("countermodel", model)
        except _OutOfTime:
            return SearchResult(
                "exhausted", detail=f"wall-time budget exceeded at sizes {size_tuple}"
            )
        finally:
            # dfs refers to itself; breaking that cycle frees this size's
            # closures now instead of at some later full garbage collection.
            del dfs

    if exhausted_any:
        return SearchResult("exhausted", detail=detail)
    return SearchResult("none", detail=f"exhaustive up to carrier size {budget.max_size}")


def merge_context(thy: Theory, ctx) -> Theory:
    """Contexts and theories coincide for the oracle: context variables become
    constants to solve for, assumptions become axioms."""
    return Theory(tuple(thy.decls) + tuple(ctx.decls))


def restrict_signature(thy: Theory, terms: list[Term]) -> Theory:
    """Drop axioms and constants irrelevant to ``terms``.

    The truth value of a formula depends only on the symbols it mentions, so
    validity checking over the restricted signature is equivalent and the
    interpretation space collapses.  Base types referenced by the kept
    constants' types or by binder annotations are retained."""
    wanted = set()
    for t in terms:
        wanted.update(free_vars(t))
    consts = [d for d in thy if isinstance(d, ConstDecl) and d.name in wanted]
    bases: set[str] = set()

    def collect_bases(ty: Type) -> None:
        match ty:
            case Base(name=n):
                bases.add(n)
            case Pi(domain=d, codomain=c):
                collect_bases(d)
                collect_bases(c)
            case _:
                pass

    for d in consts:
        collect_bases(d.ty)
    for t in terms:
        for sub in _annotations(t):
            collect_bases(sub)
    base_decls = [d for d in thy if isinstance(d, BaseTypeDecl) and d.name in bases]
    return Theory(tuple(base_decls) + tuple(consts))


def _annotations(t: Term):
    match t:
        case Lambda(annot=a, body=b) | Forall(annot=a, body=b) | Choice(annot=a, body=b):
            yield a
            yield from _annotations(b)
        case App(fun=f, arg=a):
            yield from _annotations(f)
            yield from _annotations(a)
        case Implies(lhs=l, rhs=r):
            yield from _annotations(l)
            yield from _annotations(r)
        case Eq(ty=ty, lhs=l, rhs=r):
            if ty is not None:
                yield ty
            yield from _annotations(l)
            yield from _annotations(r)
        case _:
            return
