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

Each check is generated as the source of one Python function and compiled by
CPython once.  In the function, binders become ``for`` loops over locals, each
application spine is one digit extraction into a temporary, ``∀x. l ⇒ r`` is
one loop around one ``if``, and a spine that reads no bound variable is
computed once per run.  Cards, power tables and binder ranges are passed in
at run time, so the function serves every carrier-size tuple, and it is kept
in a bounded cache for the whole process, shared by every search.  A
countermodel is a model of the axioms and the negated conjecture, so the
search runs one kind of check: it enumerates the constants' values in
declaration order and, at each level, the assignment of one constant, runs
the checks that level completes, the axioms and then ¬conjecture.  The search
is generated too, from its level shape, the number of checks each level
completes: one ``for`` loop per constant, nested in the loop before it, at
most 16 levels per function, so n constants cost about n/16 Python frames.  A
check's value depends only on the constants it mentions, yet the enumeration
revisits each assignment of them once for every assignment of the constants
in between.  So each check is memoised, per carrier sizes, on the values of
the earlier constants it reads, and compiled and evaluated only when a memo
miss first needs it (MACE-style finders likewise search for a model of the
clauses and the negated goal; Claessen & Sörensson 2003).  The deadline is
also checked per carrier-size tuple, per run of a level's values and inside
binder loops over many values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import prod
from operator import itemgetter
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
    key_template,
    is_simple_type,
    neg,
    spine,
    Var,
    alpha_eq,
    alpha_key,
)


class OracleError(Exception):
    pass


def active_backend() -> str:
    """Name of the evaluator, recorded by the benchmark harness."""
    return "generated"


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
    cls = type(ty)
    if cls is Base:
        n = ty.name
        if ty.args:
            raise OracleError(f"dependent base type {n!r} reached the oracle")
        if n not in sizes:
            raise OracleError(f"no carrier size for base type {n!r}")
        return sizes[n]
    if cls is Pi:
        return type_card(ty.codomain, sizes) ** type_card(ty.domain, sizes)
    if cls is Bool:
        return 2
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
# Compilation into generated Python functions

# A compiled check: called with no arguments, it returns the check's value
# under the current contents of its compiler's slot list.
Closure = Callable[[], int]

# A generated spine whose codomain is not $o reads c**i from a run-time
# parameter: a power table when the spine has at most this many digit
# positions at the Compiler's sizes, and a _Powers otherwise, so one function
# serves both.  countermodel skips the carrier sizes where a constant's card,
# c to the number of its digit positions, exceeds max_models, so with c ≥ 2
# and max_models below 2**64 every spine of a constant gets a table there.
# Nothing bounds the spines of a bound variable, or any spine under
# eval_term, and a bound variable of a huge function type never makes
# compile build a huge table.
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


class _Powers:
    """c**i on demand, indexed like a power table."""

    __slots__ = ("c",)

    def __init__(self, c: int):
        self.c = c

    def __getitem__(self, i: int) -> int:
        return self.c**i


# CPython rejects a function with more than 20 nested loops and source
# indented more than 100 levels.  A binder or implication that would nest
# deeper than these margins in one generated function is outlined into a
# further function, which takes the bound variables in scope as arguments;
# a generated search holds the loops of at most _MAX_LOOPS levels per
# function.
_MAX_LOOPS = 16
_MAX_INDENT = 64

_BOOLEAN_FORMS = (Falsum, Implies, Eq, Forall)


class _Source:
    """Generates the Python source of one check: ``bind(env, P0, P1, …)``,
    whose arguments after ``env`` are the check's run-time parameters (the
    cards, power tables and binder ranges of its types at one carrier-size
    tuple), and which returns the check as a function of no arguments.

    Free symbols are read from ``env`` into locals once per run.  Binders
    become ``for`` loops over locals, and each application spine is one digit
    extraction into a temporary of its own.  A boolean term in a position
    that only asks whether it holds, such as a check, a quantifier body or
    the right side of an implication there, becomes statements that run a
    ``fail`` exit where it is false: ``return 0`` from the function, or the
    exit from the loop of the binder being generated.  So ``∀x. l ⇒ r`` is
    one loop and one ``if``, with no value built for the implication."""

    def __init__(self, symbols: dict[str, tuple[int, Type]]):
        self.symbols = symbols  # free symbol -> (slot, type)
        self.params: dict[tuple, str] = {}  # run-time parameter spec -> name
        self.functions: list[str] = []
        self.names = 0
        self._enter()

    def module(self) -> str:
        """The source of ``bind``, once ``check`` is defined."""
        params = "".join(f", {p}" for p in self.params.values())
        return "\n".join([f"def bind(env{params}):", *self.functions, "    return check\n"])

    # -- the function being generated

    def _enter(self) -> None:
        self.lines: list[str] = []
        self.indent = 0
        self.loops = 0
        # locals set once at the start of the function: expression -> local
        self.fixed: dict[str, str] = {}

    def define(self, name: str, args: str, t: Term, benv: dict) -> Type:
        """Generates function ``name`` computing t, and returns t's type."""
        saved = self.lines, self.indent, self.loops, self.fixed
        self._enter()
        if isinstance(t, _BOOLEAN_FORMS):
            self._require(t, benv, ("return 0",), True, "check")
            self._emit("return 1")
            ty: Type = BOOL
        else:
            v, ty = self._value(t, benv)
            self._emit(f"return {v}")
        head = [f"    def {name}({args}):"] + [f"        {v} = {e}" for e, v in self.fixed.items()]
        self.functions.append("\n".join(head + ["        " + line for line in self.lines]))
        self.lines, self.indent, self.loops, self.fixed = saved
        return ty

    def _fresh(self, prefix: str) -> str:
        self.names += 1
        return f"{prefix}{self.names}"

    def _emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def _let(self, expr: str) -> str:
        t = self._fresh("t")
        self._emit(f"{t} = {expr}")
        return t

    def _param(self, *spec) -> str:
        name = self.params.get(spec)
        if name is None:
            name = self.params[spec] = f"P{len(self.params)}"
        return name

    def _card(self, ty: Type) -> str:
        return "2" if isinstance(ty, Bool) else self._param("card", ty)

    def _nests_too_deep(self, t: Term) -> bool:
        if self.indent >= _MAX_INDENT:
            return True
        return not isinstance(t, Implies) and self.loops >= _MAX_LOOPS

    def _outline(self, t: Term, benv: dict) -> tuple[str, Type]:
        name = self._fresh("f")
        args = ", ".join(local for local, _ in benv.values())
        ty = self.define(name, args, t, benv)
        return self._let(f"{name}({args})"), ty

    def _loop(self, x: str, a: Type, benv: dict) -> dict:
        local = self._fresh("x")
        self._emit(f"for {local} in {self._param('range', a)}:")
        self.indent += 1
        self.loops += 1
        return {**benv, x: (local, a)}

    def _end_loop(self) -> None:
        self.indent -= 1
        self.loops -= 1

    # -- terms

    def _lookup(self, n: str, benv: dict) -> tuple[str, Type]:
        if n in benv:
            return benv[n]
        if n not in self.symbols:
            raise OracleError(f"unbound symbol {n!r} in oracle term")
        slot, ty = self.symbols[n]
        return self._fix(f"env[{slot}]", f"s{slot}"), ty

    def _fix(self, expr: str, name: str = "") -> str:
        """A local set to expr once, at the start of the function."""
        local = self.fixed.get(expr)
        if local is None:
            local = self.fixed[expr] = name or self._fresh("t")
        return local

    def _value(self, t: Term, benv: dict, local: bool = True) -> tuple[str, Type]:
        """A local or literal holding the term's value, after the statements
        that compute it.  Without ``local``, a comparison or a negation is
        given as its expression, in no local."""
        cls = type(t)
        if cls is Var:
            return self._lookup(t.name, benv)
        if cls is App:
            return self._spine(t, benv)
        if cls is Eq or (cls is Implies and type(t.rhs) is Falsum):
            # a comparison, a negated one (!=), or another negation
            u = t if cls is Eq else t.lhs
            if type(u) is Eq:
                a, _ = self._value(u.lhs, benv)
                expr = f"{a} {'==' if u is t else '!='} {self._value(u.rhs, benv)[0]}"
            else:
                expr = f"not {_boolean(*self._value(u, benv), 'implication')}"
            return (self._let(expr) if local else expr), BOOL
        if cls is Falsum:
            return "0", BOOL
        if self._nests_too_deep(t):
            return self._outline(t, benv)
        if cls is Implies:
            test = self._test(t.lhs, benv, "implication")
            v = self._let("1")
            self._emit(f"if {test}:")
            self.indent += 1
            self._emit(f"{v} = {_boolean(*self._value(t.rhs, benv), 'implication')}")
            self.indent -= 1
            return v, BOOL
        if cls is Forall:
            v = self._let("1")
            inner = self._loop(t.bound, t.annot, benv)
            self._require(t.body, inner, (f"{v} = 0", "break"), False, "quantifier body")
            self._end_loop()
            return v, BOOL
        if cls is Choice:
            x, a = t.bound, t.annot
            v = self._let("0")
            inner = self._loop(x, a, benv)
            self._require(t.body, inner, ("continue",), False, "choice body")
            self._emit(f"{v} = {inner[x][0]}")
            self._emit("break")
            self._end_loop()
            return v, a
        if cls is Lambda:
            x, a = t.bound, t.annot
            v, pw = self._let("0"), self._let("1")
            inner = self._loop(x, a, benv)
            bv, bt = self._value(t.body, inner)
            self._emit(f"{v} += {bv} * {pw}")
            self._emit(f"{pw} *= {self._card(bt)}")
            self._end_loop()
            return v, Pi(x, a, bt)
        raise OracleError(f"not a term: {t!r}")

    def _spine(self, t: Term, benv: dict) -> tuple[str, Type]:
        """h a1 … ak, for h of type A1 > … > Ak > R, is one digit of h in
        base |R|, at the mixed-radix index a1·n2·…·nk + … + ak, nj = |Aj|."""
        head, args = spine(t)
        h, ty = self._lookup(head.name, benv) if isinstance(head, Var) else self._value(head, benv)
        digits: list[str] = []
        radices: list[Type] = []
        for u in args:
            if not isinstance(ty, Pi):
                raise OracleError("application of a non-function reached the oracle")
            # (straight to _spine for an argument spine: one frame per level)
            a, uty = self._spine(u, benv) if isinstance(u, App) else self._value(u, benv)
            if not alpha_eq(uty, ty.domain):
                # a digit index computed from an argument of another type
                # reads the wrong digit, or none
                raise OracleError("ill-typed application argument reached the oracle")
            digits.append(a)
            radices.append(ty.domain)
            ty = ty.codomain
        index = " + ".join(
            f"{a} * {self._product(radices[j + 1 :])}" if j + 1 < len(radices) else a
            for j, a in enumerate(digits)
        )
        if isinstance(ty, Bool):
            expr = f"{h} >> {index} & 1"
        else:
            powers = self._param("powers", ty, tuple(radices))
            expr = f"{h} // {powers}[{index}] % {self._card(ty)}"
        # A spine that reads no bound variable is computed once per run, at
        # the start of the function, whichever loop it sits in.
        fixed = self.fixed.values()
        if all(a in fixed or a.isdigit() for a in [h, *digits]):
            return self._fix(expr), ty
        return self._let(expr), ty

    def _product(self, types: list[Type]) -> str:
        if all(isinstance(a, Bool) for a in types):
            return str(2 ** len(types))
        return self._param("product", tuple(types))

    # -- booleans

    def _test(self, t: Term, benv: dict, what: str) -> str:
        """An expression that is true where the boolean term is."""
        return _boolean(*self._value(t, benv, local=False), what)

    def _require(self, t: Term, benv: dict, fail: tuple[str, ...], escapes: bool, what: str):
        """Statements that run ``fail`` where the boolean term is false.  With
        ``escapes``, fail leaves the function; otherwise it leaves the loop
        being generated, so no loop may open between here and there.  A
        chain of implications, and of quantifiers with ``escapes``, is walked
        in one loop; its ``if``s and loops all close after the leaf."""
        indent, loops = self.indent, self.loops
        while True:
            cls = type(t)
            if cls is Implies and type(t.rhs) is not Falsum and not self._nests_too_deep(t):
                self._emit(f"if {self._test(t.lhs, benv, 'implication')}:")
                self.indent += 1
                t, what = t.rhs, "implication"
            elif cls is Forall and escapes and not self._nests_too_deep(t):
                benv = self._loop(t.bound, t.annot, benv)
                t, what = t.body, "quantifier body"
            else:
                break
        if cls is Implies and type(t.rhs) is Falsum:
            self._fail_if(self._test(t.lhs, benv, "implication"), fail)
        elif cls is Eq:
            a, _ = self._value(t.lhs, benv)
            self._fail_if(f"{a} != {self._value(t.rhs, benv)[0]}", fail)
        elif cls is Falsum:
            for line in fail:
                self._emit(line)
        else:
            self._fail_if(f"not {_boolean(*self._value(t, benv), what)}", fail)
        self.indent, self.loops = indent, loops

    def _fail_if(self, test: str, fail: tuple[str, ...]) -> None:
        self._emit(f"if {test}:")
        self.indent += 1
        for line in fail:
            self._emit(line)
        self.indent -= 1


def _boolean(v: str, ty: Type, what: str) -> str:
    if not isinstance(ty, Bool):
        raise OracleError(f"ill-typed {what} reached the oracle")
    return v


class _Code:
    """One generated check: its ``bind`` function, the specs of the run-time
    parameters that bind takes after ``env``, and the check's type."""

    __slots__ = ("bind", "specs", "type")

    def __init__(self, t: Term, symbols: dict[str, tuple[int, Type]]):
        gen = _Source(symbols)
        self.type = gen.define("check", "", t, {})
        self.bind = _define_bind(gen.module(), "<oracle check>", {})
        self.specs = tuple(gen.params)


def _define_bind(source: str, filename: str, namespace: dict) -> Callable:
    """The function ``bind`` that the source defines, compiled by CPython
    with namespace as its globals.  bind is taken out of the namespace, so
    that the two do not refer to each other and a cache entry dropped is
    freed at once."""
    exec(compile(source, filename, "exec"), namespace)
    return namespace.pop("bind")


# The function of each check is kept for the whole process under the key
# template of the term (its alpha key, unfilled) and the slot and type of each
# free symbol, and the search of each level shape under the shape; each cache
# holds at most _CODE_CACHE_MAX entries, and past that bound the oldest goes.
_CODE_CACHE_MAX = 512
_CODES: dict[tuple, _Code] = {}


def _cached(cache: dict, key, make: Callable, *args):
    """cache[key], made as make(*args) and stored if it is missing."""
    value = cache.get(key)
    if value is None:
        value = make(*args)
        while len(cache) >= _CODE_CACHE_MAX:
            del cache[next(iter(cache))]
        cache[key] = value
    return value


class Compiler:
    """Compiles terms, at one carrier-size tuple, into functions of no
    arguments that read one shared slot list, ``env``.  Slots 0..n-1 hold the
    values of the named symbols (constants first, then extra assignment
    variables).

    A term is generated as the source of a Python function (see _Source) at
    its first compile, compiled by CPython and kept in a bounded cache for
    the whole process, shared by every carrier size, Compiler and search.
    compile passes the generated function this Compiler's cards, power
    tables and binder ranges, and returns the function of no arguments that
    results.

    With a ``deadline`` (a ``time.monotonic`` value), a binder over more than
    _CLOCKED_RANGE_MIN values raises _OutOfTime from inside the function once
    the deadline has passed."""

    def __init__(
        self,
        sizes: dict[str, int],
        symbols: dict[str, Type],
        deadline: Optional[float] = None,
    ):
        self.sizes = sizes
        self.deadline = deadline
        self.symbol_types = dict(symbols)
        self.slot_of = {name: i for i, name in enumerate(symbols)}
        self.env: list[int] = [0] * len(symbols)
        self._tables: dict[tuple[int, int], list[int]] = {}

    def compile(self, t: Term) -> tuple[Closure, Type]:
        """Returns (function computing the term's value, simple type of the
        term)."""
        key, symbols = self._key(t)
        code = _cached(_CODES, key, _Code, t, symbols)
        return code.bind(self.env, *map(self._argument, code.specs)), code.type

    def _key(self, t: Term) -> tuple[tuple, dict[str, tuple[int, Type]]]:
        """The code key of a term, made of its key template and the slot and
        the alpha key of the type of each free symbol; and those slots and
        types.  Alpha-equivalent terms have one template, and the template,
        kept on the node, costs no walk and no string after the first."""
        template = key_template(t)
        symbols: dict[str, tuple[int, Type]] = {}
        for n in template[1]:
            if n not in self.slot_of:
                raise OracleError(f"unbound symbol {n!r} in oracle term")
            symbols[n] = (self.slot_of[n], self.symbol_types[n])
        signature = tuple((slot, alpha_key(ty)) for slot, ty in symbols.values())
        return (template, signature), symbols

    def _argument(self, spec: tuple):
        """The value of one run-time parameter of a generated function at this
        Compiler's sizes."""
        match spec:
            case ("range", ty):
                return self._values(type_card(ty, self.sizes))
            case ("card", ty):
                return type_card(ty, self.sizes)
            case ("product", types):
                return prod(type_card(a, self.sizes) for a in types)
        _, ty, radices = spec  # ("powers", codomain, radices): c**j per digit position j
        return self._powers(type_card(ty, self.sizes), prod(type_card(a, self.sizes) for a in radices))

    def _values(self, n: int):
        if self.deadline is None or n <= _CLOCKED_RANGE_MIN:
            return range(n)
        return _ClockedRange(n, self.deadline)

    def _powers(self, c: int, digits: int):
        if digits > _POWER_TABLE_MAX:
            return _Powers(c)
        table = self._tables.get((c, digits))
        if table is None:
            table = self._tables[c, digits] = [c**j for j in range(digits)]
        return table


class CompiledTerms:
    """The functions of one Compiler, run against its shared slot list."""

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
# Past the cap, a check gets no row of its own: one entry to a level tries
# each of its values once, so a row that is not kept is never read back.
MEMO_MAX_BYTES = 32 << 20
_ROW_OVERHEAD = 160
_UNKNOWN = 2  # a memo entry not evaluated yet; known ones hold 0 or 1


class _Rows:
    """The memo rows of one carrier-size tuple and the bytes charged for them."""

    __slots__ = ("stored",)

    def __init__(self):
        self.stored = 0

    def new(self, memo: dict, key, width: int):
        """A row of ``width`` unknown entries, kept in ``memo`` under ``key``
        while the rows kept so far leave room for it, and otherwise _UNKEPT,
        so that a row too wide to keep is never allocated."""
        cost = width + _ROW_OVERHEAD
        if self.stored + cost > MEMO_MAX_BYTES:
            return _UNKEPT
        row = memo[key] = bytearray((_UNKNOWN,)) * width
        self.stored += cost
        return row


class _Unkept:
    """A row whose entries are all unknown and which keeps nothing written."""

    __slots__ = ()

    def __getitem__(self, v: int) -> int:
        return _UNKNOWN

    def __setitem__(self, v: int, r: int) -> None:
        pass


_UNKEPT = _Unkept()


def _no_slots(env: list[int]) -> tuple:
    return ()


def _compile_bool(comp: Compiler, t: Term) -> Closure:
    fn, ty = comp.compile(t)
    if not isinstance(ty, Bool):
        raise OracleError("non-boolean axiom or conjecture reached the oracle")
    return fn


class _LevelRange:
    """range(n) for one search level, reading the clock before each run of
    _LEVEL_CLOCK_EVERY values after the first, and raising _OutOfTime once
    the deadline has passed.  The search reads the clock before the first
    run itself, so every level reads it at values 0, 1024, …"""

    __slots__ = ("n", "deadline")

    def __init__(self, n: int, deadline: float):
        self.n = n
        self.deadline = deadline

    def __iter__(self):
        clock, deadline, n = time.monotonic, self.deadline, self.n
        for start in range(0, n, _LEVEL_CLOCK_EVERY):
            if start and clock() > deadline:
                raise _OutOfTime
            yield from range(start, min(start + _LEVEL_CLOCK_EVERY, n))


def _generate_search(shape: tuple[int, ...]) -> Callable:
    """Generates ``bind(env, widths, ranges, keys, terms, run, comp,
    new_row, clock, deadline)`` for a search whose level i completes
    shape[i] checks.  bind returns the search, a function of no arguments
    that is true once env holds an assignment passing every check.

    Level i is one ``for`` loop over the values of constant i, nested in
    the loop of level i - 1 after that level's checks.  On entry, it fetches
    the memo row of each of its checks under the values the check reads
    before level i, then reads the clock.  At each value, it reads each
    check's row, runs the check where the row holds no result yet, compiling
    it at its first run, and goes on to the next value at the first check
    that is false.  Check g of the whole search, in level order, has its
    memo key function in k{g}, its memo in m{g}, its row in row{g} and its
    function, once compiled, in f[g].  A function holds the loops of at most
    _MAX_LOOPS levels, and its last loop calls the function of the next
    ones."""
    n, total = len(shape), sum(shape)
    first = [0]  # the index of each level's first check, then total
    for count in shape:
        first.append(first[-1] + count)

    def names(prefix: str, count: int) -> str:
        return "".join(f"{prefix}{g}, " for g in range(count))

    lines = ["def bind(env, widths, ranges, keys, terms, run, comp, new_row, clock, deadline):"]
    if n:
        lines += [f"    {names('w', n)}= widths", f"    {names('r', n)}= ranges"]
    if total:
        lines += [
            f"    {names('k', total)}= keys",
            f"    {names('m', total)}= [{{}} for _ in keys]",
            f"    f = [None] * {total}",
            "    def root(g):",
            "        f[g] = _compile_bool(comp, terms[g])",
            "        return f[g]",
        ]
    for chunk, lo in enumerate(range(0, n, _MAX_LOOPS)):
        hi = min(lo + _MAX_LOOPS, n)
        lines.append(f"    def search{chunk}():")
        pad = " " * 8
        for i in range(lo, hi):
            checks = range(first[i], first[i + 1])
            # a row is never false: it holds at least one entry, or is _UNKEPT
            lines += [f"{pad}row{g} = m{g}.get(key := k{g}(env)) or new_row(m{g}, key, w{i})" for g in checks]
            lines += [f"{pad}if clock() > deadline: raise _OutOfTime", f"{pad}for v{i} in r{i}:"]
            pad += "    "
            lines.append(f"{pad}env[{i}] = v{i}")
            for g in checks:
                lines += [
                    f"{pad}r = row{g}[v{i}]",
                    f"{pad}if r == {_UNKNOWN}: r = row{g}[v{i}] = run(f[{g}] or root({g}))",
                    f"{pad}if not r: continue",
                ]
        if hi < n:
            lines.append(f"{pad}if search{chunk + 1}(): return True")
        else:
            lines.append(f"{pad}return True")
        lines.append("        return False")
    if not n:
        lines += ["    def search0():", "        return True"]
    lines.append("    return search0\n")
    namespace = {"_OutOfTime": _OutOfTime, "_compile_bool": _compile_bool}
    return _define_bind("\n".join(lines), "<oracle search>", namespace)


# The search of each level shape, generated at the shape's first search and
# bounded like _CODES
_SEARCHES: dict[tuple[int, ...], Callable] = {}


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
    passes them all is the countermodel.  The search is a generated function
    of the level shape, the number of checks each level completes (see
    _generate_search), kept in a bounded process-wide cache, so the searches
    of one shape at every carrier size and in every call share it.

    Each check has a memo for the current carrier sizes, keyed by the values
    of the earlier constants it reads.  An entry is a row with one result per
    value of the level's own constant, unknown until that value is first
    tried under that key, so a check is evaluated at most once per (values
    read, level value).  Rows are kept up to MEMO_MAX_BYTES per size tuple,
    and no row outlives the call; the generated function of each check does,
    in the Compiler's process-wide cache.  A check is compiled when it is
    first evaluated at a carrier size, so an ill-typed axiom that the search
    never evaluates raises no OracleError.

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
    # A check runs right after the highest-indexed constant it mentions has
    # been assigned, at that constant's level, and is memoised on the others.
    upfront: list[Term] = []  # closed checks: no free symbols
    levels: list[list[tuple[Term, tuple[int, ...]]]] = [[] for _ in consts]
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
    # from a list, not an iterator: CPython sizes a tuple of an iterator by a
    # guess and shrinks it, and the shrunken tuple, once freed, goes to the
    # free list of its own size, which only a full collection empties
    shape = tuple([len(level) for level in levels])
    terms = [t for level in levels for t, _ in level]
    keys = [itemgetter(*reads) if reads else _no_slots for level in levels for _, reads in level]

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
        cards = [type_card(ty, sizes) for _, ty in consts]
        ranges = [range(w) if w <= _LEVEL_CLOCK_EVERY else _LevelRange(w, deadline) for w in cards]
        bind = _cached(_SEARCHES, shape, _generate_search, shape)
        search = bind(ct.env, cards, ranges, keys, terms, run, comp, _Rows().new, time.monotonic, deadline)
        try:
            if all(run(_compile_bool(comp, t)) for t in upfront) and search():
                model = FiniteModel(
                    sizes=sizes,
                    consts={n: ct.env[comp.slot_of[n]] for n, _ in consts},
                    types={n: ty for n, ty in consts},
                )
                return SearchResult("countermodel", model)
        except _OutOfTime:
            return _out_of_time(size_tuple)

    if detail:
        return SearchResult("exhausted", detail=detail)
    return SearchResult("none", detail=f"exhaustive up to carrier size {budget.max_size}")


def _out_of_time(size_tuple: tuple[int, ...]) -> SearchResult:
    return SearchResult("exhausted", detail=f"wall-time budget exceeded at sizes {size_tuple}")


def merge_context(thy: Theory, ctx) -> Theory:
    """Contexts and theories coincide for the oracle: context variables become
    constants to solve for, assumptions become axioms."""
    return Theory(tuple(thy.decls) + tuple(ctx.decls))

