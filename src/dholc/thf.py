"""TPTP THF emission for erased theories and obligations, plus a reader for
our own output (round-trip validation).

Mapping: lambda ``^``, universal ``!``, indefinite choice ``@+``, application
``@``, falsum ``$false``, booleans ``$o``; every binary operator is printed
fully parenthesized, so the reader needs no precedence table.  Constant names
are mangled to TPTP lower words (``a*`` becomes ``aSTAR``, digit-leading names
get a ``c`` prefix) deterministically and collision-free per problem; bound
variables are capitalized per scope; one encoder, ``_word``, serves both and
the axiom labels.  The problem records the symbol map so
the reader can restore original constant names — alpha-equivalence does not
cover free constants.

Every problem is self-contained, so the obligations of one check repeat the
erased theory prefix, whose declaration objects they share with each other
and with the kernel report's ``hol_theory``, the erased theory that ``dholc
erase`` and ``dholc prove`` write.  So each theory declaration
keeps the record of its line in its ``_thf`` memo slot (see ``syntax``): the
record of the declaration it followed, the line, and the ``fwd``, ``back``
and ``used`` entries that ``SymbolTable`` noted as the line added them.  A
problem replays the records for as long as each one follows the record
replayed before it, since the table then holds what it held when the record
was made; from the first that does not, it renders and records the rest.
So each declaration of a check is rendered once, in any emission order, and
each problem's text and symbol map are the same as a render without the
memo.  Context declarations and the conjecture are rendered for every
problem.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .kernel import Obligation
from .erasure import ErasedTheory
from .syntax import (
    App,
    AxiomDecl,
    Base,
    BaseTypeDecl,
    Bool,
    BOOL,
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
    Var,
)


class ThfError(Exception):
    pass


# ---------------------------------------------------------------------------
# Name mangling


_NON_WORD = re.compile(r"[^A-Za-z0-9_]")


def _word(name: str, prefix: str, case) -> str:
    """name as a TPTP word: ``*`` becomes ``STAR``, ``'`` ``_p``, any other
    non-word character ``_``; prefix goes in front of a word that does not
    start with a letter, and case (``str.lower`` or ``str.upper``) sets the
    word's first letter."""
    s = _NON_WORD.sub("_", name.replace("*", "STAR").replace("'", "_p"))
    if not s or not s[0].isalpha():
        s = prefix + s
    return case(s[0]) + s[1:]


class SymbolTable:
    def __init__(self):
        self.fwd: dict[str, str] = {}
        self.back: dict[str, str] = {}
        self.used: set[str] = set()
        # while emit_thf records a line: the fwd, back and used entries added
        self._added: Optional[tuple[list, list, list]] = None

    def mangle(self, name: str) -> str:
        if name in self.fwd:
            return self.fwd[name]
        candidate = self.reserve(_word(name, "c", str.lower))
        self.fwd[name] = candidate
        self.back[candidate] = name
        if self._added is not None:
            self._added[0].append((name, candidate))
            self._added[1].append((candidate, name))
        return candidate

    def reserve(self, raw: str) -> str:
        candidate = raw
        k = 1
        while candidate in self.used:
            k += 1
            candidate = f"{raw}_{k}"
        self.used.add(candidate)
        if self._added is not None:
            self._added[2].append(candidate)
        return candidate

    def formula_name(self, label: str) -> str:
        """Unique THF formula name for an axiom label, recoverable on read."""
        name = self.reserve(_word(label, "ax", str.lower))
        self.back[name] = label
        if self._added is not None:
            self._added[1].append((name, label))
        return name


def _mangle_bound(name: str, scope: dict[str, str]) -> str:
    s = _word(name, "X", str.upper)
    candidate = s
    k = 1
    taken = set(scope.values())
    while candidate in taken:
        k += 1
        candidate = f"{s}{k}"
    return candidate


# ---------------------------------------------------------------------------
# Rendering


def _fmt_type(ty: Type, table: SymbolTable) -> str:
    cls = type(ty)
    if cls is Base:
        if ty.args:
            raise ThfError(f"dependent base type {ty.name!r} reached THF emission")
        return table.mangle(ty.name)
    if cls is Pi:
        # a dependent codomain embeds its bound variable in a Base
        # argument, which is rejected above
        return f"({_fmt_type(ty.domain, table)} > {_fmt_type(ty.codomain, table)})"
    if cls is Bool:
        return "$o"
    raise ThfError(f"not a type: {ty!r}")


_BINDER_OPS = {Lambda: "^", Forall: "!", Choice: "@+"}


def _fmt_term(t: Term, table: SymbolTable, scope: dict[str, str]) -> str:
    cls = type(t)
    if cls is Var:
        n = t.name
        if n in scope:
            return scope[n]
        return table.mangle(n)
    if cls is App:
        return f"({_fmt_term(t.fun, table, scope)} @ {_fmt_term(t.arg, table, scope)})"
    if cls is Implies:
        l, r = t.lhs, t.rhs
        if type(l) is Falsum and type(r) is Falsum:
            return "$true"
        return f"({_fmt_term(l, table, scope)} => {_fmt_term(r, table, scope)})"
    if cls in _BINDER_OPS:
        v = _mangle_bound(t.bound, scope)
        inner = {**scope, t.bound: v}
        body = _fmt_term(t.body, table, inner)
        return f"( {_BINDER_OPS[cls]} [{v}:{_fmt_type(t.annot, table)}] : {body} )"
    if cls is Falsum:
        return "$false"
    if cls is Eq:
        return f"({_fmt_term(t.lhs, table, scope)} = {_fmt_term(t.rhs, table, scope)})"
    raise ThfError(f"not a term: {t!r}")


def _decl_line(d, table: SymbolTable) -> str:
    match d:
        case BaseTypeDecl(name=a, telescope=tele):
            if tele:
                raise ThfError(f"dependent base type {a!r} reached THF emission")
            m = table.mangle(a)
            return f"thf({table.reserve(m + '_tp')}, type, {m}: $tType)."
        case ConstDecl(name=c, ty=ty):
            m = table.mangle(c)
            return f"thf({table.reserve(m + '_tp')}, type, {m}: {_fmt_type(ty, table)})."
        case AxiomDecl(label=lbl, term=t):
            return f"thf({table.formula_name(lbl)}, axiom, {_fmt_term(t, table, {})})."
    raise ThfError(f"not a declaration: {d!r}")


def _record_line(d, table: SymbolTable, prev) -> tuple:
    """Render d's line under table and keep its record in d's memo slot.
    dholc renders from one thread only; threads that share d may both record
    it, and each record holds the record it followed, so a problem replays
    only a record made after the same prefix."""
    table._added = (fwd, back, used) = ([], [], [])
    line = _decl_line(d, table)
    table._added = None
    rec = d._thf = (prev, line, tuple(fwd), tuple(back), tuple(used))
    return rec


@dataclass
class ThfProblem:
    name: str
    lines: list[str]
    symbol_map: SymbolTable
    conjecture_name: Optional[str] = None
    comments: list[str] = field(default_factory=list)

    @property
    def text(self) -> str:
        out = [f"% {c}" for c in self.comments]
        out.extend(self.lines)
        return "\n".join(out) + "\n"


def emit_thf(
    source: Union[ErasedTheory, Obligation],
    name: str,
    conjecture: Optional[Term] = None,
) -> ThfProblem:
    """Render an erased theory (with optional conjecture) or an obligation as
    a self-contained THF problem.  The theory's lines are replayed from the
    records of an earlier problem for as long as it shares that problem's
    prefix, and rendered and recorded from there (see the module
    docstring)."""
    if isinstance(source, Obligation):
        thy, ctx = source.hol_theory, source.hol_context
        conjecture = source.conjecture
        comments = [
            f"problem: {name}",
            f"obligation: {source.id} kind={source.kind.value} rule={source.origin.rule}"
            f" subject={source.origin.subject}",
        ]
    else:
        thy, ctx = source.hol_theory, source.hol_context
        comments = [f"problem: {name}"]

    table = SymbolTable()
    lines: list[str] = []
    rec = None  # the record of the theory declaration before d
    for d in thy:
        prev = rec
        rec = getattr(d, "_thf", None)
        if rec is None or rec[0] is not prev:
            rec = _record_line(d, table, prev)
        else:
            table.fwd.update(rec[2])
            table.back.update(rec[3])
            table.used.update(rec[4])
        lines.append(rec[1])
    for d in ctx:
        lines.append(_decl_line(d, table))
    conj_name = None
    if conjecture is not None:
        conj_name = table.reserve("goal")
        lines.append(f"thf({conj_name}, conjecture, {_fmt_term(conjecture, table, {})}).")
    return ThfProblem(name, lines, table, conj_name, comments)


# ---------------------------------------------------------------------------
# Reader for our own output


_THF_TOKEN = re.compile(
    r"""\s+ | %[^\n]* | (?P<word>[A-Za-z0-9_$]+) | (?P<sym>@\+|=>|[()\[\]:,.@=>^!])""",
    re.VERBOSE,
)


def _thf_lex(text: str) -> list[str]:
    toks = []
    i = 0
    while i < len(text):
        m = _THF_TOKEN.match(text, i)
        if not m:
            raise ThfError(f"bad THF character {text[i]!r}")
        if m.lastgroup in ("word", "sym"):
            toks.append(m.group(0))
        i = m.end()
    return toks


class _ThfParser:
    def __init__(self, toks: list[str], back: dict[str, str]):
        self.toks = toks
        self.i = 0
        self.back = back

    def peek(self) -> str:
        return self.toks[self.i] if self.i < len(self.toks) else ""

    def next(self) -> str:
        t = self.peek()
        self.i += 1
        return t

    def expect(self, s: str) -> None:
        t = self.next()
        if t != s:
            raise ThfError(f"expected {s!r}, found {t!r}")

    def unmangle(self, name: str) -> str:
        return self.back.get(name, name)

    def parse_problem(self) -> tuple[Theory, Optional[Term]]:
        decls: list = []
        conjecture = None
        while self.peek() == "thf":
            self.next()
            self.expect("(")
            label = self.next()
            self.expect(",")
            role = self.next()
            self.expect(",")
            if role == "type":
                name = self.next()
                self.expect(":")
                if self.peek() == "$tType":
                    self.next()
                    decls.append(BaseTypeDecl(self.unmangle(name)))
                else:
                    ty = self.parse_type()
                    decls.append(ConstDecl(self.unmangle(name), ty))
            elif role in ("axiom", "hypothesis"):
                decls.append(AxiomDecl(self.unmangle(label), self.parse_term({})))
            elif role == "conjecture":
                conjecture = self.parse_term({})
            else:
                raise ThfError(f"unsupported THF role {role!r}")
            self.expect(")")
            self.expect(".")
        if self.peek():
            raise ThfError(f"trailing THF input {self.peek()!r}")
        return Theory(tuple(decls)), conjecture

    def parse_type(self) -> Type:
        lhs = self.parse_type1()
        if self.peek() == ">":
            self.next()
            return Pi("_", lhs, self.parse_type())
        return lhs

    def parse_type1(self) -> Type:
        t = self.next()
        if t == "$o":
            return BOOL
        if t == "(":
            ty = self.parse_type()
            self.expect(")")
            return ty
        return Base(self.unmangle(t))

    def parse_term(self, scope: dict[str, str]) -> Term:
        lhs = self.parse_primary(scope)
        while self.peek() == "@":
            self.next()
            lhs = App(lhs, self.parse_primary(scope))
        if self.peek() == "=>":
            self.next()
            return Implies(lhs, self.parse_term(scope))
        if self.peek() == "=":
            self.next()
            return Eq(None, lhs, self.parse_term(scope))
        return lhs

    def parse_primary(self, scope: dict[str, str]) -> Term:
        t = self.peek()
        if t == "(":
            self.next()
            inner = self.parse_term(scope)
            self.expect(")")
            return inner
        if t in ("^", "!", "@+"):
            self.next()
            self.expect("[")
            v = self.next()
            self.expect(":")
            ty = self.parse_type()
            self.expect("]")
            self.expect(":")
            body = self.parse_term({**scope, v: v})
            cls = {"^": Lambda, "!": Forall, "@+": Choice}[t]
            return cls(v, ty, body)
        if t == "$false":
            self.next()
            return Falsum()
        if t == "$true":
            self.next()
            return Implies(Falsum(), Falsum())
        self.next()
        if t in scope:
            return Var(t)
        return Var(self.unmangle(t))


def parse_thf(text: str, symbol_map: Optional[SymbolTable] = None) -> tuple[Theory, Optional[Term]]:
    """Parse a problem previously produced by emit_thf.  With the problem's
    symbol map, constant names are restored; equality type annotations are
    left empty (re-derivable by the simple-HOL checker)."""
    back = symbol_map.back if symbol_map is not None else {}
    return _ThfParser(_thf_lex(text), back).parse_problem()
