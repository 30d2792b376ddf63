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
erased theory prefix, whose declaration objects they share.  The body of each
``ConstDecl`` (its type) and ``AxiomDecl`` (its formula) is therefore rendered
once per declaration and kept in the declaration's memo slot (see ``syntax``)
together with the symbols the render looked up and the names they mangled to.
A later problem reuses the text only when each of those symbols already
mangles to the same name in its own table, and renders it again otherwise.
Name reservation (declared names, ``_tp`` and formula names, ``goal``) and
the conjecture run for every problem, so each problem's text and symbol map
are the same as a render without the memo.
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

    def mangle(self, name: str) -> str:
        if name in self.fwd:
            return self.fwd[name]
        candidate = self.reserve(_word(name, "c", str.lower))
        self.fwd[name] = candidate
        self.back[candidate] = name
        return candidate

    def reserve(self, raw: str) -> str:
        candidate = raw
        k = 1
        while candidate in self.used:
            k += 1
            candidate = f"{raw}_{k}"
        self.used.add(candidate)
        return candidate

    def formula_name(self, label: str) -> str:
        """Unique THF formula name for an axiom label, recoverable on read."""
        name = self.reserve(_word(label, "ax", str.lower))
        self.back[name] = label
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
    match ty:
        case Bool():
            return "$o"
        case Base(name=n, args=args):
            if args:
                raise ThfError(f"dependent base type {n!r} reached THF emission")
            return table.mangle(n)
        case Pi(domain=d, codomain=c):
            # a dependent codomain embeds its bound variable in a Base
            # argument, which is rejected above
            return f"({_fmt_type(d, table)} > {_fmt_type(c, table)})"
        case _:
            raise ThfError(f"not a type: {ty!r}")


def _fmt_term(t: Term, table: SymbolTable, scope: dict[str, str]) -> str:
    match t:
        case Var(name=n):
            if n in scope:
                return scope[n]
            return table.mangle(n)
        case Falsum():
            return "$false"
        case Implies(lhs=Falsum(), rhs=Falsum()):
            return "$true"
        case Implies(lhs=l, rhs=r):
            return f"({_fmt_term(l, table, scope)} => {_fmt_term(r, table, scope)})"
        case Eq(lhs=l, rhs=r):
            return f"({_fmt_term(l, table, scope)} = {_fmt_term(r, table, scope)})"
        case App(fun=f, arg=a):
            return f"({_fmt_term(f, table, scope)} @ {_fmt_term(a, table, scope)})"
        case Lambda() | Forall() | Choice():
            op = {Lambda: "^", Forall: "!", Choice: "@+"}[type(t)]
            v = _mangle_bound(t.bound, scope)
            inner = {**scope, t.bound: v}
            body = _fmt_term(t.body, table, inner)
            return f"( {op} [{v}:{_fmt_type(t.annot, table)}] : {body} )"
        case _:
            raise ThfError(f"not a term: {t!r}")


class _Recorder:
    """Stands in for a SymbolTable during one render and records the names
    the render looked up."""

    __slots__ = ("table", "seen")

    def __init__(self, table: SymbolTable):
        self.table = table
        self.seen: dict[str, str] = {}

    def mangle(self, name: str) -> str:
        m = self.seen[name] = self.table.mangle(name)
        return m


def _fmt_body(d: Union[ConstDecl, AxiomDecl], table: SymbolTable) -> str:
    """The THF text of d's type or formula under table, from d's memo slot
    when every symbol it read mangles to the same name in table already.
    dholc renders from one thread only; threads that share d may both render
    it, and they store equivalent entries."""
    try:
        names, text = d._thf
    except AttributeError:
        pass
    else:
        fwd = table.fwd
        if all(fwd.get(sym) == m for sym, m in names):
            return text
    rec = _Recorder(table)
    text = _fmt_type(d.ty, rec) if isinstance(d, ConstDecl) else _fmt_term(d.term, rec, {})
    object.__setattr__(d, "_thf", (tuple(rec.seen.items()), text))
    return text


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
    a self-contained THF problem.  The type or formula of each declaration is
    rendered once and reused by later problems that mangle the symbols it
    reads to the same names (see the module docstring)."""
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
    for d in tuple(thy) + tuple(ctx):
        match d:
            case BaseTypeDecl(name=a, telescope=tele):
                if tele:
                    raise ThfError(f"dependent base type {a!r} reached THF emission")
                m = table.mangle(a)
                lines.append(f"thf({table.reserve(m + '_tp')}, type, {m}: $tType).")
            case ConstDecl(name=c):
                m = table.mangle(c)
                lines.append(f"thf({table.reserve(m + '_tp')}, type, {m}: {_fmt_body(d, table)}).")
            case AxiomDecl(label=lbl):
                fname = table.formula_name(lbl)
                lines.append(f"thf({fname}, axiom, {_fmt_body(d, table)}).")
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
