"""Concrete syntax for DHOL theories.

One declaration per statement; statements are delimited by the reserved
keywords ``type``, ``const``, ``axiom`` and ``conjecture`` (so ``.`` is only
ever a binder separator).  Terms use ``^`` / ``!`` / ``?`` / ``eps`` for the
binders, ``=>``, ``=``, ``!=``, ``~``, ``&``, ``|``, ``$false``, ``$true``;
comments run from ``%`` to end of line.  Numerals are sugar for iterated ``s``
applied to the constant ``0``.  The parser builds trees only: whether a name,
a base type and its arity are declared, and declared once, is the kernel's
check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .syntax import (
    App,
    AxiomDecl,
    Base,
    BaseTypeDecl,
    Bool,
    Choice,
    ConstDecl,
    Eq,
    FALSE,
    Falsum,
    Forall,
    Implies,
    Lambda,
    Pi,
    Pos,
    Term,
    Theory,
    Type,
    Var,
    conj,
    disj,
    exists,
    neg,
    neq,
)

KEYWORDS = {"type", "const", "axiom", "conjecture", "pi", "tp", "eps"}
STATEMENT_KEYWORDS = {"type", "const", "axiom", "conjecture"}


class ParseError(Exception):
    def __init__(self, msg: str, pos: Optional[Pos] = None):
        self.msg = msg
        self.pos = pos
        super().__init__(f"{pos}: {msg}" if pos else msg)


@dataclass(slots=True)
class _Tok:
    kind: str  # NAME KEYWORD NUMBER SYM DOLLAR EOF
    text: str
    pos: Pos


# Every character matches one group: bad matches the one that starts no token.
_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>[0-9]+)
      | (?P<dollar>\$[A-Za-z]+)
      | (?P<sym>=>|!=|[().:>=~&|!?^])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    append = toks.append
    # the current line's number and the offset of its first character; a
    # position is made only for a token that is kept
    line, start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "ws":
            lexeme = m.group()
            nl = lexeme.count("\n")
            if nl:
                line += nl
                start = m.start() + lexeme.rfind("\n") + 1
            continue
        if group == "comment":
            continue
        lexeme = m.group()
        pos = Pos(line, m.start() - start + 1)
        if group == "name":
            append(_Tok("KEYWORD" if lexeme in KEYWORDS else "NAME", lexeme, pos))
        elif group == "sym":
            append(_Tok("SYM", lexeme, pos))
        elif group == "number":
            append(_Tok("NUMBER", lexeme, pos))
        elif group == "dollar":
            if lexeme not in ("$false", "$true", "$o"):
                raise ParseError(f"unknown builtin {lexeme}", pos)
            append(_Tok("DOLLAR", lexeme, pos))
        else:
            raise ParseError(f"unexpected character {lexeme!r}", pos)
    append(_Tok("EOF", "", Pos(line, len(text) - start + 1)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0

    # -- token plumbing

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_sym(self, s: str) -> _Tok:
        t = self.next()
        if t.kind != "SYM" or t.text != s:
            raise ParseError(f"expected {s!r}, found {t.text!r}", t.pos)
        return t

    def expect_name(self) -> _Tok:
        t = self.next()
        if t.kind != "NAME":
            raise ParseError(f"expected identifier, found {t.text!r}", t.pos)
        return t

    # -- theory

    def parse_theory(self) -> tuple[Theory, Optional[Term]]:
        decls = []
        conjecture: Optional[Term] = None
        while True:
            t = self.peek()
            if t.kind == "EOF":
                break
            if t.kind != "KEYWORD" or t.text not in STATEMENT_KEYWORDS:
                raise ParseError(f"expected a declaration keyword, found {t.text!r}", t.pos)
            self.next()
            if t.text == "type":
                decls.append(self.parse_type_decl())
            elif t.text == "const":
                decls.append(self.parse_const_decl())
            elif t.text == "axiom":
                decls.append(self.parse_axiom_decl())
            else:
                if conjecture is not None:
                    raise ParseError("duplicate conjecture", t.pos)
                self.expect_sym(":")
                conjecture = self.parse_term()
        return Theory(tuple(decls)), conjecture

    def parse_type_decl(self) -> BaseTypeDecl:
        name = self.expect_name()
        self.expect_sym(":")
        telescope = []
        while True:
            t = self.peek()
            if t.kind == "KEYWORD" and t.text == "tp":
                self.next()
                break
            if t.kind == "KEYWORD" and t.text == "pi":
                self.next()
                x, ty = self._binder_head()
                telescope.append((x.text, ty))
            else:
                raise ParseError(f"expected 'pi' or 'tp', found {t.text!r}", t.pos)
        return BaseTypeDecl(name.text, tuple(telescope), pos=name.pos)

    def parse_const_decl(self) -> ConstDecl:
        t = self.peek()
        if t.kind == "NUMBER" and t.text == "0":
            self.next()
            name = t
        else:
            name = self.expect_name()
        self.expect_sym(":")
        ty = self.parse_type()
        return ConstDecl(name.text, ty, pos=name.pos)

    def parse_axiom_decl(self) -> AxiomDecl:
        label = self.expect_name()
        self.expect_sym(":")
        term = self.parse_term()
        return AxiomDecl(label.text, term, pos=label.pos)

    # -- types

    def _binder_head(self) -> tuple[_Tok, Type]:
        """``x : A .`` after a binder keyword."""
        x = self.expect_name()
        self.expect_sym(":")
        ty = self.parse_type()
        self.expect_sym(".")
        return x, ty

    def parse_type(self) -> Type:
        lhs = self.parse_type1()
        t = self.peek()
        if t.kind == "SYM" and t.text == ">":
            self.next()
            rhs = self.parse_type()
            return Pi("_", lhs, rhs, pos=t.pos)
        return lhs

    def parse_type1(self) -> Type:
        t = self.peek()
        if t.kind == "DOLLAR" and t.text == "$o":
            self.next()
            return Bool(pos=t.pos)
        if t.kind == "SYM" and t.text == "(":
            self.next()
            ty = self.parse_type()
            self.expect_sym(")")
            return ty
        if t.kind == "KEYWORD" and t.text == "pi":
            self.next()
            x, dom = self._binder_head()
            return Pi(x.text, dom, self.parse_type(), pos=t.pos)
        if t.kind == "NAME":
            self.next()
            args = []
            while self._at_atom_start():
                args.append(self.parse_atom())
            return Base(t.text, tuple(args), pos=t.pos)
        raise ParseError(f"expected a type, found {t.text!r}", t.pos)

    # -- terms

    def parse_term(self) -> Term:
        return self.parse_impl()

    def parse_impl(self) -> Term:
        lhs = self.parse_disj()
        t = self.peek()
        if t.kind == "SYM" and t.text == "=>":
            self.next()
            return Implies(lhs, self.parse_impl(), pos=t.pos)
        return lhs

    def parse_disj(self) -> Term:
        lhs = self.parse_conj()
        t = self.peek()
        if t.kind == "SYM" and t.text == "|":
            self.next()
            return disj(lhs, self.parse_disj())
        return lhs

    def parse_conj(self) -> Term:
        lhs = self.parse_neg()
        t = self.peek()
        if t.kind == "SYM" and t.text == "&":
            self.next()
            return conj(lhs, self.parse_conj())
        return lhs

    def parse_neg(self) -> Term:
        t = self.peek()
        if t.kind == "SYM" and t.text == "~":
            self.next()
            return neg(self.parse_neg())
        return self.parse_cmp()

    def parse_cmp(self) -> Term:
        lhs = self.parse_app()
        t = self.peek()
        if t.kind == "SYM" and t.text in ("=", "!="):
            self.next()
            rhs = self.parse_app()
            # The equality's type annotation is filled in by the kernel.
            return Eq(None, lhs, rhs, pos=t.pos) if t.text == "=" else neq(None, lhs, rhs)
        return lhs

    def parse_app(self) -> Term:
        t = self.parse_atom()
        while self._at_atom_start():
            arg = self.parse_atom()
            t = App(t, arg, pos=getattr(arg, "pos", None))
        return t

    def _at_atom_start(self) -> bool:
        t = self.peek()
        if t.kind in ("NAME", "NUMBER"):
            return True
        if t.kind == "DOLLAR" and t.text in ("$false", "$true"):
            return True
        if t.kind == "SYM" and t.text == "(":
            return True
        return False

    def parse_atom(self) -> Term:
        t = self.peek()
        if t.kind == "NAME":
            self.next()
            return Var(t.text, pos=t.pos)
        if t.kind == "NUMBER":
            self.next()
            return self._numeral(int(t.text), t.pos)
        if t.kind == "DOLLAR" and t.text == "$false":
            self.next()
            return Falsum(pos=t.pos)
        if t.kind == "DOLLAR" and t.text == "$true":
            self.next()
            return Implies(Falsum(pos=t.pos), FALSE, pos=t.pos)
        if t.kind == "SYM" and t.text == "(":
            self.next()
            inner = self.parse_term()
            self.expect_sym(")")
            return inner
        if (t.kind == "SYM" and t.text in ("^", "!", "?")) or (
            t.kind == "KEYWORD" and t.text == "eps"
        ):
            self.next()
            x, ty = self._binder_head()
            body = self.parse_term()
            if t.text == "^":
                return Lambda(x.text, ty, body, pos=t.pos)
            if t.text == "!":
                return Forall(x.text, ty, body, pos=t.pos)
            if t.text == "?":
                return exists(x.text, ty, body)
            return Choice(x.text, ty, body, pos=t.pos)
        raise ParseError(f"expected a term, found {t.text!r}", t.pos)

    def _numeral(self, n: int, pos: Pos) -> Term:
        t: Term = Var("0", pos=pos)
        for _ in range(n):
            t = App(Var("s", pos=pos), t, pos=pos)
        return t


def parse_theory(text: str) -> tuple[Theory, Optional[Term]]:
    """Parse a .dhol theory; returns the theory and the optional conjecture."""
    return _Parser(text).parse_theory()


def parse_term(text: str) -> Term:
    """Parse a single term (mainly for tests)."""
    return _parse_all(text, _Parser.parse_term)


def parse_type(text: str) -> Type:
    return _parse_all(text, _Parser.parse_type)


def _parse_all(text: str, parse):
    """Run ``parse`` and require it to consume all of ``text``."""
    p = _Parser(text)
    out = parse(p)
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return out
