"""Concrete syntax for DHOL theories.

One declaration per statement; statements are delimited by the reserved
keywords ``type``, ``const``, ``axiom`` and ``conjecture`` (so ``.`` is only
ever a binder separator).  Terms use ``^`` / ``!`` / ``?`` / ``eps`` for the
binders, ``=>``, ``=``, ``!=``, ``~``, ``&``, ``|``, ``$false``, ``$true``;
comments run from ``%`` to end of line.  Numerals are sugar for iterated ``s``
applied to the constant ``0``.  The parser builds trees only: whether a name,
a base type and its arity are declared, and declared once, is the kernel's
check.

Terms are parsed by one operator-precedence loop (Pratt, *Top Down Operator
Precedence*, 1973) over ``syntax.OPERATORS``, and nesting costs it no Python
frames: a ``(`` or a binder head opens a frame on an explicit stack.  A frame
holds the operators still waiting for their right operand and the application
being built.  Parentheses and binders are atoms, and a binder's body reaches
as far right as it can.  Types are parsed by recursive descent; a type's term
argument in parentheses starts the term loop afresh.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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
    OPERATORS,
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


# Each match is the blanks and comments before a token, then the token: one
# group, bad for a character that starts no token, end at the end of the text.
_TOKEN_RE = re.compile(
    r"""\s*(?:%[^\n]*\s*)*
      (?: (?P<name>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<number>[0-9]+)
        | (?P<dollar>\$[A-Za-z]+)
        | (?P<sym>=>|!=|[().:>=~&|!?^])
        | (?P<end>\Z)
        | (?P<bad>.)
      )
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    append = toks.append
    # the offset of each line's first character, for the positions of tokens
    starts = [0] + [m.end() for m in re.finditer("\n", text)]
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        lexeme = m.group(group)
        offset = m.start(group)
        line = bisect_right(starts, offset)
        pos = Pos(line, offset - starts[line - 1] + 1)
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
        elif group == "end":
            break
        else:
            raise ParseError(f"unexpected character {lexeme!r}", pos)
    append(_Tok("EOF", "", pos))
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
            while (arg := self._atom(self.peek())) is not None:
                args.append(arg)
            return Base(t.text, tuple(args), pos=t.pos)
        raise ParseError(f"expected a type, found {t.text!r}", t.pos)

    # -- terms

    def parse_term(self) -> Term:
        """A term, by the loop the module's docstring describes."""
        stack: list = []  # the enclosing frames: (opener, head, ops, app)
        opener: Optional[_Tok] = None  # None in the frame of the whole term
        head: Optional[tuple[_Tok, Type]] = None  # a binder's variable and type
        ops: list = []  # operators waiting for a right operand: (prec, token, left)
        app: Optional[Term] = None  # the application being built; None before one
        toks = self.toks
        while True:
            t = toks[self.i]
            op = OPERATORS.get(t.text)  # only a SYM token has an operator's text
            if op is None:
                # a binder may start any operand, but is never an argument
                if t.text == "(" or (app is None and t.text in _BINDERS):
                    self.i += 1
                    stack.append((opener, head, ops, app))
                    opener, ops, app = t, [], None
                    head = None if t.text == "(" else self._binder_head()
                    continue
                atom = self._atom(t)
                if atom is not None:
                    app = atom if app is None else App(app, atom, pos=atom.pos)
                    continue
            elif app is None:
                # no operand binds looser than its operator: "~" is no operand of "="
                if op[1] == "prefix" and (not ops or ops[-1][0] <= op[0]):
                    self.i += 1
                    ops.append((op[0], t, None))
                    continue
            elif op[1] != "prefix":
                while ops and ops[-1][0] > op[0]:
                    _, o, lhs = ops.pop()
                    app = _NODES[o.text](lhs, app, o.pos)
                # a comparison is no operand of another, so a second one ends the frame
                if not (op[1] == "none" and ops and ops[-1][0] == op[0]):
                    self.i += 1
                    ops.append((op[0], t, app))
                    app = None
                    continue
            if app is None:
                raise ParseError(f"expected a term, found {t.text!r}", t.pos)
            # t ends the frame
            while ops:
                _, o, lhs = ops.pop()
                app = _NODES[o.text](lhs, app, o.pos)
            if opener is None:
                return app
            if head is None:
                self.expect_sym(")")
            else:
                app = _BINDERS[opener.text](head[0].text, head[1], app, pos=opener.pos)
            opener, head, ops, fun = stack.pop()
            app = app if fun is None else App(fun, app, pos=app.pos)

    def _atom(self, t: _Tok) -> Optional[Term]:
        """The atom that token t starts, consumed, or None.  Only a base type's
        argument reads a term in parentheses here; the term loop opens a frame."""
        if t.kind == "NAME":
            atom = Var(t.text, pos=t.pos)
        elif t.kind == "NUMBER":
            atom = Var("0", pos=t.pos)
            for _ in range(int(t.text)):
                atom = App(Var("s", pos=t.pos), atom, pos=t.pos)
        elif t.text == "$false":
            atom = Falsum(pos=t.pos)
        elif t.text == "$true":
            atom = Implies(Falsum(pos=t.pos), FALSE, pos=t.pos)
        elif t.text == "(":
            self.i += 1
            atom = self.parse_term()
            self.expect_sym(")")
            return atom
        else:
            return None
        self.i += 1
        return atom


# The node each operator makes of its operands, given its token's position;
# of these only Implies and Eq keep the position.
_NODES = {
    "=>": lambda l, r, pos: Implies(l, r, pos=pos),
    "|": lambda l, r, pos: disj(l, r),
    "&": lambda l, r, pos: conj(l, r),
    "~": lambda l, r, pos: neg(r),
    "=": lambda l, r, pos: Eq(None, l, r, pos=pos),  # the kernel fills in the type
    "!=": lambda l, r, pos: neq(None, l, r),
}

# The node each binder token makes; "?" is sugar, which has no position.
_BINDERS = {"^": Lambda, "!": Forall, "eps": Choice, "?": lambda x, a, b, pos: exists(x, a, b)}


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
