"""Abstract syntax for DHOL/HOL terms, types, declarations and theories.

Terms and types are trees, immutable by convention (see below).  Types embed
terms (arguments of applied base types), so every operation on terms also
walks types: substitution, free variables, alpha-equivalence,
equality-annotation stripping and the subterm walk each have one entry point
that takes a term or a type, and so does ``erasure.beta_normalize``.  Derived
connectives (negation, truth, conjunction, disjunction, existentials,
disequality) are construction-time sugar: the trees only ever store the core
nodes.

The hot walkers over terms and types, here and in the erasure, ground
prover, kernel, THF printer and oracle, dispatch on the exact class of a node
(``type(t) is App``), which is about twice as fast as a ``match`` over class
patterns; cold code such as the printer and the parser keeps ``match``.  So
the node classes must not be subclassed: a hot walker refuses an instance of
a subclass as it refuses any other non-node.

Source positions are carried on every node for diagnostics but are excluded
from equality and hashing.  So are the memo slots, which are no dataclass
fields: they take no part in equality, hashing or repr, and are neither
copied nor pickled.
- ``_nf``, on every term node: ``ground.normal_form`` keeps the node's normal
  form there.
- ``_key``, on every term and type node: ``key_template`` keeps the node's
  alpha key there, with its free names as holes, so that ``alpha_key``,
  ``alpha_eq`` (two nodes of one class with equal templates), ``free_vars``
  (the holes) and the ground prover's instance keys walk a node once.
- ``_thf``, on every declaration: ``thf.emit_thf`` keeps the record of the
  declaration's THF line there (the record it followed, the line and the
  symbol-table entries it added), so that the problems of one check, which
  share the kernel's erased declarations, replay it and render each
  declaration once.

The node, declaration, theory and context classes are not ``frozen``: a
frozen dataclass stores each field through ``object.__setattr__``, which
makes building a node more than twice as dear, and the erasure and the kernel
build tens of thousands of nodes per run.  So nothing enforces immutability.
No code may assign a field of a node once built (tests fingerprint the trees
every stage reads, before and after it runs); only the memo slots above are
written after construction, with plain stores.  ``unsafe_hash=True`` asks
for the field-based ``__hash__`` that ``frozen`` implied, and the
``__reduce__`` of the three memo-carrying bases (``Term``, ``Type`` and
``Declaration``) copies and pickles a node by its fields alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional


@dataclass(slots=True, unsafe_hash=True)
class Pos:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _reduce(node):
    """(class, field values in order): what copy and pickle rebuild a node
    from, so that a copy starts with empty memo slots."""
    return type(node), tuple(getattr(node, f.name) for f in fields(node))


class Term:
    """Base class of the term union."""

    # _nf is unset until ground.normal_form fills it; None means "normal
    # already".  _key is unset until key_template fills it.
    __slots__ = ("_nf", "_key")
    __reduce__ = _reduce


class Type:
    """Base class of the type union."""

    # unset until key_template fills it
    __slots__ = ("_key",)
    __reduce__ = _reduce


@dataclass(slots=True, unsafe_hash=True)
class Var(Term):
    name: str
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Lambda(Term):
    bound: str
    annot: Type
    body: Term
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class App(Term):
    fun: Term
    arg: Term
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Falsum(Term):
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Implies(Term):
    lhs: Term
    rhs: Term
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Eq(Term):
    # ty is None between parsing and kernel elaboration; erasure requires it.
    ty: Optional[Type]
    lhs: Term
    rhs: Term
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Forall(Term):
    bound: str
    annot: Type
    body: Term
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Choice(Term):
    bound: str
    annot: Type
    body: Term
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Bool(Type):
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Base(Type):
    name: str
    args: tuple[Term, ...] = ()
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Pi(Type):
    bound: str
    domain: Type
    codomain: Type
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


BOOL = Bool()
FALSE = Falsum()

# The binder classes, which share the fields bound, annot and body.
_BINDERS = frozenset((Lambda, Forall, Choice))


# ---------------------------------------------------------------------------
# Declarations / theories / contexts


class Declaration:
    """Base class of the declaration union."""

    # unset until thf.emit_thf fills it with the record of the
    # declaration's line
    __slots__ = ("_thf",)
    __reduce__ = _reduce


@dataclass(slots=True, unsafe_hash=True)
class BaseTypeDecl(Declaration):
    name: str
    telescope: tuple[tuple[str, Type], ...] = ()
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)

    @property
    def arity(self) -> int:
        return len(self.telescope)


@dataclass(slots=True, unsafe_hash=True)
class ConstDecl(Declaration):
    name: str
    ty: Type
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class AxiomDecl(Declaration):
    label: str
    term: Term
    pos: Optional[Pos] = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Theory:
    decls: tuple[Declaration, ...] = ()

    def __iter__(self) -> Iterator[Declaration]:
        return iter(self.decls)

    def __len__(self) -> int:
        return len(self.decls)

    def extended(self, *decls: Declaration) -> "Theory":
        return type(self)(self.decls + decls)

    def base_type(self, name: str) -> Optional[BaseTypeDecl]:
        for d in self.decls:
            if isinstance(d, BaseTypeDecl) and d.name == name:
                return d
        return None


@dataclass(slots=True, unsafe_hash=True)
class Context(Theory):
    """Like a theory but may not declare base types."""

    def __post_init__(self):
        for d in self.decls:
            if isinstance(d, BaseTypeDecl):
                raise ValueError("contexts may not declare base types")


# ---------------------------------------------------------------------------
# Derived connectives (sugar), expanded at construction


def neg(t: Term) -> Term:
    return Implies(t, FALSE)


def top() -> Term:
    return neg(FALSE)


def conj(a: Term, b: Term) -> Term:
    return neg(Implies(a, neg(b)))


def disj(a: Term, b: Term) -> Term:
    return Implies(neg(a), b)


def exists(bound: str, annot: Type, body: Term) -> Term:
    return neg(Forall(bound, annot, neg(body)))


def neq(ty: Optional[Type], lhs: Term, rhs: Term) -> Term:
    return neg(Eq(ty, lhs, rhs))


def apply(fun: Term, *args: Term) -> Term:
    for a in args:
        fun = App(fun, a)
    return fun


# The operators of the surface syntax, for the parser and the printer: token
# -> (precedence, fixity), loosest first.  The comparisons ("none") do not
# chain; application binds tighter than any operator.
OPERATORS = {
    "=>": (1, "right"),
    "|": (2, "right"),
    "&": (3, "right"),
    "~": (4, "prefix"),
    "=": (5, "none"),
    "!=": (5, "none"),
}


# ---------------------------------------------------------------------------
# Free variables


def free_vars(t: Term | Type) -> tuple[str, ...]:
    """Free variables in first-occurrence order, including those inside
    embedded type annotations and base-type arguments: the holes of t's key
    template, read from its memo slot."""
    return key_template(t)[1]


def fresh_name(base: str, avoid) -> str:
    """Deterministic freshening: base itself if free, else base_1, base_2, ..."""
    if base not in avoid:
        return base
    k = 1
    while f"{base}_{k}" in avoid:
        k += 1
    return f"{base}_{k}"


# ---------------------------------------------------------------------------
# Substitution (capture-avoiding, simultaneous)


def subst_many(t: Term | Type, mapping: dict[str, Term]) -> Term | Type:
    """Capture-avoiding simultaneous substitution in a term or a type."""
    mapping = {x: u for x, u in mapping.items() if not (isinstance(u, Var) and u.name == x)}
    if not mapping:
        return t
    return _subst(t, mapping, [])


def subst(t: Term | Type, x: str, u: Term) -> Term | Type:
    """Capture-avoiding substitution of u for free x, total."""
    return subst_many(t, {x: u})


# _subst returns the node itself when nothing under it changed.  ``mapping``
# may hold variables that are not free in the node.  ``reach`` is empty until
# the walk first needs it, then holds one set: every free variable of the
# images.  A binder outside that set cannot capture one, so only a binder
# inside it pays for the free variables of its body.


def _subst(t, mapping: dict[str, Term], reach: list[set[str]]):
    cls = type(t)
    if cls is Var:
        return mapping.get(t.name, t)
    if cls is App:
        f, a = t.fun, t.arg
        f2, a2 = _subst(f, mapping, reach), _subst(a, mapping, reach)
        if f2 is f and a2 is a:
            return t
        return App(f2, a2, pos=t.pos)
    if cls is Implies:
        l, r = t.lhs, t.rhs
        l2, r2 = _subst(l, mapping, reach), _subst(r, mapping, reach)
        if l2 is l and r2 is r:
            return t
        return Implies(l2, r2, pos=t.pos)
    if cls in _BINDERS:
        annot = _subst(t.annot, mapping, reach)
        x, b = _subst_binder(t.bound, t.body, mapping, reach)
        if annot is t.annot and b is t.body and x == t.bound:
            return t
        return cls(x, annot, b, pos=t.pos)
    if cls is Falsum or cls is Bool:
        return t
    if cls is Eq:
        ty, l, r = t.ty, t.lhs, t.rhs
        ty2 = _subst(ty, mapping, reach) if ty is not None else None
        l2, r2 = _subst(l, mapping, reach), _subst(r, mapping, reach)
        if ty2 is ty and l2 is l and r2 is r:
            return t
        return Eq(ty2, l2, r2, pos=t.pos)
    if cls is Base:
        args = t.args
        args2 = [_subst(a, mapping, reach) for a in args]
        if all(map(operator.is_, args2, args)):
            return t
        return Base(t.name, tuple(args2), pos=t.pos)
    if cls is Pi:
        d, c = t.domain, t.codomain
        d2 = _subst(d, mapping, reach)
        x2, c2 = _subst_binder(t.bound, c, mapping, reach)
        if d2 is d and c2 is c and x2 == t.bound:
            return t
        return Pi(x2, d2, c2, pos=t.pos)
    raise TypeError(f"not a term or type: {t!r}")


def _subst_binder(x: str, body, mapping: dict[str, Term], reach: list[set[str]]):
    inner = {y: u for y, u in mapping.items() if y != x} if x in mapping else mapping
    if not inner:
        return x, body
    if not reach:
        # mapping only shrinks in the body of a binder that got here first,
        # so this one sees every image of the walk
        reach.append({v for u in mapping.values() for v in free_vars(u)})
    if x not in reach[0]:
        return x, _subst(body, inner, reach)
    # x may capture a free variable of an image: keep only the variables free
    # in the body, and rename the binder if one of their images mentions x.
    body_fv = set(free_vars(body))
    inner = {y: u for y, u in inner.items() if y in body_fv}
    if not inner:
        return x, body
    image_fv = [free_vars(u) for u in inner.values()]
    if any(x in fv for fv in image_fv):
        avoid = body_fv | {x}
        for fv in image_fv:
            avoid.update(fv)
        x2 = fresh_name(x, avoid)
        inner[x] = Var(x2)
        return x2, _subst(body, inner, [reach[0] | {x2}])
    return x, _subst(body, inner, reach)


# ---------------------------------------------------------------------------
# Alpha-equivalence


def alpha_eq(t: Term | Type | None, u: Term | Type | None) -> bool:
    """Equality of terms or types up to consistent renaming of bound
    variables: the same class (compared first) and the same key template."""
    if t is None or u is None:
        return t is u
    return type(t) is type(u) and key_template(t) == key_template(u)


def alpha_key(t: Term | Type) -> str:
    """Canonical string key: equal iff alpha-equivalent.  Bound variables are
    numbered in traversal order, so the key is stable across renamings."""
    text, names, _ = key_template(t)
    return text.format(*names) if names else text


def key_template(t, env=None, depth=0, parts=None, holes=None):
    """(text, names, holds_choice), computed once per node and kept in its
    memo slot.  ``text.format(*names)`` is t's alpha key: each free name is
    a hole, ``names`` lists them in order of first occurrence, and the rest
    of the text is escaped for ``str.format``.  Filling the holes with other
    names instead gives the key of t with those free names renamed, which is
    the key of t with constants substituted for its free variables.
    ``holds_choice`` is whether a ``Choice`` occurs in t, in a type
    annotation included.  A closed t's text is its key, unescaped.  dholc
    calls it from one thread only; threads that share a node may both
    compute it, and they store equal tuples.

    Called with t alone.  The walk calls it again for each subterm, with
    the walk's state: env maps each bound name in scope to its binder's
    depth, parts collects the text and holes maps each free name to its
    hole.  The call for t itself walks t, so that a key costs one Python
    frame per level of nesting."""
    top = parts is None
    if top:
        memo = getattr(t, "_key", None)
        if memo is not None:
            return memo
        env, parts, holes = {}, [], {}
    # A binder shadows an outer one of the same name in env in place and
    # restores it after its body, so the walk copies no dict.
    cls = type(t)
    if cls is Var:
        n = t.name
        if n in env:
            parts.append(f"b{env[n]};")
        else:
            hole = holes.get(n)
            if hole is None:
                hole = holes[n] = f"v{{{len(holes)}}};"
            parts.append(hole)
    elif cls is App:
        parts.append("@(")
        key_template(t.fun, env, depth, parts, holes)
        key_template(t.arg, env, depth, parts, holes)
        parts.append(")")
    elif cls is Implies:
        parts.append("I(")
        key_template(t.lhs, env, depth, parts, holes)
        key_template(t.rhs, env, depth, parts, holes)
        parts.append(")")
    elif cls in _BINDER_TAGS:
        parts.append(_BINDER_TAGS[cls])
        # a Pi's domain and codomain stand where a binder's annot and body do
        annot, body = (t.domain, t.codomain) if cls is Pi else (t.annot, t.body)
        key_template(annot, env, depth, parts, holes)
        x = t.bound
        outer = env.get(x, -1)
        env[x] = depth
        key_template(body, env, depth + 1, parts, holes)
        if outer < 0:
            del env[x]
        else:
            env[x] = outer
        parts.append(")")
    elif cls is Falsum:
        parts.append("F;")
    elif cls is Eq:
        parts.append("=(")
        if t.ty is not None:
            key_template(t.ty, env, depth, parts, holes)
        else:
            parts.append("?;")
        key_template(t.lhs, env, depth, parts, holes)
        key_template(t.rhs, env, depth, parts, holes)
        parts.append(")")
    elif cls is Bool:
        parts.append("o;")
    elif cls is Base:
        n = t.name
        if "{" in n or "}" in n:
            n = n.replace("{", "{{").replace("}", "}}")
        parts.append(f"B{n}(")
        for a in t.args:
            key_template(a, env, depth, parts, holes)
        parts.append(")")
    else:
        raise TypeError(f"not a term or type: {t!r}")
    if top:
        text = "".join(parts)
        if not holes and ("{" in text or "}" in text):
            text = text.format()
        memo = (text, tuple(holes), "E(" in parts)
        t._key = memo
        return memo


_BINDER_TAGS = {Lambda: "L(", Forall: "A(", Choice: "E(", Pi: "P("}


# ---------------------------------------------------------------------------
# Structural helpers


def strip_eq_types(t: Term | Type) -> Term | Type:
    """Drop the type annotations of equality nodes (the parser's view; the
    kernel restores them during elaboration)."""
    match t:
        case Var() | Falsum() | Bool():
            return t
        case Lambda() | Forall() | Choice():
            return type(t)(t.bound, strip_eq_types(t.annot), strip_eq_types(t.body))
        case App(fun=f, arg=a):
            return App(strip_eq_types(f), strip_eq_types(a))
        case Implies(lhs=l, rhs=r):
            return Implies(strip_eq_types(l), strip_eq_types(r))
        case Eq(lhs=l, rhs=r):
            return Eq(None, strip_eq_types(l), strip_eq_types(r))
        case Base(name=n, args=args):
            return Base(n, tuple(strip_eq_types(a) for a in args))
        case Pi(bound=x, domain=d, codomain=c):
            return Pi(x, strip_eq_types(d), strip_eq_types(c))
        case _:
            raise TypeError(f"not a term or type: {t!r}")


def is_simple_type(A: Type) -> bool:
    """Bool, an unapplied base type, or a Pi over simple types whose bound
    variable does not occur in the codomain."""
    match A:
        case Bool():
            return True
        case Base(args=args):
            return not args
        case Pi(bound=x, domain=d, codomain=c):
            return is_simple_type(d) and is_simple_type(c) and x not in free_vars(c)
        case _:
            return False


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split nested applications into head and argument list."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def subterms(t: Term | Type) -> Iterator[Term]:
    """All subterms, pre-order, including terms embedded in type annotations.
    A type yields only the terms embedded in it, never itself."""
    if isinstance(t, Term):
        yield t
    match t:
        case Lambda() | Forall() | Choice():
            yield from subterms(t.annot)
            yield from subterms(t.body)
        case App():
            yield from subterms(t.fun)
            yield from subterms(t.arg)
        case Implies():
            yield from subterms(t.lhs)
            yield from subterms(t.rhs)
        case Eq():
            if t.ty is not None:
                yield from subterms(t.ty)
            yield from subterms(t.lhs)
            yield from subterms(t.rhs)
        case Base(args=args):
            for a in args:
                yield from subterms(a)
        case Pi(domain=d, codomain=c):
            yield from subterms(d)
            yield from subterms(c)
        case _:
            pass


# ---------------------------------------------------------------------------
# Printing (surface syntax; inverse of dholc.parser)

# application binds tighter than any operator
_APP = 1 + max(prec for prec, _ in OPERATORS.values())


def print_term(t: Term) -> str:
    return _pt(t, 0)


def _wrap(s: str, prec: int, at: int) -> str:
    return f"({s})" if prec < at else s


def _infix(l: Term, op: str, r: Term, at: int) -> str:
    prec, fixity = OPERATORS[op]
    rhs = _pt(r, prec if fixity == "right" else prec + 1)
    return _wrap(f"{_pt(l, prec + 1)} {op} {rhs}", prec, at)


def _as_numeral(t: Term) -> Optional[int]:
    n = 0
    while True:
        match t:
            case Var(name="0"):
                return n
            case App(fun=Var(name="s"), arg=a):
                n += 1
                t = a
            case _:
                return None


def _pt(t: Term, at: int) -> str:
    num = _as_numeral(t)
    if num is not None:
        return str(num)
    match t:
        case Var(name=n):
            return n
        case Falsum():
            return "$false"
        case Implies(lhs=Falsum(), rhs=Falsum()):
            return "$true"
        case Implies(lhs=Forall(bound=x, annot=a, body=Implies(lhs=b, rhs=Falsum())), rhs=Falsum()):
            return _wrap(f"? {x} : {print_type(a)} . {_pt(b, 0)}", 0, at)
        case Implies(lhs=Implies(lhs=a, rhs=Implies(lhs=b, rhs=Falsum())), rhs=Falsum()):
            return _infix(a, "&", b, at)
        case Implies(lhs=Eq(ty=_, lhs=l, rhs=r), rhs=Falsum()):
            return _infix(l, "!=", r, at)
        case Implies(lhs=a, rhs=Falsum()):
            prec = OPERATORS["~"][0]
            return _wrap(f"~ {_pt(a, prec)}", prec, at)
        case Implies(lhs=Implies(lhs=a, rhs=Falsum()), rhs=b):
            return _infix(a, "|", b, at)
        case Implies(lhs=a, rhs=b):
            return _infix(a, "=>", b, at)
        case Eq(lhs=l, rhs=r):
            return _infix(l, "=", r, at)
        case App():
            head, args = spine(t)
            parts = [_pt(head, _APP + 1)] + [_pt(a, _APP + 1) for a in args]
            return _wrap(" ".join(parts), _APP, at)
        case Lambda() | Forall() | Choice():
            binder = {Lambda: "^", Forall: "!", Choice: "eps"}[type(t)]
            return _wrap(f"{binder} {t.bound} : {print_type(t.annot)} . {_pt(t.body, 0)}", 0, at)
        case _:
            raise TypeError(f"not a term: {t!r}")


def print_type(A: Type) -> str:
    match A:
        case Bool():
            return "$o"
        case Base(name=n, args=args):
            if not args:
                return n
            return " ".join([n] + [_pt(a, _APP + 1) for a in args])
        case Pi(bound=x, domain=d, codomain=c):
            dom = print_type(d)
            if isinstance(d, Pi):
                dom = f"({dom})"
            if x not in free_vars(c):
                return f"{dom} > {print_type(c)}"
            return f"pi {x} : {print_type(d)} . {print_type(c)}"
        case _:
            raise TypeError(f"not a type: {A!r}")


def print_declaration(d: Declaration) -> str:
    match d:
        case BaseTypeDecl(name=n, telescope=tele):
            parts = "".join(f"pi {x} : {print_type(a)} . " for x, a in tele)
            return f"type {n} : {parts}tp"
        case ConstDecl(name=n, ty=ty):
            return f"const {n} : {print_type(ty)}"
        case AxiomDecl(label=l, term=t):
            return f"axiom {l} : {print_term(t)}"
        case _:
            raise TypeError(f"not a declaration: {d!r}")


def print_theory(thy: Theory, conjecture: Optional[Term] = None) -> str:
    lines = [print_declaration(d) for d in thy]
    if conjecture is not None:
        lines.append(f"conjecture : {print_term(conjecture)}")
    return "\n".join(lines) + "\n"
