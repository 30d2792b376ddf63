"""The DHOL type checker.

Bidirectional: types are inferred for variables and applications and checked
against annotations at binders.  Every undecidable step is reified as a HOL
obligation carrying an already-erased theory, context and conjecture:

* conversion between applied base types emits one equation per argument pair
  (alpha-equal pairs are decided locally and never materialize);
* a choice binder emits its mode premise — under the strong rule the witness
  statement, under the weak rule inhabitation of the annotation;
* the conjecture of a theory emits one final provability obligation.

The mode picks the erasure (eps1 strong, eps2 weak).  Each declaration is
erased once, when it is accepted; an obligation's theory is the erased prefix
accepted so far, and only its local binder context and its conjecture are
erased when it is emitted.

Binders and telescope entries keep their source names, so context entries
may shadow constants and each other; ``emit``, which flattens theory and
context into one signature, renames every such clash apart.  ``bind``
renames a binder only where it would capture a free name of a type in use.

Structural failures (unknown names, arity mismatches, head-type mismatches,
non-boolean axiom bodies) are errors, not obligations.  In simple-HOL mode no
obligation may arise at all: dependent base types and genuinely dependent
products are rejected and type equality is syntactic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .erasure import ErasureVariant, erase_term, erase_theory
from .syntax import (
    App,
    AxiomDecl,
    Base,
    BaseTypeDecl,
    BOOL,
    Bool,
    Choice,
    ConstDecl,
    Context,
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
    alpha_eq,
    alpha_key,
    exists,
    free_vars,
    fresh_name,
    is_simple_type,
    neg,
    subst,
    subst_many,
)


class Mode(enum.Enum):
    STRONG_EPSILON = "eps1"
    WEAK_EPSILON = "eps2"
    SIMPLE_HOL = "hol"

    @property
    def variant(self) -> Optional[ErasureVariant]:
        if self is Mode.STRONG_EPSILON:
            return ErasureVariant.STRONG
        if self is Mode.WEAK_EPSILON:
            return ErasureVariant.WEAK
        return None


class ObligationKind(enum.Enum):
    TYPE_EQ = "TypeEq"
    CHOICE_WITNESS = "ChoiceWitness"
    TYPE_INHABITED = "TypeInhabited"
    CONJECTURE = "Conjecture"


class KernelError(Exception):
    def __init__(self, msg: str, pos: Optional[Pos] = None):
        self.msg = msg
        self.pos = pos
        super().__init__(f"{pos}: {msg}" if pos else msg)


class _UsesRejected(KernelError):
    """A name that only a rejected declaration declared: that declaration's
    own diagnostic already gives the cause, so this one is not reported."""


@dataclass(frozen=True)
class Origin:
    rule: str
    subject: str
    pos: Optional[Pos] = None


@dataclass(frozen=True)
class Obligation:
    id: str
    kind: ObligationKind
    hol_theory: Theory
    hol_context: Context
    conjecture: Term
    origin: Origin


@dataclass(frozen=True)
class Diagnostic:
    message: str
    subject: str
    pos: Optional[Pos] = None

    def __str__(self) -> str:
        loc = f"{self.pos}: " if self.pos else ""
        return f"{loc}{self.message} (in {self.subject})"


@dataclass
class CheckReport:
    mode: Mode
    decl_status: list[tuple[str, str]] = field(default_factory=list)
    conjecture_type: Optional[Type] = None
    obligations: list[Obligation] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    theory_elaborated: Theory = Theory()
    conjecture_elaborated: Optional[Term] = None
    hol_theory: Theory = Theory()  # theory_elaborated erased, each declaration once

    @property
    def ok(self) -> bool:
        """Structurally well-formed; open obligations are a separate matter."""
        return not self.diagnostics

    @property
    def typing_obligations(self) -> list[Obligation]:
        return [o for o in self.obligations if o.kind is not ObligationKind.CONJECTURE]

    @property
    def conjecture_obligation(self) -> Optional[Obligation]:
        for o in self.obligations:
            if o.kind is ObligationKind.CONJECTURE:
                return o
        return None


class _Checker:
    def __init__(self, mode: Mode, subject: str = "?"):
        self.mode = mode
        self.prefix: list = []  # declarations validated so far
        self.erased: list = []  # their HOL translation, each erased once
        self.names: dict[str, ConstDecl | BaseTypeDecl] = {}  # the prefix's signature
        self.rejected: set[str] = set()  # names whose declaration was rejected
        self.obligations: list[Obligation] = []
        self._seen: set = set()
        self.subject = subject

    # -- obligation plumbing

    def emit(self, kind: ObligationKind, ctx: tuple, dhol_conjecture: Term, rule: str, pos) -> None:
        # One signature holds the theory and ctx: a ctx entry that redeclares a
        # name is renamed apart, in later entries and the conjecture too.
        sigma: dict[str, Term] = {}
        avoid: set[str] = set()  # every name, from the first clash on
        taken: set[str] = set()
        flat, keys = [], []  # the entries renamed apart, and their dedup keys
        for d in ctx:
            if type(d) is AxiomDecl:
                d = AxiomDecl(d.label, subst_many(d.term, sigma), pos=d.pos)
                keys.append(alpha_key(d.term))
            else:
                x, ty = d.name, subst_many(d.ty, sigma)
                if x in self.names or x in taken:
                    if not avoid:
                        avoid = self.names.keys() | {e.name for e in ctx if type(e) is ConstDecl}
                    x = fresh_name(x, avoid)
                    avoid.add(x)
                    sigma[d.name] = Var(x)
                taken.add(x)
                d = ConstDecl(x, ty, pos=d.pos)
                keys.append((x, alpha_key(ty)))
            flat.append(d)
        dhol_conjecture = subst_many(dhol_conjecture, sigma)
        variant = self.mode.variant
        if variant is None:
            # Simple-HOL input is its own obligation language; no translation.
            if kind is not ObligationKind.CONJECTURE:
                raise KernelError("internal: typing obligation in simple-HOL mode", pos)
            conjecture = dhol_conjecture
        else:
            conjecture = erase_term(dhol_conjecture, variant)
        key = (kind, len(self.prefix), tuple(keys), alpha_key(conjecture))
        if key in self._seen:
            return
        self._seen.add(key)
        if variant is None:
            hol_context = Context(tuple(flat))
        else:
            # The theory prefix is already erased; only the local binders are new.
            hol_context = erase_theory(Theory(), Context(tuple(flat)), variant).hol_context
        ob = Obligation(
            id=f"ob{len(self.obligations) + 1:03d}",
            kind=kind,
            hol_theory=Theory(tuple(self.erased)),
            hol_context=hol_context,
            conjecture=conjecture,
            origin=Origin(rule=rule, subject=self.subject, pos=pos),
        )
        self.obligations.append(ob)

    # -- lookups

    def unknown(self, msg: str, name: str, pos) -> KernelError:
        if name in self.rejected:
            return _UsesRejected(msg, pos)
        return KernelError(msg, pos)

    def lookup_base(self, name: str) -> Optional[BaseTypeDecl]:
        d = self.names.get(name)
        return d if isinstance(d, BaseTypeDecl) else None

    def lookup_var(self, ctx: tuple, name: str) -> Optional[Type]:
        for d in reversed(ctx):
            if isinstance(d, ConstDecl) and d.name == name:
                return d.ty
        d = self.names.get(name)
        return d.ty if isinstance(d, ConstDecl) else None

    def bind(self, ctx: tuple, x: str, A: Type, *scope) -> str:
        """The name of a new entry x : A over ``scope``: x, unless x is free in
        a type in use under it (A, an entry's or a declaration's), which x
        would capture; then a name that no visible or scope name uses."""
        if x not in free_vars(A):
            for d in reversed(ctx):
                if type(d) is ConstDecl:
                    if x in free_vars(d.ty):
                        break
                    if d.name == x:
                        return x  # no type before d mentions x: d would capture it
            else:
                if x not in self.names or not any(
                    x in free_vars(ty)
                    for d in self.names.values()
                    for ty in ((d.ty,) if type(d) is ConstDecl else (ty for _, ty in d.telescope))
                ):
                    return x
        local = {d.name for d in ctx if type(d) is ConstDecl}
        return fresh_name(x, self.names.keys() | local.union(*map(free_vars, scope)))

    # -- well-formedness of types

    def wf_type(self, ctx: tuple, A: Type) -> Type:
        cls = type(A)
        if cls is Base:
            a, args, pos = A.name, A.args, A.pos
            decl = self.lookup_base(a)
            if decl is None:
                raise self.unknown(f"unknown base type {a!r}", a, pos)
            if len(args) != decl.arity:
                raise KernelError(
                    f"base type {a!r} expects {decl.arity} argument(s), got {len(args)}", pos
                )
            if self.mode is Mode.SIMPLE_HOL and args:
                raise KernelError(f"dependent base type {a!r} in simple-HOL mode", pos)
            sigma: dict[str, Term] = {}
            elaborated = []
            for (x, ty), t in zip(decl.telescope, args):
                expected = subst_many(ty, sigma)
                t2 = self.check(ctx, t, expected)
                sigma[x] = t2
                elaborated.append(t2)
            return Base(a, tuple(elaborated), pos=pos)
        if cls is Pi:
            d2 = self.wf_type(ctx, A.domain)
            x = self.bind(ctx, A.bound, d2, A.codomain)
            c2 = self.wf_type(ctx + (ConstDecl(x, d2),), subst(A.codomain, A.bound, Var(x)))
            if self.mode is Mode.SIMPLE_HOL and x in free_vars(c2):
                raise KernelError("dependent product in simple-HOL mode", A.pos)
            return Pi(x, d2, c2, pos=A.pos)
        if cls is Bool:
            return BOOL
        raise KernelError(f"not a type: {A!r}")

    # -- type equality up to provable equations

    def type_equal(self, ctx: tuple, A: Type, B: Type, pos=None) -> None:
        if alpha_eq(A, B):
            return
        cls = type(A)
        if cls is Base and type(B) is Base:
            a, args1, args2 = A.name, A.args, B.args
            if a != B.name:
                raise KernelError(f"type mismatch: {a!r} vs {B.name!r}", pos)
            if len(args1) != len(args2):
                raise KernelError(f"arity mismatch on base type {a!r}", pos)
            decl = self.lookup_base(a)
            if decl is None:
                raise self.unknown(f"unknown base type {a!r}", a, pos)
            sigma: dict[str, Term] = {}
            for (x, ty), t1, t2 in zip(decl.telescope, args1, args2):
                expected = subst_many(ty, sigma)
                if not alpha_eq(t1, t2):
                    self.emit(
                        ObligationKind.TYPE_EQ,
                        ctx,
                        Eq(expected, t1, t2),
                        rule="type-eq",
                        pos=pos,
                    )
                sigma[x] = t1
        elif cls is Pi and type(B) is Pi:
            x1, d1, c1 = A.bound, A.domain, A.codomain
            x2, d2, c2 = B.bound, B.domain, B.codomain
            self.type_equal(ctx, d1, d2, pos)
            z = fresh_name(x1, set(free_vars(c1)) | set(free_vars(c2)) | {x1, x2})
            z = self.bind(ctx, z, d1, c1, c2)
            c1r = subst(c1, x1, Var(z))
            c2r = subst(c2, x2, Var(z))
            self.type_equal(ctx + (ConstDecl(z, d1),), c1r, c2r, pos)
        elif not (cls is Bool and type(B) is Bool):
            raise KernelError(f"type mismatch: {_type_head(A)} vs {_type_head(B)}", pos)

    # -- terms

    def infer(self, ctx: tuple, t: Term) -> tuple[Type, Term]:
        cls = type(t)
        if cls is Var:
            n = t.name
            ty = self.lookup_var(ctx, n)
            if ty is None:
                raise self.unknown(f"unbound name {n!r}", n, t.pos)
            return ty, t
        if cls is App:
            pos = t.pos
            fty, f2 = self.infer(ctx, t.fun)
            if type(fty) is not Pi:
                raise KernelError("application of a non-function", pos)
            u2 = self.check(ctx, t.arg, fty.domain)
            return subst(fty.codomain, fty.bound, u2), App(f2, u2, pos=pos)
        if cls is Implies:
            l2 = self.check_bool(ctx, t.lhs)
            r2 = self.check_bool(ctx, t.rhs)
            return BOOL, Implies(l2, r2, pos=t.pos)
        if cls is Lambda or cls is Forall or cls is Choice:
            pos, a2 = t.pos, self.wf_type(ctx, t.annot)
            x = self.bind(ctx, t.bound, a2, t.body)
            inner, b = ctx + (ConstDecl(x, a2),), subst(t.body, t.bound, Var(x))
            if cls is Lambda:
                bty, b2 = self.infer(inner, b)
                return Pi(x, a2, bty), Lambda(x, a2, b2, pos=pos)
            b2 = self.check_bool(inner, b)
            if cls is Forall:
                return BOOL, Forall(x, a2, b2, pos=pos)
            if self.mode is Mode.SIMPLE_HOL:
                if not is_simple_type(a2):
                    raise KernelError("choice over a dependent type in simple-HOL mode", pos)
            elif self.mode is Mode.STRONG_EPSILON:
                witness = exists(x, a2, b2)
                self.emit(ObligationKind.CHOICE_WITNESS, ctx, witness, "eps1-witness", pos)
            else:
                inhabited = neg(Forall(x, a2, FALSE))
                self.emit(ObligationKind.TYPE_INHABITED, ctx, inhabited, "eps2-inhabited", pos)
            return a2, Choice(x, a2, b2, pos=pos)
        if cls is Falsum:
            return BOOL, t
        if cls is Eq:
            ty, l, r, pos = t.ty, t.lhs, t.rhs, t.pos
            if ty is None:
                lty, l2 = self.infer(ctx, l)
                r2 = self.check(ctx, r, lty)
                return BOOL, Eq(lty, l2, r2, pos=pos)
            ty2 = self.wf_type(ctx, ty)
            l2 = self.check(ctx, l, ty2)
            r2 = self.check(ctx, r, ty2)
            return BOOL, Eq(ty2, l2, r2, pos=pos)
        raise KernelError(f"not a term: {t!r}")

    def check(self, ctx: tuple, t: Term, expected: Type) -> Term:
        ty, t2 = self.infer(ctx, t)
        self.type_equal(ctx, ty, expected, getattr(t, "pos", None))
        return t2

    def check_bool(self, ctx: tuple, t: Term) -> Term:
        ty, t2 = self.infer(ctx, t)
        if not isinstance(ty, Bool):
            raise KernelError("boolean expected", getattr(t, "pos", None))
        return t2

    # -- declarations

    def add_declaration(self, d) -> None:
        match d:
            case BaseTypeDecl(name=a, telescope=tele, pos=pos):
                if a in self.names:
                    raise KernelError(f"redeclaration of {a!r}", pos)
                if self.mode is Mode.SIMPLE_HOL and tele:
                    raise KernelError(f"dependent base type {a!r} in simple-HOL mode", pos)
                # a telescope is checked as the product it abbreviates
                chain = BOOL
                for x, ty in reversed(tele):
                    chain = Pi(x, ty, chain)
                chain = self.wf_type((), chain)
                elaborated = []
                while type(chain) is Pi:
                    elaborated.append((chain.bound, chain.domain))
                    chain = chain.codomain
                d2 = BaseTypeDecl(a, tuple(elaborated), pos=pos)
                self.names[a] = d2
            case ConstDecl(name=c, ty=ty, pos=pos):
                if c in self.names:
                    raise KernelError(f"redeclaration of {c!r}", pos)
                d2 = ConstDecl(c, self.wf_type((), ty), pos=pos)
                self.names[c] = d2
            case AxiomDecl(label=lbl, term=t, pos=pos):
                d2 = AxiomDecl(lbl, self.check_bool((), t), pos=pos)
            case _:
                raise KernelError(f"not a declaration: {d!r}")
        self.prefix.append(d2)
        variant = self.mode.variant
        if variant is None:
            self.erased.append(d2)
        else:
            self.erased.extend(erase_theory(Theory((d2,)), Context(), variant).hol_theory)


def _type_head(A: Type) -> str:
    match A:
        case Bool():
            return "$o"
        case Base(name=n):
            return n
        case Pi():
            return "a function type"
    return repr(A)


# ---------------------------------------------------------------------------
# Public operations


def _checker_in(thy: Theory, ctx: Context, mode: Mode) -> tuple[_Checker, tuple]:
    """A checker that has accepted ``thy``, and ``ctx`` elaborated under it.
    A context entry that would capture a free name of a type in use under
    it (its own, an earlier entry's or a declaration's) is a KernelError."""
    ck = _Checker(mode)
    for d in thy:
        ck.add_declaration(d)
    cctx: tuple = ()
    for d in ctx:
        match d:
            case ConstDecl(name=x, ty=ty, pos=pos):
                ty2 = ck.wf_type(cctx, ty)
                # the caller's terms name the entry, so it cannot be renamed
                if ck.bind(cctx, x, ty2) != x:
                    msg = f"context entry {x!r} would capture the free {x!r} of a type in scope"
                    raise KernelError(msg, pos)
                cctx = cctx + (ConstDecl(x, ty2, pos=pos),)
            case AxiomDecl(label=lbl, term=a, pos=pos):
                cctx = cctx + (AxiomDecl(lbl, ck.check_bool(cctx, a), pos=pos),)
    return ck, cctx


def infer_type(
    thy: Theory, ctx: Context, t: Term, mode: Mode
) -> tuple[Type, list[Obligation]]:
    """Principal type of ``t`` plus the obligations justifying it.  The theory
    and context are validated incrementally on the way."""
    ty, obligations, _ = infer_type_elaborated(thy, ctx, t, mode)
    return ty, obligations


def infer_type_elaborated(
    thy: Theory, ctx: Context, t: Term, mode: Mode
) -> tuple[Type, list[Obligation], Term]:
    """Like infer_type but also returns the elaborated term (equality nodes
    annotated with their types), as required by the erasure."""
    ck, cctx = _checker_in(thy, ctx, mode)
    ty, t2 = ck.infer(cctx, t)
    return ty, ck.obligations, t2


def type_equal(thy: Theory, ctx: Context, A: Type, B: Type, mode: Mode) -> list[Obligation]:
    """Obligations whose provability establishes A ≡ B; empty when the types
    are alpha-equal; structural mismatch raises KernelError."""
    ck, cctx = _checker_in(thy, ctx, mode)
    A2 = ck.wf_type(cctx, A)
    B2 = ck.wf_type(cctx, B)
    n_before = len(ck.obligations)
    ck.type_equal(cctx, A2, B2)
    return ck.obligations[n_before:]


def check_theory(thy: Theory, conjecture: Optional[Term], mode: Mode) -> CheckReport:
    """Validate a theory declaration by declaration, then the conjecture.

    Axiom and conjecture bodies must have type o.  All obligations are
    accumulated in deterministic order; the conjecture's provability becomes
    one final obligation of kind CONJECTURE.  A declaration that fails
    structurally is reported and skipped; checking continues.  Its name
    stays marked as rejected: a later use of it fails the declaration or
    conjecture that uses it without a diagnostic of its own, so one missing
    declaration is reported once, at its cause.
    """
    report = CheckReport(mode=mode)
    ck = _Checker(mode)
    for d in thy:
        name = d.label if isinstance(d, AxiomDecl) else d.name
        ck.subject = name
        try:
            ck.add_declaration(d)
            report.decl_status.append((name, "ok"))
        except KernelError as e:
            report.decl_status.append((name, "error"))
            if not isinstance(d, AxiomDecl) and name not in ck.names:
                ck.rejected.add(name)
            if not isinstance(e, _UsesRejected):
                report.diagnostics.append(Diagnostic(e.msg, name, e.pos))
    if conjecture is not None:
        ck.subject = "conjecture"
        try:
            c2 = ck.check_bool((), conjecture)
            report.conjecture_type = BOOL
            report.conjecture_elaborated = c2
            ck.emit(
                ObligationKind.CONJECTURE,
                (),
                c2,
                rule="conjecture",
                pos=getattr(conjecture, "pos", None),
            )
        except KernelError as e:
            if not isinstance(e, _UsesRejected):
                report.diagnostics.append(Diagnostic(e.msg, "conjecture", e.pos))
    report.theory_elaborated = Theory(tuple(ck.prefix))
    report.hol_theory = Theory(tuple(ck.erased))
    report.obligations = ck.obligations
    return report
