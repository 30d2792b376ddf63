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
        variant = self.mode.variant
        if variant is None:
            # Simple-HOL input is its own obligation language; no translation.
            if kind is not ObligationKind.CONJECTURE:
                raise KernelError("internal: typing obligation in simple-HOL mode", pos)
            conjecture = dhol_conjecture
        else:
            conjecture = erase_term(dhol_conjecture, variant)
        key = (
            kind,
            len(self.prefix),
            tuple(_decl_key(d) for d in ctx),
            alpha_key(conjecture),
        )
        if key in self._seen:
            return
        self._seen.add(key)
        if variant is None:
            hol_context = Context(ctx)
        else:
            # The theory prefix is already erased; only the local binders are new.
            hol_context = erase_theory(Theory(), Context(ctx), variant).hol_context
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

    def fresh_binder(self, ctx: tuple, x: str, body: Term) -> tuple[str, Term]:
        """Rename a binder that shadows a visible name.  Obligations flatten
        the context and theory into one signature (for the oracle and THF),
        so shadowing must be resolved here, deterministically."""
        local = {d.name for d in ctx if isinstance(d, ConstDecl)}
        if x not in self.names and x not in local:
            return x, body
        x2 = fresh_name(x, self.names.keys() | local | set(free_vars(body)))
        return x2, subst(body, x, Var(x2))

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
            x, pos = A.bound, A.pos
            d2 = self.wf_type(ctx, A.domain)
            c2 = self.wf_type(ctx + (ConstDecl(x, d2),), A.codomain)
            if self.mode is Mode.SIMPLE_HOL and x in free_vars(c2):
                raise KernelError("dependent product in simple-HOL mode", pos)
            return Pi(x, d2, c2, pos=pos)
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
        if cls is Lambda:
            a2 = self.wf_type(ctx, t.annot)
            x, b = self.fresh_binder(ctx, t.bound, t.body)
            bty, b2 = self.infer(ctx + (ConstDecl(x, a2),), b)
            return Pi(x, a2, bty), Lambda(x, a2, b2, pos=t.pos)
        if cls is Forall:
            a2 = self.wf_type(ctx, t.annot)
            x, b = self.fresh_binder(ctx, t.bound, t.body)
            b2 = self.check_bool(ctx + (ConstDecl(x, a2),), b)
            return BOOL, Forall(x, a2, b2, pos=t.pos)
        if cls is Choice:
            pos = t.pos
            a2 = self.wf_type(ctx, t.annot)
            x, b = self.fresh_binder(ctx, t.bound, t.body)
            b2 = self.check_bool(ctx + (ConstDecl(x, a2),), b)
            elaborated = Choice(x, a2, b2, pos=pos)
            if self.mode is Mode.SIMPLE_HOL:
                if not is_simple_type(a2):
                    raise KernelError("choice over a dependent type in simple-HOL mode", pos)
            elif self.mode is Mode.STRONG_EPSILON:
                witness = exists(x, a2, b2)
                self.emit(ObligationKind.CHOICE_WITNESS, ctx, witness, "eps1-witness", pos)
            else:
                inhabited = neg(Forall(x, a2, FALSE))
                self.emit(ObligationKind.TYPE_INHABITED, ctx, inhabited, "eps2-inhabited", pos)
            return a2, elaborated
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
                ctx: tuple = ()
                elaborated = []
                for x, ty in tele:
                    ty2 = self.wf_type(ctx, ty)
                    elaborated.append((x, ty2))
                    ctx = ctx + (ConstDecl(x, ty2),)
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


def _decl_key(d) -> tuple:
    match d:
        case BaseTypeDecl(name=a, telescope=tele):
            return ("t", a, tuple((x, alpha_key(ty)) for x, ty in tele))
        case ConstDecl(name=c, ty=ty):
            return ("c", c, alpha_key(ty))
        case AxiomDecl(label=lbl, term=t):
            return ("a", alpha_key(t))
    raise TypeError(d)


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
    """A checker that has accepted ``thy``, and ``ctx`` elaborated under it."""
    ck = _Checker(mode)
    for d in thy:
        ck.add_declaration(d)
    cctx: tuple = ()
    for d in ctx:
        match d:
            case ConstDecl(name=x, ty=ty, pos=pos):
                cctx = cctx + (ConstDecl(x, ck.wf_type(cctx, ty), pos=pos),)
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
