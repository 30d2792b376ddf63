"""Translation from DHOL to simply-typed HOL.

Types lose their term arguments and dependencies; the lost information is
recovered by a partial equivalence relation per base type (``a`` gets a
companion constant ``a*`` plus a collapsing axiom) and by relational lifts for
function types.  Equality erases to the PER of its type; universal quantifiers
acquire a reflexivity guard on the bound variable.

Two variants exist and differ only at choice binders: the strong variant
guards the choice body with the PER directly, the weak variant builds a
choice-encoded conditional that falls back to an arbitrary PER-reflexive
element when no witness exists.  Inside PER applications the variants differ
only in which variant erases the type arguments.

Connective sugar inside the output is fully expanded to the falsum/implication
core; printers may re-sugar.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

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
    Falsum,
    Forall,
    Implies,
    Lambda,
    Pi,
    Term,
    Theory,
    Type,
    Var,
    apply,
    conj,
    disj,
    exists,
    free_vars,
    fresh_name,
    neg,
    subst,
)


class ErasureVariant(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"


class ErasureError(Exception):
    pass


def per_name(base_name: str) -> str:
    return base_name + "*"


def erase_type(A: Type) -> Type:
    """Forget dependencies: applied base types lose their arguments, dependent
    products become plain arrows.  Identical for both variants."""
    match A:
        case Bool():
            return BOOL
        case Base(name=n):
            return Base(n)
        case Pi(bound=x, domain=d, codomain=c):
            return Pi(x, erase_type(d), erase_type(c))
        case _:
            raise ErasureError(f"not a type: {A!r}")


def per_apply(A: Type, variant: ErasureVariant, u: Term, v: Term) -> Term:
    """The PER of A applied to u and v, already beta-reduced."""
    match A:
        case Bool():
            return Eq(BOOL, u, v)
        case Base(name=n, args=args):
            erased_args = [erase_term(t, variant) for t in args]
            return apply(Var(per_name(n)), *erased_args, u, v)
        case Pi(bound=x, domain=d, codomain=c):
            # ∀x,y over the erased domain; the codomain PER sees the first one.
            base = "x" if x == "_" else x
            avoid = set(free_vars(u)) | set(free_vars(v)) | set(free_vars(d))
            avoid |= set(free_vars(c)) - {x}
            x1 = fresh_name(base, avoid)
            c1 = subst(c, x, Var(x1)) if x1 != x else c
            y = fresh_name(f"{base}_2", avoid | {x1} | set(free_vars(c1)))
            ed = erase_type(d)
            inner = Implies(
                per_apply(d, variant, Var(x1), Var(y)),
                per_apply(c1, variant, App(u, Var(x1)), App(v, Var(y))),
            )
            return Forall(x1, ed, Forall(y, ed, inner))
        case _:
            raise ErasureError(f"not a type: {A!r}")


def per(A: Type, variant: ErasureVariant = ErasureVariant.STRONG) -> Term:
    """The PER of A as a binary predicate (a lambda of type Ā → Ā → o)."""
    eA = erase_type(A)
    fv = set(free_vars(A))
    u = fresh_name("u", fv)
    v = fresh_name("v", fv | {u})
    return Lambda(u, eA, Lambda(v, eA, per_apply(A, variant, Var(u), Var(v))))


def _rename_binder(x: str, annot: Type, body: Term) -> tuple[str, Term]:
    """Ensure the bound name does not shadow a free variable of the annotation
    (the guard and PER arguments would capture it otherwise)."""
    if x not in free_vars(annot):
        return x, body
    avoid = set(free_vars(annot)) | (set(free_vars(body)) - {x})
    x2 = fresh_name(x, avoid)
    return x2, subst(body, x, Var(x2))


def erase_term(t: Term, variant: ErasureVariant) -> Term:
    match t:
        case Var():
            return Var(t.name)
        case App(fun=f, arg=a):
            return App(erase_term(f, variant), erase_term(a, variant))
        case Falsum():
            return Falsum()
        case Implies(lhs=l, rhs=r):
            return Implies(erase_term(l, variant), erase_term(r, variant))
        case Eq(ty=ty, lhs=l, rhs=r):
            if ty is None:
                raise ErasureError("equality without a type annotation (term not elaborated)")
            return per_apply(ty, variant, erase_term(l, variant), erase_term(r, variant))
        case Lambda(bound=x, annot=a, body=b):
            return Lambda(x, erase_type(a), erase_term(b, variant))
        case Forall(bound=x, annot=a, body=b):
            x, b = _rename_binder(x, a, b)
            guard = per_apply(a, variant, Var(x), Var(x))
            return Forall(x, erase_type(a), Implies(guard, erase_term(b, variant)))
        case Choice(bound=x, annot=a, body=b):
            x, b = _rename_binder(x, a, b)
            eA = erase_type(a)
            guard = per_apply(a, variant, Var(x), Var(x))
            guarded_body = conj(guard, erase_term(b, variant))
            if variant is ErasureVariant.STRONG:
                return Choice(x, eA, guarded_body)
            # Weak: a choice-encoded conditional.  With a witness it behaves
            # like the strong erasure, without one it still picks something
            # PER-reflexive.  The inner equalities are primitive equalities at
            # the erased simple type, not PER applications.
            witness = exists(x, eA, guarded_body)
            with_witness = Choice(x, eA, guarded_body)
            without_witness = Choice(x, eA, guard)
            z = fresh_name(
                f"{x}_z",
                set(free_vars(witness)) | set(free_vars(with_witness)) | {x},
            )
            return Choice(
                z,
                eA,
                disj(
                    conj(witness, Eq(eA, Var(z), with_witness)),
                    conj(neg(witness), Eq(eA, Var(z), without_witness)),
                ),
            )
        case _:
            raise ErasureError(f"not a term: {t!r}")


@dataclass(frozen=True)
class ErasedTheory:
    hol_theory: Theory
    hol_context: Context


def _arrow_chain(doms: list[Type], cod: Type) -> Type:
    for d in reversed(doms):
        cod = Pi("_", d, cod)
    return cod


def _erase_declaration(d, variant: ErasureVariant, out: list) -> None:
    match d:
        case BaseTypeDecl(name=a, telescope=tele):
            star = per_name(a)
            carrier = Base(a)
            erased_doms = [erase_type(ty) for _, ty in tele]
            out.append(BaseTypeDecl(a))
            out.append(ConstDecl(star, _arrow_chain(erased_doms + [carrier, carrier], BOOL)))
            # Collapsing axiom: the PER implies plain equality on the carrier.
            tele_names = [x for x, _ in tele]
            u = fresh_name("u", set(tele_names))
            v = fresh_name("v", set(tele_names) | {u})
            body = Implies(
                apply(Var(star), *[Var(x) for x in tele_names], Var(u), Var(v)),
                Eq(carrier, Var(u), Var(v)),
            )
            axiom = Forall(u, carrier, Forall(v, carrier, body))
            for x, ed in zip(reversed(tele_names), reversed(erased_doms)):
                axiom = Forall(x, ed, axiom)
            label = f"{a}_star_collapse"
            out.append(AxiomDecl(label, axiom))
        case ConstDecl(name=c, ty=ty):
            out.append(ConstDecl(c, erase_type(ty)))
            label = f"{c}_typed"
            out.append(AxiomDecl(label, per_apply(ty, variant, Var(c), Var(c))))
        case AxiomDecl(label=lbl, term=t):
            out.append(AxiomDecl(lbl, erase_term(t, variant)))
        case _:
            raise ErasureError(f"not a declaration: {d!r}")


def erase_theory(thy: Theory, ctx: Context, variant: ErasureVariant) -> ErasedTheory:
    """Declaration-wise translation: base types get a carrier, a PER constant
    and the collapsing axiom; typed constants get an erased type plus a
    PER-reflexivity axiom; axioms and assumptions are erased."""
    thy_out: list = []
    for d in thy:
        _erase_declaration(d, variant, thy_out)
    ctx_out: list = []
    for d in ctx:
        _erase_declaration(d, variant, ctx_out)
    return ErasedTheory(Theory(tuple(thy_out)), Context(tuple(ctx_out)))


def beta_normalize(t: Term | Type) -> Term | Type:
    """Full beta-normalization (terminates on well-typed terms); also
    normalizes terms embedded in types and type annotations.  A node with
    nothing to reduce under it is returned itself, not rebuilt."""
    match t:
        case Var() | Falsum():
            return t
        case App(fun=f, arg=a):
            f2 = beta_normalize(f)
            a2 = beta_normalize(a)
            if isinstance(f2, Lambda):
                return beta_normalize(subst(f2.body, f2.bound, a2))
            if f2 is f and a2 is a:
                return t
            return App(f2, a2, pos=t.pos)
        case Implies(lhs=l, rhs=r):
            l2, r2 = beta_normalize(l), beta_normalize(r)
            if l2 is l and r2 is r:
                return t
            return Implies(l2, r2, pos=t.pos)
        case Eq(ty=ty, lhs=l, rhs=r):
            ty2 = beta_normalize(ty) if ty is not None else None
            l2, r2 = beta_normalize(l), beta_normalize(r)
            if ty2 is ty and l2 is l and r2 is r:
                return t
            return Eq(ty2, l2, r2, pos=t.pos)
        case Lambda() | Forall() | Choice():
            a2, b2 = beta_normalize(t.annot), beta_normalize(t.body)
            if a2 is t.annot and b2 is t.body:
                return t
            return type(t)(t.bound, a2, b2, pos=t.pos)
        # types last, so that term nodes pay no extra pattern test
        case Bool():
            return t
        case Base(name=n, args=args):
            args2 = [beta_normalize(a) for a in args]
            if all(map(operator.is_, args2, args)):
                return t
            return Base(n, tuple(args2), pos=t.pos)
        case Pi(bound=x, domain=d, codomain=c):
            d2, c2 = beta_normalize(d), beta_normalize(c)
            if d2 is d and c2 is c:
                return t
            return Pi(x, d2, c2, pos=t.pos)
        case _:
            raise ErasureError(f"not a term or type: {t!r}")
