"""A small, deliberately incomplete but *sound* ground prover for erased HOL
obligations.

The obligation's axioms, assumptions and negated conjecture are abstracted to
propositional formulas over alpha-normalized atoms.  Three families of valid
clauses connect the atoms:

* universal atoms are instantiated with a fixed universe consisting of the
  obligation's context variables plus base-typed theory constants — never
  compound terms and never function constants, which keeps the prover weak
  enough to leave genuinely search-hard obligations open;
* every choice subterm contributes the HOL choice rule as a clause
  (if a witness exists, the chosen element is one);
* equality atoms get reflexivity (alpha-equal sides) and symmetry links.

The first two families are added in one forward pass over the atom list:
atoms that the new formulas register are appended and visited in turn, so
every atom is instantiated and scanned for choice subterms exactly once.
The clauses are Tseitin-encoded and handed to a small DPLL search.

Everything asserted is HOL_ε-valid, so an UNSAT answer is a real proof.
Classical double negations are collapsed at formula positions so that
differently sugared statements of the same fact meet in the same atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .erasure import beta_normalize
from .syntax import (
    AxiomDecl,
    Base,
    Bool,
    Choice,
    ConstDecl,
    Context,
    Eq,
    Falsum,
    Forall,
    Implies,
    Term,
    Theory,
    Type,
    Var,
    alpha_eq,
    alpha_eq_type,
    alpha_key,
    neg,
    subst,
    subterms,
)

MAX_FORMULAS = 600
MAX_ATOMS = 800
MAX_DPLL_NODES = 50_000


def dn_normalize(t: Term) -> Term:
    """Collapse ((p => false) => false) to p along the connective spine and
    under quantifiers.  Atom-internal structure is left alone."""
    match t:
        case Implies(lhs=a, rhs=b):
            a2 = dn_normalize(a)
            b2 = dn_normalize(b)
            if isinstance(b2, Falsum) and isinstance(a2, Implies) and isinstance(a2.rhs, Falsum):
                return a2.lhs
            return Implies(a2, b2)
        case Forall(bound=x, annot=a, body=b):
            return Forall(x, a, dn_normalize(b))
        case _:
            return t


PF_FALSE = ("false",)


@dataclass
class _Atoms:
    by_key: dict[str, int]
    terms: list[Term]

    def register(self, t: Term) -> int:
        key = alpha_key(t)
        if key in self.by_key:
            return self.by_key[key]
        idx = len(self.terms)
        self.by_key[key] = idx
        self.terms.append(t)
        return idx


def _abstract(t: Term, atoms: _Atoms):
    match t:
        case Falsum():
            return PF_FALSE
        case Implies(lhs=a, rhs=b):
            return ("impl", _abstract(a, atoms), _abstract(b, atoms))
        case _:
            return ("atom", atoms.register(t))


def _universe(thy: Theory, ctx: Context) -> list[tuple[str, Type]]:
    out: list[tuple[str, Type]] = []
    for d in thy:
        if isinstance(d, ConstDecl) and isinstance(d.ty, (Base, Bool)):
            out.append((d.name, d.ty))
    for d in ctx:
        if isinstance(d, ConstDecl):
            out.append((d.name, d.ty))
    return out


def prove_ground(thy: Theory, ctx: Context, conjecture: Term) -> bool:
    """True iff the negated conjecture plus axioms/assumptions is found
    propositionally unsatisfiable; a sound, incomplete HOL_ε proof."""
    assumptions = [d.term for d in thy if isinstance(d, AxiomDecl)]
    assumptions += [d.term for d in ctx if isinstance(d, AxiomDecl)]
    universe = _universe(thy, ctx)

    atoms = _Atoms({}, [])
    # The negated conjecture always goes in: the assumptions leave room for it.
    formulas = [
        _abstract(dn_normalize(beta_normalize(t)), atoms)
        for t in assumptions[: MAX_FORMULAS - 1] + [neg(conjecture)]
    ]

    # Saturate in one forward pass: instantiate each universal atom over the
    # universe and add the choice schema for each choice subterm.  Atoms that
    # these formulas register are appended to atoms.terms, and enumerate
    # reaches them in turn.  The universe never grows, so this terminates
    # quickly; caps guard the pathological cases.
    done_choice: set[str] = set()
    for idx, a_term in enumerate(atoms.terms):
        if len(formulas) >= MAX_FORMULAS or len(atoms.terms) >= MAX_ATOMS:
            break
        if isinstance(a_term, Forall):
            for name, ty in universe:
                if not alpha_eq_type(ty, a_term.annot):
                    continue
                inst = dn_normalize(beta_normalize(subst(a_term.body, a_term.bound, Var(name))))
                formulas.append(("impl", ("atom", idx), _abstract(inst, atoms)))
                if len(formulas) >= MAX_FORMULAS:
                    break
        for sub in subterms(a_term):
            if isinstance(sub, Choice):
                key = alpha_key(sub)
                if key in done_choice:
                    continue
                done_choice.add(key)
                witness = neg(Forall(sub.bound, sub.annot, neg(sub.body)))
                conclusion = subst(sub.body, sub.bound, sub)
                schema = Implies(witness, conclusion)
                formulas.append(_abstract(dn_normalize(beta_normalize(schema)), atoms))
                if len(formulas) >= MAX_FORMULAS:
                    break

    # Equality atoms: reflexivity and symmetry only (no congruence).
    eq_keys: dict[str, int] = {}
    for idx, t in enumerate(atoms.terms):
        if isinstance(t, Eq):
            eq_keys[alpha_key(t)] = idx
    for idx, t in enumerate(atoms.terms):
        if isinstance(t, Eq):
            if alpha_eq(t.lhs, t.rhs):
                formulas.append(("atom", idx))
            flipped = alpha_key(Eq(t.ty, t.rhs, t.lhs))
            other = eq_keys.get(flipped)
            if other is not None and other != idx:
                formulas.append(("impl", ("atom", idx), ("atom", other)))
    # The formulas before this pass are within the cap; so are its own.
    del formulas[MAX_FORMULAS:]

    return _unsat(formulas, len(atoms.terms))


# ---------------------------------------------------------------------------
# Tseitin + DPLL


def _unsat(formulas, natoms: int) -> bool:
    # Variables: 1..natoms are the atoms, then the constant false, then the
    # Tseitin variables; 0 is unused.
    false_var = natoms + 1
    nvars = false_var
    clauses: list[list[int]] = [[-false_var]]

    def fresh() -> int:
        nonlocal nvars
        nvars += 1
        return nvars

    def encode(pf) -> int:
        if pf == PF_FALSE:
            return false_var
        if pf[0] == "atom":
            return pf[1] + 1
        _, l, r = pf
        lv = encode(l)
        rv = encode(r)
        v = fresh()
        clauses.append([-v, -lv, rv])
        clauses.append([v, lv])
        clauses.append([v, -rv])
        return v

    for pf in formulas:
        clauses.append([encode(pf)])

    return not _dpll_sat(clauses, nvars)


def _dpll_sat(clauses: list[list[int]], nvars: int) -> bool:
    # values[v] is None while variable v is unassigned; slot 0 is a
    # placeholder that is never None.
    values: list[Optional[bool]] = [False] + [None] * nvars
    nodes = 0

    def propagate(trail: list[int]) -> bool:
        """Sweep the clauses, assigning the one open literal of each unit
        clause, until a sweep assigns nothing.  False once a clause is
        falsified."""
        changed = True
        while changed:
            changed = False
            for cl in clauses:
                unassigned = 0
                count = 0
                for lit in cl:
                    val = values[abs(lit)]
                    if val is None:
                        unassigned = lit
                        count += 1
                    elif val == (lit > 0):
                        break
                else:
                    if count == 0:
                        return False
                    if count == 1:
                        values[abs(unassigned)] = unassigned > 0
                        trail.append(abs(unassigned))
                        changed = True
        return True

    # The search branches on the first unassigned variable, True before
    # False.  Each frame of the explicit stack is one open branch:
    # [variable, the variables its node's propagation assigned, whether the
    # False branch has been entered].
    stack: list[list] = []
    while True:
        nodes += 1
        if nodes > MAX_DPLL_NODES:
            # give up: treat as satisfiable, i.e. "not proved" (sound side)
            return True
        trail: list[int] = []
        if propagate(trail):
            if None not in values:
                return True
            var = values.index(None)
            values[var] = True
            stack.append([var, trail, False])
            continue
        for v in trail:
            values[v] = None
        # Backtrack to the deepest branch whose False side is still untried.
        while stack:
            frame = stack[-1]
            if not frame[2]:
                frame[2] = True
                values[frame[0]] = False
                break
            values[frame[0]] = None
            for v in frame[1]:
                values[v] = None
            stack.pop()
        else:
            return False
