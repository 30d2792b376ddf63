"""A small, deliberately incomplete but *sound* ground prover for erased HOL
obligations.

The obligation's axioms, assumptions and negated conjecture are abstracted to
propositional formulas over alpha-normalized atoms.  An equation is one
atom whichever way round its sides are written, and an equation whose sides
are alpha-equal is abstracted to truth; equality gets no other reasoning (no
congruence).  Two families of valid clauses connect the atoms:

* universal atoms are instantiated with a fixed universe consisting of the
  obligation's context variables, whatever their types, plus the theory
  constants of base or boolean type — never compound terms and never a
  theory's function constants, which keeps the prover weak enough to leave
  genuinely search-hard obligations open;
* every choice subterm contributes the HOL choice rule as a clause
  (if a witness exists, the chosen element is one).

Both families are added in one forward pass over the atom list:
atoms that the new formulas register are appended and visited in turn, so
every atom is instantiated and scanned for choice subterms exactly once.
The clauses are Tseitin-encoded and handed to a small DPLL search, whose
unit propagation watches two literals per clause (Eén & Sörensson, SAT 2003).

An atom is held as ``(node, bindings)``: a subterm of a normal input
formula or choice schema, and the constants its instantiated universal
variables stand for.  Instantiating ``! x . body`` at c registers the atoms
of the body under ``{**bindings, x: c}``; no instance term is built.  An
atom's key is its node's key template (``syntax.key_template``, computed
once per node) with its holes filled from the bindings, and an equation's
reflexivity and the universe's type match compare such filled keys.  Only
an atom whose template holds a choice is built, with ``subst_many``, to be
scanned for its choice subterms.

Everything asserted is HOL_ε-valid, so an UNSAT answer is a real proof.
Classical double negations are collapsed at formula positions so that
differently sugared statements of the same fact meet in the same atom.

Input formulas and choice schemas are beta- and double-negation-normalised
before abstraction, once per node: ``normal_form`` keeps the result in the
node's memo slot, so an erased axiom that the kernel shares between
obligations is normalised once, for the local stage and every ground run
alike.  Instances are not normalised again.  An atom's node is a
subterm of a normal formula, and substituting constants for the variables
that the quantifiers above it bind creates neither a beta-redex (a constant is no lambda) nor a
double negation (the connective spine is unchanged), so the instance of a
node under its bindings is normal already.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .erasure import beta_normalize
from .syntax import (
    App,
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
    Lambda,
    Pi,
    Term,
    Theory,
    Type,
    Var,
    alpha_key,
    exists,
    key_template,
    neg,
    subst,
    subst_many,
)

MAX_FORMULAS = 600
MAX_ATOMS = 800
MAX_DPLL_NODES = 50_000


def dn_normalize(t: Term) -> Term:
    """Collapse ((p => false) => false) to p along the connective spine and
    under quantifiers.  Atom-internal structure is left alone, and a node
    with no double negation under it is returned itself."""
    cls = type(t)
    if cls is Implies:
        a, b = t.lhs, t.rhs
        a2 = dn_normalize(a)
        b2 = dn_normalize(b)
        if type(b2) is Falsum and type(a2) is Implies and type(a2.rhs) is Falsum:
            return a2.lhs
        if a2 is a and b2 is b:
            return t
        return Implies(a2, b2, pos=t.pos)
    if cls is Forall:
        b = t.body
        b2 = dn_normalize(b)
        return t if b2 is b else Forall(t.bound, t.annot, b2, pos=t.pos)
    return t


def normal_form(t: Term) -> Term:
    """``dn_normalize(beta_normalize(t))``, computed once per node: the
    result is kept in the node's memo slot (see ``syntax``), as None when t
    is normal already, so that no node refers to itself.  dholc calls it
    from one thread only; threads that share a node may both compute it,
    and they store equal terms."""
    try:
        nf = t._nf
    except AttributeError:
        nf = dn_normalize(beta_normalize(t))
        t._nf = None if nf is t else nf
        return nf
    return t if nf is None else nf


PF_FALSE = ("false",)
PF_TRUE = ("impl", PF_FALSE, PF_FALSE)


def _key(t: Term | Type, bindings: dict[str, str]) -> str:
    """The alpha key of t with each free name in bindings replaced by the
    constant it is bound to: the key of the instance, without building it."""
    text, names, _ = key_template(t)
    return text.format(*map(bindings.get, names, names)) if names else text


@dataclass
class _Atoms:
    by_key: dict[object, int]
    # (node, bindings) per atom, in order of registration
    terms: list[tuple[Term, dict[str, str]]]

    def register(self, key, t: Term, bindings: dict[str, str]) -> int:
        """The index of the atom with this key, registered as t under
        bindings if it is new."""
        idx = self.by_key.get(key)
        if idx is None:
            idx = self.by_key[key] = len(self.terms)
            self.terms.append((t, bindings))
        return idx


def _abstract(t: Term, bindings: dict[str, str], atoms: _Atoms):
    """The propositional formula of the instance of t under bindings.  An
    equation is keyed by its type and its sides as an unordered pair, so
    l = r and r = l are one atom, and one whose sides are alpha-equal is
    truth."""
    cls = type(t)
    if cls is Implies:
        return ("impl", _abstract(t.lhs, bindings, atoms), _abstract(t.rhs, bindings, atoms))
    if cls is Falsum:
        return PF_FALSE
    if cls is Eq:
        lhs, rhs = _key(t.lhs, bindings), _key(t.rhs, bindings)
        if lhs == rhs:
            return PF_TRUE
        ty = None if t.ty is None else _key(t.ty, bindings)
        key = (ty, lhs, rhs) if lhs < rhs else (ty, rhs, lhs)
    else:
        key = _key(t, bindings)
    return ("atom", atoms.register(key, t, bindings))


def _universe(thy: Theory, ctx: Context) -> list[tuple[str, str]]:
    """(name, alpha key of its type) of each constant a universal atom is
    instantiated with."""
    out: list[tuple[str, str]] = []
    for d in thy:
        if isinstance(d, ConstDecl) and isinstance(d.ty, (Base, Bool)):
            out.append((d.name, alpha_key(d.ty)))
    for d in ctx:
        if isinstance(d, ConstDecl):
            out.append((d.name, alpha_key(d.ty)))
    return out


def _choices(t: Term) -> list[Choice]:
    """The choice subterms of t in pre-order, those inside type annotations
    included: the choices of ``syntax.subterms(t)``, in one walk with an
    explicit stack instead of nested generators."""
    out: list[Choice] = []
    stack: list = [t]
    pop, push = stack.pop, stack.append
    while stack:
        t = pop()
        cls = type(t)
        if cls is App:
            push(t.arg)
            push(t.fun)
        elif cls is Implies:
            push(t.rhs)
            push(t.lhs)
        elif cls is Forall or cls is Choice or cls is Lambda:
            if cls is Choice:
                out.append(t)
            push(t.body)
            push(t.annot)
        elif cls is Eq:
            push(t.rhs)
            push(t.lhs)
            if t.ty is not None:
                push(t.ty)
        elif cls is Base:
            stack.extend(reversed(t.args))
        elif cls is Pi:
            push(t.codomain)
            push(t.domain)
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
        _abstract(normal_form(t), {}, atoms)
        for t in assumptions[: MAX_FORMULAS - 1] + [neg(conjecture)]
    ]

    # Saturate in one forward pass: instantiate each universal atom over the
    # universe and add the choice schema for each choice subterm.  Atoms that
    # these formulas register are appended to atoms.terms, and enumerate
    # reaches them in turn.  The universe never grows, so this terminates
    # quickly; caps guard the pathological cases.
    done_choice: set[str] = set()
    for idx, (node, bindings) in enumerate(atoms.terms):
        if len(formulas) >= MAX_FORMULAS or len(atoms.terms) >= MAX_ATOMS:
            break
        if type(node) is Forall:
            annot = _key(node.annot, bindings)
            for name, ty_key in universe:
                if len(formulas) >= MAX_FORMULAS:
                    break
                if ty_key == annot:
                    body = _abstract(node.body, {**bindings, node.bound: name}, atoms)
                    formulas.append(("impl", ("atom", idx), body))
        if not key_template(node)[2]:
            continue
        # Already normal: see the module docstring.
        inst = subst_many(node, {x: Var(c) for x, c in bindings.items()})
        for sub in _choices(inst):
            if len(formulas) >= MAX_FORMULAS:
                break
            key = alpha_key(sub)
            if key in done_choice:
                continue
            done_choice.add(key)
            witness = exists(sub.bound, sub.annot, sub.body)
            conclusion = subst(sub.body, sub.bound, sub)
            schema = Implies(witness, conclusion)
            formulas.append(_abstract(normal_form(schema), {}, atoms))

    return _unsat(formulas, len(atoms.terms))


# ---------------------------------------------------------------------------
# Tseitin + DPLL


def _unsat(formulas, natoms: int) -> bool:
    cnf = _Cnf(natoms)
    for pf in formulas:
        cnf.clauses.append([cnf.encode(pf)])
    return not _dpll_sat(cnf.clauses, cnf.nvars)[0]


class _Cnf:
    """The Tseitin clauses of formulas.  Variables: 1..natoms are the atoms,
    then the constant false, then one variable per implication encoded; 0 is
    unused."""

    __slots__ = ("clauses", "false_var", "nvars")

    def __init__(self, natoms: int):
        self.false_var = self.nvars = natoms + 1
        self.clauses: list[list[int]] = [[-self.false_var]]

    def encode(self, pf) -> int:
        if pf == PF_FALSE:
            return self.false_var
        if pf[0] == "atom":
            return pf[1] + 1
        _, l, r = pf
        lv = self.encode(l)
        rv = self.encode(r)
        self.nvars += 1
        v = self.nvars
        self.clauses += ([-v, -lv, rv], [v, lv], [v, -rv])
        return v


def _dpll_sat(clauses: list[list[int]], nvars: int) -> tuple[bool, int]:
    """(satisfiable, search nodes visited) for a CNF over variables
    1..nvars.  Giving up after MAX_DPLL_NODES nodes answers satisfiable,
    i.e. "not proved", the sound side.

    Each node runs unit propagation to its fixpoint, or to a falsified
    clause, with two watched literal positions per clause (Eén & Sörensson,
    SAT 2003).  A clause is unit once all of its literal occurrences but one
    are false, so a repeated literal counts once per occurrence."""
    # value[lit] for a literal -nvars..nvars: None while unassigned, else
    # whether the literal is true.  A negative literal indexes from the end
    # of the list, so the two literals of a variable never share a slot.
    value: list[Optional[bool]] = [None] * (2 * nvars + 1)
    # watches[lit]: the clauses with lit at watched position 0 or 1, once per
    # such position.  The search reorders the literals of its own copies.
    watches: list[list[list[int]]] = [[] for _ in value]
    # A node's trail lists the literals it made true, in order: its decision
    # first, then what propagation derived.  The root's trail starts with
    # the unit clauses.
    trail: list[int] = []
    root_ok = True
    for cl in clauses:
        if len(cl) > 1:
            cl = list(cl)
            watches[cl[0]].append(cl)
            watches[cl[1]].append(cl)
        elif not cl or value[cl[0]] is False:
            root_ok = False
        elif value[cl[0]] is None:
            value[cl[0]] = True
            value[-cl[0]] = False
            trail.append(cl[0])

    def propagate(trail: list[int]) -> bool:
        """Visit the clauses watching the negation of each trail literal,
        appending the literals that become unit.  False once a clause is
        falsified."""
        i = 0
        while i < len(trail):
            false_lit = -trail[i]
            i += 1
            ws = watches[false_lit]
            watches[false_lit] = keep = []
            for j, cl in enumerate(ws):
                if cl[0] == false_lit:
                    cl[0] = cl[1]
                    cl[1] = false_lit
                first = cl[0]
                if value[first]:
                    keep.append(cl)
                    continue
                for k in range(2, len(cl)):
                    lit = cl[k]
                    if value[lit] is not False:
                        cl[1] = lit
                        cl[k] = false_lit
                        watches[lit].append(cl)
                        break
                else:
                    keep.append(cl)
                    if value[first] is None:
                        value[first] = True
                        value[-first] = False
                        trail.append(first)
                    else:
                        keep.extend(ws[j + 1 :])
                        return False
        return True

    # The search branches on the first unassigned variable, True before
    # False.  Each frame of the explicit stack is one open branch:
    # [variable, the trail of the node that branched, whether the False
    # branch has been entered].
    stack: list[list] = []
    nodes = 0
    while True:
        if nodes >= MAX_DPLL_NODES:
            return True, nodes
        nodes += 1
        if root_ok and propagate(trail):
            try:
                var = value.index(None, 1, nvars + 1)
            except ValueError:
                return True, nodes
            stack.append([var, trail, False])
            lit = var
        else:
            for lit in trail:
                value[lit] = value[-lit] = None
            # Backtrack to the deepest branch whose False side is untried.
            while stack and stack[-1][2]:
                for lit in stack.pop()[1]:
                    value[lit] = value[-lit] = None
            if not stack:
                return False, nodes
            stack[-1][2] = True
            lit = -stack[-1][0]
        value[lit] = True
        value[-lit] = False
        trail = [lit]
