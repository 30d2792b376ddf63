"""Unit tests for the sound ground prover: what it must prove, and just as
importantly what it must leave open (its instantiation universe excludes
compound terms and function constants by design)."""

import itertools
import random

from dholc import ground
from dholc.ground import dn_normalize, prove_ground
from dholc.syntax import (
    App,
    AxiomDecl,
    Base,
    BaseTypeDecl,
    BOOL,
    Choice,
    ConstDecl,
    Context,
    Eq,
    FALSE,
    Forall,
    Implies,
    Pi,
    Theory,
    Var,
    alpha_eq,
    apply,
    conj,
    exists,
    neg,
    top,
)

A = Base("a")


def test_dn_normalize_collapses_double_negation():
    p = App(Var("p"), Var("c"))
    assert dn_normalize(neg(neg(p))) == p
    q = Forall("x", A, neg(neg(p)))
    assert dn_normalize(q) == Forall("x", A, p)


def _thy(*decls):
    return Theory(tuple(decls))


P = Pi("_", A, BOOL)


def test_modus_ponens_with_context_variable():
    thy = _thy(BaseTypeDecl("a"), ConstDecl("p", P))
    ctx = Context(
        (
            ConstDecl("x", A),
            AxiomDecl("h", App(Var("p"), Var("x"))),
            AxiomDecl("all", Forall("y", A, Implies(App(Var("p"), Var("y")), FALSE))),
        )
    )
    assert prove_ground(thy, ctx, FALSE)


def test_instantiation_with_base_typed_theory_constant():
    thy = _thy(
        BaseTypeDecl("a"),
        ConstDecl("p", P),
        ConstDecl("c", A),
        AxiomDecl("pc", App(Var("p"), Var("c"))),
    )
    goal = exists("y", A, App(Var("p"), Var("y")))
    assert prove_ground(thy, Context(), goal)


def test_compound_witnesses_are_out_of_reach():
    # p (f c) is provable with the instance y := f c, but f c is compound and
    # the universe only carries variables and base-typed constants
    thy = _thy(
        BaseTypeDecl("a"),
        ConstDecl("p", P),
        ConstDecl("f", Pi("_", A, A)),
        ConstDecl("c", A),
        AxiomDecl("pfc", App(Var("p"), App(Var("f"), Var("c")))),
    )
    goal = exists("y", A, App(Var("p"), Var("y")))
    assert not prove_ground(thy, Context(), goal)


def test_conjecture_alpha_equal_to_axiom():
    thy = _thy(
        BaseTypeDecl("a"),
        ConstDecl("p", P),
        AxiomDecl("w", exists("x", A, App(Var("p"), Var("x")))),
    )
    goal = exists("z", A, App(Var("p"), Var("z")))
    assert prove_ground(thy, Context(), goal)


def test_choice_schema():
    thy = _thy(
        BaseTypeDecl("a"),
        ConstDecl("p", P),
        AxiomDecl("w", exists("x", A, App(Var("p"), Var("x")))),
    )
    eps = Choice("x", A, App(Var("p"), Var("x")))
    goal = App(Var("p"), eps)
    assert prove_ground(thy, Context(), goal)


def test_choice_schema_needs_the_witness():
    thy = _thy(BaseTypeDecl("a"), ConstDecl("p", P))
    eps = Choice("x", A, App(Var("p"), Var("x")))
    assert not prove_ground(thy, Context(), App(Var("p"), eps))


def test_equality_reflexivity_and_symmetry():
    thy = _thy(BaseTypeDecl("a"), ConstDecl("c", A), ConstDecl("d", A))
    assert prove_ground(thy, Context(), Eq(A, Var("c"), Var("c")))
    sym_thy = thy.extended(AxiomDecl("cd", Eq(A, Var("c"), Var("d"))))
    assert prove_ground(sym_thy, Context(), Eq(A, Var("d"), Var("c")))
    # no congruence: c = d does not propagate through applications
    cong_thy = sym_thy.extended(
        ConstDecl("p", P), AxiomDecl("pc", App(Var("p"), Var("c")))
    )
    assert not prove_ground(cong_thy, Context(), App(Var("p"), Var("d")))


def test_soundness_spot_check():
    # an invalid goal over a satisfiable theory must stay open
    thy = _thy(BaseTypeDecl("a"), ConstDecl("p", P), ConstDecl("c", A))
    assert not prove_ground(thy, Context(), App(Var("p"), Var("c")))
    assert not prove_ground(thy, Context(), FALSE)


def test_monotone_under_extra_axioms():
    thy = _thy(
        BaseTypeDecl("a"),
        ConstDecl("p", P),
        ConstDecl("c", A),
        AxiomDecl("pc", App(Var("p"), Var("c"))),
    )
    goal = exists("y", A, App(Var("p"), Var("y")))
    assert prove_ground(thy, Context(), goal)
    bigger = thy.extended(
        AxiomDecl("extra1", top()),
        AxiomDecl("extra2", Forall("y", A, Implies(FALSE, App(Var("p"), Var("y"))))),
    )
    assert prove_ground(bigger, Context(), goal)


def test_saturation_reaches_atoms_it_creates():
    thy = _thy(BaseTypeDecl("a"), ConstDecl("c", A), ConstDecl("r", Pi("_", A, P)))
    c, x, y = Var("c"), Var("x"), Var("y")

    def r(s, t):
        return apply(Var("r"), s, t)

    # instantiating x := c creates the atom ! y . r c y, which must itself be
    # instantiated to reach r c c
    nested = thy.extended(AxiomDecl("all", Forall("x", A, Forall("y", A, r(x, y)))))
    assert prove_ground(nested, Context(), r(c, c))
    # instantiating x := c in "pick" creates the atom r c (eps y . r c y),
    # whose choice subterm needs its own schema
    chosen = thy.extended(
        ConstDecl("q", P),
        AxiomDecl("total", Forall("x", A, exists("y", A, r(x, y)))),
        AxiomDecl("pick", Forall("x", A, Implies(r(x, Choice("y", A, r(x, y))), App(Var("q"), x)))),
    )
    assert prove_ground(chosen, Context(), App(Var("q"), c))


def _truth_table_sat(clauses, nvars):
    for bits in itertools.product((False, True), repeat=nvars):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in clauses):
            return True
    return False


def test_dpll_agrees_with_truth_table():
    rng = random.Random(0)
    cases = []
    for case in range(400):
        nvars = rng.randint(1, 8)
        clauses = [
            [rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(0, 24))
        ]
        if case % 50 == 0:
            clauses.insert(rng.randint(0, len(clauses)), [])
        cases.append((clauses, nvars))
    # satisfiable only with 1 false and 2 true, after both values of 2 have
    # failed under 1 true: a failed branch must leave its variable unassigned
    cases.append(([[-1, -2, 3], [-1, -2, -3], [-1, 2, 3], [-1, 2, -3], [1, 2]], 3))
    # 1 true propagates 2 true, and then both values of 3 fail; 1 false must
    # see 2 unassigned again, or the model 1 = 2 = false is missed
    cases.append(([[-1, 2], [-2, 3, 4], [-2, 3, -4], [-2, -3, 4], [-2, -3, -4]], 4))
    outcomes = set()
    for clauses, nvars in cases:
        expected = _truth_table_sat(clauses, nvars)
        assert ground._dpll_sat(clauses, nvars) == expected, clauses
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_dpll_node_cap_means_not_proved(monkeypatch):
    # unsatisfiable, with no unit clause: the search must branch to see it
    clauses = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
    assert not ground._dpll_sat(clauses, 2)
    monkeypatch.setattr(ground, "MAX_DPLL_NODES", 1)
    assert ground._dpll_sat(clauses, 2)


def _many(n, axiom):
    """n $o constants p_i and q_i, each pair with axiom(p_i, q_i)."""
    decls = []
    for i in range(n):
        p, q = f"p{i}", f"q{i}"
        decls += [ConstDecl(p, BOOL), ConstDecl(q, BOOL)]
        decls.append(AxiomDecl(f"ax{i}", axiom(Var(p), Var(q))))
    return Theory(tuple(decls))


def test_negated_conjecture_survives_the_formula_cap():
    # 700 assumptions fill MAX_FORMULAS; the negated conjecture must still be
    # asserted, or p0 cannot be proved from the first of them
    thy = _many(700, lambda p, q: p)
    assert prove_ground(thy, Context(), Var("p0"))


def test_equality_pass_respects_the_formula_cap(monkeypatch):
    # every axiom is a reflexive equation, so each capped assumption's atom
    # asks the equality pass for one more formula
    seen = []
    real = ground._unsat
    monkeypatch.setattr(ground, "_unsat", lambda fs, n: seen.append(len(fs)) or real(fs, n))
    thy = _many(700, lambda p, q: Eq(BOOL, p, p))
    assert prove_ground(thy, Context(), Eq(BOOL, Var("p0"), Var("p0")))
    assert seen == [ground.MAX_FORMULAS]


def test_dpll_decisions_do_not_recurse():
    # satisfiable; finding a model takes one decision per pair, more than
    # Python's default recursion limit of frames
    thy = _many(590, lambda p, q: Implies(neg(p), q))
    assert not prove_ground(thy, Context(), FALSE)
