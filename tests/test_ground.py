"""Unit tests for the sound ground prover: what it must prove, and just as
importantly what it must leave open (its instantiation universe excludes
compound terms and function constants by design)."""

import hashlib
import itertools
import json
import random
from pathlib import Path

from genterms import NAT, THEORY, TermGen

from dholc import ground
from dholc.erasure import beta_normalize
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
    subterms,
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


def _dpll_cases():
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
    return cases


def test_dpll_agrees_with_truth_table():
    outcomes = set()
    for clauses, nvars in _dpll_cases():
        expected = _truth_table_sat(clauses, nvars)
        assert ground._dpll_sat(clauses, nvars)[0] == expected, clauses
        outcomes.add(expected)
    assert outcomes == {True, False}


def _sweeping_dpll(clauses, nvars, max_nodes):
    """The search before watched literals, kept as the reference: each node
    sweeps every clause until a sweep assigns nothing.  (sat, nodes)."""
    values = [False] + [None] * nvars

    def propagate(trail):
        changed = True
        while changed:
            changed = False
            for cl in clauses:
                unassigned = count = 0
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

    stack, nodes = [], 0
    while nodes < max_nodes:
        nodes += 1
        trail = []
        if propagate(trail):
            if None not in values:
                return True, nodes
            var = values.index(None)
            values[var] = True
            stack.append([var, trail, False])
            continue
        for v in trail:
            values[v] = None
        while stack and stack[-1][2]:
            var, trail, _ = stack.pop()
            for v in [var] + trail:
                values[v] = None
        if not stack:
            return False, nodes
        stack[-1][2] = True
        values[stack[-1][0]] = False
    return True, nodes


def test_watched_literals_search_like_sweeping_propagation(monkeypatch):
    # the unit-propagation fixpoint is unique, so the watched-literal search
    # must visit exactly the nodes the sweeping one did, cap included
    cases = _dpll_cases() + [
        # a repeated literal counts once per occurrence: [1, 1] is not unit
        ([[1, 1]], 1),
        ([[1, 1], [-1, 2], [-1, -2]], 2),
        ([[1, 1, 2], [-2]], 2),
        ([[1, 2, 1], [-2, 3], [-3]], 3),
        # unit clauses before any branching, one of them contradicted later
        ([[1], [-1, 2], [-2, 3, 4], [-4]], 4),
        ([[2], [1, -2], [-1, 3], [-3, -2]], 3),
        ([[1], [1], [-1, 2], [-2, 3], [-3, 4]], 4),
    ]
    for cap in (ground.MAX_DPLL_NODES, 1):
        monkeypatch.setattr(ground, "MAX_DPLL_NODES", cap)
        most = 0
        for clauses, nvars in cases:
            got = ground._dpll_sat(clauses, nvars)
            assert got == _sweeping_dpll(clauses, nvars, cap), (cap, clauses)
            most = max(most, got[1])
        assert most == min(cap, 11)  # some searches go deep
    # the search works on copies: the caller's clauses keep their order
    clauses = [[1, 2, 3], [-3, -2, -1]]
    ground._dpll_sat(clauses, 3)
    assert clauses == [[1, 2, 3], [-3, -2, -1]]


def test_dpll_node_cap_means_not_proved(monkeypatch):
    # unsatisfiable, with no unit clause: the search must branch to see it
    clauses = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
    assert ground._dpll_sat(clauses, 2) == (False, 3)
    monkeypatch.setattr(ground, "MAX_DPLL_NODES", 1)
    assert ground._dpll_sat(clauses, 2) == (True, 1)


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


def _corpus_obligations():
    from dholc.corpus import gen_all
    from dholc.kernel import Mode, check_theory

    for e in gen_all():
        for mode in (Mode.STRONG_EPSILON, Mode.WEAK_EPSILON):
            for ob in check_theory(e.theory, e.conjecture, mode).obligations:
                yield e.name, mode.value, ob


def test_ground_inputs_and_searches_are_pinned(monkeypatch):
    # every _unsat call of the corpus (29 problems x eps1/eps2, obligations
    # the local stage leaves): sha256 of repr((formulas, natoms)), the DPLL
    # node count and the answer.  A change to the ground prover that moves
    # one row on purpose regenerates data/ground_unsat_pin.json.
    from dholc.prover import discharge_one

    rows, where, nodes = [], [], []
    real_unsat, real_dpll = ground._unsat, ground._dpll_sat

    def dpll(clauses, nvars):
        result = real_dpll(clauses, nvars)
        nodes.append(result[1])
        return result

    def unsat(formulas, natoms):
        proved = real_unsat(formulas, natoms)
        digest = hashlib.sha256(repr((formulas, natoms)).encode()).hexdigest()
        rows.append(where[-1] + [digest, nodes[-1], proved])
        return proved

    monkeypatch.setattr(ground, "_dpll_sat", dpll)
    monkeypatch.setattr(ground, "_unsat", unsat)
    for name, mode, ob in _corpus_obligations():
        where.append([name, mode, ob.id])
        discharge_one(ob, oracle_fallback=False)
    pinned = json.loads((Path(__file__).parent / "data" / "ground_unsat_pin.json").read_text())
    assert rows == pinned


def _is_normal(t):
    return dn_normalize(beta_normalize(t)) == t


def _assert_walk_matches_subterms(t, walked):
    expected = [s for s in subterms(t) if isinstance(s, Choice)]
    assert len(walked) == len(expected) and all(a is b for a, b in zip(walked, expected))


def _genterm_obligations(n):
    for seed in range(n):
        gen = TermGen(seed)
        env = [("n", NAT), ("b", BOOL)]
        ctx = [ConstDecl("n", NAT), ConstDecl("b", BOOL)]
        ctx += [AxiomDecl(f"h{i}", gen.boolean(env, 3)) for i in range(3)]
        yield THEORY, Context(tuple(ctx)), gen.boolean(env, 3)


def test_saturation_builds_normal_instances_and_walks_every_choice(monkeypatch):
    # instances are not normalised again: substituting a constant for a
    # bound variable of a normal atom leaves it normal.  _choices finds the
    # choice subterms that syntax.subterms would, the same nodes in order.
    counts = {"instances": 0, "walks": 0, "choices": 0}
    real_subst, real_choices = ground.subst, ground._choices

    def subst(t, x, u):
        out = real_subst(t, x, u)
        if isinstance(u, Var):  # an instance; the choice rule substitutes an ε
            assert _is_normal(out), out
            counts["instances"] += 1
        return out

    def choices(t):
        out = real_choices(t)
        _assert_walk_matches_subterms(t, out)
        counts["walks"] += 1
        counts["choices"] += len(out)
        return out

    monkeypatch.setattr(ground, "subst", subst)
    monkeypatch.setattr(ground, "_choices", choices)
    for _, _, ob in _corpus_obligations():
        prove_ground(ob.hol_theory, ob.hol_context, ob.conjecture)
    corpus = dict(counts)
    assert min(corpus.values()) > 100, corpus
    for thy, ctx, goal in _genterm_obligations(60):
        prove_ground(thy, ctx, goal)
    assert all(counts[k] > corpus[k] for k in counts), (corpus, counts)


def test_choice_walk_matches_subterms_on_generated_terms():
    # a base type of two arguments, each a choice
    e1 = Choice("x", A, App(Var("p"), Var("x")))
    e2 = Choice("y", A, Eq(A, Var("y"), e1))
    two = Forall("z", Base("pair", (e1, e2)), Eq(Base("pair", (e2, e1)), Var("z"), Var("z")))
    in_annotations = 0
    for t in [TermGen(1000 + seed).boolean([], 4) for seed in range(200)] + [two]:
        walked = ground._choices(t)
        _assert_walk_matches_subterms(t, walked)
        in_annotations += len(walked) - sum(1 for s in _term_nodes(t) if isinstance(s, Choice))
    # some choices sit in type annotations (fin (eps ...)), which the walk
    # must enter as subterms does
    assert in_annotations > 0


def _term_nodes(t):
    """Subterms without entering type annotations."""
    yield t
    for child in ("fun", "arg", "lhs", "rhs", "body"):
        if hasattr(t, child):
            yield from _term_nodes(getattr(t, child))
