"""Unit tests for the sound ground prover: what it must prove, and just as
importantly what it must leave open (its instantiation universe excludes
compound terms and function constants by design)."""

import gc
import hashlib
import itertools
import json
import pickle
import random
from pathlib import Path

from genterms import NAT, THEORY, TermGen

from dholc import ground
from dholc.erasure import beta_normalize
from dholc.ground import dn_normalize, normal_form, prove_ground
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
    Falsum,
    Forall,
    Implies,
    Lambda,
    Pi,
    Theory,
    Var,
    alpha_eq,
    alpha_key,
    apply,
    conj,
    exists,
    key_template,
    neg,
    subst_many,
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


def test_an_equation_is_one_atom_either_way_round():
    atoms = ground._Atoms({}, [])
    c, d = Var("c"), Var("d")
    assert ground._abstract(Eq(A, c, d), {}, atoms) == ground._abstract(Eq(A, d, c), {}, atoms) == ("atom", 0)
    # a reflexive equation is truth, with no atom of its own
    assert ground._abstract(Eq(A, c, c), {}, atoms) == ("impl", ground.PF_FALSE, ground.PF_FALSE)
    assert atoms.terms == [(Eq(A, c, d), {})]


def _flip_equations(t):
    """t with the two sides of every equation swapped, in types too."""
    match t:
        case Eq(ty=ty, lhs=l, rhs=r):
            return Eq(_flip_equations(ty), _flip_equations(r), _flip_equations(l))
        case App(fun=f, arg=a):
            return App(_flip_equations(f), _flip_equations(a))
        case Implies(lhs=l, rhs=r):
            return Implies(_flip_equations(l), _flip_equations(r))
        case Lambda() | Forall() | Choice():
            return type(t)(t.bound, _flip_equations(t.annot), _flip_equations(t.body))
        case Pi(bound=x, domain=a, codomain=b):
            return Pi(x, _flip_equations(a), _flip_equations(b))
        case Base(name=n, args=args):
            return Base(n, tuple(map(_flip_equations, args)))
        case _:
            return t


def test_answers_do_not_depend_on_the_orientation_of_equations():
    flipped = proved = 0
    for thy, ctx, goal in _genterm_obligations(60):
        flip_ctx = Context(
            tuple(AxiomDecl(d.label, _flip_equations(d.term)) if isinstance(d, AxiomDecl) else d for d in ctx)
        )
        answer = prove_ground(thy, ctx, goal)
        assert prove_ground(thy, flip_ctx, _flip_equations(goal)) == answer, goal
        flipped += flip_ctx != ctx or _flip_equations(goal) != goal
        proved += answer
    assert flipped > 30 and proved > 5, (flipped, proved)


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
    # every axiom is a reflexive equation, which abstracts to truth: the
    # capped assumptions and the negated conjecture fill the cap exactly
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


def _instance(node, bindings):
    return subst_many(node, {x: Var(c) for x, c in bindings.items()})


def _saturations(monkeypatch, runs):
    """Run prove_ground on each (theory, context, goal) of runs and yield
    the atoms of each, as (node, bindings) pairs.  No run here reaches a
    cap, so saturation visits every atom it registers."""
    made, formulas = [], []
    real_atoms, real_unsat = ground._Atoms, ground._unsat
    monkeypatch.setattr(ground, "_Atoms", lambda *a: made.append(real_atoms(*a)) or made[-1])
    monkeypatch.setattr(ground, "_unsat", lambda fs, n: formulas.append(len(fs)) or real_unsat(fs, n))
    for thy, ctx, goal in runs:
        prove_ground(thy, ctx, goal)
        atoms = made.pop().terms
        assert formulas.pop() < ground.MAX_FORMULAS and len(atoms) < ground.MAX_ATOMS
        yield atoms


def _ground_runs():
    runs = [(ob.hol_theory, ob.hol_context, ob.conjecture) for _, _, ob in _corpus_obligations()]
    return runs + list(_genterm_obligations(60))


def test_instance_keys_are_the_keys_of_the_instances(monkeypatch):
    # an atom's key, filled in from its node's template, is the alpha key of
    # the instance built by substitution, walked afresh (a pickled copy
    # carries no memo)
    atoms = bound = 0
    for run in _saturations(monkeypatch, _ground_runs()):
        for node, bindings in run:
            parts = [node.lhs, node.rhs, node.ty] if type(node) is Eq else [node]
            parts += [node.annot] if type(node) is Forall else []
            for t in filter(None, parts):
                fresh = pickle.loads(pickle.dumps(_instance(t, bindings)))
                assert ground._key(t, bindings) == alpha_key(fresh), (t, bindings)
            atoms += 1
            bound += bool(bindings)
    assert atoms > 5000 and bound > 2000, (atoms, bound)


def test_instance_keys_in_corner_cases():
    c, d, x = Var("c"), Var("d"), Var("x")
    p, r = Var("p"), Var("r")

    def key(t, **bindings):
        assert ground._key(t, bindings) == alpha_key(_instance(t, bindings)), t
        return ground._key(t, bindings)

    # an inner binder named like the constant: substitution renames it
    inner = App(p, Lambda("c", A, apply(r, x, c)))
    assert key(inner, x="c") == "@(vp;L(Ba()@(@(vr;vc;)b0;)))"
    assert key(inner, x="c") != key(inner, x="d")
    # the inner binder shadows the instantiated name
    shadow = Forall("x", A, App(p, x))
    assert key(shadow, x="c") == key(shadow) == "A(Ba()@(vp;b0;))"
    assert key(shadow.body, x="d") == "@(vp;vd;)"
    # reflexive only after instantiation: truth, with no atom
    atoms = ground._Atoms({}, [])
    for eq in (Eq(A, x, x), Eq(A, x, c), Eq(A, c, x)):
        assert ground._abstract(eq, {"x": "c"}, atoms) == ground.PF_TRUE
    assert ground._abstract(Eq(A, x, c), {"x": "d"}, atoms) == ("atom", 0)
    assert ground._abstract(Eq(A, c, x), {"x": "d"}, atoms) == ("atom", 0)
    assert ground._abstract(Eq(A, d, c), {}, atoms) == ("atom", 0)
    assert atoms.terms == [(Eq(A, x, c), {"x": "d"})]
    # names with format syntax in them, in types and as constants
    for n in ("{0}", "}", "{", "%s", "%", "{}{{}}"):
        odd = Forall("y", Base(n, (x,)), apply(Var(n), x, Var("y")))
        assert key(odd, x=n) == f"A(B{n}(v{n};)@(@(v{n};v{n};)b0;))"
        assert key(odd.body, x="c", y=n) == f"@(@(v{n};vc;)v{n};)"


def test_saturation_builds_instances_only_for_choices(monkeypatch):
    # Only an atom whose instance holds a choice is built, by substituting
    # its bindings into its node.  Instances are not normalised again:
    # substituting constants for bound variables of a normal atom leaves it
    # normal.  _choices finds the choice subterms that syntax.subterms would,
    # the same nodes in order, and walks every atom that holds one.
    walked, built = [], []
    real_choices, real_subst_many = ground._choices, ground.subst_many

    def choices(t):
        out = real_choices(t)
        _assert_walk_matches_subterms(t, out)
        walked.append(t)
        return out

    def subst_many(t, mapping):
        out = real_subst_many(t, mapping)
        built.append(out)
        return out

    monkeypatch.setattr(ground, "_choices", choices)
    monkeypatch.setattr(ground, "subst_many", subst_many)
    counts = {"atoms": 0, "built": 0}
    for atoms in _saturations(monkeypatch, _ground_runs()):
        expected = []
        for node, bindings in atoms:
            inst = _instance(node, bindings)
            assert _is_normal(inst), inst
            if any(isinstance(s, Choice) for s in subterms(inst)):
                assert key_template(node)[2], node
                expected.append(inst)
        assert built == walked == expected
        counts["atoms"] += len(atoms)
        counts["built"] += len(built)
        walked.clear()
        built.clear()
    assert counts["built"] > 300 and counts["atoms"] > 10 * counts["built"], counts


def test_each_template_is_computed_once_per_check(monkeypatch):
    # the obligations of one check share their erased axioms: no node's key
    # template is computed twice, by the ground prover or anything else
    from dholc import prover, syntax
    from dholc.corpus import gen_problem
    from dholc.kernel import Mode, check_theory

    seen: dict[int, list] = {}  # id -> [node, computations]; the node keeps its id
    real = syntax.key_template

    def key_template(t, *walk):
        # a call with the walk's state is the walk of a subterm
        if not walk and not hasattr(t, "_key"):
            seen.setdefault(id(t), [t, 0])[1] += 1
        return real(t, *walk)

    monkeypatch.setattr(syntax, "key_template", key_template)
    monkeypatch.setattr(ground, "key_template", key_template)
    for name in ("choice_def1", "list_head", "no_fp_fin3_reg"):
        e = gen_problem(name)
        for mode in (Mode.STRONG_EPSILON, Mode.WEAK_EPSILON):
            rep = check_theory(e.theory, e.conjecture, mode)
            assert len(rep.obligations) > 1
            prover.discharge(rep.obligations, oracle_fallback=False)
    assert len(seen) > 300
    assert max(calls for _, calls in seen.values()) == 1


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


# ---------------------------------------------------------------------------
# Normal forms: computed once per node, kept in the node's memo slot


def _rebuilding_dn_normalize(t):
    """The reference: dn_normalize as it was before it returned unchanged
    nodes."""
    match t:
        case Implies(lhs=a, rhs=b):
            a2 = _rebuilding_dn_normalize(a)
            b2 = _rebuilding_dn_normalize(b)
            if isinstance(b2, Falsum) and isinstance(a2, Implies) and isinstance(a2.rhs, Falsum):
                return a2.lhs
            return Implies(a2, b2)
        case Forall(bound=x, annot=a, body=b):
            return Forall(x, a, _rebuilding_dn_normalize(b))
        case _:
            return t


def _formulas(ob):
    decls = tuple(ob.hol_theory) + tuple(ob.hol_context)
    return [d.term for d in decls if isinstance(d, AxiomDecl)] + [ob.conjecture]


def test_normal_form_matches_the_reference_and_is_kept():
    kept = collapsed = 0
    terms = [t for _, _, ob in _corpus_obligations() for t in _formulas(ob)]
    terms += [neg(neg(goal)) for _, _, goal in _genterm_obligations(60)]
    for t in terms:
        expected = _rebuilding_dn_normalize(beta_normalize(t))
        out = normal_form(t)
        assert out == expected, t
        assert normal_form(t) is out and normal_form(out) is out
        if expected == t:
            assert dn_normalize(t) is t and out is t
            kept += 1
        collapsed += out is not t
    assert kept > 500 and collapsed > 50


def test_each_term_is_normalised_once_per_check(monkeypatch):
    # obligations of one check share the erased axioms: neither the local
    # stage nor a later obligation normalises one of them again
    from dholc import prover
    from dholc.corpus import gen_problem
    from dholc.kernel import Mode, check_theory

    seen: dict[int, list] = {}  # id -> [term, calls]; the term keeps its id

    def counting(real):
        def beta(t):
            seen.setdefault(id(t), [t, 0])[1] += 1
            return real(t)

        return beta

    monkeypatch.setattr(ground, "beta_normalize", counting(ground.beta_normalize))
    monkeypatch.setattr(prover, "beta_normalize", counting(prover.beta_normalize))
    for name in ("choice_def1", "list_head", "no_fp_fin3_reg"):
        e = gen_problem(name)
        for mode in (Mode.STRONG_EPSILON, Mode.WEAK_EPSILON):
            rep = check_theory(e.theory, e.conjecture, mode)
            assert len(rep.obligations) > 1
            prover.discharge(rep.obligations, oracle_fallback=False)
    assert len(seen) > 50
    assert max(calls for _, calls in seen.values()) == 1


def test_no_node_refers_to_itself_through_the_memo():
    # a node that is normal already records None, not itself: a
    # self-reference would leave every term tree to the cyclic collector
    from dholc.prover import discharge_one

    nodes = {}
    filled = 0
    for _, _, ob in _corpus_obligations():
        discharge_one(ob, oracle_fallback=False)
        for t in _formulas(ob):
            filled += hasattr(t, "_nf")
            nodes.update((id(n), n) for n in subterms(t))
    assert filled > 1000
    for t in nodes.values():
        assert not any(r is t for r in gc.get_referents(t)), t
        nf = getattr(t, "_nf", None)
        # the chain ends after one step: a normal form is normal
        assert nf is None or getattr(nf, "_nf", None) is None, t
