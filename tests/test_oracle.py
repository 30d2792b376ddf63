import itertools
import json
import os
import random
import subprocess
import sys
import time
from math import prod
from pathlib import Path

import pytest

from dholc.corpus import gen_all
from dholc.erasure import ErasureVariant, erase_term, erase_theory
from dholc.kernel import Mode, check_theory
from dholc import oracle, syntax
from dholc.oracle import (
    CompiledTerms,
    Compiler,
    FiniteModel,
    OracleError,
    SearchBudget,
    SearchResult,
    countermodel,
    eval_term,
    merge_context,
    type_card,
)
from dholc.parser import parse_theory
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
    Term,
    Theory,
    Var,
    apply,
    conj,
    disj,
    exists,
    free_vars,
    neg,
    top,
)

A = Base("a")


def model_a(size, **consts_with_types):
    types = {n: ty for n, (ty, _) in consts_with_types.items()}
    vals = {n: v for n, (_, v) in consts_with_types.items()}
    return FiniteModel(sizes={"a": size}, consts=vals, types=types)


# ---------------------------------------------------------------------------
# eval


def test_eval_falsum():
    m = model_a(1)
    assert eval_term(m, {}, FALSE) == 0


def test_eval_boolean_tautology():
    m = model_a(1)
    t = Forall("x", BOOL, disj(Var("x"), neg(Var("x"))))
    assert eval_term(m, {}, t) == 1


def test_eval_derived_connectives_match_primitive_meaning():
    m = model_a(1)
    for a in (0, 1):
        for b in (0, 1):
            env = {"pa": (BOOL, a), "pb": (BOOL, b)}
            assert eval_term(m, env, conj(Var("pa"), Var("pb"))) == (a and b)
            assert eval_term(m, env, disj(Var("pa"), Var("pb"))) == (a or b)
            assert eval_term(m, env, neg(Var("pa"))) == (1 - a)
    t = exists("x", A, Eq(A, Var("x"), Var("c")))
    m2 = model_a(3, c=(A, 2))
    assert eval_term(m2, {}, t) == 1


def test_eval_choice_policy_first_satisfying():
    # choice picks the first element in canonical order satisfying the body
    m = model_a(3, c=(A, 2))
    chosen = Choice("x", A, Eq(A, Var("x"), Var("c")))
    assert eval_term(m, {}, Eq(A, chosen, Var("c"))) == 1
    # without a witness it falls back to the first element of the carrier
    compiler = Compiler({"a": 3}, {})
    root, _ = compiler.compile(Choice("x", A, FALSE))
    assert CompiledTerms(compiler).run(root) == 0


def test_eval_epsilon_satisfies_choice_rule_exhaustively():
    # whenever ∃x.t holds, t[x/εx.t] holds: all carriers ≤ 3, all unary
    # predicate tables, a pool of bodies over p x
    bodies = [
        FALSE,
        top(),
        App(Var("p"), Var("x")),
        neg(App(Var("p"), Var("x"))),
        conj(App(Var("p"), Var("x")), neg(App(Var("p"), Var("x")))),
        disj(App(Var("p"), Var("x")), neg(App(Var("p"), Var("x")))),
        Eq(BOOL, App(Var("p"), Var("x")), top()),
    ]
    pty = Pi("_", A, BOOL)
    from dholc.syntax import subst

    checked = 0
    for size in (1, 2, 3):
        for ptable in range(2**size):
            m = model_a(size, p=(pty, ptable))
            for body in bodies:
                eps = Choice("x", A, body)
                has_witness = eval_term(m, {}, exists("x", A, body))
                if has_witness:
                    assert eval_term(m, {}, subst(body, "x", eps)) == 1
                    checked += 1
    assert checked > 0


def test_eval_ill_typed_guard():
    m = model_a(2)
    with pytest.raises(OracleError):
        eval_term(m, {}, App(FALSE, FALSE))


def test_eval_ill_typed_argument_is_an_oracle_error():
    # p b with p : a > $o and b : $o; at |a| = 1 the digit index of b = 1
    # ran past p's power table, at |a| = 2 it read a digit silently
    p, b = Var("p"), Var("b")
    for size in (1, 2):
        m = model_a(size, p=(Pi("_", A, BOOL), 1), b=(BOOL, 1))
        with pytest.raises(OracleError, match="ill-typed application argument"):
            eval_term(m, {}, App(p, b))
    # the same through a head that is not a variable: (^x : a . x) b
    with pytest.raises(OracleError, match="ill-typed application argument"):
        eval_term(model_a(2, b=(BOOL, 1)), {}, App(Lambda("x", A, Var("x")), b))
    # a function-typed argument whose type differs only in its bound name is fine
    f = Var("f")
    m = model_a(2, h=(Pi("_", Pi("y", A, A), BOOL), 0b0010), f=(Pi("z", A, A), 1))
    assert eval_term(m, {}, App(Var("h"), f)) == 1


def test_eval_value_outside_its_carrier_is_an_oracle_error():
    # c = 5 with |a| = 2 indexed past p's power table
    m = model_a(2, p=(Pi("_", A, BOOL), 1), c=(A, 5))
    with pytest.raises(OracleError, match="value 5 of 'c'"):
        eval_term(m, {}, App(Var("p"), Var("c")))
    with pytest.raises(OracleError, match="value -1 of 'x'"):
        eval_term(model_a(2), {"x": (A, -1)}, Eq(A, Var("x"), Var("x")))
    with pytest.raises(OracleError, match="value 2 of 'q'"):
        eval_term(model_a(2), {"q": (BOOL, 2)}, Var("q"))
    # the largest value of each type is still in range
    m = model_a(2, p=(Pi("_", A, BOOL), 3), c=(A, 1))
    assert eval_term(m, {"q": (BOOL, 1)}, App(Var("p"), Var("c"))) == 1


def test_type_card():
    sizes = {"a": 3}
    assert type_card(BOOL, sizes) == 2
    assert type_card(Pi("_", A, A), sizes) == 27
    assert type_card(Pi("_", A, Pi("_", A, BOOL)), sizes) == 2**9


# ---------------------------------------------------------------------------
# countermodel


def test_countermodel_empty_theory_falsum():
    r = countermodel(Theory(), FALSE, SearchBudget(max_size=2))
    assert r.found


def test_countermodel_none_for_valid():
    from dholc.syntax import BaseTypeDecl

    thy = Theory((BaseTypeDecl("a"), ConstDecl("c", A)))
    valid = Eq(A, Var("c"), Var("c"))
    r = countermodel(thy, valid, SearchBudget(max_size=3))
    assert r.status == "none"


def test_countermodel_budget_exhaustion_reported_distinctly():
    from dholc.syntax import BaseTypeDecl

    thy = Theory(
        (
            BaseTypeDecl("a"),
            ConstDecl("f", Pi("_", A, Pi("_", A, A))),
            ConstDecl("g", Pi("_", A, Pi("_", A, A))),
        )
    )
    valid = Forall("x", A, Eq(A, Var("x"), Var("x")))
    r = countermodel(thy, valid, SearchBudget(max_size=3, max_models=10))
    assert r.status == "exhausted"
    assert "exceeds" in r.detail


def test_countermodel_monotone_in_budget():
    from dholc.syntax import BaseTypeDecl

    thy = Theory((BaseTypeDecl("a"), ConstDecl("c", A), ConstDecl("d", A)))
    conjecture = Eq(A, Var("c"), Var("d"))
    r2 = countermodel(thy, conjecture, SearchBudget(max_size=2))
    r3 = countermodel(thy, conjecture, SearchBudget(max_size=3))
    assert r2.found and r3.found
    # enumeration-order-first: the same countermodel is reported
    assert r2.model.sizes == r3.model.sizes
    assert r2.model.consts == r3.model.consts


COUNTEREXAMPLE_SRC = """\
type a : pi x : $o . tp
const c : a $false
"""


def erased_counterexample():
    thy, _ = parse_theory(COUNTEREXAMPLE_SRC)
    rep = check_theory(thy, None, Mode.STRONG_EPSILON)
    return erase_theory(rep.theory_elaborated, Context(), ErasureVariant.STRONG).hol_theory


def test_countermodel_naive_choice_reflexivity():
    hol = erased_counterexample()
    naive = Choice("x", A, top())
    conjecture = apply(Var("a*"), FALSE, naive, naive)
    r = countermodel(hol, conjecture, SearchBudget(max_size=2))
    assert r.found
    assert r.model.sizes == {"a": 2}
    # sanity: the found model satisfies the axioms and falsifies the conjecture
    assert eval_term(r.model, {}, conjecture) == 0


def test_no_countermodel_for_guarded_choice_reflexivity():
    hol = erased_counterexample()
    guard = apply(Var("a*"), FALSE, Var("x"), Var("x"))
    guarded = Choice("x", A, conj(guard, top()))
    conjecture = apply(Var("a*"), FALSE, guarded, guarded)
    r = countermodel(hol, conjecture, SearchBudget(max_size=3))
    assert r.status == "none"


def test_model_tables_and_json():
    hol = erased_counterexample()
    naive = Choice("x", A, top())
    conjecture = apply(Var("a*"), FALSE, naive, naive)
    r = countermodel(hol, conjecture, SearchBudget(max_size=2))
    d = r.model.to_json_dict()
    assert d["sizes"] == {"a": 2}
    assert set(d["constants"]) == {"a*", "c"}
    text = r.model.describe()
    assert "|a| = 2" in text and "c =" in text


# ---------------------------------------------------------------------------
# compiled checks vs a direct reference evaluator


def reference_eval(t, sizes, env):
    """Walks the term itself, with a name -> (type, value) dict for variables
    and digit extraction by repeated division."""

    def ev(t, env):  # -> (value, type)
        match t:
            case Var(name=n):
                ty, v = env[n]
                return v, ty
            case Falsum():
                return 0, BOOL
            case Implies(lhs=l, rhs=r):
                return (ev(r, env)[0] if ev(l, env)[0] else 1), BOOL
            case Eq(lhs=l, rhs=r):
                return int(ev(l, env)[0] == ev(r, env)[0]), BOOL
            case Forall(bound=x, annot=a, body=b):
                n = type_card(a, sizes)
                return int(all(ev(b, {**env, x: (a, v)})[0] for v in range(n))), BOOL
            case Choice(bound=x, annot=a, body=b):
                n = type_card(a, sizes)
                return next((v for v in range(n) if ev(b, {**env, x: (a, v)})[0]), 0), a
            case Lambda(bound=x, annot=a, body=b):
                table = [ev(b, {**env, x: (a, v)}) for v in range(type_card(a, sizes))]
                cod = table[0][1]
                c = type_card(cod, sizes)
                return sum(v * c**i for i, (v, _) in enumerate(table)), Pi(x, a, cod)
            case App(fun=f, arg=u):
                fv, ft = ev(f, env)
                c = type_card(ft.codomain, sizes)
                for _ in range(ev(u, env)[0]):
                    fv //= c
                return fv % c, ft.codomain

    return ev(t, env)[0]


def test_closures_agree_with_reference_evaluator():
    import itertools

    from genterms import THEORY, TermGen

    rep = check_theory(THEORY, None, Mode.STRONG_EPSILON)
    erased = erase_theory(rep.theory_elaborated, Context(), ErasureVariant.STRONG)
    sizes = {"nat": 2, "fin": 2}
    symbols = {d.name: d.ty for d in erased.hol_theory if isinstance(d, ConstDecl)}
    gen = TermGen(5)
    terms = [d.term for d in erased.hol_theory if isinstance(d, AxiomDecl)]
    terms += [erase_term(gen.boolean([], 3), ErasureVariant.STRONG) for _ in range(40)]
    comp = Compiler(sizes, symbols)
    roots = [comp.compile(t)[0] for t in terms]
    ct = CompiledTerms(comp)
    cards = [type_card(ty, sizes) for ty in symbols.values()]
    rng = random.Random(5)
    assignments = list(itertools.islice(itertools.product(*(range(c) for c in cards)), 200))
    assignments += [tuple(rng.randrange(c) for c in cards) for _ in range(200)]
    seen = set()
    for assignment in assignments:
        ct.env[: len(cards)] = assignment
        env = {n: (ty, v) for (n, ty), v in zip(symbols.items(), assignment)}
        for t, root in zip(terms, roots):
            value = ct.run(root)
            assert value == reference_eval(t, sizes, env)
            seen.add(value)
    assert seen == {0, 1}


NAT, FIN = Base("nat"), Base("fin")


def arrows(*tys):
    """A1 > … > Ak > R"""
    ty = tys[-1]
    for a in reversed(tys[:-1]):
        ty = Pi("_", a, ty)
    return ty


def test_specialised_closures_agree_with_reference_evaluator():
    # |nat| = 2 and |fin| = 3, so a digit or radix taken from the wrong
    # position changes the value
    sizes = {"nat": 2, "fin": 3}
    symbols = {
        "n": NAT,
        "m": FIN,
        "p1": arrows(NAT, BOOL),
        "r2": arrows(NAT, FIN, BOOL),
        "g3": arrows(FIN, NAT, FIN, FIN),
        "q4": arrows(NAT, FIN, NAT, FIN, BOOL),
        "w5": arrows(FIN, NAT, FIN, NAT, FIN, BOOL),
        "d2": arrows(NAT, FIN, NAT),
        "k": arrows(FIN, NAT, FIN),
        "h": arrows(arrows(NAT, FIN), NAT),
        "e": arrows(arrows(FIN, NAT), FIN),
    }
    n, m, x, y, f = (Var(v) for v in ("n", "m", "x", "y", "f"))

    def call(head, *args):
        return apply(Var(head) if isinstance(head, str) else head, *args)

    g = call("g3", m, n, m)
    hk = call("h", call("k", m))  # a nat computed through a function argument
    is_kg = Eq(FIN, call(f, x), call("k", g, x))
    is_d2 = Eq(NAT, call(f, x, y), call("d2", x, y))
    terms = [
        # spines of arity 1-5 over constants, variable arguments
        call("p1", n),
        call("r2", n, m),
        g,
        call("q4", n, m, n, m),
        call("w5", m, n, m, n, m),
        # compound arguments, alone and mixed with variables
        call("p1", Choice("x", NAT, call("p1", x))),
        call("r2", n, g),
        call("r2", hk, g),
        call("g3", g, n, m),
        call("g3", g, call("h", call("k", g)), g),
        call("q4", n, g, n, call("k", m, n)),
        call("w5", call("k", m, n), n, g, n, g),
        # bound variables as arguments and as heads
        Forall("x", NAT, Forall("y", FIN, Implies(call("r2", x, y), call("p1", x)))),
        Lambda("y", FIN, Lambda("x", NAT, call("g3", y, x, y))),
        Lambda("x", NAT, Lambda("y", FIN, call("q4", x, y, x, y))),
        Forall("f", arrows(NAT, FIN, BOOL), Implies(call(f, n, m), call("r2", n, m))),
        exists("f", arrows(NAT, NAT, NAT, BOOL), conj(call(f, n, n, n), neg(call(f, n, hk, n)))),
        call(Choice("f", arrows(NAT, FIN, NAT), Forall("x", NAT, Forall("y", FIN, is_d2))), n, m),
        # partial applications whose value is a function; function arguments
        call("k", m),
        call("g3", m),
        call("g3", m, n),
        Eq(arrows(NAT, FIN), call("k", m), Lambda("x", NAT, call("g3", m, x, m))),
        call("h", call("k", g)),
        call("h", Lambda("x", NAT, call("g3", m, x, m))),
        Forall(
            "f",
            arrows(NAT, FIN, NAT),
            Implies(Eq(FIN, call("e", call(f, n)), m), call("r2", n, call("e", call(f, hk)))),
        ),
        Forall("f", arrows(NAT, FIN), Implies(Eq(NAT, call("h", f), n), call("p1", call("h", f)))),
        # a λ-redex and an ε of function type as heads
        call(Lambda("x", NAT, Lambda("y", FIN, call("r2", x, y))), n, m),
        call(Lambda("x", NAT, call("k", m, x)), hk),
        call(Choice("f", arrows(NAT, FIN), Forall("x", NAT, is_kg)), n),
        call(Choice("f", arrows(FIN, NAT, BOOL), Eq(BOOL, call(f, m, n), call("p1", n))), m, n),
        # ∀ over ⇒, ⇒ ⊥, and both together
        Forall("x", NAT, Implies(call("p1", x), call("r2", x, m))),
        Forall("y", FIN, Implies(call("r2", n, y), Eq(FIN, y, m))),
        Implies(call("p1", n), FALSE),
        Forall("x", NAT, Implies(call("p1", x), FALSE)),
        Forall("y", FIN, Implies(Implies(call("r2", n, y), FALSE), FALSE)),
    ]
    comp = Compiler(sizes, symbols)
    roots = [comp.compile(t)[0] for t in terms]
    ct = CompiledTerms(comp)
    cards = [type_card(ty, sizes) for ty in symbols.values()]
    rng = random.Random(7)
    values = [set() for _ in terms]
    for _ in range(150):
        assignment = [rng.randrange(c) for c in cards]
        ct.env[: len(cards)] = assignment
        env = {s: (ty, v) for (s, ty), v in zip(symbols.items(), assignment)}
        for i, (t, root) in enumerate(zip(terms, roots)):
            value = ct.run(root)
            assert value == reference_eval(t, sizes, env), t
            values[i].add(value)
    # every term takes more than one value, so each is really tested
    assert all(len(v) > 1 for v in values), [i for i, v in enumerate(values) if len(v) < 2]


def test_compile_builds_no_power_table_sized_by_a_bound_head():
    # f's one argument has |a > a > a| = 3^9 values; powers of 2 tabulated
    # for all of them would take most of a second to build
    aaa = arrows(A, A, A)
    t = Forall("f", arrows(aaa, BOOL), App(Var("f"), Lambda("x", A, Lambda("y", A, Var("x")))))
    start = time.perf_counter()
    Compiler({"a": 3}, {}).compile(t)
    assert time.perf_counter() - start < 0.25


def test_ill_typed_axiom_raises_once_the_search_reaches_its_level():
    bad = AxiomDecl("bad", App(Var("d"), Var("d")))  # d : a is no function
    reached = Theory((BaseTypeDecl("a"), ConstDecl("c", A), ConstDecl("d", A), bad))
    with pytest.raises(OracleError):
        countermodel(reached, FALSE, SearchBudget(max_size=2))
    # no value of c passes its axiom, so d's level is never reached or compiled
    never = Theory(
        (
            BaseTypeDecl("a"),
            ConstDecl("c", A),
            ConstDecl("d", A),
            AxiomDecl("no_c", neg(Eq(A, Var("c"), Var("c")))),
            bad,
        )
    )
    assert countermodel(never, FALSE, SearchBudget(max_size=2)).status == "none"


# ---------------------------------------------------------------------------
# the memoised search against a search that re-runs every check


def reference_countermodel(thy, conjecture, budget, evaluated=None):
    """countermodel without memo, deadline or lazy compiling: the same DFS,
    running every check at every node of the level of the last constant it
    reads, and the closed checks first, once per carrier-size tuple.  With
    ``evaluated``, a set, it adds (sizes, check, values the check reads) for
    each evaluation, so the set's size is the number of runs that a search
    evaluating each check once per values it reads makes."""
    bases = [d.name for d in thy if isinstance(d, BaseTypeDecl)]
    consts = [(d.name, d.ty) for d in thy if isinstance(d, ConstDecl)]
    index = {n: i for i, (n, _) in enumerate(consts)}
    terms = [d.term for d in thy if isinstance(d, AxiomDecl)] + [neg(conjecture)]
    reads = [sorted(index[v] for v in free_vars(t)) for t in terms]
    at = [[] for _ in range(len(consts) + 1)]  # at[0]: closed; at[i + 1]: level i
    for c, slots in enumerate(reads):
        at[slots[-1] + 1 if slots else 0].append(c)
    detail = ""
    size_tuples = itertools.product(range(1, budget.max_size + 1), repeat=len(bases))
    for size_tuple in sorted(size_tuples, key=lambda t: (sum(t), t)):
        sizes = dict(zip(bases, size_tuple))
        cards = [type_card(ty, sizes) for _, ty in consts]
        if prod(cards) > budget.max_models:
            detail = f"interpretation space exceeds {budget.max_models} at sizes {size_tuple}"
            continue
        comp = Compiler(sizes, dict(consts))
        env = comp.env
        roots = [comp.compile(t)[0] for t in terms]

        def holds(c):
            if evaluated is not None:
                evaluated.add((size_tuple, c, tuple(env[i] for i in reads[c])))
            return roots[c]()

        def dfs(i):
            if i == len(consts):
                return True
            for v in range(cards[i]):
                env[i] = v
                if all(holds(c) for c in at[i + 1]) and dfs(i + 1):
                    return True
            return False

        if all(holds(c) for c in at[0]) and dfs(0):
            model = FiniteModel(sizes, {n: env[i] for n, i in index.items()}, dict(consts))
            return SearchResult("countermodel", model)
    if detail:
        return SearchResult("exhausted", detail=detail)
    return SearchResult("none", detail=f"exhaustive up to carrier size {budget.max_size}")


def memo_cases():
    """(theory, conjecture, budget): hand-made searches, then seeded ones over
    the erased genterms theory with generated axioms and conjectures."""
    c, d, u, f, p, q = (Var(n) for n in "cdufpq")
    x, y = Var("x"), Var("y")
    a, aa, ab = BaseTypeDecl("a"), arrows(A, A), arrows(A, BOOL)
    # an unconstrained u between c and d; d's axiom reads only d
    cud = Theory(
        (
            a,
            ConstDecl("c", A),
            ConstDecl("u", aa),
            ConstDecl("d", ab),
            AxiomDecl("d_some", exists("x", A, App(d, x))),
        )
    )
    # f's axioms read c or d, the conjecture reads f and d only
    cfd = Theory(
        (
            a,
            ConstDecl("c", A),
            ConstDecl("f", aa),
            ConstDecl("d", A),
            AxiomDecl("f_const", Forall("x", A, Eq(A, App(f, x), c))),
            AxiomDecl("f_moves", neg(Eq(A, App(f, d), d))),
        )
    )
    cd = Theory((a, ConstDecl("c", A), ConstDecl("d", A), AxiomDecl("c_d", neg(Eq(A, c, d)))))
    # upfront axioms, one true at every size and one only at size 1
    upfront = Theory(
        (
            a,
            ConstDecl("c", A),
            AxiomDecl("refl", Forall("x", A, Eq(A, x, x))),
            AxiomDecl("one", Forall("x", A, Forall("y", A, Eq(A, x, y)))),
        )
    )
    # two axioms at q's level, one reading c; one at p's reading q; and an
    # upfront one that only sizes from 2 satisfy
    cpq = Theory(
        (
            a,
            ConstDecl("c", A),
            ConstDecl("q", ab),
            ConstDecl("p", ab),
            AxiomDecl("q_some", exists("y", A, App(q, y))),
            AxiomDecl("q_c", neg(App(q, c))),
            AxiomDecl("q_two", exists("x", A, exists("y", A, neg(Eq(A, x, y))))),
            AxiomDecl("p_q", Forall("x", A, Implies(App(q, x), App(p, x)))),
        )
    )
    naive = Choice("x", A, top())
    cases = [
        (cud, Eq(A, c, c)),
        (cud, neg(conj(App(d, c), App(d, App(u, c))))),
        (cfd, Eq(A, App(f, App(f, d)), App(f, d))),
        (cd, exists("x", A, neg(conj(neg(Eq(A, x, c)), neg(Eq(A, x, d)))))),
        (upfront, FALSE),
        (cpq, neg(Eq(ab, p, q))),
        (erased_counterexample(), apply(Var("a*"), FALSE, naive, naive)),
    ]
    cases = [(thy, conj_, SearchBudget(max_size=3)) for thy, conj_ in cases]
    from genterms import THEORY, TermGen

    rep = check_theory(THEORY, None, Mode.STRONG_EPSILON)
    budget = SearchBudget(max_size=2, max_models=20_000)  # skips {nat: 2, fin: 2}
    for seed in range(20):
        variant = (ErasureVariant.STRONG, ErasureVariant.WEAK)[seed % 2]
        base = erase_theory(rep.theory_elaborated, Context(), variant).hol_theory
        gen = TermGen(seed)
        extra = [
            AxiomDecl(f"gen{k}", erase_term(gen.boolean([], 2), variant))
            for k in range(random.Random(seed).randrange(3))
        ]
        thy = Theory(tuple(base) + tuple(extra))
        conjecture = erase_term(gen.boolean([], 3), variant)
        cases.append((thy, conjecture, budget))
        # a valid conjecture: the search visits every model of the axioms
        cases.append((thy, Implies(conjecture, conjecture), budget))
    return cases + long_cases()


def long_cases():
    """(theory, conjecture, budget): searches over 40 constants, so they
    cross the search's function boundaries, and more loops than CPython
    nests in one function."""
    a = BaseTypeDecl("a")
    # p0, p2, … : a, and p1, p3, … : $o.  An even level completes no check,
    # and the odd one after it lets one value through, so the search stays
    # narrow: link_i is p_i ∧ p_(i-1) = p0.
    p = [Var(f"p{i}") for i in range(40)]
    chain = Theory(
        (a,)
        + tuple(ConstDecl(f"p{i}", A if i % 2 == 0 else BOOL) for i in range(40))
        + tuple(AxiomDecl(f"link{i}", conj(p[i], Eq(A, p[i - 1], p[0]))) for i in range(1, 40, 2))
    )
    # q0 … q39 : a, and no check completes at any level but the last
    q = [Var(f"q{i}") for i in range(40)]
    free = Theory((a,) + tuple(ConstDecl(f"q{i}", A) for i in range(40)))
    # the interpretation space at size 3 is 3^20 · 2^20
    wide = SearchBudget(max_size=3, max_models=10**20)
    return [
        # a countermodel at size 1, at the first leaf
        (chain, neg(p[39]), wide),
        # ¬(p38 = p0) at level 38 and link39 at level 39 exclude each other
        (chain, Eq(A, p[38], p[0]), wide),
        # ¬∀x. x = p38 needs a second element: size 1 is searched through
        # and found to hold no countermodel first
        (chain, Forall("x", A, Eq(A, Var("x"), p[38])), wide),
        # size 1 holds no countermodel, and size 2 exceeds max_models
        (free, Eq(A, q[39], q[0]), SearchBudget(max_size=2, max_models=1)),
    ]


def test_memoised_search_matches_the_unmemoised_search(monkeypatch):
    # the same result, and one run per check and values it reads that the
    # unmemoised search evaluates
    runs = []
    run = CompiledTerms.run
    monkeypatch.setattr(CompiledTerms, "run", lambda self, root: runs.append(root) or run(self, root))
    statuses = {}
    for thy, conjecture, budget in memo_cases():
        runs.clear()
        got = countermodel(thy, conjecture, budget)
        evaluated = set()
        want = reference_countermodel(thy, conjecture, budget, evaluated)
        assert (got.status, got.detail) == (want.status, want.detail)
        if want.found:
            assert (got.model.sizes, got.model.consts) == (want.model.sizes, want.model.consts)
        assert len(runs) == len(evaluated)
        statuses[thy, conjecture] = want.status
    assert set(statuses.values()) == {"countermodel", "none", "exhausted"}
    assert [statuses[thy, conjecture] for thy, conjecture, _ in long_cases()] == [
        "countermodel",
        "none",
        "countermodel",
        "exhausted",
    ]


def record_work(monkeypatch):
    """Two lists that fill as countermodel works: each term compiled, and per
    run, (closure, the values of the constants its term reads)."""
    reads, compiled, runs = {}, [], []
    compile_, run_ = Compiler.compile, CompiledTerms.run

    def compile(self, t):
        root, ty = compile_(self, t)
        reads[root] = [self.slot_of[n] for n in free_vars(t)]
        compiled.append(t)
        return root, ty

    def run(self, root):
        runs.append((root, tuple(self.env[i] for i in reads[root])))
        return run_(self, root)

    monkeypatch.setattr(Compiler, "compile", compile)
    monkeypatch.setattr(CompiledTerms, "run", run)
    return compiled, runs


def test_each_check_runs_once_per_values_it_reads(monkeypatch):
    # u, between c and d, is read by no check: d's axiom reads only d, so it
    # may not run again for another u
    c, d = Var("c"), Var("d")
    thy = Theory(
        (
            BaseTypeDecl("a"),
            ConstDecl("c", A),
            ConstDecl("u", arrows(A, A)),
            ConstDecl("d", arrows(A, BOOL)),
            AxiomDecl("c_refl", Eq(A, c, c)),
            AxiomDecl("d_some", exists("x", A, App(d, Var("x")))),
        )
    )
    _, runs = record_work(monkeypatch)
    # ¬(c = c) fails at c's level, so the search never reaches u or d: per
    # size, c_refl and ¬conjecture run once per c
    assert countermodel(thy, Eq(A, c, c), SearchBudget(max_size=2)).status == "none"
    assert len(runs) == len(set(runs))
    assert len(runs) == (1 + 1) + (2 + 2)
    runs.clear()
    # ¬(d c ⇒ d c) runs at d's level, once per c and per d that d_some lets
    # through (all but the empty d); without the memo, d_some ran once per
    # (c, u, d): 2 + 32 times
    valid = Implies(App(d, c), App(d, c))
    assert countermodel(thy, valid, SearchBudget(max_size=2)).status == "none"
    assert len(runs) == len(set(runs))
    # per size: c_refl per c, d_some per d, ¬conjecture per (c, d ≠ empty)
    assert len(runs) == (1 + 2 + 1) + (2 + 4 + 2 * 3)


def test_a_check_the_search_never_needs_is_never_compiled(monkeypatch):
    # g has 2^8 values at |a| = 2, but ¬(c = c) fails at c's level, so the
    # search never reaches g: no check there may run or be compiled
    g_some = exists("x", A, apply(Var("g"), Var("x"), Var("x"), Var("x")))
    thy = Theory(
        (
            BaseTypeDecl("a"),
            ConstDecl("c", A),
            ConstDecl("g", arrows(A, A, A, BOOL)),
            AxiomDecl("g_some", g_some),
        )
    )
    compiled, runs = record_work(monkeypatch)
    conjecture = Eq(A, Var("c"), Var("c"))
    assert countermodel(thy, conjecture, SearchBudget(max_size=2)).status == "none"
    assert compiled == [neg(conjecture)] * 2  # once per carrier size
    assert len(runs) == 1 + 2


def test_a_search_walks_each_check_for_its_free_symbols_once(monkeypatch):
    # A check's key template, kept on its node, gives the search the check's
    # free symbols and the Compiler its code key.  Count the templates
    # computed, not read from the memo: a search walks the axioms that no
    # earlier search walked, then ¬conjecture, a node of its own, once.
    walked = []
    key_template = syntax.key_template

    def counted(t, *walk):
        if not walk and not hasattr(t, "_key"):
            walked.append(t)
        return key_template(t, *walk)

    monkeypatch.setattr(syntax, "key_template", counted)
    monkeypatch.setattr(oracle, "key_template", counted)
    # The cases share some declarations, as the obligations of one check
    # do, and each case is searched twice.
    searched = set()  # ids of the axiom terms of the searches so far
    cases = memo_cases()[:6]
    for thy, conjecture, budget in cases:
        axioms = [d.term for d in thy if isinstance(d, AxiomDecl)]
        for _ in range(2):
            walked.clear()
            countermodel(thy, conjecture, budget)
            fresh = [t for t in axioms if id(t) not in searched]
            assert [t for t in walked if isinstance(t, Term)] == fresh + [neg(conjecture)]
            searched.update(map(id, axioms))


def test_memo_rows_past_the_cap_are_used_but_not_kept(monkeypatch):
    class Rows(oracle._Rows):
        made = []

        def __init__(self):
            super().__init__()
            self.dropped = 0
            Rows.made.append(self)

        def new(self, memo, key, width):
            row = super().new(memo, key, width)
            self.dropped += key not in memo
            assert self.stored <= oracle.MEMO_MAX_BYTES
            return row

    monkeypatch.setattr(oracle, "_Rows", Rows)
    cases = memo_cases()
    want = [countermodel(*case) for case in cases]
    assert all(rows.dropped == 0 for rows in Rows.made)
    Rows.made.clear()
    monkeypatch.setattr(oracle, "MEMO_MAX_BYTES", 3 * oracle._ROW_OVERHEAD)
    got = [countermodel(*case) for case in cases]
    assert [(r.status, r.detail) for r in got] == [(r.status, r.detail) for r in want]
    for g, w in zip(got, want):
        if w.found:
            assert (g.model.sizes, g.model.consts) == (w.model.sizes, w.model.consts)
    assert all(rows.stored <= oracle.MEMO_MAX_BYTES for rows in Rows.made)
    assert sum(rows.dropped for rows in Rows.made) > 100


def budget_overrun_cases():
    # ∀f : a > a > $o at |a| = 5 ranges over 2^25 values in one evaluation;
    # erased, the same conjecture is one evaluation of a nested ∀ at |a| = 4
    thy = Theory((BaseTypeDecl("a"),))
    conjecture = Forall("f", arrows(A, A, BOOL), Eq(arrows(A, A, BOOL), Var("f"), Var("f")))
    (ob,) = check_theory(thy, conjecture, Mode.STRONG_EPSILON).obligations
    erased = merge_context(ob.hol_theory, ob.hol_context)
    assert any(getattr(d, "label", "") == "a_star_collapse" for d in erased)
    return [
        (thy, conjecture, SearchBudget(max_size=5, max_seconds=1.0)),
        (erased, ob.conjecture, SearchBudget(max_size=4, max_seconds=1.0)),
    ]


@pytest.mark.parametrize("case", [0, 1])
def test_max_seconds_holds_inside_one_evaluation(case):
    thy, conjecture, budget = budget_overrun_cases()[case]
    start = time.monotonic()
    r = countermodel(thy, conjecture, budget)
    assert time.monotonic() - start < budget.max_seconds + 0.5
    assert r.status == "exhausted"
    assert r.detail.startswith("wall-time budget exceeded")


def test_max_seconds_holds_in_a_level_that_rejects_every_value():
    # h ranges over 2^24 values at |a| = 3, and the axiom rejects each one
    # without the search ever descending
    H = arrows(arrows(A, BOOL), A, BOOL)
    thy = Theory(
        (BaseTypeDecl("a"), ConstDecl("h", H), AxiomDecl("ax", neg(Eq(H, Var("h"), Var("h")))))
    )
    budget = SearchBudget(max_size=3, max_models=20_000_000, max_seconds=1.0)
    start = time.monotonic()
    r = countermodel(thy, FALSE, budget)
    assert time.monotonic() - start < 2.0
    assert (r.status, r.detail) == ("exhausted", "wall-time budget exceeded at sizes (3,)")


def test_a_memo_row_too_wide_to_keep_is_never_allocated():
    # f ranges over 3^512 values at |a| = 3 (2^16 at |a| = 2), so a memo row
    # with a byte per value can never be allocated; f's axiom runs without
    # one until the deadline
    F = arrows(arrows(A, A, BOOL), A)
    f, c = Var("f"), Var("c")
    thy = Theory(
        (BaseTypeDecl("a"), ConstDecl("f", F), ConstDecl("c", A), AxiomDecl("f_refl", Eq(F, f, f)))
    )
    budget = SearchBudget(max_size=3, max_models=10**300, max_seconds=1.0)
    start = time.monotonic()
    r = countermodel(thy, Eq(A, c, c), budget)
    assert time.monotonic() - start < 2.0
    assert (r.status, r.detail) == ("exhausted", "wall-time budget exceeded at sizes (3,)")


def test_size_tuples_come_by_total_then_lexicographically():
    for nbases in range(4):
        for max_size in range(1, 5):
            tuples = itertools.product(range(1, max_size + 1), repeat=nbases)
            want = sorted(tuples, key=lambda t: (sum(t), t))
            assert list(oracle._size_tuples(nbases, max_size)) == want


@pytest.mark.parametrize(
    "consts, max_size, max_models",
    [
        # 700^2 size tuples, each searched at once
        ((), 700, 10**9),
        # 10^10 size tuples: all but those with |b| = 1 exceed max_models
        ((ConstDecl("f", arrows(A, Base("b"))),), 100_000, 1),
    ],
)
def test_max_seconds_holds_across_many_size_tuples(consts, max_size, max_models):
    thy = Theory((BaseTypeDecl("a"), BaseTypeDecl("b")) + consts)
    budget = SearchBudget(max_size=max_size, max_models=max_models, max_seconds=0.5)
    start = time.monotonic()
    r = countermodel(thy, neg(FALSE), budget)
    assert time.monotonic() - start < 1.0
    assert r.status == "exhausted"
    assert r.detail.startswith("wall-time budget exceeded at sizes")


def test_only_binders_over_many_values_look_at_the_clock(monkeypatch):
    monotonic = time.monotonic
    reads = []

    def clock():
        reads.append(None)
        return monotonic()

    past = Compiler({"a": 2}, {}, monotonic() - 1)
    later = Compiler({"a": 2}, {}, monotonic() + 60)
    p16 = Forall("p", arrows(A, A, BOOL), top())
    p256 = Forall("p", arrows(A, A, A, BOOL), top())
    roots = [comp.compile(t)[0] for comp in (past, later) for t in (p16, p256)]
    monkeypatch.setattr(time, "monotonic", clock)
    # 16 values never read the clock, even past the deadline
    assert roots[0]() == 1 and reads == []
    # 256 values read it before each value, and stop once the deadline has
    # passed
    with pytest.raises(oracle._OutOfTime):
        roots[1]()
    assert len(reads) == 1
    reads.clear()
    assert roots[2]() == 1 and reads == []
    assert roots[3]() == 1 and len(reads) == 256


# ---------------------------------------------------------------------------
# generated code: CPython's limits and the code cache


@pytest.fixture
def codes(monkeypatch):
    """An empty code cache, so that every check is generated afresh."""
    monkeypatch.setattr(oracle, "_CODES", {})
    return oracle._CODES


@pytest.fixture
def searches(monkeypatch):
    """An empty search cache, so that every level shape's search is
    generated afresh."""
    monkeypatch.setattr(oracle, "_SEARCHES", {})
    return oracle._SEARCHES


@pytest.fixture(params=["closures", "generated"])
def either(request, monkeypatch, codes):
    """Runs a test once with each check's function a fresh closure bound over
    the code that an earlier compile of the check left in the cache, and once
    with each check generated afresh into an empty cache."""
    if request.param == "closures":
        compile_ = Compiler.compile

        def rebound(self, t):
            first, _ = compile_(self, t)
            entries = dict(codes)
            root, ty = compile_(self, t)
            assert root is not first and root.__code__ is first.__code__ and codes == entries
            return root, ty

        monkeypatch.setattr(Compiler, "compile", rebound)
    return request.param


def test_a_checks_first_compile_generates_it(codes):
    t = Forall("x", A, Implies(App(Var("p"), Var("x")), Eq(A, Var("x"), Var("c"))))
    symbols = {"p": arrows(A, BOOL), "c": A}
    cards = [type_card(ty, {"a": 2}) for ty in symbols.values()]
    values = list(itertools.product(*(range(c) for c in cards)))
    root, results = agrees_with_reference(t, {"a": 2}, symbols, values)
    assert set(results) == {0, 1}
    assert root.__code__.co_filename == "<oracle check>"
    assert len(codes) == 1


def agrees_with_reference(t, sizes, symbols, values):
    """Compiles t at sizes and runs it under each assignment in values (one
    value per symbol), checking each result against reference_eval; returns
    the root and the results."""
    comp = Compiler(sizes, symbols)
    root, _ = comp.compile(t)
    results = []
    for assignment in values:
        comp.env[: len(symbols)] = assignment
        env = {n: (ty, v) for (n, ty), v in zip(symbols.items(), assignment)}
        results.append(CompiledTerms(comp).run(root))
        assert results[-1] == reference_eval(t, sizes, env)
    return root, results


def nested_foralls(n, ty, body):
    """∀x1 : ty. … ∀xn : ty. body(x1, …, xn)"""
    xs = [Var(f"x{i}") for i in range(1, n + 1)]
    t = body(xs)
    for x in reversed(xs):
        t = Forall(x.name, ty, t)
    return t


# CPython accepts 20 nested loops and 100 levels of indentation in one
# function; the parser accepts 122 nested binders.
@pytest.mark.parametrize("depth", [30, 110])
def test_binders_nested_past_cpythons_limits(either, depth):
    p = Var("p")
    symbols = {"p": arrows(A, BOOL)}
    # one binder per level, true and false; at |a| = 1 every loop runs once
    same = nested_foralls(depth, A, lambda xs: Eq(A, xs[0], xs[-1]))
    differ = nested_foralls(depth, BOOL, lambda xs: neg(Eq(BOOL, xs[0], xs[-1])))
    assert agrees_with_reference(same, {"a": 1}, symbols, [(0,), (1,)])[1] == [1, 1]
    assert agrees_with_reference(differ, {"a": 1}, symbols, [(0,)])[1] == [0]
    # ∀x1. p x1 ⇒ ∀x2. p x2 ⇒ …: two levels of nesting per binder, and at
    # |a| = 2 a loop body goes past the implication at x = 0 only when p 0 holds
    guarded = Eq(A, Var(f"x{depth}"), Var("x1"))
    for i in range(depth, 0, -1):
        x = Var(f"x{i}")
        guarded = Forall(x.name, A, Implies(App(p, x), guarded))
    assert agrees_with_reference(guarded, {"a": 2}, symbols, [(0,), (1,), (2,)])[1] == [1, 1, 1]

    # an ε and a λ at the bottom of the nest
    def bottom(xs):
        chosen = Choice("y", A, App(p, Var("y")))
        return Eq(arrows(A, A), Lambda("z", A, chosen), Lambda("z", A, xs[-1]))

    bottoms = nested_foralls(depth, A, bottom)
    assert agrees_with_reference(bottoms, {"a": 1}, symbols, [(0,), (1,)])[1] == [1, 1]


def test_a_400_deep_implication_chain(either):
    q = Var("q")
    chain = FALSE
    for _ in range(400):
        chain = Implies(q, chain)
    symbols = {"q": BOOL}
    assert agrees_with_reference(chain, {}, symbols, [(0,), (1,)])[1] == [1, 0]
    # and as a value, compared with q
    assert agrees_with_reference(Eq(BOOL, chain, q), {}, symbols, [(0,), (1,)])[1] == [0, 0]


def test_a_binder_whose_card_has_thousands_of_digits(either):
    # |(a > a > a) > $o| = 2^19683 at |a| = 3: more digits than int() turns
    # into text, so no card may be written into the source
    aaa = arrows(A, A, A)
    assert type_card(arrows(aaa, BOOL), {"a": 3}).bit_length() == 19684
    first = Lambda("x", A, Lambda("y", A, Var("x")))
    f = Var("f")
    # the first f is false everywhere, so the ∀ is false at once
    t = Forall("f", arrows(aaa, BOOL), App(f, first))
    assert agrees_with_reference(t, {"a": 3}, {}, [()])[1] == [0]
    # a codomain of |a| values reads powers past _POWER_TABLE_MAX digits from
    # a _Powers; the first f maps everything to 0, so c ≠ 0 makes the ∀ false
    # at once
    u = Forall("f", arrows(aaa, A), Eq(A, App(f, first), Var("c")))
    assert agrees_with_reference(u, {"a": 3}, {"c": A}, [(1,), (2,)])[1] == [0, 0]
    assert agrees_with_reference(u, {"a": 1}, {"c": A}, [(0,)])[1] == [1]


def test_one_cache_entry_serves_every_size_tuple(codes):
    x, y = Var("x"), Var("y")
    symbols = {"g": arrows(A, A, A), "c": A}
    g = Var("g")
    t = Forall("x", A, Implies(Eq(A, apply(g, x, Var("c")), x), exists("y", A, Eq(A, apply(g, y, y), x))))
    rng = random.Random(3)
    roots = []
    for size in (2, 3):
        cards = [type_card(ty, {"a": size}) for ty in symbols.values()]
        values = [tuple(rng.randrange(n) for n in cards) for _ in range(60)]
        root, results = agrees_with_reference(t, {"a": size}, symbols, values)
        assert set(results) == {0, 1}
        roots.append(root)
    assert roots[0].__code__ is roots[1].__code__
    assert len(codes) == 1


def test_alpha_equivalent_checks_share_one_function(codes):
    comp = Compiler({"a": 2}, {"p": arrows(A, BOOL)})
    one, _ = comp.compile(Forall("x", A, App(Var("p"), Var("x"))))
    other, _ = comp.compile(Forall("y", A, App(Var("p"), Var("y"))))
    assert one is not other and one.__code__ is other.__code__
    assert len(codes) == 1


def test_one_name_with_two_types_never_shares_a_function(codes):
    # f c = c, with f : a > a in one theory and f : $o > $o in another
    t = Eq(None, App(Var("f"), Var("c")), Var("c"))
    on_a = [(f, c) for f in range(27) for c in range(3)]
    on_o = [(f, c) for f in range(4) for c in range(2)]
    over_a, _ = agrees_with_reference(t, {"a": 3}, {"f": arrows(A, A), "c": A}, on_a)
    over_o, _ = agrees_with_reference(t, {"a": 3}, {"f": arrows(BOOL, BOOL), "c": BOOL}, on_o)
    assert over_a.__code__ is not over_o.__code__
    assert len(codes) == 2


@pytest.mark.parametrize("full", [0, 1])
def test_the_code_cache_stays_within_its_bound(monkeypatch, codes, searches, full):
    # The search cache has the bound of the code cache.  With full = 1, each
    # bounded cache starts with the last three entries of the unbounded run,
    # so the first new check or level shape already evicts one.
    cases = memo_cases()
    want = [countermodel(*case) for case in cases]
    assert len(codes) > 3 and len(searches) > 3
    for name, cache in (("_CODES", codes), ("_SEARCHES", searches)):
        monkeypatch.setattr(oracle, name, dict(list(cache.items())[-3:]) if full else {})
    monkeypatch.setattr(oracle, "_CODE_CACHE_MAX", 3)
    for case, w in zip(cases, want):
        g = countermodel(*case)
        assert (g.status, g.detail) == (w.status, w.detail)
        if w.found:
            assert (g.model.sizes, g.model.consts) == (w.model.sizes, w.model.consts)
        assert len(oracle._CODES) <= 3 and len(oracle._SEARCHES) <= 3


def test_searches_of_one_level_shape_share_one_function(monkeypatch, searches):
    generated = []
    generate = oracle._generate_search
    monkeypatch.setattr(oracle, "_generate_search", lambda shape: generated.append(shape) or generate(shape))
    c, d, f, x = Var("c"), Var("d"), Var("f"), Var("x")
    # no check completes at c's level, and two at d's: the axiom, then
    # ¬conjecture
    cd = Theory((BaseTypeDecl("a"), ConstDecl("c", A), ConstDecl("d", A), AxiomDecl("c_d", neg(Eq(A, c, d)))))
    fx = Theory(
        (
            BaseTypeDecl("b"),
            ConstDecl("x", BOOL),
            ConstDecl("f", arrows(BOOL, Base("b"))),
            AxiomDecl("f_x", Forall("y", BOOL, Eq(Base("b"), App(f, Var("y")), App(f, x)))),
        )
    )
    assert countermodel(cd, Eq(A, c, d), SearchBudget(max_size=2)).found
    assert countermodel(fx, Eq(Base("b"), App(f, x), App(f, neg(x))), SearchBudget(max_size=2)).status == "none"
    assert generated == [(0, 2)] and list(searches) == [(0, 2)]


def test_importing_the_oracle_generates_nothing():
    # checks and searches are generated at their first use, never at import
    script = "import dholc.oracle as o; print(len(o._CODES), len(o._SEARCHES))"
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["0", "0"], proc.stderr


def test_an_ill_typed_check_raises_every_time_and_caches_nothing(either, codes):
    comp = Compiler({"a": 2}, {"d": A})
    for t in (App(FALSE, FALSE), App(Var("d"), Var("d")), Forall("x", A, Var("x"))):
        for _ in range(2):
            with pytest.raises(OracleError):
                comp.compile(t)
    assert codes == {}


# ---------------------------------------------------------------------------
# pinned search results

ORACLE_RESULTS = Path(__file__).parent / "data" / "oracle_results.json"
ORACLE_WORK = Path(__file__).parent / "data" / "oracle_work_pin.json"
DEEP_BUDGET = SearchBudget(max_size=2, max_models=20_000_000, max_seconds=600.0)


def oracle_deep_searches():
    """(problem, mode, obligation, theory, conjecture) for one obligation per
    corpus problem except choice_def1: the index-th problem gives obligation
    index mod its count, in eps1 for indices 0, 1, 4, 5, … and eps2 for the
    others (the oracle_deep benchmark's mix)."""
    for index, entry in enumerate(gen_all()):
        if entry.name == "choice_def1":
            continue
        mode = (Mode.STRONG_EPSILON, Mode.WEAK_EPSILON)[(index // 2) % 2]
        rep = check_theory(entry.theory, entry.conjecture, mode)
        ob = rep.obligations[index % len(rep.obligations)]
        thy = merge_context(ob.hol_theory, ob.hol_context)
        yield entry.name, mode.value, ob.id, thy, ob.conjecture


def oracle_deep_results():
    """[problem, mode, obligation, status, detail, model or None] per search."""
    rows = []
    for *where, thy, conjecture in oracle_deep_searches():
        r = countermodel(thy, conjecture, DEEP_BUDGET)
        model = r.model.to_json_dict() if r.found else None
        rows.append(where + [r.status, r.detail, model])
    return rows


def test_oracle_results_are_pinned():
    # the enumeration order fixes the first countermodel; a change to the
    # evaluator or the search must leave every row as it is
    rows = json.loads(json.dumps(oracle_deep_results()))
    assert rows == json.loads(ORACLE_RESULTS.read_text())


def test_oracle_work_is_pinned(monkeypatch):
    # per search of data/oracle_results.json, the CompiledTerms.run and
    # Compiler.compile calls.  The memo and compiling on first use fix both
    # counts on any host; a change that moves a row on purpose regenerates
    # data/oracle_work_pin.json.
    compiled, runs = record_work(monkeypatch)
    rows = []
    for *where, thy, conjecture in oracle_deep_searches():
        compiled.clear()
        runs.clear()
        countermodel(thy, conjecture, DEEP_BUDGET)
        rows.append(where + [len(runs), len(compiled)])
    assert rows == json.loads(ORACLE_WORK.read_text())
