import pytest

from dholc.erasure import ErasureVariant, erase_term, erase_theory
from dholc.kernel import Mode, check_theory
from dholc.oracle import (
    CompiledTerms,
    Compiler,
    FiniteModel,
    OracleError,
    SearchBudget,
    countermodel,
    eval_term,
    type_card,
)
from dholc.parser import parse_theory
from dholc.syntax import (
    App,
    AxiomDecl,
    Base,
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
    apply,
    conj,
    disj,
    exists,
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
# closures vs a direct reference evaluator


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
    import random

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
