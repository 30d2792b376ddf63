import pytest

from dholc.erasure import (
    ErasureError,
    ErasureVariant,
    beta_normalize,
    erase_term,
    erase_theory,
    erase_type,
    per,
    per_apply,
)
from dholc.kernel import Mode, check_theory, infer_type_elaborated
from dholc.parser import parse_term, parse_theory
from dholc.syntax import (
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
    Var,
    alpha_eq,
    apply,
    conj,
    disj,
    exists,
    free_vars,
    neg,
    subst,
    top,
)

from genterms import FIN, NAT, TermGen

STRONG = ErasureVariant.STRONG
WEAK = ErasureVariant.WEAK


def numeral(n):
    t = Var("0")
    for _ in range(n):
        t = App(Var("s"), t)
    return t


# ---------------------------------------------------------------------------
# erase_type


def test_erase_type_examples():
    assert erase_type(FIN(numeral(1))) == Base("fin")
    out = erase_type(Pi("n", NAT, FIN(Var("n"))))
    assert alpha_eq(out, Pi("n", NAT, Base("fin")))
    assert "n" not in free_vars(out.codomain)
    assert erase_type(BOOL) == BOOL


# ---------------------------------------------------------------------------
# PERs


def test_per_bool_is_equality():
    t, u = Var("t"), Var("u")
    applied = beta_normalize(apply(per(BOOL), t, u))
    assert alpha_eq(applied, Eq(BOOL, t, u))


def test_per_applied_base():
    u, v = Var("u"), Var("v")
    out = per_apply(FIN(numeral(2)), STRONG, u, v)
    assert alpha_eq(out, apply(Var("fin*"), numeral(2), u, v))


def test_per_pi_relational_lift():
    A = Pi("x", NAT, BOOL)
    t, u = Var("t"), Var("u")
    out = per_apply(A, STRONG, t, u)
    expected = Forall(
        "x",
        NAT,
        Forall(
            "y",
            NAT,
            Implies(
                apply(Var("nat*"), Var("x"), Var("y")),
                Eq(BOOL, App(t, Var("x")), App(u, Var("y"))),
            ),
        ),
    )
    assert alpha_eq(out, expected)


def test_per_lambda_form_matches_applied_form():
    for ty in (BOOL, NAT, FIN(numeral(1)), Pi("n", NAT, FIN(Var("n")))):
        lam = per(ty, STRONG)
        t, u = Var("t0"), Var("u0")
        assert alpha_eq(beta_normalize(apply(lam, t, u)), beta_normalize(per_apply(ty, STRONG, t, u)))


def test_per_capture_avoidance():
    # the PER's quantified pair must not capture free variables of the operands
    A = Pi("x", NAT, BOOL)
    out = per_apply(A, STRONG, Var("x"), Var("x"))
    assert isinstance(out, Forall) and out.bound != "x"


# ---------------------------------------------------------------------------
# erase_term


def test_erase_forall_guard():
    t = Forall("x", NAT, Eq(NAT, Var("x"), Var("x")))
    out = erase_term(t, STRONG)
    expected = Forall(
        "x",
        NAT,
        Implies(apply(Var("nat*"), Var("x"), Var("x")), apply(Var("nat*"), Var("x"), Var("x"))),
    )
    assert alpha_eq(out, expected)


def test_erase_unannotated_equality_rejected():
    with pytest.raises(ErasureError):
        erase_term(Eq(None, Var("x"), Var("x")), STRONG)


COUNTEREXAMPLE_SRC = """\
type a : pi x : $o . tp
const c : a $false
"""


def _counterexample_eps():
    thy, _ = parse_theory(COUNTEREXAMPLE_SRC)
    t = parse_term("eps x : a $false . $true")
    _, _, elaborated = infer_type_elaborated(thy, Context(), t, Mode.WEAK_EPSILON)
    return thy, elaborated


def test_strong_erasure_of_choice_golden():
    _, t = _counterexample_eps()
    out = beta_normalize(erase_term(t, STRONG))
    a = Base("a")
    guard = apply(Var("a*"), FALSE, Var("x"), Var("x"))
    expected = Choice("x", a, conj(guard, top()))
    assert alpha_eq(out, beta_normalize(expected))


def test_weak_erasure_of_choice_golden():
    _, t = _counterexample_eps()
    out = beta_normalize(erase_term(t, WEAK))
    a = Base("a")
    guard = apply(Var("a*"), FALSE, Var("x"), Var("x"))
    body = conj(guard, top())
    witness = exists("x", a, body)
    with_witness = Choice("x", a, body)
    without_witness = Choice("x", a, guard)
    expected = Choice(
        "z",
        a,
        disj(
            conj(witness, Eq(a, Var("z"), with_witness)),
            conj(neg(witness), Eq(a, Var("z"), without_witness)),
        ),
    )
    assert alpha_eq(out, beta_normalize(expected))


def test_erase_theory_counterexample():
    thy, _ = parse_theory(COUNTEREXAMPLE_SRC)
    rep = check_theory(thy, None, Mode.STRONG_EPSILON)
    er = erase_theory(rep.theory_elaborated, Context(), STRONG)
    decls = list(er.hol_theory)
    assert decls[0] == BaseTypeDecl("a")
    assert decls[1].name == "a*"
    assert alpha_eq(decls[1].ty, Pi("_", BOOL, Pi("_", Base("a"), Pi("_", Base("a"), BOOL))))
    collapse = decls[2]
    assert isinstance(collapse, AxiomDecl)
    expected_collapse = Forall(
        "x",
        BOOL,
        Forall(
            "u",
            Base("a"),
            Forall(
                "v",
                Base("a"),
                Implies(
                    apply(Var("a*"), Var("x"), Var("u"), Var("v")),
                    Eq(Base("a"), Var("u"), Var("v")),
                ),
            ),
        ),
    )
    assert alpha_eq(collapse.term, expected_collapse)
    assert decls[3] == ConstDecl("c", Base("a"))
    assert isinstance(decls[4], AxiomDecl)
    assert alpha_eq(decls[4].term, apply(Var("a*"), FALSE, Var("c"), Var("c")))
    assert any(isinstance(d, ConstDecl) and d.name == "a*" for d in er.hol_theory)


def test_erase_empty_theory():
    er = erase_theory(parse_theory("")[0], Context(), STRONG)
    assert len(er.hol_theory) == 0 and len(er.hol_context) == 0


# ---------------------------------------------------------------------------
# variant agreement / HOL-fragment identity


def _differences_rooted_at_choice(a, b) -> bool:
    """True iff a and b differ only in subtrees rooted at a Choice node."""
    if type(a) is not type(b):
        return False
    match a:
        case Choice():
            return True  # any difference below is fine
        case Var() | Falsum():
            return a == b
        case Lambda() | Forall():
            return (
                a.bound == b.bound
                and _ty_diff_ok(a.annot, b.annot)
                and _differences_rooted_at_choice(a.body, b.body)
            )
        case App():
            return _differences_rooted_at_choice(a.fun, b.fun) and _differences_rooted_at_choice(
                a.arg, b.arg
            )
        case Implies():
            return _differences_rooted_at_choice(a.lhs, b.lhs) and _differences_rooted_at_choice(
                a.rhs, b.rhs
            )
        case Eq():
            return _ty_diff_ok(a.ty, b.ty) and _differences_rooted_at_choice(
                a.lhs, b.lhs
            ) and _differences_rooted_at_choice(a.rhs, b.rhs)
        case _:
            return a == b


def _ty_diff_ok(a, b):
    if a is None or b is None:
        return a is b
    if type(a) is not type(b):
        return False
    match a:
        case Base():
            return a.name == b.name and len(a.args) == len(b.args) and all(
                _differences_rooted_at_choice(x, y) for x, y in zip(a.args, b.args)
            )
        case Pi():
            return _ty_diff_ok(a.domain, b.domain) and _ty_diff_ok(a.codomain, b.codomain)
        case _:
            return True


def test_variant_agreement_fuzz():
    gen = TermGen(11)
    for _ in range(150):
        t = gen.boolean([], 3)
        s = erase_term(t, STRONG)
        w = erase_term(t, WEAK)
        assert _differences_rooted_at_choice(s, w)


def test_identity_on_hol_fragment():
    # over arity-0 base types without choice, the variants coincide exactly
    src = "type u : tp\nconst d : u\nconst h : u > $o\n"
    thy, _ = parse_theory(src)
    for text in ("! x : u . h x => h x", "h d & ~ h d", "? x : u . x = d"):
        t = parse_term(text)
        _, _, elaborated = infer_type_elaborated(thy, Context(), t, Mode.STRONG_EPSILON)
        assert erase_term(elaborated, STRONG) == erase_term(elaborated, WEAK)


# ---------------------------------------------------------------------------
# compositionality (smoke; the acceptance suite runs the full 1000 per variant)


def test_compositionality_smoke():
    gen = TermGen(23)
    for _ in range(100):
        t = gen.boolean([("v", NAT)], 3)
        u = gen.nat([], 2)
        for variant in (STRONG, WEAK):
            lhs = erase_term(subst(t, "v", u), variant)
            rhs = subst(erase_term(t, variant), "v", erase_term(u, variant))
            assert alpha_eq(lhs, rhs)


def test_beta_normalize_reduces_redexes():
    t = App(Lambda("x", NAT, App(Var("q"), Var("x"))), numeral(1))
    assert beta_normalize(t) == App(Var("q"), numeral(1))


# ---------------------------------------------------------------------------
# beta_normalize against the rebuilding reference


def _rebuilding_beta_normalize(t):
    """The reference: beta_normalize as it was before it returned unchanged
    nodes, rebuilding every node it visits."""
    norm = _rebuilding_beta_normalize
    match t:
        case Var() | Falsum():
            return t
        case App(fun=f, arg=a):
            f2 = norm(f)
            a2 = norm(a)
            if isinstance(f2, Lambda):
                return norm(subst(f2.body, f2.bound, a2))
            return App(f2, a2)
        case Implies(lhs=l, rhs=r):
            return Implies(norm(l), norm(r))
        case Eq(ty=ty, lhs=l, rhs=r):
            return Eq(norm(ty) if ty is not None else None, norm(l), norm(r))
        case Lambda(bound=x, annot=a, body=b):
            return Lambda(x, norm(a), norm(b))
        case Forall(bound=x, annot=a, body=b):
            return Forall(x, norm(a), norm(b))
        case Choice(bound=x, annot=a, body=b):
            return Choice(x, norm(a), norm(b))
        case Bool():
            return t
        case Base(name=n, args=args):
            return Base(n, tuple(norm(a) for a in args))
        case Pi(bound=x, domain=d, codomain=c):
            return Pi(x, norm(d), norm(c))
        case _:
            raise ErasureError(f"not a term or type: {t!r}")


def _erased_corpus_formulas():
    """Every distinct formula object that discharge normalises: the axioms,
    assumptions and conjecture of each corpus obligation, in both modes."""
    from dholc.corpus import gen_all

    seen = {}
    for e in gen_all():
        for mode in (Mode.STRONG_EPSILON, Mode.WEAK_EPSILON):
            for ob in check_theory(e.theory, e.conjecture, mode).obligations:
                decls = tuple(ob.hol_theory) + tuple(ob.hol_context)
                for t in [d.term for d in decls if isinstance(d, AxiomDecl)] + [ob.conjecture]:
                    seen.setdefault(id(t), t)
    return list(seen.values())


def _generated_redexes(n):
    """n generated terms, each a beta-redex applied to a generated numeral,
    with their strong and weak erasures (whose PERs add redexes of their
    own)."""
    out = []
    for seed in range(n):
        gen = TermGen(500 + seed)
        redex = App(Lambda("v", NAT, gen.boolean([("v", NAT)], 3)), gen.nat([], 2))
        out += [redex, erase_term(redex, STRONG), erase_term(redex, WEAK)]
    return out


def test_beta_normalize_matches_the_rebuilding_reference():
    corpus = _erased_corpus_formulas()
    generated = _generated_redexes(200)
    changed = 0
    for t in corpus + generated:
        out = beta_normalize(t)
        assert out == _rebuilding_beta_normalize(t), t
        # what comes out is normal, so it comes back itself
        assert beta_normalize(out) is out
        changed += out is not t
    assert len(corpus) > 500 and changed >= len(generated)


def test_beta_normalize_returns_normal_input_itself():
    body = Implies(App(Var("q"), Var("x")), Eq(NAT, Var("x"), numeral(2)))
    normal = Forall("x", FIN(numeral(1)), body)
    assert beta_normalize(normal) is normal
    kept = 0
    for t in _erased_corpus_formulas():
        if _rebuilding_beta_normalize(t) == t:
            assert beta_normalize(t) is t, t
            kept += 1
    assert kept > 500
