import random
import sys
from pathlib import Path

import pytest

from dholc import kernel
from dholc.erasure import erase_theory
from dholc.kernel import (
    KernelError,
    Mode,
    ObligationKind,
    check_theory,
    infer_type,
    infer_type_elaborated,
    type_equal,
)
from dholc.oracle import SearchBudget, countermodel, merge_context
from dholc.parser import parse_term, parse_theory, parse_type
from dholc.syntax import (
    App,
    AxiomDecl,
    Base,
    BaseTypeDecl,
    BOOL,
    Bool,
    ConstDecl,
    Context,
    Eq,
    Forall,
    Implies,
    Pi,
    Var,
    alpha_eq,
    alpha_key,
    apply,
    free_vars,
    print_term,
    top,
)

from genterms import THEORY

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import synth_theory  # noqa: E402

E1 = Mode.STRONG_EPSILON
E2 = Mode.WEAK_EPSILON
HOL = Mode.SIMPLE_HOL


def numeral(n):
    t = Var("0")
    for _ in range(n):
        t = App(Var("s"), t)
    return t


# ---------------------------------------------------------------------------
# infer_type


def test_infer_lambda_identity():
    t = parse_term("^ x : $o . x")
    ty, obs = infer_type(THEORY, Context(), t, E1)
    assert alpha_eq(ty, Pi("x", BOOL, BOOL))
    assert obs == []


COUNTEREXAMPLE_SRC = """\
type a : pi x : $o . tp
const c : a $false
"""


def test_infer_choice_weak_inhabitation():
    thy, _ = parse_theory(COUNTEREXAMPLE_SRC)
    t = parse_term("eps x : a $false . $true")
    ty, obs = infer_type(thy, Context(), t, E2)
    assert alpha_eq(ty, parse_type("a $false"))
    assert [o.kind for o in obs] == [ObligationKind.TYPE_INHABITED]
    # the witness c makes this obligation dischargeable (see prover tests)


def test_infer_choice_strong_vs_weak_on_singleton():
    src = "type nat : tp\nconst 0 : nat\nconst s : nat > nat\n" + (
        "type fin : pi n : nat . tp\n"
    )
    thy, _ = parse_theory(src)
    t = parse_term("^ x : fin 1 . eps y : fin 1 . ~(x = y)")
    _, strong_obs = infer_type(thy, Context(), t, E1)
    assert [o.kind for o in strong_obs] == [ObligationKind.CHOICE_WITNESS]
    _, weak_obs = infer_type(thy, Context(), t, E2)
    assert [o.kind for o in weak_obs] == [ObligationKind.TYPE_INHABITED]
    # the binder's variable is available as context in both premises
    assert any(isinstance(d, ConstDecl) and d.name == "x" for d in strong_obs[0].hol_context)


def test_infer_errors():
    with pytest.raises(KernelError, match="unbound name"):
        infer_type(THEORY, Context(), Var("nope"), E1)
    with pytest.raises(KernelError, match="non-function"):
        infer_type(THEORY, Context(), App(Var("0"), Var("0")), E1)
    with pytest.raises(KernelError, match="boolean expected"):
        infer_type(THEORY, Context(), Implies(Var("0"), Var("0")), E1)
    with pytest.raises(KernelError, match="simple-HOL"):
        infer_type(THEORY, Context(), parse_term("eps x : fin 1 . $false"), HOL)


# ---------------------------------------------------------------------------
# type_equal


def test_type_equal_alpha_identical():
    A = parse_type("fin (s 0)")
    B = parse_type("fin 1")
    assert type_equal(THEORY, Context(), A, B, E1) == []


def test_type_equal_head_mismatch():
    with pytest.raises(KernelError, match="type mismatch"):
        type_equal(THEORY, Context(), BOOL, parse_type("fin 0"), E1)


TWO_SRC = """\
type nat : tp
const 0 : nat
const s : nat > nat
const two : nat
axiom two_def : two = s (s 0)
type fin : pi n : nat . tp
"""


def test_type_equal_emits_erased_equation():
    thy, _ = parse_theory(TWO_SRC)
    A = parse_type("fin (s (s 0))")
    B = parse_type("fin two")
    obs = type_equal(thy, Context(), A, B, E1)
    assert len(obs) == 1
    ob = obs[0]
    assert ob.kind is ObligationKind.TYPE_EQ
    # golden: the erased equation applies the PER of nat to both spellings
    assert alpha_eq(ob.conjecture, apply(Var("nat*"), numeral(2), Var("two")))
    # cross-validate with the model oracle: no countermodel, i.e. provable
    merged = merge_context(ob.hol_theory, ob.hol_context)
    r = countermodel(merged, ob.conjecture, SearchBudget(max_size=2, max_models=500_000))
    assert r.status == "none"


# ---------------------------------------------------------------------------
# check_theory


def test_counterexample_theory_well_formed():
    thy, _ = parse_theory(COUNTEREXAMPLE_SRC)
    rep = check_theory(thy, None, E1)
    assert rep.ok and rep.obligations == []
    assert rep.decl_status == [("a", "ok"), ("c", "ok")]


def test_empty_theory_trivial_conjecture():
    rep = check_theory(parse_theory("")[0], top(), E1)
    assert rep.ok
    assert [o.kind for o in rep.obligations] == [ObligationKind.CONJECTURE]
    assert rep.conjecture_type == BOOL


def test_axiom_must_be_boolean():
    thy, _ = parse_theory("type u : tp\nconst d : u\n")
    bad = thy.extended(AxiomDecl("bad", Var("d")))
    rep = check_theory(bad, None, E1)
    assert not rep.ok
    assert rep.decl_status[-1] == ("bad", "error")


def test_checking_continues_after_failure():
    thy, _ = parse_theory("type u : tp\nconst d : u\n")
    broken = thy.extended(ConstDecl("e", Base("missing")), ConstDecl("f", Base("u")))
    rep = check_theory(broken, None, E1)
    assert [s for _, s in rep.decl_status] == ["ok", "ok", "error", "ok"]


def test_redeclaration_is_an_error():
    thy, _ = parse_theory("type u : tp\n")
    rep = check_theory(thy.extended(BaseTypeDecl("u")), None, E1)
    assert not rep.ok


def test_determinism_of_reports():
    from dholc.corpus import gen_problem

    e = gen_problem("no_fp_fin2_reg")
    r1 = check_theory(e.theory, e.conjecture, E1)
    r2 = check_theory(e.theory, e.conjecture, E1)
    assert [o.id for o in r1.obligations] == [o.id for o in r2.obligations]
    assert [alpha_key(o.conjecture) for o in r1.obligations] == [
        alpha_key(o.conjecture) for o in r2.obligations
    ]


def test_obligation_deduplication():
    # two alpha-identical choice sites produce one obligation
    thy, _ = parse_theory("type u : tp\nconst h : u > $o\n")
    t = parse_term("h (eps x : u . h x) & h (eps y : u . h y)")
    _, obs = infer_type(thy, Context(), t, E1)
    assert len(obs) == 1


def test_shadowing_binder_renamed_in_obligations():
    # a binder may shadow a theory constant; the obligation's flattened
    # signature must stay collision-free
    from dholc.prover import discharge_one

    thy, _ = parse_theory("type u : tp\nconst h : u > $o\nconst d : u\n")
    t = parse_term("^ d : u . eps y : u . ~(y = d)")
    ty, obs, elaborated = infer_type_elaborated(thy, Context(), t, E2)
    assert elaborated.bound != "d"
    (ob,) = obs
    names = [c.name for c in tuple(ob.hol_theory) + tuple(ob.hol_context) if isinstance(c, ConstDecl)]
    assert len(names) == len(set(names))
    assert discharge_one(ob).discharged  # the lambda's variable witnesses u


def test_context_shadows_theory_in_lookups():
    thy, _ = parse_theory("type u : tp\ntype w : tp\nconst c : u\n")
    ctx = Context((ConstDecl("c", Base("w")),))
    ty, _ = infer_type(thy, ctx, Var("c"), E1)
    assert alpha_eq(ty, Base("w"))


def test_each_declaration_erased_once(monkeypatch):
    # Per obligation only the local binder context is erased; the theory
    # prefix was erased declaration by declaration as it was accepted.
    passed = []
    real = kernel.erase_theory

    def counting(thy, ctx, variant):
        passed.append(len(thy) + len(ctx))
        return real(thy, ctx, variant)

    monkeypatch.setattr(kernel, "erase_theory", counting)
    thy, conjecture = parse_theory(synth_theory(40, random.Random(0)))
    for mode in (E1, E2):
        passed.clear()
        rep = check_theory(thy, conjecture, mode)
        assert rep.ok and len(rep.obligations) == 41
        accepted = sum(status == "ok" for _, status in rep.decl_status)
        contexts = sum(len(ob.hol_context) for ob in rep.obligations)
        assert sum(passed) <= accepted + contexts


@pytest.mark.parametrize("mode", [E1, E2])
def test_obligation_theories_are_prefixes_of_the_erased_theory(mode):
    from dholc.corpus import gen_all

    for e in gen_all():
        rep = check_theory(e.theory, e.conjecture, mode)
        full = tuple(erase_theory(rep.theory_elaborated, Context(), mode.variant).hol_theory)
        for ob in rep.obligations:
            hol = tuple(ob.hol_theory)
            assert hol == full[: len(hol)], (e.name, ob.id)


# ---------------------------------------------------------------------------
# simple-HOL mode: conservativity against an independent checker


def simple_type_of(thy, env, t):
    """Independent simple-type checker (oracle for the conservativity test);
    deliberately written directly against the typing rules, no sharing with
    the kernel."""
    from dholc.syntax import Choice, Falsum, Lambda

    match t:
        case Var(name=n):
            if n in env:
                return env[n]
            for d in thy:
                if isinstance(d, ConstDecl) and d.name == n:
                    return d.ty
            raise ValueError(f"unbound {n}")
        case App(fun=f, arg=a):
            fty = simple_type_of(thy, env, f)
            aty = simple_type_of(thy, env, a)
            if not isinstance(fty, Pi) or not alpha_eq(fty.domain, aty):
                raise ValueError("bad application")
            return fty.codomain
        case Falsum():
            return BOOL
        case Implies(lhs=l, rhs=r):
            if not (
                isinstance(simple_type_of(thy, env, l), Bool)
                and isinstance(simple_type_of(thy, env, r), Bool)
            ):
                raise ValueError("bad implication")
            return BOOL
        case Eq(lhs=l, rhs=r):
            if not alpha_eq(simple_type_of(thy, env, l), simple_type_of(thy, env, r)):
                raise ValueError("bad equality")
            return BOOL
        case Forall(bound=x, annot=a, body=b):
            if not isinstance(simple_type_of(thy, {**env, x: a}, b), Bool):
                raise ValueError("bad quantifier")
            return BOOL
        case Lambda(bound=x, annot=a, body=b):
            return Pi(x, a, simple_type_of(thy, {**env, x: a}, b))
        case Choice(bound=x, annot=a, body=b):
            if not isinstance(simple_type_of(thy, {**env, x: a}, b), Bool):
                raise ValueError("bad choice body")
            return a
        case _:
            raise ValueError(f"unknown node {t!r}")


HOL_SRC = """\
type u : tp
const d : u
const h : u > $o
const k : u > u
axiom hd : h d
"""


def test_hol_conservativity():
    thy, _ = parse_theory(HOL_SRC)
    for text in (
        "! x : u . h x => h x",
        "h (k d)",
        "? x : u . h (k x)",
        "(^ x : u . h x) d",
        "eps x : u . h x",
    ):
        t = parse_term(text)
        ty, obs, elaborated = infer_type_elaborated(thy, Context(), t, HOL)
        assert obs == []
        # agrees with the independent simple checker
        assert alpha_eq(ty, simple_type_of(thy, {}, elaborated))
    rep = check_theory(thy, parse_term("h d"), HOL)
    assert rep.ok
    assert [o.kind for o in rep.obligations] == [ObligationKind.CONJECTURE]


def test_simple_hol_rejects_dependencies():
    thy, _ = parse_theory(TWO_SRC)
    rep = check_theory(thy, None, HOL)
    assert not rep.ok  # fin is a dependent base type
    with pytest.raises(KernelError, match="dependent base type"):
        infer_type(THEORY, Context(), parse_term("^ x : fin 1 . x"), HOL)
    # a pi whose bound variable is unused is just an arrow and stays legal
    thy2, _ = parse_theory("type u : tp\n")
    ty, obs = infer_type(
        thy2, Context(), parse_term("^ f : (pi x : u . u) . f"), HOL
    )
    assert obs == []
