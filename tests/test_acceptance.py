"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s``.  Criterion 5's rows that
genuinely require an external THF prover are asserted only when
DHOL_PROVER_CMD is configured; the bundled, sound desk-scale machinery decides
the gated rows unconditionally.
"""

import os
import time

from dholc.corpus import gen_all, gen_problem
from dholc.erasure import ErasureVariant, beta_normalize, erase_term, erase_theory
from dholc.kernel import Mode, ObligationKind, check_theory, infer_type, infer_type_elaborated
from dholc.oracle import SearchBudget, countermodel
from dholc.parser import parse_term, parse_theory
from dholc.prover import ProverConfig, discharge
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
    Forall,
    Implies,
    Pi,
    Theory,
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

from genterms import NAT, FIN, TermGen

STRONG = ErasureVariant.STRONG
WEAK = ErasureVariant.WEAK


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok


COUNTEREXAMPLE_SRC = """\
type a : pi x : $o . tp
const c : a $false
"""


def _counterexample():
    thy, _ = parse_theory(COUNTEREXAMPLE_SRC)
    rep = check_theory(thy, None, Mode.STRONG_EPSILON)
    t = parse_term("eps x : a $false . $true")
    _, _, elaborated = infer_type_elaborated(thy, Context(), t, Mode.STRONG_EPSILON)
    return rep.theory_elaborated, elaborated


def test_criterion_1_erasure_golden():
    start = time.monotonic()
    _, eps = _counterexample()
    a = Base("a")
    guard = apply(Var("a*"), FALSE, Var("x"), Var("x"))
    body = conj(guard, top())

    strong_expected = Choice("x", a, body)
    got_strong = beta_normalize(erase_term(eps, STRONG))
    ok_strong = alpha_eq(got_strong, beta_normalize(strong_expected))

    witness = exists("x", a, body)
    weak_expected = Choice(
        "z",
        a,
        disj(
            conj(witness, Eq(a, Var("z"), Choice("x", a, body))),
            conj(neg(witness), Eq(a, Var("z"), Choice("x", a, guard))),
        ),
    )
    got_weak = beta_normalize(erase_term(eps, WEAK))
    ok_weak = alpha_eq(got_weak, beta_normalize(weak_expected))

    elapsed = time.monotonic() - start
    _report(
        1,
        ok_strong and ok_weak and elapsed < 1.0,
        f"strong and weak erasures match the displayed terms ({elapsed:.2f}s < 1s)",
    )


def test_criterion_2_incompleteness_witness():
    start = time.monotonic()
    thy_elab, _ = _counterexample()
    hol = erase_theory(thy_elab, Context(), STRONG).hol_theory
    a = Base("a")

    naive = Choice("x", a, top())
    naive_reflexive = apply(Var("a*"), FALSE, naive, naive)
    found = countermodel(hol, naive_reflexive, SearchBudget(max_size=2))
    ok_naive = found.found and max(found.model.sizes.values()) <= 2

    guard = apply(Var("a*"), FALSE, Var("x"), Var("x"))
    guarded = Choice("x", a, conj(guard, top()))
    guarded_reflexive = apply(Var("a*"), FALSE, guarded, guarded)
    none = countermodel(hol, guarded_reflexive, SearchBudget(max_size=3))
    ok_guarded = none.status == "none"

    elapsed = time.monotonic() - start
    _report(
        2,
        ok_naive and ok_guarded and elapsed < 10.0,
        f"naive erasure refuted at |a|<=2, guarded erasure solid up to 3 ({elapsed:.2f}s < 10s)",
    )


def test_criterion_3_completeness_shape():
    start = time.monotonic()
    checked_theories = checked_obligations = 0
    for entry in gen_all():
        for mode, variant in (
            (Mode.STRONG_EPSILON, STRONG),
            (Mode.WEAK_EPSILON, WEAK),
        ):
            rep = check_theory(entry.theory, entry.conjecture, mode)
            assert rep.ok, (entry.name, mode)
            erased = erase_theory(rep.theory_elaborated, Context(), variant)
            hol_rep = check_theory(erased.hol_theory, None, Mode.SIMPLE_HOL)
            assert hol_rep.ok, (entry.name, mode, hol_rep.diagnostics)
            assert hol_rep.obligations == []
            conj_erased = erase_term(rep.conjecture_elaborated, variant)
            ty, obs = infer_type(erased.hol_theory, Context(), conj_erased, Mode.SIMPLE_HOL)
            assert isinstance(ty, Bool) and obs == []
            checked_theories += 1
            for ob in rep.obligations:
                ty, obs = infer_type(
                    ob.hol_theory, ob.hol_context, ob.conjecture, Mode.SIMPLE_HOL
                )
                assert isinstance(ty, Bool) and obs == [], (entry.name, ob.id)
                checked_obligations += 1
    elapsed = time.monotonic() - start
    _report(
        3,
        elapsed < 30.0,
        f"{checked_theories} erased theories and {checked_obligations} obligations "
        f"accepted by the simple-HOL checker ({elapsed:.1f}s < 30s)",
    )


def test_criterion_4_compositionality():
    start = time.monotonic()
    failures = 0
    for variant in (STRONG, WEAK):
        gen = TermGen(2024 if variant is STRONG else 4202)
        for i in range(1000):
            ty = (NAT, BOOL, FIN(App(Var("s"), Var("0"))))[i % 3]
            t = gen.boolean([("v", ty)], 3)
            u = gen.of_type([], ty, 2)
            lhs = erase_term(subst(t, "v", u), variant)
            rhs = subst(erase_term(t, variant), "v", erase_term(u, variant))
            if not alpha_eq(lhs, rhs):
                failures += 1
    elapsed = time.monotonic() - start
    _report(
        4,
        failures == 0,
        f"erase∘subst = subst∘erase on 1000 terms per variant, {failures} failures "
        f"({elapsed:.1f}s)",
    )


# Desk-scale type-check verdicts pinned by the case analysis; True = all
# typing obligations discharged by the bundled machinery.
GATED_ROWS = [
    ("choice_nq", Mode.STRONG_EPSILON, False),
    ("choice_nq", Mode.WEAK_EPSILON, False),
    ("no_fp_fin1_reg", Mode.STRONG_EPSILON, False),
    ("no_fp_fin1_min", Mode.STRONG_EPSILON, False),
    ("no_fp_fin0_min", Mode.STRONG_EPSILON, False),
    ("no_fp_fin0_reg", Mode.STRONG_EPSILON, True),
    ("no_fp_fin0_reg", Mode.WEAK_EPSILON, True),
    ("no_fp_fin0_min", Mode.WEAK_EPSILON, True),
    ("no_fp_fin1_reg", Mode.WEAK_EPSILON, True),
    ("no_fp_fin1_min", Mode.WEAK_EPSILON, True),
]


def _typecheck_verdict(entry, mode, cfg=None) -> bool:
    rep = check_theory(entry.theory, entry.conjecture, mode)
    assert rep.ok
    report = discharge(rep.typing_obligations, cfg=cfg)
    return report.all_discharged


def test_criterion_5_typecheck_matrix():
    start = time.monotonic()
    for name, mode, expected in GATED_ROWS:
        got = _typecheck_verdict(gen_problem(name), mode)
        assert got == expected, (name, mode.value, "expected", expected, "got", got)

    cmd = os.environ.get("DHOL_PROVER_CMD")
    cfg = ProverConfig(command=cmd) if cmd else None
    atp_rows = checked_atp = 0
    for entry in gen_all():
        for mode, key in (
            (Mode.STRONG_EPSILON, "eps1_typecheck"),
            (Mode.WEAK_EPSILON, "eps2_typecheck"),
        ):
            expected = entry.expected[key]
            if expected == "prover-dependent":
                continue
            if any(entry.name == n and mode is m for n, m, _ in GATED_ROWS):
                continue  # already asserted at desk scale
            atp_rows += 1
            if cfg is not None:
                got = _typecheck_verdict(entry, mode, cfg=cfg)
                assert got == (expected == "yes"), (entry.name, mode.value)
                checked_atp += 1
    elapsed = time.monotonic() - start
    suffix = (
        f"{checked_atp} further rows verified with the configured prover"
        if cfg
        else f"{atp_rows} further rows need an external prover (DHOL_PROVER_CMD unset)"
    )
    _report(5, True, f"all {len(GATED_ROWS)} gated type-check verdicts match; {suffix} ({elapsed:.1f}s)")


def test_criterion_6_choice_rule_semantics():
    start = time.monotonic()
    a = Base("a")
    pty = Pi("_", a, BOOL)
    px = App(Var("p"), Var("x"))
    bodies = [
        FALSE,
        top(),
        px,
        neg(px),
        conj(px, neg(px)),
        disj(px, neg(px)),
        Implies(px, FALSE),
        Eq(BOOL, px, top()),
        conj(px, px),
    ]
    from dholc.oracle import FiniteModel, eval_term

    violations = witnesses = 0
    for size in (1, 2, 3):
        for table in range(2**size):
            model = FiniteModel(sizes={"a": size}, consts={"p": table}, types={"p": pty})
            for body in bodies:
                if eval_term(model, {}, exists("x", a, body)):
                    witnesses += 1
                    eps = Choice("x", a, body)
                    if eval_term(model, {}, subst(body, "x", eps)) != 1:
                        violations += 1
    elapsed = time.monotonic() - start
    _report(
        6,
        violations == 0 and witnesses > 0,
        f"choice rule holds in every finite model: {witnesses} witnessed cases, "
        f"{violations} violations ({elapsed:.1f}s)",
    )


def test_criterion_7_thf_round_trip():
    from dholc.thf import emit_thf, parse_thf

    start = time.monotonic()
    problems = 0
    for entry in gen_all():
        for mode, variant in (
            (Mode.STRONG_EPSILON, STRONG),
            (Mode.WEAK_EPSILON, WEAK),
        ):
            rep = check_theory(entry.theory, entry.conjecture, mode)
            erased = erase_theory(rep.theory_elaborated, Context(), variant)
            conj_erased = erase_term(rep.conjecture_elaborated, variant)
            emitted = emit_thf(erased, entry.name, conjecture=conj_erased)
            thy2, conj2 = parse_thf(emitted.text, emitted.symbol_map)
            rep2 = check_theory(thy2, conj2, Mode.SIMPLE_HOL)
            assert rep2.ok, (entry.name, variant, rep2.diagnostics)
            assert alpha_eq(rep2.conjecture_elaborated, conj_erased), (entry.name, variant)
            axioms = [d for d in rep2.theory_elaborated if isinstance(d, AxiomDecl)]
            want = [d for d in erased.hol_theory if isinstance(d, AxiomDecl)]
            assert len(axioms) == len(want)
            for got, orig in zip(axioms, want):
                assert got.label == orig.label
                assert alpha_eq(got.term, orig.term), (entry.name, variant, got.label)
            problems += 1
    elapsed = time.monotonic() - start
    _report(
        7,
        elapsed < 5.0,
        f"{problems} emitted problems re-parse to alpha-equal ASTs ({elapsed:.1f}s < 5s)",
    )


def test_criterion_8_mode_implication():
    start = time.monotonic()
    failures = 0
    sites = 0
    for entry in gen_all():
        strong = check_theory(entry.theory, entry.conjecture, Mode.STRONG_EPSILON)
        weak = check_theory(entry.theory, entry.conjecture, Mode.WEAK_EPSILON)
        sw = [o for o in strong.obligations if o.kind is ObligationKind.CHOICE_WITNESS]
        wo = [o for o in weak.obligations if o.kind is ObligationKind.TYPE_INHABITED]
        assert len(sw) == len(wo)
        for s, w in zip(sw, wo):
            sites += 1
            decls, seen = [], set()
            for d in (
                tuple(s.hol_theory)
                + tuple(s.hol_context)
                + tuple(w.hol_theory)
                + tuple(w.hol_context)
            ):
                if isinstance(d, (BaseTypeDecl, ConstDecl)) and d.name not in seen:
                    seen.add(d.name)
                    decls.append(d)
            implication = Implies(s.conjecture, w.conjecture)
            # no axioms: every base type, and only the constants it mentions
            wanted = set(free_vars(implication))
            sig = Theory(
                tuple(d for d in decls if isinstance(d, BaseTypeDecl) or d.name in wanted)
            )
            r = countermodel(
                sig, implication, SearchBudget(max_size=2, max_models=2_000_000, max_seconds=60)
            )
            if r.status != "none":
                failures += 1
    elapsed = time.monotonic() - start
    _report(
        8,
        failures == 0 and sites >= 29,
        f"strong ⇒ weak obligation implication valid for all {sites} choice sites "
        f"({elapsed:.1f}s)",
    )
