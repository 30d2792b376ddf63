import pytest

from dholc.corpus import FAMILY, gen_all, gen_problem, write_corpus
from dholc.erasure import ErasureVariant, erase_theory
from dholc.kernel import Mode, check_theory
from dholc.parser import parse_theory
from dholc.syntax import (
    App,
    AxiomDecl,
    Base,
    Choice,
    ConstDecl,
    Context,
    Var,
    alpha_key,
    subterms,
)


def test_family_count():
    entries = gen_all()
    assert len(entries) == 29
    assert len(entries) >= 29  # 3 + 2 + 1 + 10 + 10 + 3 described members
    assert [e.name for e in entries] == FAMILY


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown corpus problem"):
        gen_problem("no_fp_fin11_reg")


@pytest.mark.parametrize(
    "alias",
    ["no_fp_fin09_reg", "no_fp_fin 9_min", "no_fp_fin+9_reg", "no_fp_fin9 _reg",
     "no_fp_fin0_9_min"],
)
def test_only_canonical_names_are_problems(alias):
    # each would parse to a fin size between 0 and 9; only the registry's
    # spelling names a problem
    with pytest.raises(ValueError, match="unknown corpus problem"):
        gen_problem(alias)


def test_expectations_spot_checks():
    assert gen_problem("no_fp_fin1_reg").expected["eps1_typecheck"] == "no"
    assert gen_problem("no_fp_fin0_min").expected["eps2_typecheck"] == "yes"
    assert gen_problem("no_fp_fin0_min").expected["eps1_typecheck"] == "no"
    assert gen_problem("choice_def1").expected["eps1_prove"] == "yes"
    assert gen_problem("choice_eq2").expected["eps1_prove"] == "prover-dependent"
    assert gen_problem("no_fp_fin9_min").expected["eps2_prove"] == "prover-dependent"
    assert gen_problem("list_nonempty").expected["eps1_typecheck"] == "prover-dependent"


def test_choice_def1_shape():
    e = gen_problem("choice_def1")
    consts = [d.name for d in e.theory if isinstance(d, ConstDecl)]
    assert consts == ["0", "s", "fz", "fs", "p"]
    axioms = [d.label for d in e.theory if isinstance(d, AxiomDecl)]
    assert axioms == ["p_witness"]
    # conjecture: p applied to a choice over fin 2
    assert isinstance(e.conjecture, App)
    eps = e.conjecture.arg
    assert isinstance(eps, Choice)
    assert isinstance(eps.annot, Base) and eps.annot.name == "fin"


def test_numerals_expanded_in_ast():
    e = gen_problem("no_fp_fin2_reg")
    fins = [
        t.annot
        for t in subterms(e.conjecture)
        if isinstance(t, Choice) or t.__class__.__name__ == "Forall"
        if isinstance(getattr(t, "annot", None), Base)
    ]
    assert fins, "expected fin annotations"
    for annot in fins:
        (arg,) = annot.args
        # iterated s applied to the constant 0
        while isinstance(arg, App):
            assert isinstance(arg.fun, Var) and arg.fun.name == "s"
            arg = arg.arg
        assert arg == Var("0")


def test_every_entry_structurally_valid_both_modes():
    for e in gen_all():
        for mode in (Mode.STRONG_EPSILON, Mode.WEAK_EPSILON):
            rep = check_theory(e.theory, e.conjecture, mode)
            assert rep.ok, (e.name, mode, rep.diagnostics)


def test_reg_axioms_are_a_superset_of_min():
    for n in range(10):
        reg = gen_problem(f"no_fp_fin{n}_reg")
        mn = gen_problem(f"no_fp_fin{n}_min")
        reg_keys = {alpha_key(d.term) for d in reg.theory if isinstance(d, AxiomDecl)}
        min_keys = {alpha_key(d.term) for d in mn.theory if isinstance(d, AxiomDecl)}
        assert min_keys < reg_keys  # strict: emptiness/exhaustiveness are extra


def test_generation_deterministic():
    a = [(e.name, e.source) for e in gen_all()]
    b = [(e.name, e.source) for e in gen_all()]
    assert a == b


def test_write_corpus_byte_identical(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    files1 = write_corpus(d1)
    files2 = write_corpus(d2)
    assert [p.name for p in files1] == [p.name for p in files2]
    for p1, p2 in zip(files1, files2):
        assert p1.read_bytes() == p2.read_bytes()
    manifest = (d1 / "manifest").read_text()
    assert "choice_nq\tprover-dependent" in manifest
    assert "no_fp_fin1_reg\tno" in manifest
    assert "29" in manifest and "34" in manifest


def test_sources_reparse():
    for e in gen_all():
        thy, conj = parse_theory(e.source)
        assert conj is not None
        assert len(thy) == len(e.theory)


def test_erasure_of_every_entry_succeeds():
    for e in gen_all():
        for mode, variant in (
            (Mode.STRONG_EPSILON, ErasureVariant.STRONG),
            (Mode.WEAK_EPSILON, ErasureVariant.WEAK),
        ):
            rep = check_theory(e.theory, e.conjecture, mode)
            er = erase_theory(rep.theory_elaborated, Context(), variant)
            assert len(er.hol_theory) >= len(e.theory)


def _answer(statuses):
    """What a list of verdict statuses answers: "no" when one is refuted,
    "yes" when all are discharged, None while one stays open."""
    if any(s.startswith("refuted") for s in statuses):
        return "no"
    if all(s.startswith("discharged") for s in statuses):
        return "yes"
    return None


def test_no_manifest_cell_is_answered_the_wrong_way():
    # typecheck asks about the typing obligations, prove about all of them;
    # a theory the kernel rejects answers "no" to both
    from dholc.kernel import ObligationKind
    from dholc.prover import DESK_BUDGET, discharge

    answered = 0
    for e in gen_all():
        for mode in (Mode.STRONG_EPSILON, Mode.WEAK_EPSILON):
            rep = check_theory(e.theory, e.conjecture, mode)
            if rep.ok:
                verdicts = discharge(rep.obligations, budget=DESK_BUDGET).verdicts
                statuses = [v.status for v in verdicts]
                typing = [v.status for v in verdicts if v.kind != ObligationKind.CONJECTURE.value]
                answers = {"typecheck": _answer(typing), "prove": _answer(statuses)}
            else:
                answers = {"typecheck": "no", "prove": "no"}
            for question, got in answers.items():
                cell = e.expected[f"{mode.value}_{question}"]
                if got is None or cell not in ("yes", "no"):
                    continue
                assert got == cell, (e.name, mode.value, question)
                answered += 1
    assert answered > 20  # 29 of the 116 cells are answered at desk budget
