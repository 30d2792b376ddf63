import copy
import dataclasses
import pickle
import random
import sys
from pathlib import Path

import pytest

from dholc import thf
from dholc.erasure import ErasedTheory, ErasureVariant, erase_term, erase_theory
from dholc.kernel import Mode, ObligationKind, check_theory
from dholc.parser import parse_term, parse_theory
from dholc.syntax import (
    AxiomDecl,
    Base,
    BaseTypeDecl,
    BOOL,
    Choice,
    ConstDecl,
    Context,
    FALSE,
    Pi,
    Theory,
    Var,
    alpha_eq,
    top,
)
from dholc.thf import SymbolTable, ThfError, emit_thf, parse_thf

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import synth_theory  # noqa: E402


def test_falsum_conjecture_line():
    er = erase_theory(Theory(), Context(), ErasureVariant.STRONG)
    problem = emit_thf(er, "empty", conjecture=FALSE)
    assert "thf(goal, conjecture, $false)." in problem.text


def test_choice_binder_and_truth():
    thy, _ = parse_theory("type a : tp\n")
    rep = check_theory(thy, parse_term("(eps x : a . $true) = (eps x : a . $true)"), Mode.SIMPLE_HOL)
    ob = rep.conjecture_obligation
    problem = emit_thf(ob, "eps")
    assert "@+ [X:a]" in problem.text
    assert "$true" in problem.text


COUNTEREXAMPLE_SRC = """\
type a : pi x : $o . tp
const c : a $false
"""


def golden_counterexample_problem():
    thy, _ = parse_theory(COUNTEREXAMPLE_SRC)
    rep = check_theory(thy, None, Mode.STRONG_EPSILON)
    er = erase_theory(rep.theory_elaborated, Context(), ErasureVariant.STRONG)
    return emit_thf(er, "counterexample")


def test_mangling_and_golden_text():
    problem = golden_counterexample_problem()
    expected = """\
% problem: counterexample
thf(a_tp, type, a: $tType).
thf(aSTAR_tp, type, aSTAR: ($o > (a > (a > $o)))).
thf(a_star_collapse, axiom, ( ! [X:$o] : ( ! [U:a] : ( ! [V:a] : ((((aSTAR @ X) @ U) @ V) => (U = V)) ) ) )).
thf(c_tp, type, c: a).
thf(c_typed, axiom, (((aSTAR @ $false) @ c) @ c)).
"""
    assert problem.text == expected


def test_mangling_collision_resolution():
    table = SymbolTable()
    first = table.mangle("a*")
    second = table.mangle("aSTAR")
    third = table.mangle("0")
    assert first == "aSTAR"
    assert second != first
    assert third == "c0"
    # stable: re-mangling returns the recorded name
    assert table.mangle("a*") == first


def test_dependent_input_is_a_bug_guard():
    with pytest.raises(ThfError):
        emit_thf(
            erase_theory(Theory(), Context(), ErasureVariant.STRONG),
            "bad",
            conjecture=Choice("x", Base("fin", (FALSE,)), top()),
        )


def test_round_trip_counterexample():
    problem = golden_counterexample_problem()
    thy, conjecture = parse_thf(problem.text, problem.symbol_map)
    assert conjecture is None
    original = golden_counterexample_source_theory()
    assert len(thy) == len(original)
    for got, want in zip(thy, original):
        assert type(got) is type(want)
        if isinstance(got, AxiomDecl):
            assert got.label == want.label
            # equality annotations are erased in THF; compare unannotated
            from dholc.syntax import strip_eq_types

            assert alpha_eq(got.term, strip_eq_types(want.term))
        else:
            assert got.name == want.name


def golden_counterexample_source_theory():
    thy, _ = parse_theory(COUNTEREXAMPLE_SRC)
    rep = check_theory(thy, None, Mode.STRONG_EPSILON)
    return erase_theory(rep.theory_elaborated, Context(), ErasureVariant.STRONG).hol_theory


def test_round_trip_obligation_with_elaboration():
    thy, conj = parse_theory(COUNTEREXAMPLE_SRC + "conjecture : c = c\n")
    rep = check_theory(thy, conj, Mode.WEAK_EPSILON)
    for ob in rep.obligations:
        problem = emit_thf(ob, ob.id)
        parsed_thy, parsed_conj = parse_thf(problem.text, problem.symbol_map)
        assert parsed_conj is not None
        # re-derive equality annotations with the simple-HOL checker, then
        # compare against the emitted obligation exactly
        merged = Theory(tuple(ob.hol_theory) + tuple(ob.hol_context))
        rep2 = check_theory(parsed_thy, parsed_conj, Mode.SIMPLE_HOL)
        assert rep2.ok, rep2.diagnostics
        assert alpha_eq(rep2.conjecture_elaborated, ob.conjecture)
        for got, want in zip(rep2.theory_elaborated, merged):
            if isinstance(got, AxiomDecl):
                assert alpha_eq(got.term, want.term)


def test_symbol_map_records_back_mapping():
    problem = golden_counterexample_problem()
    assert problem.symbol_map.back["aSTAR"] == "a*"


def test_mangling_collision_free_and_stable_on_corpus():
    import re

    from dholc.corpus import gen_all

    for entry in gen_all():
        for mode, variant in (
            (Mode.STRONG_EPSILON, ErasureVariant.STRONG),
            (Mode.WEAK_EPSILON, ErasureVariant.WEAK),
        ):
            rep = check_theory(entry.theory, entry.conjecture, mode)
            erased = erase_theory(rep.theory_elaborated, Context(), variant)
            conj = erase_term(rep.conjecture_elaborated, variant)
            p1 = emit_thf(erased, entry.name, conjecture=conj)
            p2 = emit_thf(erased, entry.name, conjecture=conj)
            assert p1.text == p2.text  # stable across runs
            names = re.findall(r"^thf\((\w+),", p1.text, re.M)
            assert len(names) == len(set(names)), entry.name
            mangled = list(p1.symbol_map.fwd.values())
            assert len(mangled) == len(set(mangled)), entry.name


# ---------------------------------------------------------------------------
# Each shared declaration is rendered once

def _problem_key(problem):
    table = problem.symbol_map
    return problem.text, table.fwd, table.back, table.used


def _memo_free(ob):
    for d in tuple(ob.hol_theory) + tuple(ob.hol_context):
        assert not hasattr(d, "_thf"), d
    return _problem_key(emit_thf(ob, ob.id))


def _identity_sources():
    from dholc.corpus import gen_all

    sources = [(e.name, e.source) for e in gen_all()]
    sources += [(f"synth{n}", synth_theory(n, random.Random(n))) for n in (4, 8, 12, 16, 20)]
    return sources


@pytest.mark.parametrize("mode", [Mode.STRONG_EPSILON, Mode.WEAK_EPSILON])
def test_shared_declarations_render_byte_identically(mode):
    def check(source):
        return check_theory(*parse_theory(source), mode)

    for name, source in _identity_sources():
        n = len(check(source).obligations)
        # obligation i emitted first from its own fresh check: no memo is set
        want = [_memo_free(check(source).obligations[i]) for i in range(n)]
        forward = check(source).obligations
        backward = check(source).obligations
        runs = [(forward, range(n)), (forward, range(n)), (backward, reversed(range(n))), (backward, range(n))]
        for obligations, order in runs:
            for i in order:
                assert _problem_key(emit_thf(obligations[i], obligations[i].id)) == want[i], (name, i)


def test_threads_sharing_declarations_render_byte_identically():
    import threading

    source = synth_theory(12, random.Random(3))

    def check():
        return check_theory(*parse_theory(source), Mode.STRONG_EPSILON).obligations

    n = len(check())
    want = [_memo_free(check()[i]) for i in range(n)]
    shared = check()
    got = {}

    def emit_all(k):
        order = range(n) if k % 2 else reversed(range(n))
        got[k] = {i: _problem_key(emit_thf(shared[i], shared[i].id)) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=emit_all, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got) == [0, 1, 2, 3]
    for k in got:
        assert [got[k][i] for i in range(n)] == want, k


def _guard_theories(ax):
    # With `goal` declared first, its `goal_tp` formula name pushes the
    # constant goal_tp to goal_tp_2.
    alone = (ConstDecl("goal_tp", BOOL), ax)
    shadowed = (ConstDecl("goal", BOOL), ConstDecl("goal_tp", BOOL), ax)
    return [ErasedTheory(Theory(decls), Context()) for decls in (alone, shadowed)]


def test_rendered_body_is_reused_only_under_the_same_names():
    def fresh_axiom():
        return AxiomDecl("uses_goal_tp", Var("goal_tp"))

    want = [_problem_key(emit_thf(_guard_theories(fresh_axiom())[i], "guard")) for i in (0, 1)]
    assert "thf(uses_goal_tp, axiom, goal_tp)." in want[0][0]
    assert "thf(uses_goal_tp, axiom, goal_tp_2)." in want[1][0]
    for order in ((0, 1), (1, 0), (0, 1, 0, 1)):
        theories = _guard_theories(fresh_axiom())
        for i in order:
            assert _problem_key(emit_thf(theories[i], "guard")) == want[i], order


def test_rendering_work_is_linear_in_the_declarations(monkeypatch):
    # Term nodes rendered over all obligations of one eps1 check.  Rendering
    # the shared prefix again for every obligation took 1296, 6318 and 13519.
    real = thf._fmt_term
    nodes = 0

    def counting(t, table, scope):
        nonlocal nodes
        nodes += 1
        return real(t, table, scope)

    monkeypatch.setattr(thf, "_fmt_term", counting)
    counts = {}
    for n in (4, 12, 20):
        rep = check_theory(*parse_theory(synth_theory(n, random.Random(5))), Mode.STRONG_EPSILON)
        nodes = 0
        for ob in rep.obligations:
            emit_thf(ob, ob.id)
        counts[n] = nodes
    assert counts == {4: 455, 12: 1155, 20: 1855}


def test_render_memo_is_invisible():
    rep = check_theory(*parse_theory(synth_theory(4, random.Random(1))), Mode.STRONG_EPSILON)
    decls = [d for d in rep.hol_theory if isinstance(d, (ConstDecl, AxiomDecl))]
    assert decls and not any(hasattr(d, "_thf") for d in decls)
    for ob in rep.obligations:
        emit_thf(ob, ob.id)
    assert all(hasattr(d, "_thf") for d in decls)
    for d in decls:
        twin = type(d)(*(getattr(d, f.name) for f in dataclasses.fields(d)))
        assert not hasattr(twin, "_thf")
        assert d == twin and hash(d) == hash(twin) and repr(d) == repr(twin)
        assert "_thf" not in {f.name for f in dataclasses.fields(d)}
        for copied in (copy.copy(d), pickle.loads(pickle.dumps(d))):
            assert copied == d and not hasattr(copied, "_thf")


def test_dependent_product_is_a_bug_guard():
    nat = Base("nat")
    dependent = ConstDecl("fz", Pi("n", nat, Base("fin", (Var("n"),))))
    er = ErasedTheory(Theory((BaseTypeDecl("nat"), BaseTypeDecl("fin"), dependent)), Context())
    with pytest.raises(ThfError):
        emit_thf(er, "bad")


def test_one_word_encoder_for_constants_labels_and_bound_variables(monkeypatch):
    table = SymbolTable()
    assert table.mangle("a*'x-1") == "aSTAR_px_1"
    assert table.mangle("9z") == "c9z"
    assert table.mangle("Q") == "q"
    assert table.formula_name("h'") == "h_p"
    assert table.formula_name("1ab") == "ax1ab"
    assert table.formula_name("B*") == "bSTAR"
    assert table.back["h_p"] == "h'"
    assert thf._mangle_bound("x'", {}) == "X_p"
    assert thf._mangle_bound("2*", {}) == "X2STAR"
    assert thf._mangle_bound("y", {"y": "Y"}) == "Y2"
    # a symbol is encoded the first time its problem sees it, and only then
    seen = []
    word = thf._word
    monkeypatch.setattr(thf, "_word", lambda name, *rest: seen.append(name) or word(name, *rest))
    fresh = SymbolTable()
    assert [fresh.mangle(n) for n in ("a", "b", "a", "b")] == ["a", "b", "a", "b"]
    assert seen == ["a", "b"]
