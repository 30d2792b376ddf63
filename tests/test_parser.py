import re

import pytest

from dholc.kernel import Mode, check_theory
from dholc.parser import ParseError, parse_term, parse_theory, parse_type
from dholc.syntax import (
    App,
    AxiomDecl,
    Base,
    BaseTypeDecl,
    Bool,
    Choice,
    ConstDecl,
    FALSE,
    Forall,
    Implies,
    Pi,
    Var,
    alpha_eq,
    print_term,
    print_theory,
    print_type,
)

from genterms import THEORY_SRC, TermGen


def test_parse_choice_binder():
    t = parse_term("eps x : fin 2 . p x")
    # numeral 2 expands to s (s 0)
    two = App(Var("s"), App(Var("s"), Var("0")))
    assert isinstance(t, Choice)
    assert t.bound == "x"
    assert alpha_eq(t.annot, Base("fin", (two,)))
    assert alpha_eq(t.body, App(Var("p"), Var("x")))


def test_parse_negation_sugar():
    t = parse_term("~ q 0")
    assert t == Implies(App(Var("q"), Var("0")), FALSE)


def test_parse_quantifier_nesting():
    t = parse_term("! x : nat . ? y : nat . x = y")
    assert isinstance(t, Forall)
    inner = t.body
    # existential expands to ¬∀¬
    assert isinstance(inner, Implies) and inner.rhs == FALSE
    assert isinstance(inner.lhs, Forall)
    assert isinstance(inner.lhs.body, Implies) and inner.lhs.body.rhs == FALSE


def test_parse_theory_and_conjecture():
    thy, conj = parse_theory(THEORY_SRC + "conjecture : q 0\n")
    assert conj is not None
    assert [type(d) for d in thy] == [
        BaseTypeDecl,
        ConstDecl,
        ConstDecl,
        BaseTypeDecl,
        ConstDecl,
        ConstDecl,
        ConstDecl,
    ]
    fin = thy.base_type("fin")
    assert fin.arity == 1 and alpha_eq(fin.telescope[0][1], Base("nat"))


def test_parse_types():
    assert parse_type("$o") == Bool()
    arrow = parse_type("nat > nat > $o")
    assert isinstance(arrow, Pi) and isinstance(arrow.codomain, Pi)
    dep = parse_type("pi n : nat . fin n > fin (s n)")
    assert isinstance(dep, Pi) and dep.bound == "n"
    assert isinstance(dep.codomain, Pi)


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_theory("const c : \n")
    assert e.value.pos is not None


def _diagnostics(src):
    """The kernel's diagnostics for a theory the parser accepted."""
    thy, conjecture = parse_theory(src)
    return [str(d) for d in check_theory(thy, conjecture, Mode.STRONG_EPSILON).diagnostics]


# The parser builds trees only; names, base types and arities are the
# kernel's to check, one diagnostic per declaration at fault.


def test_unknown_identifier():
    assert parse_term("q y") == App(Var("q"), Var("y"))
    assert _diagnostics(THEORY_SRC + "axiom ax : q y\n") == ["8:14: unbound name 'y' (in ax)"]


def test_arity_mismatch():
    assert parse_type("nat 0") == Base("nat", (Var("0"),))
    assert _diagnostics(THEORY_SRC + "const c : fin\nconst d : nat 0 > $o\n") == [
        "8:11: base type 'fin' expects 1 argument(s), got 0 (in c)",
        "9:11: base type 'nat' expects 0 argument(s), got 1 (in d)",
    ]


def test_numeral_requires_zero_and_successor():
    src = "type a : tp\nconst c : a\naxiom ax : c = 3\n"
    assert _diagnostics(src) == ["3:16: unbound name 's' (in ax)"]
    assert _diagnostics(src.replace("3", "0")) == ["3:16: unbound name '0' (in ax)"]


def test_duplicate_conjecture_rejected():
    src = THEORY_SRC + "conjecture : q 0\nconjecture : q 0\n"
    with pytest.raises(ParseError, match="duplicate conjecture"):
        parse_theory(src)


def test_redeclaration_rejected():
    assert _diagnostics("type a : tp\nconst a : a\n") == ["2:7: redeclaration of 'a' (in a)"]


def test_comments_and_whitespace():
    thy, _ = parse_theory("% a comment\ntype a : tp % trailing\n% another\n")
    assert len(thy) == 1


def test_binder_shadowing_allowed():
    t = parse_term("! s : nat . q s")
    assert isinstance(t, Forall) and t.bound == "s"


def test_roundtrip_fuzz_closed_terms():
    from dholc.syntax import strip_eq_types

    gen = TermGen(7)
    for _ in range(300):
        t = gen.boolean([], 3)
        printed = print_term(t)
        back = parse_term(printed)
        # the surface syntax does not annotate equality, so compare unannotated
        assert alpha_eq(strip_eq_types(t), back), printed


def test_roundtrip_theory_printing():
    thy, conj = parse_theory(THEORY_SRC + "conjecture : ! x : nat . q x | ~ q x\n")
    text = print_theory(thy, conj)
    thy2, conj2 = parse_theory(text)
    assert len(thy2) == len(thy)
    for d1, d2 in zip(thy, thy2):
        assert type(d1) is type(d2)
    assert alpha_eq(conj, conj2)


def test_resugar_identity_on_sugar_layer():
    cases = [
        "~ q 0",
        "$true",
        "q 0 & q 1",
        "q 0 | q 1",
        "? x : nat . q x",
        "0 != 1",
        "q 0 => q 1",
    ]
    for src in cases:
        assert print_term(parse_term(src)) == src


def test_every_corpus_token_sits_at_its_position():
    from dholc.corpus import gen_all
    from dholc.parser import _lex

    gap = re.compile(r"(?:\s|%[^\n]*)*")
    for entry in gen_all():
        src = entry.source
        line_starts = [0] + [i + 1 for i, c in enumerate(src) if c == "\n"]
        end = 0
        for tok in _lex(src):
            at = line_starts[tok.pos.line - 1] + tok.pos.col - 1
            assert src.startswith(tok.text, at), (entry.name, tok)
            # only whitespace and comments lie between two tokens
            assert gap.fullmatch(src, end, at), (entry.name, tok)
            end = at + len(tok.text)
        assert tok.kind == "EOF" and end == len(src)
