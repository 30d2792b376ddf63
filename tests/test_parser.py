import hashlib
import json
import random
import re
from dataclasses import fields
from pathlib import Path

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
    Eq,
    FALSE,
    Falsum,
    Forall,
    Implies,
    Lambda,
    Pi,
    Pos,
    Term,
    Type,
    Var,
    alpha_eq,
    alpha_key,
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


# ---------------------------------------------------------------------------
# The parser's trees, positions and errors, pinned: every corpus source, and a
# seeded table of random token strings over the term alphabet with the outcome
# of each.  A change that moves one entry on purpose regenerates
# data/parse_pin.json with write_parse_pin().

PARSE_PIN = Path(__file__).parent / "data" / "parse_pin.json"


def _nodes(t):
    """Every node of a term or type in pre-order, the nodes inside types
    included."""
    yield t
    for f in fields(t):
        value = getattr(t, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, (Term, Type)):
                yield from _nodes(child)


def _record(t) -> str:
    """The alpha key of a term or type, and the class and position of each of
    its nodes."""
    return alpha_key(t) + "|" + ",".join(f"{type(n).__name__}@{n.pos}" for n in _nodes(t))


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def theory_digest(thy, conjecture) -> str:
    lines = []
    for d in thy:
        lines.append(f"{type(d).__name__} {getattr(d, 'name', None) or d.label}@{d.pos}")
        if isinstance(d, BaseTypeDecl):
            lines += [f"{x} {_record(a)}" for x, a in d.telescope]
        else:
            lines.append(_record(d.ty if isinstance(d, ConstDecl) else d.term))
    if conjecture is not None:
        lines.append("conjecture " + _record(conjecture))
    return _digest(lines)


def term_outcome(text: str) -> str:
    """What parse_term makes of text: the digest of its tree, or its error."""
    try:
        return "tree " + _digest([_record(parse_term(text))])
    except ParseError as e:
        return f"error {e}"


_ALPHABET = (
    ["a", "b", "f", "x", "0", "2"] * 3
    + ["(", ")"] * 2
    + ["~", "&", "|", "=>", "=", "!=", "^", "!", "?", "eps", ":", ".", ">"]
    + ["$false", "$true", "$o", "pi", "tp", "nat"]
)


def pin_inputs(seed: int = 19) -> list[str]:
    """1,200 random token strings, and 800 printed random terms with one
    token inserted or one character span deleted."""
    rng = random.Random(seed)
    out = [" ".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 14))) for _ in range(1200)]
    gen = TermGen(seed)
    while len(out) < 2000:
        text = print_term(gen.boolean([], 2))
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            text = f"{text[:at]} {rng.choice(_ALPHABET)} {text[at:]}"
        else:
            text = text[:at] + text[at + rng.randint(1, 4) :]
        out.append(text)
    return out


def parse_pin_table(inputs) -> dict:
    from dholc.corpus import gen_all

    return {
        "corpus": {e.name: theory_digest(*parse_theory(e.source)) for e in gen_all()},
        "terms": [[text, term_outcome(text)] for text in inputs],
    }


def write_parse_pin() -> None:
    PARSE_PIN.write_text(json.dumps(parse_pin_table(pin_inputs()), indent=0) + "\n")


def test_parse_trees_positions_and_errors_are_pinned():
    pinned = json.loads(PARSE_PIN.read_text())
    assert len(pinned["corpus"]) == 29 and len(pinned["terms"]) == 2000
    assert parse_pin_table([text for text, _ in pinned["terms"]]) == pinned


# Corner cases of the term grammar, each with the tree it gives (printed with
# every subterm in parentheses) or its error.


def _bracketed(t) -> str:
    match t:
        case Var(name=n):
            return n
        case Implies(lhs=a, rhs=Falsum()):
            return f"~({_bracketed(a)})"
        case Implies(lhs=a, rhs=b):
            return f"({_bracketed(a)} => {_bracketed(b)})"
        case Eq(lhs=a, rhs=b):
            return f"({_bracketed(a)} = {_bracketed(b)})"
        case App(fun=f, arg=a):
            return f"({_bracketed(f)} {_bracketed(a)})"
        case Forall(bound=x, body=b) | Lambda(bound=x, body=b) | Choice(bound=x, body=b):
            return f"{type(t).__name__}({x}. {_bracketed(b)})"
        case Falsum():
            return "F"


CORNER_CASES = {
    # the operands of = and != are applications: no ~, but a binder or (
    "negation after =": ("a = ~ b", "error 1:5: expected a term, found '~'"),
    "negation after !=": ("a != ~ b", "error 1:6: expected a term, found '~'"),
    "binder after =": ("a = ! x : t . b", "(a = Forall(x. b))"),
    "parentheses after =": ("a = (~ b)", "(a = ~(b))"),
    "negated comparison": ("~ a = b", "~((a = b))"),
    # a second comparison ends the innermost frame; a binder body that ends
    # there is an operand one level out, which may take the =
    "binder body ends at a second =": ("~ ! x : a . b = c = d", "~((Forall(x. (b = c)) = d))"),
    "second = at top level": ("a = b = c", "error 1:7: trailing input '='"),
    "second = in parentheses": ("(a = b = c)", "error 1:8: expected ')', found '='"),
    "second = after a binder right of =": (
        "a = ! x : t . b = c = d",
        "error 1:21: trailing input '='",
    ),
    "nested binders take one = each": (
        "! x : a . ! y : a . b = c = d = e",
        "(Forall(x. (Forall(y. (b = c)) = d)) = e)",
    ),
    # a binder may start any operand but is never an application argument
    "binder after &": ("a & ! x : t . b => c", "~((a => ~(Forall(x. (b => c)))))"),
    "binder as an argument": ("f ! x : t . b", "error 1:3: trailing input '!'"),
    "binder as an argument in parentheses": (
        "(f ^ x : t . b)",
        "error 1:4: expected ')', found '^'",
    ),
    "parenthesised binder as an argument": ("f (^ x : t . b) c", "((f Lambda(x. b)) c)"),
    "operators bind tighter to the right": (
        "a => b | c & ~ d = e",
        "(a => (~(b) => ~((c => ~(~((d = e)))))))",
    ),
    "missing operand": ("a & => b", "error 1:5: expected a term, found '=>'"),
    "unclosed parenthesis": ("f (a", "error 1:5: expected ')', found ''"),
    "type after a binder": ("! x : $o", "error 1:9: expected '.', found ''"),
}


@pytest.mark.parametrize("case", CORNER_CASES)
def test_term_grammar_corner_case(case):
    text, expected = CORNER_CASES[case]
    try:
        got = _bracketed(parse_term(text))
    except ParseError as e:
        got = f"error {e}"
    assert got == expected


def test_node_positions():
    # Implies and Eq sit at their operator token, a binder at its binder token
    # and an application at its argument; sugar nodes have no position
    t = parse_term("f (a) => ! x : t . b = c & ~ d")
    assert t.pos == Pos(1, 7)
    assert t.lhs.pos == Pos(1, 4) and t.lhs.arg.pos == Pos(1, 4)
    assert t.rhs.pos == Pos(1, 10)
    body = t.rhs.body
    assert body.pos is None and body.lhs.pos is None
    eq = body.lhs.lhs
    assert type(eq) is Eq and eq.pos == Pos(1, 22)
    assert parse_term("a != b").lhs.pos is None
    assert parse_term("? x : t . b").pos is None
    assert parse_term("eps x : t . b").pos == Pos(1, 1)
    assert parse_term("(^ x : t . b)").pos == Pos(1, 2)


# ---------------------------------------------------------------------------
# Nesting costs the term loop no Python frames, so no depth is refused.

DEEP = 10_000


NESTED = {
    "parentheses": lambda n: "(" * n + "q" + ")" * n,
    "binders": lambda n: "! x : a . " * n + "q",
    "arguments": lambda n: "f (" * n + "q" + ")" * n,
    "conjunctions": lambda n: " & ".join(["q"] * n),
    "negations": lambda n: "~ " * n + "q",
}


def _descend(shape: str, t, n: int):
    """Walks n levels of the shape down t, without recursion, and returns
    what lies below them."""
    for _ in range(n if shape != "conjunctions" else n - 1):
        if shape == "binders":
            assert type(t) is Forall and t.annot == Base("a")
            t = t.body
        elif shape == "arguments":
            assert type(t) is App and t.fun == Var("f")
            t = t.arg
        elif shape == "conjunctions":
            # q & rest is ~ (q => ~ rest)
            assert t.rhs == FALSE and t.lhs.lhs == Var("q") and t.lhs.rhs.rhs == FALSE
            t = t.lhs.rhs.lhs
        elif shape == "negations":
            assert type(t) is Implies and t.rhs == FALSE
            t = t.lhs
    return t


@pytest.mark.parametrize("shape", NESTED)
def test_parse_term_takes_deep_nesting(shape):
    t = parse_term(NESTED[shape](DEEP))
    assert _descend(shape, t, DEEP) == Var("q")
