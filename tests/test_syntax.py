import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dholc import ground, oracle, syntax, thf
from dholc.erasure import (
    ErasureError,
    ErasureVariant,
    beta_normalize,
    erase_term,
    erase_type,
    per_apply,
)
from dholc.kernel import KernelError, Mode, _Checker
from dholc.syntax import (
    App,
    Base,
    BOOL,
    Choice,
    Eq,
    FALSE,
    Forall,
    Implies,
    Lambda,
    Pi,
    Pos,
    Var,
    alpha_eq,
    alpha_key,
    apply,
    free_vars,
    print_term,
    subst,
)

from genterms import FIN, NAT, TermGen


def numeral(n):
    t = Var("0")
    for _ in range(n):
        t = App(Var("s"), t)
    return t


# ---------------------------------------------------------------------------
# substitution


def test_subst_variable():
    u = App(Var("s"), Var("0"))
    assert subst(Var("x"), "x", u) == u


def test_subst_shadowed_binder():
    t = Lambda("x", BOOL, Var("x"))
    assert subst(t, "x", Var("y")) == t


def test_subst_renames_a_binder_that_would_capture_a_renamed_one():
    # y := x renames the outer x to x_1; the inner binder x_1 must then be
    # renamed too, or it captures the image of x
    g, x, y = Var("g"), Var("x"), Var("y")
    t = Lambda("x", NAT, Lambda("x_1", NAT, apply(g, x, y)))
    out = subst(t, "y", x)
    assert out == Lambda("x_1", NAT, Lambda("x_1_1", NAT, apply(g, Var("x_1"), x)))
    assert alpha_eq(out, naive_subst(t, "y", x))
    # the first binder, ^x, drops x from the mapping; the later ^z must still
    # see that the image of x mentions z
    z = Var("z")
    t = App(Lambda("x", NAT, apply(g, x, y)), Lambda("z", NAT, x))
    out = syntax.subst_many(t, {"x": z, "y": Var("0")})
    assert out == App(Lambda("x", NAT, apply(g, x, Var("0"))), Lambda("z_1", NAT, z))


def test_subst_into_annotation():
    body = App(Var("q"), Var("0"))
    t = Forall("y", FIN(Var("x")), body)
    out = subst(t, "x", numeral(2))
    assert isinstance(out, Forall)
    assert out.annot == FIN(numeral(2))
    # independent oracle: rename every binder globally fresh, then replace
    assert alpha_eq(out, naive_subst(t, "x", numeral(2)))


def test_alpha_key_restores_a_shadowed_binder():
    # the inner eps x shadows the outer ^ x only inside its body: the last
    # q x is the outer x again (b0), and Pi binders number like term binders
    x, y = Var("x"), Var("y")
    inner = Choice("x", FIN(y), Eq(FIN(y), x, App(x, y)))
    t = Lambda(
        "x",
        Pi("n", NAT, FIN(Var("n"))),
        Forall("y", NAT, Implies(Eq(FIN(y), App(x, y), inner), App(Var("q"), x))),
    )
    assert alpha_key(t) == (
        "L(P(Bnat()Bfin(b0;))A(Bnat()I(=(Bfin(b1;)@(b0;b1;)"
        "E(Bfin(b1;)=(Bfin(b1;)b2;@(b2;b1;))))@(vq;b0;))))"
    )
    renamed = Lambda(
        "z",
        Pi("m", NAT, FIN(Var("m"))),
        Forall("y", NAT, Implies(Eq(FIN(y), App(Var("z"), y), inner), App(Var("q"), Var("z")))),
    )
    assert alpha_key(renamed) == alpha_key(t)
    # the key of a binder's body leaves no binding behind for what follows
    assert alpha_key(Implies(Forall("x", BOOL, x), x)) == "I(A(o;b0;)vx;)"


def naive_subst(t, x, u):
    counter = itertools.count()

    def rename(t, env):
        match t:
            case Var(name=n):
                return Var(env.get(n, n))
            case Lambda() | Forall() | Choice():
                fresh = f"__fr{next(counter)}"
                return type(t)(
                    fresh, rename_ty(t.annot, env), rename(t.body, {**env, t.bound: fresh})
                )
            case App():
                return App(rename(t.fun, env), rename(t.arg, env))
            case Implies():
                return Implies(rename(t.lhs, env), rename(t.rhs, env))
            case Eq():
                ty = rename_ty(t.ty, env) if t.ty is not None else None
                return Eq(ty, rename(t.lhs, env), rename(t.rhs, env))
            case _:
                return t

    def rename_ty(ty, env):
        match ty:
            case Base(name=n, args=args):
                return Base(n, tuple(rename(a, env) for a in args))
            case Pi(bound=b, domain=d, codomain=c):
                fresh = f"__fr{next(counter)}"
                return Pi(fresh, rename_ty(d, env), rename_ty(c, {**env, b: fresh}))
            case _:
                return ty

    def replace(t):
        match t:
            case Var(name=n):
                return u if n == x else t
            case Lambda() | Forall() | Choice():
                return type(t)(t.bound, replace_ty(t.annot), replace(t.body))
            case App():
                return App(replace(t.fun), replace(t.arg))
            case Implies():
                return Implies(replace(t.lhs), replace(t.rhs))
            case Eq():
                ty = replace_ty(t.ty) if t.ty is not None else None
                return Eq(ty, replace(t.lhs), replace(t.rhs))
            case _:
                return t

    def replace_ty(ty):
        match ty:
            case Base(name=n, args=args):
                return Base(n, tuple(replace(a) for a in args))
            case Pi(bound=b, domain=d, codomain=c):
                return Pi(b, replace_ty(d), replace_ty(c))
            case _:
                return ty

    return replace(rename(t, {}))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_subst_matches_naive_oracle(seed):
    gen = TermGen(seed)
    t = gen.boolean([("v", NAT)], 3)
    u = gen.nat([], 2)
    assert alpha_eq(subst(t, "v", u), naive_subst(t, "v", u))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_subst_idempotent_when_var_not_free_in_image(seed):
    gen = TermGen(seed)
    t = gen.boolean([("v", NAT)], 3)
    u = gen.nat([], 2)
    assert "v" not in free_vars(u)
    once = subst(t, "v", u)
    assert alpha_eq(subst(once, "v", u), once)


def test_subst_under_nested_binders_computes_no_body_free_vars(monkeypatch):
    # ∀x1 … ∀x200. q v x1: a substitution for v that cannot be captured needs
    # only its image's free variables, not those of each binder's body
    t = App(App(Var("q"), Var("v")), Var("x1"))
    for i in range(200, 0, -1):
        t = Forall(f"x{i}", NAT, t)
    calls = 0
    real = syntax.free_vars

    def counting(u):
        nonlocal calls
        calls += 1
        return real(u)

    def binders_and_body(t):
        names = []
        while isinstance(t, Forall):
            names.append(t.bound)
            t = t.body
        return names, t

    monkeypatch.setattr(syntax, "free_vars", counting)
    out = subst(t, "v", numeral(1))
    assert calls == 1
    names = [f"x{i}" for i in range(1, 201)]
    assert binders_and_body(out) == (names, App(App(Var("q"), numeral(1)), Var("x1")))
    # a variable that is not free leaves the term itself
    assert subst(t, "w", numeral(1)) is t
    # an image that mentions x150: only the binder that could capture it
    # looks at its body (and at the image again), and it is renamed
    calls = 0
    out = subst(t, "v", Var("x150"))
    assert calls <= 3
    names[149] = "x150_1"
    assert binders_and_body(out) == (names, App(App(Var("q"), Var("x150")), Var("x1")))


# ---------------------------------------------------------------------------
# alpha-equivalence


def test_alpha_renamed_lambda():
    assert alpha_eq(Lambda("x", BOOL, Var("x")), Lambda("y", BOOL, Var("y")))


def test_alpha_different_bodies():
    assert not alpha_eq(Lambda("x", BOOL, Var("x")), Lambda("x", BOOL, FALSE))


def test_alpha_renamed_choice():
    a = Base("a")
    t1 = Choice("x", a, Implies(FALSE, FALSE))
    t2 = Choice("z", a, Implies(FALSE, FALSE))
    assert alpha_eq(t1, t2)


def test_alpha_free_vs_bound():
    # λx.y vs λy.y: the second body is bound, the first is free
    assert not alpha_eq(Lambda("x", BOOL, Var("y")), Lambda("y", BOOL, Var("y")))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_alpha_equivalence_relation_and_subst_respect(seed):
    gen = TermGen(seed)
    t = gen.boolean([("v", NAT)], 3)
    u = gen.nat([], 2)
    t_renamed = naive_subst(t, "__none__", Var("__none__"))  # fresh-renames all binders
    assert alpha_eq(t, t)
    assert alpha_eq(t, t_renamed) and alpha_eq(t_renamed, t)
    assert alpha_eq(subst(t, "v", u), subst(t_renamed, "v", u))


def rebind(t, names, rng, shadows):
    """``t`` with every binder renamed to a name drawn from ``names``, its
    bound occurrences following.  A drawn name already bound outside, or free
    inside, shadows or captures, so the result may or may not be
    alpha-equivalent to ``t``.  Each binder that shadows appends to
    ``shadows``."""

    def binder(x, env):
        x2 = rng.choice(names)
        if x2 in env.values():
            shadows.append(x2)
        return x2, {**env, x: x2}

    def go(t, env):
        match t:
            case Var(name=n):
                return Var(env.get(n, n))
            case Lambda() | Forall() | Choice():
                x, inner = binder(t.bound, env)
                return type(t)(x, go(t.annot, env), go(t.body, inner))
            case App():
                return App(go(t.fun, env), go(t.arg, env))
            case Implies():
                return Implies(go(t.lhs, env), go(t.rhs, env))
            case Eq():
                ty = go(t.ty, env) if t.ty is not None else None
                return Eq(ty, go(t.lhs, env), go(t.rhs, env))
            case Base():
                return Base(t.name, tuple(go(a, env) for a in t.args))
            case Pi():
                x, inner = binder(t.bound, env)
                return Pi(x, go(t.domain, env), go(t.codomain, inner))
            case _:
                return t

    return go(t, {})


def test_alpha_eq_agrees_with_alpha_key():
    # Ground atoms and kernel dedup compare alpha_key strings; the local stage
    # calls alpha_eq.  Both must draw the same line, on terms and on types.
    x, y = Var("x"), Var("y")
    pairs = [
        (Lambda("x", BOOL, Lambda("x", BOOL, x)), Lambda("y", BOOL, Lambda("z", BOOL, Var("z")))),
        (Lambda("x", BOOL, Lambda("x", BOOL, x)), Lambda("x", BOOL, Lambda("y", BOOL, x))),
        (Pi("x", NAT, Pi("x", NAT, FIN(x))), Pi("y", NAT, Pi("x", NAT, FIN(y)))),
        (Pi("x", NAT, Pi("x", NAT, FIN(x))), Pi("y", NAT, Pi("z", NAT, FIN(Var("z"))))),
    ]
    shadows: list[str] = []
    for seed in range(150):
        gen, rng = TermGen(seed), random.Random(seed)
        t = gen.boolean([("v", NAT)], 3)
        n = gen.nat([("v", NAT)], 2)
        ty = Pi("v", NAT, Pi("w", FIN(n), FIN(gen.nat([("v", NAT)], 2))))
        for a in (t, ty):
            pairs.append((a, naive_subst(a, "__none__", Var("__none__"))))
            pairs.extend((a, rebind(a, ["x", "y", "v"], rng, shadows)) for _ in range(3))
            pairs.append((a, subst(a, "v", n)))
        pairs.append((t, gen.boolean([("v", NAT)], 3)))
        pairs.append((ty, gen.annot_type([], 2)))
    verdicts = []
    for a, b in pairs:
        same = alpha_eq(a, b)
        assert same == (alpha_key(a) == alpha_key(b)), (a, b)
        assert alpha_eq(b, a) == same
        verdicts.append(same)
    assert verdicts.count(True) > 300 and verdicts.count(False) > 300
    assert len(shadows) > 100


def test_key_template_holes_are_the_free_names():
    # alpha_key fills each hole with its name; other names give the key of
    # the term with those constants substituted
    x, y, c = Var("x"), Var("y"), Var("c")
    t = Forall("y", FIN(x), Eq(NAT, App(x, y), App(Var("f"), x)))
    text, names, holds_choice = syntax.key_template(t)
    assert names == ("x", "f") and not holds_choice
    assert text.format(*names) == alpha_key(t) == "A(Bfin(vx;)=(Bnat()@(vx;b0;)@(vf;vx;)))"
    assert text.format("c", "f") == alpha_key(subst(t, "x", c))
    assert syntax.key_template(Lambda("z", Base("fin", (Choice("y", NAT, y),)), c))[2]
    # names with format syntax in them: free names fill holes, base-type
    # names are escaped in the text
    odd = ["{0}", "}", "{", "%s", "%", "{}{{}}", "a{b}%c"]
    for n in odd:
        assert alpha_key(Var(n)) == f"v{n};"
        assert alpha_key(Base(n)) == f"B{n}()"
        assert alpha_key(Forall(n, Base(n, (Var(n),)), App(Var(n), Var(n)))) == f"A(B{n}(v{n};)@(b0;b0;))"
        t = Lambda("z", Base(n, (Var("x"),)), App(Var(n), Var("z")))
        text, names, _ = syntax.key_template(t)
        assert names == ("x", n)
        assert text.format(*names) == alpha_key(t) == f"L(B{n}(vx;)@(v{n};b0;))"
        for m in odd:
            assert text.format("x", m) == alpha_key(subst(t, n, Var(m))) == f"L(B{n}(vx;)@(v{m};b0;))"


def _term_and_type_nodes(t):
    """Every term and type node of t, those in annotations included."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        for f in ("fun", "arg", "lhs", "rhs", "annot", "body", "ty", "domain", "codomain"):
            child = getattr(t, f, None)
            if child is not None:
                stack.append(child)
        stack.extend(getattr(t, "args", ()))


def _keyed_corpus_nodes():
    from dholc.corpus import gen_problem
    from dholc.kernel import check_theory
    from dholc.prover import discharge

    nodes = {}
    for name in ("choice_def1", "list_head", "no_fp_fin3_reg"):
        e = gen_problem(name)
        rep = check_theory(e.theory, e.conjecture, Mode.STRONG_EPSILON)
        discharge(rep.obligations, oracle_fallback=False)
        for ob in rep.obligations:
            roots = [ob.conjecture, ground.normal_form(ob.conjecture)]
            for d in tuple(ob.hol_theory) + tuple(ob.hol_context):
                if isinstance(d, syntax.AxiomDecl):
                    roots += [d.term, ground.normal_form(d.term)]
                elif isinstance(d, syntax.ConstDecl):
                    roots.append(d.ty)
            for t in roots:
                nodes.update((id(n), n) for n in _term_and_type_nodes(t))
    return list(nodes.values())


def test_key_memo_is_invisible():
    import copy
    import dataclasses
    import pickle

    nodes = _keyed_corpus_nodes()
    assert sum(hasattr(n, "_key") for n in nodes) > 150
    for n in nodes:
        alpha_key(n)
    kinds = {type(n) for n in nodes}
    assert len(nodes) > 500 and kinds == {Var, Lambda, App, syntax.Falsum, Implies, Eq, Forall, Choice, syntax.Bool, Base, Pi}, kinds
    for n in nodes:
        twin = type(n)(*(getattr(n, f.name) for f in dataclasses.fields(n)))
        assert not hasattr(twin, "_key")
        assert n == twin and hash(n) == hash(twin) and repr(n) == repr(twin)
        assert "_key" not in {f.name for f in dataclasses.fields(n)}
        for copied in (copy.copy(n), pickle.loads(pickle.dumps(n))):
            assert copied == n and not hasattr(copied, "_key")
        assert alpha_key(twin) == alpha_key(n)


def test_the_key_memo_refers_to_no_node():
    # the memo holds strings and a flag only: a node kept there would keep
    # a term tree alive, or itself, through its key
    import gc

    nodes = _keyed_corpus_nodes()
    for n in nodes:
        alpha_key(n)
    assert len(nodes) > 500
    for n in nodes:
        assert not any(r is n for r in gc.get_referents(n)), n
        text, names, holds_choice = n._key
        assert type(text) is str and type(holds_choice) is bool
        assert type(names) is tuple and all(type(x) is str for x in names)


# ---------------------------------------------------------------------------
# free variables


def test_free_vars_var():
    assert free_vars(Var("x")) == ("x",)


def test_free_vars_lambda():
    t = Lambda("x", BOOL, Implies(Var("x"), Var("y")))
    assert free_vars(t) == ("y",)


def test_free_vars_in_annotation():
    t = Choice("y", FIN(Var("n")), Implies(FALSE, FALSE))
    assert free_vars(t) == ("n",)


def test_free_vars_first_occurrence_order():
    t = apply(Var("f"), Var("b"), Var("a"), Var("b"))
    assert free_vars(t) == ("f", "b", "a")


# ---------------------------------------------------------------------------
# printing is covered by parser round-trips; spot-check numerals


def test_print_numeral_resugar():
    assert print_term(numeral(3)) == "3"
    assert print_term(App(Var("s"), Var("k"))) == "s k"



# ---------------------------------------------------------------------------
# the hot walkers dispatch on the exact node class and refuse anything else


class _SubVar(Var):
    """A node subclass, which the walkers refuse like any other non-node."""


def _checker():
    return _Checker(Mode.STRONG_EPSILON)


def _source():
    return oracle._Source({})


STRONG = ErasureVariant.STRONG
# walker name -> (call on a non-node, the error it documents)
HOT_WALKERS = {
    "syntax.free_vars": (free_vars, TypeError),
    "syntax.subst": (lambda t: subst(t, "x", Var("y")), TypeError),
    "syntax.alpha_eq": (lambda t: alpha_eq(t, t), TypeError),
    "syntax.alpha_key": (alpha_key, TypeError),
    "erasure.beta_normalize": (beta_normalize, ErasureError),
    "erasure.erase_term": (lambda t: erase_term(t, STRONG), ErasureError),
    "erasure.per_apply": (lambda t: per_apply(t, STRONG, Var("u"), Var("v")), ErasureError),
    "erasure.erase_type": (erase_type, ErasureError),
    "ground.abstract": (lambda t: ground._abstract(t, {}, ground._Atoms({}, [])), TypeError),
    "kernel.infer": (lambda t: _checker().infer((), t), KernelError),
    "kernel.wf_type": (lambda t: _checker().wf_type((), t), KernelError),
    "kernel.type_equal": (lambda t: _checker().type_equal((), t, BOOL), KernelError),
    "thf.fmt_term": (lambda t: thf._fmt_term(t, thf.SymbolTable(), {}), thf.ThfError),
    "thf.fmt_type": (lambda t: thf._fmt_type(t, thf.SymbolTable()), thf.ThfError),
    "oracle.type_card": (lambda t: oracle.type_card(t, {}), oracle.OracleError),
    "oracle.value": (lambda t: _source()._value(t, {}), oracle.OracleError),
    "oracle.test": (lambda t: _source()._test(t, {}, "check"), oracle.OracleError),
    "oracle.require": (
        lambda t: _source()._require(t, {}, ("return 0",), True, "check"),
        oracle.OracleError,
    ),
}


@pytest.mark.parametrize("non_node", [object(), Pos(1, 1), _SubVar("x")], ids=["object", "pos", "subclass"])
@pytest.mark.parametrize("walker", sorted(HOT_WALKERS))
def test_hot_walkers_raise_on_a_non_node(walker, non_node):
    # an if chain without its final raise would return None instead
    call, error = HOT_WALKERS[walker]
    with pytest.raises(error):
        call(non_node)


def test_dn_normalize_leaves_a_non_node_alone():
    # it rewrites the connective spine only; anything else is an atom
    for non_node in (object(), Pos(1, 1)):
        assert ground.dn_normalize(non_node) is non_node
