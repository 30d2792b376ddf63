"""Deterministic generator of well-formed, elaborated DHOL terms.

Used by the fuzz properties (substitution, erasure compositionality, printer
round-trips).  Terms are generated against a fixed small theory with a
dependent base type so that substitution reaches into type annotations.  All
equality nodes carry their type, i.e. the output is already elaborated.
"""

from __future__ import annotations

import random

from dholc.parser import parse_theory
from dholc.syntax import (
    App,
    Base,
    BOOL,
    Choice,
    Eq,
    FALSE,
    Forall,
    Lambda,
    Pi,
    Term,
    Type,
    Var,
    alpha_eq,
    apply,
    conj,
    disj,
    exists,
    neg,
    subst,
    top,
)

THEORY_SRC = """\
type nat : tp
const 0 : nat
const s : nat > nat
type fin : pi n : nat . tp
const fz : pi n : nat . fin (s n)
const q : nat > $o
const g : pi n : nat . fin n > $o
"""

THEORY, _ = parse_theory(THEORY_SRC)

NAT = Base("nat")
FIN = lambda t: Base("fin", (t,))  # noqa: E731


class TermGen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.counter = 0

    def _fresh(self) -> str:
        self.counter += 1
        return f"x{self.counter}"

    def annot_type(self, env, depth: int) -> Type:
        roll = self.rng.random()
        if roll < 0.35:
            return NAT
        if roll < 0.6:
            return FIN(self.nat(env, min(depth, 1)))
        if roll < 0.75:
            return BOOL
        if roll < 0.9:
            return Pi("_", NAT, BOOL)
        # dependent product annotation
        k = self._fresh()
        return Pi(k, NAT, FIN(Var(k)))

    def nat(self, env, depth: int) -> Term:
        candidates = [v for v, ty in env if alpha_eq(ty, NAT)]
        roll = self.rng.random()
        if candidates and roll < 0.4:
            return Var(self.rng.choice(candidates))
        if depth <= 0:
            return Var("0")
        if roll < 0.75:
            return App(Var("s"), self.nat(env, depth - 1))
        x = self._fresh()
        return Choice(x, NAT, self.boolean(env + [(x, NAT)], depth - 1))

    def of_type(self, env, ty: Type, depth: int) -> Term:
        candidates = [v for v, t in env if alpha_eq(t, ty)]
        if candidates and self.rng.random() < 0.45:
            return Var(self.rng.choice(candidates))
        match ty:
            case Base(name="nat"):
                return self.nat(env, depth)
            case Base(name="fin", args=(arg,)):
                if (
                    depth > 0
                    and isinstance(arg, App)
                    and isinstance(arg.fun, Var)
                    and arg.fun.name == "s"
                    and self.rng.random() < 0.5
                ):
                    return App(Var("fz"), arg.arg)
                x = self._fresh()
                return Choice(x, ty, self.boolean(env + [(x, ty)], max(depth - 1, 0)))
            case Pi(bound=x, domain=d, codomain=c):
                if depth > 0 and self.rng.random() < 0.7:
                    x2 = self._fresh()
                    c2 = subst(c, x, Var(x2))
                    return Lambda(x2, d, self.of_type(env + [(x2, d)], c2, depth - 1))
                x2 = self._fresh()
                return Choice(x2, ty, self.boolean(env + [(x2, ty)], 0))
            case _:
                return self.boolean(env, depth)

    def boolean(self, env, depth: int) -> Term:
        roll = self.rng.random()
        if depth <= 0:
            if roll < 0.3:
                return FALSE
            if roll < 0.5:
                return top()
            candidates = [v for v, ty in env if alpha_eq(ty, BOOL)]
            if candidates and roll < 0.7:
                return Var(self.rng.choice(candidates))
            return App(Var("q"), self.nat(env, 0))
        if roll < 0.12:
            return neg(self.boolean(env, depth - 1))
        if roll < 0.24:
            return conj(self.boolean(env, depth - 1), self.boolean(env, depth - 1))
        if roll < 0.32:
            return disj(self.boolean(env, depth - 1), self.boolean(env, depth - 1))
        if roll < 0.45:
            from dholc.syntax import Implies

            return Implies(self.boolean(env, depth - 1), self.boolean(env, depth - 1))
        if roll < 0.6:
            ty = self.annot_type(env, depth - 1)
            return Eq(ty, self.of_type(env, ty, depth - 1), self.of_type(env, ty, depth - 1))
        if roll < 0.75:
            x = self._fresh()
            ty = self.annot_type(env, depth - 1)
            body = self.boolean(env + [(x, ty)], depth - 1)
            return Forall(x, ty, body) if self.rng.random() < 0.5 else exists(x, ty, body)
        if roll < 0.88:
            n = self.nat(env, depth - 1)
            return apply(Var("g"), n, self.of_type(env, FIN(n), depth - 1))
        return App(Var("q"), self.nat(env, depth - 1))
