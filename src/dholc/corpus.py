"""Generator for the choice problem families, with expected outcomes.

All problems share a prelude of naturals (0, s) and, depending on the family,
fixed-size finite sets (fin with constructors fz, fs) or fixed-length lists
(nil, cons).  Numerals in the sources are sugar for iterated s.

The fin axiomatizations:

* ``_min``: fz/fs distinctness plus fs injectivity — the type has at least N
  elements;
* ``_reg``: ``_min`` plus emptiness of fin 0 and one exhaustiveness axiom per
  k in 1..N — the type has exactly N elements.

Expected outcomes are transcribed from the reported experiment matrix; cells
the experiment marks failing are labeled "no" only where that is a typing
fact, otherwise "prover-dependent" (a capable prover may still succeed).
Generation is deterministic and byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .parser import parse_theory
from .syntax import Term, Theory

YES = "yes"
NO = "no"
PROVER_DEPENDENT = "prover-dependent"

_NAT = """\
type nat : tp
const 0 : nat
const s : nat > nat
"""

_FIN = """\
type fin : pi n : nat . tp
const fz : pi n : nat . fin (s n)
const fs : pi n : nat . fin n > fin (s n)
"""

_LIST = """\
type list : pi n : nat . tp
const nil : list 0
const cons : pi n : nat . nat > list n > list (s n)
"""

_FIN_MIN_AXIOMS = """\
axiom fz_ne_fs : ! n : nat . ! x : fin n . ~(fz n = fs n x)
axiom fs_inj : ! n : nat . ! x : fin n . ! y : fin n . fs n x = fs n y => x = y
"""


def _fin_reg_axioms(n: int) -> str:
    lines = [_FIN_MIN_AXIOMS.rstrip("\n")]
    lines.append("axiom fin0_empty : ! x : fin 0 . $false")
    for k in range(1, n + 1):
        lines.append(
            f"axiom fin{k}_exh : ! x : fin {k} . "
            f"x = fz {k - 1} | ? y : fin {k - 1} . x = fs {k - 1} y"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: str
    theory: Theory
    conjecture: Optional[Term]
    expected: dict[str, str]  # eps{1,2}_{typecheck,prove} -> yes|no|prover-dependent


def _entry(name: str, source: str, e1tc: str, e1p: str, e2tc: str, e2p: str) -> CorpusEntry:
    thy, conjecture = parse_theory(source)
    if conjecture is None:
        raise ValueError(f"corpus problem {name} lacks a conjecture")
    return CorpusEntry(
        name,
        source,
        thy,
        conjecture,
        {
            "eps1_typecheck": e1tc,
            "eps1_prove": e1p,
            "eps2_typecheck": e2tc,
            "eps2_prove": e2p,
        },
    )


def _choice_def1() -> CorpusEntry:
    src = (
        _NAT
        + _FIN
        + """\
const p : fin 2 > $o
axiom p_witness : ? x : fin 2 . p x
conjecture : p (eps x : fin 2 . p x)
"""
    )
    return _entry("choice_def1", src, YES, YES, YES, PROVER_DEPENDENT)


def _choice_def2() -> CorpusEntry:
    src = (
        _NAT
        + _FIN
        + """\
const p : pi n : nat . fin n > $o
axiom p_witness : ! n : nat . ? x : fin n . p n x
conjecture : ! n : nat . p n (eps x : fin n . p n x)
"""
    )
    return _entry("choice_def2", src, YES, YES, YES, PROVER_DEPENDENT)


def _choice_def3() -> CorpusEntry:
    src = (
        _NAT
        + """\
type b : pi n : nat . tp
const inhab : pi n : nat . b n
const m : nat
const p : b m > $o
axiom p_witness : ? x : b m . p x
conjecture : p (eps x : b m . p x)
"""
    )
    return _entry("choice_def3", src, YES, YES, YES, PROVER_DEPENDENT)


def _choice_eq(n: int) -> CorpusEntry:
    src = (
        _NAT
        + _FIN
        + _fin_reg_axioms(n)
        + f"conjecture : (eps x : fin {n} . x = fz {n - 1}) = fz {n - 1}\n"
    )
    if n == 1:
        return _entry("choice_eq1", src, YES, YES, YES, PROVER_DEPENDENT)
    return _entry("choice_eq2", src, YES, PROVER_DEPENDENT, YES, PROVER_DEPENDENT)


def _choice_nq() -> CorpusEntry:
    src = (
        _NAT
        + _FIN
        + _fin_reg_axioms(2)
        + "conjecture : ~((eps x : fin 2 . ~(x = fz 1)) = fz 1)\n"
    )
    return _entry(
        "choice_nq", src, PROVER_DEPENDENT, PROVER_DEPENDENT, PROVER_DEPENDENT, PROVER_DEPENDENT
    )


def _no_fp(n: int, variant: str) -> CorpusEntry:
    axioms = _fin_reg_axioms(n) if variant == "reg" else _FIN_MIN_AXIOMS
    src = (
        _NAT
        + _FIN
        + axioms
        + f"conjecture : ! x : fin {n} . "
        f"~((^ z : fin {n} . eps y : fin {n} . ~(z = y)) x = x)\n"
    )
    name = f"no_fp_fin{n}_{variant}"
    if n == 1:
        # The singleton case: ill-typed under the strong rule, fine weakly.
        return _entry(name, src, NO, NO, YES, NO)
    if n == 0 and variant == "min":
        # Possibly-empty domain: the strong witness premise is unprovable.
        return _entry(name, src, NO, NO, YES, PROVER_DEPENDENT)
    if n == 9 and variant == "min":
        return _entry(name, src, YES, YES, YES, PROVER_DEPENDENT)
    return _entry(name, src, YES, YES, YES, YES)


def _list_defs() -> str:
    return (
        _NAT
        + _LIST
        + """\
const empty : pi n : nat . list n > $o
axiom empty_nil : empty 0 nil
axiom empty_cons : ! n : nat . ! x : nat . ! l : list n . ~(empty (s n) (cons n x l))
"""
    )


def _list_empty() -> CorpusEntry:
    src = _list_defs() + "conjecture : empty 0 (eps l : list 0 . empty 0 l)\n"
    return _entry("list_empty", src, YES, YES, YES, PROVER_DEPENDENT)


def _list_nonempty() -> CorpusEntry:
    src = _list_defs() + "conjecture : ~(empty 1 (eps l : list 1 . $true))\n"
    return _entry(
        "list_nonempty",
        src,
        PROVER_DEPENDENT,
        PROVER_DEPENDENT,
        PROVER_DEPENDENT,
        PROVER_DEPENDENT,
    )


def _list_head() -> CorpusEntry:
    src = (
        _NAT
        + _LIST
        + """\
const hd : pi n : nat . list (s n) > nat
axiom hd_cons : ! n : nat . ! x : nat . ! l : list n . hd n (cons n x l) = x
conjecture : hd 0 (eps l : list 1 . hd 0 l = 0) = 0
"""
    )
    return _entry("list_head", src, YES, PROVER_DEPENDENT, YES, PROVER_DEPENDENT)


FAMILY = (
    ["choice_def1", "choice_def2", "choice_def3", "choice_eq1", "choice_eq2", "choice_nq"]
    + [f"no_fp_fin{n}_reg" for n in range(10)]
    + [f"no_fp_fin{n}_min" for n in range(10)]
    + ["list_empty", "list_nonempty", "list_head"]
)


def gen_problem(name: str) -> CorpusEntry:
    if name == "choice_def1":
        return _choice_def1()
    if name == "choice_def2":
        return _choice_def2()
    if name == "choice_def3":
        return _choice_def3()
    if name == "choice_eq1":
        return _choice_eq(1)
    if name == "choice_eq2":
        return _choice_eq(2)
    if name == "choice_nq":
        return _choice_nq()
    if name.startswith("no_fp_fin"):
        rest = name[len("no_fp_fin"):]
        for variant in ("reg", "min"):
            if rest.endswith("_" + variant):
                n = int(rest[: -len("_" + variant)])
                if 0 <= n <= 9:
                    return _no_fp(n, variant)
    if name == "list_empty":
        return _list_empty()
    if name == "list_nonempty":
        return _list_nonempty()
    if name == "list_head":
        return _list_head()
    raise ValueError(f"unknown corpus problem {name!r}")


def gen_all() -> list[CorpusEntry]:
    """All documented family members, deterministic order.  The published
    archive speaks of 34 problems while the descriptions enumerate 29; the 29
    described ones are generated and the manifest flags the gap."""
    return [gen_problem(name) for name in FAMILY]


MANIFEST_HEADER = """\
# corpus manifest: name, eps1_typecheck, eps1_prove, eps2_typecheck, eps2_prove
# values: yes | no | prover-dependent
# note: 29 problems are described and generated; the source experiment speaks
#       of 34, the remainder being available only in its archive.
# note: for no_fp_fin0_min the experiment table and the case analysis disagree
#       on the strong type-check; the case analysis (not well-typed) is used.
"""


def write_corpus(directory: Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    lines = [MANIFEST_HEADER]
    for entry in gen_all():
        path = directory / f"{entry.name}.dhol"
        path.write_text(entry.source, encoding="utf-8")
        written.append(path)
        e = entry.expected
        lines.append(
            f"{entry.name}\t{e['eps1_typecheck']}\t{e['eps1_prove']}"
            f"\t{e['eps2_typecheck']}\t{e['eps2_prove']}"
        )
    manifest = directory / "manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(manifest)
    return written
