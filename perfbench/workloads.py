"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs one
item at a time through dholc's public functions (a closed loop with a single
caller).  ``run`` is the timed program path; ``record`` turns its result into
the deterministic summary that the determinism check compares between passes
and runs; ``check`` is the correctness gate; ``tally`` feeds the per-pass
counts behind ``decided_ratio`` and ``output_kb``.

dholc is reached through its modules (``parser.parse_theory``, not a name
bound at import) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field

from dholc import corpus, erasure, kernel, oracle, parser, prover, thf
from dholc.syntax import AxiomDecl, Context

MODES = (kernel.Mode.STRONG_EPSILON, kernel.Mode.WEAK_EPSILON)
_CONJECTURE_LINE = re.compile(r"^thf\([^,]+, conjecture,")


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@dataclass
class Item:
    key: str  # stable name of the item; the same key means the same input
    data: object


@dataclass
class Tally:
    decided: int = 0  # obligations discharged or refuted / searches that ended
    attempted: int = 0  # obligations or searches the ratio is taken over
    thf_bytes: int = 0
    report_bytes: int = 0
    outcomes: Counter = field(default_factory=Counter)  # verdict status -> count


def _cell(expected: dict, mode_value: str, kind: str) -> str:
    question = "prove" if kind == kernel.ObligationKind.CONJECTURE.value else "typecheck"
    return expected[f"{mode_value}_{question}"]


# ---------------------------------------------------------------------------
# corpus_prove: what `dholc prove` does to every corpus problem in both modes


def corpus_verdicts(rep_ok: bool, verdicts: list[tuple[str, str]]) -> dict[str, str | None]:
    """The typecheck and prove answers a (kind, status) list commits to:
    "yes", "no", or None while an obligation stays open.  A structural error
    answers both questions with "no"."""
    if not rep_ok:
        return {"typecheck": "no", "prove": "no"}
    conjecture = kernel.ObligationKind.CONJECTURE.value

    def answer(statuses):
        if any(s.startswith("refuted") for s in statuses):
            return "no"
        if all(s.startswith("discharged") for s in statuses):
            return "yes"
        return None

    typing = [s for k, s in verdicts if k != conjecture]
    return {"typecheck": answer(typing), "prove": answer([s for _, s in verdicts])}


def corpus_contradictions(expected: dict, mode_value: str, answers: dict) -> list[str]:
    """Answers that contradict a yes/no cell of the corpus manifest;
    prover-dependent cells are not checked."""
    out = []
    for question, got in answers.items():
        cell = expected[f"{mode_value}_{question}"]
        if got is not None and cell in (corpus.YES, corpus.NO) and got != cell:
            out.append(f"{mode_value}_{question}: manifest says {cell}, got {got}")
    return out


class CorpusProve:
    name = "corpus_prove"

    def __init__(self, seed: int, problems: tuple[str, ...] | None = None):
        self.seed = seed
        self.problems = problems  # None: the whole corpus

    def setup(self) -> list[Item]:
        entries = corpus.gen_all()
        if self.problems is not None:
            entries = [e for e in entries if e.name in self.problems]
        items = [Item(f"{e.name}/{m.value}", (e, m)) for e in entries for m in MODES]
        random.Random(self.seed).shuffle(items)
        return items

    def run(self, item: Item):
        entry, mode = item.data
        thy, conjecture = parser.parse_theory(entry.source)
        rep = kernel.check_theory(thy, conjecture, mode)
        text = None
        if rep.ok:
            # the erased problem `dholc prove` writes next to the input
            erased = erasure.erase_theory(rep.theory_elaborated, Context(), mode.variant)
            goal = erasure.erase_term(rep.conjecture_elaborated, mode.variant)
            text = thf.emit_thf(erased, f"{entry.name}.{mode.variant.value}", conjecture=goal).text
        report = prover.discharge(rep.obligations, budget=prover.DESK_BUDGET, jobs=1)
        return rep.ok, text, report

    def record(self, item: Item, result) -> dict:
        ok, text, report = result
        return {
            "ok": ok,
            "thf": digest(text),
            "verdicts": [
                [v.obligation_id, v.kind, v.status, v.method, v.detail] for v in report.verdicts
            ],
        }

    def check(self, item: Item, result) -> list[str]:
        entry, mode = item.data
        ok, _, report = result
        answers = corpus_verdicts(ok, [(v.kind, v.status) for v in report.verdicts])
        return corpus_contradictions(entry.expected, mode.value, answers)

    def tally(self, item: Item, result, t: Tally) -> None:
        _, text, report = result
        for v in report.verdicts:
            t.attempted += 1
            t.decided += v.discharged or v.refuted
            t.outcomes[v.status] += 1
        t.thf_bytes += len(text.encode()) if text else 0


# ---------------------------------------------------------------------------
# kernel_emit: `dholc emit` plus `dholc erase` on synthetic choice theories

PRELUDE = """\
type nat : tp
const 0 : nat
const s : nat > nat
type fin : pi n : nat . tp
const fz : pi n : nat . fin (s n)
const fs : pi n : nat . fin n > fin (s n)
const p : pi n : nat . fin n > $o
const q : pi n : nat . fin n > $o
"""

# Every declaration carries one choice term over fin k.  The templates come
# in a fixed mix and the seed only permutes them, so a theory's size, its
# obligations and the work they cost do not depend on the seed.
_TEMPLATES = (
    "axiom {lbl} : {o} {k} (eps x : fin {k} . p {k} x)",
    "axiom {lbl} : {o} {k} (eps x : fin {k} . ~ q {k} x)",
    "axiom {lbl} : {o} {k} (eps x : fin {k} . p {k} x | q {k} x)",
    "axiom {lbl} : ! y : fin {k} . {o} {k} (eps x : fin {k} . p {k} x & ~ q {k} y)",
)
KERNEL_SIZES = (4, 6, 8, 10, 12, 14, 16, 18, 20)


def synth_theory(n: int, rng: random.Random) -> str:
    """A theory of n choice-bearing declarations and a conjecture."""
    shapes = [(_TEMPLATES[i % len(_TEMPLATES)], 1 + (i // len(_TEMPLATES)) % 4, "pq"[i % 2]) for i in range(n)]
    rng.shuffle(shapes)
    lines = [PRELUDE.rstrip("\n")]
    for i, (template, k, outer) in enumerate(shapes):
        lines.append(template.format(lbl=f"ax{i}", o=outer, k=k))
    lines.append("conjecture : ? x : fin 1 . p 1 x")
    return "\n".join(lines) + "\n"


def synth_obligations(n: int, mode) -> Counter:
    """The obligation kinds the kernel must produce for a synthetic theory."""
    choice = {
        kernel.Mode.STRONG_EPSILON: kernel.ObligationKind.CHOICE_WITNESS,
        kernel.Mode.WEAK_EPSILON: kernel.ObligationKind.TYPE_INHABITED,
    }[mode]
    return Counter({choice.value: n, kernel.ObligationKind.CONJECTURE.value: 1})


def thf_problems(mode_value: str, texts: list[str]) -> list[str]:
    """Emitted problems that do not re-read or lack exactly one conjecture."""
    out = []
    for i, text in enumerate(texts):
        try:
            _, conjecture = thf.parse_thf(text)
        except thf.ThfError as e:
            out.append(f"{mode_value} problem {i}: does not re-read: {e}")
            continue
        count = sum(bool(_CONJECTURE_LINE.match(line)) for line in text.splitlines())
        if conjecture is None or count != 1:
            out.append(f"{mode_value} problem {i}: {count} conjectures")
    return out


class KernelEmit:
    name = "kernel_emit"

    def __init__(self, seed: int, sizes: tuple[int, ...] = KERNEL_SIZES):
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> list[Item]:
        rng = random.Random(self.seed)
        items = []
        for n in self.sizes:
            source = synth_theory(n, rng)
            for m in MODES:
                items.append(Item(f"n{n}/{m.value}", (f"synth{n}", source, m, synth_obligations(n, m))))
        rng.shuffle(items)
        return items

    def run(self, item: Item):
        name, source, mode, _ = item.data
        variant = mode.variant
        thy, conjecture = parser.parse_theory(source)
        rep = kernel.check_theory(thy, conjecture, mode)
        texts = [thf.emit_thf(ob, f"{name}.{ob.id}.{variant.value}").text for ob in rep.obligations]
        erased = erasure.erase_theory(rep.theory_elaborated, Context(), variant)
        goal = erasure.erase_term(rep.conjecture_elaborated, variant)
        texts.append(thf.emit_thf(erased, f"{name}.{variant.value}", conjecture=goal).text)
        return rep, texts

    def record(self, item: Item, result) -> dict:
        rep, texts = result
        return {
            "ok": rep.ok,
            "obligations": [[ob.id, ob.kind.value] for ob in rep.obligations],
            "thf": digest(texts),
        }

    def check(self, item: Item, result) -> list[str]:
        _, _, mode, want = item.data
        rep, texts = result
        problems = [str(d) for d in rep.diagnostics]
        got = Counter(ob.kind.value for ob in rep.obligations)
        if got != want:
            problems.append(f"obligation kinds {dict(got)} != generated {dict(want)}")
        return problems + thf_problems(mode.value, texts)

    def tally(self, item: Item, result, t: Tally) -> None:
        rep, texts = result
        # nothing is decided here: an obligation counts once it is a THF
        # problem that passed the gate
        t.attempted += len(rep.obligations)
        t.decided += len(rep.obligations)
        t.outcomes.update(ob.kind.value for ob in rep.obligations)
        t.thf_bytes += sum(len(x.encode()) for x in texts)


# ---------------------------------------------------------------------------
# oracle_deep: size-(2,2) countermodel searches on prepared corpus obligations

DEEP_BUDGET = oracle.SearchBudget(max_size=2, max_models=20_000_000, max_seconds=3600.0)
# choice_def1's search takes 2.4 times as long as the next longest, so one
# pass holds one such sample.  Once a run has more than ten passes, the tail
# item time would jump from the other searches to that one: a faster oracle
# would read as a worse tail.
DEEP_LEFT_OUT = ("choice_def1",)


@dataclass(frozen=True)
class DeepTarget:
    problem: str
    mode: str
    obligation: str
    kind: str
    cell: str  # manifest cell the obligation answers
    theory: object
    conjecture: object


def countermodel_errors(target: DeepTarget, result) -> list[str]:
    """A found model must satisfy every axiom and falsify the conjecture."""
    model = result.model
    out = []
    for d in target.theory:
        if isinstance(d, AxiomDecl) and oracle.eval_term(model, {}, d.term) != 1:
            out.append(f"countermodel violates axiom {d.label}")
    if oracle.eval_term(model, {}, target.conjecture) != 0:
        out.append("countermodel satisfies the conjecture")
    return out


class OracleDeep:
    name = "oracle_deep"

    def __init__(self, seed: int, problems: tuple[str, ...] | None = None):
        self.seed = seed
        self.problems = problems  # None: the whole corpus

    def setup(self) -> list[Item]:
        items = []
        for index, entry in enumerate(corpus.gen_all()):
            if entry.name in DEEP_LEFT_OUT:
                continue
            if self.problems is not None and entry.name not in self.problems:
                continue
            # One obligation per problem, in a fixed mix: every other problem
            # contributes its first obligation, the rest their second, and
            # the mode changes every two problems.  The seed only shuffles the
            # order: which searches a pass holds moves the median and the tail
            # item time by several percent, more than the metrics can spare.
            m = MODES[(index // 2) % 2]
            rep = kernel.check_theory(entry.theory, entry.conjecture, m)
            ob = rep.obligations[index % len(rep.obligations)]
            items.append(
                DeepTarget(
                    entry.name,
                    m.value,
                    ob.id,
                    ob.kind.value,
                    _cell(entry.expected, m.value, ob.kind.value),
                    oracle.merge_context(ob.hol_theory, ob.hol_context),
                    ob.conjecture,
                )
            )
        random.Random(self.seed).shuffle(items)
        return [Item(f"{t.problem}/{t.mode}/{t.obligation}", t) for t in items]

    def run(self, item: Item):
        t = item.data
        return oracle.countermodel(t.theory, t.conjecture, DEEP_BUDGET)

    def _report(self, item: Item, result) -> dict:
        # what `dholc oracle --json-report` writes for this search
        t = item.data
        return {
            "problem": t.problem,
            "command": "oracle",
            "mode": t.mode,
            "status": result.status,
            "model": result.model.to_json_dict() if result.found else None,
        }

    def record(self, item: Item, result) -> dict:
        return {**self._report(item, result), "detail": result.detail}

    def check(self, item: Item, result) -> list[str]:
        if not result.found:
            return []
        problems = countermodel_errors(item.data, result)
        if item.data.cell == corpus.YES:
            problems.append("countermodel for an obligation the manifest answers yes")
        return problems

    def tally(self, item: Item, result, t: Tally) -> None:
        t.attempted += 1
        t.decided += result.status in ("countermodel", "none")
        t.outcomes[result.status] += 1
        t.report_bytes += len(json.dumps(self._report(item, result), indent=2).encode()) + 1


def probe_layers(seed: int) -> None:
    """Send one small corpus item through the whole prove path: corpus
    generation, parse, check, erasure, THF, local discharge, ground prover and
    oracle.  A traced set-up runs it so that every layer has spans in every
    trace, also on workloads that do not use that layer."""
    wl = CorpusProve(seed, problems=("list_nonempty",))
    wl.run(next(it for it in wl.setup() if it.key == "list_nonempty/eps1"))


WORKLOADS = {w.name: w for w in (CorpusProve, KernelEmit, OracleDeep)}
