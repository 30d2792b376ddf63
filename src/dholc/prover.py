"""External ATP invocation and batch obligation discharge.

The discharge pipeline per obligation, in order:

1. local auto-discharge: conjecture alpha-equal to an axiom/assumption (after
   beta and double-negation normalization), a reflexive equation, or truth;
2. the bundled sound ground prover (dholc.ground);
3. the finite-model oracle: a countermodel refutes the obligation; an
   exhaustive "none up to bound" is recorded as small-scale confirmation but
   does NOT count as discharged (it is not a proof);
4. an external THF ATP when configured; its SZS status decides.

``discharge_one`` runs the bundled stages 1-3, which are CPU-bound Python, on
the calling thread.  The external prover runs only from ``discharge``, and
only its runs, which wait on a subprocess, overlap.  Verdicts preserve input
order and ids.  The overall verdict is the conjunction of per-obligation
discharge.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

# not called here, but kept bound: perfbench's tracer wraps prover.beta_normalize
from .erasure import beta_normalize  # noqa: F401
from .ground import normal_form, prove_ground
from .kernel import Obligation
from .oracle import SearchBudget, SearchResult, countermodel, merge_context
from .syntax import AxiomDecl, Eq, Falsum, Implies, alpha_eq
from .thf import ThfProblem, emit_thf

@dataclass(frozen=True)
class SzsStatus:
    kind: str  # an SZS word, or Timeout / GaveUp / Error from the harness
    wall_time: float = 0.0
    detail: str = ""


# The longest wait subprocess can time: poll() takes at most 2**31 - 1 ms.
MAX_TIME_LIMIT = 2_147_483.0


@dataclass(frozen=True)
class ProverConfig:
    command: str  # template; {file} is replaced by the problem path
    time_limit: float = 90.0

    def __post_init__(self):
        if not self.time_limit > 0:  # NaN too
            raise ValueError("prover time limit must be positive")
        if self.time_limit > MAX_TIME_LIMIT:  # infinity too
            raise ValueError(f"prover time limit must be at most {MAX_TIME_LIMIT:.0f} seconds")
        try:  # split once; argv is no field, so it takes no part in ==
            object.__setattr__(self, "argv", tuple(shlex.split(self.command)))
        except ValueError as e:
            raise ValueError(f"bad prover command: {e}") from None


def run_atp(problem: ThfProblem, cfg: ProverConfig) -> SzsStatus:
    """Run the configured prover on one problem.  Never raises on prover
    failure: spawn problems become Error, a missing SZS line becomes GaveUp
    with the raw output attached."""
    start = time.monotonic()
    with tempfile.NamedTemporaryFile(
        "w", suffix=".p", prefix=f"{problem.name}.", delete=False
    ) as fh:
        fh.write(problem.text)
        path = fh.name
    try:
        # {file} is replaced inside each argument, so that the path stays one
        # argument whatever characters it holds
        if "{file}" in cfg.command:
            argv = [a.replace("{file}", path) for a in cfg.argv]
        else:
            argv = [*cfg.argv, path]
        try:
            # A session of its own, so that a timeout can kill the prover's
            # whole process group, not only a wrapper script around it.
            proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        except OSError as e:
            return SzsStatus("Error", time.monotonic() - start, f"spawn: {e}")
        with proc:
            try:
                stdout, stderr = proc.communicate(timeout=cfg.time_limit)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return SzsStatus("Timeout", time.monotonic() - start)
        wall = time.monotonic() - start
        output = stdout + "\n" + stderr
        for line in output.splitlines():
            if "SZS status" in line:
                words = line.split("SZS status", 1)[1].split()
                if words:
                    return SzsStatus(words[0], wall)
        return SzsStatus("GaveUp", wall, output.strip()[:2000])
    finally:
        Path(path).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Discharge


DESK_BUDGET = SearchBudget(max_size=2, max_models=200_000, max_seconds=5.0)


@dataclass
class ObligationVerdict:
    obligation_id: str
    kind: str
    status: str  # discharged-* | refuted-* | open-*
    method: str
    wall_time: float
    detail: str = ""
    counter_model: Optional[SearchResult] = None

    @property
    def discharged(self) -> bool:
        return self.status.startswith("discharged")

    @property
    def refuted(self) -> bool:
        return self.status.startswith("refuted")


@dataclass
class DischargeReport:
    verdicts: list[ObligationVerdict] = field(default_factory=list)

    @property
    def all_discharged(self) -> bool:
        return all(v.discharged for v in self.verdicts)

    def to_text(self) -> str:
        lines = []
        for v in self.verdicts:
            lines.append(
                f"{v.obligation_id} {v.kind} {v.status} method={v.method} "
                f"time={v.wall_time:.3f}s{' ' + v.detail if v.detail else ''}"
            )
        lines.append(f"overall: {'discharged' if self.all_discharged else 'open'}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        # stable key order: obligation id order = input order
        return {
            v.obligation_id: {
                "kind": v.kind,
                "status": v.status,
                "method": v.method,
                "time": round(v.wall_time, 6),
            }
            for v in self.verdicts
        }


def _local_discharge(ob: Obligation) -> Optional[str]:
    goal = normal_form(ob.conjecture)
    if isinstance(goal, Implies) and isinstance(goal.lhs, Falsum) and isinstance(goal.rhs, Falsum):
        return "truth"
    if isinstance(goal, Eq) and alpha_eq(goal.lhs, goal.rhs):
        return "reflexivity"
    for d in tuple(ob.hol_theory) + tuple(ob.hol_context):
        if isinstance(d, AxiomDecl) and alpha_eq(normal_form(d.term), goal):
            return f"assumption {d.label}"
    return None


def discharge_one(
    ob: Obligation, oracle_fallback: bool = True, budget: SearchBudget = DESK_BUDGET
) -> ObligationVerdict:
    """The bundled stages 1-3 only; an obligation they leave open gets status
    ``open``, and an external prover runs only from ``discharge``."""
    start = time.monotonic()

    def verdict(status, method, detail="", counter_model=None) -> ObligationVerdict:
        return ObligationVerdict(
            ob.id, ob.kind.value, status, method, time.monotonic() - start, detail, counter_model
        )

    reason = _local_discharge(ob)
    if reason is not None:
        return verdict("discharged-local", "local", reason)
    if prove_ground(ob.hol_theory, ob.hol_context, ob.conjecture):
        return verdict("discharged-ground", "ground")
    oracle_note = ""
    oracle_result = None
    if oracle_fallback:
        merged = merge_context(ob.hol_theory, ob.hol_context)
        oracle_result = countermodel(merged, ob.conjecture, budget)
        if oracle_result.found:
            return verdict(
                "refuted-countermodel",
                "oracle",
                f"countermodel at sizes {oracle_result.model.sizes}",
                oracle_result,
            )
        if oracle_result.status == "none":
            # Bounded confirmation: evidence, not a proof.
            oracle_note = f"no countermodel up to size {budget.max_size}"
        else:
            oracle_note = f"oracle exhausted: {oracle_result.detail}"
    return verdict("open", "oracle" if oracle_fallback else "none", oracle_note, oracle_result)


def _atp_verdict(open_: ObligationVerdict, szs: SzsStatus) -> ObligationVerdict:
    """The verdict for an obligation the bundled stages left open, given the
    external prover's answer; unless it is a proof, the oracle's note and
    result are kept."""
    if szs.kind == "Theorem":
        status, detail, model = "discharged-atp", szs.kind, None
    elif szs.kind == "CounterSatisfiable":
        status, detail, model = "refuted-atp", open_.detail, open_.counter_model
    else:
        status, model = f"open-atp-{szs.kind.lower()}", open_.counter_model
        # one line per verdict: the prover's output is folded onto one
        detail = open_.detail or " ".join(szs.detail.split())[:200]
    wall = open_.wall_time + szs.wall_time
    return replace(
        open_, status=status, method="atp", wall_time=wall, detail=detail, counter_model=model
    )


def discharge(
    obligations: list[Obligation],
    cfg: Optional[ProverConfig] = None,
    oracle_fallback: bool = True,
    budget: SearchBudget = DESK_BUDGET,
    jobs: int = 1,
) -> DischargeReport:
    """Discharge a batch; the report preserves the input order and ids.
    The bundled stages run on the calling thread for every obligation, so
    their verdicts, and the oracle's wall-time budget, do not depend on
    ``jobs``.  With an external prover, the obligations they leave open are
    emitted as THF on the calling thread too, and up to ``jobs`` prover runs
    wait on their subprocesses at once."""
    verdicts = [discharge_one(ob, oracle_fallback, budget) for ob in obligations]
    if cfg is not None:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            runs = {
                i: pool.submit(run_atp, emit_thf(ob, ob.id), cfg)
                for i, (ob, v) in enumerate(zip(obligations, verdicts))
                if v.status == "open"
            }
            for i, run in runs.items():
                verdicts[i] = _atp_verdict(verdicts[i], run.result())
    return DischargeReport(verdicts)
