"""External ATP invocation and batch obligation discharge.

The discharge pipeline per obligation, in order:

1. local auto-discharge: conjecture alpha-equal to an axiom/assumption (after
   beta and double-negation normalization), a reflexive equation, or truth;
2. the bundled sound ground prover (dholc.ground);
3. the finite-model oracle: a countermodel refutes the obligation; an
   exhaustive "none up to bound" is recorded as small-scale confirmation but
   does NOT count as discharged (it is not a proof);
4. an external THF ATP when configured; its SZS status decides.

Verdicts preserve input order and ids.  The overall verdict is the
conjunction of per-obligation discharge.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .erasure import beta_normalize
from .ground import dn_normalize, prove_ground
from .kernel import Obligation
from .oracle import SearchBudget, SearchResult, countermodel, merge_context
from .syntax import AxiomDecl, Eq, Falsum, Implies, alpha_eq
from .thf import ThfProblem, emit_thf

@dataclass(frozen=True)
class SzsStatus:
    kind: str  # an SZS word, or Timeout / GaveUp / Error from the harness
    wall_time: float = 0.0
    detail: str = ""


@dataclass(frozen=True)
class ProverConfig:
    command: str  # template; {file} is replaced by the problem path
    time_limit: float = 90.0

    def __post_init__(self):
        if not self.time_limit > 0:  # NaN too
            raise ValueError("prover time limit must be positive")


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
        if "{file}" in cfg.command:
            cmd = cfg.command.replace("{file}", path)
        else:
            cmd = f"{cfg.command} {path}"
        try:
            # A session of its own, so that a timeout can kill the prover's
            # whole process group, not only a wrapper script around it.
            proc = subprocess.Popen(
                shlex.split(cmd),
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
    goal = dn_normalize(beta_normalize(ob.conjecture))
    if isinstance(goal, Implies) and isinstance(goal.lhs, Falsum) and isinstance(goal.rhs, Falsum):
        return "truth"
    if isinstance(goal, Eq) and alpha_eq(goal.lhs, goal.rhs):
        return "reflexivity"
    for d in tuple(ob.hol_theory) + tuple(ob.hol_context):
        if isinstance(d, AxiomDecl) and alpha_eq(dn_normalize(beta_normalize(d.term)), goal):
            return f"assumption {d.label}"
    return None


def discharge_one(
    ob: Obligation,
    cfg: Optional[ProverConfig] = None,
    oracle_fallback: bool = True,
    budget: SearchBudget = DESK_BUDGET,
) -> ObligationVerdict:
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
    if cfg is not None:
        problem = emit_thf(ob, ob.id)
        szs = run_atp(problem, cfg)
        if szs.kind == "Theorem":
            return verdict("discharged-atp", "atp", szs.kind)
        if szs.kind == "CounterSatisfiable":
            return verdict("refuted-atp", "atp", oracle_note, oracle_result)
        return verdict(
            f"open-atp-{szs.kind.lower()}", "atp", oracle_note or szs.detail[:200], oracle_result
        )
    return verdict("open", "oracle" if oracle_fallback else "none", oracle_note, oracle_result)


def discharge(
    obligations: list[Obligation],
    cfg: Optional[ProverConfig] = None,
    oracle_fallback: bool = True,
    budget: SearchBudget = DESK_BUDGET,
    jobs: int = 1,
) -> DischargeReport:
    """Discharge a batch; the report preserves the input order and ids.
    Without an external prover every stage is CPU-bound Python, so the
    obligations run one after another on the calling thread.  With one, up
    to ``jobs`` obligations run in a thread pool, so that their prover runs
    overlap."""
    report = DischargeReport()
    if cfg is not None and jobs > 1 and len(obligations) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(discharge_one, ob, cfg, oracle_fallback, budget)
                for ob in obligations
            ]
            report.verdicts = [f.result() for f in futures]
    else:
        report.verdicts = [discharge_one(ob, cfg, oracle_fallback, budget) for ob in obligations]
    return report
