import json
import os
import signal
import stat
import tempfile
import textwrap
import time
from pathlib import Path

import pytest

from dholc.erasure import ErasureVariant, erase_theory
from dholc.kernel import Mode, ObligationKind, check_theory
from dholc.oracle import SearchBudget
from dholc.parser import parse_term, parse_theory
from dholc.prover import ProverConfig, discharge, discharge_one, run_atp
from dholc.syntax import Context, FALSE, Theory, top
from dholc.thf import emit_thf


def _fake_prover(tmp_path, name, script_body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + textwrap.dedent(script_body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def _trivial_problem():
    er = erase_theory(Theory(), Context(), ErasureVariant.STRONG)
    return emit_thf(er, "trivial", conjecture=top())


def test_run_atp_theorem(tmp_path):
    cmd = _fake_prover(tmp_path, "ok.sh", "echo 'SZS status Theorem for problem'\n")
    status = run_atp(_trivial_problem(), ProverConfig(command=cmd, time_limit=5))
    assert status.kind == "Theorem"


def test_run_atp_missing_szs_line(tmp_path):
    cmd = _fake_prover(tmp_path, "mute.sh", "echo 'no status here'\n")
    status = run_atp(_trivial_problem(), ProverConfig(command=cmd, time_limit=5))
    assert status.kind == "GaveUp"
    assert "no status here" in status.detail


def test_run_atp_spawn_failure():
    status = run_atp(
        _trivial_problem(), ProverConfig(command="/nonexistent/prover {file}", time_limit=5)
    )
    assert status.kind == "Error"
    assert "spawn" in status.detail


def _running(pid):
    # a killed child that nobody has reaped yet is a zombie, not running
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_run_atp_timeout(tmp_path):
    # the prover behind a wrapper script must not outlive the timeout
    pidfile = tmp_path / "child.pid"
    cmd = _fake_prover(tmp_path, "wrapper.sh", f"sleep 30 &\necho $! > {pidfile}\nwait\n")
    status = run_atp(_trivial_problem(), ProverConfig(command=cmd, time_limit=0.5))
    assert status.kind == "Timeout"
    pid = int(pidfile.read_text())
    deadline = time.monotonic() + 5
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("template", ["{cmd} {{file}}", "{cmd}"])
def test_run_atp_passes_a_path_with_a_space_as_one_argument(tmp_path, monkeypatch, template):
    spaced = tmp_path / "with space"
    spaced.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spaced))
    cmd = _fake_prover(
        tmp_path, "one.sh", '[ $# -eq 1 ] && [ -f "$1" ] && echo "SZS status Theorem"\n'
    )
    status = run_atp(_trivial_problem(), ProverConfig(template.format(cmd=cmd), time_limit=5))
    assert status.kind == "Theorem", status.detail


def test_run_atp_file_placeholder(tmp_path):
    cmd = _fake_prover(
        tmp_path,
        "cat.sh",
        'grep -q conjecture "$1" && echo "SZS status Theorem" || echo "SZS status Error"\n',
    )
    status = run_atp(_trivial_problem(), ProverConfig(command=cmd + " {file}", time_limit=5))
    assert status.kind == "Theorem"


# ---------------------------------------------------------------------------
# discharge


def test_discharge_empty_batch():
    report = discharge([])
    assert report.all_discharged and report.verdicts == []


COUNTEREXAMPLE_SRC = """\
type a : pi x : $o . tp
const c : a $false
"""


def test_weak_inhabitation_discharged_by_witness_constant():
    thy, _ = parse_theory(COUNTEREXAMPLE_SRC)
    t = parse_term("eps x : a $false . $true")
    from dholc.kernel import infer_type

    _, obs = infer_type(thy, Context(), t, Mode.WEAK_EPSILON)
    assert [o.kind for o in obs] == [ObligationKind.TYPE_INHABITED]
    v = discharge_one(obs[0])
    assert v.discharged  # c witnesses the inhabitation


def test_strong_witness_on_singleton_not_discharged_weak_is():
    src = "type nat : tp\nconst 0 : nat\nconst s : nat > nat\ntype fin : pi n : nat . tp\n"
    thy, _ = parse_theory(src)
    t = parse_term("^ x : fin 1 . eps y : fin 1 . ~(x = y)")
    from dholc.kernel import infer_type

    _, strong = infer_type(thy, Context(), t, Mode.STRONG_EPSILON)
    _, weak = infer_type(thy, Context(), t, Mode.WEAK_EPSILON)
    assert not discharge_one(strong[0]).discharged
    assert discharge_one(weak[0]).discharged


def test_naive_reflexivity_refuted_with_countermodel():
    from dholc.kernel import Obligation, Origin
    from dholc.syntax import Base, Choice, Var, apply, conj

    thy, _ = parse_theory(COUNTEREXAMPLE_SRC)
    rep = check_theory(thy, None, Mode.STRONG_EPSILON)
    hol = erase_theory(rep.theory_elaborated, Context(), ErasureVariant.STRONG).hol_theory
    naive = Choice("x", Base("a"), top())
    ob = Obligation(
        id="ob001",
        kind=ObligationKind.CONJECTURE,
        hol_theory=hol,
        hol_context=Context(),
        conjecture=apply(Var("a*"), FALSE, naive, naive),
        origin=Origin(rule="conjecture", subject="naive"),
    )
    v = discharge_one(ob, budget=SearchBudget(max_size=2, max_models=100_000, max_seconds=10))
    assert v.status == "refuted-countermodel"
    assert v.counter_model is not None and v.counter_model.model.sizes == {"a": 2}


def test_batch_preserves_order_and_ids(tmp_path):
    # a configured prover is what puts the batch on a thread pool
    from dholc.corpus import gen_problem

    cmd = _fake_prover(tmp_path, "slow.sh", "sleep 0.1\necho 'SZS status Theorem'\n")
    e = gen_problem("choice_def1")
    rep = check_theory(e.theory, e.conjecture, Mode.WEAK_EPSILON)
    report = discharge(
        rep.obligations, cfg=ProverConfig(command=cmd, time_limit=5), oracle_fallback=False, jobs=2
    )
    assert [v.obligation_id for v in report.verdicts] == [o.id for o in rep.obligations]
    assert {v.status for v in report.verdicts} == {"discharged-atp"}


def test_verdicts_do_not_depend_on_jobs(tmp_path):
    # whatever jobs is, the bundled stages and THF emission run on the
    # calling thread and only the prover runs overlap; a short switch
    # interval would make worker threads that normalise or render the
    # shared erased axioms interleave inside them
    import sys

    from dholc.corpus import gen_problem

    # answers by the parity of the problem's size: a mix of ATP verdicts
    script = (
        'n=$(wc -c < "$1")\n'
        'if [ $((n % 2)) -eq 0 ]; then echo "SZS status Theorem"\n'
        'else echo "SZS status CounterSatisfiable"; fi\n'
    )
    cfg = ProverConfig(command=_fake_prover(tmp_path, "parity.sh", script), time_limit=10)

    def verdicts(jobs):
        out = []
        for name in ("choice_def1", "list_head", "list_nonempty", "no_fp_fin3_reg"):
            e = gen_problem(name)
            for mode in (Mode.STRONG_EPSILON, Mode.WEAK_EPSILON):
                # checked afresh, so that each run starts with empty memo slots
                rep = check_theory(e.theory, e.conjecture, mode)
                report = discharge(rep.obligations, cfg=cfg, jobs=jobs)
                out += [
                    (v.obligation_id, v.kind, v.status, v.method, v.detail) for v in report.verdicts
                ]
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        one, two = verdicts(1), verdicts(2)
    finally:
        sys.setswitchinterval(interval)
    assert one == two
    statuses = {status for _, _, status, _, _ in one}
    assert statuses >= {"discharged-ground", "discharged-atp", "refuted-atp", "refuted-countermodel"}


def test_batch_without_prover_stays_on_the_calling_thread(monkeypatch):
    import concurrent.futures
    import threading

    from dholc import prover
    from dholc.corpus import gen_problem

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("thread pool started without an external prover")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
    threads = []
    real = prover.discharge_one

    def recording(*args):
        threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(prover, "discharge_one", recording)
    e = gen_problem("choice_def1")
    rep = check_theory(e.theory, e.conjecture, Mode.STRONG_EPSILON)
    report = discharge(rep.obligations, jobs=2)
    assert len(report.verdicts) == len(rep.obligations) > 1
    assert threads == [threading.get_ident()] * len(rep.obligations)


def test_bundled_stages_and_emission_run_on_the_calling_thread(tmp_path, monkeypatch):
    import threading

    from dholc import prover
    from dholc.corpus import gen_problem

    threads = {name: [] for name in ("prove_ground", "countermodel", "emit_thf")}
    for name, seen in threads.items():

        def recording(*args, real=getattr(prover, name), seen=seen, **kwargs):
            seen.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(prover, name, recording)
    cmd = _fake_prover(tmp_path, "no.sh", "echo 'SZS status GaveUp'\n")
    cfg = ProverConfig(command=cmd, time_limit=5)
    for name in ("list_head", "choice_nq"):
        e = gen_problem(name)
        rep = check_theory(e.theory, e.conjecture, Mode.STRONG_EPSILON)
        discharge(rep.obligations, cfg=cfg, jobs=2)
    for name, seen in threads.items():
        assert seen and set(seen) == {threading.get_ident()}, name


def test_prover_runs_overlap(tmp_path):
    # each run waits until two runs have started, so it answers Theorem, and
    # not Timeout, only if another run overlaps it
    from dholc.corpus import gen_problem

    started = tmp_path / "started"
    started.mkdir()
    script = (
        f'touch "{started}/$$"\n'
        f'while [ "$(ls "{started}" | wc -l)" -lt 2 ]; do sleep 0.05; done\n'
        "echo 'SZS status Theorem'\n"
    )
    cfg = ProverConfig(command=_fake_prover(tmp_path, "pair.sh", script), time_limit=5)
    e = gen_problem("choice_def1")
    rep = check_theory(e.theory, e.conjecture, Mode.WEAK_EPSILON)
    report = discharge(rep.obligations, cfg=cfg, oracle_fallback=False, jobs=2)
    assert len(report.verdicts) >= 2
    assert {v.status for v in report.verdicts} == {"discharged-atp"}


def test_atp_integration_in_discharge(tmp_path):
    cmd = _fake_prover(tmp_path, "yes.sh", "echo 'SZS status Theorem'\n")
    src = "type u : tp\nconst d : u\nconst h : u > $o\n"
    thy, _ = parse_theory(src)
    rep = check_theory(thy, parse_term("h d"), Mode.STRONG_EPSILON)
    ob = rep.conjecture_obligation
    # the oracle refutes this outright (h d has a countermodel) ...
    assert discharge_one(ob).status == "refuted-countermodel"
    # ... with the oracle off, the configured prover's verdict is taken
    v = discharge([ob], cfg=ProverConfig(command=cmd, time_limit=5), oracle_fallback=False).verdicts[0]
    assert v.status == "discharged-atp"


def test_prover_output_is_folded_onto_one_verdict_line(tmp_path):
    from dholc.corpus import gen_problem

    cmd = _fake_prover(tmp_path, "chatty.sh", "echo 'first line'\necho '  second'\necho third\n")
    e = gen_problem("list_head")
    rep = check_theory(e.theory, e.conjecture, Mode.STRONG_EPSILON)
    report = discharge(rep.obligations, cfg=ProverConfig(cmd, time_limit=5), oracle_fallback=False)
    gaveup = [v for v in report.verdicts if v.status == "open-atp-gaveup"]
    assert gaveup
    for v in gaveup:
        assert v.detail == "first line second third"
    text = report.to_text()
    assert text.count("\n") == len(report.verdicts)
    assert text.splitlines()[-1] == "overall: open"


def test_sound_proofs_cross_validated_by_oracle():
    # whatever the bundled machinery proves must have no countermodel: the
    # search may exhaust its budget, but it must never find one.  The same
    # loop pins every corpus verdict, detail included, to the table in
    # data/corpus_verdicts.json; a change to the ground prover, the oracle or
    # discharge that moves one row must update the table on purpose.
    from dholc.corpus import gen_all
    from dholc.oracle import countermodel, merge_context

    checked = 0
    rows = []
    for e in gen_all():
        for mode in (Mode.STRONG_EPSILON, Mode.WEAK_EPSILON):
            rep = check_theory(e.theory, e.conjecture, mode)
            for ob, verdict in zip(rep.obligations, discharge(rep.obligations).verdicts):
                rows.append(
                    [e.name, mode.value, verdict.obligation_id, verdict.kind]
                    + [verdict.status, verdict.method, verdict.detail]
                )
                if not verdict.discharged:
                    continue
                merged = merge_context(ob.hol_theory, ob.hol_context)
                r = countermodel(
                    merged, ob.conjecture, SearchBudget(max_size=2, max_models=50_000, max_seconds=5)
                )
                assert r.status != "countermodel", (e.name, mode.value, ob.id)
                checked += 1
    assert checked > 10
    assert rows == json.loads((Path(__file__).parent / "data" / "corpus_verdicts.json").read_text())


def test_report_formats():
    from dholc.corpus import gen_problem

    e = gen_problem("choice_def1")
    rep = check_theory(e.theory, e.conjecture, Mode.STRONG_EPSILON)
    report = discharge(rep.obligations)
    text = report.to_text()
    assert "overall:" in text
    js = report.to_json_dict()
    assert list(js) == [o.id for o in rep.obligations]
    for entry in js.values():
        assert set(entry) == {"kind", "status", "method", "time"}
