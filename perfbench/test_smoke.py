"""Smoke test of the benchmark harness at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q      (or: python3 perfbench/test_smoke.py)

Checks that every metric named in BENCHMARK.json is reported, with its unit,
for every workload, and that the correctness gate and the determinism check
count failures when a result is corrupted.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from dholc.syntax import top  # noqa: E402

SEED = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    if name == "corpus_prove":
        return workloads.CorpusProve(SEED, problems=("no_fp_fin1_reg", "list_nonempty", "choice_eq1"))
    if name == "kernel_emit":
        return workloads.KernelEmit(SEED, sizes=(3, 5))
    return workloads.OracleDeep(SEED, problems=("no_fp_fin1_reg", "list_nonempty"))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_reported(capsys):
    for name in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run_workload(name, SEED, 0.01, trace, wl=tiny(name))
            line = run.result_line(record)
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, (name, trace)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == want, (name, trace)
            assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
            run.print_report(record)
            out = capsys.readouterr().out
            for metric in want:
                assert metric in out, (name, metric)
            if not trace:
                assert all(line["metrics"][m]["value"] > 0 for m in want), name


def _corrupted(wl, corrupt):
    original = wl.run
    wl.run = lambda item: corrupt(item, original(item))
    return wl


def test_gate_fires_on_corrupted_corpus_verdict():
    # no_fp_fin1_reg does not type-check under eps1; claiming its typing
    # obligation proved contradicts the manifest
    def corrupt(item, result):
        ok, text, report = result
        if item.key == "no_fp_fin1_reg/eps1":
            for v in report.verdicts:
                if v.kind != "Conjecture":
                    v.status = "discharged-ground"
        return ok, text, report

    wl = _corrupted(workloads.CorpusProve(SEED, problems=("no_fp_fin1_reg",)), corrupt)
    record = run.run_workload("corpus_prove", SEED, 0.01, False, wl=wl)
    assert record["failed"] >= 1
    assert not run.result_line(record)["correct"]


def test_gate_fires_on_oracle_and_kernel_outputs():
    deep = workloads.OracleDeep(SEED, problems=("list_nonempty",))
    items = [it for it in deep.setup() if it.data.kind == "Conjecture"]
    result = deep.run(items[0])
    assert result.found and deep.check(items[0], result) == []
    as_yes = dataclasses.replace(items[0], data=dataclasses.replace(items[0].data, cell="yes"))
    assert deep.check(as_yes, result)
    satisfied = dataclasses.replace(items[0].data, conjecture=top())
    assert workloads.countermodel_errors(satisfied, result)

    kern = workloads.KernelEmit(SEED, sizes=(3,))
    item = kern.setup()[0]
    rep, texts = kern.run(item)
    assert kern.check(item, (rep, texts)) == []
    no_goal = ["\n".join(l for l in t.splitlines() if ", conjecture," not in l) for t in texts]
    assert kern.check(item, (rep, no_goal))
    rep.obligations.pop()
    assert kern.check(item, (rep, texts))


def test_nondeterministic_result_fails():
    wl = workloads.CorpusProve(SEED, problems=("choice_eq1",))
    calls = {"n": 0}

    def drift(item, result):
        calls["n"] += 1
        ok, text, report = result
        return ok, f"{text}% pass {calls['n']}\n", report

    record = run.run_workload("corpus_prove", SEED, 0.5, False, wl=_corrupted(wl, drift))
    assert record["passes"] >= 2 and record["failed"] >= 1


def test_refuses_without_sources():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "corpus_prove", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp,
            capture_output=True,
            text=True,
            timeout=120,
        )
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
