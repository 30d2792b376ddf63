"""dholc benchmark: one command, three workloads, a correctness gate.

    python3 perfbench/run.py --workload corpus_prove --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; dholc is imported from ``src``.  The
workload's inputs are built from the seed, then complete passes over them run
until ``--seconds`` have elapsed (at least one pass).  Each pass is a closed
loop: one caller, the next item only after the previous one has finished, no
threads.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with a span around every call into the traced dholc
functions, and reports the per-layer metrics and the tracing overhead.  The
human-readable report goes to stdout; its last line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record, with
the machine and build, goes to ``.perfbench/BENCH_<workload>_seed<n>_trace<k>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it
YARDSTICK_EVERY = 0.25  # seconds of timed passes between two yardstick samples
YARDSTICK_STEPS = 50_000  # about 5 ms of work per sample

# (metric, unit); must match end_to_end in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("item_p50_ref", "ref"),
    ("item_tail_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("decided_ratio", "ratio"),
    ("output_kb", "KiB"),
]
# the same times in seconds and milliseconds; printed and kept in the record
RAW_TIMES = [("wall_s", "s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms")]

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import dholc; print(time.perf_counter() - t)"
)


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)  # seconds per item, in run order
    keys: list[str] = field(default_factory=list)
    failed: int = 0
    tally: object = None
    layers: dict = field(default_factory=dict)  # per-layer metrics of a traced pass

    @property
    def wall(self) -> float:
        return sum(self.times)


class Yardstick:
    """Times a fixed pure-Python job, which calls no dholc code, between
    items.  The shared host's speed drifts by 15-30% over tens of seconds,
    for dholc and this job alike, so a time divided by the job's mean time
    over the same run (unit ``ref``) is steady from run to run where seconds
    are not.  Samples are taken every YARDSTICK_EVERY seconds, so the mean
    weighs the run's phases as the pass times do."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -float("inf")

    def between_items(self) -> None:
        if time.perf_counter() - self.last < YARDSTICK_EVERY:
            return
        table = list(range(256))
        acc = 0
        t0 = time.perf_counter()
        # small ints only: nothing is allocated, so the heap the benchmark
        # has built does not change what the job costs
        for i in range(YARDSTICK_STEPS):
            acc = table[(acc + i) & 255] ^ (i & 255)
            table[i & 255] = acc
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    @property
    def unit(self) -> float:
        return statistics.fmean(self.samples)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def environment(seed: int) -> dict:
    import dholc
    from dholc.oracle import active_backend

    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "dholc": dholc.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "eval_backend": active_backend(),
    }


def bench_digest() -> str:
    """Digest of the benchmark's own code: inputs made by other code are not
    compared with these."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def import_seconds() -> float:
    """Import time of dholc in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip())


class Reference:
    """Per-item record digests that every pass and every run must repeat.
    Kept per workload and seed in ``path`` (None: this run only)."""

    def __init__(self, path: Path | None, key: str):
        self.path, self.key = path, key
        self.stored = {}
        if path is not None and path.exists():
            self.stored = json.loads(path.read_text())
        self.digests: dict[str, str] = dict(self.stored.get(key, {}))

    def matches(self, item_key: str, digest: str) -> bool:
        return self.digests.setdefault(item_key, digest) == digest

    def save(self) -> None:
        if self.path is None or self.key in self.stored:
            return
        self.stored[self.key] = self.digests
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.stored, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def one_pass(wl, items, ref: Reference, gate: bool, tracer=None, yardstick=None) -> Pass:
    from workloads import Tally, digest

    p = Pass(tally=Tally())
    for index, item in enumerate(items, 1):
        if yardstick is not None:
            yardstick.between_items()
        if tracer is not None:
            tracer.item = index
        p.keys.append(item.key)
        t0 = time.perf_counter()
        try:
            result = wl.run(item)
        except Exception:  # an item that raises is a failed attempt, not the end of the run
            p.times.append(time.perf_counter() - t0)
            p.failed += 1
            print(f"item {item.key} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        p.times.append(time.perf_counter() - t0)
        problems = wl.check(item, result) if gate else []
        if not ref.matches(item.key, digest(wl.record(item, result))):
            problems.append("result differs from the first pass or an earlier run")
        if problems:
            p.failed += 1
            print(f"item {item.key} failed: {'; '.join(problems)}", file=sys.stderr)
        wl.tally(item, result, p.tally)
    return p


def run_passes(
    wl, items, seconds: float, ref: Reference, gate_first: bool, tracer=None, yardstick=None
) -> list[Pass]:
    passes: list[Pass] = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        if tracer is not None:
            tracer.clear()
        p = one_pass(wl, items, ref, gate_first and not passes, tracer, yardstick)
        if tracer is not None:
            from tracing import layer_metrics

            p.layers = layer_metrics(tracer.layers(), tracer.counters)
        passes.append(p)
    return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool, wl=None, store: Path | None = None) -> dict:
    """Run one workload and return its result record.  ``wl`` overrides the
    workload object (for smaller inputs); ``store`` is the digest file that
    ties runs together."""
    from workloads import WORKLOADS

    wl = wl if wl is not None else WORKLOADS[name](seed)
    ref = Reference(store, f"{name}/seed={seed}/{bench_digest()}")
    record = {"workload": name, "trace": int(trace), "env": environment(seed)}
    if not trace:
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            items = wl.setup()
            builds.append(time.perf_counter() - t0)
        yardstick = Yardstick()
        passes = run_passes(wl, items, seconds, ref, gate_first=True, yardstick=yardstick)
        record["setup"] = {"import_s": imports, "build_s": builds}
        record["yardstick_s"] = yardstick.samples
        record["metrics"] = end_to_end(
            passes, statistics.median(imports) + statistics.median(builds), yardstick.unit
        )
    else:
        record["metrics"], passes = traced_run(wl, seconds, ref, name)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    item_seconds: dict[str, list[float]] = {}
    for p in passes:
        for key, t in zip(p.keys, p.times):
            item_seconds.setdefault(key, []).append(t)
    record.update(
        passes=len(passes),
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
        outcomes=dict(passes[0].tally.outcomes),
        item_seconds=item_seconds,
    )
    ref.save()
    return record


def end_to_end(passes: list[Pass], setup_s: float, unit_s: float) -> dict:
    """``unit_s``: the yardstick's mean time, the unit of the ``*_ref`` times."""
    samples = [t for p in passes for t in p.times]
    tail_s, pct, n = tail(samples)
    wall_s = statistics.fmean(p.wall for p in passes)
    p50_s = statistics.median(samples)
    t = passes[0].tally
    return {
        "setup_s": setup_s,
        "wall_ref": wall_s / unit_s,
        "item_p50_ref": p50_s / unit_s,
        "item_tail_ref": tail_s / unit_s,
        "wall_s": wall_s,
        "item_p50_ms": 1000.0 * p50_s,
        "item_tail_ms": 1000.0 * tail_s,
        "yardstick_ms": 1000.0 * unit_s,
        "item_tail_percentile": pct,
        "item_samples": n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decided_ratio": t.decided / t.attempted if t.attempted else 0.0,
        "decided": t.decided,
        "decided_of": t.attempted,
        "output_kb": (t.thf_bytes + t.report_bytes) / 1024.0,
    }


def traced_run(wl, seconds: float, ref: Reference, name: str):
    from tracing import PER_LAYER, Tracer, instrument, layer_metrics, write_spans
    from workloads import probe_layers

    tracer = Tracer()
    with instrument(tracer):
        items = wl.setup()
        probe_layers(wl.seed)
    setup = layer_metrics(tracer.layers(), tracer.counters)
    rows = [("setup",) + r for r in tracer.rows()]
    plain_stick, traced_stick = Yardstick(), Yardstick()
    plain = run_passes(wl, items, seconds / 2, ref, gate_first=True, yardstick=plain_stick)
    with instrument(tracer):
        traced = run_passes(
            wl, items, seconds / 2, ref, gate_first=False, tracer=tracer, yardstick=traced_stick
        )
        # each pass's spans are summed as it ends and cleared as the next
        # starts, so the last pass's are still held
        rows += [("pass",) + r for r in tracer.rows()]
    write_spans(OUT / f"spans_{name}.tsv", rows)
    metrics = {}
    for metric, unit, _ in PER_LAYER:
        if metric in setup:
            value = setup[metric] + statistics.median(p.layers[metric] for p in traced)
            # counts repeat exactly from pass to pass; keep them whole numbers
            metrics[metric] = round(value) if unit == "count" else value
    metrics["thf.bytes_out"] = traced[0].tally.thf_bytes
    metrics["trace.wall_s"] = statistics.fmean(p.wall for p in traced)
    metrics["trace.untraced_wall_s"] = statistics.fmean(p.wall for p in plain)
    # the halves run at different times, and the host's speed drifts between
    # them: bring the traced half to the untraced half's speed first
    at_plain_speed = metrics["trace.wall_s"] * plain_stick.unit / traced_stick.unit
    metrics["trace.overhead_s"] = at_plain_speed - metrics["trace.untraced_wall_s"]
    return metrics, plain + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dholc" / "__init__.py").is_file():
        print(f"error: no dholc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), store=OUT / "digests.json")
    print_report(record)
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(result_line(record)))
    return 0


def result_line(record: dict) -> dict:
    from tracing import PER_LAYER

    wanted = [(m, u) for m, u, _ in PER_LAYER] if record["trace"] else END_TO_END
    m = record["metrics"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m[name], "unit": unit} for name, unit in wanted},
    }


def print_report(record: dict) -> None:
    from tracing import PER_LAYER

    m = record["metrics"]
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(
        f"workload {record['workload']}: {record['passes']} passes, "
        f"{record['attempted']} items, {record['failed']} failed"
    )
    if record["trace"]:
        for name, unit, _ in PER_LAYER:
            value = m[name]
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            print(f"  {name:<32} {shown:>14} {unit}")
        untraced = m["trace.untraced_wall_s"]
        print(
            f"  tracing overhead: {m['trace.overhead_s']:+.4f} s per pass "
            f"({100.0 * m['trace.overhead_s'] / untraced:+.1f}% of the untraced {untraced:.4f} s)"
        )
    else:
        notes = {
            "wall_ref": f"mean of {record['passes']} passes",
            "item_tail_ref": f"p{m['item_tail_percentile']:.1f} of {m['item_samples']} samples",
            "item_p50_ref": f"{m['item_samples']} samples",
            "decided_ratio": f"{m['decided']}/{m['decided_of']}",
        }
        for name, unit in END_TO_END + RAW_TIMES:
            print(f"  {name:<14} {m[name]:>14.6f} {unit:<6} {notes.get(name, '')}")
        samples = len(record["yardstick_s"])
        print(f"  {'1 ref':<14} {m['yardstick_ms']:>14.6f} ms     yardstick mean of {samples} samples")
        print(f"  {'failed_ratio':<14} {record['failed_ratio']:>14.6f} ratio  {record['failed']}/{record['attempted']}")
    print(f"  outcomes per pass: {json.dumps(record['outcomes'], sort_keys=True)}")


if __name__ == "__main__":
    sys.exit(main())
