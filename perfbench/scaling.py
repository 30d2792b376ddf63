"""kernel_emit per-layer numbers as the declaration count n grows.

    python3 perfbench/scaling.py [--sizes 25,50,100,200] [--seed 1]

Not a gated workload: it prints one row per (n, mode) from a single traced
run of the kernel_emit item (parse, check, emit every obligation, erase and
emit the theory), then the log-log slope of each column against n, so that
quadratic work shows as a slope near 2.  Run from the root of a source
checkout.  Peak RSS is the process's running maximum; sizes run in ascending
order, so each row's figure is that size's peak unless a smaller size peaked
higher.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time

from run import SRC

COLUMNS = [
    ("item_s", "item wall"),
    ("kernel.check_theory.self_s", "check self"),
    ("erasure.erase_theory.s", "erase"),
    ("erasure.erase_theory.calls", "erase calls"),
    ("erasure.decls_in", "decls in"),
    ("thf.emit_thf.s", "emit"),
    ("thf.bytes_out", "THF bytes"),
    ("kernel.obligations", "obligations"),
    ("peak_rss_mb", "peak MB"),
]


def measure(n: int, seed: int) -> list[dict]:
    from tracing import Tracer, instrument, layer_metrics
    from workloads import KernelEmit

    wl = KernelEmit(seed, sizes=(n,))
    rows = []
    for item in sorted(wl.setup(), key=lambda it: it.key):
        tracer = Tracer()
        with instrument(tracer):
            t0 = time.perf_counter()
            rep, texts = wl.run(item)
            elapsed = time.perf_counter() - t0
        problems = wl.check(item, (rep, texts))
        if problems:
            raise SystemExit(f"n={n} {item.key}: {'; '.join(problems)}")
        row = layer_metrics(tracer.layers(), tracer.counters)
        row.update(
            n=n,
            mode=item.data[2].value,
            item_s=elapsed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        row["thf.bytes_out"] = sum(len(x.encode()) for x in texts)
        rows.append(row)
    return rows


def slope(rows: list[dict], key: str) -> float | None:
    pts = [(math.log(r["n"]), math.log(r[key])) for r in rows if r[key] > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="25,50,100,200", help="comma-separated declaration counts")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sizes = sorted({int(s) for s in args.sizes.split(",")})
    if not sizes or sizes[0] < 1:
        print("error: sizes must be positive integers", file=sys.stderr)
        return 2
    if not (SRC / "dholc" / "__init__.py").is_file():
        print(f"error: no dholc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from dholc.oracle import active_backend

    rows = [r for n in sizes for r in measure(n, args.seed)]
    print(f"# kernel_emit scaling, seed {args.seed}, evaluator backend {active_backend()}")
    header = f"{'n':>5} {'mode':<5}" + "".join(f"{label:>13}" for _, label in COLUMNS)
    print(header)
    for r in rows:
        cells = "".join(
            f"{r[k]:>13.4f}" if isinstance(r[k], float) else f"{r[k]:>13}" for k, _ in COLUMNS
        )
        print(f"{r['n']:>5} {r['mode']:<5}{cells}")
    slopes = {}
    for mode in sorted({r["mode"] for r in rows}):
        sub = [r for r in rows if r["mode"] == mode]
        slopes[mode] = {k: slope(sub, k) for k, _ in COLUMNS}
        shown = "".join(
            f"{s:>13.2f}" if s is not None else f"{'-':>13}" for s in slopes[mode].values()
        )
        print(f"{'slope':>5} {mode:<5}{shown}")
    print(json.dumps({"seed": args.seed, "rows": rows, "loglog_slopes": slopes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
