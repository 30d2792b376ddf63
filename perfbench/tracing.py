"""Span recording around dholc's public functions, and per-layer aggregation.

The tracer leaves dholc's sources alone: ``instrument`` swaps each traced
function for a wrapper in the module (or class) namespace its callers look it
up in, and puts the originals back on exit.  A span is one call: name, start,
end, parent span and the id of the benchmark item that caused it.  Spans are
kept in flat arrays so that the hot evaluator loop pays a few list appends per
call, not an object allocation.

A layer's self time is its spans' duration minus the time covered by their
child spans.  The program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter
from pathlib import Path

SETUP_ITEM = 0  # item id of spans recorded while building the inputs


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.items = array("i")
        self.stack = [-1]  # open spans; -1 is the root sentinel
        self.item = SETUP_ITEM
        self.counters: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """A function that calls ``fn`` inside a span named ``name``.
        ``after(counters, args, kwargs, result)`` records counts."""
        nid = self.intern(name)
        starts, ends, name_ids = self.starts, self.ends, self.name_ids
        parents, items, stack, counters = self.parents, self.items, self.stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1])
            name_ids.append(nid)
            items.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def clear(self) -> None:
        for arr in (self.starts, self.ends, self.name_ids, self.parents, self.items):
            del arr[:]
        self.counters.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        """name -> {"s": total time, "self_s": self time, "calls": count}."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_ids[i]]]
            dur = ends[i] - starts[i]
            row["s"] += dur
            row["self_s"] += dur - child[i]
            row["calls"] += 1
        return out

    def rows(self) -> list[tuple]:
        """(item, span index, parent index, name, start, end) per span."""
        return [
            (self.items[i], i, self.parents[i], self.names[self.name_ids[i]], self.starts[i], self.ends[i])
            for i in range(len(self.starts))
        ]


def write_spans(path: Path, rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("segment\titem\tspan\tparent\tname\tstart\tend\n")
        for segment, item, idx, parent, name, start, end in rows:
            fh.write(f"{segment}\t{item}\t{idx}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


# ---------------------------------------------------------------------------
# What is traced, and where callers look it up


def _count_obligations(counters, args, kwargs, report) -> None:
    counters["kernel.obligations"] += len(report.obligations)


def _count_decls_in(counters, args, kwargs, erased) -> None:
    thy = args[0] if args else kwargs["thy"]
    ctx = args[1] if len(args) > 1 else kwargs["ctx"]
    counters["erasure.decls_in"] += len(thy) + len(ctx)


def _count_proved(counters, args, kwargs, proved) -> None:
    counters["ground.proved"] += bool(proved)


def _count_status(counters, args, kwargs, result) -> None:
    counters[f"oracle.status.{result.status}"] += 1


def _count_local(counters, args, kwargs, verdict) -> None:
    counters["prover.local_discharged"] += verdict.status == "discharged-local"


def _targets():
    from dholc import corpus, erasure, ground, kernel, oracle, parser, prover, thf

    # (namespace, attribute, span name, counter); one span name may sit in
    # several namespaces because each importing module holds its own binding.
    return [
        (corpus, "gen_all", "corpus.gen_all", None),
        (parser, "parse_theory", "parser.parse_theory", None),
        (corpus, "parse_theory", "parser.parse_theory", None),
        (kernel, "check_theory", "kernel.check_theory", _count_obligations),
        (kernel, "erase_theory", "erasure.erase_theory", _count_decls_in),
        (erasure, "erase_theory", "erasure.erase_theory", _count_decls_in),
        # beta_normalize recurses through its own module global, which is left
        # alone: one span per call from the prover and the ground prover.
        (prover, "beta_normalize", "erasure.beta_normalize", None),
        (ground, "beta_normalize", "erasure.beta_normalize", None),
        (prover, "prove_ground", "ground.prove_ground", _count_proved),
        (prover, "discharge_one", "prover.discharge_one", _count_local),
        (prover, "countermodel", "oracle.countermodel", _count_status),
        (oracle, "countermodel", "oracle.countermodel", _count_status),
        (oracle.Compiler, "compile", "oracle.compile", None),
        (oracle.CompiledTerms, "run", "oracle.eval", None),
        (thf, "emit_thf", "thf.emit_thf", None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    saved = []
    try:
        for owner, attr, name, after in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics

# (metric, unit, better); the order is the order of the report.
PER_LAYER = [
    ("parser.parse_theory.s", "s", "lower"),
    ("parser.parse_theory.calls", "count", "lower"),
    ("kernel.check_theory.self_s", "s", "lower"),
    ("kernel.check_theory.calls", "count", "lower"),
    ("kernel.obligations", "count", "lower"),
    ("erasure.erase_theory.s", "s", "lower"),
    ("erasure.erase_theory.calls", "count", "lower"),
    ("erasure.decls_in", "count", "lower"),
    ("erasure.beta_normalize.s", "s", "lower"),
    ("erasure.beta_normalize.calls", "count", "lower"),
    ("ground.prove_ground.self_s", "s", "lower"),
    ("ground.prove_ground.calls", "count", "lower"),
    ("ground.proved", "count", "higher"),
    ("ground.proved_ratio", "ratio", "higher"),
    ("oracle.countermodel.self_s", "s", "lower"),
    ("oracle.countermodel.calls", "count", "lower"),
    ("oracle.eval.s", "s", "lower"),
    ("oracle.eval.calls", "count", "lower"),
    ("oracle.compile.s", "s", "lower"),
    ("oracle.compile.calls", "count", "lower"),
    ("oracle.status.countermodel", "count", "higher"),
    ("oracle.status.none", "count", "higher"),
    ("oracle.status.exhausted", "count", "lower"),
    ("prover.discharge_one.self_s", "s", "lower"),
    ("prover.discharge_one.calls", "count", "lower"),
    ("prover.local_discharged", "count", "higher"),
    ("thf.emit_thf.s", "s", "lower"),
    ("thf.emit_thf.calls", "count", "lower"),
    ("thf.bytes_out", "bytes", "lower"),
    ("corpus.gen_all.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(layers: dict, counters: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced segment (set-up or one pass), without
    the ``trace.*`` entries and ``thf.bytes_out``, which the harness adds."""

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        if metric.startswith("trace.") or metric == "thf.bytes_out":
            continue
        layer, _, key = metric.rpartition(".")
        if key in ("s", "self_s", "calls"):
            out[metric] = get(layer, key)
        elif metric == "ground.proved_ratio":
            calls = get("ground.prove_ground", "calls")
            out[metric] = counters["ground.proved"] / calls if calls else 0.0
        else:
            out[metric] = counters[metric]
    return out
