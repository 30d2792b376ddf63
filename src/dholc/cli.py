"""Command-line entry point.

Subcommands: check, prove, erase, emit, gen-corpus, oracle.  Exit codes:
0 full success, 1 open obligations / unproved conjecture, 2 structural
errors (one line per ill-formed declaration), prove or oracle without a
conjecture, input that cannot be read (or is not UTF-8 text) or nested too
deeply to process, and output that cannot be written, 64 usage errors (a bad flag, or
a budget, prover command, prover time limit, --jobs value or config file that is
rejected), 70 internal errors (a one-line diagnostic instead of a traceback).
Diagnostics go to stderr, results to stdout and files.

Each subcommand names its handler in the parser; main reads, parses and checks
the input once and hands the handler the check report.

The typing rule picks the erasure: --eps1 (the default) erases strongly,
--eps2 weakly, and every written file is named after that variant.  Each
subcommand accepts only the flags it reads.  Prover configuration
precedence: command-line flags, then the config file, then the
DHOL_PROVER_CMD environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .corpus import write_corpus
from .erasure import ErasedTheory
from .kernel import CheckReport, Mode, check_theory
from .oracle import SearchBudget, countermodel, merge_context
from .parser import ParseError, parse_theory
from .prover import DESK_BUDGET, ProverConfig, discharge
from .syntax import Context
from .thf import emit_thf

EXIT_OK = 0
EXIT_OPEN = 1
EXIT_STRUCTURAL = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _UsageError(Exception):
    pass


class _WriteError(Exception):
    """An output file or directory that cannot be written (exit 2)."""

    def __init__(self, path: Path, e: OSError):
        super().__init__(f"cannot write {path}: {e.strerror}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="dholc", description="DHOL-with-choice checker and HOL compiler")
    p.add_argument("--version", action="version", version=f"dholc {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def search_flags(sp):
        sp.add_argument("--config", type=Path, help="key=value config file")
        sp.add_argument("--budget-size", type=int, help="oracle carrier size bound")
        sp.add_argument("--budget-models", type=int, help="oracle interpretation-space bound")
        sp.add_argument("--budget-seconds", type=float, help="oracle wall-time bound")
        sp.add_argument("--json-report", type=Path, help="write a machine-readable summary")

    def prover_flags(sp):
        sp.add_argument("--prover-cmd", help="external THF prover command ({file} placeholder)")
        sp.add_argument("--prover-time", type=float, help="prover time limit in seconds")
        sp.add_argument("--no-oracle", action="store_true", help="skip the finite-model oracle")
        sp.add_argument("--jobs", type=int, default=1, help="concurrent external prover runs")

    def output_flag(sp):
        sp.add_argument("-o", "--output-dir", type=Path, default=Path("."))

    def subcommand(name, help, run, *flag_groups):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("input", type=Path, help="input .dhol theory")
        mode = sp.add_mutually_exclusive_group()
        mode.add_argument("--eps1", action="store_true", help="strong typing and erasure (default)")
        mode.add_argument("--eps2", action="store_true", help="weak typing and erasure")
        for add in flag_groups:
            add(sp)

    subcommand(
        "check", "type-check; discharge typing obligations", _cmd_check, search_flags, prover_flags
    )
    subcommand(
        "prove",
        "type-check and prove the conjecture",
        _cmd_prove,
        search_flags,
        prover_flags,
        output_flag,
    )
    subcommand("erase", "translate to HOL and write a THF problem", _cmd_erase, output_flag)
    subcommand("emit", "write every obligation as a THF problem", _cmd_emit, output_flag)
    subcommand("oracle", "countermodel search for the conjecture", _cmd_oracle, search_flags)

    gc = sub.add_parser("gen-corpus", help="regenerate the problem corpus")
    gc.set_defaults(run=_cmd_gen_corpus)
    gc.add_argument("-o", "--output-dir", type=Path, default=Path("corpus"))
    return p


CONFIG_KEYS = ("budget_size", "budget_models", "budget_seconds", "prover_cmd", "time_limit")


def _read_config(path: Optional[Path]) -> dict[str, str]:
    if path is None:
        return {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise _UsageError(f"cannot read config file {str(path)!r}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise _UsageError(f"cannot read config file {str(path)!r}: not UTF-8 text") from None
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"bad config line: {line!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k not in CONFIG_KEYS:
            raise _UsageError(f"unknown config key {k!r}")
        out[k] = v
    return out


def _resolve_settings(args) -> None:
    """Read the config file once and set ``args.budget`` and, for the
    commands that discharge, ``args.prover``; flags win over the file.  A
    value that the budget or the prover configuration rejects is a usage
    error."""
    cfg = _read_config(args.config)

    def pick(flag, key, fallback, cast):
        v = getattr(args, flag)
        if v is not None:
            return v
        return cast(cfg[key]) if key in cfg else fallback

    try:
        args.budget = SearchBudget(
            max_size=pick("budget_size", "budget_size", DESK_BUDGET.max_size, int),
            max_models=pick("budget_models", "budget_models", DESK_BUDGET.max_models, int),
            max_seconds=pick("budget_seconds", "budget_seconds", DESK_BUDGET.max_seconds, float),
        )
        if hasattr(args, "prover_cmd"):
            cmd = args.prover_cmd or cfg.get("prover_cmd") or os.environ.get("DHOL_PROVER_CMD")
            # built without a command too, so that a bad limit is always reported
            time_limit = pick("prover_time", "time_limit", ProverConfig.time_limit, float)
            prover = ProverConfig(cmd or "", time_limit)
            args.prover = prover if cmd else None
    except ValueError as e:
        raise _UsageError(str(e)) from None
    if getattr(args, "jobs", 1) < 1:
        raise _UsageError("--jobs must be at least 1")


def _check(args) -> Optional[CheckReport]:
    """Read, parse and check the input; None, after saying why on stderr,
    when that fails or the theory is not well-formed."""
    try:
        thy, conjecture = parse_theory(args.input.read_text(encoding="utf-8"))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return None
    except UnicodeDecodeError:
        print(f"error: {args.input}: not UTF-8 text", file=sys.stderr)
        return None
    except ParseError as e:
        print(f"{args.input}:{e}", file=sys.stderr)
        return None
    report = check_theory(thy, conjecture, Mode.WEAK_EPSILON if args.eps2 else Mode.STRONG_EPSILON)
    for d in report.diagnostics:
        print(f"{args.input}: {d}", file=sys.stderr)
    return report if report.ok else None


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as e:
        raise _WriteError(path, e) from None


def _output_dir(args) -> Path:
    """The -o directory, created if missing."""
    try:
        args.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _WriteError(args.output_dir, e) from None
    return args.output_dir


def _write_report(args, report: CheckReport, **fields) -> None:
    """The --json-report file, if asked for: problem, command, mode, fields."""
    if args.json_report is not None:
        head = {"problem": str(args.input), "command": args.command, "mode": report.mode.value}
        _write_text(args.json_report, json.dumps({**head, **fields}, indent=2) + "\n")


def _discharge(args, report: CheckReport, obligations, label: str, open_word: str) -> int:
    dis = discharge(
        obligations,
        cfg=args.prover,
        oracle_fallback=not args.no_oracle,
        budget=args.budget,
        jobs=args.jobs,
    )
    print(dis.to_text())
    ok = dis.all_discharged
    print(f"{label}: {'ok' if ok else open_word} ({args.input})")
    _write_report(args, report, verdict="ok" if ok else "open", obligations=dis.to_json_dict())
    return EXIT_OK if ok else EXIT_OPEN


def _cmd_check(args, report: CheckReport) -> int:
    return _discharge(args, report, report.typing_obligations, "typecheck", "open obligations")


def _cmd_prove(args, report: CheckReport) -> int:
    if report.conjecture_obligation is None:
        print("error: no conjecture to prove", file=sys.stderr)
        return EXIT_STRUCTURAL
    _write_erased(args, report)
    return _discharge(args, report, report.obligations, "prove", "open")


def _write_problem(out_dir: Path, name: str, source, conjecture=None) -> Path:
    """Emit source as the THF problem name into out_dir/name.p."""
    out = out_dir / f"{name}.p"
    _write_text(out, emit_thf(source, name, conjecture).text)
    return out


def _write_erased(args, report: CheckReport) -> Path:
    # the kernel has erased every declaration, and the conjecture for its
    # obligation, already
    ob = report.conjecture_obligation
    conjecture = ob.conjecture if ob is not None else None
    erased = ErasedTheory(report.hol_theory, Context())
    name = f"{args.input.stem}.{report.mode.variant.value}"
    return _write_problem(_output_dir(args), name, erased, conjecture)


def _cmd_erase(args, report: CheckReport) -> int:
    print(_write_erased(args, report))
    return EXIT_OK


def _cmd_emit(args, report: CheckReport) -> int:
    out_dir = _output_dir(args)
    for ob in report.obligations:
        print(_write_problem(out_dir, f"{args.input.stem}.{ob.id}.{report.mode.variant.value}", ob))
    return EXIT_OK


def _cmd_oracle(args, report: CheckReport) -> int:
    ob = report.conjecture_obligation
    if ob is None:
        print("error: no conjecture to search against", file=sys.stderr)
        return EXIT_STRUCTURAL
    merged = merge_context(ob.hol_theory, ob.hol_context)
    result = countermodel(merged, ob.conjecture, args.budget)
    print(f"oracle: {result.status}" + (f" ({result.detail})" if result.detail else ""))
    if result.found:
        print(result.model.describe())
    model = result.model.to_json_dict() if result.found else None
    _write_report(args, report, status=result.status, model=model)
    return EXIT_OK if result.status != "exhausted" else EXIT_OPEN


def _cmd_gen_corpus(args) -> int:
    try:
        written = write_corpus(args.output_dir)
    except OSError as e:
        raise _WriteError(e.filename or args.output_dir, e) from None
    print(f"wrote {len(written)} files under {args.output_dir}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "config"):
            _resolve_settings(args)
        if not hasattr(args, "input"):
            return args.run(args)
        report = _check(args)
        return EXIT_STRUCTURAL if report is None else args.run(args, report)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _WriteError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except RecursionError:
        # Numerals expand to nested applications, and every layer walks terms
        # recursively, so very deep input exhausts the interpreter's stack.
        print("error: input nests too deeply (Python recursion limit reached)", file=sys.stderr)
        return EXIT_STRUCTURAL
    except Exception as e:
        # Exit 1 means "open obligations"; a crash must not read as a verdict.
        detail = " ".join(f"{type(e).__name__}: {e}".split())
        print(f"internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
