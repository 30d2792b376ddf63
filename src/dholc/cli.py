"""Command-line entry point.

Subcommands: check, prove, erase, emit, gen-corpus, oracle.  Exit codes:
0 full success, 1 open obligations / unproved conjecture, 2 structural
errors, input that cannot be read (or is not UTF-8 text) or nested too deeply
to process, and output that cannot be written, 64 usage errors (a bad flag, or
a budget, prover time limit, --jobs value or config file that is rejected),
70 internal errors (a one-line diagnostic instead of a traceback).  Diagnostics go to
stderr, results to stdout and files.

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
from .prover import DESK_BUDGET, DischargeReport, ProverConfig, discharge
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

    def subcommand(name, help, *flag_groups):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("input", type=Path, help="input .dhol theory")
        mode = sp.add_mutually_exclusive_group()
        mode.add_argument("--eps1", action="store_true", help="strong typing and erasure (default)")
        mode.add_argument("--eps2", action="store_true", help="weak typing and erasure")
        for add in flag_groups:
            add(sp)

    subcommand("check", "type-check; discharge typing obligations", search_flags, prover_flags)
    subcommand(
        "prove", "type-check and prove the conjecture", search_flags, prover_flags, output_flag
    )
    subcommand("erase", "translate to HOL and write a THF problem", output_flag)
    subcommand("emit", "write every obligation as a THF problem", output_flag)
    subcommand("oracle", "countermodel search for the conjecture", search_flags)

    gc = sub.add_parser("gen-corpus", help="regenerate the problem corpus")
    gc.add_argument("-o", "--output-dir", type=Path, default=Path("corpus"))
    return p


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
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _resolve_mode(args) -> Mode:
    if getattr(args, "eps2", False):
        return Mode.WEAK_EPSILON
    return Mode.STRONG_EPSILON


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
            prover = ProverConfig(cmd or "", pick("prover_time", "time_limit", 90.0, float))
            args.prover = prover if cmd else None
    except ValueError as e:
        raise _UsageError(str(e)) from None
    if getattr(args, "jobs", 1) < 1:
        raise _UsageError("--jobs must be at least 1")


def _load(args) -> tuple:
    try:
        text = args.input.read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return None
    except UnicodeDecodeError:
        print(f"error: {args.input}: not UTF-8 text", file=sys.stderr)
        return None
    try:
        return parse_theory(text)
    except ParseError as e:
        print(f"{args.input}:{e}", file=sys.stderr)
        return None


def _check(args, mode: Mode) -> Optional[CheckReport]:
    loaded = _load(args)
    if loaded is None:
        return None
    thy, conjecture = loaded
    report = check_theory(thy, conjecture, mode)
    for d in report.diagnostics:
        print(f"{args.input}: {d}", file=sys.stderr)
    return report


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


def _write_json(path: Optional[Path], payload: dict) -> None:
    if path is not None:
        _write_text(path, json.dumps(payload, indent=2) + "\n")


def _discharge_and_report(
    args, report: CheckReport, include_conjecture: bool
) -> tuple[int, DischargeReport]:
    obligations = report.obligations if include_conjecture else report.typing_obligations
    dis = discharge(
        obligations,
        cfg=args.prover,
        oracle_fallback=not args.no_oracle,
        budget=args.budget,
        jobs=args.jobs,
    )
    print(dis.to_text())
    code = EXIT_OK if dis.all_discharged else EXIT_OPEN
    return code, dis


def _cmd_check(args) -> int:
    mode = _resolve_mode(args)
    report = _check(args, mode)
    if report is None:
        return EXIT_STRUCTURAL
    if not report.ok:
        return EXIT_STRUCTURAL
    code, dis = _discharge_and_report(args, report, include_conjecture=False)
    print(f"typecheck: {'ok' if code == EXIT_OK else 'open obligations'} ({args.input})")
    _write_json(
        args.json_report,
        {
            "problem": str(args.input),
            "command": "check",
            "mode": mode.value,
            "verdict": "ok" if code == EXIT_OK else "open",
            "obligations": dis.to_json_dict(),
        },
    )
    return code


def _cmd_prove(args) -> int:
    mode = _resolve_mode(args)
    report = _check(args, mode)
    if report is None:
        return EXIT_STRUCTURAL
    if not report.ok:
        return EXIT_STRUCTURAL
    _write_erased(args, report)
    code, dis = _discharge_and_report(args, report, include_conjecture=True)
    print(f"prove: {'ok' if code == EXIT_OK else 'open'} ({args.input})")
    _write_json(
        args.json_report,
        {
            "problem": str(args.input),
            "command": "prove",
            "mode": mode.value,
            "verdict": "ok" if code == EXIT_OK else "open",
            "obligations": dis.to_json_dict(),
        },
    )
    return code


def _write_erased(args, report: CheckReport) -> Path:
    # the kernel has erased every declaration, and the conjecture for its
    # obligation, already
    variant = report.mode.variant
    stem = args.input.stem
    ob = report.conjecture_obligation
    conjecture = ob.conjecture if ob is not None else None
    erased = ErasedTheory(report.hol_theory, Context())
    problem = emit_thf(erased, f"{stem}.{variant.value}", conjecture=conjecture)
    out = _output_dir(args) / f"{stem}.{variant.value}.p"
    _write_text(out, problem.text)
    return out


def _cmd_erase(args) -> int:
    mode = _resolve_mode(args)
    report = _check(args, mode)
    if report is None or not report.ok:
        return EXIT_STRUCTURAL
    print(_write_erased(args, report))
    return EXIT_OK


def _cmd_emit(args) -> int:
    mode = _resolve_mode(args)
    report = _check(args, mode)
    if report is None or not report.ok:
        return EXIT_STRUCTURAL
    variant = mode.variant
    out_dir = _output_dir(args)
    stem = args.input.stem
    for ob in report.obligations:
        problem = emit_thf(ob, f"{stem}.{ob.id}.{variant.value}")
        out = out_dir / f"{stem}.{ob.id}.{variant.value}.p"
        _write_text(out, problem.text)
        print(out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    mode = _resolve_mode(args)
    report = _check(args, mode)
    if report is None or not report.ok:
        return EXIT_STRUCTURAL
    ob = report.conjecture_obligation
    if ob is None:
        print("error: no conjecture to search against", file=sys.stderr)
        return EXIT_STRUCTURAL
    merged = merge_context(ob.hol_theory, ob.hol_context)
    result = countermodel(merged, ob.conjecture, args.budget)
    print(f"oracle: {result.status}" + (f" ({result.detail})" if result.detail else ""))
    if result.found:
        print(result.model.describe())
    _write_json(
        args.json_report,
        {
            "problem": str(args.input),
            "command": "oracle",
            "mode": mode.value,
            "status": result.status,
            "model": result.model.to_json_dict() if result.found else None,
        },
    )
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
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "prove":
            return _cmd_prove(args)
        if args.command == "erase":
            return _cmd_erase(args)
        if args.command == "emit":
            return _cmd_emit(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "gen-corpus":
            return _cmd_gen_corpus(args)
        raise _UsageError(f"unknown command {args.command!r}")
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
