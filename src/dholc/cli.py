"""Command-line entry point.

Subcommands: check, prove, erase, emit, gen-corpus, oracle.  Exit codes:
0 full success, 1 open obligations / unproved conjecture, 2 structural
errors or input nested too deeply to process, 64 usage errors.
Diagnostics go to stderr, results to stdout and files.

The typing rule and the erasure are paired (--eps1 with --strong, --eps2 with
--weak); crossing them requires --force-variant.  Prover configuration
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
from .erasure import ErasureVariant, erase_theory
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="dholc", description="DHOL-with-choice checker and HOL compiler")
    p.add_argument("--version", action="version", version=f"dholc {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, variant_flags=True):
        sp.add_argument("input", type=Path, help="input .dhol theory")
        mode = sp.add_mutually_exclusive_group()
        mode.add_argument("--eps1", action="store_true", help="strong choice typing (default)")
        mode.add_argument("--eps2", action="store_true", help="weak choice typing")
        if variant_flags:
            var = sp.add_mutually_exclusive_group()
            var.add_argument("--strong", action="store_true", help="strong erasure")
            var.add_argument("--weak", action="store_true", help="weak erasure")
            sp.add_argument(
                "--force-variant",
                action="store_true",
                help="allow pairing a typing rule with the other erasure",
            )
        sp.add_argument("--config", type=Path, help="key=value config file")
        sp.add_argument("--prover-cmd", help="external THF prover command ({file} placeholder)")
        sp.add_argument("--prover-time", type=float, help="prover time limit in seconds")
        sp.add_argument("--budget-size", type=int, help="oracle carrier size bound")
        sp.add_argument("--budget-models", type=int, help="oracle interpretation-space bound")
        sp.add_argument("--budget-seconds", type=float, help="oracle wall-time bound")
        sp.add_argument("--no-oracle", action="store_true", help="skip the finite-model oracle")
        sp.add_argument("--jobs", type=int, default=1, help="concurrent obligation discharge")
        sp.add_argument("--json-report", type=Path, help="write a machine-readable summary")
        sp.add_argument("-o", "--output-dir", type=Path, default=Path("."))

    common(sub.add_parser("check", help="type-check; discharge typing obligations"))
    common(sub.add_parser("prove", help="type-check and prove the conjecture"))
    common(sub.add_parser("erase", help="translate to HOL and write a THF problem"))
    common(sub.add_parser("emit", help="write every obligation as a THF problem"))
    common(sub.add_parser("oracle", help="countermodel search for the conjecture"))

    gc = sub.add_parser("gen-corpus", help="regenerate the problem corpus")
    gc.add_argument("-o", "--output-dir", type=Path, default=Path("corpus"))
    return p


def _read_config(path: Optional[Path]) -> dict[str, str]:
    if path is None or not path.exists():
        return {}
    out = {}
    for line in path.read_text().splitlines():
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


def _resolve_variant(args, mode: Mode) -> ErasureVariant:
    chose_strong = getattr(args, "strong", False)
    chose_weak = getattr(args, "weak", False)
    default = ErasureVariant.STRONG if mode is Mode.STRONG_EPSILON else ErasureVariant.WEAK
    if not (chose_strong or chose_weak):
        return default
    chosen = ErasureVariant.STRONG if chose_strong else ErasureVariant.WEAK
    if chosen is not default and not args.force_variant:
        raise _UsageError(
            f"--{chosen.value} does not pair with --{mode.value}; pass --force-variant to insist"
        )
    return chosen


def _resolve_prover(args) -> Optional[ProverConfig]:
    cfg = _read_config(getattr(args, "config", None))
    cmd = getattr(args, "prover_cmd", None) or cfg.get("prover_cmd") or os.environ.get(
        "DHOL_PROVER_CMD"
    )
    if not cmd:
        return None
    limit = getattr(args, "prover_time", None)
    if limit is None:
        limit = float(cfg.get("time_limit", 90.0))
    return ProverConfig(command=cmd, time_limit=limit)


def _resolve_budget(args) -> SearchBudget:
    cfg = _read_config(getattr(args, "config", None))

    def pick(flag, key, fallback, cast):
        v = getattr(args, flag, None)
        if v is not None:
            return v
        if key in cfg:
            return cast(cfg[key])
        return fallback

    return SearchBudget(
        max_size=pick("budget_size", "budget_size", DESK_BUDGET.max_size, int),
        max_models=pick("budget_models", "budget_models", DESK_BUDGET.max_models, int),
        max_seconds=pick("budget_seconds", "budget_seconds", DESK_BUDGET.max_seconds, float),
    )


def _load(args) -> tuple:
    try:
        text = args.input.read_text()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
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


def _write_json(path: Optional[Path], payload: dict) -> None:
    if path is not None:
        path.write_text(json.dumps(payload, indent=2) + "\n")


def _discharge_and_report(
    args, report: CheckReport, include_conjecture: bool
) -> tuple[int, DischargeReport]:
    obligations = report.obligations if include_conjecture else report.typing_obligations
    dis = discharge(
        obligations,
        cfg=_resolve_prover(args),
        oracle_fallback=not args.no_oracle,
        budget=_resolve_budget(args),
        jobs=args.jobs,
    )
    print(dis.to_text())
    code = EXIT_OK if dis.all_discharged else EXIT_OPEN
    return code, dis


def _cmd_check(args) -> int:
    mode = _resolve_mode(args)
    _resolve_variant(args, mode)
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
    variant = _resolve_variant(args, mode)
    report = _check(args, mode)
    if report is None:
        return EXIT_STRUCTURAL
    if not report.ok:
        return EXIT_STRUCTURAL
    _write_erased(args, report, variant)
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


def _write_erased(args, report: CheckReport, variant: ErasureVariant) -> Path:
    erased = erase_theory(report.theory_elaborated, Context(), variant)
    stem = args.input.stem
    conjecture = None
    if report.conjecture_elaborated is not None:
        from .erasure import erase_term

        conjecture = erase_term(report.conjecture_elaborated, variant)
    problem = emit_thf(erased, f"{stem}.{variant.value}", conjecture=conjecture)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    out = args.output_dir / f"{stem}.{variant.value}.p"
    out.write_text(problem.text)
    return out


def _cmd_erase(args) -> int:
    mode = _resolve_mode(args)
    variant = _resolve_variant(args, mode)
    report = _check(args, mode)
    if report is None or not report.ok:
        return EXIT_STRUCTURAL
    print(_write_erased(args, report, variant))
    return EXIT_OK


def _cmd_emit(args) -> int:
    mode = _resolve_mode(args)
    variant = _resolve_variant(args, mode)
    report = _check(args, mode)
    if report is None or not report.ok:
        return EXIT_STRUCTURAL
    args.output_dir.mkdir(parents=True, exist_ok=True)
    stem = args.input.stem
    for ob in report.obligations:
        problem = emit_thf(ob, f"{stem}.{ob.id}.{variant.value}")
        out = args.output_dir / f"{stem}.{ob.id}.{variant.value}.p"
        out.write_text(problem.text)
        print(out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    mode = _resolve_mode(args)
    _resolve_variant(args, mode)
    report = _check(args, mode)
    if report is None or not report.ok:
        return EXIT_STRUCTURAL
    ob = report.conjecture_obligation
    if ob is None:
        print("error: no conjecture to search against", file=sys.stderr)
        return EXIT_STRUCTURAL
    merged = merge_context(ob.hol_theory, ob.hol_context)
    result = countermodel(merged, ob.conjecture, _resolve_budget(args))
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
    written = write_corpus(args.output_dir)
    print(f"wrote {len(written)} files under {args.output_dir}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # Numerals expand to nested applications, and every layer walks terms
        # recursively, so very deep input exhausts the interpreter's stack.
        print("error: input nests too deeply (Python recursion limit reached)", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
