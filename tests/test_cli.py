import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dholc
from dholc import cli, erasure
from dholc.cli import _build_parser, main
from dholc.corpus import write_corpus
from dholc.erasure import erase_term, erase_theory
from dholc.kernel import Mode, check_theory
from dholc.parser import parse_theory
from dholc.syntax import AxiomDecl, Choice, Context
from dholc.thf import emit_thf, parse_thf


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    write_corpus(d)
    return d


def test_check_discharged_exits_zero(corpus_dir, capsys):
    code = main(["check", str(corpus_dir / "choice_def1.dhol"), "--eps1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "discharged" in out


def test_check_open_obligation_exits_one(corpus_dir, capsys):
    code = main(["check", str(corpus_dir / "choice_nq.dhol"), "--eps1"])
    assert code == 1
    assert "open" in capsys.readouterr().out


def test_structural_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.dhol"
    bad.write_text("type a : tp\nconst c : a\nconst c : a\n")
    code = main(["check", str(bad), "--eps1"])
    assert code == 2
    assert "redeclaration" in capsys.readouterr().err


def test_usage_error_exits_64(corpus_dir, capsys):
    code = main(["check", str(corpus_dir / "choice_def1.dhol"), "--eps1", "--eps2"])
    assert code == 64
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["erase", "--weak"], ["erase", "--eps1", "--strong"], ["emit", "--prover-cmd", "x"]],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(corpus_dir, capsys, argv):
    command, *flags = argv
    assert main([command, str(corpus_dir / "choice_def1.dhol"), *flags]) == 64
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("check", ["--budget-size", "0"], "max carrier size must be at least 1"),
        ("oracle", ["--budget-models", "0"], "max model count must be at least 1"),
        ("check", ["--budget-seconds", "nan"], "max seconds must be positive"),
        ("prove", ["--budget-seconds", "-1"], "max seconds must be positive"),
        ("check", ["--prover-time", "0"], "prover time limit must be positive"),
        ("prove", ["--prover-cmd", "x", "--prover-time", "nan"], "prover time limit must be positive"),
        ("check", ["--jobs", "0"], "--jobs must be at least 1"),
        ("oracle", ["--config", "{tmp}/missing.conf"], "cannot read config file"),
        ("oracle", ["--config", "{tmp}/latin1.conf"], "not UTF-8 text"),
        ("check", ["--config", "{tmp}/bad.conf"], "max carrier size must be at least 1"),
        ("check", ["--config", "{tmp}/junk.conf"], "invalid literal for int()"),
        ("check", ["--config", "{tmp}/typo.conf"], "unknown config key 'budget_sise'"),
        ("check", ["--config", "{tmp}/flag.conf"], "unknown config key 'prover_time'"),
        ("check", ["--prover-cmd", "ls '{{file}}"], "bad prover command: No closing quotation"),
        ("prove", ["--prover-cmd", "sleep 1", "--prover-time", "3e6"], "at most 2147483 seconds"),
        ("prove", ["--prover-cmd", "sleep 1", "--prover-time", "1e10"], "at most 2147483 seconds"),
        ("prove", ["--prover-cmd", "sleep 1", "--prover-time", "inf"], "at most 2147483 seconds"),
        ("check", ["--config", "{tmp}/forever.conf"], "at most 2147483 seconds"),
    ],
)
def test_bad_settings_are_one_line_usage_errors(corpus_dir, tmp_path, capsys, command, flags, message):
    (tmp_path / "bad.conf").write_text("budget_size = 0\n")
    (tmp_path / "junk.conf").write_text("budget_models = many\n")
    (tmp_path / "typo.conf").write_text("budget_sise = 0\n")
    (tmp_path / "flag.conf").write_text("prover_time = 0\n")
    (tmp_path / "forever.conf").write_text("time_limit = inf\n")
    (tmp_path / "latin1.conf").write_bytes("# caf\u00e9\n".encode("latin-1"))
    flags = [f.format(tmp=tmp_path) for f in flags]
    assert main([command, str(corpus_dir / "choice_def1.dhol"), *flags]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_each_subcommand_takes_only_the_flags_it_reads():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {
            max(a.option_strings, key=len)
            for a in sp._actions
            if a.option_strings and a.dest != "help"
        }
        for name, sp in sub.choices.items()
    }
    mode = {"--eps1", "--eps2"}
    budget = {"--config", "--budget-size", "--budget-models", "--budget-seconds", "--json-report"}
    discharge = mode | budget | {"--prover-cmd", "--prover-time", "--no-oracle", "--jobs"}
    assert options == {
        "check": discharge,
        "prove": discharge | {"--output-dir"},
        "erase": mode | {"--output-dir"},
        "emit": mode | {"--output-dir"},
        "oracle": mode | budget,
        "gen-corpus": {"--output-dir"},
    }
    assert sum(len(options[c]) for c in ("check", "prove", "erase", "emit", "oracle")) == 36


def test_internal_error_exits_70(corpus_dir, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("kernel exploded\nsecond line")

    monkeypatch.setattr(cli, "check_theory", broken)
    assert main(["check", str(corpus_dir / "choice_def1.dhol")]) == 70
    err = capsys.readouterr().err
    assert err == "internal error: ValueError: kernel exploded second line\n"


def test_erase_writes_deterministic_file(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["erase", str(corpus_dir / "choice_def1.dhol"), "--eps1", "-o", str(out)]
    assert main(argv) == 0
    first = (out / "choice_def1.strong.p").read_bytes()
    assert main(argv) == 0
    assert (out / "choice_def1.strong.p").read_bytes() == first


def test_erase_writes_the_erasure_of_the_whole_theory(corpus_dir, tmp_path, capsys):
    # the kernel erases declaration by declaration; written out, that is the
    # erasure of the whole elaborated theory
    out = tmp_path / "out"
    for problem in sorted(corpus_dir.glob("*.dhol")):
        thy, conjecture = parse_theory(problem.read_text())
        for mode, flag in ((Mode.STRONG_EPSILON, "--eps1"), (Mode.WEAK_EPSILON, "--eps2")):
            assert main(["erase", str(problem), flag, "-o", str(out)]) == 0
            rep = check_theory(thy, conjecture, mode)
            variant = mode.variant
            erased = erase_theory(rep.theory_elaborated, Context(), variant)
            goal = erase_term(rep.conjecture_elaborated, variant)
            want = emit_thf(erased, f"{problem.stem}.{variant.value}", conjecture=goal).text
            assert (out / f"{problem.stem}.{variant.value}.p").read_text() == want


def test_prove_erases_each_declaration_once(corpus_dir, tmp_path, monkeypatch, capsys):
    erased = []
    erase_declaration = erasure._erase_declaration

    def counted(d, *args):
        erased.append(d.label if isinstance(d, AxiomDecl) else d.name)
        return erase_declaration(d, *args)

    monkeypatch.setattr(erasure, "_erase_declaration", counted)
    problem = corpus_dir / "list_head.dhol"
    main(["prove", str(problem), "--no-oracle", "-o", str(tmp_path)])
    thy, _ = parse_theory(problem.read_text())
    assert erased == [d.label if isinstance(d, AxiomDecl) else d.name for d in thy]
    assert len(erased) == 8


def test_emit_writes_obligation_files(corpus_dir, tmp_path, capsys):
    out = tmp_path / "obs"
    code = main(["emit", str(corpus_dir / "choice_def1.dhol"), "--eps1", "-o", str(out)])
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["choice_def1.ob001.strong.p", "choice_def1.ob002.strong.p"]


def test_emit_eps2_writes_weak_erasure(corpus_dir, tmp_path, capsys):
    out = tmp_path / "obs"
    problem = corpus_dir / "choice_def1.dhol"
    assert main(["emit", str(problem), "--eps2", "-o", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "choice_def1.ob001.weak.p",
        "choice_def1.ob002.weak.p",
    ]
    thy, conjecture = parse_theory(problem.read_text())
    rep = check_theory(thy, conjecture, Mode.WEAK_EPSILON)
    for ob in rep.obligations:
        expected = emit_thf(ob, f"choice_def1.{ob.id}.weak").text
        assert (out / f"choice_def1.{ob.id}.weak.p").read_text() == expected


def _choice_rooted_diff(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, Choice):
        return True
    match_fields = [f for f in ("fun", "arg", "lhs", "rhs", "body") if hasattr(a, f)]
    if not match_fields:
        return a == b
    for f in match_fields:
        if not _choice_rooted_diff(getattr(a, f), getattr(b, f)):
            return False
    return True


def test_prove_variant_outputs_differ_only_at_choice(corpus_dir, tmp_path, capsys):
    out = tmp_path / "proofs"
    main(["prove", str(corpus_dir / "choice_def1.dhol"), "--eps1", "-o", str(out)])
    main(["prove", str(corpus_dir / "choice_def1.dhol"), "--eps2", "-o", str(out)])
    strong = (out / "choice_def1.strong.p").read_text()
    weak = (out / "choice_def1.weak.p").read_text()
    assert strong != weak
    sthy, sconj = parse_thf(strong)
    wthy, wconj = parse_thf(weak)
    assert _choice_rooted_diff(sconj, wconj)
    for sd, wd in zip(sthy, wthy):
        if hasattr(sd, "term"):
            assert _choice_rooted_diff(sd.term, wd.term)


def test_json_report(corpus_dir, tmp_path, capsys):
    report = tmp_path / "report.json"
    main(
        [
            "check",
            str(corpus_dir / "choice_def1.dhol"),
            "--eps1",
            "--json-report",
            str(report),
        ]
    )
    payload = json.loads(report.read_text())
    assert payload["verdict"] == "ok"
    assert list(payload["obligations"]) == ["ob001"]


def test_oracle_subcommand(corpus_dir, capsys, tmp_path):
    # an unprovable conjecture gets a countermodel
    bad = tmp_path / "claim.dhol"
    bad.write_text("type u : tp\nconst d : u\nconst h : u > $o\nconjecture : h d\n")
    code = main(["oracle", str(bad), "--eps1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "countermodel" in out
    assert "|u| = 1" in out


def test_gen_corpus_command(tmp_path, capsys):
    out = tmp_path / "c"
    code = main(["gen-corpus", "-o", str(out)])
    assert code == 0
    assert (out / "manifest").exists()
    assert len(list(out.glob("*.dhol"))) == 29


def test_config_file_precedence(corpus_dir, tmp_path, monkeypatch, capsys):
    # flags > config file > environment
    cfg = tmp_path / "dholc.cfg"
    cfg.write_text("budget_size=1\n")
    monkeypatch.setenv("DHOL_PROVER_CMD", "/nonexistent/prover {file}")
    code = main(
        [
            "check",
            str(corpus_dir / "choice_nq.dhol"),
            "--eps1",
            "--config",
            str(cfg),
            "--no-oracle",
        ]
    )
    # the env prover is consulted (lowest precedence, still configured) and
    # fails to spawn; the obligation stays open
    assert code == 1
    assert "open" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["", "type a : tp\nconst c : a\n"])
def test_prove_without_a_conjecture_exits_two(tmp_path, capsys, source):
    src = tmp_path / "plain.dhol"
    src.write_text(source)
    out = tmp_path / "out"
    assert main(["prove", str(src), "-o", str(out), "--json-report", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr() == ("", "error: no conjecture to prove\n")
    assert not out.exists() and not (tmp_path / "r.json").exists()


ILL_SCOPED = """\
type nat : tp
const 0 : nat
const p : nat > $o
axiom unknown_name : p y
const unknown_type : nat > list
const wrong_arity : nat 0
axiom no_successor : p 2
type nat : tp
conjecture : p 0
"""


@pytest.mark.parametrize("command", ["check", "prove", "oracle", "emit", "erase"])
def test_every_ill_scoped_declaration_is_reported(tmp_path, capsys, command):
    src = tmp_path / "scope.dhol"
    src.write_text(ILL_SCOPED)
    out = ["-o", str(tmp_path / "out")] if command in ("prove", "emit", "erase") else []
    assert main([command, str(src), *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{src}: 4:24: unbound name 'y' (in unknown_name)",
        f"{src}: 5:28: unknown base type 'list' (in unknown_type)",
        f"{src}: 6:21: base type 'nat' expects 0 argument(s), got 1 (in wrong_arity)",
        f"{src}: 7:24: unbound name 's' (in no_successor)",
        f"{src}: 8:6: redeclaration of 'nat' (in nat)",
    ]
    assert not (tmp_path / "out").exists()


def test_conjecture_may_name_a_later_declaration(tmp_path, capsys):
    # the conjecture is checked against the whole theory, as its obligation
    # assumes every axiom
    src = tmp_path / "late.dhol"
    src.write_text("type u : tp\nconst d : u\nconjecture : h d\nconst h : u > $o\naxiom hd : h d\n")
    assert main(["prove", str(src), "-o", str(tmp_path)]) == 0
    assert "prove: ok" in capsys.readouterr().out


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "syntax.dhol"
    bad.write_text("type : tp\n")
    assert main(["check", str(bad), "--eps1"]) == 2


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_too_deep_input_exits_two(tmp_path, capsys, command):
    deep = tmp_path / "deep.dhol"
    deep.write_text(
        "type nat : tp\nconst 0 : nat\nconst s : nat > nat\nconst p : nat > $o\n"
        "conjecture : p 496\n"
    )
    assert main([command, str(deep), "--eps1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "too deeply" in err


@pytest.mark.parametrize("command", ["check", "prove", "oracle", "emit", "erase"])
def test_nesting_well_below_the_limit_is_processed(tmp_path, capsys, command):
    # the limit is about 490 nested applications, and prove meets it first
    deep = tmp_path / "deep.dhol"
    deep.write_text(
        "type nat : tp\nconst 0 : nat\nconst s : nat > nat\nconst p : nat > $o\n"
        "conjecture : p 400\n"
    )
    out = ["-o", str(tmp_path / "out")] if command in ("prove", "emit", "erase") else []
    assert main([command, str(deep), *out]) in (0, 1)
    assert "too deeply" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# input is read as UTF-8, and outputs that cannot be written are errors


@pytest.mark.parametrize("command", ["check", "prove", "oracle", "emit", "erase"])
def test_input_that_is_not_utf8_exits_two(corpus_dir, tmp_path, capsys, command):
    bad = tmp_path / "bom.dhol"
    bad.write_bytes(b"\xff\xfe" + (corpus_dir / "choice_def1.dhol").read_bytes())
    out = ["-o", str(tmp_path / "out")] if command in ("prove", "emit", "erase") else []
    assert main([command, str(bad), *out]) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text\n"


def test_input_is_utf8_whatever_the_locale(corpus_dir, tmp_path):
    src = tmp_path / "cafe.dhol"
    text = "% caf\u00e9\n" + (corpus_dir / "choice_def1.dhol").read_text()
    src.write_text(text, encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = str(Path(dholc.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "dholc.cli", "check", str(src)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{problem}", "--json-report", "{tmp}/missing/report.json"],
        ["prove", "{problem}", "-o", "{tmp}", "--json-report", "{tmp}/missing/report.json"],
        ["oracle", "{problem}", "--json-report", "{tmp}/missing/report.json"],
        ["prove", "{problem}", "-o", "{tmp}/plain/out"],
        ["emit", "{problem}", "-o", "{tmp}/plain/out"],
        ["erase", "{problem}", "-o", "{tmp}/plain/out"],
        ["erase", "{problem}", "-o", "{tmp}/plain"],
        ["gen-corpus", "-o", "{tmp}/plain/out"],
    ],
)
def test_output_that_cannot_be_written_exits_two(corpus_dir, tmp_path, capsys, argv):
    (tmp_path / "plain").write_text("")  # a regular file, where a directory is wanted
    argv = [a.format(problem=corpus_dir / "choice_def1.dhol", tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    target = argv[-1]
    assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1, err
