import json

import pytest

from dholc.cli import main
from dholc.corpus import write_corpus
from dholc.syntax import Choice
from dholc.thf import parse_thf


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
    code = main(["check", str(corpus_dir / "choice_def1.dhol"), "--eps1", "--weak"])
    assert code == 64
    assert "force-variant" in capsys.readouterr().err


def test_forced_variant_pairing_allowed(corpus_dir):
    code = main(
        [
            "erase",
            str(corpus_dir / "choice_def1.dhol"),
            "--eps1",
            "--weak",
            "--force-variant",
            "-o",
            str(corpus_dir / "forced"),
        ]
    )
    assert code == 0


def test_erase_writes_deterministic_file(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["erase", str(corpus_dir / "choice_def1.dhol"), "--strong", "-o", str(out)]
    assert main(argv) == 0
    first = (out / "choice_def1.strong.p").read_bytes()
    assert main(argv) == 0
    assert (out / "choice_def1.strong.p").read_bytes() == first


def test_emit_writes_obligation_files(corpus_dir, tmp_path, capsys):
    out = tmp_path / "obs"
    code = main(["emit", str(corpus_dir / "choice_def1.dhol"), "--eps1", "-o", str(out)])
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["choice_def1.ob001.strong.p", "choice_def1.ob002.strong.p"]


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
